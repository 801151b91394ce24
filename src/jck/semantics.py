"""Finite frames and evidence models: validation, saturation, and satisfaction.

A frame (`KripkeModel`) carries worlds, per-agent accessibility relations and
a valuation.  Group reachability is the union of the agent relations; common
reachability is its transitive closure.  An evidence model (`AFModel`) is a
frame plus a finite base of evidence facts, a constant specification and an
evidence mode; the modal side (`modal`) reads the same frame with the evidence
left out, and uses this module's frame text format, generator and fixture.

One evaluator, `holds`, reads formulas of both languages on any frame: a
modal box needs only its successors, an evidence box also needs its fact in
a given fact set, or none in full evidence.  `satisfies` supplies that set:
in base mode it saturates the nine evidence-closure rules over a finite
universe of terms and formulas, a sound under-approximation of the least
closed evidence function, exact whenever the relevant derivations stay inside
the universe.  Full mode answers every evidence query positively, so a full
model reads each `[t]@s A` as the modal box `#s A`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .deduction import ConstantSpecification, match_axiom
from .errors import InvalidInput, ParseError, ResourceError, UnknownWorld, quoted
from .syntax import (
    And, App, Bang, Box, C, Const, E, Formula, Head, Imp, Ind, Just, Neg, Or,
    Parser, Prop, Proj, Sort, Sum, Tail, Term, Tuple, agent, bound_problems,
    integer, parse_formula, parse_term, print_formula, print_term, subformulas,
    subterms,
)

Pair = tuple[int, int]

MAX_AGENTS = 1000  # cap on a model file's h: line; each agent costs a relation

# saturations a model keeps, by (query, depth budget); cleared when full
_SATURATION_CACHE_SIZE = 4096


@dataclass(frozen=True)
class EvidenceFact:
    """One base assertion: at `world`, `term` counts as evidence for `formula`."""

    world: int
    term: Term
    formula: Formula


class KripkeModel:
    """Finite multi-agent S4 frame: worlds, one preorder per agent, and a
    valuation.  Group reachability is the union of the agent relations and
    common reachability its transitive closure; each sort's successor map is
    built on first use and cached.  Treat instances as immutable after
    construction; the cache assumes it.
    """

    def __init__(self, h: int, worlds, relations, valuation):
        if h < 1:
            raise InvalidInput("need at least one agent")
        self.h = h
        self.worlds = frozenset(worlds)
        self.relations = {i: frozenset(relations.get(i, ())) for i in range(1, h + 1)}
        self.valuation = {p: frozenset(ws) for p, ws in valuation.items()}
        self._succ_cache: dict[Sort, dict[int, tuple[int, ...]]] = {}

    def successors(self, sort: Sort) -> dict[int, tuple[int, ...]]:
        """World-successor map for the given sort's accessibility relation:
        every world maps to a tuple of worlds.  Common reachability comes
        straight from `reach_by_component` over the agent union, so the
        worlds of one strongly connected component share one tuple and no
        pair set is built.  The tuples are shared; never mutate them.  This
        is where an agent index above `h` is caught, on a cache miss."""
        succ = self._succ_cache.get(sort)
        if succ is None:
            if sort.is_agent:
                if sort.index > self.h:
                    raise InvalidInput(f"agent index {sort.index} outside 1..{self.h}")
                rel = self.relations[sort.index]
            else:
                rel = frozenset().union(*self.relations.values())
            graph: dict[int, list[int]] = {w: [] for w in self.worlds}
            for w, v in rel:
                graph.setdefault(w, []).append(v)
            if sort == C:
                succ = reach_by_component(graph)
            else:
                succ = {w: tuple(vs) for w, vs in graph.items()}
            self._succ_cache[sort] = succ
        return succ


class AFModel(KripkeModel):
    """A frame plus a finite base of evidence facts.

    `mode` is "base" (evidence from the fact base, closed under the nine
    rules) or "full" (every term evidences every formula).  The saturation
    cache, like the frame's, assumes the model is not changed after
    construction; it holds at most `_SATURATION_CACHE_SIZE` saturations.
    """

    def __init__(self, h: int, worlds, relations, valuation, evidence_base=(),
                 cs: ConstantSpecification | None = None, mode: str = "base"):
        super().__init__(h, worlds, relations, valuation)
        if mode not in ("base", "full"):
            raise InvalidInput(f"unknown evidence mode {mode!r}")
        self.evidence_base = tuple(evidence_base)
        self.cs = cs if cs is not None else ConstantSpecification.total_c()
        self.mode = mode
        self._saturation_cache: dict = {}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _unknown_pair_problems(i: int, rel, worlds) -> list[str]:
    return [f"rel {i}: pair ({w},{v}) uses an unknown world"
            for w, v in rel if w not in worlds or v not in worlds]


def _preorder_problems(i: int, rel, worlds) -> list[str]:
    """Missing reflexive and transitive pairs.  The transitivity check looks
    each pair's target up in a successor map, so it costs one step per pair
    (w,v) and successor of v."""
    problems = [f"rel {i}: missing reflexive pair ({w},{w})"
                for w in worlds if (w, w) not in rel]
    succ: dict[int, list[int]] = {}
    for v, u in rel:
        succ.setdefault(v, []).append(u)
    for w, v in rel:
        for u in succ.get(v, ()):
            if (w, u) not in rel:
                problems.append(f"rel {i}: missing transitive pair ({w},{u})")
    return problems


def _valuation_problems(m: KripkeModel) -> list[str]:
    return [f"val {p}: unknown world {w}"
            for p, ws in m.valuation.items() for w in ws if w not in m.worlds]


def _evidence_problems(m: AFModel) -> list[str]:
    problems = []
    for fact in m.evidence_base:
        if fact.world not in m.worlds:
            problems.append(f"evidence at unknown world {fact.world}")
        for issue in bound_problems(fact.term, m.h) + bound_problems(fact.formula, m.h):
            problems.append(f"evidence ({fact.world}, {print_term(fact.term)}, "
                            f"{print_formula(fact.formula)}): {issue}")
    return problems


def _report(problems: list[str]) -> ValidationReport:
    dedup = tuple(dict.fromkeys(problems))
    return ValidationReport(not dedup, dedup)


def validate_kripke_model(m: KripkeModel) -> ValidationReport:
    """Frame checks, which `validate_model` runs first: every relation a
    preorder over known worlds, every valuation over known worlds."""
    problems: list[str] = []
    for i in range(1, m.h + 1):
        problems += _unknown_pair_problems(i, m.relations[i], m.worlds)
        problems += _preorder_problems(i, m.relations[i], m.worlds)
    return _report(problems + _valuation_problems(m))


def validate_model(m: AFModel) -> ValidationReport:
    """Frame and typing checks: preorder relations, known worlds, sorted facts."""
    return _report(list(validate_kripke_model(m).problems) + _evidence_problems(m))


def reach_by_component(graph: dict) -> dict:
    """Map each node of `graph` (node -> its successors), and each successor
    that is not a key, to the tuple of nodes it reaches by paths of length
    >= 1.

    One iterative pass of Tarjan's strongly connected components algorithm
    (Tarjan, *Depth-first search and linear graph algorithms*, 1972).  The
    nodes of a component reach the same nodes, so they share one tuple; a
    component is finished only after every component it reaches, so its
    tuple is the union of theirs (Nuutila, *Efficient transitive closure
    computation in large digraphs*, 1995).  A successor already in the
    union is skipped with what it reaches.  The tuples are shared; never
    mutate them."""
    index: dict = {}    # order of discovery
    low: dict = {}
    at: dict = {}       # position on `stack`
    reach: dict = {}    # finished nodes; the rest of `index` is on the stack
    stack: list = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        at[root] = 0
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, edges = work[-1]
            for u in edges:
                if u not in index:
                    index[u] = low[u] = len(index)
                    at[u] = len(stack)
                    stack.append(u)
                    work.append((u, iter(graph.get(u, ()))))
                    break
                if u not in reach and index[u] < low[v]:
                    low[v] = index[u]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] < index[v]:
                    continue
                members = stack[at[v]:]
                del stack[at[v]:]
                # a cycle reaches its own members (which also keeps them out
                # of the loop below); a lone node reaches itself only by a loop
                out = set(members) if len(members) > 1 or v in graph.get(v, ()) else set()
                for x in members:
                    for u in graph.get(x, ()):
                        if u not in out:
                            out.add(u)
                            out.update(reach[u])
                shared = tuple(out)
                for x in members:
                    reach[x] = shared
    return reach


def transitive_closure(pairs) -> frozenset:
    """Smallest transitive superset of `pairs` (paths of length >= 1): the
    pairs of `reach_by_component` over the graph of `pairs`, which reads
    each pair once instead of searching again from every node.  The
    frozenset is new; the tuples it is built from are not returned."""
    graph: dict[int, list[int]] = {}
    for w, v in pairs:
        graph.setdefault(w, []).append(v)
    return frozenset((w, u) for w, us in reach_by_component(graph).items() for u in us)


def reflexive_transitive_closure(pairs, worlds) -> frozenset:
    return transitive_closure(set(pairs) | {(w, w) for w in worlds})


def reach_C(m: KripkeModel) -> frozenset:
    return frozenset((w, v) for w, vs in m.successors(C).items() for v in vs)


# ---------------------------------------------------------------------------
# saturation


@dataclass(frozen=True)
class SaturationUniverse:
    """Finite fact space: only (world, term, formula) with term and formula
    drawn from these sets participate in closure."""

    terms: frozenset
    formulas: frozenset


def build_universe(m: AFModel, query: Formula, depth_budget: int = 3,
                   max_size: int = 50000) -> SaturationUniverse:
    """Subterm/subformula closure of the query and the fact base, then
    specification instances for constants present, then `depth_budget` rounds
    of the boxed forms the tail rule can emit."""
    terms: set[Term] = set()
    formulas: set[Formula] = set()

    def add_formula(a: Formula) -> None:
        for f in subformulas(a):
            formulas.add(f)
            # `terms` holds every subterm of a term it holds
            if isinstance(f, Just) and f.term not in terms:
                terms.update(subterms(f.term))

    add_formula(query)
    for fact in m.evidence_base:
        terms.update(subterms(fact.term))
        add_formula(fact.formula)

    if m.cs.kind != "totalC":
        for c, a in m.cs.pairs():
            if c in terms:
                add_formula(a)

    for _ in range(depth_budget):
        tails = [t for t in terms if isinstance(t, Tail)]
        fresh = []
        for tail in tails:
            for a in formulas:
                boxed = Just(tail.t, C, a)
                if boxed not in formulas:
                    fresh.append(boxed)
        formulas.update(fresh)
        if len(terms) + len(formulas) > max_size:
            raise ResourceError(
                f"saturation universe exceeded {max_size} entries; "
                "lower the depth budget or shrink the query")
        if not fresh:
            break
    if len(terms) + len(formulas) > max_size:
        raise ResourceError(
            f"saturation universe exceeded {max_size} entries; "
            "lower the depth budget or shrink the query")
    return SaturationUniverse(frozenset(terms), frozenset(formulas))


def saturate(m: AFModel, universe: SaturationUniverse) -> frozenset:
    """Least fixpoint of the nine closure rules inside `universe`.

    Returns a frozenset of (world, term, formula) triples.  Indexed worklist:
    each rule fires from the arrival of a premise fact, so work is linear in
    fired-rule instances rather than in universe size per pass.
    """
    tu = universe.terms
    fu = universe.formulas

    # structural indexes over the term universe
    sums_by_child: dict[Term, list[Sum]] = {}
    apps_by_left: dict[Term, list[App]] = {}
    apps_by_right: dict[Term, list[App]] = {}
    bangs_by_child: dict[Term, list[Bang]] = {}
    tuples_by_slot: dict[tuple[Term, int], list[Tuple]] = {}
    projs_by_child: dict[Term, list[Proj]] = {}
    heads_by_child: dict[Term, list[Head]] = {}
    tails_by_child: dict[Term, list[Tail]] = {}
    inds_by_e: dict[Term, list[Ind]] = {}
    inds_by_pair: dict[tuple[Term, Term], Ind] = {}
    constants: list[Const] = []
    for t in tu:
        if isinstance(t, Sum):
            sums_by_child.setdefault(t.t, []).append(t)
            if t.s != t.t:
                sums_by_child.setdefault(t.s, []).append(t)
        elif isinstance(t, App):
            apps_by_left.setdefault(t.t, []).append(t)
            apps_by_right.setdefault(t.s, []).append(t)
        elif isinstance(t, Bang):
            bangs_by_child.setdefault(t.t, []).append(t)
        elif isinstance(t, Tuple):
            for i, item in enumerate(t.items, start=1):
                tuples_by_slot.setdefault((item, i), []).append(t)
        elif isinstance(t, Proj):
            projs_by_child.setdefault(t.t, []).append(t)
        elif isinstance(t, Head):
            heads_by_child.setdefault(t.t, []).append(t)
        elif isinstance(t, Tail):
            tails_by_child.setdefault(t.t, []).append(t)
        elif isinstance(t, Ind):
            inds_by_e.setdefault(t.s, []).append(t)
            inds_by_pair[(t.t, t.s)] = t
        elif isinstance(t, Const):
            constants.append(t)

    succ_star: dict[Sort, dict[int, list[int]]] = {}
    for i in range(1, m.h + 1):
        succ_star[agent(i)] = m.successors(agent(i))
    succ_star[C] = m.successors(C)

    known: set[tuple[int, Term, Formula]] = set()
    by_world_term: dict[tuple[int, Term], set[Formula]] = {}
    queue: list[tuple[int, Term, Formula]] = []

    def emit(w: int, t: Term, a: Formula) -> None:
        fact = (w, t, a)
        if fact in known:
            return
        known.add(fact)
        by_world_term.setdefault((w, t), set()).add(a)
        queue.append(fact)

    def holds(w: int, t: Term, a: Formula) -> bool:
        return a in by_world_term.get((w, t), ())

    # seeds: the base plus specification facts at every world
    for fact in m.evidence_base:
        if fact.world in m.worlds and fact.term in tu and fact.formula in fu:
            emit(fact.world, fact.term, fact.formula)
    if m.cs.kind == "totalC":
        axioms = [a for a in fu if match_axiom(a)]
        for c in constants:
            if c.sort == C:
                for a in axioms:
                    for w in m.worlds:
                        emit(w, c, a)
    else:
        for c, a in m.cs.pairs():
            if c in tu and a in fu:
                for w in m.worlds:
                    emit(w, c, a)

    while queue:
        w, t, a = queue.pop()
        sort = t.sort

        # monotonicity along the star-sort relations
        if sort.is_agent or sort == C:
            for v in succ_star[sort].get(w, ()):
                emit(v, t, a)

        # application, both premise roles
        if isinstance(a, Imp):
            for u in apps_by_left.get(t, ()):
                if a.right in fu and holds(w, u.s, a.left):
                    emit(w, u, a.right)
        for u in apps_by_right.get(t, ()):
            for f in list(by_world_term.get((w, u.t), ())):
                if isinstance(f, Imp) and f.left == a and f.right in fu:
                    emit(w, u, f.right)

        # sum
        for u in sums_by_child.get(t, ()):
            emit(w, u, a)

        # inspection
        if sort.is_agent:
            boxed = Just(t, sort, a)
            for u in bangs_by_child.get(t, ()):
                if boxed in fu:
                    emit(w, u, boxed)

        # tupling
        if sort.is_agent:
            for u in tuples_by_slot.get((t, sort.index), ()):
                if all(holds(w, item, a) for item in u.items):
                    emit(w, u, a)

        # projection
        if sort == E:
            for u in projs_by_child.get(t, ()):
                emit(w, u, a)

        # co-closure, head and tail conclusions
        if sort == C:
            for u in heads_by_child.get(t, ()):
                emit(w, u, a)
            boxed = Just(t, C, a)
            for u in tails_by_child.get(t, ()):
                if boxed in fu:
                    emit(w, u, boxed)

        # induction, from either premise
        if sort == E:
            for u in inds_by_e.get(t, ()):
                if holds(w, u.t, Imp(a, Just(t, E, a))):
                    emit(w, u, a)
        if sort == C and isinstance(a, Imp):
            body = a.right
            if isinstance(body, Just) and body.sort == E and body.body == a.left:
                u = inds_by_pair.get((t, body.term))
                if u is not None and a.left in fu and holds(w, body.term, a.left):
                    emit(w, u, a.left)

    return frozenset(known)


def _facts_for_query(m: AFModel, query: Formula, depth_budget: int) -> frozenset:
    key = (query, depth_budget)
    facts = m._saturation_cache.get(key)
    if facts is None:
        facts = saturate(m, build_universe(m, query, depth_budget))
        if len(m._saturation_cache) >= _SATURATION_CACHE_SIZE:
            m._saturation_cache.clear()
        m._saturation_cache[key] = facts
    return facts


def evidence_holds(m: AFModel, w: int, t: Term, a: Formula,
                   depth_budget: int = 3) -> bool:
    """Does `t` evidence `a` at `w`?  Full mode: always.  Base mode: membership
    in the saturation of the query's own universe (a bounded, sound
    under-approximation; a negative answer is relative to the budget)."""
    if w not in m.worlds:
        raise UnknownWorld(f"unknown world {w}")
    if m.mode == "full":
        return True
    facts = _facts_for_query(m, Just(t, t.sort, a), depth_budget)
    return (w, t, a) in facts


def holds(m: KripkeModel, w: int, a: Formula, facts=None) -> bool:
    """Truth of `a` at world `w` of any frame, for both languages.

    A modal box `Box(s, A)` holds when A holds at every s-successor.  An
    evidence box `[t]@s A` also needs the fact (w, t, A) in `facts`, unless
    `facts` is None: then every term evidences every formula, the full
    evidence reading, and `[t]@s A` holds exactly when `Box(s, A)` does.

    The relational part of a box depends only on the successors, so it is
    memoized by successor tuple: the worlds of one common-knowledge
    component share theirs (`KripkeModel.successors`), and each C box is
    evaluated once per component.  The evidence test stays per world."""
    if w not in m.worlds:
        raise UnknownWorld(f"unknown world {w}")
    # keyed by identity: the successor tuples live in the model's cache and
    # every node inside `a` meanwhile, and an id is cheaper than even a
    # cached hash
    memo: dict[tuple[int, int], bool] = {}

    def sat(v: int, f: Formula) -> bool:
        if isinstance(f, Prop):
            return v in m.valuation.get(f.index, frozenset())
        if isinstance(f, Neg):
            return not sat(v, f.body)
        if isinstance(f, And):
            return sat(v, f.left) and sat(v, f.right)
        if isinstance(f, Or):
            return sat(v, f.left) or sat(v, f.right)
        if isinstance(f, Imp):
            return (not sat(v, f.left)) or sat(v, f.right)
        if not isinstance(f, (Just, Box)):
            raise InvalidInput(f"cannot evaluate {f!r}")
        if isinstance(f, Just) and facts is not None and (v, f.term, f.body) not in facts:
            return False
        succ = m.successors(f.sort).get(v, ())
        key = (id(succ), id(f))
        out = memo.get(key)
        if out is None:
            out = memo[key] = all(sat(u, f.body) for u in succ)
        return out

    return sat(w, a)


def satisfies(m: AFModel, w: int, a: Formula, depth_budget: int = 3) -> bool:
    """Satisfaction at a world of an evidence model.  In base mode all
    evidence questions for the whole query are answered against one
    saturation of the query's universe; full mode needs none."""
    if w not in m.worlds:
        raise UnknownWorld(f"unknown world {w}")
    facts = _facts_for_query(m, a, depth_budget) if m.mode == "base" else None
    return holds(m, w, a, facts)


def valid_in_model(m: AFModel, a: Formula, depth_budget: int = 3) -> bool:
    return all(satisfies(m, w, a, depth_budget) for w in m.worlds)


def _random_frame(rng: random.Random, h: int, n_worlds: int, density: float):
    """(worlds, relations, valuation) of a random frame: agent relations are
    reflexive-transitive closures of random edge sets, and P1..P4 each hold
    at a world with probability 1/2."""
    worlds = set(range(n_worlds))
    relations = {}
    for i in range(1, h + 1):
        edges = {(w, v) for w in worlds for v in worlds
                 if w != v and rng.random() < density}
        relations[i] = reflexive_transitive_closure(edges, worlds)
    valuation = {k: {w for w in worlds if rng.random() < 0.5}
                 for k in range(1, 5)}
    return worlds, relations, valuation


def random_kripke_model(h: int, n_worlds: int, density: float = 0.3,
                        seed: int = 0) -> KripkeModel:
    """Seed-deterministic frame."""
    return KripkeModel(h, *_random_frame(random.Random(seed), h, n_worlds, density))


def random_model(h: int, n_worlds: int, density: float = 0.3, n_base: int = 4,
                 seed: int = 0, mode: str = "base") -> AFModel:
    """Seed-deterministic model under the total C specification: the frame
    `random_kripke_model` draws for the same seed, then `n_base` random
    evidence facts."""
    from .gen import random_formula, random_sort, random_term
    rng = random.Random(seed)
    worlds, relations, valuation = _random_frame(rng, h, n_worlds, density)
    base = []
    for _ in range(n_base):
        sort = random_sort(rng, h)
        base.append(EvidenceFact(rng.randrange(n_worlds),
                                 random_term(rng, sort, h, rng.randint(0, 2)),
                                 random_formula(rng, h, rng.randint(0, 2))))
    return AFModel(h, worlds, relations, valuation, base, mode=mode)


# ---------------------------------------------------------------------------
# model files


def format_kripke_model(m: KripkeModel) -> str:
    """The frame lines of the model file format: h, worlds, rel, val."""
    lines = [f"h: {m.h}"]
    lines.append("worlds: " + " ".join(f"w{w}" for w in sorted(m.worlds)))
    for i in range(1, m.h + 1):
        pairs = " ".join(f"(w{w},w{v})" for w, v in sorted(m.relations[i]))
        lines.append(f"rel {i}: {pairs}")
    for p in sorted(m.valuation, key=str):
        name = f"P{p}" if isinstance(p, int) else str(p)
        lines.append(f"val {name}: " + " ".join(f"w{w}" for w in sorted(m.valuation[p])))
    return "\n".join(lines) + "\n"


def format_model(m: AFModel) -> str:
    """The frame lines, then the evidence, mode and specification lines."""
    lines = [f"evidence: (w{fact.world}, {print_term(fact.term)}, "
             f"{print_formula(fact.formula)})" for fact in m.evidence_base]
    lines.append(f"mode: {m.mode}")
    if m.cs.kind == "totalC":
        lines.append("cs: totalC")
    return format_kripke_model(m) + "\n".join(lines) + "\n"


def _world_id(token: str) -> int:
    if not token.startswith("w") or not token[1:].isdecimal():
        raise ParseError(f"bad world name {quoted(token)}; expected wN")
    return integer(token[1:], "world number")


def parse_cs_table(text: str, h: int) -> ConstantSpecification:
    """Constant specification tables: one `<const> := <formula>` line each,
    whose formula must be an axiom instance."""
    members = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":=" not in line:
            raise ParseError(f"bad specification line {quoted(line)}; expected ':='")
        left, right = line.split(":=", 1)
        const = parse_term(left.strip(), h)
        if not isinstance(const, Const):
            raise ParseError(f"specification member {quoted(left.strip())} is not a constant")
        members.append((const.index, const.sort, parse_formula(right.strip(), h)))
    return ConstantSpecification.extensional(members)


def parse_model_file(text: str, cs_loader=None) -> tuple[AFModel, tuple[str, ...]]:
    """Load a model from its text form; returns (model, warnings).

    Relations are closed reflexively and transitively on load; closure that
    adds pairs is reported as a warning, not an error.  `cs_loader` maps a
    path from a `cs: file <path>` line to that file's text.
    """
    h = None
    worlds: set[int] = set()
    relations: dict[int, set[Pair]] = {}
    valuation: dict = {}
    evidence: list[EvidenceFact] = []
    mode = "base"
    cs: ConstantSpecification | None = None
    warnings: list[str] = []

    def need_h() -> int:
        if h is None:
            raise ParseError("the h: line must come first")
        return h

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "h":
            h = integer(rest, "agent count")
            if h < 1:
                raise ParseError("h must be at least 1")
            if h > MAX_AGENTS:
                raise ResourceError(f"h: {h} exceeds the cap of {MAX_AGENTS} agents")
        elif key == "worlds":
            worlds.update(_world_id(tok) for tok in rest.split())
        elif key.startswith("rel"):
            i = integer(key[3:].strip(), "agent index")
            if not 1 <= i <= need_h():
                raise ParseError(f"agent index {i} outside 1..{h}")
            pairs = relations.setdefault(i, set())
            for chunk in rest.replace(" ", "").split(")"):
                chunk = chunk.strip(",")
                if not chunk:
                    continue
                if not chunk.startswith("("):
                    raise ParseError(f"bad relation pair {quoted(chunk)}")
                a, _, b = chunk[1:].partition(",")
                pairs.add((_world_id(a), _world_id(b)))
        elif key.startswith("val"):
            name = key[3:].strip()
            if name.startswith("P") and name[1:].isdecimal():
                prop_key = integer(name[1:], "proposition index")
            else:
                prop_key = name
            valuation[prop_key] = {_world_id(tok) for tok in rest.split()}
        elif key == "evidence":
            p = Parser(rest, need_h())
            p.expect("(")
            world = _world_id(p.expect("IDENT")[1])
            p.expect(",")
            term = p.parse_term()
            p.expect(",")
            body = p.parse_formula()
            p.expect(")")
            p.expect_end()
            evidence.append(EvidenceFact(world, term, body))
        elif key == "mode":
            if rest not in ("base", "full"):
                raise ParseError(f"unknown mode {quoted(rest)}")
            mode = rest
        elif key == "cs":
            if rest == "totalC":
                cs = ConstantSpecification.total_c()
            elif rest.startswith("file"):
                path = rest[4:].strip()
                if cs_loader is None:
                    raise InvalidInput("model references a specification file "
                                       "but no loader was provided")
                cs = parse_cs_table(cs_loader(path), need_h())
            else:
                raise ParseError(f"unknown specification {quoted(rest)}")
        else:
            raise ParseError(f"unknown model line {quoted(line)}")

    if h is None:
        raise ParseError("missing h: line")
    if not worlds:
        raise ParseError("missing worlds: line")
    for i in range(1, h + 1):
        given = relations.get(i, set())
        closed = reflexive_transitive_closure(given, worlds)
        if closed != given:
            warnings.append(f"rel {i}: added {len(closed) - len(given)} pairs "
                            "for reflexive-transitive closure")
        relations[i] = closed
    model = AFModel(h, worlds, relations, valuation, evidence, cs, mode)
    # the relations are closed preorders by construction; only the worlds
    # they name and the typing of the rest can still be wrong
    problems = [p for i in range(1, h + 1)
                for p in _unknown_pair_problems(i, model.relations[i], model.worlds)]
    report = _report(problems + _valuation_problems(model) + _evidence_problems(model))
    if not report.ok:
        raise InvalidInput("; ".join(report.problems))
    return model, tuple(warnings)


# ---------------------------------------------------------------------------
# scenario fixtures: two generals, unreliable messenger


def attack_kripke_model() -> KripkeModel:
    """Four-world frame: the last acknowledgment was delivered but its sender
    cannot know that.  Agent 1 is the original sender, agent 2 the receiver;
    `del` marks delivery of the first message."""
    worlds = {0, 1, 2, 3}
    return KripkeModel(
        h=2,
        worlds=worlds,
        relations={
            1: reflexive_transitive_closure({(1, 2)}, worlds),
            2: reflexive_transitive_closure({(0, 1), (2, 3)}, worlds),
        },
        valuation={"del": {0, 1, 2}},
    )


def attack_four_world_model() -> AFModel:
    """The four-world frame in full evidence mode: every refutation here is
    purely relational."""
    k = attack_kripke_model()
    return AFModel(k.h, k.worlds, k.relations, k.valuation, mode="full")


def attack_singleton_model() -> AFModel:
    """One-world model where knowledge fails for lack of evidence alone: the
    message evidences delivery to agent 2, the acknowledgment evidences that
    to agent 1, and nothing more is assumed."""
    m1 = Const("m1", agent(2))
    m2 = Const("m2", agent(1))
    delivered = Prop("del")
    return AFModel(
        h=2,
        worlds={0},
        relations={1: {(0, 0)}, 2: {(0, 0)}},
        valuation={"del": {0}},
        evidence_base=(
            EvidenceFact(0, m1, delivered),
            EvidenceFact(0, m2, Just(m1, agent(2), delivered)),
        ),
        cs=ConstantSpecification.total_c(),
        mode="base",
    )
