"""Finite frames and evidence models: validation, saturation, and satisfaction.

A frame (`KripkeModel`) carries worlds, one successor map per agent and a
valuation.  The loader and the generator close each agent's pairs straight
into its map, the evaluator and the saturator read the maps, and the pair
sets (`relations`) are derived from them on demand.  Group reachability is
the union of the agent maps; common reachability is its transitive closure,
one more map.  An evidence model (`AFModel`) is a
frame plus a finite base of evidence facts, a constant specification and an
evidence mode; the modal side (`modal`) reads the same frame with the evidence
left out, and uses this module's text format, loader, generator and fixture.

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
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

from .deduction import ConstantSpecification
from .errors import InvalidInput, ParseError, ResourceError, UnknownWorld, quoted
from .syntax import (
    And, App, Bang, Box, C, Const, E, Formula, Head, Imp, Ind, Just, Neg, Or,
    Parser, Prop, Proj, Sort, Sum, Tail, Term, Tuple, agent, bound_problems,
    integer, parse_formula, parse_term, print_formula, print_term, walk,
)

Pair = tuple[int, int]

MAX_AGENTS = 1000  # cap on a model file's h: line; each agent costs a relation
# cap on a model file's frame: h times its worlds (a loop at each world for
# each agent), then the pairs of its agents' closed relations, which also
# bound the group map
MAX_FRAME_PAIRS = 1 << 22

# saturations a model keeps, by (query, depth budget), and box verdicts
# `holds` keeps per model or call; each cleared when full
_SATURATION_CACHE_SIZE = 4096


@dataclass(frozen=True)
class EvidenceFact:
    """One base assertion: at `world`, `term` counts as evidence for `formula`."""

    world: int
    term: Term
    formula: Formula


class KripkeModel:
    """Finite multi-agent S4 frame: worlds, one successor map per agent, and
    a valuation.  An agent's relation is given either as its successor map
    (a dict from world to the tuple of worlds it reaches, as the loader and
    the generator build them) or as a collection of pairs; `relations` holds
    the pair sets, derived from the maps on first read.  Group reachability
    is the union of the agent maps and common reachability its transitive
    closure; each sort's successor map is built on first use and cached.
    `holds` keeps its box memo for evaluations without a fact set here, at
    most `_SATURATION_CACHE_SIZE` entries.  Treat instances as immutable
    after construction; the caches assume it.
    """

    def __init__(self, h: int, worlds, relations, valuation):
        if h < 1:
            raise InvalidInput("need at least one agent")
        self.h = h
        self.worlds = frozenset(worlds)
        self.valuation = {p: frozenset(ws) for p, ws in valuation.items()}
        self._succ_cache: dict[Sort, dict[int, tuple[int, ...]]] = {}
        self._pairs: dict[int, frozenset] = {}
        self._box_memo: dict[tuple[int, int], tuple[Formula, bool]] = {}
        for i in range(1, h + 1):
            rel = relations.get(i, ())
            if isinstance(rel, dict):
                self._succ_cache[agent(i)] = rel
            else:
                self._pairs[i] = frozenset(rel)

    @property
    def relations(self) -> dict[int, frozenset]:
        """Agent index -> pair set; a relation given as a successor map has
        its pair set derived here, once per map object."""
        if len(self._pairs) < self.h:
            maps = {i: self.successors(agent(i)) for i in range(1, self.h + 1)
                    if i not in self._pairs}
            sets = {id(succ): frozenset((w, v) for w, vs in succ.items() for v in vs)
                    for succ in {id(succ): succ for succ in maps.values()}.values()}
            self._pairs = {i: sets[id(maps[i])] if i in maps else self._pairs[i]
                           for i in range(1, self.h + 1)}
        return self._pairs

    def successors(self, sort: Sort) -> dict[int, tuple[int, ...]]:
        """World-successor map for the given sort's accessibility relation:
        every world maps to a tuple of worlds.  The group map is the union
        of the agent maps, each world's successors in first-seen order.
        Common reachability is `reach_by_component` over the group map, so
        the worlds of one strongly connected component share one tuple and
        no pair set is built; the group map visits worlds and fills tuples
        in the order the raw union of the agent maps would, since a repeated
        successor changes neither.  The tuples are shared; never mutate
        them.  This is where an agent index above `h` is caught, on a cache
        miss."""
        succ = self._succ_cache.get(sort)
        if succ is None:
            if sort == C:
                succ = reach_by_component(self.successors(E))
            else:
                graph: dict[int, list[int]] = {w: [] for w in self.worlds}
                if sort.is_agent:
                    if sort.index > self.h:
                        raise InvalidInput(f"agent index {sort.index} outside 1..{self.h}")
                    for w, v in self._pairs[sort.index]:
                        graph.setdefault(w, []).append(v)
                else:
                    maps = [self.successors(agent(i)) for i in range(1, self.h + 1)]
                    for agent_succ in {id(s): s for s in maps}.values():  # shared ones once
                        for w, vs in agent_succ.items():
                            graph.setdefault(w, []).extend(vs)
                # agents share successors (every world's loop, at least)
                succ = {w: tuple(dict.fromkeys(vs)) for w, vs in graph.items()}
            self._succ_cache[sort] = succ
        return succ


class AFModel(KripkeModel):
    """A frame plus a finite base of evidence facts.

    `mode` is "base" (evidence from the fact base, closed under the nine
    rules) or "full" (every term evidences every formula).  Its own caches,
    like the frame's, assume the model is not changed after construction:
    the saturation cache holds at most `_SATURATION_CACHE_SIZE` saturations,
    `base_closure` holds the universe of the fact base with its index, the
    part of every query's universe that does not depend on the query, and
    `star_successors` the maps every saturation spreads facts along.
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

    @cached_property
    def star_successors(self) -> dict[Sort, dict[int, tuple[int, ...]]]:
        """Each agent's and C's successor map, by sort: the relations along
        which saturation spreads a fact; built on first read."""
        sorts = [agent(i) for i in range(1, self.h + 1)] + [C]
        return {s: self.successors(s) for s in sorts}

    @cached_property
    def base_closure(self) -> SaturationUniverse:
        """The universe of the fact base's parts, built on first read.  Its
        candidates are tested for axioms only by a query whose universe
        holds a C-sorted constant, as every query's own are."""
        terms, formulas, parents, tails, candidates = set(), set(), {}, [], set()
        _walk([x for fact in self.evidence_base for x in (fact.term, fact.formula)],
              terms, formulas, parents, tails, candidates, {})
        return SaturationUniverse(frozenset(terms), frozenset(formulas), parents, tuple(tails),
                                  frozenset(candidates))


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
        for issue in bound_problems(walk([fact.term, fact.formula]), m.h):
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
    drawn from these sets participate in closure.  The rest, left out of
    equality, indexes them: each term's parents, each `tail(t)`'s argument,
    and the formulas that may be axiom instances or specification members.
    `build_universe` grows it from the model's `base_closure`; a universe
    given only its sets derives it from its own terms, so that no rule fires
    for a parent outside it."""

    terms: frozenset
    formulas: frozenset
    parents: dict = field(default=None, compare=False, repr=False)
    tails: tuple = field(default=(), compare=False, repr=False)
    candidates: frozenset = field(default=frozenset(), compare=False, repr=False)

    def __post_init__(self):
        if self.parents is None:
            parents, tails = {}, []
            for u in self.terms:
                # a walk that finds the children of u present enters u alone
                _walk([u], set(u._children()), set(), parents, tails, set(), {})
            for name, value in (("parents", parents), ("tails", tuple(tails)),
                                ("candidates", self.formulas)):
                object.__setattr__(self, name, value)


def _walk(stack: list, terms: set, formulas: set, parents: dict, tails: list, candidates: set,
          shared: dict) -> None:
    """Add every part of the items on `stack` to `terms` and `formulas`,
    which hold every part of what they hold, so the walk stops there.  Each
    new term is entered in the index: as a parent of its children, and by
    its argument if it is a `tail(t)`.  `parents` may start as a copy of
    `shared`, whose lists are copied before the first append, never changed.
    Each new formula that is not a box is a candidate: a box is a
    propositional atom, which no axiom schema matches."""
    while stack:
        x = stack.pop()
        if isinstance(x, Term):
            if x not in terms:
                terms.add(x)
                kids = x._children()
                stack += kids
                for k in kids:
                    ps = parents.get(k)
                    if ps is None:
                        parents[k] = [x]
                    elif ps[-1] is not x:  # `t + t` is one parent of t
                        if ps is shared.get(k):
                            parents[k] = [*ps, x]
                        else:
                            ps.append(x)
                if x.__class__ is Tail:
                    tails.append(x.t)
        elif x not in formulas:
            formulas.add(x)
            if x.__class__ is not Just:
                candidates.add(x)
            stack += x._children()


def build_universe(m: AFModel, query: Formula, depth_budget: int = 3,
                   max_size: int = 50000) -> SaturationUniverse:
    """Subterm/subformula closure of the query and the fact base, then
    specification instances for constants present, then `depth_budget` rounds
    of the boxed forms `[t]@C A` the tail rule can emit for each `tail(t)`.
    One walk extends a copy of the model's `base_closure`, and its index.

    The rounds are semi-naive (Bancilhon and Ramakrishnan, *An amateur's
    introduction to recursive query processing strategies*, 1986): round 0
    boxes every formula, each later round only the formulas the round before
    added, since a box of an older formula is already in.  A boxed form's
    parts are in the universe already, so it adds no term."""
    base = m.base_closure
    terms, formulas, parents = set(base.terms), set(base.formulas), dict(base.parents)
    tails, candidates = list(base.tails), set(base.candidates)
    _walk([query], terms, formulas, parents, tails, candidates, base.parents)
    for c, a in m.cs.pairs():
        if c in terms:
            _walk([a], terms, formulas, parents, tails, candidates, base.parents)

    # the universe only grows, so checking its size before each round and
    # once after the last refuses exactly the inputs whose final size is over
    added = formulas
    for rnd in count():
        if len(terms) + len(formulas) > max_size:
            raise ResourceError(
                f"saturation universe exceeded {max_size} entries; "
                "lower the depth budget or shrink the query")
        if rnd >= depth_budget or not tails:
            break
        added = {boxed for t in tails for a in added
                 if (boxed := Just(t, C, a)) not in formulas}
        if not added:
            break
        formulas.update(added)
    return SaturationUniverse(frozenset(terms), frozenset(formulas), parents, tuple(tails),
                              frozenset(candidates))


def saturate(m: AFModel, universe: SaturationUniverse) -> frozenset:
    """Least fixpoint of the nine closure rules inside `universe`.

    Returns a frozenset of (world, term, formula) triples.  The universe's
    `parents` maps each of its terms to the terms that have it as a child,
    and the specification is read against its terms and candidates only; a
    worklist fact spreads along its sort's relation (the model's
    `star_successors`, built once per model), then walks its term's parents
    once and fires the rule of each parent's class, so work is linear in
    fired-rule instances rather than in universe size per pass.
    """
    tu = universe.terms
    fu = universe.formulas
    parents = universe.parents
    succ_star = m.star_successors

    known: set[tuple[int, Term, Formula]] = set()
    by_world_term: dict[tuple[int, Term], set[Formula]] = {}
    # (world, term, formula, spread): `spread` is False for a C-sorted fact
    # that arrived by monotonicity, whose successors the fact it came from
    # has already reached, since the C map is transitive
    queue: list[tuple[int, Term, Formula, bool]] = []

    def emit(w: int, t: Term, a: Formula, spread: bool = True) -> None:
        fact = (w, t, a)
        if fact in known:
            return
        known.add(fact)
        formulas = by_world_term.get((w, t))
        if formulas is None:
            by_world_term[(w, t)] = {a}
        else:
            formulas.add(a)
        queue.append((w, t, a, spread))

    def holds(w: int, t: Term, a: Formula) -> bool:
        return a in by_world_term.get((w, t), ())

    # seeds: the base plus specification facts at every world
    for fact in m.evidence_base:
        if fact.world in m.worlds and fact.term in tu and fact.formula in fu:
            emit(fact.world, fact.term, fact.formula)
    # a box is no axiom instance, so no specification member
    for c, a in m.cs.within(tu, universe.candidates):
        for w in m.worlds:
            emit(w, c, a)

    # a parent's class fixes its children's sorts, so no rule below tests
    # the sort of `t` again
    while queue:
        w, t, a, spread = queue.pop()
        sort = t.sort

        # monotonicity to other worlds along the star sorts' maps (E has none);
        # an agent relation need not be transitive, so agent facts keep spreading
        if spread and (succ := succ_star.get(sort)):
            for v in succ.get(w, ()):
                if v != w:
                    emit(v, t, a, sort.is_agent)

        for u in parents.get(t, ()):
            cls = u.__class__
            if cls is Sum or cls is Proj or cls is Head:
                emit(w, u, a)
            elif cls is App:
                if u.t == t and isinstance(a, Imp) and a.right in fu \
                        and holds(w, u.s, a.left):
                    emit(w, u, a.right)
                if u.s == t:
                    for f in by_world_term.get((w, u.t), ()):
                        if isinstance(f, Imp) and f.left == a and f.right in fu:
                            emit(w, u, f.right)
            elif cls is Bang or cls is Tail:
                boxed = Just(t, sort, a)
                if boxed in fu:
                    emit(w, u, boxed)
            elif cls is Tuple:
                if all(holds(w, item, a) for item in u.items):
                    emit(w, u, a)
            elif cls is Ind:
                if u.s == t and holds(w, u.t, Imp(a, Just(t, E, a))):
                    emit(w, u, a)
                if u.t == t and isinstance(a, Imp) and a.left in fu \
                        and a.right == Just(u.s, E, a.left) and holds(w, u.s, a.left):
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
    evaluated once per component.  The evidence test stays per world.
    Without a fact set the memo is the model's, so queries that share a
    subformula object evaluate its boxes once per model; with one, it lasts
    one call, since a fact set may be the caller's own.  Either memo is
    keyed by the identities of the successor tuple and the box, and each
    entry holds its box, so no id is reused while the entry lives and no
    lookup compares trees; it is cleared when it reaches
    `_SATURATION_CACHE_SIZE` entries.  The query `a` itself is never
    entered: a call evaluates it at one world only, and an entry would keep
    every one-off query alive, for the garbage collector to walk, until the
    memo is cleared.  Evaluation recurses at one interpreter frame per level
    of `a`, so a formula some 950 levels deep still returns under the
    default recursion limit."""
    if w not in m.worlds:
        raise UnknownWorld(f"unknown world {w}")
    # keyed by identity: the successor tuples live in the model's cache and
    # an id is cheaper than even a cached hash
    memo = m._box_memo if facts is None else {}
    valuation = m.valuation
    successors = m.successors

    # dispatch by class identity, boxes first; a plain loop over the
    # successors, not `all` over a generator, keeps one frame per level
    def sat(v: int, f: Formula) -> bool:
        cls = f.__class__
        if cls is Just or cls is Box:
            if cls is Just and facts is not None and (v, f.term, f.body) not in facts:
                return False
            succ = successors(f.sort).get(v, ())
            if f is not a:
                key = (id(succ), id(f))
                entry = memo.get(key)
                if entry is not None:
                    return entry[1]
            out = True
            body = f.body
            for u in succ:
                if not sat(u, body):
                    out = False
                    break
            if f is not a:
                if len(memo) >= _SATURATION_CACHE_SIZE:
                    memo.clear()
                memo[key] = (f, out)
            return out
        if cls is Prop:
            return v in valuation.get(f.index, ())
        if cls is Neg:
            return not sat(v, f.body)
        if cls is And:
            return sat(v, f.left) and sat(v, f.right)
        if cls is Or:
            return sat(v, f.left) or sat(v, f.right)
        if cls is Imp:
            return (not sat(v, f.left)) or sat(v, f.right)
        raise InvalidInput(f"cannot evaluate {f!r}")

    try:
        return sat(w, a)
    finally:
        # `sat` reaches itself through its own cell: unbound here, the call's
        # closure is freed at once instead of left for the cyclic collector
        del sat


def satisfies(m: AFModel, w: int, a: Formula, depth_budget: int = 3) -> bool:
    """Satisfaction at a world of an evidence model.  In base mode all
    evidence questions for the whole query are answered against one
    saturation of the query's universe; full mode needs none."""
    if m.mode == "full":
        return holds(m, w, a)  # which checks the world
    if w not in m.worlds:
        raise UnknownWorld(f"unknown world {w}")
    return holds(m, w, a, _facts_for_query(m, a, depth_budget))


def valid_in_model(m: AFModel, a: Formula, depth_budget: int = 3) -> bool:
    return all(satisfies(m, w, a, depth_budget) for w in m.worlds)


def _random_frame(rng: random.Random, h: int, n_worlds: int, density: float):
    """(worlds, relations, valuation) of a random frame: each agent's
    relation is the successor map of the reflexive-transitive closure of a
    random edge set, and P1..P4 each hold at a world with probability 1/2."""
    worlds = set(range(n_worlds))
    relations = {}
    for i in range(1, h + 1):
        graph = {w: [w] for w in worlds}
        for w in worlds:
            for v in worlds:
                if w != v and rng.random() < density:
                    graph[w].append(v)
        relations[i] = reach_by_component(graph)
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


def _world_id(token: str) -> int:
    digits = token[1:]
    if token[:1] != "w" or not digits.isdecimal():
        raise ParseError(f"bad world name {quoted(token)}; expected wN")
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        return integer(digits, "world number")  # raises, naming the digit count


# a `worlds:` or `val` line of wN names apart, and a `rel` line, its
# whitespace dropped, of (wN,wM) pairs with or without commas between them;
# in a line either accepts, these characters separate the numbers
_NAMES_RE = re.compile(r"\s*(?:w\d+(?:\s+|\Z))*")
_PAIRS_RE = re.compile(r",*(?:\(w\d+,w\d+\),*)*")
_SEPARATORS = str.maketrans("w(),", "    ")


def _world_ids(text: str) -> list[int]:
    """The worlds named on a `worlds:` or `val` line, in order.  A line that
    `_NAMES_RE` accepts has its numbers converted in one pass; any other
    line, or one with a number too long for int(), is read name by name by
    `_world_id`, which alone writes the error."""
    if _NAMES_RE.fullmatch(text):
        try:
            return list(map(int, text.translate(_SEPARATORS).split()))
        except ValueError:  # more digits than int() converts
            pass
    return [_world_id(tok) for tok in text.split()]


def _world_pairs(text: str) -> list[Pair]:
    """The pairs written on a `rel` line, in order.  Whitespace of any kind
    is ignored, as between the names on a `worlds:` line; commas may
    separate pairs, but none may close one, and each `)` must close one.
    Only a line that `_PAIRS_RE` accepts loads, its numbers converted in
    one pass; any other line, or one with a number too long for int(), is
    read pair by pair only to name what is wrong with it."""
    text = "".join(text.split())
    if _PAIRS_RE.fullmatch(text):
        numbers = map(int, text.translate(_SEPARATORS).split())
        try:
            return list(zip(numbers, numbers))
        except ValueError:  # more digits than int() converts
            pass
    *closed, last = text.split(")")
    for chunk in closed:
        chunk = chunk.lstrip(",")
        if not chunk.startswith("("):  # empty when a ")" closes no pair
            raise ParseError(f"bad relation pair {quoted(chunk or ')')}")
        if chunk.endswith(","):
            raise ParseError(f"bad relation pair {quoted(chunk + ')')}")
        a, _, b = chunk[1:].partition(",")
        _world_id(a), _world_id(b)  # each raises on a bad name
    raise ParseError(f"bad relation pair {quoted(last.lstrip(','))}")


def _model_lines(text: str):
    """(line, key, rest) for each line of a model file or specification table
    left once its comment, from `#` on, is cut; the key comes before the
    first `:`, all stripped."""
    for raw in text.splitlines():
        if line := raw.split("#", 1)[0].strip():
            key, _, rest = line.partition(":")
            yield line, key.strip(), rest.strip()


def parse_cs_table(text: str, h: int) -> ConstantSpecification:
    """Constant specification tables: one `<const> := <formula>` line each,
    whose formula must be an axiom instance."""
    members = []
    for line, _, _ in _model_lines(text):
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

    Relations are closed reflexively and transitively on load, each straight
    into the agent's successor map; closure that adds pairs is reported as a
    warning, not an error.  A frame of more than `MAX_FRAME_PAIRS` pairs,
    counting h loops at each world and then the agents' closed relations,
    raises ResourceError.  `cs_loader` maps a path from a `cs: file <path>`
    line to that file's text.
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

    for line, key, rest in _model_lines(text):
        words = key.split()
        if key == "h":
            if h is not None:  # every line read so far was checked against h
                raise ParseError("more than one h: line")
            h = integer(rest, "agent count")
            if h < 1:
                raise ParseError("h must be at least 1")
            if h > MAX_AGENTS:
                raise ResourceError(f"h: {h} exceeds the cap of {MAX_AGENTS} agents")
        elif key == "worlds":
            worlds.update(_world_ids(rest))
        elif len(words) == 2 and words[0] == "rel":
            i = integer(words[1], "agent index")
            if not 1 <= i <= need_h():
                raise ParseError(f"agent index {i} outside 1..{h}")
            relations.setdefault(i, set()).update(_world_pairs(rest))
        elif len(words) == 2 and words[0] == "val":
            name = words[1]
            if name.startswith("P") and name[1:].isdecimal():
                name = integer(name[1:], "proposition index")
            # the constructor applies the one rule for proposition names
            valuation.setdefault(Prop(name).index, set()).update(_world_ids(rest))
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
            elif rest[:4] == "file" and rest[4:5].isspace():
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
    if h * len(worlds) > MAX_FRAME_PAIRS:
        raise ResourceError(f"h: {h} over {len(worlds)} worlds exceeds the cap "
                            f"of {MAX_FRAME_PAIRS} frame pairs")
    # each agent's frame, one map for all agents that write no pairs, is the
    # reach map of its pairs plus a loop at every world: a closed preorder by
    # construction, so only its worlds and the typing can be wrong
    frame = {}
    problems = []
    closed = 0
    closures: dict[int, tuple[dict, int, bool]] = {}
    for i in range(1, h + 1):
        given = relations.get(i, ())
        if (key := i if given else 0) not in closures:
            graph: dict[int, list[int]] = {w: [w] for w in worlds}
            for w, v in given:
                graph.setdefault(w, []).append(v)
            reach = reach_by_component(graph)
            closures[key] = reach, sum(map(len, reach.values())), worlds.issuperset(reach)
        frame[i], n_pairs, known = closures[key]
        closed += n_pairs
        if closed > MAX_FRAME_PAIRS:
            raise ResourceError(f"rel 1..{i}: {closed} pairs after closure exceed "
                                f"the cap of {MAX_FRAME_PAIRS} frame pairs")
        if not known:
            # the error names each written pair that touches an unknown
            # world, sorted
            problems += _unknown_pair_problems(i, sorted(given), worlds)
        # the closure contains the given pairs
        added = n_pairs - len(given)
        if added:
            warnings.append(f"rel {i}: added {added} pairs "
                            "for reflexive-transitive closure")
    model = AFModel(h, worlds, frame, valuation, evidence, cs, mode)
    # the parser has range-checked every evidence term and formula against
    # the one h
    report = _report(problems + _valuation_problems(model) + [
        f"evidence at unknown world {fact.world}"
        for fact in evidence if fact.world not in worlds])
    if not report.ok:
        raise InvalidInput("; ".join(report.problems))
    return model, tuple(warnings)


def parse_kripke_file(text: str) -> tuple[KripkeModel, tuple[str, ...]]:
    """(frame, warnings) from a model file, read as `parse_model_file` reads
    it but refusing `evidence` lines and skipping `mode` and `cs` with a warning."""
    warnings, kept = [], []
    for line, key, _ in _model_lines(text):
        if key == "evidence":
            raise InvalidInput("evidence lines do not belong in a relational model file")
        if key in ("mode", "cs"):
            warnings.append(f"ignored line {quoted(line)}")
        else:
            kept.append(line)
    model, warns = parse_model_file("\n".join(kept))
    frame = {i: model.successors(agent(i)) for i in range(1, model.h + 1)}
    return KripkeModel(model.h, model.worlds, frame, model.valuation), tuple(warnings) + warns


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
        mode="base",
    )
