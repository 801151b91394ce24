"""The three workloads: their generated inputs, one timed unit each, and the
checks of every verdict against references built outside the code under test.

A workload produces units.  In `proofs` and `models` a unit is one item; in
`attack` a unit is one pass of the coordinated-attack sweep, and each
candidate verdict in it is an item (`items_per_unit`).  `make_units(count)`
depends only on the seed and the count, so the same seed always yields the
same inputs; `per_pass` is the number of units one pass of the benchmark
runs.  `run(unit)` is the timed part; `check(unit, result)` runs between
timings and returns how many items got a wrong verdict.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from jck import acceptance, deduction, gen, modal, semantics, synthesis, syntax
from jck.deduction import Axiom, AxiomSchema, Derivation, Hyp, MP, Step
from jck.syntax import And, C, Const, E, Imp, Just, Neg, Or, Prop, agent

import pace
import reference

TOTAL_C = deduction.ConstantSpecification.total_c()


@dataclass
class Result:
    """What a timed unit returns.  `latencies`, `labels` and `loop_s` are
    per item, `loop_s` being the reference loop's local time (see `pace`);
    None means the unit is a single item timed as a whole.  `loop_runs` are
    the reference loop's times inside the unit, which the unit's time
    excludes."""

    payload: object
    latencies: list | None = None
    labels: list | None = None
    loop_s: list | None = None
    loop_runs: list | None = None


# ---------------------------------------------------------------------------
# proofs: the `jck check` / `jck lift` path


@dataclass
class ProofItem:
    index: int
    h: int
    target: syntax.Sort
    text: str
    source: Derivation      # the generated derivation `text` was printed from
    mutated: str
    bad_step: int
    bad_status: str
    widest_taut: int

    @property
    def label(self) -> str:
        if self.widest_taut <= 9:
            return "widest_taut<=9"
        if self.widest_taut < 12:
            return "widest_taut10-11"
        return "widest_taut12-16"


_WIDE_TEMPLATES = (
    lambda a, b: Imp(a, Imp(b, a)),
    lambda a, b: Imp(And(a, b), a),
    lambda a, b: Imp(And(a, b), b),
    lambda a, b: Imp(a, Or(a, b)),
    lambda a, b: Imp(b, Or(a, b)),
    lambda a, b: Imp(a, Imp(b, And(a, b))),
    lambda a, b: Imp(Imp(a, b), Imp(Neg(b), Neg(a))),
)


def _random_tree(rng: random.Random, leaves: list) -> syntax.Formula:
    nodes = list(leaves)
    rng.shuffle(nodes)
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        node = rng.choice((And, Or, Imp))(nodes[i], nodes[i + 1])
        nodes[i:i + 2] = [Neg(node) if rng.random() < 0.2 else node]
    return nodes[0]


WIDE_DRAWS = 5


def wide_tautology(rng: random.Random, n_atoms: int) -> syntax.Formula:
    """A tautology over exactly `n_atoms` distinct atoms: one of the fixed
    templates (each valid whatever its parts) around two random trees that
    split the atoms between them.  A Taut check evaluates it on every
    valuation, short-circuiting, so its cost moves about threefold with the
    shape; the one returned is the median of WIDE_DRAWS by `truth_table_cost`."""
    draws = []
    for k in range(WIDE_DRAWS):
        atoms = [Prop(i) for i in rng.sample(range(1, 200), n_atoms)]
        split = rng.randint(n_atoms // 3, n_atoms - n_atoms // 3)
        f = rng.choice(_WIDE_TEMPLATES)(_random_tree(rng, atoms[:split]),
                                        _random_tree(rng, atoms[split:]))
        draws.append((truth_table_cost(f)[0], k, f))
    return sorted(draws)[WIDE_DRAWS // 2][2]


def truth_table_cost(f) -> tuple[float, float]:
    """Expected nodes a short-circuiting evaluation visits on one valuation
    drawn uniformly, and the chance that `f` comes out true, treating its
    subtrees as independent."""
    if isinstance(f, Prop):
        return 1.0, 0.5
    if isinstance(f, Neg):
        cost, p = truth_table_cost(f.body)
        return 1.0 + cost, 1.0 - p
    (cl, pl), (cr, pr) = truth_table_cost(f.left), truth_table_cost(f.right)
    if isinstance(f, And):
        return 1.0 + cl + pl * cr, pl * pr
    if isinstance(f, Or):
        return 1.0 + cl + (1.0 - pl) * cr, 1.0 - (1.0 - pl) * (1.0 - pr)
    return 1.0 + cl + pl * cr, 1.0 - pl * (1.0 - pr)


def boxed_hypotheses_first(d: Derivation) -> Derivation:
    """Reorder hypotheses so the C-boxed ones come first, the shape `lift`
    keeps fixed, renumbering `hyp` steps to match."""
    def boxed(f) -> bool:
        return isinstance(f, Just) and f.sort == C

    order = sorted(range(len(d.hypotheses)),
                   key=lambda i: (not boxed(d.hypotheses[i]), i))
    new_index = {old + 1: new + 1 for new, old in enumerate(order)}
    steps = tuple(Step(s.formula, Hyp(new_index[s.rule.index]))
                  if isinstance(s.rule, Hyp) else s for s in d.steps)
    return Derivation(tuple(d.hypotheses[i] for i in order), steps)


# Longest chain of modus-ponens premises.  A lift to E rebuilds an h-tuple
# per modus ponens, so the lifted text grows about 2h-fold per level: at
# h = 3, depth 4 gives about 1 MB and depth 7 over 20 MB.  Left to chance,
# depth varies from 2 to 8 at four glue rounds and the few deepest items set
# a run's time, tail and peak memory on their own; so each item is redrawn
# until its depth is one more than its glue rounds (2 to 5).
def mp_depth(d: Derivation) -> int:
    depth: list[int] = []
    for s in d.steps:
        rule = s.rule
        depth.append(1 + max(depth[rule.i - 1], depth[rule.j - 1])
                     if isinstance(rule, MP) else 0)
    return max(depth)


# Even at a fixed depth, an item's cost varies about twofold from one draw to
# the next, and the largest items of a pass are a third of its time; so each
# item is the median of DRAWS draws by `item_size` (the input's size plus its
# lifted proof's), which keeps a pass's cost, median and tail from moving
# with the seed.
DRAWS = 9


def lifted_size(d: Derivation, h: int, target: syntax.Sort, memo: dict) -> int:
    """Rough node count of the proof `lift(d, target)` builds, from `d`
    alone: each modus ponens restates its premises' evidence terms and the
    major premise, once per agent at E, where each level nests the terms in
    an h-tuple."""
    width = h if target == E else 1
    n_boxed = sum(1 for f in d.hypotheses if isinstance(f, Just) and f.sort == C)
    terms: list[int] = []
    total = 0
    for s in d.steps:
        rule = s.rule
        if isinstance(rule, MP):
            t = terms[rule.i - 1] + terms[rule.j - 1]
            total += width * (3 * t + 2 * reference.tree_nodes([d.steps[rule.i - 1].formula], memo))
            terms.append(1 + width * (3 + t))
        elif isinstance(rule, Hyp) and rule.index <= n_boxed:
            terms.append(1 + reference.tree_nodes([s.formula.term], memo))
        else:
            terms.append(2)
    return total


def item_size(d: Derivation, h: int, target: syntax.Sort) -> int:
    """Node count of the derivation plus the estimated node count of its
    lifted proof; within one (h, target, glue) class it follows the item's
    time more closely than either part alone."""
    memo: dict[int, int] = {}
    return lifted_size(d, h, target, memo) + reference.tree_nodes(
        list(d.hypotheses) + [s.formula for s in d.steps], memo)


def _rule_text(step: Step) -> str:
    rule = step.rule
    if isinstance(rule, Hyp):
        return f"hyp {rule.index}"
    if isinstance(rule, MP):
        return f"mp {rule.i} {rule.j}"
    if isinstance(rule, Axiom):
        return f"axiom {rule.schema.value}"
    c = rule.constant
    name = f"c{c.index}" if isinstance(c.index, int) else c.index
    return f"axnec {name}@{c.sort}"


def _rule_kind(step: Step) -> str:
    rule = step.rule
    if isinstance(rule, Hyp):
        return "hyp"
    if isinstance(rule, MP):
        return "mp"
    if isinstance(rule, Axiom):
        return "taut" if rule.schema == AxiomSchema.TAUT else "axiom"
    return "axnec"


class Proofs:
    """Items cycle through h 1-3, lift target (agent, E, C) and 1-4 glue
    rounds in a fixed 36-item period, four periods a pass, with modus-ponens
    depth one more than the glue rounds; one item in six carries a wide Taut
    step of 12-16 atoms, placed so that every combination gets its share."""

    name = "proofs"
    per_pass = 144
    items_per_unit = 1

    def __init__(self, seed: int, plant_wrong_verdict: bool = False):
        self.seed = seed
        self.plant = plant_wrong_verdict

    def make_units(self, count: int) -> list[ProofItem]:
        return [self._item(k) for k in range(count)]

    def _item(self, k: int) -> ProofItem:
        rng = random.Random(f"proofs:{self.seed}:{k}")
        h = 1 + k % 3
        glue = 1 + (k // 9) % 4
        target = (agent(rng.randint(1, h)), E, C)[(k // 3) % 3]
        draws = []
        while len(draws) < DRAWS:
            d = gen.random_derivation(rng, h, n_extra=glue)
            if mp_depth(d) == glue + 1:
                d = boxed_hypotheses_first(d)
                draws.append((item_size(d, h, target), len(draws), d))
        d = sorted(draws)[DRAWS // 2][2]
        if k % 6 == (k // 36) % 6:
            wide = wide_tautology(rng, 12 + (k // 6) % 5)
            d = Derivation(d.hypotheses, d.steps + (Step(wide, Axiom(AxiomSchema.TAUT)),))
        text = deduction.print_derivation(d)
        rules = [_rule_kind(s) for s in d.steps]
        mutated, bad_step, bad_status = reference.mutate(
            text, len(d.hypotheses), rules, rng.choice(reference.MUTATION_KINDS),
            rng.choice)
        if self.plant and k == 0:
            bad_status = "planted-wrong-status"
        widest = max(reference.skeleton_atoms(s.formula)
                     for s, r in zip(d.steps, rules) if r == "taut")
        return ProofItem(k, h, target, text, d, mutated, bad_step, bad_status, widest)

    def run(self, item: ProofItem) -> Result:
        d = deduction.parse_derivation(item.text, item.h)
        report = deduction.check_derivation(d, TOTAL_C, h=item.h)
        if not report.ok:
            return Result((report, None, None, None, None, None))
        term, lifted = synthesis.lift(d, item.target, None,
                                      synthesis.ConstantAllocator(), h=item.h)
        recheck = deduction.check_derivation(lifted, TOTAL_C)
        printed = deduction.print_derivation(lifted)
        rejected = deduction.check_derivation(
            deduction.parse_derivation(item.mutated, item.h), TOTAL_C, h=item.h)
        return Result((report, term, lifted, recheck, printed, rejected))

    def check(self, item: ProofItem, result: Result) -> int:
        report, term, lifted, recheck, printed, rejected = result.payload
        ok = (report.ok and recheck.ok
              and lifted.conclusion == Just(term, item.target, item.source.conclusion)
              and self.round_trips(item, lifted, printed)
              and (rejected.ok, rejected.step, rejected.status)
              == (False, item.bad_step, item.bad_status))
        return 0 if ok else 1

    ROUND_TRIP_STEPS = 4

    def round_trips(self, item: ProofItem, lifted: Derivation, printed: str) -> bool:
        """Print -> parse round trip of the lifted proof: one line per
        hypothesis and step, each step's rule as written, and the
        hypotheses, the conclusion and a seeded sample of other steps parse
        back to the very formulas printed.  Parsing every line of the largest
        lifted proofs would cost several times the item itself, hence the
        sample."""
        lines = printed.splitlines()
        n_hyps = len(lifted.hypotheses)
        if len(lines) != n_hyps + len(lifted.steps):
            return False
        for line, step, k in zip(lines[n_hyps:], lifted.steps, itertools.count(1)):
            if not line.startswith(f"{k}. ") or not line.endswith(f" ; {_rule_text(step)}"):
                return False
        rng = random.Random(f"proofs:{self.seed}:{item.index}:round-trip")
        sample = {len(lifted.steps)} | {rng.randint(1, len(lifted.steps))
                                        for _ in range(self.ROUND_TRIP_STEPS)}
        for f, line in zip(lifted.hypotheses, lines):
            if syntax.parse_formula(line[len("hyp: "):], item.h) != f:
                return False
        for k in sorted(sample):
            text = lines[n_hyps + k - 1][len(f"{k}. "):].rsplit(" ; ", 1)[0]
            if syntax.parse_formula(text, item.h) != lifted.steps[k - 1].formula:
                return False
        return True


# ---------------------------------------------------------------------------
# attack: the coordinated-attack sweep, as `jck demo-attack` runs it


ATTACK_DEPTH = 3
ATTACK_FAMILY_SIZES = (3263, 2185)  # agent-2 and common-sort candidates at depth 3
PACE_EVERY = 64  # verdicts between two runs of the reference loop


@dataclass
class AttackPass:
    index: int
    plant: bool = False


class Attack:
    """One unit is a full pass: fresh fixture models, both term families
    enumerated, then every claim and candidate verdict in the order
    `jck demo-attack` evaluates them.  The scenario is the paper's and has
    no random part, so the seed does not change the inputs."""

    name = "attack"
    per_pass = 1
    items_per_unit = 7 + ATTACK_FAMILY_SIZES[0] + 2 * ATTACK_FAMILY_SIZES[1]

    def __init__(self, seed: int, plant_wrong_verdict: bool = False):
        self.plant = plant_wrong_verdict

    def make_units(self, count: int) -> list[AttackPass]:
        return [AttackPass(k, self.plant and k == 0) for k in range(count)]

    def run(self, unit: AttackPass) -> Result:
        clock = time.perf_counter
        delivered = Prop("del")
        m1, m2 = Const("m1", agent(2)), Const("m2", agent(1))
        got_msg = Just(m1, agent(2), delivered)
        knows_msg = Just(m2, agent(1), got_msg)
        latencies: list[float] = []
        labels: list[str] = []
        verdicts: list[bool] = []
        loop_runs: list[float] = []

        def timed(label: str, query) -> None:
            if len(latencies) % PACE_EVERY == 0:
                loop_runs.append(pace.reference_loop())
            t0 = clock()
            v = query()
            latencies.append(clock() - t0)
            labels.append(label)
            verdicts.append(v)

        m4 = semantics.attack_four_world_model()
        ms = semantics.attack_singleton_model()
        mk = modal.attack_kripke_model()
        leaves = [m1, m2, Const(1, C)]
        fam2 = gen.enumerate_terms(leaves, agent(2), ATTACK_DEPTH, h=2)
        fam_c = gen.enumerate_terms(leaves, C, ATTACK_DEPTH, h=2)
        if (len(fam2), len(fam_c)) != ATTACK_FAMILY_SIZES:
            raise RuntimeError(f"enumerated {len(fam2)} agent-2 and {len(fam_c)} "
                               f"common-sort candidates, expected {ATTACK_FAMILY_SIZES}")

        phi = modal.parse_modal_formula("#2 del & #1 #2 del -> #C del", 2)
        toggled = dict(mk.valuation)
        toggled["del"] = frozenset(mk.worlds)
        mk_all = modal.KripkeModel(mk.h, mk.worlds, mk.relations, toggled)
        timed("claims", lambda: semantics.satisfies(m4, 0, got_msg))
        timed("claims", lambda: semantics.satisfies(m4, 0, knows_msg))
        timed("claims", lambda: semantics.satisfies(m4, 3, delivered))
        timed("claims", lambda: modal.kripke_satisfies(mk, 0, phi))
        timed("claims", lambda: modal.kripke_satisfies(mk_all, 0, phi))
        timed("claims", lambda: semantics.satisfies(ms, 0, got_msg, depth_budget=ATTACK_DEPTH))
        timed("claims", lambda: semantics.satisfies(ms, 0, knows_msg, depth_budget=ATTACK_DEPTH))

        for s in fam2:
            timed("four_world_agent2",
                  lambda: semantics.satisfies(m4, 0, Just(s, agent(2), knows_msg)))
        for t in fam_c:
            timed("four_world_common", lambda: semantics.satisfies(m4, 0, Just(t, C, delivered)))
        for t in fam_c:
            timed("singleton_evidence",
                  lambda: semantics.evidence_holds(ms, 0, t, delivered, depth_budget=ATTACK_DEPTH))
        loop_runs.append(pace.reference_loop())
        loop_s = [(loop_runs[i // PACE_EVERY] + loop_runs[i // PACE_EVERY + 1]) / 2
                  for i in range(len(latencies))]
        return Result(verdicts, latencies, labels, loop_s, loop_runs)

    @staticmethod
    def expected(unit: AttackPass) -> list[bool]:
        """The paper's claims: both positives hold in each model, world 3
        lacks delivery, the relational implication fails and holds again when
        delivery is true everywhere; no candidate term is a witness."""
        n2, nc = ATTACK_FAMILY_SIZES
        want = [True, True, False, False, True, True, True] + [False] * (n2 + 2 * nc)
        if unit.plant:
            want[7] = True
        return want

    def check(self, unit: AttackPass, result: Result) -> int:
        return sum(1 for got, want in zip(result.payload, self.expected(unit)) if got != want)


# ---------------------------------------------------------------------------
# models: the `jck validate` / `eval` / `eval --kripke` / `probe` path


CONTROL = "#1 P1 -> #C P1"
# Three theorems keep a 60-item pass (20 frames of each size) to about 5 s on
# jck as of this benchmark, where the Kripke images of ten took 0.7 s per
# 32-world frame.
# With 20 items of each size, item_p50_ms is the middle of the 16-world items
# and item_tail_ms the middle of the 32-world ones, not an order statistic
# at the edge of a size class, which would move with the seed.
N_THEOREMS = 3
BLOCK = 4  # worlds per cycle, so each agent's closed relation is a partition


@dataclass
class ModelItem:
    index: int
    n_worlds: int
    frame: reference.ReferenceFrame
    kripke_text: str    # the frame alone, as `jck eval --kripke` reads it
    full_text: str      # the frame in full evidence mode
    base_text: str      # the frame with evidence facts, base mode
    query_text: str
    probe_seed: int
    plant: bool = False

    @property
    def label(self) -> str:
        return f"{self.n_worlds}_worlds"


class Models:
    """Items cycle through 8, 16 and 32 worlds, 20 of each in a pass.  Each
    agent's worlds are shuffled into cycles of four, so every world has one
    out-edge per agent, written unclosed; loading closes them into a
    partition, the usual epistemic frame.  The theorems are one fixed set for every seed: their
    cost per frame differs by a quarter from one random set to another,
    which would swamp the spread between seeds; the seed varies the frames,
    valuations and base queries."""

    name = "models"
    per_pass = 60
    items_per_unit = 1

    def __init__(self, seed: int, plant_wrong_verdict: bool = False):
        self.seed = seed
        self.plant = plant_wrong_verdict
        rng = random.Random("models:theorems")
        self.theorems = [syntax.print_formula(gen.random_theorem(rng, 2).conclusion)
                         for _ in range(N_THEOREMS)]

    def make_units(self, count: int) -> list[ModelItem]:
        return [self._item(k) for k in range(count)]

    def _item(self, k: int) -> ModelItem:
        rng = random.Random(f"models:{self.seed}:{k}")
        n = (8, 16, 32)[k % 3]
        worlds = range(n)
        edges = {}
        for i in (1, 2):
            order = list(worlds)
            rng.shuffle(order)
            blocks = [order[b:b + BLOCK] for b in range(0, n, BLOCK)]
            edges[i] = {(block[j - 1], block[j]) for block in blocks for j in range(BLOCK)}
        valuation = {p: {w for w in worlds if rng.random() < 0.5} for p in range(1, 5)}
        lines = ["h: 2", "worlds: " + " ".join(f"w{w}" for w in worlds)]
        for i in (1, 2):
            lines.append(f"rel {i}: " + " ".join(f"(w{a},w{b})" for a, b in sorted(edges[i])))
        for p in range(1, 5):
            lines.append(f"val P{p}: " + " ".join(f"w{w}" for w in sorted(valuation[p])))
        frame_text = "\n".join(lines) + "\n"

        query = gen.random_formula(rng, 2, rng.randint(2, 3))
        while not syntax.formula_terms(query):
            query = gen.random_formula(rng, 2, rng.randint(2, 3))
        term_pool = sorted({s for t in syntax.formula_terms(query) for s in syntax.subterms(t)},
                           key=syntax.print_term)
        formula_pool = sorted(syntax.subformulas(query), key=syntax.print_formula)
        facts = [f"evidence: (w{rng.randrange(n)}, {syntax.print_term(rng.choice(term_pool))}, "
                 f"{syntax.print_formula(rng.choice(formula_pool))})"
                 for _ in range(rng.randint(2, 6))]
        return ModelItem(
            k, n, reference.ReferenceFrame(2, n, edges, valuation),
            kripke_text=frame_text,
            full_text=frame_text + "mode: full\ncs: totalC\n",
            base_text=frame_text + "\n".join(facts) + "\nmode: base\ncs: totalC\n",
            query_text=syntax.print_formula(query),
            probe_seed=rng.randrange(10 ** 9),
            plant=self.plant and k == 0)

    def run(self, item: ModelItem) -> Result:
        m_full, _ = semantics.parse_model_file(item.full_text)
        theorems = [syntax.parse_formula(text, 2) for text in self.theorems]
        full = [semantics.satisfies(m_full, 0, f) for f in theorems]
        mk, _ = modal.parse_kripke_file(item.kripke_text)
        kripke = [modal.kripke_satisfies(mk, 0, modal.forgetful(f)) for f in theorems]
        m_base, _ = semantics.parse_model_file(item.base_text)
        query = syntax.parse_formula(item.query_text, 2)
        base = [semantics.satisfies(m_base, w, query) for w in range(item.n_worlds)]
        control = modal.parse_modal_formula(CONTROL, 2)
        probe = modal.probe_modal_formula(control, 2, trials=100, seed=item.probe_seed)
        return Result((m_full, mk, full, kripke, m_base, query, base, probe.refuted))

    def check(self, item: ModelItem, result: Result) -> int:
        """Theorems hold in every full model and their forgetful images in
        every frame; the control is refuted; every loader closed the frame
        as the reference does; the base-mode fact set equals the naive
        oracle's, and each base verdict equals the reference evaluation over
        that oracle set."""
        m_full, mk, full, kripke, m_base, query, base, refuted = result.payload
        frame = item.frame
        universe = semantics.build_universe(m_base, query, 3)
        oracle = acceptance.naive_saturate(m_base, universe)
        want_base = [frame.holds(oracle, w, query) for w in range(item.n_worlds)]
        if item.plant:
            want_base[0] = not want_base[0]
        ok = (all(full) and all(kripke) and refuted
              and all(m.relations[i] == frame.agent[i]
                      for m in (m_full, mk, m_base) for i in (1, 2))
              and semantics.saturate(m_base, universe) == oracle
              and base == want_base)
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (Proofs, Attack, Models)}
