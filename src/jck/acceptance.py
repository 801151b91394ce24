"""Acceptance runners: end-to-end checks the finished toolkit must pass.

Each runner draws a seeded corpus, exercises one slice of the library, and
returns a CriterionResult.  The same runners back both `jck selftest` and the
test suite, so a green run here is the release gate.

Expected shapes are rebuilt from raw constructors next to every call; the
checks never trust a synthesis routine to describe its own output.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .syntax import (
    C, E, agent, And, App, Bang, Const, Formula, Head, Imp, Ind, Just, Proj,
    Prop, Sum, Tail, Term, Tuple, Var, formula_terms, parse_formula,
    parse_term, print_formula, print_term, subformulas, subterms,
    variables_in,
)
from .deduction import (
    Axiom, AxiomSchema, AxNec, Builder, ConstantSpecification, Derivation,
    Hyp, Step, check_derivation, deduction_theorem,
)
from .errors import ResourceError
from .synthesis import (
    ConstantAllocator, c_inspection, c_reflexivity, c_shift,
    e_application, e_reflexivity, e_sum, i_conversion,
    internalize_induction_1, internalize_induction_2, lift, necessitate,
)
from .gen import (
    enumerate_terms, random_axiom, random_axiom_instance, random_derivation,
    random_formula, random_sort, random_term, random_theorem,
)
from .semantics import (
    AFModel, EvidenceFact, KripkeModel, SaturationUniverse,
    attack_four_world_model, attack_kripke_model, attack_singleton_model,
    build_universe, evidence_holds, random_model, reach_C, satisfies, saturate,
    valid_in_model,
)
from .modal import (
    conservative_projection, forgetful, forgetful_soundness_probe,
    kripke_satisfies, parse_modal_formula, probe_modal_formula, realizes,
    translate_derivation_x,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    ok: bool
    summary: str
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


_MAX_FAILURES = 8  # keep reports readable; the count is still exact


def _collect(failures: list[str], label: str, problem: str) -> None:
    if len(failures) < _MAX_FAILURES:
        failures.append(f"{label}: {problem}")


# ---------------------------------------------------------------------------
# small derivation fixtures, built from raw steps


def _axiom_step(schema: AxiomSchema, instance: Formula) -> Derivation:
    return Derivation((), (Step(instance, Axiom(schema)),))


def _imp_intro(d: Derivation, premise: Formula) -> Derivation:
    """From a hypothesis-free proof of X, a proof of `premise -> X`."""
    b = Builder()
    b.by_taut([b.include(d)], Imp(premise, d.conclusion))
    return b.build()


def _conj_intro(d1: Derivation, d2: Derivation) -> Derivation:
    """From hypothesis-free proofs of A and B, a proof of `A & B`."""
    b = Builder()
    b.by_taut([b.include(d1), b.include(d2)], And(d1.conclusion, d2.conclusion))
    return b.build()


# ---------------------------------------------------------------------------
# criterion 1: every synthesis routine emits kernel-valid proofs with the
# exact conclusion its contract states


def check_synthesis_contracts(seed: int = 0) -> CriterionResult:
    """Corpus of at least 50 inputs per operation; zero tolerance on shapes."""
    rng = random.Random(seed)
    total = ConstantSpecification.total_c()
    failures: list[str] = []
    counts: dict[str, int] = {}
    started = time.monotonic()

    def run(op: str, k: int, produced: Derivation, want: Formula,
            cs: ConstantSpecification = total, fragment: str = "full") -> None:
        counts[op] = counts.get(op, 0) + 1
        label = f"{op}[{k}]"
        # `h` is the agent count the enclosing loop drew for this input
        report = check_derivation(produced, cs, h=h, fragment=fragment)
        if not report:
            _collect(failures, label, f"kernel: {report.status} at step {report.step}")
            return
        if print_formula(produced.conclusion) != print_formula(want):
            _collect(failures, label, "conclusion differs from the stated shape")

    for k in range(50):
        h = rng.randint(1, 3)
        a = random_formula(rng, h, rng.randint(0, 2))
        b = random_formula(rng, h, rng.randint(0, 2))
        te = random_term(rng, E, h, rng.randint(0, 2))
        se = random_term(rng, E, h, rng.randint(0, 2))
        tc = random_term(rng, C, h, rng.randint(0, 2))

        run("e_reflexivity", k, e_reflexivity(te, a), Imp(Just(te, E, a), a))

        term, d = e_application(h, te, se, a, b)
        want_term = Tuple(tuple(App(Proj(i, te), Proj(i, se), agent(i))
                                for i in range(1, h + 1)))
        if term != want_term:
            _collect(failures, f"e_application[{k}]", "term shape differs")
        run("e_application", k, d,
            Imp(Just(te, E, Imp(a, b)), Imp(Just(se, E, a), Just(want_term, E, b))))

        term, dl, dr = e_sum(h, te, se, a)
        want_term = Tuple(tuple(Sum(Proj(i, te), Proj(i, se), agent(i))
                                for i in range(1, h + 1)))
        if term != want_term:
            _collect(failures, f"e_sum[{k}]", "term shape differs")
        run("e_sum", k, dl, Imp(Just(te, E, a), Just(want_term, E, a)))
        run("e_sum", k, dr, Imp(Just(se, E, a), Just(want_term, E, a)))

        i = rng.randint(1, h)
        term, d = i_conversion(tc, i, a)
        if term != Proj(i, Head(tc)):
            _collect(failures, f"i_conversion[{k}]", "term shape differs")
        run("i_conversion", k, d,
            Imp(Just(tc, C, a), Just(Proj(i, Head(tc)), agent(i), a)))

        run("c_reflexivity", k, c_reflexivity(tc, a), Imp(Just(tc, C, a), a))

        alloc = ConstantAllocator()
        f = Just(tc, C, a)
        term, d = c_inspection(tc, a, alloc)
        c1 = alloc.constant_for(Imp(f, Just(Tail(tc), E, f)))  # memoized lookup
        if term != Ind(c1, Tail(tc)):
            _collect(failures, f"c_inspection[{k}]", "term shape differs")
        run("c_inspection", k, d, Imp(f, Just(Ind(c1, Tail(tc)), C, f)))

        term, d = c_shift(tc, a, alloc)
        c2 = alloc.constant_for(Imp(f, Just(Head(tc), E, a)))
        if term != App(c2, Ind(c1, Tail(tc)), C):
            _collect(failures, f"c_shift[{k}]", "term shape differs")
        run("c_shift", k, d, Imp(f, Just(term, C, Just(Head(tc), E, a))))

    # lifting: random derivations, all five step kinds must appear in the corpus
    seen_cases: set[str] = set()
    targets = [agent(1), E, C]
    k = 0
    while k < 50 or len(seen_cases) < 5:
        if k >= 200:
            _collect(failures, "lift", f"only saw step kinds {sorted(seen_cases)}")
            break
        h = rng.randint(1, 3)
        d = random_derivation(rng, h, n_extra=rng.randint(1, 4))
        for st in d.steps:
            if isinstance(st.rule, Hyp):
                hyp = d.hypotheses[st.rule.index - 1]
                boxed = isinstance(hyp, Just) and hyp.sort == C
                seen_cases.add("hyp-boxed" if boxed else "hyp-plain")
            elif isinstance(st.rule, Axiom):
                seen_cases.add("axiom")
            elif isinstance(st.rule, AxNec):
                seen_cases.add("axnec")
            else:
                seen_cases.add("mp")
        target = targets[k % 3] if targets[k % 3] != agent(1) else agent(rng.randint(1, h))
        term, lifted = lift(d, target, None, ConstantAllocator(), h=h)
        run("lift", k, lifted, Just(term, target, d.conclusion))
        if len(lifted.hypotheses) != len(d.hypotheses):
            _collect(failures, f"lift[{k}]", "hypothesis count changed")
        for f, g in zip(d.hypotheses, lifted.hypotheses):
            if isinstance(f, Just) and f.sort == C:
                if g != f:
                    _collect(failures, f"lift[{k}]", "a boxed hypothesis left its place")
            elif not (isinstance(g, Just) and g.sort == target
                      and isinstance(g.term, Var) and g.body == f):
                _collect(failures, f"lift[{k}]", "a plain hypothesis is not boxed under a variable")
        k += 1

    for k in range(50):
        h = rng.randint(1, 3)
        d = random_theorem(rng, h)
        target = targets[k % 3] if targets[k % 3] != agent(1) else agent(rng.randint(1, h))
        term, boxed = necessitate(d, target, ConstantAllocator(), h=h)
        run("necessitate", k, boxed, Just(term, target, d.conclusion))
        if boxed.hypotheses:
            _collect(failures, f"necessitate[{k}]", "output kept hypotheses")
        if variables_in(term):
            _collect(failures, f"necessitate[{k}]", "term is not ground")

    for k in range(50):
        h = rng.randint(1, 3)
        alloc = ConstantAllocator()
        schema, inst = random_axiom(rng, h)
        base = _axiom_step(schema, inst)
        a0 = inst
        s_term, boxed = necessitate(base, E, alloc, h=h)
        d = _imp_intro(boxed, a0)  # proves A -> [s]@E A
        t, proof = internalize_induction_1(a0, s_term, d, alloc, h=h)
        run("internalize_induction_1", k, proof,
            Imp(a0, Just(Ind(t, s_term), C, a0)))

    for k in range(50):
        h = rng.randint(1, 3)
        alloc = ConstantAllocator()
        sch1, a0 = random_axiom(rng, h)
        sch2, b0 = random_axiom(rng, h)
        both = _conj_intro(_axiom_step(sch1, a0), _axiom_step(sch2, b0))
        s_term, boxed = necessitate(both, E, alloc, h=h)
        d = _imp_intro(boxed, b0)  # proves B -> [s]@E (A & B)
        t, c, proof = internalize_induction_2(a0, b0, s_term, d, alloc, h=h)
        if c != alloc.constant_for(Imp(And(a0, b0), a0)):
            _collect(failures, f"internalize_induction_2[{k}]", "constant differs")
        run("internalize_induction_2", k, proof,
            Imp(b0, Just(App(c, Ind(t, s_term), C), C, a0)))

    for k in range(50):
        h = rng.randint(1, 3)
        d = random_derivation(rng, h, n_extra=rng.randint(1, 4))
        if not d.hypotheses:
            d = Derivation((random_formula(rng, h, 1),), d.steps)
        hyp = d.hypotheses[rng.randrange(len(d.hypotheses))]
        out = deduction_theorem(d, hyp, total)
        run("deduction_theorem", k, out, Imp(hyp, d.conclusion))
        if out.hypotheses != tuple(f for f in d.hypotheses if f != hyp):
            _collect(failures, f"deduction_theorem[{k}]", "hypothesis list not reduced correctly")

    for k in range(50):
        h = rng.randint(1, 3)
        d = random_derivation(rng, h, n_extra=rng.randint(1, 4))
        x = translate_derivation_x(d, total)
        run("translate_derivation_x", k, x.derivation, conservative_projection(d.conclusion),
            x.cs, "agent")
        if x.derivation.hypotheses != tuple(conservative_projection(f)
                                            for f in d.hypotheses):
            _collect(failures, f"translate_derivation_x[{k}]",
                     "hypotheses are not the projected images")

    elapsed = time.monotonic() - started
    low = [op for op, n in counts.items() if n < 50]
    ok = not failures and not low and elapsed < 60.0
    parts = [f"{op}={n}" for op, n in sorted(counts.items())]
    summary = (f"{sum(counts.values())} synthesized proofs kernel-checked in "
               f"{elapsed:.1f}s ({', '.join(parts)})")
    if low:
        summary += f"; under-sampled: {low}"
    return CriterionResult("synthesis-contracts", ok, summary, tuple(failures))


# ---------------------------------------------------------------------------
# criterion 2: theorems hold in every unrestricted-evidence model


def check_provable_implies_valid(seed: int = 0) -> CriterionResult:
    """100 random full-evidence models against 25 synthesized theorems."""
    rng = random.Random(seed)
    total = ConstantSpecification.total_c()
    failures: list[str] = []

    pool: list[tuple[int, Formula]] = []
    for k in range(25):
        h = (k % 3) + 1 if k < 3 else rng.randint(1, 3)
        d = random_theorem(rng, h)
        if not check_derivation(d, total):
            _collect(failures, f"theorem[{k}]", "generator emitted an invalid proof")
            continue
        pool.append((h, d.conclusion))

    n_checks = 0
    for k in range(100):
        h = rng.randint(1, 3)
        m = random_model(h, rng.randint(1, 5), density=0.4, n_base=0,
                         seed=rng.randrange(10 ** 9), mode="full")
        for h_t, f in pool:
            if h_t != h:
                continue
            n_checks += 1
            if not valid_in_model(m, f):
                _collect(failures, f"model[{k}]",
                         f"theorem fails: {print_formula(f)}")

    ok = not failures and len(pool) == 25 and n_checks >= 100
    summary = (f"{len(pool)} theorems checked against 100 models, "
               f"{n_checks} validity checks, {len(failures)} failures")
    return CriterionResult("provable-implies-valid", ok, summary, tuple(failures))


# ---------------------------------------------------------------------------
# criterion 3: the indexed saturator agrees with a naive fixpoint oracle


def naive_saturate(m: AFModel, universe: SaturationUniverse) -> frozenset:
    """Reference closure: re-scan every fact against every rule until stable.

    Deliberately unoptimized and structured rule-by-rule so it can be audited
    against the closure conditions by eye.
    """
    tu, fu = universe.terms, universe.formulas
    facts: set[tuple[int, Term, Formula]] = set()
    for fact in m.evidence_base:
        if fact.world in m.worlds and fact.term in tu and fact.formula in fu:
            facts.add((fact.world, fact.term, fact.formula))
    for t in tu:
        for a in fu:
            if m.cs.contains(t, a):
                for w in m.worlds:
                    facts.add((w, t, a))

    rels = {agent(i): m.relations[i] for i in range(1, m.h + 1)}
    rels[C] = reach_C(m)  # evidence persists along reachability, not one step

    changed = True
    while changed:
        changed = False
        new: set[tuple[int, Term, Formula]] = set()
        for (w, t, a) in facts:
            s = t.sort
            if s.is_agent or s == C:  # no monotonicity at the group sort
                for (x, v) in rels[s]:
                    if x == w:
                        new.add((v, t, a))
            for u in tu:
                if isinstance(u, Sum) and u.sort == s and (u.t == t or u.s == t):
                    new.add((w, u, a))
                if isinstance(u, App) and u.t == t and isinstance(a, Imp) \
                        and a.right in fu and (w, u.s, a.left) in facts:
                    new.add((w, u, a.right))
                if isinstance(u, Bang) and u.t == t and s.is_agent:
                    boxed = Just(t, s, a)
                    if boxed in fu:
                        new.add((w, u, boxed))
                if isinstance(u, Tuple) and s.is_agent and len(u.items) >= s.index \
                        and u.items[s.index - 1] == t \
                        and all((w, item, a) in facts for item in u.items):
                    new.add((w, u, a))
                if isinstance(u, Proj) and u.t == t and s == E:
                    new.add((w, u, a))
                if isinstance(u, Head) and u.t == t and s == C:
                    new.add((w, u, a))
                if isinstance(u, Tail) and u.t == t and s == C:
                    boxed = Just(t, C, a)
                    if boxed in fu:
                        new.add((w, u, boxed))
                if isinstance(u, Ind) and u.s == t and s == E \
                        and (w, u.t, Imp(a, Just(t, E, a))) in facts:
                    new.add((w, u, a))
        fresh = new - facts
        if fresh:
            facts |= fresh
            changed = True
    return frozenset(facts)


def _biased_saturation_instance(rng: random.Random) -> tuple[AFModel, Formula]:
    """A small model whose evidence base reuses the query's own material.

    Sharing terms and formulas with the query makes the closure rules fire;
    fully random bases mostly saturate in one round.
    """
    h = rng.choice((1, 2, 3))
    frame = random_model(h, rng.randint(1, 4), density=0.4, n_base=0,
                         seed=rng.randrange(10 ** 9), mode="base")
    q = random_formula(rng, h, rng.randint(1, 3))

    cs = ConstantSpecification.total_c()
    extra_terms: list[Term] = []
    if rng.random() < 0.3:
        members = set()
        for _ in range(rng.randint(1, 3)):
            sort = random_sort(rng, h, star=True)
            body = random_axiom(rng, h)[1]
            index = rng.randint(1, 3)
            members.add((index, sort, body))
            extra_terms.append(Const(index, sort))
        cs = ConstantSpecification.extensional(frozenset(members))

    term_pool = sorted(
        {s for t in formula_terms(q) for s in subterms(t)} | set(extra_terms),
        key=print_term)
    formula_pool = sorted(subformulas(q), key=print_formula)
    worlds = sorted(frame.worlds)

    base = []
    for _ in range(rng.randint(1, 6)):
        if term_pool and rng.random() < 0.7:
            t = rng.choice(term_pool)
        else:
            t = random_term(rng, random_sort(rng, h), h, 1)
        a = rng.choice(formula_pool)
        base.append(EvidenceFact(rng.choice(worlds), t, a))
    m = AFModel(h, frame.worlds, frame.relations, frame.valuation,
                evidence_base=tuple(base), cs=cs, mode="base")
    return m, q


def check_saturation_oracle(seed: int = 0) -> CriterionResult:
    """200+ instances, at most 4 worlds and 40 universe formulas, exact match."""
    rng = random.Random(seed)
    failures: list[str] = []
    ran = 0
    attempts = 0
    max_facts = 0
    while ran < 200 and attempts < 1200:
        attempts += 1
        m, q = _biased_saturation_instance(rng)
        try:
            universe = build_universe(m, q, depth_budget=2, max_size=4000)
        except ResourceError:
            continue
        if len(universe.formulas) > 40:
            continue
        fast = saturate(m, universe)
        slow = naive_saturate(m, universe)
        ran += 1
        max_facts = max(max_facts, len(slow))
        if fast != slow:
            only_fast = sorted(print_term(t) for (_, t, _) in fast - slow)[:2]
            only_slow = sorted(print_term(t) for (_, t, _) in slow - fast)[:2]
            _collect(failures, f"instance[{attempts}]",
                     f"indexed-only={only_fast} naive-only={only_slow}")
    ok = not failures and ran >= 200
    summary = (f"{ran} instances compared ({attempts} drawn), largest fact set "
               f"{max_facts}, {len(failures)} mismatches")
    return CriterionResult("saturation-oracle", ok, summary, tuple(failures))


# ---------------------------------------------------------------------------
# criterion 4: the coordinated-attack scenario, reproduced end to end


def attack_term_families(max_depth: int = 3) -> tuple[list[Term], list[Term]]:
    """All candidate messenger terms over the scenario's constants.

    Returns (agent-2 terms, group-level terms) built from m1, m2 and one
    common-sort constant, up to the given structural depth.
    """
    leaves: list[Term] = [Const("m1", agent(2)), Const("m2", agent(1)), Const(1, C)]
    fam2 = enumerate_terms(leaves, agent(2), max_depth, h=2)
    fam_c = enumerate_terms(leaves, C, max_depth, h=2)
    return fam2, fam_c


@dataclass(frozen=True)
class Claim:
    """One claim of the attack scenario.  A claim that no candidate term
    succeeds names the first term that did as its `witness`."""

    text: str
    holds: bool
    witness: Term | None = None


@dataclass(frozen=True)
class AttackScenario:
    """The scenario's claims in titled sections, and the sizes of the two
    candidate term families they sweep."""

    agent2_terms: int
    common_terms: int
    sections: tuple[tuple[str, tuple[Claim, ...]], ...]


def attack_scenario(depth: int = 3) -> AttackScenario:
    """Every claim of the two-general exchange, in both semantics.

    The sweeps are bounded checks: every candidate term up to `depth`, and
    the singleton model saturated with budget `depth`, and no further.
    """
    del_ = Prop("del")
    m1 = Const("m1", agent(2))
    m2 = Const("m2", agent(1))
    got_msg = Just(m1, agent(2), del_)            # agent 2 holds the delivery
    knows_msg = Just(m2, agent(1), got_msg)       # agent 1 holds agent 2's receipt
    fam2, fam_c = attack_term_families(depth)

    def positives(m: AFModel) -> tuple[Claim, ...]:
        return tuple(Claim(f"world 0 satisfies {print_formula(f)}", satisfies(m, 0, f, depth))
                     for f in (got_msg, knows_msg))

    def none_of(text: str, terms: list[Term], succeeds) -> Claim:
        witness = next((t for t in terms if succeeds(t)), None)
        return Claim(text, witness is None, witness)

    m4 = attack_four_world_model()
    four_world = (
        *positives(m4),
        Claim("world 3 falsifies del", not satisfies(m4, 3, del_)),
        none_of(f"no third-level evidence: all {len(fam2)} agent-2 terms s up to "
                f"depth {depth} falsify [s]@2 {print_formula(knows_msg)} at world 0",
                fam2, lambda s: satisfies(m4, 0, Just(s, agent(2), knows_msg))),
        none_of(f"no common evidence: all {len(fam_c)} common-sort terms t up to "
                f"depth {depth} falsify [t]@C del at world 0",
                fam_c, lambda t: satisfies(m4, 0, Just(t, C, del_))),
    )

    mk = attack_kripke_model()
    phi = parse_modal_formula("#2 del & #1 #2 del -> #C del", 2)
    mk_all = KripkeModel(mk.h, mk.worlds, mk.relations, {"del": mk.worlds})
    relational = (
        Claim(f"world 0 falsifies {print_formula(phi)}",
              not kripke_satisfies(mk, 0, phi)),
        Claim("sanity toggle: with del true everywhere the same formula holds",
              kripke_satisfies(mk_all, 0, phi)),
    )

    ms = attack_singleton_model()
    singleton = (
        *positives(ms),
        none_of(f"no common evidence for del: all {len(fam_c)} common-sort terms "
                f"up to depth {depth} refused (saturation budget {depth})",
                fam_c, lambda t: evidence_holds(ms, 0, t, del_, depth_budget=depth)),
    )
    return AttackScenario(len(fam2), len(fam_c), (
        ("four-world evidence model (unrestricted evidence):", four_world),
        ("relational counterpart:", relational),
        ("singleton minimal-evidence model:", singleton),
    ))


def check_attack_scenario(seed: int = 0) -> CriterionResult:
    """Every claim of the two-general exchange, parts (a), (b) and (c) being
    the four-world, relational and singleton sections.

    Part (c) is a bounded check: it sweeps every candidate term up to depth 3
    under saturation budget 3, not all terms of every depth.
    """
    scenario = attack_scenario(3)
    failures: list[str] = []
    for part, (_, claims) in zip("abc", scenario.sections):
        for claim in claims:
            if not claim.holds:
                witness = ("" if claim.witness is None
                           else f" (witness {print_term(claim.witness)})")
                _collect(failures, part, f"claim fails: {claim.text}{witness}")

    ok = not failures
    summary = (f"positives hold; {scenario.agent2_terms} agent-2 terms and "
               f"{scenario.common_terms} common terms all refused (part (c) is a "
               f"bounded check: depth 3, saturation budget 3)")
    return CriterionResult("attack-scenario", ok, summary, tuple(failures))


# ---------------------------------------------------------------------------
# criterion 5: translation contracts


def check_translation_contracts(seed: int = 0) -> CriterionResult:
    """Projection fixes the single-agent fragment; axiom images re-check."""
    rng = random.Random(seed)
    total = ConstantSpecification.total_c()
    failures: list[str] = []

    for k in range(100):
        h = rng.randint(1, 3)
        a = random_formula(rng, h, rng.randint(0, 3), fragment=True)
        if conservative_projection(a) != a:
            _collect(failures, f"identity[{k}]", print_formula(a))

    schemata = list(AxiomSchema)
    for k in range(50):
        h = rng.randint(1, 3)
        schema = schemata[k % len(schemata)]
        inst = random_axiom_instance(rng, schema, h)
        x = translate_derivation_x(_axiom_step(schema, inst), total)
        report = check_derivation(x.derivation, x.cs, fragment="agent")
        if not report:
            _collect(failures, f"axiom[{k}] {schema.value}",
                     f"kernel: {report.status} at step {report.step}")
        if x.derivation.conclusion != conservative_projection(inst):
            _collect(failures, f"axiom[{k}] {schema.value}",
                     "conclusion is not the projected image")

    for k in range(100):
        h = rng.randint(1, 3)
        r = random_formula(rng, h, rng.randint(0, 3))
        if not realizes(r, forgetful(r)):
            _collect(failures, f"realizes[{k}]", print_formula(r))

    ok = not failures
    summary = ("100 fragment identities, 50 translated axiom instances, "
               f"100 realization checks, {len(failures)} failures")
    return CriterionResult("translation-contracts", ok, summary, tuple(failures))


# ---------------------------------------------------------------------------
# criterion 6: the modal image of a theorem survives random model search


def check_forgetful_probe(seed: int = 0) -> CriterionResult:
    """25 theorems, 100 trials each, plus one deliberately broken control."""
    rng = random.Random(seed)
    total = ConstantSpecification.total_c()
    failures: list[str] = []

    for k in range(25):
        h = rng.randint(1, 3)
        d = random_theorem(rng, h)
        if not check_derivation(d, total):
            _collect(failures, f"theorem[{k}]", "generator emitted an invalid proof")
            continue
        report = forgetful_soundness_probe(d, h, trials=100,
                                           seed=rng.randrange(10 ** 9))
        if report.refuted:
            _collect(failures, f"theorem[{k}]",
                     f"countermodel for {print_formula(d.conclusion)}")

    control = parse_modal_formula("#1 P1 -> #C P1", 2)
    control_report = probe_modal_formula(control, 2, trials=100, seed=seed)
    if not control_report.refuted:
        _collect(failures, "control", "broken formula was not refuted in 100 trials")

    ok = not failures
    summary = (f"25 theorems unrefuted in 100 trials each; control refuted: "
               f"{control_report.refuted}")
    return CriterionResult("forgetful-probe", ok, summary, tuple(failures))


# ---------------------------------------------------------------------------
# criterion 7: printing then parsing is the identity


def check_round_trip(seed: int = 0) -> CriterionResult:
    """500 random terms and formulas survive a print/parse cycle unchanged."""
    rng = random.Random(seed)
    failures: list[str] = []

    for k in range(250):
        h = rng.randint(1, 3)
        t = random_term(rng, random_sort(rng, h), h, rng.randint(0, 4))
        text = print_term(t)
        back = parse_term(text, h)
        if back != t or print_term(back) != text:
            _collect(failures, f"term[{k}]", text)

    for k in range(250):
        h = rng.randint(1, 3)
        a = random_formula(rng, h, rng.randint(0, 4))
        text = print_formula(a)
        back = parse_formula(text, h)
        if back != a or print_formula(back) != text:
            _collect(failures, f"formula[{k}]", text)

    ok = not failures
    summary = f"250 terms and 250 formulas round-tripped, {len(failures)} failures"
    return CriterionResult("round-trip", ok, summary, tuple(failures))


# ---------------------------------------------------------------------------


ALL_CHECKS = (
    check_synthesis_contracts,
    check_provable_implies_valid,
    check_saturation_oracle,
    check_attack_scenario,
    check_translation_contracts,
    check_forgetful_probe,
    check_round_trip,
)


def run_all(seed: int = 0) -> tuple[CriterionResult, ...]:
    """Run every acceptance check on independent streams derived from `seed`."""
    return tuple(fn(seed + k) for k, fn in enumerate(ALL_CHECKS))


def format_results(results) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        lines.append(f"[{mark}] {r.name}: {r.summary}")
        for f in r.failures:
            lines.append(f"       - {f}")
    n_bad = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - n_bad}/{len(results)} checks passed")
    return "\n".join(lines)
