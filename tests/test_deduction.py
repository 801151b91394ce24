"""Kernel: tautologies, schema matching, constant specifications, checking."""

import itertools
import random
import sys
import time

import pytest

from jck.errors import InvalidInput, ParseError, ResourceError
from jck.gen import random_axiom_instance, random_derivation, random_formula, random_term
from jck import deduction
from jck.deduction import (
    AGENT_FRAGMENT_SCHEMATA, Axiom, AxiomSchema, AxNec, ConstantSpecification,
    Derivation, Hyp, MP, Step, check_derivation,
    deduction_theorem, is_agent_fragment, is_axiom, is_tautology, match_axiom, parse_derivation, print_derivation,
)
from jck.syntax import (
    C, E, And, App, Bang, Box, Const, Head, Imp, Ind, Just, Neg, Or, Proj,
    Prop, Sum, Tail, Tuple, Var, agent, conj, print_formula, walk,
)

TC = ConstantSpecification.total_c()


# ---------------------------------------------------------------------------
# tautology checking


def test_tautology_basics():
    p, q = Prop(1), Prop(2)
    assert is_tautology(Imp(p, p))
    assert is_tautology(Imp(Imp(Imp(p, q), p), p))  # Peirce
    assert is_tautology(Or(p, Neg(p)))
    assert not is_tautology(Imp(p, q))
    assert not is_tautology(And(p, Neg(p)))


def test_justified_assertions_are_opaque_atoms():
    t = Var(1, C)
    assert is_tautology(Imp(Just(t, C, Prop(1)), Just(t, C, Prop(1))))
    # the same body under different terms gives distinct atoms
    assert not is_tautology(Imp(Just(t, C, Prop(1)), Just(Var(2, C), C, Prop(1))))
    # boxes do not decompose: [t] (P1 & P2) does not entail [t] P1
    assert not is_tautology(Imp(Just(t, C, And(Prop(1), Prop(2))), Just(t, C, Prop(1))))


def test_tautology_atom_cap():
    parts = [Prop(i) for i in range(1, 26)]
    with pytest.raises(ResourceError):
        is_tautology(Imp(conj(parts), conj(parts)))  # 25 atoms, cap 24
    at_cap = parts[:deduction.MAX_ATOMS]
    assert is_tautology(Imp(conj(at_cap), conj(at_cap)))


def test_tautology_rejects_non_formula():
    with pytest.raises(InvalidInput):
        is_tautology(Var(1, C))


def _tautology_by_rows(a) -> bool:
    """Reference: every row of the truth table evaluated one at a time,
    maximal justified assertions as opaque atoms."""
    atoms = []

    def collect(f):
        if isinstance(f, (Prop, Just)):
            if f not in atoms:
                atoms.append(f)
        elif isinstance(f, Neg):
            collect(f.body)
        else:
            collect(f.left)
            collect(f.right)

    def value(f, row):
        if isinstance(f, (Prop, Just)):
            return row[atoms.index(f)]
        if isinstance(f, Neg):
            return not value(f.body, row)
        if isinstance(f, And):
            return value(f.left, row) and value(f.right, row)
        if isinstance(f, Or):
            return value(f.left, row) or value(f.right, row)
        return not value(f.left, row) or value(f.right, row)

    collect(a)
    return all(value(a, row) for row in itertools.product((False, True), repeat=len(atoms)))


def _random_skeleton(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(atoms)
    kind = rng.randrange(4)
    if kind == 0:
        return Neg(_random_skeleton(rng, atoms, depth - 1))
    left = _random_skeleton(rng, atoms, depth - 1)
    # a repeated child makes the tree a DAG, as lifted proofs are
    right = left if rng.random() < 0.1 else _random_skeleton(rng, atoms, depth - 1)
    return (And, Or, Imp)[kind - 1](left, right)


def test_tautology_matches_row_by_row_reference():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(1, 8)
        atoms = [Prop(k) if k % 3 else Just(Var(k, C), C, Prop(k)) for k in range(1, n + 1)]
        a = _random_skeleton(rng, atoms, rng.randint(1, 6))
        shape = rng.randrange(3)
        if shape == 1:
            a = Or(a, Neg(a))
        elif shape == 2:
            a = Imp(a, _random_skeleton(rng, atoms, 3))
        want = _tautology_by_rows(a)
        assert is_tautology(a) == want, print_formula(a)
        verdicts.add(want)
    assert verdicts == {True, False}


def _disjunction(parts):
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_tautology_across_chunks(n):
    atoms = [Prop(k) for k in range(1, n + 1)]
    # falsified by the all-false row only, in the first chunk
    assert not is_tautology(_disjunction(atoms))
    # falsified by the all-true row only, the last row of the last chunk
    negated = _disjunction([Neg(p) for p in atoms])
    assert not is_tautology(negated)
    # a tautology that needs every chunk to confirm it
    assert is_tautology(Or(_disjunction(atoms), Neg(atoms[-1])))
    if n <= 16:
        for a in (_disjunction(atoms), negated, Or(negated, atoms[0])):
            assert is_tautology(a) == _tautology_by_rows(a)


def test_wide_tautologies_are_fast():
    atoms = [Prop(k) for k in range(1, 25)]
    for a, want in ((Or(_disjunction(atoms), Neg(atoms[-1])), True),
                    (_disjunction([Neg(p) for p in atoms]), False)):
        start = time.perf_counter()
        assert is_tautology.__wrapped__(a) is want
        assert time.perf_counter() - start < 2.0
    with pytest.raises(ResourceError, match="25 propositional atoms exceed the cap of 24"):
        is_tautology(_disjunction(atoms + [Prop(25)]))


def test_tautology_cache_is_bounded():
    maxsize = is_tautology.cache_info().maxsize
    is_tautology.cache_clear()
    for k in range(1, maxsize + 101):
        assert is_tautology(Imp(Prop(k), Prop(k)))
    assert is_tautology.cache_info().currsize == maxsize
    is_tautology.cache_clear()


# ---------------------------------------------------------------------------
# schema matching


def test_match_axiom_hand_instances():
    two = agent(2)
    t, s = Var(1, two), Var(2, two)
    a, b = Prop(1), Prop(2)
    cases = {
        AxiomSchema.APP: Imp(Just(t, two, Imp(a, b)),
                             Imp(Just(s, two, a), Just(App(t, s, two), two, b))),
        AxiomSchema.SUML: Imp(Just(t, two, a), Just(Sum(t, s, two), two, a)),
        AxiomSchema.SUMR: Imp(Just(s, two, a), Just(Sum(t, s, two), two, a)),
        AxiomSchema.REFL: Imp(Just(t, two, a), a),
        AxiomSchema.INSP: Imp(Just(t, two, a), Just(Bang(t, 2), two, Just(t, two, a))),
        AxiomSchema.PROJ: Imp(Just(Var(1, E), E, a), Just(Proj(2, Var(1, E)), two, a)),
        AxiomSchema.COCLOSHEAD: Imp(Just(Var(1, C), C, a), Just(Head(Var(1, C)), E, a)),
        AxiomSchema.COCLOSTAIL: Imp(Just(Var(1, C), C, a),
                                    Just(Tail(Var(1, C)), E, Just(Var(1, C), C, a))),
    }
    for schema, inst in cases.items():
        assert schema in match_axiom(inst), schema
        assert is_axiom(inst)


def test_match_axiom_tupling_and_induction():
    a = Prop(1)
    t1, t2 = Var(1, agent(1)), Var(2, agent(2))
    tupling = Imp(And(Just(t1, agent(1), a), Just(t2, agent(2), a)),
                  Just(Tuple((t1, t2)), E, a))
    assert AxiomSchema.TUPLING in match_axiom(tupling)
    tc, se = Var(1, C), Var(1, E)
    induction = Imp(And(a, Just(tc, C, Imp(a, Just(se, E, a)))),
                    Just(Ind(tc, se), C, a))
    assert AxiomSchema.INDUCTION in match_axiom(induction)


def test_match_axiom_near_misses():
    two = agent(2)
    t, s = Var(1, two), Var(2, two)
    a, b = Prop(1), Prop(2)
    # application with the sides swapped in the result term
    wrong_app = Imp(Just(t, two, Imp(a, b)),
                    Imp(Just(s, two, a), Just(App(s, t, two), two, b)))
    assert AxiomSchema.APP not in match_axiom(wrong_app)
    # left/right pooling are distinct
    suml = Imp(Just(t, two, a), Just(Sum(t, s, two), two, a))
    assert AxiomSchema.SUMR not in match_axiom(suml)
    # inspection must box the original assertion
    wrong_insp = Imp(Just(t, two, a), Just(Bang(t, 2), two, a))
    assert not match_axiom(wrong_insp)
    # tail co-closure without the re-boxing is not an axiom
    weak_tail = Imp(Just(Var(1, C), C, a), Just(Tail(Var(1, C)), E, a))
    assert not match_axiom(weak_tail)
    # induction with a different evidence term in the body
    tc, se = Var(1, C), Var(1, E)
    wrong_ind = Imp(And(a, Just(tc, C, Imp(a, Just(Var(2, E), E, a)))),
                    Just(Ind(tc, se), C, a))
    assert AxiomSchema.INDUCTION not in match_axiom(wrong_ind)


def test_match_axiom_against_generator():
    # every generated instance of a schema matches that schema
    rng = random.Random(5)
    for k in range(220):
        schema = list(AxiomSchema)[k % len(AxiomSchema)]
        h = rng.randint(1, 3)
        inst = random_axiom_instance(rng, schema, h, depth=rng.randint(0, 1))
        assert schema in match_axiom(inst), (schema, print_formula(inst))


def test_formulas_with_a_modal_box_instantiate_no_schema():
    box = Box(agent(1), Prop(1))
    assert match_axiom(Imp(box, box)) == frozenset()
    # Refl-shaped, with the box inside the justified assertion's body
    assert match_axiom(Imp(Just(Var(1, agent(1)), agent(1), box), box)) == frozenset()
    assert match_axiom(Imp(Prop(1), Prop(1))) == {AxiomSchema.TAUT}


def _schemata_uncached(a):
    """`match_axiom` without its memo or the tautology memo."""
    if not deduction._box_free(walk([a])):
        return frozenset()
    out = deduction._structural_schemata(a)
    if is_tautology.__wrapped__(a):
        out.add(AxiomSchema.TAUT)
    return frozenset(out)


def test_axiom_memo_is_bounded_and_keeps_verdicts():
    memo = deduction._schemata
    maxsize = memo.cache_info().maxsize
    memo.cache_clear()
    rng = random.Random(11)
    formulas = []
    for k in range(120):
        schema = list(AxiomSchema)[k % len(AxiomSchema)]
        formulas.append(random_axiom_instance(rng, schema, 2, depth=rng.randint(0, 1)))
        formulas.append(random_formula(rng, 2, rng.randint(0, 3)))
    formulas.append(Imp(Box(agent(1), Prop(1)), Box(agent(1), Prop(1))))
    # enough other formulas to fill the memo before the first are asked again
    filler = [Imp(Prop(k), Prop(k + 1)) for k in range(1, maxsize + 1)]
    for a in formulas + filler + formulas[::-1] + rng.sample(formulas, 60):
        assert match_axiom(a) == _schemata_uncached(a), print_formula(a)
        assert memo.cache_info().currsize <= maxsize
    assert memo.cache_info().currsize == maxsize
    memo.cache_clear()


def test_match_axiom_agrees_uncached_and_never_stores_an_atom():
    from test_parse_derivation import _golden_texts

    formulas = [Neg(And(Prop(1), Neg(Prop(1)))), Or(Prop(1), Neg(Prop(1)))]
    for _, text, h in _golden_texts():
        d = parse_derivation(text, h)
        formulas += walk([*d.hypotheses, *(step.formula for step in d.steps)], terms=False)
    rng = random.Random(4)
    for _ in range(400):
        formulas += walk([random_formula(rng, rng.randint(1, 3), rng.randint(0, 4))], terms=False)
    for a in formulas:
        assert match_axiom(a) == _schemata_uncached(a), print_formula(a)
    atoms = [a for a in formulas if isinstance(a, (Prop, Just))]
    assert sum(isinstance(a, Prop) for a in atoms) > 100
    assert sum(isinstance(a, Just) for a in atoms) > 100
    deduction._schemata.cache_clear()
    for a in atoms:
        assert match_axiom(a) == frozenset(), print_formula(a)
    assert deduction._schemata.cache_info().currsize == 0


def test_axiom_memo_never_caches_a_resource_error():
    deduction._schemata.cache_clear()
    is_tautology.cache_clear()
    parts = [Prop(i) for i in range(1, deduction.MAX_ATOMS + 2)]
    wide = Imp(conj(parts), Prop(1))
    for _ in range(3):
        with pytest.raises(ResourceError):
            match_axiom(wide)
        with pytest.raises(ResourceError):
            is_axiom(wide)
        with pytest.raises(ResourceError):
            is_tautology(wide)
    for memo in (deduction._schemata, is_tautology):
        info = memo.cache_info()
        assert (info.hits, info.currsize) == (0, 0)


def test_random_formulas_rarely_axioms():
    # sanity: the matcher does not accept everything
    rng = random.Random(6)
    hits = sum(bool(match_axiom(random_formula(rng, 2, 2))) for _ in range(200))
    assert hits <= 20


# ---------------------------------------------------------------------------
# agent fragment


def test_agent_fragment_membership():
    def inside(x):
        return is_agent_fragment(walk([x]))
    assert inside(Sum(Var(1, agent(1)), Bang(Var(2, agent(1)), 1), agent(1)))
    assert not inside(Proj(1, Var(1, E)))
    assert inside(Just(Var(1, agent(2)), agent(2), Prop(1)))
    assert not inside(Just(Var(1, C), C, Prop(1)))
    assert not inside(Just(Var(1, agent(1)), agent(1), Just(Var(1, C), C, Prop(1))))
    # an agent-sorted assertion whose term reaches E inside
    assert not inside(Just(Proj(1, Var(1, E)), agent(1), Prop(1)))
    assert not inside(Imp(Prop(1), Box(agent(1), Prop(1))))
    assert AGENT_FRAGMENT_SCHEMATA == {
        AxiomSchema.TAUT, AxiomSchema.APP, AxiomSchema.SUML, AxiomSchema.SUMR,
        AxiomSchema.REFL, AxiomSchema.INSP}


# ---------------------------------------------------------------------------
# constant specifications


def test_total_specification():
    c = Const(1, C)
    refl = Imp(Just(Var(1, agent(1)), agent(1), Prop(1)), Prop(1))
    assert TC.contains(c, refl)
    assert not TC.contains(c, Prop(1))  # not an axiom
    assert not TC.contains(Const(1, agent(1)), refl)  # C only
    assert not TC.contains(Var(1, C), refl)  # constants only
    assert list(TC.pairs()) == []  # none given outright
    universe = [c, Const(2, agent(1)), Var(1, C)]
    assert list(TC.within(universe, [refl, Prop(1)])) == [(c, refl)]


def test_total_specification_tests_no_formula_without_a_common_constant(monkeypatch):
    calls = []
    monkeypatch.setattr(deduction, "is_axiom", lambda a: calls.append(a) or True)
    refl = Imp(Just(Var(1, agent(1)), agent(1), Prop(1)), Prop(1))
    terms = [Const(1, agent(1)), Var(1, C), Const(2, E), Tail(Var(2, C))]
    assert list(TC.within(terms, [refl, Prop(1)])) == []
    assert calls == []
    assert list(TC.within(terms + [Const(3, C)], [refl])) == [(Const(3, C), refl)]
    assert calls == [refl]


def test_total_specification_within_matches_the_double_loop():
    def double_loop(terms, formulas):
        axioms = [a for a in formulas if is_axiom(a)]
        return [(c, a) for c in terms if isinstance(c, Const) and c.sort == C
                for a in axioms]

    rng = random.Random(11)
    sorts = [C, E, agent(1), agent(2)]
    schemata = [s for s in AxiomSchema if s is not AxiomSchema.TAUT]
    yielded = 0
    for _ in range(200):
        terms = list(dict.fromkeys(
            [Const(rng.randint(1, 3), rng.choice(sorts)) for _ in range(rng.randint(0, 3))]
            + [random_term(rng, rng.choice(sorts), 2, rng.randint(0, 2))
               for _ in range(rng.randint(0, 4))]))
        formulas = list(dict.fromkeys(
            [random_formula(rng, 2, rng.randint(0, 2)) for _ in range(rng.randint(0, 4))]
            + [random_axiom_instance(rng, rng.choice(schemata), 2)
               for _ in range(rng.randint(0, 3))]))
        want = double_loop(terms, formulas)
        assert list(TC.within(terms, formulas)) == want
        yielded += bool(want)
    assert 50 <= yielded <= 150


def test_extensional_specification_validates():
    refl = Imp(Just(Var(1, agent(1)), agent(1), Prop(1)), Prop(1))
    cs = ConstantSpecification.extensional({(4, agent(2), refl)})
    assert cs.contains(Const(4, agent(2)), refl)
    assert not cs.contains(Const(4, C), refl)
    assert not cs.contains(Var(4, agent(2)), refl)
    assert list(cs.pairs()) == [(Const(4, agent(2)), refl)]
    assert list(cs.within([Const(4, agent(2))], [refl])) == [(Const(4, agent(2)), refl)]
    assert list(cs.within([Const(4, agent(2))], [Prop(1)])) == []
    assert list(cs.within([Const(4, C)], [refl])) == []
    with pytest.raises(InvalidInput):
        ConstantSpecification.extensional({(1, C, Prop(1))})
    # validation can be waived for deliberately non-well-founded tables
    loose = ConstantSpecification.extensional({(1, C, Prop(1))}, validate=False)
    assert loose.contains(Const(1, C), Prop(1))


# ---------------------------------------------------------------------------
# the checker


def _drv(*steps, hyps=()):
    return Derivation(tuple(hyps), tuple(steps))


def test_check_accepts_modus_ponens_chain():
    p, q = Prop(1), Prop(2)
    d = _drv(
        Step(p, Hyp(1)),
        Step(Imp(p, q), Hyp(2)),
        Step(q, MP(2, 1)),
        hyps=(p, Imp(p, q)))
    assert check_derivation(d, TC).ok
    assert d.conclusion == q


def test_check_statuses():
    p = Prop(1)
    bad_hyp = _drv(Step(p, Hyp(3)), hyps=(p,))
    assert check_derivation(bad_hyp, TC).status == "BadHypIndex"

    not_axiom = _drv(Step(Imp(p, Prop(2)), Axiom(AxiomSchema.TAUT)))
    r = check_derivation(not_axiom, TC)
    assert r.status == "NotAnAxiom" and r.step == 1

    bad_mp = _drv(Step(Imp(p, p), Axiom(AxiomSchema.TAUT)), Step(p, MP(1, 1)))
    assert check_derivation(bad_mp, TC).status == "BadMP"

    dangling = _drv(Step(p, MP(2, 3)))
    assert check_derivation(dangling, TC).status == "BadMP"

    refl = Imp(Just(Var(1, agent(1)), agent(1), p), p)
    agent_const = _drv(Step(Just(Const(1, agent(1)), agent(1), refl),
                            AxNec(Const(1, agent(1)))))
    assert check_derivation(agent_const, TC).status == "NotInCS"

    c_level = _drv(Step(Just(Const(1, C), C, refl), AxNec(Const(1, C))))
    assert check_derivation(c_level, TC).ok


def test_check_reports_a_modal_box_as_ill_formed():
    box = Box(agent(1), Prop(1))
    d = Derivation((), (Step(Imp(Prop(1), Prop(1)), Axiom(AxiomSchema.TAUT)),
                        Step(Imp(box, box), Axiom(AxiomSchema.TAUT))))
    r = check_derivation(d, TC)
    assert (r.ok, r.step, r.status) == (False, 2, "IllFormed")
    assert "modal box" in r.message


def test_check_fragment_restriction():
    proj = Imp(Just(Var(1, E), E, Prop(1)), Just(Proj(1, Var(1, E)), agent(1), Prop(1)))
    d = _drv(Step(proj, Axiom(AxiomSchema.PROJ)))
    assert check_derivation(d, TC).ok
    assert check_derivation(d, TC, fragment="agent").status == "NotInFragment"
    # a schema the fragment lacks is refused even on a formula inside it
    r = check_derivation(_drv(Step(Imp(Prop(1), Prop(1)), Axiom(AxiomSchema.PROJ))), TC,
                         fragment="agent")
    assert (r.status, r.message) == ("NotAnAxiom", "schema Proj unavailable in the single-agent fragment")
    # hypothesis steps outside the fragment are barred when cited
    boxed = Just(Var(1, C), C, Prop(1))
    d2 = _drv(Step(boxed, Hyp(1)), hyps=(boxed,))
    assert check_derivation(d2, TC).ok
    assert check_derivation(d2, TC, fragment="agent").status == "NotInFragment"


def test_check_agent_bound():
    d = _drv(Step(Imp(Just(Var(1, agent(3)), agent(3), Prop(1)), Prop(1)),
                  Axiom(AxiomSchema.REFL)))
    assert check_derivation(d, TC, h=3).ok
    assert check_derivation(d, TC, h=2).status == "IllFormed"
    # hypothesis and axnec steps bring in new material too, and are screened
    boxed = Just(Var(1, agent(3)), agent(3), Prop(1))
    d = _drv(Step(boxed, Hyp(1)), hyps=(boxed,))
    assert check_derivation(d, TC, h=3).ok
    report = check_derivation(d, TC, h=2)
    assert (report.step, report.status) == (1, "IllFormed")
    c = Const(1, agent(3))
    body = Imp(Prop(1), Prop(1))
    cs = ConstantSpecification.extensional([(1, agent(3), body)])
    d = _drv(Step(Just(c, agent(3), body), AxNec(c)))
    assert check_derivation(d, cs, h=3).ok
    report = check_derivation(d, cs, h=2)
    assert (report.step, report.status) == (1, "IllFormed")


def test_check_screens_box_then_bounds_then_fragment():
    box = Box(agent(1), Prop(1))
    far = Just(Var(1, agent(3)), agent(3), Prop(1))  # agent 3 > h = 2
    common = Just(Var(1, C), C, Prop(1))  # outside the single-agent fragment

    def first_failure(*formulas):
        d = _drv(*(Step(Imp(f, f), Axiom(AxiomSchema.TAUT)) for f in formulas))
        r = check_derivation(d, TC, h=2, fragment="agent")
        return r.step, r.status, r.message

    for f in (And(common, And(far, box)), And(box, common), And(far, box)):
        step, status, message = first_failure(f)
        assert (step, status) == (1, "IllFormed") and "modal box" in message
    for f in (And(common, far), And(far, common)):
        step, status, message = first_failure(f)
        assert (step, status) == (1, "IllFormed") and message.endswith("> h=2")
    assert first_failure(common)[:2] == (1, "NotInFragment")
    # a later step sharing nodes screened already is screened on its new ones
    assert first_failure(Prop(1), And(Prop(1), common))[:2] == (2, "NotInFragment")
    assert first_failure(Prop(1), Imp(Prop(1), far))[:2] == (2, "IllFormed")
    assert first_failure(Prop(1), Or(Prop(1), box))[:2] == (2, "IllFormed")


def test_check_screens_formulas_of_any_depth():
    a = Prop(1)
    for _ in range(3 * sys.getrecursionlimit()):
        a = Neg(Just(Bang(Var(1, agent(1)), 1), agent(1), a))
    d = _drv(Step(a, Hyp(1)), hyps=(a,))
    assert check_derivation(d, TC, h=1, fragment="agent").ok
    assert is_agent_fragment(walk([a])) and not is_agent_fragment(walk([Neg(Just(Var(1, E), E, a))]))


def test_random_derivations_check():
    rng = random.Random(9)
    for _ in range(40):
        d = random_derivation(rng, rng.randint(1, 3))
        assert check_derivation(d, TC).ok


# ---------------------------------------------------------------------------
# deduction theorem


def test_deduction_theorem_shape_and_validity():
    rng = random.Random(10)
    for _ in range(30):
        d = random_derivation(rng, rng.randint(1, 3))
        if not d.hypotheses:
            continue
        hyp = d.hypotheses[rng.randrange(len(d.hypotheses))]
        out = deduction_theorem(d, hyp, TC)
        assert check_derivation(out, TC).ok
        assert out.conclusion == Imp(hyp, d.conclusion)
        assert hyp not in out.hypotheses


def test_deduction_theorem_removes_duplicates():
    p, q = Prop(1), Prop(2)
    d = _drv(
        Step(p, Hyp(1)),
        Step(Imp(p, Imp(p, q)), Hyp(2)),
        Step(Imp(p, q), MP(2, 1)),
        Step(q, MP(3, 1)),
        hyps=(p, Imp(p, Imp(p, q)), p))
    out = deduction_theorem(d, p, TC)
    assert out.hypotheses == (Imp(p, Imp(p, q)),)
    assert out.conclusion == Imp(p, q)
    assert check_derivation(out, TC).ok


def test_deduction_theorem_requires_present_hypothesis():
    d = _drv(Step(Prop(1), Hyp(1)), hyps=(Prop(1),))
    with pytest.raises(InvalidInput):
        deduction_theorem(d, Prop(2), TC)


def test_deduction_theorem_rejects_invalid_input():
    d = _drv(Step(Prop(1), Hyp(1)), Step(Prop(2), MP(1, 1)), hyps=(Prop(1),))
    with pytest.raises(InvalidInput):
        deduction_theorem(d, Prop(1), TC)


# ---------------------------------------------------------------------------
# derivation files


def test_derivation_file_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        d = random_derivation(rng, 2)
        text = print_derivation(d)
        assert parse_derivation(text, 2) == d


def test_derivation_file_errors():
    for text, message in [
        ("1. P1 ; axiom Bogus", "line 1: unknown schema 'Bogus'"),
        ("2. P1 ; hyp 1", "line 1: step number 2, expected 1"),
        ("1. P1 ; mp 1", "line 1: cannot read rule 'mp 1'"),
        ("1. P1 ; hyp +1", "line 1: hypothesis index '+1' is not an integer"),
        ("1. P1 -> P1 ; axiom Taut\n2. P1 ; mp 0_2 1", "line 2: step index '0_2' is not an integer"),
        ("1. P1 -> P1 ; axiom Taut\n2. P1 ; mp 1 \u0661_1", "line 2: step index '\u0661_1' is not an integer"),
        ("# only a comment\n", "no steps found"),
        ("1. P1 ; hyp 1\nhyp: P1", "line 2: hypotheses must precede all steps"),
        ("foo", "line 1: expected `<k>. <formula> ; <rule>`"),
        ("1. P1 -> P1", "line 1: missing `; <rule>`"),
        ("1. P1 -> P1 ;", "line 1: empty rule"),
        ("1. [x1@C]@C P1 ; axnec x1@C", "line 1: axnec needs a constant, got 'x1@C'"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_derivation(text, 2)
        assert str(info.value) == message


def test_derivation_file_comments_and_blanks():
    text = "# leading comment\nhyp: P1\n\n1. P1 ; hyp 1\n"
    d = parse_derivation(text, 2)
    assert d.hypotheses == (Prop(1),)
    assert d.conclusion == Prop(1)
