"""Evidence synthesis: every emitted derivation must pass the kernel and
conclude exactly what the operation promises."""

import random
import re

import pytest

from conftest import build_induction2_input, hypotheses_reversed
from jck.errors import InvalidInput, ResourceError, SortError
from jck.deduction import (
    Axiom, AxiomSchema, AxNec, ConstantSpecification, Derivation, Hyp, MP,
    Step, check_derivation, parse_derivation,
)
from jck.gen import random_derivation, random_theorem
from jck.syntax import (
    C, E, And, App, Const, Head, Imp, Ind, Just, Proj, Prop, Sum, Tail, Tuple,
    Var, agent, variables_in,
)
from jck.synthesis import (
    ConstantAllocator, LiftingContext, c_inspection, c_reflexivity, c_shift,
    e_application, e_reflexivity, e_sum, i_conversion,
    internalize_induction_1, internalize_induction_2, lift, necessitate,
)

TC = ConstantSpecification.total_c()


def accepted(d, cs=TC, h=None, fragment="full"):
    report = check_derivation(d, cs, h=h, fragment=fragment)
    assert report.ok, f"{report.status} at step {report.step}: {report.message}"
    return True


def allocated_cs(alloc):
    """The allocator's table as an extensional specification."""
    return ConstantSpecification.extensional((i, C, a) for a, i in alloc.memo.items())


# ---------------------------------------------------------------------------
# allocator


def test_allocator_memoizes_and_validates():
    alloc = ConstantAllocator()
    refl = Imp(Just(Var(1, agent(1)), agent(1), Prop(1)), Prop(1))
    taut = Imp(Prop(1), Prop(1))
    c1 = alloc.constant_for(refl)
    c2 = alloc.constant_for(taut)
    assert c1 == Const(1, C) and c2 == Const(2, C)
    assert alloc.constant_for(refl) == c1  # memoized, no fresh index
    with pytest.raises(InvalidInput):
        alloc.constant_for(Prop(1))


def test_allocator_as_specification():
    alloc = ConstantAllocator()
    taut = Imp(Prop(1), Prop(1))
    c = alloc.constant_for(taut)
    cs = allocated_cs(alloc)
    d = Derivation((), (Step(Just(c, C, taut), AxNec(c)),))
    assert accepted(d, cs)
    other = Derivation((), (Step(Just(Const(9, C), C, taut), AxNec(Const(9, C))),))
    assert check_derivation(other, cs).status == "NotInCS"


# ---------------------------------------------------------------------------
# derived group-level operations


def test_e_reflexivity():
    t, a = Var(1, E), Prop(1)
    d = e_reflexivity(t, a)
    assert accepted(d, h=2)
    assert d.conclusion == Imp(Just(t, E, a), a)
    assert not d.hypotheses
    with pytest.raises(SortError):  # raised by the projection constructor
        e_reflexivity(Var(1, C), a)


def test_e_application_shape():
    h, t, s = 2, Var(1, E), Var(2, E)
    a, b = Prop(1), Prop(2)
    term, d = e_application(h, t, s, a, b)
    assert term == Tuple((App(Proj(1, t), Proj(1, s), agent(1)),
                          App(Proj(2, t), Proj(2, s), agent(2))))
    assert accepted(d, h=h)
    assert d.conclusion == Imp(Just(t, E, Imp(a, b)),
                               Imp(Just(s, E, a), Just(term, E, b)))


def test_e_sum_shape():
    h, t, s, a = 3, Var(1, E), Var(2, E), Prop(1)
    term, dl, dr = e_sum(h, t, s, a)
    assert term == Tuple(tuple(Sum(Proj(i, t), Proj(i, s), agent(i))
                               for i in (1, 2, 3)))
    assert accepted(dl, h=h) and accepted(dr, h=h)
    assert dl.conclusion == Imp(Just(t, E, a), Just(term, E, a))
    assert dr.conclusion == Imp(Just(s, E, a), Just(term, E, a))


def test_e_application_stops_at_the_atom_cap():
    # the closing tautology has 3h + 3 atoms: 24 at h = 7, 27 at h = 8
    t, s, a, b = Var(1, E), Var(2, E), Prop(1), Prop(2)
    _, d = e_application(7, t, s, a, b)
    assert accepted(d, h=7)
    with pytest.raises(ResourceError, match="^27 propositional atoms exceed the cap of 24$"):
        e_application(8, t, s, a, b)


def test_e_sum_stops_at_the_atom_cap():
    # each closing tautology has 2h + 2 atoms: 24 at h = 11, 26 at h = 12
    t, s, a = Var(1, E), Var(2, E), Prop(1)
    _, dl, dr = e_sum(11, t, s, a)
    assert accepted(dl, h=11) and accepted(dr, h=11)
    with pytest.raises(ResourceError, match="^26 propositional atoms exceed the cap of 24$"):
        e_sum(12, t, s, a)


def test_i_conversion_shape():
    t, a = Var(1, C), Prop(1)
    term, d = i_conversion(t, 2, a)
    assert term == Proj(2, Head(t))
    assert accepted(d, h=2)
    assert d.conclusion == Imp(Just(t, C, a), Just(term, agent(2), a))


def test_c_reflexivity():
    t, a = Var(1, C), Prop(1)
    d = c_reflexivity(t, a)
    assert accepted(d, h=2)
    assert d.conclusion == Imp(Just(t, C, a), a)


def test_c_inspection_shape():
    alloc = ConstantAllocator()
    t, a = Var(1, C), Prop(1)
    f = Just(t, C, a)
    term, d = c_inspection(t, a, alloc)
    c = alloc.constant_for(Imp(f, Just(Tail(t), E, f)))
    assert term == Ind(c, Tail(t))
    assert accepted(d, allocated_cs(alloc), h=2)
    assert accepted(d, h=2)  # the total specification covers it too
    assert d.conclusion == Imp(f, Just(term, C, f))
    term2, _ = c_inspection(t, a, alloc)
    assert term2 == term  # same allocator, same constant


def test_c_shift_shape():
    alloc = ConstantAllocator()
    t, a = Var(1, C), Prop(1)
    f = Just(t, C, a)
    term, d = c_shift(t, a, alloc)
    insp = alloc.constant_for(Imp(f, Just(Tail(t), E, f)))
    head = alloc.constant_for(Imp(f, Just(Head(t), E, a)))
    assert term == App(head, Ind(insp, Tail(t)), C)
    assert accepted(d, allocated_cs(alloc), h=2)
    assert d.conclusion == Imp(f, Just(term, C, Just(Head(t), E, a)))


# ---------------------------------------------------------------------------
# lifting


def _mixed_input():
    boxed = Just(Var(1, C), C, Prop(1))
    plain = Imp(boxed, Prop(2))
    return Derivation((boxed, plain), (
        Step(boxed, Hyp(1)),
        Step(plain, Hyp(2)),
        Step(Prop(2), MP(2, 1))))


@pytest.mark.parametrize("target", [agent(1), agent(2), E, C])
def test_lift_each_target(target):
    d = _mixed_input()
    assert accepted(d, h=2)
    term, out = lift(d, target, alloc=ConstantAllocator(), h=2)
    assert accepted(out, h=2)
    assert out.conclusion == Just(term, target, Prop(2))
    # boxed hypothesis survives, plain one is boxed under a fresh variable
    assert out.hypotheses[0] == d.hypotheses[0]
    assert isinstance(out.hypotheses[1], Just)
    assert out.hypotheses[1].sort == target
    assert isinstance(out.hypotheses[1].term, Var)
    assert out.hypotheses[1].body == d.hypotheses[1]


def test_lift_fresh_variable_avoids_clashes():
    boxed = Just(Var(1, C), C, Prop(1))
    plain = Imp(boxed, Just(Var(1, C), C, Prop(2)))
    d = Derivation((boxed, plain), (
        Step(boxed, Hyp(1)),
        Step(plain, Hyp(2)),
        Step(Just(Var(1, C), C, Prop(2)), MP(2, 1))))
    term, out = lift(d, C, alloc=ConstantAllocator(), h=1)
    fresh = out.hypotheses[1].term
    assert isinstance(fresh, Var) and fresh.sort == C
    assert fresh != Var(1, C)  # x1@C is taken by the input
    assert accepted(out, h=1)


@pytest.mark.parametrize("d", [
    Derivation((), (Step(Prop(1), Hyp(1)),)),
    Derivation((Prop(1),), (Step(Prop(1), Hyp(1)), Step(Prop(1), MP(2, 2)))),
    Derivation((Prop(1),), (Step(Prop(1), Hyp(1)), Step(Prop(1), MP(1, 1)))),
], ids=["missing-hypothesis", "premise-not-earlier", "major-not-implication"])
def test_lift_refuses_a_step_citing_a_missing_line_as_the_kernel_does(d):
    report = check_derivation(d, TC)
    assert not report.ok
    want = f"input derivation rejected at step {report.step}: {report.message}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(want)}$"):
        lift(d, C, h=1)


def test_lift_rejects_mismatched_context():
    d = _mixed_input()
    ctx = LiftingContext([], [Prop(9)])
    with pytest.raises(InvalidInput):
        lift(d, C, ctx, h=2)


def test_lift_takes_the_agent_count_and_never_guesses_it():
    # no agent occurs in this derivation, so a count guessed from it was 1,
    # and its lift to E built 1-tuples that a check for 2 agents refuses
    d = parse_derivation("hyp: [x1@C]@C P1\n"
                         "1. [x1@C]@C P1 ; hyp 1\n"
                         "2. [x1@C]@C P1 -> P1 -> [x1@C]@C P1 ; axiom Taut\n"
                         "3. P1 -> [x1@C]@C P1 ; mp 2 1\n", 2)
    with pytest.raises(TypeError):
        lift(d, E)
    with pytest.raises(TypeError):
        necessitate(Derivation((), d.steps[1:2]), E)
    term, out = lift(d, E, h=2)
    assert accepted(out, h=2)
    assert len(term.items) == 2


def test_lift_axnec_step():
    body = Imp(Prop(1), Imp(Prop(2), Prop(1)))
    c0 = Const(1, C)
    d = Derivation((), (
        Step(Just(c0, C, body), AxNec(c0)),
        Step(Imp(Just(c0, C, body), Imp(Prop(3), Just(c0, C, body))),
             Axiom(AxiomSchema.TAUT)),
        Step(Imp(Prop(3), Just(c0, C, body)), MP(2, 1))))
    assert accepted(d, h=2)
    for target in (agent(2), E, C):
        term, out = lift(d, target, alloc=ConstantAllocator(), h=2)
        assert accepted(out, h=2)
        assert out.conclusion == Just(term, target, d.conclusion)


def test_necessitate_requires_closed_input():
    with pytest.raises(InvalidInput):
        necessitate(_mixed_input(), C, h=2)


def test_necessitate_tautology_terms_are_ground():
    d = Derivation((), (Step(Imp(Prop(1), Prop(1)), Axiom(AxiomSchema.TAUT)),))
    for target in (agent(1), E, C):
        term, out = necessitate(d, target, ConstantAllocator(), h=2)
        assert accepted(out, h=2)
        assert out.conclusion == Just(term, target, Imp(Prop(1), Prop(1)))
        assert not variables_in(term)
        assert not out.hypotheses


def test_lift_randomized():
    rng = random.Random(21)
    for _ in range(15):
        h = rng.randint(1, 3)
        d = random_theorem(rng, h)
        target = rng.choice((agent(rng.randint(1, h)), E, C))
        term, out = necessitate(d, target, ConstantAllocator(), h=h)
        assert accepted(out, h=h)
        assert out.conclusion == Just(term, target, d.conclusion)


# ---------------------------------------------------------------------------
# induction internalization


def test_internalize_induction_1():
    # A := [x1@C] P1 and s := tail(x1@C) make A -> [s]@E A a single axiom step
    alloc = ConstantAllocator()
    t0 = Var(1, C)
    a = Just(t0, C, Prop(1))
    s = Tail(t0)
    d = Derivation((), (Step(Imp(a, Just(s, E, a)), Axiom(AxiomSchema.COCLOSTAIL)),))
    term, out = internalize_induction_1(a, s, d, alloc, h=2)
    assert accepted(out, h=2)
    assert out.conclusion == Imp(a, Just(Ind(term, s), C, a))
    assert not out.hypotheses


def test_internalize_induction_1_rejects_wrong_conclusion():
    alloc = ConstantAllocator()
    d = Derivation((), (Step(Imp(Prop(1), Prop(1)), Axiom(AxiomSchema.TAUT)),))
    with pytest.raises(InvalidInput):
        internalize_induction_1(Prop(1), Var(1, E), d, alloc, h=1)


def test_internalize_induction_2():
    # B := [x1@C] P1, A := B | P2; the input derives B -> [s]@E (A & B)
    alloc = ConstantAllocator()
    a, bb, app_term, d = build_induction2_input(alloc)
    assert accepted(d, h=2)

    term, c, out = internalize_induction_2(a, bb, app_term, d, alloc, h=2)
    assert accepted(out, h=2)
    assert c == alloc.constant_for(Imp(And(a, bb), a))
    assert out.conclusion == Imp(bb, Just(App(c, Ind(term, app_term), C), C, a))


def test_internalize_induction_2_rejects_wrong_conclusion():
    alloc = ConstantAllocator()
    d = Derivation((), (Step(Imp(Prop(1), Prop(1)), Axiom(AxiomSchema.TAUT)),))
    with pytest.raises(InvalidInput):
        internalize_induction_2(Prop(1), Prop(2), Var(1, E), d, alloc, h=1)


# ---------------------------------------------------------------------------
# randomized whole-pipeline checks (bigger corpora run in the acceptance suite)


def test_random_theorems_check():
    rng = random.Random(22)
    for _ in range(25):
        d = random_theorem(rng, rng.randint(1, 3))
        assert not d.hypotheses
        assert accepted(d)


def test_random_derivations_lift_to_c():
    rng = random.Random(23)
    for _ in range(10):
        h = rng.randint(1, 3)
        d = random_derivation(rng, h, n_extra=2)
        for order in (d, hypotheses_reversed(d)):
            term, out = lift(order, C, LiftingContext.from_derivation(order),
                             ConstantAllocator(), h=h)
            assert accepted(out, h=h)
            assert out.conclusion == Just(term, C, d.conclusion)
            # each hypothesis keeps its place: [s]@C B as it is, another A as [y]@C A
            for f, g in zip(order.hypotheses, out.hypotheses, strict=True):
                assert g == f if isinstance(f, Just) and f.sort == C else g.body == f
