"""Shared fixture builders for the test suite."""

from jck.deduction import (
    Axiom, AxiomSchema, Builder, ConstantSpecification, Derivation, Hyp, Step,
)
from jck.semantics import AFModel, format_kripke_model
from jck.syntax import And, Imp, Just, Or, Prop, Tail, Var, C, E, print_formula, print_term
from jck.synthesis import e_application, necessitate


def build_induction2_input(alloc, h=2):
    """A closed derivation of B -> [s]@E (A & B) for the second induction
    internalization, with B a boxed formula and A a disjunction over it.

    Returns (a, b, s, derivation).  The step evidence combines the tail
    co-closure axiom with a necessitated weakening tautology.
    """
    t0 = Var(1, C)
    bb = Just(t0, C, Prop(1))
    a = Or(bb, Prop(2))
    ab = And(a, bb)
    taut = Derivation((), (Step(Imp(bb, ab), Axiom(AxiomSchema.TAUT)),))
    tt, taut_boxed = necessitate(taut, E, alloc, h=h)
    app_term, app_d = e_application(h, tt, Tail(t0), bb, ab)
    cct = Imp(bb, Just(Tail(t0), E, bb))
    b = Builder()
    premises = [b.include(taut_boxed), b.axiom(AxiomSchema.COCLOSTAIL, cct),
                b.include(app_d)]
    b.by_taut(premises, Imp(bb, Just(app_term, E, ab)))
    return a, bb, app_term, b.build()


def hypotheses_reversed(d: Derivation) -> Derivation:
    """`d` with its hypothesis list reversed and each `hyp` step renumbered,
    so that a random derivation, whose C-boxed hypotheses come first, puts
    its plain ones first."""
    n = len(d.hypotheses)
    return Derivation(d.hypotheses[::-1], tuple(
        Step(s.formula, Hyp(n + 1 - s.rule.index)) if isinstance(s.rule, Hyp) else s
        for s in d.steps))


def format_model(m: AFModel) -> str:
    """The text form of an evidence model, which `parse_model_file` reads:
    the frame lines, then the evidence, mode and specification lines."""
    lines = [f"evidence: (w{fact.world}, {print_term(fact.term)}, "
             f"{print_formula(fact.formula)})" for fact in m.evidence_base]
    lines.append(f"mode: {m.mode}")
    if m.cs == ConstantSpecification.total_c():
        lines.append("cs: totalC")
    return format_kripke_model(m) + "\n".join(lines) + "\n"
