"""Modal side: forgetful images, the conservative projection into the
single-agent fragment, Kripke evaluation, and the random refutation probe."""

import random

import pytest

from jck.deduction import (
    AxNec, Axiom, AxiomSchema, ConstantSpecification, Derivation, Hyp, MP,
    Step, check_derivation, is_agent_fragment_formula, match_axiom,
)
from jck.errors import InvalidInput, ParseError, UnknownWorld
from jck.gen import (
    random_agent_fragment_formula, random_axiom, random_derivation,
    random_formula, random_theorem,
)
from jck.modal import (
    KripkeModel, attack_kripke_model, conservative_projection, forgetful,
    forgetful_soundness_probe, format_kripke_model, kripke_satisfies,
    parse_kripke_file, parse_modal_formula, probe_modal_formula,
    random_kripke_model, realizes, translate_derivation_x,
    validate_kripke_model,
)
from jck import semantics
from jck.semantics import attack_four_world_model, reach_by_component
from jck.syntax import (
    C, E, Box, Const, Imp, Just, Neg, Prop, Var, agent, parse_formula,
    print_formula,
)

TC = ConstantSpecification.total_c()


# ---------------------------------------------------------------------------
# modal syntax


@pytest.mark.parametrize("text", [
    "#2 del & #1 #2 del -> #C del",
    "#E (P1 -> P2)",
    "~#C P1 | #1 P1",
    "#1 (P1 & P2)",
    "#1 P1 & P2",
    "~~#E del",
    "#C (P1 | ~P2) -> del",
])
def test_modal_print_is_canonical(text):
    a = parse_modal_formula(text, 2)
    assert print_formula(a) == text
    assert parse_modal_formula(print_formula(a), 2) == a


def test_modal_parse_errors():
    with pytest.raises(ParseError):
        parse_modal_formula("#4 P1", 3)
    with pytest.raises(ParseError):
        parse_modal_formula("#C", 2)
    with pytest.raises(ParseError):
        parse_modal_formula("P1 -> ", 2)
    with pytest.raises(ParseError):
        parse_modal_formula("[x1@1]@1 P1", 2)  # evidence syntax is not modal
    with pytest.raises(ParseError):
        parse_modal_formula("P1 P2", 2)
    # atoms follow the evidence language's atom grammar
    for text in ("P0", "Foo", "x1", "c2", "head"):
        with pytest.raises((ParseError, InvalidInput)):
            parse_modal_formula(text, 2)


def test_modal_random_round_trips():
    rng = random.Random(31)
    for _ in range(150):
        h = rng.randint(1, 3)
        a = forgetful(random_formula(rng, h, rng.randint(0, 4)))
        assert parse_modal_formula(print_formula(a), h) == a


# ---------------------------------------------------------------------------
# forgetful image


def test_forgetful_shape():
    f = parse_formula("[m1@2]@2 del & [m2@1]@1 [m1@2]@2 del -> [x1@C]@C del", 2)
    img = forgetful(f)
    assert print_formula(img) == "#2 del & #1 #2 del -> #C del"
    assert realizes(f, img)


def test_forgetful_maps_each_box_kind():
    assert forgetful(Just(Var(1, E), E, Prop(1))) == Box(E, Prop(1))
    assert forgetful(Just(Var(1, C), C, Prop(1))) == Box(C, Prop(1))
    assert forgetful(Just(Var(1, agent(2)), agent(2), Prop(1))) == Box(agent(2), Prop(1))
    assert forgetful(Imp(Neg(Prop(1)), Prop(2))) == Imp(
        parse_modal_formula("~P1", 1), Prop(2))


def test_realizes_is_forgetful_agreement():
    f = parse_formula("[x1@1]@1 P1 -> P1", 1)
    assert realizes(f, parse_modal_formula("#1 P1 -> P1", 1))
    assert not realizes(f, parse_modal_formula("#1 P1 -> P2", 1))
    # distinct terms under the same box realize the same image
    g = parse_formula("[c9@1]@1 P1 -> P1", 1)
    assert forgetful(f) == forgetful(g)


def test_realizes_random(seed=41):
    rng = random.Random(seed)
    for _ in range(60):
        r = random_formula(rng, 3, rng.randint(0, 4))
        assert realizes(r, forgetful(r))


# ---------------------------------------------------------------------------
# conservative projection on formulas


def test_projection_identity_on_agent_fragment():
    rng = random.Random(3)
    for _ in range(120):
        g = random_agent_fragment_formula(rng, 3, rng.randint(0, 3))
        assert conservative_projection(g) == g


def test_projection_erasure_cases():
    h = 2
    # box with a group-level subterm anywhere in the term is dropped
    g = parse_formula("[pi_1(<c1@1, c1@2>)]@1 P1", h)
    assert conservative_projection(g) == Prop(1)
    g = parse_formula("[c1@1 * c2@1]@1 P1", h)
    assert conservative_projection(g) == g
    g = parse_formula("[x1@C]@C [c1@1]@1 P1", h)
    assert conservative_projection(g) == parse_formula("[c1@1]@1 P1", h)
    g = parse_formula("[head(x1@C)]@E P1 -> [c1@1]@1 P2", h)
    assert conservative_projection(g) == parse_formula("P1 -> [c1@1]@1 P2", h)


def test_projection_is_idempotent():
    rng = random.Random(33)
    for _ in range(120):
        a = random_formula(rng, 3, rng.randint(0, 4))
        once = conservative_projection(a)
        assert conservative_projection(once) == once
        assert is_agent_fragment_formula(once)


# ---------------------------------------------------------------------------
# derivation translation


def _translated_ok(d, cs=TC, h=None):
    res = translate_derivation_x(d, cs)
    report = check_derivation(res.derivation, res.cs, h=h, fragment="agent")
    assert report.ok, f"{report.status} at {report.step}: {report.message}"
    assert res.derivation.conclusion == conservative_projection(d.conclusion)
    assert res.derivation.hypotheses == tuple(
        conservative_projection(f) for f in d.hypotheses)
    return res


def _single(schema, instance):
    return Derivation((), (Step(instance, Axiom(schema)),))


def test_translate_application_all_erasure_splits():
    h = 2
    clean = parse_formula(
        "[c1@1]@1 (P1 -> P2) -> ([c2@1]@1 P1 -> [c1@1 * c2@1]@1 P2)", h)
    res = _translated_ok(_single(AxiomSchema.APP, clean), h=h)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.APP)

    major_kept = parse_formula(
        "[c1@1]@1 (P1 -> P2) -> ([pi_1(x1@E)]@1 P1 -> [c1@1 * pi_1(x1@E)]@1 P2)", h)
    res = _translated_ok(_single(AxiomSchema.APP, major_kept), h=h)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.REFL)

    minor_kept = parse_formula(
        "[pi_1(x1@E)]@1 (P1 -> P2) -> ([c2@1]@1 P1 -> [pi_1(x1@E) * c2@1]@1 P2)", h)
    _translated_ok(_single(AxiomSchema.APP, minor_kept), h=h)

    both_erased = parse_formula(
        "[x1@C]@C (P1 -> P2) -> ([x2@C]@C P1 -> [x1@C * x2@C]@C P2)", h)
    res = _translated_ok(_single(AxiomSchema.APP, both_erased), h=h)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.TAUT)


def test_translate_sum_and_unary_schemata():
    h = 2
    kept = parse_formula("[c1@1]@1 P1 -> [c1@1 + c2@1]@1 P1", h)
    res = _translated_ok(_single(AxiomSchema.SUML, kept), h=h)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.SUML)

    # the sum picks up a group subterm, the premise stays clean
    premise_kept = parse_formula("[c1@1]@1 P1 -> [pi_1(x1@E) + c1@1]@1 P1", h)
    res = _translated_ok(_single(AxiomSchema.SUMR, premise_kept), h=h)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.REFL)

    erased = parse_formula("[x1@C]@C P1 -> [x1@C + x2@C]@C P1", h)
    res = _translated_ok(_single(AxiomSchema.SUML, erased), h=h)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.TAUT)

    refl_kept = parse_formula("[c1@1]@1 P1 -> P1", h)
    res = _translated_ok(_single(AxiomSchema.REFL, refl_kept), h=h)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.REFL)

    insp = parse_formula("[c1@1]@1 P1 -> [!1(c1@1)]@1 [c1@1]@1 P1", h)
    res = _translated_ok(_single(AxiomSchema.INSP, insp), h=h)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.INSP)


def test_translate_group_schemata_become_tautologies():
    h = 2
    proj = parse_formula("[x1@E]@E P1 -> [pi_2(x1@E)]@2 P1", h)
    res = _translated_ok(_single(AxiomSchema.PROJ, proj), h=h)
    assert res.derivation.steps == (Step(Imp(Prop(1), Prop(1)), Axiom(AxiomSchema.TAUT)),)

    tupling = parse_formula("[c1@1]@1 P1 & [c2@2]@2 P1 -> [<c1@1, c2@2>]@E P1", h)
    _translated_ok(_single(AxiomSchema.TUPLING, tupling), h=h)

    head = parse_formula("[x1@C]@C P1 -> [head(x1@C)]@E P1", h)
    _translated_ok(_single(AxiomSchema.COCLOSHEAD, head), h=h)

    tail = parse_formula("[x1@C]@C P1 -> [tail(x1@C)]@E [x1@C]@C P1", h)
    _translated_ok(_single(AxiomSchema.COCLOSTAIL, tail), h=h)

    ind = parse_formula(
        "[x1@E]@E P1 & [x2@C]@C (P1 -> [x1@E]@E P1) -> [ind(x2@C, x1@E)]@C P1", h)
    _translated_ok(_single(AxiomSchema.INDUCTION, ind), h=h)


def test_translate_tupling_with_kept_conjunct():
    # one conjunct keeps its box, so the image is no longer a tautology
    h = 2
    inst = parse_formula(
        "[c1@1]@1 [c9@1]@1 P1 & [c2@2]@2 [c9@1]@1 P1 -> [<c1@1, c2@2>]@E [c9@1]@1 P1", h)
    res = _translated_ok(_single(AxiomSchema.TUPLING, inst), h=h)
    assert any(s.rule == Axiom(AxiomSchema.REFL) for s in res.derivation.steps)


def test_translate_hypotheses_and_mp():
    h = 2
    boxed = parse_formula("[x1@C]@C P1", h)
    plain = Imp(boxed, Prop(2))
    d = Derivation((boxed, plain), (
        Step(boxed, Hyp(1)),
        Step(plain, Hyp(2)),
        Step(Prop(2), MP(2, 1))))
    res = _translated_ok(d, h=h)
    assert res.derivation.hypotheses == (Prop(1), Imp(Prop(1), Prop(2)))
    assert res.derivation.steps[-1].formula == Prop(2)


def test_translate_agent_axnec_is_kept():
    body = parse_formula("[c2@1]@1 P1 -> P1", 2)
    c = Const(1, agent(1))
    cs = ConstantSpecification.extensional([(1, agent(1), body)])
    d = Derivation((), (Step(Just(c, agent(1), body), AxNec(c)),))
    res = _translated_ok(d, cs, h=2)
    assert res.derivation.steps[-1].rule == AxNec(c)
    assert (1, agent(1), body) in res.cs.members
    assert res.flagged == ()


def test_translate_flags_members_leaving_the_fragment():
    members = [
        (1, agent(1), parse_formula("[c2@1]@1 P1 -> P1", 2)),
        (2, agent(2), parse_formula(
            "[pi_2(x1@E)]@2 (P1 -> P2) -> ([c1@2]@2 P1 -> [pi_2(x1@E) * c1@2]@2 P2)", 2)),
    ]
    cs = ConstantSpecification.extensional(members)
    d = Derivation((), (Step(Just(Const(1, agent(1)), agent(1), members[0][2]),
                             AxNec(Const(1, agent(1)))),))
    res = translate_derivation_x(d, cs)
    assert any(idx == 2 for idx, _, _ in res.flagged)
    assert all(idx != 1 for idx, _, _ in res.flagged)
    # C-sorted members never survive the projection
    assert all(sort.is_agent for _, sort, _ in res.cs.members)


def test_translate_common_axnec_expands_body():
    body = parse_formula("[c1@1]@1 P1 -> [c1@1 + c2@1]@1 P1", 2)
    c = Const(1, C)
    d = Derivation((), (Step(Just(c, C, body), AxNec(c)),))
    res = _translated_ok(d, h=2)
    # the boxed step is replaced by a fragment derivation of the body's image,
    # built from the schema that comes first in declaration order
    assert res.derivation.steps[-1].formula == body
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.SUML)


def test_translate_common_axnec_prefers_first_schema():
    # t + t matches both sum schemata; the expansion must pick the earlier one
    body = parse_formula("[c1@1]@1 P1 -> [c1@1 + c1@1]@1 P1", 2)
    assert match_axiom(body) >= {AxiomSchema.SUML, AxiomSchema.SUMR}
    d = Derivation((), (Step(Just(Const(1, C), C, body), AxNec(Const(1, C))),))
    res = _translated_ok(d, h=2)
    assert res.derivation.steps[-1].rule == Axiom(AxiomSchema.SUML)


def test_translate_rejects_non_axiom_common_body():
    body = Imp(Prop(1), Prop(2))  # not an axiom instance
    cs = ConstantSpecification.extensional([(1, C, body)], validate=False)
    d = Derivation((), (Step(Just(Const(1, C), C, body), AxNec(Const(1, C))),))
    assert check_derivation(d, cs).ok
    with pytest.raises(InvalidInput):
        translate_derivation_x(d, cs)


def test_translate_random_axiom_instances():
    rng = random.Random(13)
    for _ in range(120):
        h = rng.choice((1, 2, 3))
        schema, inst = random_axiom(rng, h)
        _translated_ok(_single(schema, inst), h=h)


def test_translate_random_derivations():
    rng = random.Random(17)
    for _ in range(60):
        h = rng.choice((1, 2, 3))
        d = random_derivation(rng, h)
        assert check_derivation(d, TC, h=h).ok
        _translated_ok(d, h=h)


# ---------------------------------------------------------------------------
# Kripke models


def test_kripke_validation():
    good = random_kripke_model(2, 4, seed=1)
    assert validate_kripke_model(good).ok
    bad = KripkeModel(1, {0, 1}, {1: {(0, 0), (0, 1)}}, {})
    problems = validate_kripke_model(bad).problems
    assert any("missing reflexive pair (1,1)" in p for p in problems)


def test_kripke_validate_transitivity():
    m = KripkeModel(1, {0, 1, 2}, {1: {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}}, {})
    assert any("missing transitive pair (0,2)" in p
               for p in validate_kripke_model(m).problems)


def test_kripke_common_closure_computed_once(monkeypatch):
    calls = []

    def counting(graph):
        calls.append(1)
        return reach_by_component(graph)

    m = random_kripke_model(2, 32, density=0.05, seed=4)
    monkeypatch.setattr(semantics, "reach_by_component", counting)
    queries = [parse_modal_formula(text, 2)
               for text in ("#C P1", "#C (P1 | P2)", "#1 #C P3", "#C #C P4 -> #E P4")]
    for a in queries:
        for w in sorted(m.worlds):
            kripke_satisfies(m, w, a)
    assert len(calls) == 1


def test_kripke_reads_evidence_boxes_as_full_evidence():
    rng = random.Random(17)
    for k in range(40):
        h = rng.randint(1, 3)
        frame = random_kripke_model(h, rng.randint(1, 4), seed=k)
        full = semantics.AFModel(h, frame.worlds, frame.relations,
                                 frame.valuation, mode="full")
        a = random_formula(rng, h, rng.randint(0, 4))
        for w in sorted(frame.worlds):
            value = kripke_satisfies(frame, w, a)
            assert value == kripke_satisfies(frame, w, forgetful(a))
            assert value == semantics.satisfies(full, w, a)


def test_kripke_boxes():
    # two agents whose relations chain: 0 -1-> 1 -2-> 2
    worlds = {0, 1, 2}
    refl = {(w, w) for w in worlds}
    m = KripkeModel(2, worlds,
                    {1: refl | {(0, 1)}, 2: refl | {(1, 2)}},
                    {1: {0, 1}})
    p = Prop(1)
    assert kripke_satisfies(m, 0, Box(agent(1), p))      # sees worlds 0,1
    assert not kripke_satisfies(m, 1, Box(agent(2), p))  # sees world 2
    assert kripke_satisfies(m, 0, Box(E, p))             # one-step union: 0,1
    assert not kripke_satisfies(m, 0, Box(C, p))         # closure reaches 2
    with pytest.raises(InvalidInput):
        kripke_satisfies(m, 0, Box(agent(3), p))
    with pytest.raises(UnknownWorld):
        kripke_satisfies(m, 9, p)


def test_attack_kripke_refutation():
    m = attack_kripke_model()
    assert validate_kripke_model(m).ok
    target = parse_modal_formula("#2 del & #1 #2 del -> #C del", 2)
    assert kripke_satisfies(m, 0, parse_modal_formula("#2 del & #1 #2 del", 2))
    assert not kripke_satisfies(m, 0, parse_modal_formula("#C del", 2))
    assert not kripke_satisfies(m, 0, target)
    # making delivery true everywhere removes the refutation
    toggled = KripkeModel(m.h, m.worlds, m.relations, {"del": m.worlds})
    assert kripke_satisfies(toggled, 0, target)


def test_attack_kripke_matches_evidence_frame():
    k = attack_kripke_model()
    a = attack_four_world_model()
    assert k.worlds == a.worlds
    assert k.relations == a.relations
    assert k.valuation == a.valuation


def test_kripke_file_round_trip_and_rejections():
    m = attack_kripke_model()
    text = format_kripke_model(m)
    back, warns = parse_kripke_file(text)
    assert warns == () and format_kripke_model(back) == text
    with pytest.raises(InvalidInput):
        parse_kripke_file(text + "evidence: (w0, c1@1, P1)\n")
    lax, warns = parse_kripke_file(text + "mode: base\ncs: totalC\n")
    assert len(warns) == 2 and format_kripke_model(lax) == text


def test_random_kripke_model_deterministic():
    a = format_kripke_model(random_kripke_model(2, 4, seed=5))
    b = format_kripke_model(random_kripke_model(2, 4, seed=5))
    c = format_kripke_model(random_kripke_model(2, 4, seed=6))
    assert a == b and a != c


# ---------------------------------------------------------------------------
# probing


def test_probe_refutes_corrupted_control():
    rep = probe_modal_formula(parse_modal_formula("#1 P1 -> #C P1", 2),
                              h=2, trials=100, seed=5)
    assert rep.refuted
    m, w = rep.counterexample
    assert not kripke_satisfies(m, w, rep.formula)


def test_probe_leaves_theorems_alone():
    rng = random.Random(43)
    for k in range(5):
        d = random_theorem(rng, 2)
        rep = forgetful_soundness_probe(d, 2, trials=40, seed=k)
        assert not rep.refuted
        assert rep.counterexample is None


def test_probe_requires_closed_derivation():
    hyp = Prop(1)
    d = Derivation((hyp,), (Step(hyp, Hyp(1)),))
    with pytest.raises(InvalidInput):
        forgetful_soundness_probe(d, 1)
