"""Finite evidence models: frame closures, the nine saturation rules,
satisfaction, the scenario fixtures, and model files."""

import random

import pytest

from jck import semantics
from jck.acceptance import naive_saturate
from jck.deduction import ConstantSpecification
from jck.errors import InvalidInput, ParseError, UnknownWorld
from jck.gen import random_formula
from jck.semantics import (
    AFModel, EvidenceFact, SaturationUniverse, attack_four_world_model,
    attack_singleton_model, build_universe, evidence_holds, format_model, holds,
    parse_cs_table, parse_model_file, random_model, reach_C,
    reflexive_transitive_closure, satisfies, saturate, transitive_closure,
    valid_in_model, validate_model,
)
from jck.syntax import (
    C, E, App, Bang, Box, Const, Formula, Head, Imp, Ind, Just, Neg, Proj, Prop,
    Sum, Tail, Term, Tuple, Var, agent, formula_terms, subformulas, subterms,
)

DEL = Prop("del")
M1 = Const("m1", agent(2))
M2 = Const("m2", agent(1))
EMPTY_CS = ConstantSpecification.extensional(())


def universe_of(*items) -> SaturationUniverse:
    terms: set[Term] = set()
    formulas: set[Formula] = set()
    for x in items:
        if isinstance(x, Term):
            terms.update(subterms(x))
        else:
            formulas.update(subformulas(x))
            for t in formula_terms(x):
                terms.update(subterms(t))
    return SaturationUniverse(frozenset(terms), frozenset(formulas))


def tiny(h=2, worlds=(0, 1), rels=None, base=(), cs=EMPTY_CS, mode="base",
         valuation=None):
    worlds = set(worlds)
    rels = rels or {}
    relations = {i: reflexive_transitive_closure(rels.get(i, ()), worlds)
                 for i in range(1, h + 1)}
    return AFModel(h, worlds, relations, valuation or {}, base, cs, mode)


# ---------------------------------------------------------------------------
# frame closures


def test_transitive_closure_paths_of_length_one_or_more():
    tc = transitive_closure({(0, 1), (1, 2)})
    assert tc == frozenset({(0, 1), (1, 2), (0, 2)})
    assert (0, 0) not in tc  # no reflexive pairs unless there is a cycle
    assert (1, 1) in transitive_closure({(0, 1), (1, 0)})


def test_reflexive_transitive_closure_covers_isolated_worlds():
    rtc = reflexive_transitive_closure({(0, 1)}, {0, 1, 2})
    assert rtc == frozenset({(0, 0), (1, 1), (2, 2), (0, 1)})


def fixed_point_closure(pairs) -> frozenset:
    """Oracle: iterate X := X | X;R from X = R until nothing new appears."""
    pairs = set(pairs)
    closure = set(pairs)
    while True:
        fresh = {(w, u) for w, v in closure for v2, u in pairs if v2 == v} - closure
        if not fresh:
            return frozenset(closure)
        closure |= fresh


@pytest.mark.parametrize("pairs", [
    set(),
    {(0, 0)},
    {(0, 0), (1, 1), (2, 2)},
    {(0, 1), (1, 2), (2, 3), (3, 0)},
    {(0, 1), (1, 0), (5, 6), (6, 7), (9, 9)},
    {(0, 1), (1, 1), (1, 2), (2, 1), (3, 3)},
], ids=["empty", "self_loop", "self_loops", "cycle", "disconnected", "mixed"])
def test_transitive_closure_edge_cases(pairs):
    assert transitive_closure(pairs) == fixed_point_closure(pairs)


def test_transitive_closure_matches_fixed_point_oracle():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 40)
        density = rng.uniform(0.0, 3.0 / n)
        pairs = {(w, v) for w in range(n) for v in range(n) if rng.random() < density}
        assert transitive_closure(pairs) == fixed_point_closure(pairs)
        assert transitive_closure(iter(sorted(pairs))) == fixed_point_closure(pairs)


def test_reach_c_chains_across_agents():
    m = tiny(h=2, worlds=(0, 1, 2), rels={1: {(0, 1)}, 2: {(1, 2)}})
    rc = reach_C(m)
    assert (0, 2) in rc


# ---------------------------------------------------------------------------
# validation


def test_validate_model_reports_each_defect():
    m = AFModel(1, {0, 1}, {1: {(0, 0), (0, 1)}}, {1: {0, 5}},
                (EvidenceFact(9, Var(1, E), Prop(1)),))
    problems = validate_model(m).problems
    assert any("missing reflexive pair (1,1)" in p for p in problems)
    assert any("unknown world 5" in p for p in problems)
    assert any("unknown world 9" in p for p in problems)


def test_validate_model_checks_agent_bounds_in_facts():
    m = tiny(h=1, base=(EvidenceFact(0, Var(1, agent(1)), Just(Var(1, agent(3)), agent(3), Prop(1))),))
    rep = validate_model(m)
    assert not rep.ok and any("agent" in p for p in rep.problems)


def test_validate_transitivity():
    m = AFModel(1, {0, 1, 2}, {1: {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}}, {})
    assert any("missing transitive pair (0,2)" in p
               for p in validate_model(m).problems)


def pairwise_frame_problems(m) -> tuple[str, ...]:
    """Oracle: the frame checks written as a pair-by-pair join."""
    problems = []
    for i in range(1, m.h + 1):
        rel = m.relations[i]
        for w, v in rel:
            if w not in m.worlds or v not in m.worlds:
                problems.append(f"rel {i}: pair ({w},{v}) uses an unknown world")
        for w in m.worlds:
            if (w, w) not in rel:
                problems.append(f"rel {i}: missing reflexive pair ({w},{w})")
        for w, v in rel:
            for v2, u in rel:
                if v2 == v and (w, u) not in rel:
                    problems.append(f"rel {i}: missing transitive pair ({w},{u})")
    for p, ws in m.valuation.items():
        for w in ws:
            if w not in m.worlds:
                problems.append(f"val {p}: unknown world {w}")
    return tuple(dict.fromkeys(problems))


def test_validate_problems_match_pairwise_oracle_in_order():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 12)
        worlds = set(range(n))
        relations = {i: {(w, v) for w in range(n + 1) for v in range(n + 1)
                         if rng.random() < 0.2}
                     for i in (1, 2)}
        valuation = {1: {w for w in range(n + 2) if rng.random() < 0.3}}
        m = AFModel(2, worlds, relations, valuation)
        assert validate_model(m).problems == pairwise_frame_problems(m)


# ---------------------------------------------------------------------------
# saturation, one rule at a time


def test_rule_monotone_along_agent_relation():
    fact = EvidenceFact(0, Const(1, agent(1)), Prop(1))
    m = tiny(rels={1: {(0, 1)}}, base=(fact,))
    facts = saturate(m, universe_of(Const(1, agent(1)), Prop(1)))
    assert (1, Const(1, agent(1)), Prop(1)) in facts
    m2 = tiny(rels={}, base=(fact,))
    facts2 = saturate(m2, universe_of(Const(1, agent(1)), Prop(1)))
    assert (1, Const(1, agent(1)), Prop(1)) not in facts2


def test_rule_monotone_skips_mutual_sort():
    # E-sorted evidence stays put even when every agent can see the next world
    fact = EvidenceFact(0, Var(1, E), Prop(1))
    m = tiny(rels={1: {(0, 1)}, 2: {(0, 1)}}, base=(fact,))
    facts = saturate(m, universe_of(Var(1, E), Prop(1)))
    assert (0, Var(1, E), Prop(1)) in facts
    assert (1, Var(1, E), Prop(1)) not in facts


def test_rule_monotone_common_reaches_multihop():
    fact = EvidenceFact(0, Var(1, C), Prop(1))
    m = tiny(worlds=(0, 1, 2), rels={1: {(0, 1)}, 2: {(1, 2)}}, base=(fact,))
    facts = saturate(m, universe_of(Var(1, C), Prop(1)))
    # (0,2) is only in the transitive closure of the union
    assert (2, Var(1, C), Prop(1)) in facts


def test_rule_sum_either_side():
    t, s = Var(1, agent(1)), Var(2, agent(1))
    m = tiny(base=(EvidenceFact(0, t, Prop(1)),))
    u = universe_of(Sum(t, s, agent(1)), Sum(s, t, agent(1)), Prop(1))
    facts = saturate(m, u)
    assert (0, Sum(t, s, agent(1)), Prop(1)) in facts
    assert (0, Sum(s, t, agent(1)), Prop(1)) in facts
    assert (0, s, Prop(1)) not in facts  # no rule runs backwards


def test_rule_application():
    t, s = Var(1, C), Var(2, C)
    imp = Imp(Prop(1), Prop(2))
    m = tiny(base=(EvidenceFact(0, t, imp), EvidenceFact(0, s, Prop(1))))
    u = universe_of(App(t, s, C), imp)
    assert (0, App(t, s, C), Prop(2)) in saturate(m, u)
    m2 = tiny(base=(EvidenceFact(0, t, imp),))  # minor premise missing
    assert (0, App(t, s, C), Prop(2)) not in saturate(m2, u)


def test_rule_inspection_box():
    t = Var(1, agent(2))
    bang = Bang(t, 2)
    boxed = Just(t, agent(2), Prop(1))
    m = tiny(base=(EvidenceFact(0, t, Prop(1)),))
    u = universe_of(bang, boxed)
    assert (0, bang, boxed) in saturate(m, u)
    # without the boxed formula in the universe the rule cannot fire
    u2 = universe_of(bang, Prop(1))
    assert (0, bang, boxed) not in saturate(m, u2)


def test_rule_tupling_needs_every_component():
    x1, x2 = Var(1, agent(1)), Var(2, agent(2))
    pair = Tuple((x1, x2))
    both = tiny(base=(EvidenceFact(0, x1, Prop(1)), EvidenceFact(0, x2, Prop(1))))
    u = universe_of(pair, Prop(1))
    assert (0, pair, Prop(1)) in saturate(both, u)
    one = tiny(base=(EvidenceFact(0, x1, Prop(1)),))
    assert (0, pair, Prop(1)) not in saturate(one, u)


def test_rule_projection():
    t = Var(1, E)
    m = tiny(base=(EvidenceFact(0, t, Prop(1)),))
    u = universe_of(Proj(1, t), Proj(2, t), Prop(1))
    facts = saturate(m, u)
    assert (0, Proj(1, t), Prop(1)) in facts
    assert (0, Proj(2, t), Prop(1)) in facts


def test_rule_head_projection():
    t = Var(1, C)
    m = tiny(base=(EvidenceFact(0, t, Prop(1)),))
    assert (0, Head(t), Prop(1)) in saturate(m, universe_of(Head(t), Prop(1)))


def test_rule_tail_boxes():
    t = Var(1, C)
    boxed = Just(t, C, Prop(1))
    m = tiny(base=(EvidenceFact(0, t, Prop(1)),))
    u = universe_of(Tail(t), boxed)
    assert (0, Tail(t), boxed) in saturate(m, u)
    u2 = universe_of(Tail(t), Prop(1))  # boxed form absent from the universe
    assert (0, Tail(t), boxed) not in saturate(m, u2)


def test_rule_induction():
    s, c = Var(1, E), Var(2, C)
    step = Imp(Prop(1), Just(s, E, Prop(1)))
    m = tiny(base=(EvidenceFact(0, s, Prop(1)), EvidenceFact(0, c, step)))
    u = universe_of(Ind(c, s), step)
    assert (0, Ind(c, s), Prop(1)) in saturate(m, u)
    m2 = tiny(base=(EvidenceFact(0, c, step),))  # base case missing
    assert (0, Ind(c, s), Prop(1)) not in saturate(m2, u)


def test_saturation_seeds_total_specification():
    ax = Imp(Just(M1, agent(2), DEL), DEL)
    m = tiny(cs=ConstantSpecification.total_c())
    u = universe_of(Const(1, C), Const(2, agent(1)), ax)
    facts = saturate(m, u)
    assert (0, Const(1, C), ax) in facts and (1, Const(1, C), ax) in facts
    assert (0, Const(2, agent(1)), ax) not in facts  # C constants only
    assert (0, Const(1, C), DEL) not in facts  # axioms only


def test_saturation_seeds_extensional_specification():
    ax = Imp(Just(M1, agent(2), DEL), DEL)
    cs = ConstantSpecification.extensional([(3, agent(1), ax)])
    m = tiny(cs=cs)
    u = universe_of(Const(3, agent(1)), ax)
    assert (0, Const(3, agent(1)), ax) in saturate(m, u)


# ---------------------------------------------------------------------------
# universes


def test_build_universe_collects_query_material():
    q = Just(App(Var(1, C), Var(2, C), C), C, Imp(Prop(1), Prop(2)))
    m = tiny()
    u = build_universe(m, q, depth_budget=0)
    assert {Var(1, C), Var(2, C), App(Var(1, C), Var(2, C), C)} <= u.terms
    assert {Prop(1), Prop(2), Imp(Prop(1), Prop(2)), q} <= u.formulas


def test_build_universe_pulls_specification_instances():
    ax = Imp(Just(Var(1, agent(1)), agent(1), Prop(7)), Prop(7))
    cs = ConstantSpecification.extensional([(1, C, ax)])
    m = tiny(cs=cs)
    u = build_universe(m, Just(Const(1, C), C, Prop(1)), depth_budget=0)
    assert ax in u.formulas and Var(1, agent(1)) in u.terms
    # constants the universe never mentions contribute nothing
    u2 = build_universe(m, Prop(1), depth_budget=0)
    assert ax not in u2.formulas


def test_build_universe_boxed_forms_from_tails():
    t = Var(1, C)
    q = Just(Tail(t), E, Prop(1))
    m = tiny()
    u1 = build_universe(m, q, depth_budget=1)
    assert Just(t, C, Prop(1)) in u1.formulas
    u2 = build_universe(m, q, depth_budget=2)
    assert Just(t, C, Just(t, C, Prop(1))) in u2.formulas
    u0 = build_universe(m, q, depth_budget=0)
    assert Just(t, C, Prop(1)) not in u0.formulas
    assert u0.formulas <= u1.formulas <= u2.formulas


def test_budget_grows_facts_monotonically():
    m = attack_singleton_model()
    q = Just(Tail(Const(1, C)), E, DEL)
    small = saturate(m, build_universe(m, q, 1))
    large = saturate(m, build_universe(m, q, 3))
    assert small <= large


def test_saturation_cache_is_bounded():
    # more distinct queries than the cache holds; under totalC each constant
    # evidences the axiom del -> del, and none evidences del
    bound = semantics._SATURATION_CACHE_SIZE
    queries = [(Const(k, C), Imp(DEL, DEL) if k % 2 else DEL) for k in range(1, bound + 101)]
    m = attack_singleton_model()
    answers = [evidence_holds(m, 0, c, a) for c, a in queries]
    assert len(m._saturation_cache) <= bound
    assert answers == [k % 2 == 1 for k in range(1, bound + 101)]
    fresh = attack_singleton_model()
    for c, a in queries[:50] + queries[-50:]:  # the first were evicted from m
        assert evidence_holds(m, 0, c, a) == evidence_holds(fresh, 0, c, a)


# ---------------------------------------------------------------------------
# oracle agreement (the big sweep runs in the acceptance suite)


def test_saturation_matches_naive_oracle_sample():
    rng = random.Random(5)
    ran = 0
    for _ in range(120):
        if ran >= 30:
            break
        h = rng.choice((1, 2, 3))
        m = random_model(h, rng.randint(1, 4), density=0.3,
                         n_base=rng.randint(1, 5), seed=rng.randrange(10 ** 6))
        q = random_formula(rng, h, rng.randint(1, 3))
        try:
            u = build_universe(m, q, 2, max_size=4000)
        except Exception:
            continue
        if len(u.formulas) > 40:
            continue
        assert saturate(m, u) == naive_saturate(m, u)
        ran += 1
    assert ran == 30


# ---------------------------------------------------------------------------
# satisfaction


def test_satisfies_propositional_cases():
    m = tiny(valuation={1: {0}}, worlds=(0, 1))
    assert satisfies(m, 0, Prop(1)) and not satisfies(m, 1, Prop(1))
    assert satisfies(m, 1, Neg(Prop(1)))
    assert satisfies(m, 0, Imp(Prop(2), Prop(1)))
    assert valid_in_model(m, Imp(Prop(1), Prop(1)))
    assert not valid_in_model(m, Prop(1))


def test_satisfies_box_needs_evidence_and_successor_truth():
    t = Var(1, agent(1))
    fact = EvidenceFact(0, t, Prop(1))
    # evidence present, successor world 1 falsifies the body
    m = tiny(h=1, rels={1: {(0, 1)}}, base=(fact,), valuation={1: {0}})
    assert not satisfies(m, 0, Just(t, agent(1), Prop(1)))
    # body true everywhere reachable but no evidence
    m2 = tiny(h=1, rels={1: {(0, 1)}}, valuation={1: {0, 1}})
    assert not satisfies(m2, 0, Just(t, agent(1), Prop(1)))
    # both
    m3 = tiny(h=1, rels={1: {(0, 1)}}, base=(fact,), valuation={1: {0, 1}})
    assert satisfies(m3, 0, Just(t, agent(1), Prop(1)))


def test_base_mode_evaluates_a_modal_box_relationally():
    m = attack_singleton_model()
    for body in (DEL, Neg(DEL)):
        f = Box(agent(1), body)
        assert satisfies(m, 0, f) == holds(m, 0, f, facts=None)
    assert satisfies(m, 0, Box(agent(1), DEL))


def test_full_mode_reduces_to_relational_truth():
    frame = dict(h=1, worlds=(0, 1), rels={1: {(0, 1)}}, valuation={1: {0, 1}})
    assert satisfies(tiny(mode="full", **frame), 0, Just(Var(1, agent(1)), agent(1), Prop(1)))
    assert not satisfies(tiny(mode="base", **frame), 0, Just(Var(1, agent(1)), agent(1), Prop(1)))


def test_agent_index_above_h_raises_invalid_input():
    m = random_model(2, 3, mode="full")
    with pytest.raises(InvalidInput, match="agent index 3 outside 1..2"):
        satisfies(m, 0, Just(Var(1, agent(3)), agent(3), Prop(1)))


def test_unknown_world_raises():
    m = tiny()
    with pytest.raises(UnknownWorld):
        satisfies(m, 9, Prop(1))
    with pytest.raises(UnknownWorld):
        evidence_holds(m, 9, Var(1, C), Prop(1))


# ---------------------------------------------------------------------------
# the messenger scenario


def test_four_world_fixture_claims():
    m = attack_four_world_model()
    assert validate_model(m).ok and m.mode == "full"
    f1 = Just(M1, agent(2), DEL)
    f2 = Just(M2, agent(1), f1)
    assert satisfies(m, 0, f1)
    assert satisfies(m, 0, f2)
    assert not satisfies(m, 3, DEL)
    # spot checks from the enumerated families (full sweeps run elsewhere)
    for s in (M1, Sum(M1, M1, agent(2)), Bang(M1, 2),
              Proj(2, Head(Const(1, C)))):
        assert not satisfies(m, 0, Just(s, agent(2), f2))
    for t in (Const(1, C), App(Const(1, C), Const(1, C), C), Ind(Const(1, C), Head(Const(1, C)))):
        assert not satisfies(m, 0, Just(t, C, DEL))


def test_four_world_failure_is_purely_relational():
    # world 3 falsifies del and is R_2-reachable from 2; hence at world 2
    # agent 2 cannot box del, and the C-box fails already at world 0
    m = attack_four_world_model()
    assert not satisfies(m, 2, Just(Var(1, agent(2)), agent(2), DEL))
    assert (0, 3) in reach_C(m)


def test_singleton_fixture_positive_claims():
    m = attack_singleton_model()
    assert validate_model(m).ok and m.mode == "base"
    assert satisfies(m, 0, Just(M1, agent(2), DEL))
    assert satisfies(m, 0, Just(M2, agent(1), Just(M1, agent(2), DEL)))
    # derived facts
    assert evidence_holds(m, 0, Sum(M1, M1, agent(2)), DEL)
    ax = Imp(Just(M1, agent(2), DEL), DEL)
    assert evidence_holds(m, 0, Const(1, C), ax)
    assert evidence_holds(m, 0, Head(Const(1, C)), ax)
    assert evidence_holds(m, 0, Proj(1, Head(Const(1, C))), ax)


def test_singleton_fixture_negative_spot_checks():
    m = attack_singleton_model()
    for t in (Const(1, C), Ind(Const(1, C), Head(Const(1, C))),
              App(Const(1, C), Const(1, C), C)):
        assert not evidence_holds(m, 0, t, DEL, 3)


def test_singleton_each_base_fact_is_load_bearing():
    m = attack_singleton_model()
    for keep in (0, 1):
        cut = AFModel(m.h, m.worlds, m.relations, m.valuation,
                      (m.evidence_base[keep],), m.cs, m.mode)
        dropped = [f for i, f in enumerate(m.evidence_base) if i != keep][0]
        assert not satisfies(cut, 0, Just(dropped.term, dropped.term.sort,
                                          dropped.formula))


# ---------------------------------------------------------------------------
# files


def test_model_file_round_trip():
    for m in (attack_singleton_model(), attack_four_world_model(),
              random_model(2, 3, n_base=3, seed=9)):
        text = format_model(m)
        back, warns = parse_model_file(text)
        assert warns == ()
        assert format_model(back) == text


def test_model_file_closure_warning():
    text = "h: 1\nworlds: w0 w1\nrel 1: (w0,w1)\n"
    m, warns = parse_model_file(text)
    assert any("rel 1" in w for w in warns)
    assert (0, 0) in m.relations[1] and (1, 1) in m.relations[1]


def test_model_file_named_atoms_and_tuples():
    text = ("h: 2\nworlds: w0\nval del: w0\n"
            "evidence: (w0, <c1@1, c2@2>, P1 -> del)\n")
    m, _ = parse_model_file(text)
    fact = m.evidence_base[0]
    assert fact.term == Tuple((Const(1, agent(1)), Const(2, agent(2))))
    assert fact.formula == Imp(Prop(1), DEL)
    assert m.valuation["del"] == frozenset({0})


@pytest.mark.parametrize("text,exc", [
    ("worlds: w0\nh: 1\nrel 1: (w0,w0)\n", None),  # order is free except rel
    ("rel 1: (w0,w0)\nh: 1\nworlds: w0\n", ParseError),
    ("h: 1\nworlds: w0\nrel 2: (w0,w0)\n", ParseError),
    ("h: 0\nworlds: w0\n", ParseError),
    ("h: 1\nworlds: zero\n", ParseError),
    ("h: 1\nworlds: w0\nmode: maybe\n", ParseError),
    ("h: 1\nworlds: w0\nbogus: 3\n", ParseError),
    ("h: 1\n", ParseError),
    ("worlds: w0\n", ParseError),
    ("h: 1\nworlds: w0\nevidence: (w3, c1@1, P1)\n", InvalidInput),
    ("h: 1\nworlds: w0\ncs: file extras.cs\n", InvalidInput),
])
def test_model_file_errors(text, exc):
    if exc is None:
        parse_model_file(text)
    else:
        with pytest.raises(exc):
            parse_model_file(text)


def test_model_file_specification_loader():
    table = "c1@C := [x1@1]@1 P1 -> P1\n"
    text = "h: 1\nworlds: w0\ncs: file extras.cs\n"
    m, _ = parse_model_file(text, cs_loader={"extras.cs": table}.__getitem__)
    assert m.cs.kind == "extensional"
    ax = Imp(Just(Var(1, agent(1)), agent(1), Prop(1)), Prop(1))
    assert (1, C, ax) in m.cs.members


def test_cs_table_validation():
    good = "c1@C := [x1@1]@1 P1 -> P1  # reflexivity instance\n"
    cs = parse_cs_table(good, 1)
    assert cs.kind == "extensional" and len(cs.members) == 1
    bad = "c1@C := P1 -> P2\n"
    with pytest.raises(InvalidInput):
        parse_cs_table(bad, 1)
    with pytest.raises(ParseError):
        parse_cs_table("c1@C P1\n", 1)
    with pytest.raises(ParseError):
        parse_cs_table("x1@C := P1 -> P1\n", 1)


def test_enumerated_families_match_independent_count():
    # depth-indexed re-enumeration, structured differently from the library's
    from jck.gen import enumerate_terms
    from jck.syntax import Bang

    leaves = [M1, M2, Const(1, C)]
    h = 2

    def grow(depth):
        levels = [set(leaves)]
        for _ in range(depth):
            prev = set().union(*levels)
            new = set()
            for t in prev:
                s = t.sort
                if s.is_agent:
                    new.add(Bang(t, s.index))
                if s == E:
                    for i in range(1, h + 1):
                        new.add(Proj(i, t))
                if s == C:
                    new.add(Head(t))
                    new.add(Tail(t))
            for t in prev:
                for u in prev:
                    if t.sort == u.sort and t.sort != E:
                        new.add(Sum(t, u, t.sort))
                        new.add(App(t, u, t.sort))
                    if t.sort == C and u.sort == E:
                        new.add(Ind(t, u))
            per_agent = [[t for t in prev if t.sort == agent(i)]
                         for i in range(1, h + 1)]
            if all(per_agent):
                for t1 in per_agent[0]:
                    for t2 in per_agent[1]:
                        new.add(Tuple((t1, t2)))
            levels.append(new - prev)
        return set().union(*levels)

    everything = grow(3)
    fam2 = set(enumerate_terms(leaves, agent(2), 3, h))
    fam_c = set(enumerate_terms(leaves, C, 3, h))
    assert fam2 == {t for t in everything if t.sort == agent(2)}
    assert fam_c == {t for t in everything if t.sort == C}
    assert len(fam2) == 3263 and len(fam_c) == 2185


def test_random_model_is_seed_deterministic():
    a = format_model(random_model(2, 4, n_base=5, seed=77))
    b = format_model(random_model(2, 4, n_base=5, seed=77))
    c = format_model(random_model(2, 4, n_base=5, seed=78))
    assert a == b
    assert a != c
    assert validate_model(random_model(3, 5, n_base=6, seed=3)).ok
