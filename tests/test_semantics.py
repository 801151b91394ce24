"""Finite evidence models: frame closures, the nine saturation rules,
satisfaction, the scenario fixtures, and model files."""

import gc
import random

import pytest

from conftest import format_model
from jck import gen, modal, semantics, syntax
from jck.acceptance import attack_term_families, naive_saturate
from jck.deduction import ConstantSpecification
from jck.errors import InvalidInput, ParseError, ResourceError, UnknownWorld
from jck.gen import random_formula, random_term
from jck.semantics import (
    AFModel, EvidenceFact, KripkeModel, SaturationUniverse, attack_four_world_model,
    attack_singleton_model, build_universe, evidence_holds, holds,
    parse_cs_table, parse_model_file, random_kripke_model, random_model, reach_C,
    reflexive_transitive_closure, satisfies, saturate, transitive_closure,
    valid_in_model, validate_model,
)
from jck.syntax import (
    C, E, And, App, Bang, Box, Const, Formula, Head, Imp, Ind, Just, Neg, Or, Proj, Prop,
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


EDGE_CASES = [
    set(),
    {(0, 0)},
    {(0, 0), (1, 1), (2, 2)},
    {(0, 1), (1, 2), (2, 3), (3, 0)},
    {(0, 1), (1, 0), (5, 6), (6, 7), (9, 9)},
    {(0, 1), (1, 1), (1, 2), (2, 1), (3, 3)},
]
EDGE_IDS = ["empty", "self_loop", "self_loops", "cycle", "disconnected", "mixed"]


def seeded_relations(seed: int = 7, count: int = 80):
    """`count` seeded pair sets over up to 40 nodes: unclosed, mostly not
    reflexive, from empty to a few pairs per node."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 40)
        density = rng.uniform(0.0, 3.0 / n)
        yield n, {(w, v) for w in range(n) for v in range(n) if rng.random() < density}


@pytest.mark.parametrize("pairs", EDGE_CASES, ids=EDGE_IDS)
def test_transitive_closure_edge_cases(pairs):
    assert transitive_closure(pairs) == fixed_point_closure(pairs)


def test_transitive_closure_matches_fixed_point_oracle():
    for _, pairs in seeded_relations():
        assert transitive_closure(pairs) == fixed_point_closure(pairs)
        assert transitive_closure(iter(sorted(pairs))) == fixed_point_closure(pairs)


def assert_common_map_is_the_closure(m: KripkeModel) -> None:
    """`successors(C)` read as sets is the fixed-point closure of the agent
    union; every world has an entry; worlds of one strongly connected
    component share one tuple object."""
    closure = fixed_point_closure(frozenset().union(*m.relations.values()))
    succ = m.successors(C)
    assert m.worlds <= set(succ)
    assert all(isinstance(us, tuple) and len(set(us)) == len(us) for us in succ.values())
    assert {(w, u) for w, us in succ.items() for u in us} == closure
    for w, v in closure:
        if (v, w) in closure:
            assert succ[w] is succ[v]


@pytest.mark.parametrize("pairs", EDGE_CASES, ids=EDGE_IDS)
def test_common_successors_edge_cases(pairs):
    # worlds 20 and 21 have no pairs at all
    worlds = {w for pair in pairs for w in pair} | {20, 21}
    m = KripkeModel(1, worlds, {1: pairs}, {})
    assert_common_map_is_the_closure(m)
    assert m.successors(C)[20] == ()


def test_common_successors_match_fixed_point_oracle():
    rng = random.Random(11)
    for n, pairs in seeded_relations():
        # split the pairs among up to three agents; a few worlds stay
        # isolated, or a few nodes are pairs' unknown worlds
        h = rng.randint(1, 3)
        relations: dict[int, set] = {i: set() for i in range(1, h + 1)}
        for pair in pairs:
            relations[rng.randint(1, h)].add(pair)
        m = KripkeModel(h, range(max(1, n + rng.randint(-3, 3))), relations, {})
        assert_common_map_is_the_closure(m)


def test_common_successors_of_closed_frames():
    for seed in range(10):
        assert_common_map_is_the_closure(random_model(3, 12, density=0.1, seed=seed))


def test_common_successors_share_a_tuple_per_component():
    # two cycles, 0-1-2 and 3-4, and a bridge 2 -> 3 between them
    m = KripkeModel(2, range(6), {1: {(0, 1), (2, 0), (3, 4)}, 2: {(1, 2), (4, 3), (2, 3)}}, {})
    succ = m.successors(C)
    assert succ[0] is succ[1] is succ[2]
    assert succ[3] is succ[4]
    assert sorted(succ[0]) == [0, 1, 2, 3, 4] and sorted(succ[3]) == [3, 4]
    assert succ[5] == ()


def test_reach_c_chains_across_agents():
    m = tiny(h=2, worlds=(0, 1, 2), rels={1: {(0, 1)}, 2: {(1, 2)}})
    rc = reach_C(m)
    assert (0, 2) in rc


# ---------------------------------------------------------------------------
# frames as successor maps: the loader and the generator


def pair_set(succ) -> frozenset:
    return frozenset((w, v) for w, vs in succ.items() for v in vs)


SPELLINGS = ("unclosed", "closed", "duplicates", "self_loops", "loose")


def written_frames(seed: int = 23, count: int = 160):
    """Seeded frame files of 1-40 worlds and 1-3 agents with their worlds
    and the pairs each agent's line names.  Each line is written unclosed,
    closed, with duplicate pairs, with some self-loops, or in the loose
    spelling (`,,` between pairs)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 40)
        h = rng.randint(1, 3)
        worlds = set(range(n))
        lines = [f"h: {h}", "worlds: " + " ".join(f"w{w}" for w in sorted(worlds))]
        given = {}
        for i in range(1, h + 1):
            density = rng.uniform(0.0, 3.0 / n)
            edges = {(w, v) for w in range(n) for v in range(n)
                     if w != v and rng.random() < density}
            spelling = rng.choice(SPELLINGS)
            if spelling == "closed":
                edges = set(reflexive_transitive_closure(edges, worlds))
            elif spelling == "self_loops":
                edges |= {(w, w) for w in worlds if rng.random() < 0.5}
            written = [f"(w{w},w{v})" for w, v in sorted(edges)]
            if spelling == "duplicates":
                written += rng.sample(written, len(written) // 2)
                rng.shuffle(written)
            lines.append(f"rel {i}: " + (",," if spelling == "loose" else " ").join(written))
            given[i] = edges
        yield "\n".join(lines) + "\n", h, worlds, given


def test_loaded_frame_is_the_closure_of_the_written_pairs():
    for text, h, worlds, given in written_frames():
        m, warns = parse_model_file(text)
        k, kripke_warns = modal.parse_kripke_file(text)
        want_warns = []
        for i in range(1, h + 1):
            closed = reflexive_transitive_closure(given[i], worlds)
            succ = m.successors(agent(i))
            assert all(len(set(vs)) == len(vs) for vs in succ.values())
            assert pair_set(succ) == m.relations[i] == k.relations[i] == closed
            if closed != given[i]:
                want_warns.append(f"rel {i}: added {len(closed) - len(given[i])} pairs "
                                  "for reflexive-transitive closure")
        common = transitive_closure(frozenset().union(*m.relations.values()))
        assert pair_set(m.successors(C)) == pair_set(k.successors(C)) == common
        assert warns == kripke_warns == tuple(want_warns)
        assert k.worlds == m.worlds and k.valuation == m.valuation


def redrawn_frame(seed: int, h: int, n: int, density: float):
    """The relations and valuation `random_kripke_model` draws for `seed`,
    drawn again here in the same order and closed as pair sets."""
    rng = random.Random(seed)
    worlds = set(range(n))
    relations = {i: reflexive_transitive_closure(
        {(w, v) for w in worlds for v in worlds if w != v and rng.random() < density}, worlds)
        for i in range(1, h + 1)}
    valuation = {k: frozenset(w for w in worlds if rng.random() < 0.5) for k in range(1, 5)}
    return relations, valuation


def test_random_frames_close_the_same_draws():
    for seed in range(200):
        h, n, density = 1 + seed % 3, 1 + seed % 9, (0.1, 0.3, 0.6)[seed % 4 % 3]
        relations, valuation = redrawn_frame(seed, h, n, density)
        k = modal.random_kripke_model(h, n, density, seed)
        m = random_model(h, n, density, seed=seed)
        assert k.relations == m.relations == relations
        assert k.valuation == m.valuation == valuation


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


def reference_universe(m: AFModel, query: Formula, depth_budget: int) -> SaturationUniverse:
    """`build_universe` from its docstring: the subterm/subformula closure of
    the query and the fact base, then one pass of specification instances
    for the constants present, then `depth_budget` rounds of tail boxes."""
    terms: set[Term] = set()
    formulas: set[Formula] = set()

    def close(a: Formula) -> None:
        formulas.update(subformulas(a))
        for t in formula_terms(a):
            terms.update(subterms(t))

    close(query)
    for fact in m.evidence_base:
        terms.update(subterms(fact.term))
        close(fact.formula)
    for c, a in m.cs.pairs():
        if c in terms:
            close(a)
    tails = [t for t in terms if isinstance(t, Tail)]
    for _ in range(depth_budget):
        formulas |= {Just(t.t, C, a) for t in tails for a in formulas}
    return SaturationUniverse(frozenset(terms), frozenset(formulas))


def test_build_universe_equals_its_definition_on_random_models():
    rng = random.Random(5)
    compared = 0
    for seed in range(60):
        h = seed % 3 + 1
        m = random_model(h, rng.randint(1, 3), n_base=rng.randint(0, 5), seed=seed)
        # several queries per model, so most start from its cached base closure
        for _ in range(4):
            q = random_formula(rng, h, rng.randint(0, 3))
            budget = rng.randint(0, 2)
            want = reference_universe(m, q, budget)
            if len(want.terms) + len(want.formulas) > 5000:
                continue
            assert build_universe(m, q, budget, max_size=5000) == want
            compared += 1
    assert compared >= 200


def test_attack_candidate_universes_equal_their_definition():
    # the singleton sweep's queries, with every budget it could be run at;
    # where a tail makes the rounds grow the universe, the size cap fires
    # exactly above the final size
    m = attack_singleton_model()
    family = attack_term_families(3)[1]
    assert len(family) == 2185
    tailed = 0
    for t in family:
        q = Just(t, C, DEL)
        for budget in (1, 2, 3):
            u = build_universe(m, q, budget)
            assert u == reference_universe(m, q, budget), (t, budget)
            if any(isinstance(x, Tail) for x in u.terms):
                size = len(u.terms) + len(u.formulas)
                with pytest.raises(ResourceError):
                    build_universe(m, q, budget, max_size=size - 1)
                assert build_universe(m, q, budget, max_size=size) == u
                tailed += 1
    assert tailed == 3 * 459


def test_build_universe_reads_each_models_own_base():
    q = Just(Var(1, C), C, Prop(1))
    models = [tiny(base=(EvidenceFact(0, Const(1, agent(1)), Prop(2)),)),
              tiny(base=(EvidenceFact(0, Tail(Var(2, C)), Prop(3)),))]
    universes = [build_universe(m, q, 1) for m in models]
    assert universes[0] != universes[1]
    for m, u in zip(models, universes):
        assert u == reference_universe(m, q, 1)
        assert build_universe(m, q, 1) == u  # again, from the cached closure
    assert Prop(2) in universes[0].formulas and Prop(3) not in universes[0].formulas
    assert Just(Var(2, C), C, q) in universes[1].formulas


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


def test_saturation_matches_naive_oracle_with_common_facts():
    """Common facts spread once along the closed C map; the answer is the
    oracle's, and the universe cap fires exactly above its size."""
    rng = random.Random(37)
    for k in range(300):
        h = rng.randint(1, 3)
        n = rng.randint(1, 7)
        frame = random_model(h, n, density=rng.uniform(0.1, 0.5), n_base=rng.randint(0, 3),
                             seed=k)
        common = [EvidenceFact(rng.randrange(n), random_term(rng, C, h, rng.randint(0, 1)),
                               random_formula(rng, h, rng.randint(0, 2)))
                  for _ in range(rng.randint(1, 3))]
        m = AFModel(h, frame.worlds, {i: frame.successors(agent(i)) for i in range(1, h + 1)},
                    frame.valuation, frame.evidence_base + tuple(common))
        q = random_formula(rng, h, rng.randint(0, 2))
        u = build_universe(m, q, 1)
        size = len(u.terms) + len(u.formulas)
        with pytest.raises(ResourceError):
            build_universe(m, q, 1, max_size=size - 1)
        assert build_universe(m, q, 1, max_size=size) == u
        assert saturate(m, u) == naive_saturate(m, u)


def test_attack_sweep_saturations_match_naive_oracle():
    # every universe the singleton section of the attack scenario saturates
    m = attack_singleton_model()
    family = attack_term_families(3)[1]
    assert len(family) == 2185
    for t in family:
        u = build_universe(m, Just(t, C, DEL), 3)
        assert saturate(m, u) == naive_saturate(m, u), t


# Binary rules whose premises each reach world 1 by one step from another
# world: the fact seeded last is popped first, so each order of the base
# makes a different premise arrive last at world 1, where alone both hold.
# Each case is (universe items, base as (world, term, formula), conclusion).
_T, _S, _X = Var(1, C), Var(2, C), Var(3, C)
_IMP = Imp(Prop(1), Prop(2))
_STEP = Imp(Prop(1), Just(Head(_X), E, Prop(1)))
ARRIVAL_CASES = {
    "app": ((App(_T, _S, C), _IMP), [(0, _T, _IMP), (2, _S, Prop(1))],
            (App(_T, _S, C), Prop(2))),
    "app_of_one_term": ((App(_T, _T, C), _IMP), [(0, _T, _IMP), (2, _T, Prop(1))],
                        (App(_T, _T, C), Prop(2))),
    # P1 -> P2 arrives last in order, and must fire as both premises at once
    "app_of_one_term_both_roles": ((App(_T, _T, C), Imp(_IMP, Prop(3))),
                                   [(0, _T, _IMP), (2, _T, Prop(1)), (2, _T, Imp(_IMP, Prop(3)))],
                                   (App(_T, _T, C), Prop(3))),
    "sum_of_one_term": ((Sum(_T, _T, C), Prop(1)), [(0, _T, Prop(1))],
                        (Sum(_T, _T, C), Prop(1))),
    # the E premise of `ind` arrives by the head rule after its C fact does
    "ind": ((Ind(_S, Head(_X)), _STEP), [(0, _S, _STEP), (2, _X, Prop(1))],
            (Ind(_S, Head(_X)), Prop(1))),
}


@pytest.mark.parametrize("reverse", [False, True], ids=["in_order", "reversed"])
@pytest.mark.parametrize("case", ARRIVAL_CASES)
def test_binary_rules_fire_whichever_premise_arrives_last(case, reverse):
    items, base, (u, a) = ARRIVAL_CASES[case]
    base = [EvidenceFact(w, t, f) for w, t, f in base]
    # worlds 0 and 2 each see world 1 and nothing else
    m = tiny(worlds=(0, 1, 2), rels={1: {(0, 1), (2, 1)}},
             base=tuple(reversed(base)) if reverse else tuple(base))
    universe = universe_of(*items)
    facts = saturate(m, universe)
    assert facts == naive_saturate(m, universe)
    assert (1, u, a) in facts
    if len(base) > 1:  # one premise holds at world 0, the other at world 2
        assert (0, u, a) not in facts and (2, u, a) not in facts


def test_agent_monotonicity_chains_on_a_relation_that_is_not_transitive():
    # 0 -> 1 -> 2 for agent 1, with no pair (0,2): the fact at 0 reaches 2
    # only by spreading again from 1; the C fact reaches 2 through the closure
    t1, tc = Const(1, agent(1)), Var(1, C)
    m = AFModel(2, {0, 1, 2}, {1: {(0, 1), (1, 2)}, 2: {(2, 0)}}, {},
                (EvidenceFact(0, t1, Prop(1)), EvidenceFact(1, tc, Prop(2))), EMPTY_CS)
    u = universe_of(t1, Prop(1), tc, Prop(2))
    facts = saturate(m, u)
    assert facts == naive_saturate(m, u)
    assert {w for w, t, _ in facts if t == t1} == {0, 1, 2}
    assert {w for w, t, _ in facts if t == tc} == {0, 1, 2}


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


def reference_evaluator(m):
    """Oracle for `holds` with no memo: `evaluate(w, a, facts=None)` reads
    each box world by world, over successor lists drawn from pair sets, the
    common one from `fixed_point_closure`."""
    union = frozenset().union(*m.relations.values())
    pair_sets = {E: union, C: fixed_point_closure(union)}
    pair_sets.update((agent(i), rel) for i, rel in m.relations.items())
    succ = {sort: {w: [v for x, v in sorted(rel) if x == w] for w in m.worlds}
            for sort, rel in pair_sets.items()}

    def evaluate(v: int, f: Formula, facts=None) -> bool:
        if isinstance(f, Prop):
            return v in m.valuation.get(f.index, ())
        if isinstance(f, Neg):
            return not evaluate(v, f.body, facts)
        if isinstance(f, And):
            return evaluate(v, f.left, facts) and evaluate(v, f.right, facts)
        if isinstance(f, Or):
            return evaluate(v, f.left, facts) or evaluate(v, f.right, facts)
        if isinstance(f, Imp):
            return not evaluate(v, f.left, facts) or evaluate(v, f.right, facts)
        if isinstance(f, Just) and facts is not None and (v, f.term, f.body) not in facts:
            return False
        return all(evaluate(u, f.body, facts) for u in succ[f.sort][v])

    return evaluate


def boxed_variants(rng, h: int):
    """A random formula, its modal image, and both under a common box."""
    a = random_formula(rng, h, rng.randint(1, 4))
    image = modal.forgetful(a)
    return [a, image, Box(C, image), Just(Var(1, C), C, a),
            Box(C, Imp(Box(C, image), Just(Var(2, C), C, a)))]


def test_holds_matches_memo_free_oracle_on_unclosed_frames():
    rng = random.Random(23)
    for n, pairs in seeded_relations(seed=19, count=60):
        h = rng.randint(1, 3)
        relations: dict[int, set] = {i: set() for i in range(1, h + 1)}
        for pair in pairs:
            relations[rng.randint(1, h)].add(pair)
        valuation = {k: {w for w in range(n) if rng.random() < 0.6} for k in range(1, 5)}
        m = KripkeModel(h, range(n), relations, valuation)
        reference = reference_evaluator(m)
        for a in boxed_variants(rng, h):
            justs = [f for f in subformulas(a) if isinstance(f, Just)]
            facts = {(w, j.term, j.body) for w in range(n) for j in justs
                     if rng.random() < 0.8}
            for w in range(n):
                assert holds(m, w, a) == reference(w, a)
                assert holds(m, w, a, facts) == reference(w, a, facts)


def test_evidence_is_tested_per_world_inside_a_component():
    # one common component {0, 1, 2}; only worlds 0 and 2 hold the evidence
    t = Var(1, C)
    m = KripkeModel(2, range(3), {1: {(0, 1)}, 2: {(1, 2), (2, 0)}}, {1: {0, 1, 2}})
    facts = {(0, t, Prop(1)), (2, t, Prop(1))}
    boxed = Just(t, C, Prop(1))
    assert [holds(m, w, boxed, facts) for w in range(3)] == [True, False, True]
    assert not holds(m, 0, Box(C, boxed), facts)
    assert holds(m, 0, Box(C, Box(C, Prop(1))), facts)


def test_base_mode_matches_oracle_where_evidence_differs_within_a_component():
    rng = random.Random(29)
    x1 = Var(1, agent(1))
    for k in range(30):
        n = rng.randint(2, 8)
        # agent 2 cycles through every world, so all of them form one
        # common component; agent 1 adds a few one-way pairs
        cycle = {(w, (w + 1) % n) for w in range(n)}
        one_way = {(w, v) for w in range(n) for v in range(n) if rng.random() < 0.15}
        valuation = {i: {w for w in range(n) if rng.random() < 0.7} for i in range(1, 5)}
        queries = [Box(C, Just(x1, agent(1), Prop(1))),
                   Just(Var(2, C), C, Or(Just(x1, agent(1), Prop(1)), Prop(2)))]
        queries += boxed_variants(rng, 2)[::2]
        base = [EvidenceFact(w, x1, Prop(1)) for w in range(n) if rng.random() < 0.5]
        base += [EvidenceFact(rng.randrange(n), j.term, j.body)
                 for a in queries for j in subformulas(a)
                 if isinstance(j, Just) and rng.random() < 0.5]
        m = AFModel(2, range(n), {1: one_way, 2: cycle}, valuation, base,
                    ConstantSpecification.total_c())
        reference = reference_evaluator(m)
        for a in queries:
            facts = saturate(m, build_universe(m, a))
            for w in range(n):
                assert satisfies(m, w, a) == reference(w, a, facts), (k, w, a)


def test_full_mode_reduces_to_relational_truth():
    frame = dict(h=1, worlds=(0, 1), rels={1: {(0, 1)}}, valuation={1: {0, 1}})
    assert satisfies(tiny(mode="full", **frame), 0, Just(Var(1, agent(1)), agent(1), Prop(1)))
    assert not satisfies(tiny(mode="base", **frame), 0, Just(Var(1, agent(1)), agent(1), Prop(1)))


def shared_queries(rng, h: int, count: int) -> list[Formula]:
    """Random boxed formulas over a growing pool of formula objects, so that
    queries share subformulas by identity, as the attack sweep's do."""
    sorts = [agent(i) for i in range(1, h + 1)] + [E, C]
    pool = [random_formula(rng, h, rng.randint(0, 2)) for _ in range(4)]
    out = []
    for _ in range(count):
        s = rng.choice(sorts)
        a, b = rng.choice(pool), rng.choice(pool)
        body = rng.choice((a, Imp(a, b), And(a, Neg(b))))
        f = (Box(s, body) if rng.random() < 0.5
             else Just(random_term(rng, s, h, rng.randint(0, 1)), s, body))
        if rng.random() < 0.5:
            pool.append(f)
        out.append(f)
    return out


def fresh_copy(m: KripkeModel) -> KripkeModel:
    """The same frame with its own caches and successor tuples."""
    if isinstance(m, AFModel):
        return AFModel(m.h, m.worlds, m.relations, m.valuation, mode=m.mode)
    return KripkeModel(m.h, m.worlds, m.relations, m.valuation)


def test_model_box_memo_answers_as_a_fresh_model_in_any_order():
    rng = random.Random(31)
    for k in range(24):
        h = rng.randint(1, 3)
        n = rng.randint(1, 5)
        m = (random_model(h, n, seed=k, mode="full") if k % 2
             else random_kripke_model(h, n, seed=k))
        cells = [(w, a) for a in shared_queries(rng, h, 30) for w in sorted(m.worlds)]
        verdicts = {cell: holds(m, *cell) for cell in cells}
        assert m._box_memo
        other = fresh_copy(m)
        rng.shuffle(cells)
        for w, a in cells:
            assert holds(other, w, a) == verdicts[w, a]
            assert holds(fresh_copy(m), w, a) == verdicts[w, a]
            if k % 2:
                assert satisfies(m, w, a) == verdicts[w, a]


def test_model_box_memo_outlives_the_queries_it_answered():
    # each query is dropped after its call, so a later one may be built
    # where it was; the memo entry keeps the old box, and so its id, alive
    m = KripkeModel(1, range(2), {1: {(0, 1)}}, {1: {0, 1}, 2: {0}})
    for k in range(200):
        assert holds(m, 0, Neg(Box(agent(1), Prop(1 + k % 2)))) == (k % 2 == 1)
    assert len(m._box_memo) == 200


def test_holds_returns_on_a_900_level_chain_of_boxes():
    # one interpreter frame per level; an evaluator that went through `all`
    # and a generator took three and raised RecursionError above 330 levels
    k = semantics.attack_kripke_model()
    chain = DEL
    for level in range(900):
        chain = Box(agent(1 + level % 2), chain)
    # delivery as in the scenario (the chain fails everywhere from its
    # fourth level up), then delivery everywhere (it holds everywhere)
    for valuation, want in (({"del": {0, 1, 2}}, False), ({"del": k.worlds}, True)):
        m = KripkeModel(k.h, k.worlds, k.relations, valuation)
        assert [holds(m, w, chain) for w in sorted(m.worlds)] == [want] * 4


def test_holds_leaves_no_cycle_for_the_collector():
    # its evaluator reaches itself through its own cell; a call that left
    # that cycle kept the query and the call's closure alive until the next
    # collection (55,219 objects over one attack benchmark pass)
    m = attack_four_world_model()
    gc.collect()
    gc.disable()
    try:
        for t in (Var(1, C), Var(2, C)):
            satisfies(m, 0, Just(t, C, DEL))
            holds(m, 1, Box(C, Imp(Just(t, C, DEL), DEL)), facts=set())
        assert gc.collect() == 0
    finally:
        gc.enable()

@pytest.mark.parametrize("a", [Var(1, C), C, Neg(Var(1, C)), Box(C, Imp(DEL, M1))],
                         ids=["term", "sort", "negated term", "boxed term"])
def test_holds_refuses_what_is_not_a_formula(a):
    for m in (semantics.attack_kripke_model(), attack_four_world_model()):
        with pytest.raises(InvalidInput, match="cannot evaluate"):
            holds(m, 0, a)
    with pytest.raises(InvalidInput, match="cannot evaluate"):
        satisfies(attack_four_world_model(), 0, a)


def test_the_query_itself_is_not_entered_in_the_model_box_memo():
    m = random_model(2, 3, seed=4, mode="full")
    inner = Box(C, Prop(1))
    a = Just(Var(1, agent(1)), agent(1), inner)
    for w in sorted(m.worlds):
        satisfies(m, w, a)
    assert {id(entry[0]) for entry in m._box_memo.values()} == {id(inner)}


def test_model_box_memo_is_cleared_at_its_bound(monkeypatch):
    monkeypatch.setattr(semantics, "_SATURATION_CACHE_SIZE", 16)
    rng = random.Random(37)
    m = random_model(2, 4, seed=3, mode="full")
    sizes = []
    for a in shared_queries(rng, 2, 200):
        for w in sorted(m.worlds):
            assert satisfies(m, w, a) == satisfies(fresh_copy(m), w, a)
            sizes.append(len(m._box_memo))
    assert max(sizes) == 16
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def test_model_box_memo_compares_no_trees(monkeypatch):
    calls = []
    nodes = [cls for cls in vars(syntax).values()
             if isinstance(cls, type) and issubclass(cls, (Term, Formula)) and hasattr(cls, "_tag")]
    for cls in nodes:
        monkeypatch.setattr(cls, "__eq__", lambda self, other, eq=cls.__eq__:
                            calls.append(self) or eq(self, other))

    def build() -> Formula:
        inner = Box(agent(1), Imp(Prop(1), Just(Var(1, agent(2)), agent(2), Prop(2))))
        return Just(Sum(Var(1, C), Var(2, C), C), C, And(inner, Box(E, inner)))

    m = random_model(2, 4, seed=5, mode="full")
    first = [satisfies(m, w, build()) for w in sorted(m.worlds)]
    entries = len(m._box_memo)
    assert first == [satisfies(m, w, build()) for w in sorted(m.worlds)]
    assert len(m._box_memo) > entries  # each copy is its own key
    assert calls == []


def test_base_mode_reads_no_model_box_memo():
    rng = random.Random(41)
    for seed in range(10):
        m = random_model(2, 3, n_base=4, seed=seed)
        m._box_memo = None  # any read of it raises
        fresh = random_model(2, 3, n_base=4, seed=seed)
        for a in shared_queries(rng, 2, 10):
            for w in sorted(m.worlds):
                assert satisfies(m, w, a, 1) == satisfies(fresh, w, a, 1)
                facts = {(w, f.term, f.body) for f in subformulas(a) if isinstance(f, Just)}
                assert holds(m, w, a, facts) == holds(fresh, w, a, facts)


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
    ("h: 1\nworlds: w0 w1\nrel 1: (w0,w1),,(w1,w0),\n", None),  # loose commas
    # any whitespace separates pairs, as it does world names
    ("h: 1\nworlds:\tw0\tw1\nrel 1: (w0,w1)\t(w1,w0)\n", None),
    ("h: 1\nworlds: w0 w1\nrel 1: ( w0 ,\tw1 )\t \t(w1,w0)\n", None),
    # a comma may separate pairs but not close one
    ("h: 1\nworlds: w0 w1\nrel 1: (w0,w1,)\n", ParseError),
    ("h: 1\nworlds: w0 w1\nrel 1: (w0,w1,,,)\n", ParseError),
    ("h: 1\nworlds: w0 w1\nrel 1: (,w0,w1)\n", ParseError),
    ("rel 1: (w0,w0)\nh: 1\nworlds: w0\n", ParseError),
    ("h: 1\nworlds: w0\nrel 2: (w0,w0)\n", ParseError),
    ("h: 0\nworlds: w0\n", ParseError),
    # a number is an optional `-` and decimal digits, as the format writes it
    ("h: +2\nworlds: w0\n", ParseError),
    ("h: 1_0\nworlds: w0\n", ParseError),
    ("h: 1\nworlds: zero\n", ParseError),
    ("h: 1\nworlds: w0\nmode: maybe\n", ParseError),
    ("h: 1\nworlds: w0\nbogus: 3\n", ParseError),
    ("h: 1\n", ParseError),
    ("worlds: w0\n", ParseError),
    ("h: 1\nworlds: w0\nevidence: (w3, c1@1, P1)\n", InvalidInput),
    ("h: 1\nworlds: w0\ncs: file extras.cs\n", InvalidInput),
    ("h: 1\nworlds: w0\ncs: file\textras.cs\n", InvalidInput),
    # `file`, then whitespace, then a path; nothing else names a table
    ("h: 1\nworlds: w0\ncs: filetable.cs\n", ParseError),
    ("h: 1\nworlds: w0\ncs: file\n", ParseError),
    # a `val` name follows the proposition grammar
    ("h: 1\nworlds: w0\nval Pl: w0\n", InvalidInput),
    ("h: 1\nworlds: w0\nval x1: w0\n", InvalidInput),
    ("h: 1\nworlds: w0\nval P0: w0\n", InvalidInput),
])
def test_model_file_errors(text, exc):
    if exc is None:
        parse_model_file(text)
    else:
        with pytest.raises(exc):
            parse_model_file(text)


@pytest.mark.parametrize("line,message", [
    ("worlds: w0 w1x", "bad world name 'w1x'; expected wN"),
    ("rel 1: (w0,w1) x", "bad relation pair 'x'"),
    ("rel 1: (w0,w1", "bad relation pair '(w0,w1'"),
    ("rel 1: (w0,w1) (w1,w0", "bad relation pair '(w1,w0'"),
    ("rel 1: (w0,w1) (w0;w1)", "bad world name 'w0;w1'; expected wN"),
    ("rel 1: (w0,w1) (w1,w0,w1)", "bad world name 'w0,w1'; expected wN"),
    ("rel 1: (w0,w1)\t(w1,w0", "bad relation pair '(w1,w0'"),
    ("rel 1: (w0,w1\t,)", "bad relation pair '(w0,w1,)'"),
    ("rel 1: (w0,w1) (w1,w0,,,)", "bad relation pair '(w1,w0,,,)'"),
    ("rel 1: (,w0,w1)", "bad world name ''; expected wN"),
    ("val P1: w0 1", "bad world name '1'; expected wN"),
    ("val P1: w0 w" + "7" * 5000, "world number of 5000 digits is too large"),
    ("rel 0_1: (w0,w1)", "agent index '0_1' is not an integer"),
    ("rel +1: (w0,w1)", "agent index '+1' is not an integer"),
    # a key is a keyword, then one agent index or name: not a prefix of one
    ("valuation P1: w0", "unknown model line 'valuation P1: w0'"),
    ("rel1: (w0,w1)", "unknown model line 'rel1: (w0,w1)'"),
    ("rel 1 2: (w0,w1)", "unknown model line 'rel 1 2: (w0,w1)'"),
    ("val: w0", "unknown model line 'val: w0'"),
    # long lines that go wrong only at their last token
    pytest.param("worlds: " + "w0 " * 20000 + "w1x",
                 "bad world name 'w1x'; expected wN", id="long_worlds"),
    pytest.param("rel 1: " + "(w0, w1) , " * 20000 + "x",
                 "bad relation pair 'x'", id="long_rel"),
    pytest.param("rel 1: " + "(w0,w1)" * 20000 + "(w0;w1)",
                 "bad world name 'w0;w1'; expected wN", id="long_rel_bad_pair"),
])
def test_model_file_line_errors_name_the_token(line, message):
    with pytest.raises(ParseError) as caught:
        parse_model_file(f"h: 1\nworlds: w0 w1\n{line}\n")
    assert str(caught.value) == message


def test_model_file_rel_lines_read_any_whitespace():
    spaced, _ = parse_model_file("h: 1\nworlds: w0 w1 w2\nrel 1: (w0,w1) (w1,w2)\n")
    tabbed, _ = parse_model_file("h: 1\nworlds:\tw0\tw1 w2\nrel 1:\t(w0,\tw1)\t( w1,w2 )\n")
    assert tabbed.relations == spaced.relations
    assert (0, 2) in tabbed.relations[1]


def test_model_file_repeated_lines_accumulate():
    m, _ = parse_model_file("h: 1\nworlds: w0\nworlds: w1\nrel 1: (w0,w1)\n"
                            "rel 1: (w1,w0)\nval P1: w0\nval P1: w1\n")
    assert m.worlds == frozenset({0, 1})
    assert m.relations[1] == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert m.valuation[1] == frozenset({0, 1})


def test_model_file_specification_loader():
    table = "c1@C := [x1@1]@1 P1 -> P1\n"
    text = "h: 1\nworlds: w0\ncs: file extras.cs\n"
    m, _ = parse_model_file(text, cs_loader={"extras.cs": table}.__getitem__)
    ax = Imp(Just(Var(1, agent(1)), agent(1), Prop(1)), Prop(1))
    assert (1, C, ax) in m.cs.members


def test_cs_table_validation():
    good = "c1@C := [x1@1]@1 P1 -> P1  # reflexivity instance\n"
    cs = parse_cs_table(good, 1)
    assert len(cs.members) == 1
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


def test_term_enumeration_cap_is_a_resource_cap():
    from jck.gen import MAX_TERMS

    with pytest.raises(ResourceError, match=f"exceeded {MAX_TERMS} terms"):
        attack_term_families(max_depth=4)


def test_term_enumeration_memo_returns_new_lists():
    leaves = [M1, M2, Const(1, C)]
    gen._enumerate_by_sort.cache_clear()
    first = gen.enumerate_terms(leaves, C, 2, 2)
    second = gen.enumerate_terms(leaves, C, 2, 2)
    assert second == first and second is not first
    want = list(first)
    first.clear()
    second.append(Var(1, C))
    third = gen.enumerate_terms(leaves, C, 2, 2)
    assert third == want and len(third) == 28


def test_term_enumeration_memo_answers_as_a_cold_call():
    leaves = [M1, M2, Const(1, C)]
    variants = [(leaves, C, 2, 2), (leaves, agent(2), 2, 2), (leaves, E, 2, 2),
                (leaves, C, 1, 2), (leaves, C, 0, 2), (leaves, agent(1), 2, 3),
                (leaves[::-1], C, 2, 2), ([Const(1, C), M2, M1], agent(2), 2, 2),
                (leaves[:2], agent(1), 3, 2),
                ([Const(1, C), Const(2, C)], C, 1, 2), ([Const(2, C), Const(1, C)], C, 1, 2)]
    memo = gen._enumerate_by_sort
    cold = []
    for args in variants:
        memo.cache_clear()
        cold.append(gen.enumerate_terms(*args))
    memo.cache_clear()
    for _ in range(2):
        for args, want in zip(variants, cold):
            assert gen.enumerate_terms(*args) == want
            assert memo.cache_info().currsize <= memo.cache_info().maxsize
    assert memo.cache_info().hits > 0
    # leaf order is construction order
    assert cold[-1] != cold[-2] and set(cold[-1]) == set(cold[-2])


def test_term_enumeration_past_the_cap_raises_on_every_call(monkeypatch):
    leaves = [M1, M2, Const(1, C)]
    want = gen.enumerate_terms(leaves, C, 2, 2)  # memoized under the real cap
    monkeypatch.setattr(gen, "MAX_TERMS", 100)
    hits = gen._enumerate_by_sort.cache_info().hits
    for _ in range(2):
        with pytest.raises(ResourceError, match="exceeded 100 terms"):
            gen.enumerate_terms(leaves, C, 2, 2)
    assert gen._enumerate_by_sort.cache_info().hits == hits
    monkeypatch.undo()
    assert gen.enumerate_terms(leaves, C, 2, 2) == want


def test_random_model_is_seed_deterministic():
    a = format_model(random_model(2, 4, n_base=5, seed=77))
    b = format_model(random_model(2, 4, n_base=5, seed=77))
    c = format_model(random_model(2, 4, n_base=5, seed=78))
    assert a == b
    assert a != c
    assert validate_model(random_model(3, 5, n_base=6, seed=3)).ok
