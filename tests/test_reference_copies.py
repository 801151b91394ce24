"""The indexed query universe, the saturation that reads its index, and the
semi-naive term enumeration, each held to a plain reference written out
here: a universe whose terms are walked again for every index, a
saturation that indexes its universe itself and tests every formula
against the specification, and an enumeration that combines every operand
in every round and drops the terms it already has."""

import itertools
import random
from itertools import count

import pytest

from jck import gen
from jck.acceptance import attack_term_families, naive_saturate
from jck.deduction import AxiomSchema, ConstantSpecification
from jck.errors import ResourceError
from jck.gen import random_axiom_instance, random_formula, random_term
from jck.semantics import (
    AFModel, EvidenceFact, SaturationUniverse, attack_singleton_model, build_universe,
    random_model, saturate,
)
from jck.syntax import (
    C, E, App, Bang, Const, Formula, Head, Imp, Ind, Just, Proj, Prop, Sum, Tail, Term,
    Tuple, Var, agent,
)

DEL = Prop("del")
M1 = Const("m1", agent(2))
M2 = Const("m2", agent(1))


# ---------------------------------------------------------------------------
# the references


def reference_universe(m: AFModel, query: Formula, depth_budget: int,
                       max_size: int = 50000) -> SaturationUniverse:
    """The universe built by walking the fact base, the query and the
    specification instances into two sets, then boxing every formula for
    every tail in semi-naive rounds; its index is left to the universe."""
    terms: set[Term] = set()
    formulas: set[Formula] = set()

    def add_term(t: Term) -> None:
        stack = [t]
        while stack:
            x = stack.pop()
            if x not in terms:
                terms.add(x)
                stack += x._children()

    def add_formula(a: Formula) -> None:
        stack = [a]
        while stack:
            f = stack.pop()
            if f not in formulas:
                formulas.add(f)
                if f.__class__ is Just:
                    add_term(f.term)
                    stack.append(f.body)
                else:
                    stack += f._children()

    for fact in m.evidence_base:
        add_term(fact.term)
        add_formula(fact.formula)
    add_formula(query)
    for c, a in m.cs.pairs():
        if c in terms:
            add_formula(a)
    tails = [t.t for t in terms if isinstance(t, Tail)]
    added = formulas
    for rnd in count():
        if len(terms) + len(formulas) > max_size:
            raise ResourceError(
                f"saturation universe exceeded {max_size} entries; "
                "lower the depth budget or shrink the query")
        if rnd >= depth_budget:
            break
        added = {boxed for t in tails for a in added
                 if (boxed := Just(t, C, a)) not in formulas}
        if not added:
            break
        formulas.update(added)
    return SaturationUniverse(frozenset(terms), frozenset(formulas))


def reference_saturate(m: AFModel, universe: SaturationUniverse) -> frozenset:
    """The worklist saturation that indexes the universe's terms itself and
    hands the specification the universe's two sets."""
    tu, fu = universe.terms, universe.formulas
    parents: dict[Term, list[Term]] = {}
    for u in tu:
        for k in u._children():
            ps = parents.setdefault(k, [])
            if not ps or ps[-1] is not u:
                ps.append(u)
    known: set = set()
    by_world_term: dict = {}
    queue: list = []

    def emit(w, t, a, spread=True):
        if (w, t, a) not in known:
            known.add((w, t, a))
            by_world_term.setdefault((w, t), set()).add(a)
            queue.append((w, t, a, spread))

    def holds(w, t, a):
        return a in by_world_term.get((w, t), ())

    for fact in m.evidence_base:
        if fact.world in m.worlds and fact.term in tu and fact.formula in fu:
            emit(fact.world, fact.term, fact.formula)
    for c, a in m.cs.within(tu, fu):
        for w in m.worlds:
            emit(w, c, a)
    while queue:
        w, t, a, spread = queue.pop()
        sort = t.sort
        if spread and sort != E:
            for v in m.star_successors[sort].get(w, ()):
                emit(v, t, a, sort.is_agent)
        for u in parents.get(t, ()):
            cls = u.__class__
            if cls is Sum or cls is Proj or cls is Head:
                emit(w, u, a)
            elif cls is App:
                if u.t == t and isinstance(a, Imp) and a.right in fu and holds(w, u.s, a.left):
                    emit(w, u, a.right)
                if u.s == t:
                    for f in by_world_term.get((w, u.t), ()):
                        if isinstance(f, Imp) and f.left == a and f.right in fu:
                            emit(w, u, f.right)
            elif cls is Bang or cls is Tail:
                if Just(t, sort, a) in fu:
                    emit(w, u, Just(t, sort, a))
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


def reference_enumeration(leaves, max_depth: int, h: int, cap: int) -> dict:
    """Every round combines every operand, counts every term it builds
    against `cap`, and keeps those it has not seen."""
    by_sort: dict = {}
    for leaf in leaves:
        by_sort.setdefault(leaf.sort, []).append(leaf)

    def pool(s):
        return by_sort.get(s, [])

    total = len(leaves)
    for _ in range(max_depth):
        new: dict = {}

        def add(t):
            nonlocal total
            new.setdefault(t.sort, []).append(t)
            total += 1
            if total > cap:
                raise ResourceError(f"term enumeration exceeded {cap} terms")

        for i in range(1, h + 1):
            s = agent(i)
            for t in pool(s):
                add(Bang(t, i))
            for t in pool(s):
                for u in pool(s):
                    add(Sum(t, u, s))
                    add(App(t, u, s))
            for t in pool(E):
                add(Proj(i, t))
        if all(pool(agent(i)) for i in range(1, h + 1)):
            for combo in itertools.product(*[pool(agent(i)) for i in range(1, h + 1)]):
                add(Tuple(combo))
        for t in pool(C):
            add(Head(t))
            add(Tail(t))
            for u in pool(C):
                add(Sum(t, u, C))
                add(App(t, u, C))
            for u in pool(E):
                add(Ind(t, u))
        seen = {x for xs in by_sort.values() for x in xs}
        for s, terms in new.items():
            dst = by_sort.setdefault(s, [])
            for t in terms:
                if t not in seen:
                    seen.add(t)
                    dst.append(t)
    return by_sort


# ---------------------------------------------------------------------------
# universes and saturation


def assert_query_matches(m: AFModel, query: Formula, budget: int, max_size: int = 50000):
    """The universe and facts of the query are the references', and the
    size cap refuses it at the same size with the same message."""
    try:
        want = reference_universe(m, query, budget, max_size)
    except ResourceError as refused:
        with pytest.raises(ResourceError) as got:
            build_universe(m, query, budget, max_size)
        assert str(got.value) == str(refused)
        return None
    u = build_universe(m, query, budget, max_size)
    assert u == want
    facts = saturate(m, u)
    assert facts == reference_saturate(m, want) == naive_saturate(m, want)
    return u


def test_attack_candidates_saturate_as_the_references():
    # every common-sort candidate as the singleton sweep asks it, and every
    # agent-2 candidate as the four-world sweep asks it, on the singleton model
    m = attack_singleton_model()
    fam2, fam_c = attack_term_families(3)
    knows_msg = Just(M2, agent(1), Just(M1, agent(2), DEL))
    queries = [Just(t, C, DEL) for t in fam_c] + [Just(s, agent(2), knows_msg) for s in fam2]
    assert len(queries) == 2185 + 3263
    for q in queries:
        assert_query_matches(m, q, 3)


def extensional_model(rng: random.Random, h: int) -> tuple[AFModel, list[Const]]:
    """A random frame with a fact base over a few constants, and a table
    that declares each constant for an axiom instance: a tail instance or
    another, whose terms bring in constants of their own."""
    frame = random_model(h, rng.randint(1, 3), density=0.4, n_base=0,
                         seed=rng.randrange(10 ** 6))
    sorts = [C, E] + [agent(i) for i in range(1, h + 1)]
    consts = [Const(k, rng.choice(sorts)) for k in range(1, rng.randint(2, 5))]
    schemata = [AxiomSchema.COCLOSTAIL] * 3 + [s for s in AxiomSchema if s is not AxiomSchema.TAUT]
    members = [(c.index, c.sort, random_axiom_instance(rng, rng.choice(schemata), h))
               for c in consts]
    cs = ConstantSpecification.extensional(members)
    base = []
    for _ in range(rng.randint(1, 4)):
        c = rng.choice(consts)
        t = Tail(c) if c.sort == C and rng.random() < 0.5 else c
        a = (rng.choice(members)[2] if rng.random() < 0.5
             else random_formula(rng, h, rng.randint(0, 2)))
        base.append(EvidenceFact(rng.choice(sorted(frame.worlds)), t, a))
    m = AFModel(h, frame.worlds, {i: frame.successors(agent(i)) for i in range(1, h + 1)},
                frame.valuation, tuple(base), cs)
    return m, consts


def test_extensional_models_saturate_as_the_references():
    rng = random.Random(2027)
    tails = refused = seeded = 0
    for _ in range(150):
        h = rng.randint(1, 3)
        m, consts = extensional_model(rng, h)
        for _ in range(3):
            c = rng.choice(consts)
            t = c if rng.random() < 0.5 else random_term(rng, c.sort, h, 1)
            query = Just(t, c.sort, random_formula(rng, h, rng.randint(0, 2)))
            for budget in range(4):
                u = assert_query_matches(m, query, budget, max_size=400)
                if u is None:
                    refused += 1
                    continue
                tails += bool(u.tails)
                seeded += any(t in u.terms for t in consts)
                size = len(u.terms) + len(u.formulas)
                assert_query_matches(m, query, budget, max_size=size)
                assert_query_matches(m, query, budget, max_size=size - 1)
    assert tails > 300 and refused > 20 and seeded > 1000


def test_a_universe_given_only_its_sets_indexes_only_its_own_terms():
    # the model's base index enters sum(m1, m1) and !2(m1) as parents of m1;
    # a universe that leaves them out must fire no rule for either
    parents = (Sum(M1, M1, agent(2)), Bang(M1, 2))
    m = AFModel(2, {0}, {1: {(0, 0)}, 2: {(0, 0)}}, {},
                [EvidenceFact(0, M1, DEL)] + [EvidenceFact(0, p, Prop(1)) for p in parents],
                ConstantSpecification.extensional(()))
    assert set(m.base_closure.parents[M1]) == set(parents)
    boxed = Just(M1, agent(2), DEL)
    u = SaturationUniverse(frozenset({M1, Tail(Const(1, C))}), frozenset({DEL, boxed}))
    assert u.parents == {Const(1, C): [Tail(Const(1, C))]}
    assert u.tails == (Const(1, C),) and u.candidates == u.formulas
    facts = saturate(m, u)
    assert facts == {(0, M1, DEL)} == naive_saturate(m, u)
    # nor for a parent of m1 that is a part of one of its terms
    inner = SaturationUniverse(frozenset({M1, Sum(parents[1], M1, agent(2))}),
                               frozenset({DEL, boxed}))
    assert inner.parents[M1] == [Sum(parents[1], M1, agent(2))]
    assert all(p in inner.terms for ps in inner.parents.values() for p in ps)
    assert saturate(m, inner) == naive_saturate(m, inner)
    # with them in, the rules fire for both
    whole = SaturationUniverse(frozenset({M1, *parents}), frozenset({DEL, boxed, Prop(1)}))
    assert {(0, parents[0], DEL), (0, parents[1], boxed)} <= saturate(m, whole)
    assert saturate(m, whole) == naive_saturate(m, whole)


def test_the_base_index_is_not_changed_by_a_query():
    # the base enters sum(m1, m1) as a parent of m1; queries enter more
    m = AFModel(2, {0}, {1: {(0, 0)}, 2: {(0, 0)}}, {},
                [EvidenceFact(0, Sum(M1, M1, agent(2)), DEL), EvidenceFact(0, Tail(Var(1, C)), DEL)])
    base = m.base_closure
    before = ({k: tuple(ps) for k, ps in base.parents.items()}, base.tails, base.candidates,
              base.terms, base.formulas)
    for t in [Bang(M1, 2), App(M1, Bang(M1, 2), agent(2)), Tuple((M2, M1))]:
        q = Just(t, t.sort, Just(Tail(Const(1, C)), E, DEL))
        u = build_universe(m, q, 2)
        assert u == reference_universe(m, q, 2) and t in u.parents[M1]
        assert set(u.tails) == {Var(1, C), Const(1, C)}
    after = ({k: tuple(ps) for k, ps in base.parents.items()}, base.tails, base.candidates,
             base.terms, base.formulas)
    assert after == before


def balanced(formulas: list) -> Formula:
    """The formulas joined by `->` into a tree of logarithmic depth."""
    while len(formulas) > 1:
        formulas = [Imp(*formulas[k:k + 2]) if k + 1 < len(formulas) else formulas[k]
                    for k in range(0, len(formulas), 2)]
    return formulas[0]


def test_many_parents_of_one_term_are_indexed_in_one_pass():
    # thousands of sums over m1, in the base and in the query: each new
    # parent is appended to m1's entry, which the query copies once from
    # the base's and leaves the base's as it was
    n = 3000
    sums = [Sum(M1, Var(k, agent(2)), agent(2)) for k in range(1, 2 * n + 1)]
    m = AFModel(2, {0}, {1: {(0, 0)}, 2: {(0, 0)}}, {},
                [EvidenceFact(0, s, Prop(1)) for s in sums[:n]],
                ConstantSpecification.extensional(()))
    base = m.base_closure.parents[M1]
    assert sorted(base, key=str) == sorted(sums[:n], key=str)
    q = balanced([Just(s, agent(2), Prop(1)) for s in sums[n:]])
    u = build_universe(m, q, 1)
    assert u == reference_universe(m, q, 1)
    assert u.parents[M1][:n] == base and len(m.base_closure.parents[M1]) == n
    assert sorted(u.parents[M1], key=str) == sorted(sums, key=str)
    size = len(u.terms) + len(u.formulas)
    with pytest.raises(ResourceError, match=f"exceeded {size - 1} entries"):
        build_universe(m, q, 1, max_size=size - 1)


# ---------------------------------------------------------------------------
# term enumeration


ENUMERATIONS = [
    # the variants the memo is checked against a cold call on
    ([M1, M2, Const(1, C)], 2, 2), ([M1, M2, Const(1, C)], 1, 2),
    ([M1, M2, Const(1, C)], 0, 2), ([M1, M2, Const(1, C)], 2, 3),
    ([Const(1, C), M2, M1], 2, 2), ([M1, M2], 3, 2),
    ([Const(1, C), Const(2, C)], 1, 2), ([Const(2, C), Const(1, C)], 1, 2),
    # repeated leaves, which the lists keep and the rounds combine once
    ([M1, M1, Const(1, C)], 3, 2), ([Const(1, C), M1, Const(1, C), M2, M1], 2, 2),
    # depth 3, the attack sweep's
    ([M1, M2, Const(1, C)], 3, 2),
    # leaves of one sort, of agents above h, of E, and none
    ([Const(1, agent(1)), Var(2, agent(1)), Const(3, C)], 3, 1),
    ([M1, Var(1, E)], 3, 2), ([M1], 3, 1), ([], 2, 2),
    # compound leaves, which a round may build again
    ([M1, Bang(M1, 2), Sum(M1, M1, agent(2))], 2, 2),
    ([Bang(M1, 2), M1, M1, Bang(M1, 2), Tuple((M2, M1)), M2], 2, 2),
    ([Const(1, C), Tail(Const(1, C)), Ind(Const(1, C), Tail(Const(1, C)))], 2, 2),
]


@pytest.mark.parametrize("leaves, depth, h", ENUMERATIONS)
def test_enumeration_lists_each_sort_in_the_reference_order(leaves, depth, h):
    want = reference_enumeration(tuple(leaves), depth, h, 10 ** 7)
    got = gen._enumerate_by_sort.__wrapped__(tuple(leaves), depth, h, 10 ** 7)
    for sort in {*want, *got}:
        assert got.get(sort, []) == want.get(sort, []), sort


@pytest.mark.parametrize("depth, distinct, built", [(2, 130, 141), (3, 10367, 10505)])
def test_the_enumeration_cap_counts_distinct_terms(depth, distinct, built):
    leaves = (M1, M2, Const(1, C))
    enumerate_ = gen._enumerate_by_sort.__wrapped__
    assert sum(map(len, enumerate_(leaves, depth, 2, distinct).values())) == distinct
    with pytest.raises(ResourceError, match=f"exceeded {distinct - 1} terms"):
        enumerate_(leaves, depth, 2, distinct - 1)
    # the reference counted every term it built, repeats included
    reference_enumeration(leaves, depth, 2, built)
    with pytest.raises(ResourceError):
        reference_enumeration(leaves, depth, 2, built - 1)
