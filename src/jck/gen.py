"""Seeded random generators for terms, formulas, axioms, and derivations.

All generators take an explicit random.Random so callers own determinism.
Derivations built here are valid by construction; the test suite still routes
them through the kernel rather than trusting that.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .deduction import Axiom, AxiomSchema, Builder, Derivation, Step
from .errors import InvalidInput, ResourceError
from .syntax import (
    agent, And, App, Bang, C, conj, Const, E, Formula, Head, Imp, Ind, Just,
    Neg, Or, Prop, Proj, Sort, Sum, Tail, Term, Tuple, Var,
)

ALL_SCHEMATA = tuple(AxiomSchema)


def random_sort(rng: random.Random, h: int, star: bool = False) -> Sort:
    pool = [agent(i) for i in range(1, h + 1)] + [C] + ([] if star else [E])
    return rng.choice(pool)


def random_term(rng: random.Random, sort: Sort, h: int, depth: int,
                fragment: bool = False) -> Term:
    """Uniform-ish term at `sort`, operator nesting bounded by `depth`.

    With `fragment`, an agent-sort term uses only the single-agent
    operations `!i`, `+` and `*`.
    """
    if depth <= 0:
        if rng.random() < 0.5:
            return Const(rng.randint(1, 4), sort)
        return Var(rng.randint(1, 4), sort)
    if sort.is_agent:
        choice = rng.randrange(5 if fragment else 6)
        if choice == 0:
            return Bang(random_term(rng, sort, h, depth - 1, fragment), sort.index)
        if choice == 1:
            return Sum(random_term(rng, sort, h, depth - 1, fragment),
                       random_term(rng, sort, h, depth - 1, fragment), sort)
        if choice == 2:
            return App(random_term(rng, sort, h, depth - 1, fragment),
                       random_term(rng, sort, h, depth - 1, fragment), sort)
        if choice == 3 and not fragment:
            return Proj(sort.index, random_term(rng, E, h, depth - 1))
        return random_term(rng, sort, h, 0)
    if sort == E:
        choice = rng.randrange(4)
        if choice == 0:
            return Tuple(tuple(random_term(rng, agent(i), h, depth - 1)
                               for i in range(1, h + 1)))
        if choice == 1:
            return Head(random_term(rng, C, h, depth - 1))
        if choice == 2:
            return Tail(random_term(rng, C, h, depth - 1))
        return random_term(rng, sort, h, 0)
    # C
    choice = rng.randrange(5)
    if choice == 0:
        return Sum(random_term(rng, C, h, depth - 1),
                   random_term(rng, C, h, depth - 1), C)
    if choice == 1:
        return App(random_term(rng, C, h, depth - 1),
                   random_term(rng, C, h, depth - 1), C)
    if choice == 2:
        return Ind(random_term(rng, C, h, depth - 1),
                   random_term(rng, E, h, depth - 1))
    return random_term(rng, sort, h, 0)


def random_formula(rng: random.Random, h: int, depth: int,
                   fragment: bool = False) -> Formula:
    """Random formula, nesting bounded by `depth`.  With `fragment`, it stays
    in the single-agent fragment: every box is at an agent sort, over a
    fragment term."""
    if depth <= 0:
        return Prop(rng.randint(1, 4))
    choice = rng.randrange(6)
    if choice == 0:
        return Neg(random_formula(rng, h, depth - 1, fragment))
    if choice == 1:
        return And(random_formula(rng, h, depth - 1, fragment),
                   random_formula(rng, h, depth - 1, fragment))
    if choice == 2:
        return Or(random_formula(rng, h, depth - 1, fragment),
                  random_formula(rng, h, depth - 1, fragment))
    if choice == 3:
        return Imp(random_formula(rng, h, depth - 1, fragment),
                   random_formula(rng, h, depth - 1, fragment))
    if choice == 4:
        sort = agent(rng.randint(1, h)) if fragment else random_sort(rng, h)
        return Just(random_term(rng, sort, h, depth - 1, fragment), sort,
                    random_formula(rng, h, depth - 1, fragment))
    return Prop(rng.randint(1, 4))


_TAUT_TEMPLATES = (
    lambda a, b: Imp(a, a),
    lambda a, b: Imp(a, Imp(b, a)),
    lambda a, b: Imp(And(a, b), a),
    lambda a, b: Imp(And(a, b), b),
    lambda a, b: Imp(a, Or(a, b)),
    lambda a, b: Imp(b, Or(a, b)),
    lambda a, b: Imp(Neg(Neg(a)), a),
    lambda a, b: Imp(a, Imp(b, And(a, b))),
    lambda a, b: Imp(Imp(a, b), Imp(Neg(b), Neg(a))),
)


def random_axiom_instance(rng: random.Random, schema: AxiomSchema, h: int,
                          depth: int = 1) -> Formula:
    """One concrete instance of the given schema with small random parts."""
    a = random_formula(rng, h, depth)
    b = random_formula(rng, h, depth)
    if schema == AxiomSchema.TAUT:
        return rng.choice(_TAUT_TEMPLATES)(a, b)
    if schema in (AxiomSchema.APP, AxiomSchema.SUML, AxiomSchema.SUMR):
        sort = random_sort(rng, h, star=True)
        t = random_term(rng, sort, h, depth)
        s = random_term(rng, sort, h, depth)
        if schema == AxiomSchema.APP:
            return Imp(Just(t, sort, Imp(a, b)),
                       Imp(Just(s, sort, a), Just(App(t, s, sort), sort, b)))
        if schema == AxiomSchema.SUML:
            return Imp(Just(t, sort, a), Just(Sum(t, s, sort), sort, a))
        return Imp(Just(s, sort, a), Just(Sum(t, s, sort), sort, a))
    if schema in (AxiomSchema.REFL, AxiomSchema.INSP):
        i = rng.randint(1, h)
        t = random_term(rng, agent(i), h, depth)
        f = Just(t, agent(i), a)
        if schema == AxiomSchema.REFL:
            return Imp(f, a)
        return Imp(f, Just(Bang(t, i), agent(i), f))
    if schema == AxiomSchema.TUPLING:
        items = tuple(random_term(rng, agent(i), h, depth) for i in range(1, h + 1))
        parts = [Just(items[i - 1], agent(i), a) for i in range(1, h + 1)]
        return Imp(conj(parts), Just(Tuple(items), E, a))
    if schema == AxiomSchema.PROJ:
        t = random_term(rng, E, h, depth)
        i = rng.randint(1, h)
        return Imp(Just(t, E, a), Just(Proj(i, t), agent(i), a))
    if schema == AxiomSchema.COCLOSHEAD:
        t = random_term(rng, C, h, depth)
        return Imp(Just(t, C, a), Just(Head(t), E, a))
    if schema == AxiomSchema.COCLOSTAIL:
        t = random_term(rng, C, h, depth)
        f = Just(t, C, a)
        return Imp(f, Just(Tail(t), E, f))
    if schema == AxiomSchema.INDUCTION:
        t = random_term(rng, C, h, depth)
        s = random_term(rng, E, h, depth)
        return Imp(And(a, Just(t, C, Imp(a, Just(s, E, a)))), Just(Ind(t, s), C, a))
    raise InvalidInput(f"unknown schema {schema}")


def random_axiom(rng: random.Random, h: int, depth: int = 1) -> tuple[AxiomSchema, Formula]:
    schema = rng.choice(ALL_SCHEMATA)
    return schema, random_axiom_instance(rng, schema, h, depth)


def random_derivation(rng: random.Random, h: int, n_extra: int = 4) -> Derivation:
    """A mixed derivation, valid under a total C specification.

    Leaves: hypotheses (some C-boxed, some plain), axiom instances, and
    boxed-axiom steps for C constants.  Growth: conjunction and weakening
    tautologies closed by modus ponens.
    """
    hyps: list[Formula] = []
    for _ in range(rng.randrange(3)):
        t = random_term(rng, C, h, 1)
        hyps.append(Just(t, C, random_formula(rng, h, 1)))
    for _ in range(rng.randrange(3)):
        hyps.append(random_formula(rng, h, 1))
    b = Builder(hyps)
    for n in range(1, len(hyps) + 1):
        b.hyp(n)
    b.axiom(*random_axiom(rng, h))
    if rng.random() < 0.5:
        c = Const(rng.randint(1, 4), C)
        b.axnec(c, random_axiom_instance(rng, rng.choice(ALL_SCHEMATA), h))
    for _ in range(n_extra):
        i = rng.randrange(len(b.steps)) + 1
        j = rng.randrange(len(b.steps)) + 1
        f = b.formula(i)
        if rng.random() < 0.5:
            target = And(f, b.formula(j))
        else:
            target = Or(f, random_formula(rng, h, 1))
        b.by_taut([i, j], target)
    return b.build()


def random_theorem(rng: random.Random, h: int, alloc=None) -> Derivation:
    """A hypothesis-free derivation; its conclusion is a theorem.

    Sources: plain axiom instances, the derived reflexivity and conversion
    facts, introspection and shift at the common sort, and internalized
    tautologies.  Re-checks under the total C specification, or under the
    extensional table of `alloc`'s constants.
    """
    from .synthesis import (
        ConstantAllocator, c_inspection, c_reflexivity, c_shift, e_reflexivity,
        i_conversion, necessitate,
    )
    if alloc is None:
        alloc = ConstantAllocator()
    kind = rng.randrange(7)
    a = random_formula(rng, h, rng.randint(0, 2))
    if kind == 0:
        schema, inst = random_axiom(rng, h)
        return Derivation((), (Step(inst, Axiom(schema)),))
    if kind == 1:
        t = random_term(rng, E, h, rng.randint(0, 2))
        return e_reflexivity(t, a)
    if kind == 2:
        t = random_term(rng, C, h, rng.randint(0, 2))
        return c_reflexivity(t, a)
    if kind == 3:
        t = random_term(rng, C, h, rng.randint(0, 2))
        _, d = i_conversion(t, rng.randint(1, h), a)
        return d
    if kind == 4:
        t = random_term(rng, C, h, rng.randint(0, 2))
        _, d = c_inspection(t, a, alloc)
        return d
    if kind == 5:
        t = random_term(rng, C, h, rng.randint(0, 2))
        _, d = c_shift(t, a, alloc)
        return d
    b = random_formula(rng, h, rng.randint(0, 1))
    taut = rng.choice(_TAUT_TEMPLATES)(a, b)
    base = Derivation((), (Step(taut, Axiom(AxiomSchema.TAUT)),))
    target = random_sort(rng, h)
    _, d = necessitate(base, target, alloc, h=h)
    return d


# the most distinct terms `enumerate_terms` keeps, over all sorts and depths:
# 130 at depth 2 and 10,367 at depth 3 from the attack leaves (141 and 10,505
# were counted when every round combined every operand again)
MAX_TERMS = 200000


def enumerate_terms(leaves: list[Term], sort: Sort, max_depth: int, h: int) -> list[Term]:
    """All terms of `sort` built from `leaves` with nesting <= max_depth, as
    a new list.

    Exhaustive by construction; raises ResourceError past `MAX_TERMS`
    distinct terms.  The closure over all sorts is built once per leaves,
    depth, agent count and cap and then memoized by `_enumerate_by_sort`, so
    asking for another sort of the same closure costs a copy.
    """
    return list(_enumerate_by_sort(tuple(leaves), max_depth, h, MAX_TERMS).get(sort, ()))


def _fresh_product(pools: list[list[Term]], starts: list[int]):
    """`itertools.product(*pools)` without the tuples of items all before their starts."""
    if pools:
        for j, x in enumerate(pools[0]):
            rest = (itertools.product(*pools[1:]) if j >= starts[0]
                    else _fresh_product(pools[1:], starts[1:]))
            for combo in rest:
                yield (x, *combo)


# Memoized; the depth-3 attack closure holds about 10,000 terms, so only a
# few are kept.  A raised ResourceError is not stored.
@lru_cache(maxsize=4)
def _enumerate_by_sort(leaves: tuple[Term, ...], max_depth: int, h: int,
                       cap: int) -> dict[Sort, list[Term]]:
    """Every term built from `leaves` with nesting <= max_depth, by sort, in
    order of depth and then of construction; past `cap` distinct terms,
    ResourceError.  Semi-naive (Bancilhon and Ramakrishnan 1986): a round
    combines, in full product order, only operands with one new from the
    round before, so over pools without repeats no term is built twice and
    only a compound leaf can be built again; nothing else is looked up."""
    by_sort: dict[Sort, list[Term]] = {}
    for leaf in leaves:
        by_sort.setdefault(leaf.sort, []).append(leaf)
    sorts = [agent(i) for i in range(1, h + 1)] + [E, C]
    pool = {s: list(dict.fromkeys(by_sort.get(s, ()))) for s in sorts}
    start = dict.fromkeys(sorts, 0)  # where each pool's terms from the last round begin
    compound = {leaf for leaf in leaves if leaf._children()}
    total = len(set(leaves))

    def keep(dst: list[Term], built) -> None:
        nonlocal total
        for t in built:
            if not (compound and t in compound):
                dst.append(t)
                total += 1
                if total > cap:
                    raise ResourceError(f"term enumeration exceeded {cap} terms")

    for _ in range(max_depth):
        new: dict[Sort, list[Term]] = {s: [] for s in sorts}
        fresh = {s: pool[s][start[s]:] for s in sorts}
        for i in range(1, h + 1):
            s = agent(i)
            keep(new[s], (Bang(t, i) for t in fresh[s]))
            keep(new[s], (x for t, u in _fresh_product([pool[s]] * 2, [start[s]] * 2)
                          for x in (Sum(t, u, s), App(t, u, s))))
            keep(new[s], (Proj(i, t) for t in fresh[E]))
        keep(new[E], map(Tuple, _fresh_product([pool[s] for s in sorts[:h]],
                                               [start[s] for s in sorts[:h]])))
        keep(new[E], (x for t in fresh[C] for x in (Head(t), Tail(t))))
        for j, t in enumerate(pool[C]):
            us, vs = (pool[C], pool[E]) if j >= start[C] else (fresh[C], fresh[E])
            keep(new[C], [x for u in us for x in (Sum(t, u, C), App(t, u, C))])
            keep(new[C], [Ind(t, v) for v in vs])
        for s in sorts:
            start[s] = len(pool[s])
            pool[s] += new[s]
            by_sort.setdefault(s, []).extend(new[s])
    return by_sort
