"""Terms, formulas, printing, and parsing."""

import dataclasses
import itertools
import random
import re

import pytest

from jck.errors import InvalidInput, JckError, ParseError, SortError
from jck.gen import random_formula, random_sort, random_term
from jck.syntax import (
    C, E, And, App, Bang, Const, Head, Imp, Ind, Just, Neg, Or, Proj, Prop,
    Sum, Tail, Tuple, Var, agent, bound_problems, check_bounds, conj,
    Box, Formula, Sort, Term, formula_terms, parse_formula, parse_term, print_formula,
    print_formulas, print_term, subformulas, subterms, substitute, variables_in,
)


# ---------------------------------------------------------------------------
# sorts


def test_sort_kinds():
    assert agent(3).is_agent and agent(3).is_star
    assert not E.is_star and C.is_star
    assert not E.is_agent and not C.is_agent
    assert str(agent(2)) == "2" and str(E) == "E" and str(C) == "C"


def test_agent_index_positive():
    with pytest.raises(SortError):
        agent(0)


# ---------------------------------------------------------------------------
# term construction is sort-checked


def test_sum_needs_matching_star_sorts():
    Sum(Var(1, C), Var(2, C), C)
    with pytest.raises(SortError):
        Sum(Var(1, agent(1)), Var(2, agent(2)), agent(1))
    with pytest.raises(SortError):
        Sum(Var(1, E), Var(2, E), E)  # E is not a star sort


def test_bang_is_agent_only():
    Bang(Var(1, agent(2)), 2)
    with pytest.raises(SortError):
        Bang(Var(1, C), 1)
    with pytest.raises(SortError):
        Bang(Var(1, agent(2)), 1)  # index must match the child's sort


def test_tuple_slots_have_ascending_agent_sorts():
    Tuple((Var(1, agent(1)), Var(1, agent(2))))
    with pytest.raises(SortError):
        Tuple((Var(1, agent(2)), Var(1, agent(1))))
    with pytest.raises(SortError):
        Tuple(())


def test_projection_and_co_closure_child_sorts():
    assert Proj(2, Var(1, E)).sort == agent(2)
    assert Head(Var(1, C)).sort == E
    assert Tail(Var(1, C)).sort == E
    assert Ind(Var(1, C), Var(2, E)).sort == C
    with pytest.raises(SortError):
        Proj(1, Var(1, C))
    with pytest.raises(SortError):
        Head(Var(1, E))
    with pytest.raises(SortError):
        Ind(Var(1, E), Var(2, E))


def test_named_atoms():
    assert print_term(Const("m1", agent(2))) == "m1@2"
    assert print_formula(Prop("del")) == "del"
    with pytest.raises(InvalidInput):
        Const("head", C)  # reserved word
    with pytest.raises(InvalidInput):
        Const("x3", C)  # collides with variable spelling
    with pytest.raises(InvalidInput):
        Prop("Del")  # names are lowercase


def test_just_body_and_sort():
    f = Just(Var(1, C), C, Prop(1))
    assert f.sort == C
    with pytest.raises(SortError):
        Just(Var(1, C), E, Prop(1))  # term sort must match the box sort


# ---------------------------------------------------------------------------
# printing


def test_term_precedence_strings():
    two = agent(2)
    assert print_term(Sum(Var(1, two), App(Const(1, two), Var(2, two), two), two)) \
        == "x1@2 + c1@2 * x2@2"
    assert print_term(App(Sum(Var(1, two), Var(2, two), two), Var(3, two), two)) \
        == "(x1@2 + x2@2) * x3@2"
    assert print_term(Ind(Const(1, C), Tail(Var(1, C)))) == "ind(c1@C, tail(x1@C))"
    assert print_term(Tuple((Var(1, agent(1)), Const(2, agent(2))))) == "<x1@1, c2@2>"
    assert print_term(Bang(Var(1, agent(1)), 1)) == "!1(x1@1)"


def test_formula_precedence_strings():
    assert print_formula(Imp(Imp(Prop(1), Prop(2)), Imp(Prop(1), Prop(3)))) \
        == "(P1 -> P2) -> P1 -> P3"
    assert print_formula(And(Or(Prop(1), Prop(2)), Neg(And(Prop(1), Prop("del"))))) \
        == "(P1 | P2) & ~(P1 & del)"
    assert print_formula(Just(Proj(1, Var(1, E)), agent(1), Imp(Prop(1), Prop(2)))) \
        == "[pi_1(x1@E)]@1 (P1 -> P2)"
    # conjunction prints left-associated without parentheses, right needs them
    assert print_formula(And(And(Prop(1), Prop(2)), Prop(3))) == "P1 & P2 & P3"
    assert print_formula(And(Prop(1), And(Prop(2), Prop(3)))) == "P1 & (P2 & P3)"


# ---------------------------------------------------------------------------
# parsing


@pytest.mark.parametrize("text", [
    "x1@2 + c1@2 * x2@2",
    "(x1@2 + x2@2) * x3@2",
    "ind(c1@C, tail(x1@C))",
    "<x1@1, c2@2>",
    "!1(x1@1)",
    "pi_2(head(x1@C))",
    "m1@2",
])
def test_parse_term_round_trip(text):
    assert print_term(parse_term(text, 2)) == text


@pytest.mark.parametrize("text", [
    "(P1 -> P2) -> P1 -> P3",
    "(P1 | P2) & ~(P1 & del)",
    "[pi_1(x1@E)]@1 (P1 -> P2)",
    "[m2@1]@1 [m1@2]@2 del",
    "P1 & P2 & P3",
    "P1 & (P2 & P3)",
])
def test_parse_formula_round_trip(text):
    assert print_formula(parse_formula(text, 2)) == text


def test_parse_rejects_out_of_range_agent():
    with pytest.raises((ParseError, SortError)):
        parse_term("x1@3", 2)
    with pytest.raises((ParseError, SortError)):
        parse_formula("[x1@1]@1 P1 & [x1@3]@3 P1", 2)


@pytest.mark.parametrize("parse, text, message", [
    (parse_term, "x1@1 + x1@2", "+ operands must both have sort 1, got 1 and 2"),
    (parse_term, "x1@E * x2@E", "* is not a primitive at sort E"),
    (parse_term, "!1(x1@2)", "!1 needs an agent-1 operand, got sort 2"),
    (parse_term, "<x1@2, x1@2>", "tuple component 1 must have sort 1, got 2"),
    (parse_term, "ind(x1@E, x1@E)", "ind needs a C-sorted first operand, got sort E"),
    (parse_formula, "[x1@1]@2 P1", "term has sort 1, asserted at sort 2"),
], ids=["sum", "app", "bang", "tuple", "ind", "just"])
def test_parser_sort_errors_come_from_the_constructors(parse, text, message):
    with pytest.raises(SortError, match=re.escape(message)):
        parse(text, 2)


def test_parse_error_carries_position():
    with pytest.raises(ParseError):
        parse_formula("P1 ->", 2)
    with pytest.raises(ParseError):
        parse_term("x1@", 2)
    with pytest.raises(ParseError):
        parse_formula("", 2)


def test_parse_requires_full_consumption():
    with pytest.raises(ParseError):
        parse_formula("P1 P2", 2)


# ---------------------------------------------------------------------------
# structural helpers


def test_subterms_and_formula_terms():
    t = Ind(Var(1, C), Tail(Var(1, C)))
    assert subterms(t) == {t, Var(1, C), Tail(Var(1, C))}
    a = Imp(Just(t, C, Prop(1)), Prop(1))
    assert formula_terms(a) == {t}
    assert Prop(1) in subformulas(a) and a in subformulas(a)


def test_variables_in():
    a = Just(App(Var(1, C), Const(1, C), C), C, Just(Var(2, agent(1)), agent(1), Prop(1)))
    assert variables_in(a) == {Var(1, C), Var(2, agent(1))}


def test_substitute_replaces_everywhere():
    x = Var(1, agent(1))
    a = Imp(Just(x, agent(1), Prop(1)), Just(Sum(x, x, agent(1)), agent(1), Prop(1)))
    b = substitute(a, x=x, t=Const(5, agent(1)))
    assert variables_in(b) == frozenset()
    assert print_formula(b) == "[c5@1]@1 P1 -> [c5@1 + c5@1]@1 P1"


def test_substitute_checks_sorts():
    with pytest.raises(SortError):
        substitute(Just(Var(1, C), C, Prop(1)), x=Var(1, C), t=Var(1, E))
    with pytest.raises(JckError):
        substitute(Just(Var(1, C), C, Prop(1)), x=Var(1, C), t=Prop(1))


def test_conj_left_associates():
    parts = [Prop(1), Prop(2), Prop(3)]
    assert conj(parts) == And(And(Prop(1), Prop(2)), Prop(3))
    assert conj([Prop(7)]) == Prop(7)


def test_bound_problems():
    a = Just(Var(1, agent(3)), agent(3), Prop(1))
    assert bound_problems(a, 2)
    assert not bound_problems(a, 3)
    with pytest.raises(SortError):
        check_bounds(a, 2)
    # tuples must have exactly h slots
    assert bound_problems(Tuple((Var(1, agent(1)),)), 2)


# ---------------------------------------------------------------------------
# randomized round-trips (the larger sweep runs in the acceptance suite)


def test_random_round_trips():
    rng = random.Random(3)
    for _ in range(120):
        h = rng.randint(1, 3)
        t = random_term(rng, random_sort(rng, h), h, rng.randint(0, 3))
        assert parse_term(print_term(t), h) == t
        a = random_formula(rng, h, rng.randint(0, 3))
        assert parse_formula(print_formula(a), h) == a


# ---------------------------------------------------------------------------
# cached hashes and equality


def _nodes(x):
    """Every node of a term or formula tree, sorts included."""
    out, stack = [], [x]
    while stack:
        node = stack.pop()
        out.append(node)
        for f in dataclasses.fields(node):
            if f.compare:
                value = getattr(node, f.name)
                values = value if isinstance(value, tuple) else (value,)
                stack.extend(v for v in values if isinstance(v, (Term, Formula, Sort)))
    return out


def _random_tree(seed):
    rng = random.Random(seed)
    h = rng.randint(1, 3)
    if rng.random() < 0.5:
        return random_term(rng, random_sort(rng, h), h, rng.randint(0, 4))
    return random_formula(rng, h, rng.randint(0, 4))


def test_hash_is_the_tuple_hash_of_the_compare_fields():
    for seed in range(150):
        for node in _nodes(_random_tree(seed)):
            fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node) if f.compare)
            assert hash(node) == hash(fields)
            assert hash(node) == hash(fields)  # cached


def test_equality_is_structural():
    trees = [_random_tree(seed) for seed in range(150)]
    for seed, tree in enumerate(trees):
        again = _random_tree(seed)
        assert again is not tree and again == tree and not again != tree
        hash(tree)  # one side cached, the other not
        assert again == tree and hash(again) == hash(tree)
    texts = [print_term(t) if isinstance(t, Term) else print_formula(t) for t in trees]
    for (a, ta), (b, tb) in itertools.combinations(zip(trees, texts), 2):
        if type(a) is type(b) and ta != tb:
            assert a != b and not a == b
    assert Box(agent(1), Prop(1)) != Box(agent(2), Prop(1))
    assert agent(1) == Sort("agent", 1) and agent(1) != E


def test_nodes_are_slotted():
    assert not hasattr(Var(1, C), "__dict__")
    assert not hasattr(agent(1), "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        Prop(1).index = 2


def test_print_formulas_shares_term_text():
    t = Sum(Var(1, C), App(Const(1, C), Var(2, C), C), C)
    shared = [Just(t, C, Prop(1)), Just(App(t, t, C), C, Prop(2)), Prop(3)]
    assert print_formulas(shared) == [print_formula(a) for a in shared]
    assert print_formulas(shared)[1] == (
        "[(x1@C + c1@C * x2@C) * (x1@C + c1@C * x2@C)]@C P2")
