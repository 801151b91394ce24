"""Terms, formulas, printing, and parsing."""

import dataclasses
import inspect
import itertools
import random
import re

import pytest

from conftest import hypotheses_reversed
from jck import deduction, syntax
from jck.acceptance import attack_term_families
from jck.errors import InvalidInput, ParseError, ResourceError, SortError
from jck.gen import (
    random_derivation, random_formula, random_sort, random_term, random_theorem,
)
from jck.modal import parse_modal_formula
from jck.semantics import attack_kripke_model, holds
from jck.synthesis import ConstantAllocator, LiftingContext, lift, necessitate
from jck.syntax import (
    C, E, MAX_DEPTH, And, App, Bang, Const, Head, Imp, Ind, Just, Neg, Or, Proj, Prop,
    Sum, Tail, Tuple, Var, agent, bound_problems, conj,
    Box, Formula, Sort, Term, formula_terms, parse_formula, parse_term, print_formula,
    print_formulas, print_term, subformulas, subterms, variables_in, walk,
)

_PARSERS = {"formula": parse_formula, "term": parse_term, "modal": parse_modal_formula}


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


def _bracketings(ops, x, y, z, to_the_right=("->",)):
    """`x a y b z` bracketed both ways, for every ordered pair a, b of
    `ops` (loosest first), with parentheses only where the grammar needs
    them: around a looser operand, and around a right operand of the same
    operator that groups to the left or a left one that groups to the
    right."""
    out = []
    for a, b in itertools.product(ops, repeat=2):
        same = a == b
        looser_left = ops.index(a) < ops.index(b) or (same and a in to_the_right)
        looser_right = ops.index(b) < ops.index(a) or (same and a not in to_the_right)
        left, right = f"{x} {a} {y}", f"{y} {b} {z}"
        out.append(f"({left}) {b} {z}" if looser_left else f"{left} {b} {z}")
        out.append(f"{x} {a} ({right})" if looser_right else f"{x} {a} {right}")
    return out


_TERM_BRACKETINGS = _bracketings(["+", "*"], "x1@1", "c1@1", "x2@1")
_FORMULA_BRACKETINGS = _bracketings(["->", "|", "&"], "P1", "P2", "del")


def _assert_parentheses_needed(text, parse):
    """Dropping any pair of parentheses from `text` changes what `parse`
    reads, or makes it fail."""
    x = parse(text, 2)
    opened = []
    for k, ch in enumerate(text):
        if ch == "(":
            opened.append(k)
        elif ch == ")":
            start = opened.pop()
            dropped = text[:start] + text[start + 1:k] + text[k + 1:]
            try:
                assert parse(dropped, 2) != x, dropped
            except (ParseError, SortError):
                pass


@pytest.mark.parametrize("text", [
    "x1@2 + c1@2 * x2@2",
    "(x1@2 + x2@2) * x3@2",
    "ind(c1@C, tail(x1@C))",
    "<x1@1, c2@2>",
    "!1(x1@1)",
    "pi_2(head(x1@C))",
    "m1@2",
    *_TERM_BRACKETINGS,
    *(f"!1({t})" for t in _TERM_BRACKETINGS),
])
def test_parse_term_round_trip(text):
    assert print_term(parse_term(text, 2)) == text
    _assert_parentheses_needed(text, parse_term)


@pytest.mark.parametrize("text", [
    "(P1 -> P2) -> P1 -> P3",
    "(P1 | P2) & ~(P1 & del)",
    "[pi_1(x1@E)]@1 (P1 -> P2)",
    "[m2@1]@1 [m1@2]@2 del",
    "P1 & P2 & P3",
    "P1 & (P2 & P3)",
    *_FORMULA_BRACKETINGS,
    *(f"{prefix}({a})" for prefix in ("~", "[x1@1]@1 ", "#1 ") for a in _FORMULA_BRACKETINGS),
    *(f"[{t}]@1 P1" for t in _TERM_BRACKETINGS),
])
def test_parse_formula_round_trip(text):
    parse = parse_modal_formula if "#" in text else parse_formula
    assert print_formula(parse(text, 2)) == text
    _assert_parentheses_needed(text, parse)


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


_LONG = "7" * 5000


# every message and offset as the recursive-descent parser wrote them
PARSE_ERRORS = [
    ("formula", "P1 $ P2", "cannot read '$' (at offset 3)"),
    ("term", "x1@1 + ?", "cannot read '?' (at offset 7)"),
    ("formula", "é", "cannot read 'é' (at offset 0)"),
    ("formula", "(P1 -> P2", "expected ')', found 'end of input' (at offset 9)"),
    ("term", "!1(x1@1", "expected ')', found 'end of input' (at offset 7)"),
    ("term", "(x1@1 + x2@1", "expected ')', found 'end of input' (at offset 12)"),
    ("term", "ind(x1@C, x1@E", "expected ')', found 'end of input' (at offset 14)"),
    ("term", "ind(x1@C x1@E)", "expected ',', found 'x1@E' (at offset 9)"),
    ("term", "head x1@C", "expected '(', found 'x1@C' (at offset 5)"),
    ("formula", "[x1@1 @1 P1", "expected ']', found '@' (at offset 6)"),
    ("term", "<x1@1, x1@2", "expected '>', found 'end of input' (at offset 11)"),
    ("formula", "[x1@1] 1 P1", "expected '@', found '1' (at offset 7)"),
    ("formula", "[x1@1]@ P1", "expected a sort, found 'P1' (at offset 8)"),
    ("formula", "[x1@1]@X P1", "expected a sort, found 'X' (at offset 7)"),
    ("modal", "#", "expected a sort, found 'end of input' (at offset 1)"),
    ("formula", "P1 P2", "unexpected trailing input 'P2' (at offset 3)"),
    ("formula", "P1)", "unexpected trailing input ')' (at offset 2)"),
    ("term", "x1@1 x2@1", "unexpected trailing input 'x2@1' (at offset 5)"),
    ("modal", "#1 P1 #2", "unexpected trailing input '#' (at offset 6)"),
    ("term", "x1@0", "agent index 0 outside 1..2 (at offset 0)"),
    ("term", "x1@3", "agent index 3 outside 1..2 (at offset 0)"),
    ("formula", "[x1@1]@3 P1", "agent index 3 outside 1..2 (at offset 7)"),
    ("term", "!0(x1@1)", "agent index 0 outside 1..2 (at offset 0)"),
    ("term", "pi_3(x1@E)", "agent index 3 outside 1..2 (at offset 0)"),
    ("modal", "#0 P1", "agent index 0 outside 1..2 (at offset 1)"),
    ("modal", "#3 P1", "agent index 3 outside 1..2 (at offset 1)"),
    ("formula", f"P{_LONG}", "number of 5000 digits is too large (at offset 1)"),
    ("term", f"x{_LONG}@1", "number of 5000 digits is too large (at offset 1)"),
    ("term", f"x1@{_LONG}", "number of 5000 digits is too large (at offset 3)"),
    ("term", f"!{_LONG}(x1@1)", "number of 5000 digits is too large (at offset 1)"),
    ("modal", f"#{_LONG} P1", "number of 5000 digits is too large (at offset 1)"),
    ("formula", f"P1 -> P2 & P{_LONG}", "number of 5000 digits is too large (at offset 12)"),
    ("term", "head@1", "'head' is reserved (at offset 0)"),
    ("term", "ind@C", "'ind' is reserved (at offset 0)"),
    ("formula", "ind", "'ind' cannot name a proposition (at offset 0)"),
    ("formula", "tail -> P1", "'tail' cannot name a proposition (at offset 0)"),
    ("formula", "Foo", "'Foo' cannot name a proposition (at offset 0)"),
    ("formula", "x1", "'x1' cannot name a proposition (at offset 0)"),
    ("formula", "P1 & c2", "'c2' cannot name a proposition (at offset 5)"),
    ("term", "pi_3@1", "'pi_3' is reserved (at offset 0)"),
    ("term", "<x1@1>", "tuple arity 1 does not match agent count 2 (at offset 0)"),
    ("term", "<x1@1, x1@2, x1@2>", "tuple arity 3 does not match agent count 2 (at offset 0)"),
    ("modal", "[x1@1]@1 P1", "expected a formula, found '[' (at offset 0)"),
    ("modal", "P1 -> ~[x1@1]@1 P1", "expected a formula, found '[' (at offset 7)"),
    ("formula", "#1 P1", "expected a formula, found '#' (at offset 0)"),
    ("formula", "", "expected a formula, found 'end of input' (at offset 0)"),
    ("term", "", "expected a term, found 'end of input' (at offset 0)"),
    ("modal", "", "expected a formula, found 'end of input' (at offset 0)"),
    ("formula", "   ", "expected a formula, found 'end of input' (at offset 3)"),
    ("formula", "P1 ->", "expected a formula, found 'end of input' (at offset 5)"),
    ("formula", "P1 & ", "expected a formula, found 'end of input' (at offset 5)"),
    ("formula", "~", "expected a formula, found 'end of input' (at offset 1)"),
    ("formula", "P1 | | P2", "expected a formula, found '|' (at offset 5)"),
    ("formula", "-> P1", "expected a formula, found '->' (at offset 0)"),
    ("formula", "x1@1", "expected a formula, found 'x1@1' (at offset 0)"),
    ("term", "x1@1 +", "expected a term, found 'end of input' (at offset 6)"),
    ("term", "x1@1 * ", "expected a term, found 'end of input' (at offset 7)"),
    ("term", "P1", "expected a term, found 'P1' (at offset 0)"),
    ("term", "12", "expected a term, found '12' (at offset 0)"),
]


@pytest.mark.parametrize("kind, text, message", PARSE_ERRORS)
def test_parse_error_messages_are_pinned(kind, text, message):
    with pytest.raises(ParseError) as info:
        _PARSERS[kind](text, 2)
    assert str(info.value) == message


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


def test_conj_left_associates():
    parts = [Prop(1), Prop(2), Prop(3)]
    assert conj(parts) == And(And(Prop(1), Prop(2)), Prop(3))
    assert conj([Prop(7)]) == Prop(7)


def test_bound_problems():
    a = Just(Var(1, agent(3)), agent(3), Prop(1))
    # the assertion's sort is its term's, so the violation is reported once
    assert bound_problems(walk([a]), 2) == ["term x1@3 uses agent 3 > h=2"]
    # a projection's sort is its index
    assert bound_problems(walk([Proj(3, Var(1, E))]), 2) == [
        "term pi_3(x1@E) uses agent 3 > h=2"]
    assert not bound_problems(walk([a]), 3)
    # tuples must have exactly h slots
    assert bound_problems(walk([Tuple((Var(1, agent(1)),))]), 2) == [
        "tuple <x1@1> has arity 1, expected 2"]
    # each node is judged alone: the walk supplies the children
    assert not bound_problems([a.body], 2)


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


def test_hash_is_the_tagged_tuple_hash_of_the_compare_fields():
    for seed in range(150):
        for node in _nodes(_random_tree(seed)):
            fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node) if f.compare)
            tag = type(node)._tag
            assert type(tag) is int
            first = hash(node)
            assert first == hash((tag, *fields))
            assert hash(node) == first  # cached


def test_node_classes_have_distinct_tags():
    classes = [Sort, Const, Var, Bang, Sum, App, Tuple, Proj, Head, Tail, Ind,
               Prop, Neg, And, Or, Imp, Just, Box]
    assert len({cls._tag for cls in classes}) == len(classes)


def test_classes_with_the_same_fields_hash_apart():
    x, y = Var(1, C), Const(2, C)
    assert hash(Sum(x, y, C)) != hash(App(x, y, C))
    assert hash(Head(x)) != hash(Tail(x))
    assert hash(And(Prop(1), Prop(2))) != hash(Or(Prop(1), Prop(2)))


def test_attack_candidate_families_hash_all_distinct():
    # with the fields' hash alone these families had 252 and 181 distinct
    # hashes, so every lookup among them walked a collision chain
    fam2, fam_c = attack_term_families(3)
    assert (len(fam2), len(fam_c)) == (3263, 2185)
    assert len({hash(t) for t in fam2}) == len(fam2)
    assert len({hash(t) for t in fam_c}) == len(fam_c)


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


_X1, _XC, _XE = Var(1, agent(1)), Var(1, C), Var(1, E)

# every node class: its constructor's signature, as dataclass wrote it, and
# the arguments of one well-sorted node
CONSTRUCTORS = [
    (Sort, "(kind: 'str', index: 'int' = 0) -> None", ("agent", 2)),
    (Const, "(index: 'int | str', sort: 'Sort') -> None", ("m1", agent(2))),
    (Var, "(index: 'int', sort: 'Sort') -> None", (3, C)),
    (Bang, "(t: 'Term', agent: 'int') -> None", (_X1, 1)),
    (Sum, "(t: 'Term', s: 'Term', sort: 'Sort') -> None", (_XC, Var(2, C), C)),
    (App, "(t: 'Term', s: 'Term', sort: 'Sort') -> None", (_X1, _X1, agent(1))),
    (Tuple, "(items: 'tuple[Term, ...]') -> None", ((_X1, Var(1, agent(2))),)),
    (Proj, "(agent: 'int', t: 'Term') -> None", (1, _XE)),
    (Head, "(t: 'Term') -> None", (_XC,)),
    (Tail, "(t: 'Term') -> None", (_XC,)),
    (Ind, "(t: 'Term', s: 'Term') -> None", (_XC, _XE)),
    (Prop, "(index: 'int | str') -> None", ("del",)),
    (Neg, "(body: 'Formula') -> None", (Prop(1),)),
    (And, "(left: 'Formula', right: 'Formula') -> None", (Prop(1), Prop(2))),
    (Or, "(left: 'Formula', right: 'Formula') -> None", (Prop(1), Prop(2))),
    (Imp, "(left: 'Formula', right: 'Formula') -> None", (Prop(1), Prop(2))),
    (Just, "(term: 'Term', sort: 'Sort', body: 'Formula') -> None", (_XC, C, Prop(1))),
    (Box, "(sort: 'Sort', body: 'Formula') -> None", (C, Prop(1))),
]


@pytest.mark.parametrize("cls, signature, args", CONSTRUCTORS,
                         ids=[row[0].__name__ for row in CONSTRUCTORS])
def test_node_constructors_keep_the_dataclass_contract(cls, signature, args):
    assert not cls.__dataclass_params__.init  # `_node` writes the one __init__
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert str(inspect.signature(cls)) == signature
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    assert [f.name for f in dataclasses.fields(cls)] == ["_hash", *names]
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert by_position is not by_keyword and by_position == by_keyword
    assert by_position._hash is None
    assert hash(by_position) == hash(by_keyword) == hash((cls._tag, *args))
    assert repr(by_position) == f"{cls.__name__}({', '.join(f'{n}={a!r}' for n, a in zip(names, args))})"
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(by_position, name, args[0])


def test_tuple_stores_its_items_as_a_tuple():
    items = [_X1, Var(2, agent(2))]
    t = Tuple(items)
    assert type(t.items) is tuple and t.items == tuple(items) and t == Tuple(tuple(items))
    assert Tuple(iter(items)) == t
    assert Sort("E") == Sort("E", 0) == E


# refused constructions: the messages of every row up to the bool indices
# are those of the dataclass constructors; a bool or a float index printed
# as text that does not parse back (`PTrue`, `cTrue@1`, `pi_True(c1@E)`) or,
# for a projection, raised only when its sort was read
REFUSALS = [
    (lambda: Sort("agent", 0), SortError, "agent index must be a positive int, got 0"),
    (lambda: Sort("agent", "x"), SortError, "agent index must be a positive int, got 'x'"),
    (lambda: Sort("E", 1), SortError, "sort E carries no agent index"),
    (lambda: Sort("X"), SortError, "unknown sort kind 'X'"),
    (lambda: Const(0, agent(1)), InvalidInput, "atom index must be >= 1, got 0"),
    (lambda: Const("x1", agent(1)), InvalidInput, "bad atom name 'x1'"),
    (lambda: Const(1.5, C), InvalidInput, "atom index must be int or str, got float"),
    (lambda: Var(0, C), InvalidInput, "variable index must be a positive int, got 0"),
    (lambda: Var("a", C), InvalidInput, "variable index must be a positive int, got 'a'"),
    (lambda: Bang(Var(1, agent(2)), 1), SortError, "!1 needs an agent-1 operand, got sort 2"),
    (lambda: Sum(_XE, Var(2, E), E), SortError, "+ is not a primitive at sort E"),
    (lambda: Sum(_XC, _X1, C), SortError, "+ operands must both have sort C, got C and 1"),
    (lambda: App(_XE, Var(2, E), E), SortError, "* is not a primitive at sort E"),
    (lambda: App(_X1, _XC, agent(1)), SortError, "* operands must both have sort 1, got 1 and C"),
    (lambda: Tuple(()), SortError, "tuple needs at least one component"),
    (lambda: Tuple([Var(1, agent(2))]), SortError, "tuple component 1 must have sort 1, got 2"),
    (lambda: Tuple(3), TypeError, "'int' object is not iterable"),
    (lambda: Proj(0, _XE), SortError, "projection index must be >= 1, got 0"),
    (lambda: Proj(1, _XC), SortError, "pi_1 needs an E-sorted operand, got sort C"),
    (lambda: Head(_XE), SortError, "head needs a C-sorted operand, got sort E"),
    (lambda: Tail(_XE), SortError, "tail needs a C-sorted operand, got sort E"),
    (lambda: Ind(_XE, _XE), SortError, "ind needs a C-sorted first operand, got sort E"),
    (lambda: Ind(_XC, _XC), SortError, "ind needs an E-sorted second operand, got sort C"),
    (lambda: Prop(0), InvalidInput, "atom index must be >= 1, got 0"),
    (lambda: Prop("head"), InvalidInput, "bad atom name 'head'"),
    (lambda: Prop(1.0), InvalidInput, "atom index must be int or str, got float"),
    (lambda: Just(_XC, E, Prop(1)), SortError, "term has sort C, asserted at sort E"),
    (lambda: Const(1), TypeError, "Const.__init__() missing 1 required positional argument: 'sort'"),
    (lambda: Neg(), TypeError, "Neg.__init__() missing 1 required positional argument: 'body'"),
    (lambda: Box(C, Prop(1), 3), TypeError, "Box.__init__() takes 3 positional arguments but 4 were given"),
    (lambda: And(Prop(1), right=Prop(2), left=Prop(1)), TypeError,
     "And.__init__() got multiple values for argument 'left'"),
    (lambda: Imp(Prop(1), Prop(2), x=1), TypeError,
     "Imp.__init__() got an unexpected keyword argument 'x'"),
    # bool and float indices
    (lambda: Prop(True), InvalidInput, "atom index must be int or str, got bool"),
    (lambda: Var(True, C), InvalidInput, "variable index must be a positive int, got True"),
    (lambda: Const(True, agent(1)), InvalidInput, "atom index must be int or str, got bool"),
    (lambda: agent(True), SortError, "agent index must be a positive int, got True"),
    (lambda: Sort("E", False), SortError, "sort E carries no agent index"),
    (lambda: Bang(_X1, True), SortError, "agent index must be a positive int, got True"),
    (lambda: Proj(True, Tuple([_X1])), SortError, "projection index must be an int, got True"),
    (lambda: Proj(2.5, Tuple([_X1])), SortError, "projection index must be an int, got 2.5"),
]


@pytest.mark.parametrize("build, error, message", REFUSALS, ids=[row[2] for row in REFUSALS])
def test_refused_constructions_keep_their_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_print_formulas_shares_term_text():
    t = Sum(Var(1, C), App(Const(1, C), Var(2, C), C), C)
    shared = [Just(t, C, Prop(1)), Just(App(t, t, C), C, Prop(2)), Prop(3)]
    assert print_formulas(shared) == [print_formula(a) for a in shared]
    assert print_formulas(shared)[1] == (
        "[(x1@C + c1@C * x2@C) * (x1@C + c1@C * x2@C)]@C P2")


def test_print_formulas_parenthesizes_a_shared_object_per_use():
    imp = Imp(Prop(1), Prop(2))
    either = Or(Prop(1), Prop(2))
    total = Sum(Var(1, C), Var(2, C), C)
    formulas = [Imp(imp, imp), imp, And(either, either), either,
                Just(App(total, total, C), C, Prop(3)), Just(total, C, Prop(3))]
    assert print_formulas(formulas) == [
        "(P1 -> P2) -> P1 -> P2", "P1 -> P2", "(P1 | P2) & (P1 | P2)", "P1 | P2",
        "[(x1@C + x2@C) * (x1@C + x2@C)]@C P3", "[x1@C + x2@C]@C P3"]
    assert print_formulas(formulas) == [print_formula(a) for a in formulas]


@pytest.mark.parametrize("target", ["agent", "E", "C"])
def test_print_formulas_matches_print_formula_on_lifted_proofs(target):
    rng = random.Random(f"lifted:{target}")
    for _ in range(4):
        h = rng.randint(1, 3)
        d = random_derivation(rng, h, n_extra=3)
        sort = {"agent": agent(rng.randint(1, h)), "E": E, "C": C}[target]
        for order in (d, hypotheses_reversed(d)):
            _, lifted = lift(order, sort, LiftingContext.from_derivation(order),
                             ConstantAllocator(), h=h)
            formulas = list(lifted.hypotheses) + [s.formula for s in lifted.steps]
            assert print_formulas(formulas) == [print_formula(a) for a in formulas]


def test_lexeme_cache_is_bounded():
    bound = syntax._LEXEME_CACHE_SIZE
    for n in range(bound + 100):
        assert parse_term(f"k{n}@1", 2) == Const(f"k{n}", agent(1))
        assert len(syntax._LEXEMES) <= bound
    assert print_formula(parse_formula("[k1@1 + k2@1]@1 P1 -> P1", 2)) == "[k1@1 + k2@1]@1 P1 -> P1"


# ---------------------------------------------------------------------------
# the nesting cap


def _nested(construct, n):
    """(parser kind, text) nesting `construct` n levels deep, canonically
    printed, so that n = MAX_DEPTH reaches the cap exactly."""
    return {
        "~": ("formula", "~" * n + "P1"),
        "(": ("formula", "(" * n + "P1" + ")" * n),
        "!1(": ("term", "!1(" * n + "x1@1" + ")" * n),
        "[x1@1]@1": ("formula", "[x1@1]@1 " * n + "P1"),
        "#1": ("modal", "#1 " * n + "P1"),
        "&": ("formula", " & ".join(["P1"] * (n + 1))),
        "->": ("formula", " -> ".join(["P1"] * (n + 1))),
        "*(": ("term", "x1@1 * (" * (n - 1) + "x1@1 * x1@1" + ")" * (n - 1)),
        # the term inside an evidence box counts its own parentheses: n
        # around the box and MAX_DEPTH in its term, or the other way round
        "([(": ("formula", _boxed_in_parens(n, MAX_DEPTH)),
        "[((": ("formula", _boxed_in_parens(MAX_DEPTH, n)),
    }[construct]


def _boxed_in_parens(outer, inner):
    return "(" * outer + "[" + "(" * inner + "x1@1" + ")" * inner + "]@1 P1" + ")" * outer


# constructs whose parentheses build no node
_PARENS = ("(", "([(", "[((")


@pytest.mark.parametrize("construct", ["~", "(", "!1(", "[x1@1]@1", "#1", "&", "->", "*(",
                                       "([(", "[(("])
def test_nesting_at_the_cap_round_trips_and_one_more_level_is_refused(construct):
    kind, text = _nested(construct, MAX_DEPTH)
    parse = _PARSERS[kind]
    x = parse(text, 2)
    printed = print_term(x) if kind == "term" else print_formula(x)
    assert parse(printed, 2) == x
    if construct not in _PARENS:
        assert printed == text
    # every later walk of the tree recurses per level, and fits
    again = parse(text, 2)
    assert again is not x and again == x and hash(again) == hash(x)
    a = x if kind != "term" else Just(x, agent(1), Prop(1))
    if kind != "modal":
        assert deduction.is_tautology(Imp(a, a))
    holds(attack_kripke_model(), 0, a)
    # `check_size` counts as the parser does (parentheses build no node)
    syntax.check_size([x], "x")
    deeper = Sum(x, x, x.sort) if kind == "term" else Neg(x)
    if construct not in _PARENS:
        with pytest.raises(ResourceError, match=f"^x nests deeper than {MAX_DEPTH} levels$"):
            syntax.check_size([Prop(1), deeper], "x")
    kind, text = _nested(construct, MAX_DEPTH + 1)
    with pytest.raises(ResourceError, match=f"nesting deeper than {MAX_DEPTH} levels") as info:
        _PARSERS[kind](text, 2)
    if construct in _PARENS:  # refused at the parenthesis one too many
        offset = text.index("(" * (MAX_DEPTH + 1)) + MAX_DEPTH
        assert str(info.value) == f"nesting deeper than {MAX_DEPTH} levels (at offset {offset})"


def test_check_size_counts_the_printed_characters_exactly(monkeypatch):
    rng = random.Random(21)
    for k in range(40):
        h = k % 3 + 1
        term, proof = necessitate(random_theorem(rng, h), (agent(1), E, C)[k % 3], h=h)
        formulas = [*proof.hypotheses, *(s.formula for s in proof.steps)]
        # each root counts once per occurrence, shared subtrees too
        roots = [term, random_term(rng, random_sort(rng, h), h, 3), *formulas,
                 formulas[-1], parse_modal_formula("#1 (P1 -> #C ~(P2 | P3 & P1))", 2)]
        total = sum(len(print_term(x) if isinstance(x, Term) else print_formula(x)) for x in roots)
        monkeypatch.setattr(syntax, "MAX_PRINTED", total)
        syntax.check_size(roots, "x")
        monkeypatch.setattr(syntax, "MAX_PRINTED", total - 1)
        with pytest.raises(ResourceError, match=f"^x would print {total} characters, over the cap of {total - 1}$"):
            syntax.check_size(roots, "x")
