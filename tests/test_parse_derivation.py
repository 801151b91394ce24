"""Reading a derivation file as one unit: `parse_derivation` reads every line
through one `syntax.Reader`, and must give what one `parse_formula` (or
`parse_term`) call per line gives, with equal subtrees as one object."""

import random
import re
from pathlib import Path

import pytest

from jck.deduction import AxNec, parse_derivation, print_derivation
from jck.errors import JckError, ParseError, ResourceError, SortError
from jck.gen import random_derivation
from jck.syntax import MAX_DEPTH, Reader, parse_formula, parse_term, walk

from test_syntax import PARSE_ERRORS

GOLDEN = Path(__file__).parent / "golden"


def _golden_texts() -> list[tuple[str, str, int]]:
    """(label, text, h) of every derivation printed in `tests/golden/`."""
    blocks = re.split(r"^== (.*)\n", (GOLDEN / "derivations.txt").read_text(), flags=re.M)
    out = [(label, text, int(re.search(r"\bh (\d)", label).group(1)))
           for label, text in zip(blocks[1::2], blocks[2::2])]
    for name in ("lift_1.txt", "lift_C.txt", "lift_E.txt", "necessitate_E.txt"):
        lines = (GOLDEN / name).read_text().splitlines(keepends=True)
        # the CLI's default agent count, with which these were printed
        out.append((name, "".join(line for line in lines
                                  if not line.startswith(("term:", "constant "))), 2))
    return out


def _random_texts() -> list[tuple[str, str, int]]:
    rng = random.Random(12)
    return [(f"random {k}", print_derivation(random_derivation(rng, h, n_extra=rng.randint(1, 4))), h)
            for k in range(200) for h in [k % 3 + 1]]


# Lines where an arrow recorded inside parentheses, or a suffix taken from
# the wrong place, would put a wrong formula in the memo; the later lines
# repeat texts and bracketed groups the earlier ones hold, some with other
# spacing: a group inside a group, an evidence-box term restated inside
# parentheses and in a box, and a function's parentheses after a space.
TRICKY = """\
hyp: (P1 -> P2) -> P3
hyp: ~(P1 -> P2) -> P3
1. [x1@1]@1 (P1 -> P2) -> P1 -> P2 ; axiom Taut
2. P1 -> P2 ; mp 1 1
3. P2 ; mp 2 2
4. (P1 -> P2) -> P3 ; hyp 1
5. P3 ; mp 4 2
6. ~(P1 -> P2) -> (P1 -> P2) -> P3 ; axiom Taut
7. (P1 -> P2) -> P3 ; mp 6 6
8. (P1->P2)->P3 ; hyp 1
9.   (  P1 ->P2 )  ->  P3 -> ~P3  ; axiom Taut
10. P3 -> ~P3 ; mp 9 8
11. P3->~P3 ; mp 9 8
12. [x1@1 + c1@1]@1 ((P1 -> P2) -> P3) -> [x1@1]@1 (P1 -> P2) -> P3 ; axiom Taut
13. [x1@1]@1 (P1 -> P2) -> P3 ; mp 12 12
14. [c1@1]@1 (P1 -> P1) ; axnec c1@1
15. [c01@1]@1 (P01 -> P1) ; axnec c1@1
16. ( P1 -> P2 ) -> ((P1 -> P2)) ; axiom Taut
17. [x1@1 + c1@1]@1 (P3 -> P3) ; axiom Taut
18. [c1@1 * (x1@1 + c1@1)]@1 [x1@1 + c1@1]@1 (P3->P3) ; axiom Taut
19. [x1@C]@C P1 -> [head (x1@C)]@E P1 -> [pi_1(head(x1@C))]@1 P1 ; axiom Taut
20. [pi_1 (head (x1@C))]@1 ~(P1 & ((P1 -> P2) | P3)) ; axiom Taut
21. [c1@1 * (x1@1 + c1@1)]@1 ((P1 -> P2) | P3) ; axiom Taut
"""


def _per_line(text: str, h: int):
    """Every formula of `text` and every axnec constant, each read by its own
    `parse_formula` or `parse_term` call."""
    formulas, constants = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("hyp:"):
            formulas.append(parse_formula(line[len("hyp:"):].strip(), h))
            continue
        formula, rule = re.match(r"\d+\.\s*(.*)\Z", line).group(1).split(";", 1)
        formulas.append(parse_formula(formula.strip(), h))
        if rule.split()[0] == "axnec":
            constants.append(parse_term(rule.split()[1], h))
    return formulas, constants


def _objects(d) -> list:
    """Every term and formula object of `d`, its axnec constants included."""
    return walk([*d.hypotheses, *(s.formula for s in d.steps),
                 *(s.rule.constant for s in d.steps if isinstance(s.rule, AxNec))])


def _failure(read) -> tuple | None:
    """(class, message, offset) of what `read()` raises, or None."""
    try:
        read()
    except JckError as e:
        return type(e), str(e), getattr(e, "position", None)
    return None


def _same_as_per_line(label: str, text: str, h: int) -> bool:
    """`parse_derivation(text, h)` gives the formulas and constants one
    parse per line gives, each equal subtree one object, and True; or,
    where a line fails, it fails as that line's own parse does, in class,
    message and offset, and False."""
    try:
        formulas, constants = _per_line(text, h)
    except JckError as e:
        expected = type(e), str(e), getattr(e, "position", None)
        assert _failure(lambda: parse_derivation(text, h)) == expected, label
        return False
    d = parse_derivation(text, h)
    assert [*d.hypotheses, *(s.formula for s in d.steps)] == formulas, label
    assert [s.rule.constant for s in d.steps if isinstance(s.rule, AxNec)] == constants, label
    # `walk` lists distinct objects; no two of them are equal
    objects = _objects(d)
    assert len(set(objects)) == len(objects), label
    return True


@pytest.mark.parametrize("texts", [_golden_texts, _random_texts, lambda: [("tricky", TRICKY, 1)]],
                         ids=["golden", "random", "tricky"])
def test_equals_a_per_line_parse_and_shares_equal_subtrees(texts):
    for label, text, h in texts():
        assert _same_as_per_line(label, text, h), label


def _deep_texts() -> list[tuple[str, str, int]]:
    """Derivations whose last line holds a group an earlier line completed,
    at the edge of the caps: the group's `(` at parenthesis nesting 248 to
    251 (one more level opens inside it), in a formula and in an evidence
    box's term; the group under operators that bring the line's depth to
    249-252, in a formula, in a term, and where the group is the text of the
    line before; and 200 to 250 groups side by side, a line of more than
    `MAX_DEPTH` parentheses but few open at once, up to depth 251."""
    out = []
    group = "~(P1 & P2)"
    term = "x1@1 + (c1@1 * x1@1)"
    for n in range(248, 252):
        out.append((f"formula group at nesting {n}",
                    f"1. ({group}) -> P3 ; axiom Taut\n"
                    f"2. {'(' * (n - 1)}({group}){')' * (n - 1)} ; axiom Taut\n", 1))
        out.append((f"term group at nesting {n}",
                    f"1. [{term}]@1 P3 ; axiom Taut\n"
                    f"2. [{'(' * (n - 1)}({term}){')' * (n - 1)}]@1 P3 ; axiom Taut\n", 1))
    # more than MAX_DEPTH parentheses, few open at once, in groups side by side
    for k in (200, MAX_DEPTH - 1, MAX_DEPTH):
        out.append((f"{k} groups side by side",
                    "1. ((P1 -> P2) | P3) -> P4 ; axiom Taut\n"
                    f"2. {' & '.join(['((P1 -> P2) | P3)'] * k)} ; axiom Taut\n", 1))
    # 100 deep each, with no parentheses; `*` associates to the left
    inner = "~" * 100 + "P1"
    chain = "x1@1" + " * x1@1" * 100
    for depth in range(MAX_DEPTH - 1, MAX_DEPTH + 3):
        out.append((f"formula group at depth {depth}",
                    f"1. ({inner}) -> P2 ; axiom Taut\n"
                    f"2. {'~' * (depth - 100)}({inner}) ; axiom Taut\n", 1))
        out.append((f"restated line at depth {depth}",
                    f"1. {inner} ; axiom Taut\n"
                    f"2. {'~' * (depth - 100)}({inner}) ; axiom Taut\n", 1))
        # the box adds one level over its term
        out.append((f"term group at depth {depth}",
                    f"1. [{chain}]@1 P2 ; axiom Taut\n"
                    f"2. [({chain}){' * x1@1' * (depth - 101)}]@1 P2 ; axiom Taut\n", 1))
    return out


def test_groups_at_the_nesting_and_depth_caps_read_as_one_parse_per_line():
    outcomes = {_same_as_per_line(label, text, h) for label, text, h in _deep_texts()}
    assert outcomes == {True, False}  # both sides of each cap are read


def test_restated_texts_are_looked_up_not_parsed():
    r = Reader(1)
    a = r.formula("(P1 -> P2) -> P3 -> ~(P1 -> P2)")
    # the text after each `->` outside parentheses, and nothing else
    assert r.texts == {"(P1 -> P2) -> P3 -> ~(P1 -> P2)": a,
                       "P3 -> ~(P1 -> P2)": a.right, "~(P1 -> P2)": a.right.right}
    assert r.formula("P3 -> ~(P1 -> P2)") is a.right
    # another spelling is parsed, into the same object
    assert r.formula("~( P1->P2 )") is a.right.right
    assert r.formula("P1 -> P2") is a.left
    assert r.term("c01@1") is r.term("c1@1")


def test_groups_are_held_by_language_and_read_as_one_operand():
    r = Reader(1)
    text = "[c1@1 * (x1@1 + c1@1)]@1 (P1 -> P2)"
    a = r.formula(text)
    # (language, inner text) -> (node, depth), the language True for a term
    assert r.groups == {(True, "x1@1 + c1@1"): (a.term.s, 1),
                        (True, "c1@1 * (x1@1 + c1@1)"): (a.term, 2),
                        (False, "P1 -> P2"): (a.body, 1), (False, text): (a, 3)}
    again = "[(x1@1 + c1@1) * c1@1]@1 (P1 -> P2) & ~(P1 -> P2)"
    spans = [again[start:end] for start, end, _ in r._held(again)]
    assert spans == ["x1@1 + c1@1", "P1 -> P2", "P1 -> P2"]
    b = r.formula(again)
    assert b.left.term.t is a.term.s and b.left.body is a.body and b.right.body is a.body


# every pinned parse error, on a line read after several memo hits
_HITS = """\
hyp: P1 -> P2 -> P1
1. P1 -> P2 -> P1 ; hyp 1
2. P2 -> P1 ; axiom Taut
3. P2 -> P1 ; mp 1 1
4. P1 ; mp 3 3
"""


@pytest.mark.parametrize("kind, text, message",
                         [e for e in PARSE_ERRORS if e[0] == "formula"])
def test_a_bad_line_after_memo_hits_raises_the_per_line_error(kind, text, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text.strip(), 2)
    if text == text.strip():
        assert str(info.value) == message
    with pytest.raises(ParseError) as again:
        parse_derivation(_HITS + f"5. {text} ; axiom Taut\n", 2)
    assert str(again.value) == str(info.value)


# the groups `P1 -> P2`, `[c1@1]@1 P1` and `x1@1 + c1@1`, held for the lines
# below, each of which fails around one of them
_GROUPS = """\
1. (P1 -> P2) -> ([c1@1]@1 P1) -> P3 ; axiom Taut
2. [x1@1 + c1@1]@1 P3 ; axiom Taut
"""
BAD_AROUND_GROUPS = [
    "[x1@1 * (P1 -> P2)",  # a formula group where the unclosed box reads a term
    "[c1@1 * ([c1@1]@1 P1)",  # the same, with a node that has a sort
    "(P1 -> P2]",
    "[x1@1 (P1 -> P2]",
    "((P1 -> P2)",
    "(P1 -> P2)) -> P3",
    "[(x1@1 + c1@1)]@1 (P1 -> P2) (P1 -> P2)",
    "[c1@1 * (x1@1 + c1@1)]@C (P1 -> P2)",
    "[head (x1@1 + c1@1)]@E (P1 -> P2)",
    "(P1 -> P2) -> (P1 -> P2) & $",
]


@pytest.mark.parametrize("bad", BAD_AROUND_GROUPS)
def test_a_bad_line_around_held_groups_fails_as_one_parse(bad):
    r = Reader(1)
    for line in _GROUPS.splitlines():
        r.formula(line[3:].split(" ; ")[0])
    assert r._held(bad)
    assert not _same_as_per_line(bad, _GROUPS + f"3. {bad} ; axiom Taut\n", 1)


def test_a_line_over_the_nesting_cap_after_memo_hits_raises_as_one_parse():
    deep = "~" * (MAX_DEPTH + 1) + "P1"
    with pytest.raises(ResourceError) as info:
        parse_formula(deep, 2)
    with pytest.raises(ResourceError) as again:
        parse_derivation(_HITS + f"5. {deep} ; axiom Taut\n", 2)
    assert str(again.value) == str(info.value)
    # at the cap, the line reads, and so does its restated consequent
    below = "~" * (MAX_DEPTH - 1) + "P1"
    d = parse_derivation(_HITS + f"5. P1 -> {below} ; axiom Taut\n6. {below} ; mp 5 4\n", 2)
    assert d.steps[5].formula is d.steps[4].formula.right


def test_a_failing_parse_stores_nothing_in_the_memo():
    r = Reader(2)
    a = r.formula("P1 -> P2 -> P3")
    r.formula("(P1 & P2) -> [x1@1 * (c1@1 + x1@1)]@1 P3")
    tables = [dict(r.texts), dict(r.groups), dict(r.nodes)]
    for bad in ("P1 -> P2 ->", "P1 -> (P2 -> P3", "P1 -> P2 -> P3 P4", "P4 -> P2 -> [x1@3]@1 P3",
                "~" * (MAX_DEPTH + 1) + "P1",
                # groups completed, some around held ones, before the text fails
                "(P4 | P5) -> [c2@2 * (x2@2 + c2@2)]@2 (P1 & P2) -> (P1 & P2) & P4 ->",
                "[x1@1 * (c1@1 + x1@1)]@1 (P6 -> (P1 & P2)) -> [(x2@2 * c2@2)]@1 P3",
                "((P1 & P2) | (P7 -> P7)) -> " + "~" * MAX_DEPTH + "(P1 & P2)",
                "(P4 | P5) -> [c2@2 * (x2@2 + c2@2)]@2 P1 P2"):
        with pytest.raises((ParseError, ResourceError, SortError)):
            r.formula(bad)
        assert [r.texts, r.groups, r.nodes] == tables, bad
    assert r.formula("P2 -> P3") is a.right


def test_two_calls_share_no_node():
    # sorts are interned for the whole process and are not nodes of a walk
    for label, text, h in _golden_texts()[::7] + [("tricky", TRICKY, 1)]:
        first, second = parse_derivation(text, h), parse_derivation(text, h)
        assert first == second
        assert {id(x) for x in _objects(first)}.isdisjoint(id(x) for x in _objects(second))
