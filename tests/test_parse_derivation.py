"""Reading a derivation file as one unit: `parse_derivation` reads every line
through one `syntax.Reader`, and must give what one `parse_formula` (or
`parse_term`) call per line gives, with equal subtrees as one object."""

import random
import re
from pathlib import Path

import pytest

from jck.deduction import AxNec, parse_derivation, print_derivation
from jck.errors import ParseError, ResourceError
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
# repeat texts the earlier ones hold, some with other spacing.
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


@pytest.mark.parametrize("texts", [_golden_texts, _random_texts, lambda: [("tricky", TRICKY, 1)]],
                         ids=["golden", "random", "tricky"])
def test_equals_a_per_line_parse_and_shares_equal_subtrees(texts):
    for label, text, h in texts():
        d = parse_derivation(text, h)
        formulas, constants = _per_line(text, h)
        assert [*d.hypotheses, *(s.formula for s in d.steps)] == formulas, label
        assert [s.rule.constant for s in d.steps if isinstance(s.rule, AxNec)] == constants, label
        # `walk` lists distinct objects; no two of them are equal
        objects = _objects(d)
        assert len(set(objects)) == len(objects), label


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
    memo = dict(r.texts)
    for bad in ("P1 -> P2 ->", "P1 -> (P2 -> P3", "P1 -> P2 -> P3 P4", "P4 -> P2 -> [x1@3]@1 P3",
                "~" * (MAX_DEPTH + 1) + "P1"):
        with pytest.raises((ParseError, ResourceError)):
            r.formula(bad)
        assert r.texts == memo
    assert r.formula("P2 -> P3") is a.right


def test_two_calls_share_no_node():
    # sorts are interned for the whole process and are not nodes of a walk
    for label, text, h in _golden_texts()[::7] + [("tricky", TRICKY, 1)]:
        first, second = parse_derivation(text, h), parse_derivation(text, h)
        assert first == second
        assert {id(x) for x in _objects(first)}.isdisjoint(id(x) for x in _objects(second))
