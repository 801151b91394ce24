"""Hilbert-style derivations and the acceptance kernel.

A derivation is a list of hypotheses followed by numbered steps; every step is
a hypothesis reference, an axiom-schema instance, a modus-ponens combination of
two earlier steps, or the necessitation of a constant-specification member.
`check_derivation` is the single arbiter of correctness: everything the
synthesis layer produces is routed back through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import InvalidInput, ParseError, ResourceError, quoted
from .syntax import (
    And, App, Bang, Box, C, Const, E, Formula, Head, Imp, Ind, Just, Neg, Or,
    Proj, Prop, Reader, Sort, Sum, Tail, Term, Tuple, bound_problems,
    conjuncts, integer, print_formula, print_formulas, print_term, walk,
)


class AxiomSchema(Enum):
    TAUT = "Taut"
    APP = "App"
    SUML = "SumL"
    SUMR = "SumR"
    REFL = "Refl"
    INSP = "Insp"
    TUPLING = "Tupling"
    PROJ = "Proj"
    COCLOSHEAD = "CoClosHead"
    COCLOSTAIL = "CoClosTail"
    INDUCTION = "Induction"


# schemata whose instances stay inside the single-agent fragment
AGENT_FRAGMENT_SCHEMATA = frozenset({
    AxiomSchema.TAUT, AxiomSchema.APP, AxiomSchema.SUML, AxiomSchema.SUMR,
    AxiomSchema.REFL, AxiomSchema.INSP,
})


def is_agent_fragment(nodes: list[Term | Formula]) -> bool:
    """True when every node of `nodes`, as `walk` lists them, belongs to the
    single-agent language: no modal box, and no E- or C-sorted term or
    assertion."""
    for x in nodes:
        cls = x.__class__
        if cls is Box or ((cls is Just or isinstance(x, Term)) and not x.sort.is_agent):
            return False
    return True


# ---------------------------------------------------------------------------
# tautology checking


# The most atoms a truth table is evaluated over; more raise ResourceError.
MAX_ATOMS = 24

# Atoms evaluated side by side: row r of a chunk's truth table is bit r of
# an int, so a chunk covers 2**_CHUNK_ATOMS rows.
_CHUNK_ATOMS = 14


def _row_masks(width: int) -> tuple[int, ...]:
    """One mask per atom over the 2**width rows: bit r of mask k is bit k
    of r.  Each is a block of 2**k zeros and 2**k ones, doubled by shifts."""
    masks = []
    for k in range(width):
        block, size = ((1 << (1 << k)) - 1) << (1 << k), 2 << k
        while size < 1 << width:
            block |= block << size
            size <<= 1
        masks.append(block)
    return tuple(masks)


_ROWS = [_row_masks(width) for width in range(_CHUNK_ATOMS + 1)]


def _number_atoms(a: Formula, atoms: dict[Formula, int], slot: dict[int, int]) -> None:
    # maximal justified assertions count as opaque atoms; `slot` maps each
    # atom occurrence, by identity, to its atom's number, so evaluation
    # never hashes a formula.  Exact class tests: these two walks are the
    # kernel's innermost loop.
    cls = a.__class__
    if cls is Prop or cls is Just:
        slot[id(a)] = atoms.setdefault(a, len(atoms))
    elif cls is Neg:
        _number_atoms(a.body, atoms, slot)
    elif cls is And or cls is Or or cls is Imp:
        _number_atoms(a.left, atoms, slot)
        _number_atoms(a.right, atoms, slot)
    else:
        raise InvalidInput(f"not a formula: {a!r}")


def _rows_true(a: Formula, slot: dict[int, int], values, full: int) -> int:
    """The rows where `a` holds, as a mask, given each atom's mask."""
    cls = a.__class__
    if cls is Prop or cls is Just:
        return values[slot[id(a)]]
    if cls is Neg:
        return full ^ _rows_true(a.body, slot, values, full)
    left = _rows_true(a.left, slot, values, full)
    right = _rows_true(a.right, slot, values, full)
    if cls is Imp:
        return (full ^ left) | right
    return left & right if cls is And else left | right


def check_atom_count(n: int) -> None:
    """Raise ResourceError when a truth table over `n` atoms is over the cap."""
    if n > MAX_ATOMS:
        raise ResourceError(f"{n} propositional atoms exceed the cap of {MAX_ATOMS}")


# Memoized by formula; one proofs pass of the benchmark makes about 1,400
# misses, an attack pass about 3,700.  A raised ResourceError is not stored.
@lru_cache(maxsize=4096)
def is_tautology(a: Formula) -> bool:
    """Exhaustive valuation over the formula's atoms.

    Maximal justified assertions are treated as opaque atoms.  The truth
    table is evaluated a chunk at a time over int bitmasks, row r as bit r:
    the first 14 atoms vary inside a chunk, each later atom is held constant
    per chunk, and the first chunk with a false row decides.  Raises
    ResourceError when the atom count exceeds `MAX_ATOMS`.
    """
    atoms: dict[Formula, int] = {}
    slot: dict[int, int] = {}
    _number_atoms(a, atoms, slot)
    n = len(atoms)
    check_atom_count(n)
    if n <= _CHUNK_ATOMS:  # one chunk holds the whole table
        full = (1 << (1 << n)) - 1
        return _rows_true(a, slot, _ROWS[n], full) == full
    full = (1 << (1 << _CHUNK_ATOMS)) - 1
    rows = list(_ROWS[_CHUNK_ATOMS])
    high = range(n - _CHUNK_ATOMS)
    for chunk in range(1 << len(high)):
        values = rows + [full if chunk >> j & 1 else 0 for j in high]
        if _rows_true(a, slot, values, full) != full:
            return False
    return True


# ---------------------------------------------------------------------------
# axiom schemata


# the schemata of the unary evidence operators, and whether each one's
# conclusion justifies the whole premise or only the premise's body
_UNARY = {
    Bang: (AxiomSchema.INSP, True),         # [t]@i A -> [!i(t)]@i [t]@i A
    Proj: (AxiomSchema.PROJ, False),        # [t]@E A -> [pi_i(t)]@i A
    Head: (AxiomSchema.COCLOSHEAD, False),  # [t]@C A -> [head(t)]@E A
    Tail: (AxiomSchema.COCLOSTAIL, True),   # [t]@C A -> [tail(t)]@E [t]@C A
}


def _structural_schemata(a: Formula) -> set[AxiomSchema]:
    """Every structural schema `a` instantiates.  Each one but Refl is known
    by the evidence operator at the head of its conclusion's term, so one
    dispatch on that operator picks the only candidates to check.  Sorts are
    not tested again, except Refl's agent sort: the node constructors fix
    every other sort once the terms below are equal."""
    out: set[AxiomSchema] = set()
    if not isinstance(a, Imp):
        return out
    pre, post = a.left, a.right
    boxed = isinstance(pre, Just)
    if boxed and pre.sort.is_agent and pre.body == post:
        # [t]@i A -> A
        out.add(AxiomSchema.REFL)
    if isinstance(post, Imp):
        # [t]@*(A -> B) -> ([s]@* A -> [t*s]@* B)
        minor, concl = post.left, post.right
        if (boxed and isinstance(pre.body, Imp) and isinstance(minor, Just)
                and isinstance(concl, Just) and isinstance(concl.term, App)
                and concl.term.t == pre.term and concl.term.s == minor.term
                and pre.body.left == minor.body and pre.body.right == concl.body):
            out.add(AxiomSchema.APP)
        return out
    if not isinstance(post, Just):
        return out
    term = post.term
    op = term.__class__
    if op is Tuple:
        # [t1]@1 A & ... & [th]@h A -> [<t1,...,th>]@E A  (any conjunction shape)
        items = term.items
        parts = conjuncts(pre)
        if len(parts) == len(items) and all(
                isinstance(part, Just) and part.term == item
                and part.body == post.body for part, item in zip(parts, items)):
            out.add(AxiomSchema.TUPLING)
    elif op is Ind:
        # A & [t]@C (A -> [s]@E A) -> [ind(t,s)]@C A
        a0 = post.body
        if isinstance(pre, And) and pre == And(a0, Just(term.t, C, Imp(a0, Just(term.s, E, a0)))):
            out.add(AxiomSchema.INDUCTION)
    elif not boxed:
        pass  # each schema left has a justified premise
    elif op is Sum:
        # [t]@* A -> [t+s]@* A   /   [s]@* A -> [t+s]@* A
        if pre.body == post.body:
            if term.t == pre.term:
                out.add(AxiomSchema.SUML)
            if term.s == pre.term:
                out.add(AxiomSchema.SUMR)
    elif op in _UNARY:
        schema, boxes_premise = _UNARY[op]
        if term.t == pre.term and post.body == (pre if boxes_premise else pre.body):
            out.add(schema)
    return out


def _box_free(nodes: list[Term | Formula]) -> bool:
    """No modal `Box` among `nodes`, as `walk` lists them."""
    return not any([x.__class__ is Box for x in nodes])


def match_axiom(a: Formula) -> frozenset[AxiomSchema]:
    """Every schema this formula instantiates.  Overlaps are possible.  A
    formula with a modal box instantiates none: the evidence language has
    no box, so no axiom instance contains one.  Nor does a lone atom, a
    proposition or a justified assertion: every structural schema is an
    implication, and the truth table makes a lone atom false in some row;
    atoms are answered at once and never stored in `_schemata`'s memo."""
    if isinstance(a, (Prop, Just)):
        return frozenset()
    return _schemata(a)


# Memoized by formula, as `is_tautology` is: one proofs pass of the benchmark
# asks 1,563 times for 750 formulas; every one of an attack pass's 10,884
# calls is on a lone atom, which never reaches it.
@lru_cache(maxsize=4096)
def _schemata(a: Formula) -> frozenset[AxiomSchema]:
    boxless = _box_free(walk([a], terms=False))
    found = _structural_schemata(a) if boxless else set()
    if boxless and is_tautology(a):
        found.add(AxiomSchema.TAUT)
    return frozenset(found)


def is_axiom(a: Formula) -> bool:
    return bool(match_axiom(a))


# ---------------------------------------------------------------------------
# constant specifications


@dataclass(frozen=True)
class ConstantSpecification:
    """Which constants are declared to justify which axiom instances: the
    (constant index, sort, formula) `members` given outright, or, when
    `members` is None, the total specification, in which every C-sorted
    constant justifies every axiom instance."""

    members: frozenset[tuple[int | str, Sort, Formula]] | None = None

    @classmethod
    def total_c(cls) -> "ConstantSpecification":
        return cls()

    @classmethod
    def extensional(cls, members, validate: bool = True) -> "ConstantSpecification":
        members = frozenset(members)
        if validate:
            for idx, sort, a in members:
                if not is_axiom(a):
                    raise InvalidInput(f"not an axiom instance: {print_formula(a)}")
        return cls(members)

    def contains(self, c: Term, a: Formula) -> bool:
        """Whether the pair (c, a) is a member; only constants are."""
        if not isinstance(c, Const):
            return False
        if self.members is None:
            return c.sort == C and is_axiom(a)
        return (c.index, c.sort, a) in self.members

    def pairs(self):
        """Iterate the members given outright, as (constant, formula) pairs."""
        for idx, sort, a in self.members or ():
            yield Const(idx, sort), a

    def within(self, terms, formulas):
        """Iterate the (constant, formula) members with the constant among
        `terms` and the formula among `formulas`.  Under the total
        specification the formulas are tested only when a C-sorted constant
        is among the terms."""
        if self.members is None:
            consts = [c for c in terms if isinstance(c, Const) and c.sort == C]
            if consts:
                axioms = [a for a in formulas if is_axiom(a)]
                for c in consts:
                    for a in axioms:
                        yield c, a
        else:
            for c, a in self.pairs():
                if c in terms and a in formulas:
                    yield c, a


# ---------------------------------------------------------------------------
# derivations


@dataclass(frozen=True)
class Hyp:
    index: int  # 1-based position in the hypothesis list


@dataclass(frozen=True)
class Axiom:
    schema: AxiomSchema


@dataclass(frozen=True)
class MP:
    i: int  # earlier step proving X -> Y
    j: int  # earlier step proving X


@dataclass(frozen=True)
class AxNec:
    constant: Const


Rule = Hyp | Axiom | MP | AxNec


@dataclass(frozen=True)
class Step:
    formula: Formula
    rule: Rule


@dataclass(frozen=True)
class Derivation:
    hypotheses: tuple[Formula, ...]
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise InvalidInput("a derivation needs at least one step")

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula


class Builder:
    """Assembles a derivation step by step, the one way every construction
    here numbers steps.  Each method appends and returns the new step's
    1-based index, as written in derivation files."""

    def __init__(self, hypotheses: tuple[Formula, ...] = ()):
        self.hypotheses = tuple(hypotheses)
        self.steps: list[Step] = []

    def emit(self, formula: Formula, rule: Rule) -> int:
        """Append a step as given, with no check."""
        self.steps.append(Step(formula, rule))
        return len(self.steps)

    def formula(self, k: int) -> Formula:
        return self.steps[k - 1].formula

    def hyp(self, index: int) -> int:
        return self.emit(self.hypotheses[index - 1], Hyp(index))

    def axiom(self, schema: AxiomSchema, formula: Formula) -> int:
        return self.emit(formula, Axiom(schema))

    def axnec(self, constant: Const, body: Formula) -> int:
        return self.emit(Just(constant, constant.sort, body), AxNec(constant))

    def mp(self, i: int, j: int) -> int:
        major = self.formula(i)
        if not isinstance(major, Imp) or major.left != self.formula(j):
            raise InvalidInput("builder misuse: steps do not compose under modus ponens")
        return self.emit(major.right, MP(i, j))

    def include(self, d: Derivation) -> int:
        """Splice a hypothesis-free derivation in; returns its conclusion's index."""
        if d.hypotheses:
            raise InvalidInput("can only include hypothesis-free derivations")
        offset = len(self.steps)
        for step in d.steps:
            rule = step.rule
            if isinstance(rule, MP):
                rule = MP(rule.i + offset, rule.j + offset)
            self.steps.append(Step(step.formula, rule))
        return len(self.steps)

    def by_taut(self, premises: list[int], target: Formula) -> int:
        """Close a propositional gap: premises F1..Fn entail `target`.

        Emits the curried tautology F1 -> (F2 -> ... -> target) and peels it
        with one modus ponens per premise.  The kernel verifies the tautology.
        """
        curried = target
        for k in reversed(premises):
            curried = Imp(self.formula(k), curried)
        at = self.axiom(AxiomSchema.TAUT, curried)
        for k in premises:
            at = self.mp(at, k)
        return at

    def build(self) -> Derivation:
        return Derivation(self.hypotheses, tuple(self.steps))


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    step: int | None = None  # 1-based index of first failing step
    status: str = "ok"       # ok | BadHypIndex | NotAnAxiom | BadMP | NotInCS | NotInFragment | IllFormed
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_derivation(d: Derivation, cs: ConstantSpecification,
                     h: int | None = None, fragment: str = "full") -> CheckReport:
    """Accept or reject a derivation; the first failing step wins.

    With `h` given, every step formula is additionally screened for agent
    bounds and tuple arity.  `fragment="agent"` restricts steps to the
    single-agent language and to the schemata available there.
    """
    if fragment not in ("full", "agent"):
        raise InvalidInput(f"unknown fragment {fragment!r}")

    def fail(k, status, message):
        return CheckReport(False, k, status, message)

    # ids of the nodes of every step screened so far; each screen below
    # judges each node alone, and all of them passed every node in the set
    screened: set[int] = set()
    for k, step in enumerate(d.steps, start=1):
        f = step.formula
        rule = step.rule
        # a modus-ponens conclusion is a subformula of an earlier, screened
        # step
        if not isinstance(rule, MP):
            nodes = walk([f], screened)
            if not _box_free(nodes):
                return fail(k, "IllFormed", f"step formula has a modal box: {print_formula(f)}")
            problems = [] if h is None else bound_problems(nodes, h)
            if problems:
                return fail(k, "IllFormed", problems[0])
            if fragment == "agent" and not is_agent_fragment(nodes):
                return fail(k, "NotInFragment", f"step formula leaves the single-agent fragment: {print_formula(f)}")
        if isinstance(rule, Hyp):
            if not 1 <= rule.index <= len(d.hypotheses):
                return fail(k, "BadHypIndex", f"no hypothesis {rule.index}")
            if d.hypotheses[rule.index - 1] != f:
                return fail(k, "BadHypIndex", f"step formula differs from hypothesis {rule.index}")
        elif isinstance(rule, Axiom):
            if fragment == "agent" and rule.schema not in AGENT_FRAGMENT_SCHEMATA:
                return fail(k, "NotAnAxiom", f"schema {rule.schema.value} unavailable in the single-agent fragment")
            try:
                ok = (is_tautology(f) if rule.schema == AxiomSchema.TAUT
                      else rule.schema in _structural_schemata(f))
            except ResourceError as e:
                return fail(k, "NotAnAxiom", str(e))
            if not ok:
                return fail(k, "NotAnAxiom", f"not an instance of {rule.schema.value}: {print_formula(f)}")
        elif isinstance(rule, MP):
            if not (1 <= rule.i < k and 1 <= rule.j < k):
                return fail(k, "BadMP", f"premise indices {rule.i}, {rule.j} must point at earlier steps")
            major = d.steps[rule.i - 1].formula
            minor = d.steps[rule.j - 1].formula
            if not isinstance(major, Imp) or major.left != minor or major.right != f:
                return fail(k, "BadMP", f"steps {rule.i} and {rule.j} do not yield this formula")
        elif isinstance(rule, AxNec):
            c = rule.constant
            if not (isinstance(f, Just) and f.term == c):
                return fail(k, "NotInCS", "step formula is not the boxed form of its constant")
            if not cs.contains(c, f.body):
                return fail(k, "NotInCS",
                            f"({print_term(c)}, {print_formula(f.body)}) not in the constant specification")
        else:
            return fail(k, "IllFormed", f"unknown rule {rule!r}")
    return CheckReport(True)


# ---------------------------------------------------------------------------
# deduction theorem


def deduction_theorem(d: Derivation, hypothesis: Formula, cs: ConstantSpecification) -> Derivation:
    """Discharge one hypothesis: from D proving B, produce a proof of A -> B.

    The usual Hilbert transformation: hypothesis occurrences of A become the
    tautology A -> A, other leaves F are prefixed with F -> (A -> F), and each
    modus ponens is replayed through the composition tautology.
    """
    if hypothesis not in d.hypotheses:
        raise InvalidInput("the designated hypothesis does not occur in the derivation")
    report = check_derivation(d, cs)
    if not report.ok:
        raise InvalidInput(f"input derivation rejected at step {report.step}: {report.message}")

    a = hypothesis
    kept = [f for f in d.hypotheses if f != a]
    new_index = {f: i for i, f in enumerate(kept, start=1)}
    b = Builder(kept)
    mapped: dict[int, int] = {}  # old step -> new step proving A -> F
    for k, step in enumerate(d.steps, start=1):
        f = step.formula
        rule = step.rule
        if f == a:
            mapped[k] = b.axiom(AxiomSchema.TAUT, Imp(a, a))
        elif isinstance(rule, MP):
            mapped[k] = b.by_taut([mapped[rule.i], mapped[rule.j]], Imp(a, f))
        else:
            base = b.hyp(new_index[f]) if isinstance(rule, Hyp) else b.emit(f, rule)
            mapped[k] = b.by_taut([base], Imp(a, f))
    return b.build()


# ---------------------------------------------------------------------------
# derivation files

_STEP_RE = re.compile(r"(\d+)\.\s*(.*)\Z")


def print_derivation(d: Derivation) -> str:
    # one term memo for the whole derivation: a lifted proof's steps share
    # their evidence terms
    texts = print_formulas(list(d.hypotheses) + [step.formula for step in d.steps])
    lines = [f"hyp: {text}" for text in texts[:len(d.hypotheses)]]
    for k, (step, text) in enumerate(zip(d.steps, texts[len(d.hypotheses):]), start=1):
        rule = step.rule
        if isinstance(rule, Hyp):
            tail = f"hyp {rule.index}"
        elif isinstance(rule, Axiom):
            tail = f"axiom {rule.schema.value}"
        elif isinstance(rule, MP):
            tail = f"mp {rule.i} {rule.j}"
        else:
            tail = f"axnec {print_term(rule.constant)}"
        lines.append(f"{k}. {text} ; {tail}")
    return "\n".join(lines) + "\n"


_SCHEMA_BY_ID = {s.value: s for s in AxiomSchema}


def parse_derivation(text: str, h: int) -> Derivation:
    """Read the derivation file format: `hyp:` lines first, then numbered
    steps.  One `Reader` reads every formula and constant of the file, so
    equal subformulas on different lines are one object, and a formula whose
    text an earlier line already held (a restated consequent) is not parsed
    again; the reader's tables and memo end with the call."""
    reader = Reader(h)
    hypotheses: list[Formula] = []
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("hyp:"):
            if steps:
                raise ParseError(f"line {lineno}: hypotheses must precede all steps")
            hypotheses.append(reader.formula(line[len("hyp:"):].strip()))
            continue
        m = _STEP_RE.match(line)
        if m is None:
            raise ParseError(f"line {lineno}: expected `<k>. <formula> ; <rule>`")
        k = integer(m.group(1), f"line {lineno}: step number")
        if k != len(steps) + 1:
            raise ParseError(f"line {lineno}: step number {k}, expected {len(steps) + 1}")
        body = m.group(2)
        if ";" not in body:
            raise ParseError(f"line {lineno}: missing `; <rule>`")
        formula_text, rule_text = body.split(";", 1)
        formula = reader.formula(formula_text.strip())
        parts = rule_text.strip().split()
        if not parts:
            raise ParseError(f"line {lineno}: empty rule")
        name = parts[0]
        if name == "hyp" and len(parts) == 2:
            rule: Rule = Hyp(integer(parts[1], f"line {lineno}: hypothesis index"))
        elif name == "axiom" and len(parts) == 2:
            schema = _SCHEMA_BY_ID.get(parts[1])
            if schema is None:
                raise ParseError(f"line {lineno}: unknown schema {quoted(parts[1])}")
            rule = Axiom(schema)
        elif name == "mp" and len(parts) == 3:
            rule = MP(integer(parts[1], f"line {lineno}: step index"),
                      integer(parts[2], f"line {lineno}: step index"))
        elif name == "axnec" and len(parts) == 2:
            const = reader.term(parts[1])
            if not isinstance(const, Const):
                raise ParseError(f"line {lineno}: axnec needs a constant, got {quoted(parts[1])}")
            rule = AxNec(const)
        else:
            raise ParseError(f"line {lineno}: cannot read rule {quoted(rule_text.strip())}")
        steps.append(Step(formula, rule))
    if not steps:
        raise ParseError("no steps found")
    return Derivation(tuple(hypotheses), tuple(steps))
