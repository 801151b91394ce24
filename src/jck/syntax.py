"""Sorted evidence terms and formulas.

Terms are sorted: each belongs either to a single agent `1..h`, to the
mutual-evidence sort `E`, or to the common-evidence sort `C`.  The binary
operations `+` and `*` exist only at agent sorts and at `C`; pooled evidence at
`E` is built with tupling instead.  Every node validates its own sorting
constraint at construction time, so a `Term` or `Formula` object that exists is
well sorted.

Concrete grammar (whitespace insensitive):

    term     :=  sum
    sum      :=  app ('+' app)*
    app      :=  atom ('*' atom)*
    atom     :=  x<k>@<sort> | c<k>@<sort> | <name>@<sort>
              |  !<i>(term) | pi_<i>(term) | head(term) | tail(term)
              |  ind(term, term) | '<' term (',' term)* '>' | '(' term ')'
    formula  :=  imp ;  imp := or ('->' imp)? ; or := and ('|' and)*
    and      :=  unary ('&' unary)* ;  unary := '~' unary | just | fatom
    just     :=  '[' term ']' '@' <sort> unary
    fatom    :=  P<k> | <name> | '(' formula ')'
    sort     :=  1..h | E | C

`->` is right associative; `&` and `|` associate to the left and bind tighter
than `|` and `->` respectively.  Indexed atoms (`x1@C`, `c2@1`, `P3`) are the
canonical spelling; bare lowercase names are also accepted as constants and
propositions so scenario fixtures can use speaking names like `m1@2` or `del`.

The modal language is the same tree with every evidence term erased: a
`Box(sort, body)`, written `'#' <sort> unary`, stands where a justified
assertion would.  The parser reads it in place of `just` when its `modal`
attribute is set, as `modal`'s parser sets it, and the one printer prints
both languages.

Nodes are frozen, slotted dataclasses whose `__init__`, like their hash
and equality, is written by `_node` for their fields: it sets each slot
through the slot's own setter and then runs the class's checks.  A node
computes its structural hash once and keeps it: the hash of its class's
fixed int tag and its fields.
Equality is structural and cheap where it can be: the same object is equal
at once, two nodes with cached hashes that differ are unequal at once, and
otherwise the fields are compared as one tuple, whose compare skips children
the two trees share.

Text is read and written at the speed of the text, not of the tree.  The
lexer is one regex pass over the text and classifies each distinct lexeme
once, in a bounded module cache.  The parser is precedence climbing: one
loop over an explicit stack reads terms and formulas alike, so nesting costs
no interpreter frame, and one table, `_INFIX`, gives the precedence and
associativity of every infix operator to it and to the printer.  Input
nested deeper than `MAX_DEPTH` raises ResourceError, since every later walk
of a tree recurses per level.  A `Reader` reads one file's texts with one
node table, so equal subtrees on different lines are one object, and one
table of the texts, bracketed groups and right sides of implications it
has read, so a text read again (a restated consequent) is looked up and a
group read before (a restated antecedent, the term of an earlier step) is
taken as one operand, not lexed again.  The printers keep one memo per
call, by identity, of the text of every term and formula printed, so a
subformula shared across a lifted proof is printed once.  `walk` visits
each object of a set of trees once, by identity, on an explicit stack.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache, partial
from itertools import count

from .errors import InvalidInput, ParseError, ResourceError, SortError, quoted

# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True, slots=True, eq=False)
class _Node:
    """Base of every sort, term and formula: a frozen, slotted dataclass
    whose one extra slot caches its structural hash."""

    _hash: int | None = field(default=None, init=False, repr=False, compare=False)


# a frozen dataclass refuses attribute assignment; the slot's own setter is
# the cheapest way past it
_set_hash = _Node._hash.__set__
_TAGS = count()  # the next node class's tag

# Construction, hash and equality of every node class, written once here and
# specialized by `_node` to the class's fields, the way dataclass writes its
# own methods: one frame each, reading the fields directly (one shared method
# reading them through a getter took about twice as long a call).
# `__init__` sets each field through its slot's setter `_set_<field>` (a
# dataclass `__init__`, through `object.__setattr__`, built a node half again
# as slowly), a tuple field as a tuple, clears the cached hash and runs the
# class's `__post_init__`, `_post`, if it has one.  The hash is that of the class's tag, an int
# numbering the node classes in definition order (a str's hash would change
# from process to process), followed by the compare fields: a Sum and an App
# of the same fields, or a Head and a Tail of the same child, hash apart, so
# sets and dicts of mixed nodes walk no collision chains.  Nodes of two
# classes are unequal at once, sparing the reflected call.  `_children` gives
# the node's child terms and formulas, in field order, for the walks that
# visit every node.
_METHODS = """
def _methods({setters}_post):
    def __init__(self, {params}):
        {sets}_set_hash(self, None)
        {post}

    def _children(self):
        return {kids}

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(({tag}, {mine}))
            _set_hash(self, h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return False if isinstance(other, _Node) else NotImplemented
        h = self._hash
        if h is not None:
            g = other._hash
            if g is not None and g != h:
                return False
        return ({mine}) == ({theirs})

    return __init__, _children, __hash__, __eq__
"""


def _node(cls):
    """`cls` as a frozen, slotted node dataclass with `_METHODS` and a tag."""
    cls = dataclass(frozen=True, slots=True, eq=False, init=False)(cls)
    names = [f.name for f in fields(cls) if f.compare]
    params = [f for f in fields(cls) if f.init]
    kids = "".join(f"self.{f.name}, " for f in fields(cls) if f.type in ("Term", "Formula"))
    post = getattr(cls, "__post_init__", None)
    cls._tag = next(_TAGS)
    code: dict = {}
    exec(_METHODS.format(
        tag=cls._tag, mine="".join(f"self.{n}, " for n in names),
        theirs="".join(f"other.{n}, " for n in names),
        kids="self.items" if "items" in names else f"({kids})",
        setters="".join(f"_set_{f.name}, " for f in params),
        params=", ".join(f.name for f in params),
        sets="".join(f"_set_{f.name}(self, {'tuple(items)' if f.name == 'items' else f.name}); "
                     for f in params),
        post="_post(self)" if post else ""), globals(), code)
    methods = code["_methods"](*(cls.__dict__[f.name].__set__ for f in params), post)
    init = methods[0]
    init.__defaults__ = tuple(f.default for f in params if f.default is not MISSING)
    init.__annotations__ = {f.name: f.type for f in params} | {"return": None}
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


# ---------------------------------------------------------------------------
# sorts


@_node
class Sort(_Node):
    """An evidence sort: one agent, the group sort E, or the common sort C.
    Build agent sorts with `agent(i)` and use `E` and `C`: one object per
    sort makes sort comparisons and sort-keyed lookups identity checks."""

    kind: str  # "agent" | "E" | "C"
    index: int = 0

    def __post_init__(self):
        if self.kind == "agent":
            if type(self.index) is not int or self.index < 1:
                raise SortError(f"agent index must be a positive int, got {self.index!r}")
        elif self.kind in ("E", "C"):
            if type(self.index) is not int or self.index != 0:
                raise SortError(f"sort {self.kind} carries no agent index")
        else:
            raise SortError(f"unknown sort kind {self.kind!r}")

    @property
    def is_agent(self) -> bool:
        return self.kind == "agent"

    @property
    def is_star(self) -> bool:
        """True for the sorts that admit the binary + and * operations."""
        return self.kind in ("agent", "C")

    def __str__(self) -> str:
        return str(self.index) if self.kind == "agent" else self.kind


E = Sort("E")
C = Sort("C")


@lru_cache(maxsize=1024)
def agent(i: int) -> Sort:
    return Sort("agent", i)


# ---------------------------------------------------------------------------
# atom naming

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_RESERVED_NAMES = {"head", "tail", "ind"}
# shapes that would collide with indexed tokens when reparsed
_COLLIDING_RE = re.compile(r"(?:[xc]\d+|pi_\d+)\Z")


def _is_atom_name(text: str) -> bool:
    """The one rule for naming a proposition or constant."""
    return (bool(_NAME_RE.match(text)) and text not in _RESERVED_NAMES
            and not _COLLIDING_RE.match(text))


def _check_atom_index(index) -> None:
    if type(index) is int:  # not a bool, which would print as PTrue
        if index < 1:
            raise InvalidInput(f"atom index must be >= 1, got {index}")
        return
    if isinstance(index, str):
        if not _is_atom_name(index):
            raise InvalidInput(f"bad atom name {quoted(index)}")
        return
    raise InvalidInput(f"atom index must be int or str, got {type(index).__name__}")


# ---------------------------------------------------------------------------
# terms


class Term(_Node):
    """Base class for evidence terms.  Every term exposes a `.sort`."""

    __slots__ = ()
    sort: Sort


@_node
class Const(Term):
    index: int | str
    sort: Sort

    def __post_init__(self):
        _check_atom_index(self.index)


@_node
class Var(Term):
    index: int
    sort: Sort

    def __post_init__(self):
        if type(self.index) is not int or self.index < 1:
            raise InvalidInput(f"variable index must be a positive int, got {self.index!r}")


@_node
class Bang(Term):
    """Positive introspection operator of one agent, `!i(t)`."""

    t: Term
    agent: int

    def __post_init__(self):
        if self.t.sort != agent(self.agent):
            raise SortError(f"!{self.agent} needs an agent-{self.agent} operand, got sort {self.t.sort}")

    @property
    def sort(self) -> Sort:
        return agent(self.agent)


@_node
class Sum(Term):
    """Evidence pooling `t + s`; defined at agent sorts and at C only."""

    t: Term
    s: Term
    sort: Sort

    def __post_init__(self):
        if not self.sort.is_star:
            raise SortError(f"+ is not a primitive at sort {self.sort}")
        if self.t.sort != self.sort or self.s.sort != self.sort:
            raise SortError(f"+ operands must both have sort {self.sort}, got {self.t.sort} and {self.s.sort}")


@_node
class App(Term):
    """Evidence application `t * s`; defined at agent sorts and at C only."""

    t: Term
    s: Term
    sort: Sort

    def __post_init__(self):
        if not self.sort.is_star:
            raise SortError(f"* is not a primitive at sort {self.sort}")
        if self.t.sort != self.sort or self.s.sort != self.sort:
            raise SortError(f"* operands must both have sort {self.sort}, got {self.t.sort} and {self.s.sort}")


@_node
class Tuple(Term):
    """One term per agent, pooled into sort E."""

    items: tuple[Term, ...]

    def __post_init__(self):
        if not self.items:
            raise SortError("tuple needs at least one component")
        for k, item in enumerate(self.items, start=1):
            if item.sort != agent(k):
                raise SortError(f"tuple component {k} must have sort {k}, got {item.sort}")

    @property
    def sort(self) -> Sort:
        return E


@_node
class Proj(Term):
    """Projection `pi_i(t)` extracting agent i's share of an E-term."""

    agent: int
    t: Term

    def __post_init__(self):
        if type(self.agent) is not int:
            raise SortError(f"projection index must be an int, got {self.agent!r}")
        if self.agent < 1:
            raise SortError(f"projection index must be >= 1, got {self.agent}")
        if self.t.sort != E:
            raise SortError(f"pi_{self.agent} needs an E-sorted operand, got sort {self.t.sort}")

    @property
    def sort(self) -> Sort:
        return agent(self.agent)


@_node
class Head(Term):
    """First co-closure component of a C-term; sort E."""

    t: Term

    def __post_init__(self):
        if self.t.sort != C:
            raise SortError(f"head needs a C-sorted operand, got sort {self.t.sort}")

    @property
    def sort(self) -> Sort:
        return E


@_node
class Tail(Term):
    """Second co-closure component of a C-term; sort E."""

    t: Term

    def __post_init__(self):
        if self.t.sort != C:
            raise SortError(f"tail needs a C-sorted operand, got sort {self.t.sort}")

    @property
    def sort(self) -> Sort:
        return E


@_node
class Ind(Term):
    """Induction evidence `ind(t, s)` with t at C and s at E; sort C."""

    t: Term
    s: Term

    def __post_init__(self):
        if self.t.sort != C:
            raise SortError(f"ind needs a C-sorted first operand, got sort {self.t.sort}")
        if self.s.sort != E:
            raise SortError(f"ind needs an E-sorted second operand, got sort {self.s.sort}")

    @property
    def sort(self) -> Sort:
        return C


# ---------------------------------------------------------------------------
# formulas


class Formula(_Node):
    """Base class for formulas."""

    __slots__ = ()


@_node
class Prop(Formula):
    index: int | str

    def __post_init__(self):
        _check_atom_index(self.index)


@_node
class Neg(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Just(Formula):
    """Justified assertion `[term]@sort body`."""

    term: Term
    sort: Sort
    body: Formula

    def __post_init__(self):
        if self.term.sort != self.sort:
            raise SortError(f"term has sort {self.term.sort}, asserted at sort {self.sort}")


@_node
class Box(Formula):
    """Modal box `#sort body`: the forgetful image of `[t]@sort body`, with
    the evidence term erased.  Only the modal parser and `modal.forgetful`
    build it; the kernel has no rule for it."""

    sort: Sort
    body: Formula


def conj(parts) -> Formula:
    """Left-associated conjunction of a non-empty list."""
    parts = list(parts)
    if not parts:
        raise InvalidInput("conjunction of nothing")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def conjuncts(a: Formula) -> list[Formula]:
    """The maximal non-conjunction parts of `a`, left to right, whatever its
    bracketing; the inverse of `conj` on its own output."""
    if isinstance(a, And):
        return conjuncts(a.left) + conjuncts(a.right)
    return [a]


# ---------------------------------------------------------------------------
# traversal helpers


def walk(roots, seen: set[int] | None = None, terms: bool = True) -> list[Term | Formula]:
    """Every term and formula in the trees of `roots` whose id is not in
    `seen`, each object once, with its id added to `seen`; with `terms`
    false, the walk does not enter the terms of justified assertions.  One
    explicit stack, so depth costs no frame.  One set passed to several
    walks visits an object shared between them once; its owner keeps the
    walked trees alive meanwhile, so no id is reused."""
    seen = set() if seen is None else seen
    out = []
    stack = list(roots)
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            out.append(x)
            stack += x._children() if terms or x.__class__ is not Just else (x.body,)
    return out


def subterms(t: Term) -> frozenset[Term]:
    """All subterms of `t`, including `t` itself."""
    return frozenset(walk([t]))


def subformulas(a: Formula) -> frozenset[Formula]:
    """All subformulas of `a`, including `a`; does not descend into terms."""
    return frozenset(walk([a], terms=False))


def formula_terms(a: Formula) -> frozenset[Term]:
    """The terms attached to justified assertions anywhere inside `a`."""
    return frozenset(f.term for f in subformulas(a) if isinstance(f, Just))


def variables_in(x: Term | Formula) -> frozenset[Var]:
    return frozenset(v for v in walk([x]) if v.__class__ is Var)


def bound_problems(nodes: list[Term | Formula], h: int) -> list[str]:
    """Agent-bound and tuple-arity violations against agent count `h` among
    `nodes`, as `walk` lists them: each node is judged alone, not its
    children.  Only terms are judged: the constructors make a justified
    assertion's sort its term's, and a projection `pi_i(t)` of sort `i`, so
    each violation shows in exactly one term."""
    problems = []
    for x in nodes:
        if isinstance(x, Formula):
            continue
        s = x.sort
        if s.is_agent and s.index > h:
            problems.append(f"term {print_term(x)} uses agent {s.index} > h={h}")
        if x.__class__ is Tuple and len(x.items) != h:
            problems.append(f"tuple {print_term(x)} has arity {len(x.items)}, expected {h}")
    return problems


# ---------------------------------------------------------------------------
# printing

# Each printer call keeps one memo, keyed by identity, of every term and
# formula it has printed, holding the object's text at its loosest level; the
# user of a child adds the parentheses its position needs.  A subterm or
# subformula shared inside one object, or between the formulas of one
# `print_formulas` call, is printed once.  A lifted proof restates its
# premises' formulas and terms at every modus ponens: the lifted proofs of
# one pass of the `proofs` benchmark have 3.7 million tree nodes but 54
# thousand distinct objects, and printing the largest peaks at 7.4 MB
# (tracemalloc) with formulas in the memo as without.  Every key stays alive
# inside the printed objects for the whole call, so no id is reused
# meanwhile.

# Every infix operator of both languages: token -> (class, precedence,
# associates to the right).  Parser and printer both read it: an operand is
# parenthesized iff it is infix and binds looser than its position needs.
# A prefix operator (`~`, `[t]@s`, `#s`) binds tighter than all of them.
_INFIX = {"+": (Sum, 1, False), "*": (App, 2, False),
          "->": (Imp, 1, True), "|": (Or, 2, False), "&": (And, 3, False)}
_PREFIX = 4
# infix class -> (its operator as printed, its precedence, the precedence
# its left operand needs, the one its right operand needs)
_SYMBOLS = {cls: (f" {op} ", p, p + right, p + 1 - right) for op, (cls, p, right) in _INFIX.items()}


def print_term(t: Term) -> str:
    return _wrap(t, 0, {})


def print_formula(a: Formula) -> str:
    return _wrap(a, 0, {})


def print_formulas(formulas: list[Formula]) -> list[str]:
    """`print_formula` of each, sharing one memo across the list."""
    memo: dict[int, str] = {}
    return [_wrap(a, 0, memo) for a in formulas]


def _wrap(x: Term | Formula, need: int, memo: dict[int, str]) -> str:
    """`x` in a position that needs precedence `need`: 0 when closed,
    `_PREFIX` for a prefix operator's body."""
    out = memo.get(id(x))
    if out is None:
        out = memo[id(x)] = _text(x, memo)
    if need:
        infix = _SYMBOLS.get(x.__class__)
        if infix is not None and infix[1] < need:
            return f"({out})"
    return out


def _text(x: Term | Formula, memo: dict[int, str]) -> str:
    """`x` at the loosest level; the user adds parentheses."""
    # exact class tests, most frequent first
    cls = x.__class__
    if cls is Prop:
        return f"P{x.index}" if isinstance(x.index, int) else x.index
    if cls is Just:
        return f"[{_wrap(x.term, 0, memo)}]@{x.sort} {_wrap(x.body, _PREFIX, memo)}"
    if cls is Const:
        head = f"c{x.index}" if isinstance(x.index, int) else x.index
        return f"{head}@{x.sort}"
    infix = _SYMBOLS.get(cls)
    if infix is not None:
        op, _, left, right = infix
        a, b = x._children()
        return f"{_wrap(a, left, memo)}{op}{_wrap(b, right, memo)}"
    if cls is Var:
        return f"x{x.index}@{x.sort}"
    if cls is Neg:
        return f"~{_wrap(x.body, _PREFIX, memo)}"
    if cls is Box:
        return f"#{x.sort} {_wrap(x.body, _PREFIX, memo)}"
    if cls is Ind:
        return f"ind({_wrap(x.t, 0, memo)}, {_wrap(x.s, 0, memo)})"
    if cls is Proj:
        return f"pi_{x.agent}({_wrap(x.t, 0, memo)})"
    if cls is Head:
        return f"head({_wrap(x.t, 0, memo)})"
    if cls is Tail:
        return f"tail({_wrap(x.t, 0, memo)})"
    if cls is Tuple:
        return "<" + ", ".join([_wrap(i, 0, memo) for i in x.items]) + ">"
    if cls is Bang:
        return f"!{x.agent}({_wrap(x.t, 0, memo)})"
    raise InvalidInput(f"not a term or formula: {x!r}")


# ---------------------------------------------------------------------------
# parsing

# A parsed term or formula is at most MAX_DEPTH nodes deep, counting the
# nodes of its terms, and its text opens at most MAX_DEPTH parentheses at
# once; deeper input raises ResourceError.  Every later walk of a tree
# recurses once per level: equality of two separately built trees at three
# interpreter frames a level, hashing and printing at two, the truth table
# and `holds` at one.  So at this depth even equality fits in the default
# recursion limit of 1000 with 250 frames left for its callers.  The
# canonical text of a tree within the cap is within it.
MAX_DEPTH = 250


# The most characters `check_size` lets a set of trees print as.
MAX_PRINTED = 64 << 20


def check_size(roots, what: str) -> None:
    """Raise ResourceError if a tree among `roots` nests deeper than
    `MAX_DEPTH`, counted as `Parser._read` counts (a leaf is 0 deep, any
    other node one deeper than its deepest child), or if printing each of
    `roots` once would write more than `MAX_PRINTED` characters.  The count
    is exact: a node's own characters, parentheses around its children
    included, are `_text` of it with each child printed as nothing.  One
    explicit stack, with depths and lengths memoized by id, since a tree
    built rather than parsed (a lifted proof) shares its subtrees."""
    depth: dict[int, int] = {}
    size: dict[int, int] = {}
    stack = list(roots)
    while stack:
        x = stack[-1]
        kids = x._children()
        todo = [k for k in kids if id(k) not in depth]
        stack += todo
        if not todo:
            stack.pop()
            blank = dict.fromkeys(map(id, kids), "")
            size[id(x)] = len(_text(x, blank)) + sum([size[id(k)] for k in kids])
            depth[id(x)] = d = max([depth[id(k)] + 1 for k in kids], default=0)
            if d > MAX_DEPTH:
                raise ResourceError(f"{what} nests deeper than {MAX_DEPTH} levels")
    total = sum([size[id(x)] for x in roots])
    if total > MAX_PRINTED:
        raise ResourceError(f"{what} would print {total} characters, over the cap of {MAX_PRINTED}")


_TOKEN_RE = re.compile(
    r"""
      (?P<VAR>x(?P<vidx>\d+)@(?P<vsort>\d+|E|C))
    | (?P<CONST>c(?P<cidx>\d+)@(?P<csort>\d+|E|C))
    | (?P<NCONST>(?P<nname>[a-z][a-z0-9_]*)@(?P<nsort>\d+|E|C))
    | (?P<PROP>P(?P<pidx>\d+))
    | (?P<PI>pi_(?P<piidx>\d+))
    | (?P<BANG>!(?P<bidx>\d+))
    | (?P<ARROW>->)
    | (?P<INT>\d+)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<SYM>[~&|+*<>,()\[\]@\#])
    """,
    re.VERBOSE,
)

# One match per lexeme and its leading whitespace: `_TOKEN_RE`'s alternatives
# in the same order, without their groups, then any other non-space character
# (which `_TOKEN_RE` cannot read).  The lexeme is optional, so no match gives
# back whitespace or fails, and the last matches, at the end, are empty.
_LEXEME_RE = re.compile(
    r"(\s*)((?:" + re.sub(r"\(\?P<\w+>", "(?:", _TOKEN_RE.pattern) + r")|\S)?",
    re.VERBOSE,
)

# lexeme -> (kind, payload), for every lexeme read so far; cleared when full
_LEXEMES: dict[str, tuple[str, object]] = {}
_LEXEME_CACHE_SIZE = 4096

# the brackets whose inner text a `Reader` may hold as one group
_BRACKET_RE = re.compile(r"[()\[\]]")


def integer(text: str, what: str, position: int | None = None) -> int:
    """`text`, an optional `-` and then decimal digits only, as an int: not
    the `+`, spaces or `_` that `int()` also reads.  Every digit string the
    toolkit converts goes through here, so a ParseError names a number too
    long to convert by its digit count instead of echoing it."""
    if not (text.isdecimal() or text[:1] == "-" and text[1:].isdecimal()):
        raise ParseError(f"{what} {quoted(text)} is not an integer", position)
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} of {len(text.removeprefix('-'))} digits is too large",
                         position) from None


def _number(m: re.Match, group: str) -> int | str:
    """The group's digits as an int; a name, or a sort spelled E or C,
    stays text."""
    digits = m.group(group)
    if not digits.isdecimal():
        return digits
    return integer(digits, "number", m.start(group))


# token kind -> the group of `_TOKEN_RE` that holds its payload, or the
# groups of its (index, sort) pair; a symbol's kind is its text
_PAYLOAD = {"VAR": ("vidx", "vsort"), "CONST": ("cidx", "csort"),
            "NCONST": ("nname", "nsort"), "PROP": "pidx", "PI": "piidx",
            "BANG": "bidx", "INT": "INT"}


def _classify(text: str, pos: int) -> tuple[str, object]:
    """The kind and payload of the lexeme at `pos`, read by `_TOKEN_RE` at
    that offset so that an error names it, and remembered in `_LEXEMES`."""
    m = _TOKEN_RE.match(text, pos)
    if m is None:
        raise ParseError(f"cannot read {text[pos]!r}", pos)
    kind = m.lastgroup
    groups = _PAYLOAD.get(kind)
    if groups is None:
        payload = None
    elif isinstance(groups, str):
        payload = _number(m, groups)
    else:
        payload = tuple([_number(m, g) for g in groups])
    if kind == "SYM" or kind == "ARROW":
        kind = m.group()
    if len(_LEXEMES) >= _LEXEME_CACHE_SIZE:
        _LEXEMES.clear()
    entry = _LEXEMES[m.group()] = (kind, payload)
    return entry


def _tokenize(text: str, held=()) -> list[tuple[str, str, int, object]]:
    """(kind, text, offset, payload) of every token, then an EOF token.
    Each (start, end, (node, depth)) of `held`, left to right and apart,
    stands for the text from `start` to `end`, lexed as one GROUP token
    whose payload is (node, depth); a bracket is a lexeme of its own, so
    the text around a bracketed group lexes as it does in the whole."""
    tokens = []
    append = tokens.append
    known = _LEXEMES.get
    pos = 0
    for start, end, group in (*held, (len(text), None, None)):
        for space, lexeme in _LEXEME_RE.findall(text, pos, start):
            pos += len(space)
            if not lexeme:
                break
            entry = known(lexeme) or _classify(text, pos)
            append((entry[0], lexeme, pos, entry[1]))
            pos += len(lexeme)
        if group is None:
            break
        append(("GROUP", "", start, group))
        pos = end
    append(("EOF", "", len(text), None))
    return tokens


def _expected(kind: str, tok: tuple[str, str, int, object]) -> ParseError:
    return ParseError(f"expected {kind!r}, found {quoted(tok[1] or 'end of input')}", tok[2])


def _too_deep(pos: int) -> ResourceError:
    return ResourceError(f"nesting deeper than {MAX_DEPTH} levels (at offset {pos})")


# Entries of the parser's stack.  A pending binary operator is (precedence,
# left operand, its depth, class); a pending prefix operator is (_PREFIX,
# constructor of the node given its body, depth of what it holds besides the
# body); an open bracket is a grouping (0, ")", None, its offset), a
# function's (0, the token that closes it, constructor of the node given the
# bracketed term, depth of what it holds besides), a tuple's list [0, "<",
# items so far, their depth, offset], or an evidence box's term (0, "]", open
# parentheses of the formula around it, offset).  _BOTTOM ends every stack.
_BOTTOM = (0, None)
_NEGATION = (_PREFIX, Neg, 0)
_TERM_FUNCTIONS = {"head": Head, "tail": Tail, "ind": Ind}
# `_INFIX` per language, terms (True) or formulas: token kind -> (precedence,
# lowest precedence that it reduces, class), so that a left-associative
# operator reduces its own precedence and a right-associative one only what
# binds tighter; any other token ends the operand and reduces every pending
# binary operator
_OPS = {term: {op: (p, p + right, cls) for op, (cls, p, right) in _INFIX.items()
               if issubclass(cls, Term) == term} for term in (True, False)}
_NO_OP = (0, 1, None)


class Parser:
    """Precedence climbing over the token list of one text, for agent count
    `h` (Pratt, POPL 1973): `_read` is one loop over an explicit stack of
    pending operators and open brackets, for terms and formulas alike, so
    nesting costs no interpreter frame.  The modal parser sets `modal`, which
    reads `#s` boxes in place of evidence boxes.

    Every atom and every node goes through one table, `nodes`: atoms by
    lexeme, nodes by themselves, so it maps each node to the one object
    equal to it.  A `Reader` passes its file's table; any other parse has a
    table of its own.  A `Reader` also passes the bracketed groups it holds
    (see `_tokenize`), each read as one operand, and a list, `groups`, to
    which `_read` adds (language, start, end, node, depth) for each other
    grouping `( … )` and evidence-box term it completes, and for the right
    side of each implication whose `->` lies outside parentheses: the
    language is True for a term, and the group's text runs from `start` to
    `end`, for a right side from the token after the arrow to the end."""

    modal = False

    def __init__(self, text: str, h: int, nodes: dict | None = None, held=(),
                 groups: list | None = None):
        if not isinstance(h, int) or h < 1:
            raise InvalidInput(f"agent count h must be a positive int, got {h!r}")
        self.h = h
        self.tokens = _tokenize(text, held)
        self.i = 0
        self.nodes: dict = {} if nodes is None else nodes
        self.intern = self.nodes.setdefault
        self.groups = groups

    # -- the cursor, for callers that read tokens around a term or formula

    def expect(self, kind: str) -> tuple[str, str, int, object]:
        tok = self.tokens[self.i]
        self.i += 1
        if tok[0] != kind:
            raise _expected(kind, tok)
        return tok

    def expect_end(self) -> None:
        tok = self.tokens[self.i]
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing input {quoted(tok[1])}", tok[2])

    def entire(self, read):
        """What `read(self)` reads, which must end the text."""
        x = read(self)
        self.expect_end()
        return x

    # -- shared pieces

    def agent_index(self, k: int, pos: int) -> int:
        if not 1 <= k <= self.h:
            raise ParseError(f"agent index {k} outside 1..{self.h}", pos)
        return k

    def _sort(self, value: int | str, pos: int) -> Sort:
        if value == "E":
            return E
        if value == "C":
            return C
        return agent(self.agent_index(value, pos))

    def parse_sort_token(self) -> Sort:
        kind, text, pos, payload = self.tokens[self.i]
        self.i += 1
        if kind == "INT":
            return self._sort(payload, pos)
        if kind == "IDENT" and text in ("E", "C"):
            return self._sort(text, pos)
        raise ParseError(f"expected a sort, found {quoted(text or 'end of input')}", pos)

    def parse_term(self) -> Term:
        t, _, self.i = self._read(self.i, True)
        return t

    def parse_formula(self) -> Formula:
        a, _, self.i = self._read(self.i, False)
        return a

    def _atom(self, kind: str, pos: int, payload) -> Term:
        index, sort = payload
        if kind == "NCONST" and not _is_atom_name(index):
            raise ParseError(f"{quoted(index)} is reserved", pos)
        return (Var if kind == "VAR" else Const)(index, self._sort(sort, pos))

    # -- the one loop

    def _read(self, i: int, term: bool) -> tuple[Term | Formula, int, int]:
        """The term, or with `term` false the formula, from token `i` on:
        (it, its depth, index after it).  An evidence box's `[` switches to
        terms up to its `]`; the term and the formula around it each count
        their own open parentheses."""
        tokens = self.tokens
        leaves = self.nodes
        intern = self.intern
        ops = _OPS[term]
        box = "#" if self.modal else "["
        groups = self.groups
        stack: list = [_BOTTOM]
        parens = 0
        while True:
            kind, text, pos, payload = tokens[i]
            i += 1
            if kind == "(":
                parens += 1
                if parens > MAX_DEPTH:
                    raise _too_deep(pos)
                stack.append((0, ")", None, pos))
                continue
            d = 0
            if kind == "GROUP":
                x, d = payload
            elif term:
                if kind == "VAR" or kind == "CONST" or kind == "NCONST":
                    x = leaves.get(text)
                    if x is None:
                        x = self._atom(kind, pos, payload)
                        x = leaves[text] = intern(x, x)
                elif kind == "<":
                    stack.append([0, "<", [], 0, pos])
                    continue
                else:
                    if kind == "BANG":
                        make = partial(Bang, agent=self.agent_index(payload, pos))
                    elif kind == "PI":
                        make = partial(Proj, self.agent_index(payload, pos))
                    elif kind == "IDENT" and text in _TERM_FUNCTIONS:
                        make = _TERM_FUNCTIONS[text]
                    else:
                        raise ParseError(f"expected a term, found {quoted(text or 'end of input')}", pos)
                    if tokens[i][0] != "(":
                        raise _expected("(", tokens[i])
                    i += 1
                    stack.append((0, "," if make is Ind else ")", make, 0))
                    continue
            elif kind == "PROP" or kind == "IDENT":
                x = leaves.get(text)
                if x is None:
                    if kind == "IDENT" and not _is_atom_name(text):
                        raise ParseError(f"{quoted(text)} cannot name a proposition", pos)
                    x = Prop(text if kind == "IDENT" else payload)
                    x = leaves[text] = intern(x, x)
            elif kind == "~":
                stack.append(_NEGATION)
                continue
            elif kind != box:
                raise ParseError(f"expected a formula, found {quoted(text or 'end of input')}", pos)
            elif self.modal:
                self.i = i
                stack.append((_PREFIX, partial(Box, self.parse_sort_token()), 0))
                i = self.i
                continue
            else:
                stack.append((0, "]", parens, pos))
                term, ops, parens = True, _OPS[True], 0
                continue
            # x, of depth d, is an operand: reduce what it completes
            while True:
                top = stack[-1]
                while top[0] == _PREFIX:  # prefix operators bind tightest
                    stack.pop()
                    x = top[1](x)
                    x = intern(x, x)
                    d = (top[2] if top[2] > d else d) + 1
                    if d > MAX_DEPTH:
                        raise _too_deep(tokens[i][2])
                    top = stack[-1]
                kind = tokens[i][0]
                prec, floor, cls = ops.get(kind, _NO_OP)
                while top[0] >= floor:
                    stack.pop()
                    left = top[1]
                    if len(top) > 4:  # an implication's right side, to the end
                        groups.append((False, top[4], tokens[-1][2], x, d))
                    x = top[3](left, x, left.sort) if term else top[3](left, x)
                    x = intern(x, x)
                    d = (top[2] if top[2] > d else d) + 1
                    if d > MAX_DEPTH:
                        raise _too_deep(tokens[i][2])
                    top = stack[-1]
                if prec:
                    if cls is Imp and not parens and groups is not None:
                        # `->` binds loosest: its right side is the rest of
                        # the text, which starts at the next token
                        stack.append((prec, x, d, cls, tokens[i + 1][2]))
                    else:
                        stack.append((prec, x, d, cls))
                    i += 1
                    break
                tag = top[1]
                if tag is None:
                    return x, d, i
                if tag == "<":
                    top[2].append(x)
                    if d > top[3]:
                        top[3] = d
                    if kind == ",":
                        i += 1
                        break
                    if kind != ">":
                        raise _expected(">", tokens[i])
                    items = top[2]
                    if len(items) != self.h:
                        raise ParseError(f"tuple arity {len(items)} does not match agent count {self.h}", top[4])
                    x, d = Tuple(tuple(items)), top[3]
                    x = intern(x, x)
                elif kind != tag:
                    raise _expected(tag, tokens[i])
                elif top[2] is None:  # a grouping
                    if groups is not None and tokens[i - 1][0] != "GROUP":
                        groups.append((term, top[3] + 1, tokens[i][2], x, d))
                    parens -= 1
                    stack.pop()
                    i += 1
                    continue
                elif tag == ",":  # ind's first operand
                    stack[-1] = (0, ")", partial(Ind, x), d)
                    i += 1
                    break
                elif tag == "]":  # the evidence box's term; `@ sort` follows
                    if groups is not None and tokens[i - 1][0] != "GROUP":
                        groups.append((True, top[3] + 1, tokens[i][2], x, d))
                    self.i = i + 1
                    self.expect("@")
                    stack[-1] = (_PREFIX, partial(Just, x, self.parse_sort_token()), d)
                    i = self.i
                    term, ops, parens = False, _OPS[False], top[2]
                    break
                else:
                    x = top[2](x)
                    x = intern(x, x)
                    if top[3] > d:
                        d = top[3]
                stack.pop()
                d += 1
                if d > MAX_DEPTH:
                    raise _too_deep(tokens[i][2])
                i += 1


class Reader:
    """Reads the texts of one file, for agent count `h`, with one node table,
    `nodes`: equal subtrees anywhere in the file are one object.  Parsing is
    a pure function of (text, h), and one table, `groups`, remembers what
    `formula` read.

    `groups` maps (language, text) to (node, depth), the language True for
    a term, for each text read and, within one, each grouping `( … )` and
    evidence-box term completed (its inner text) and the right side of each
    implication whose `->` lies outside parentheses (the rest of the text:
    `->` binds loosest, to the right).  A text it holds as a formula, such
    as the consequent a modus ponens step restates, is looked up.  Any other
    is scanned for its outermost bracketed spans whose inner text `groups`
    holds (a restated antecedent, the term of the step before), and the
    lexer and the parser take each such span as one operand of its stored
    depth, so the text around them is all that is read (packrat parsing
    keyed by text, after Ford, ICFP 2002).  Brackets stay tokens, so
    `head(…)` and `[…]@s` read as before.  If that read fails, the whole
    text is read again as `parse_formula` reads it, which alone decides the
    error.  A text that has more than `MAX_DEPTH` brackets open at once is
    read that way from the start; in any other, the parser never counts
    more than `MAX_DEPTH` open parentheses, so no group need store how deep
    its own parentheses nest.

    A failing text adds nothing to `groups`; a node it interned stays in
    `nodes`, equal to what a successful read builds.  Two readers share no
    node."""

    def __init__(self, h: int):
        self.h = h
        # node -> the one node equal to it, and lexeme -> its atom
        self.nodes: dict = {}
        self.groups: dict[tuple[bool, str], tuple[Term | Formula, int]] = {}

    def formula(self, text: str) -> Formula:
        """`parse_formula(text, h)`."""
        group = self.groups.get((False, text))
        if group is not None:
            return group[0]
        held = self._held(text)
        try:
            p, a, d = self._parse(text, held)
        except Exception:
            # any kind: on a text whose brackets do not nest, a held group
            # can meet a constructor of the other language first
            if not held:
                raise
            p, a, d = self._parse(text, ())
        groups = self.groups
        for term, start, end, x, depth in p.groups:
            groups[term, text[start:end]] = x, depth
        groups[False, text] = a, d
        return a

    def _parse(self, text: str, held) -> tuple[Parser, Formula, int]:
        p = Parser(text, self.h, self.nodes, held, [])
        a, d, p.i = p._read(0, False)
        p.expect_end()
        return p, a, d

    def _held(self, text: str) -> list[tuple[int, int, tuple[Term | Formula, int]]]:
        """(start, end, (node, depth)) of each outermost span of `text`
        between paired brackets whose inner text `groups` holds, in the
        language the parser reads it in: a term inside `[ … ]`, a formula
        outside; none if more than `MAX_DEPTH` brackets are open at once.
        Brackets pair as a stack pairs them, whatever their kinds: where
        that is not how they nest, the parser, which reads the brackets
        around each span, fails."""
        opens = []
        pairs = []  # (offset of the opening bracket, of the closing one)
        for m in _BRACKET_RE.finditer(text):
            i = m.start()
            if text[i] in "([":
                opens.append(i)
                if len(opens) > MAX_DEPTH:
                    return ()
            elif opens:
                pairs.append((opens.pop(), i))
        pairs.sort()
        held = []
        get = self.groups.get
        end = box = -1  # where the last held span and the last box end
        for start, stop in pairs:
            if start > end:
                if text[start] == "[":
                    box = stop
                group = get((start < box, text[start + 1:stop]))
                if group is not None:
                    held.append((start + 1, stop, group))
                    end = stop
        return held

    def term(self, text: str) -> Term:
        """`parse_term(text, h)`, through the node table."""
        return Parser(text, self.h, self.nodes).entire(Parser.parse_term)


def parse_term(text: str, h: int) -> Term:
    return Parser(text, h).entire(Parser.parse_term)


def parse_formula(text: str, h: int) -> Formula:
    return Parser(text, h).entire(Parser.parse_formula)
