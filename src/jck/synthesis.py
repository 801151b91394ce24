"""Constructive evidence-term and derivation synthesis.

Every operation here returns an explicit derivation and never trusts itself:
callers (and the test suite) re-check each output with the kernel.  Derived
group-level operations are built from projections and tupling; common-level
introspection and conversion go through the co-closure operators and the
induction axiom, consuming constants from a ConstantAllocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .deduction import (
    Axiom, AxiomSchema, AxNec, Builder, Derivation, Hyp, MP, check_atom_count,
    is_axiom,
)
from .errors import InvalidInput
from .syntax import (
    And, App, C, Const, E, Formula, Head, Imp, Ind, Just, Proj, Sort, Sum,
    Tail, Term, Tuple, Var, agent, conj, print_formula, walk,
)


@dataclass
class ConstantAllocator:
    """Hands out C-sorted proof constants for axiom instances, memoized.

    The same axiom instance always receives the same constant, so repeated
    synthesis calls are deterministic.  The table `memo` maps each instance
    to its constant's index; as members (index, C, instance) it is a
    constant specification that justifies every constant handed out.
    """

    memo: dict[Formula, int] = field(default_factory=dict)
    next_index: int = 1

    def constant_for(self, axiom_formula: Formula) -> Const:
        if not is_axiom(axiom_formula):
            raise InvalidInput(f"not an axiom instance: {print_formula(axiom_formula)}")
        idx = self.memo.get(axiom_formula)
        if idx is None:
            idx = self.next_index
            self.memo[axiom_formula] = idx
            self.next_index += 1
        return Const(idx, C)


# ---------------------------------------------------------------------------
# derived group-level operations


def e_reflexivity(t: Term, a: Formula) -> Derivation:
    """Proof of `[t]@E A -> A` via projection to agent 1 and reflexivity."""
    b = Builder()
    p1 = Just(Proj(1, t), agent(1), a)
    s1 = b.axiom(AxiomSchema.PROJ, Imp(Just(t, E, a), p1))
    s2 = b.axiom(AxiomSchema.REFL, Imp(p1, a))
    b.by_taut([s1, s2], Imp(Just(t, E, a), a))
    return b.build()


def e_application(h: int, t: Term, s: Term, a: Formula, bb: Formula) -> tuple[Term, Derivation]:
    """Derived application at E: componentwise application under a tuple.

    Returns the term `<pi_1(t)*pi_1(s), ..., pi_h(t)*pi_h(s)>` and a proof of
    `[t]@E (A -> B) -> ([s]@E A -> [term]@E B)`.
    """
    check_atom_count(3 * h + 3)  # the closing tautology's x, y, z, p_i, q_i, r_i
    term = Tuple(tuple(App(Proj(i, t), Proj(i, s), agent(i)) for i in range(1, h + 1)))
    x = Just(t, E, Imp(a, bb))
    y = Just(s, E, a)
    z = Just(term, E, bb)
    b = Builder()
    premises = []
    results = []
    for i in range(1, h + 1):
        pi = Just(Proj(i, t), agent(i), Imp(a, bb))
        qi = Just(Proj(i, s), agent(i), a)
        ri = Just(App(Proj(i, t), Proj(i, s), agent(i)), agent(i), bb)
        premises.append(b.axiom(AxiomSchema.PROJ, Imp(x, pi)))
        premises.append(b.axiom(AxiomSchema.APP, Imp(pi, Imp(qi, ri))))
        premises.append(b.axiom(AxiomSchema.PROJ, Imp(y, qi)))
        results.append(ri)
    premises.append(b.axiom(AxiomSchema.TUPLING, Imp(conj(results), z)))
    b.by_taut(premises, Imp(x, Imp(y, z)))
    return term, b.build()


def e_sum(h: int, t: Term, s: Term, a: Formula) -> tuple[Term, Derivation, Derivation]:
    """Derived pooling at E: componentwise sums under a tuple.

    Returns `<pi_1(t)+pi_1(s), ...>` with proofs of `[t]@E A -> [term]@E A`
    and `[s]@E A -> [term]@E A`.
    """
    check_atom_count(2 * h + 2)  # each closing tautology's x, z, p_i, r_i
    term = Tuple(tuple(Sum(Proj(i, t), Proj(i, s), agent(i)) for i in range(1, h + 1)))
    z = Just(term, E, a)

    def one_side(source: Term, schema: AxiomSchema) -> Derivation:
        x = Just(source, E, a)
        b = Builder()
        premises = []
        results = []
        for i in range(1, h + 1):
            pi = Just(Proj(i, source), agent(i), a)
            ri = Just(Sum(Proj(i, t), Proj(i, s), agent(i)), agent(i), a)
            premises.append(b.axiom(AxiomSchema.PROJ, Imp(x, pi)))
            premises.append(b.axiom(schema, Imp(pi, ri)))
            results.append(ri)
        premises.append(b.axiom(AxiomSchema.TUPLING, Imp(conj(results), z)))
        b.by_taut(premises, Imp(x, z))
        return b.build()

    return term, one_side(t, AxiomSchema.SUML), one_side(s, AxiomSchema.SUMR)


# ---------------------------------------------------------------------------
# common-level operations


def i_conversion(t: Term, i: int, a: Formula) -> tuple[Term, Derivation]:
    """Convert common evidence to one agent: `[t]@C A -> [pi_i(head(t))]@i A`."""
    term = Proj(i, Head(t))
    b = Builder()
    x = Just(t, C, a)
    mid = Just(Head(t), E, a)
    out = Just(term, agent(i), a)
    s1 = b.axiom(AxiomSchema.COCLOSHEAD, Imp(x, mid))
    s2 = b.axiom(AxiomSchema.PROJ, Imp(mid, out))
    b.by_taut([s1, s2], Imp(x, out))
    return term, b.build()


def c_reflexivity(t: Term, a: Formula) -> Derivation:
    """Proof of `[t]@C A -> A`, chaining conversion to agent 1 with reflexivity."""
    term, conversion = i_conversion(t, 1, a)
    b = Builder()
    s1 = b.include(conversion)
    s2 = b.axiom(AxiomSchema.REFL, Imp(Just(term, agent(1), a), a))
    b.by_taut([s1, s2], Imp(Just(t, C, a), a))
    return b.build()


def c_inspection(t: Term, a: Formula, alloc: ConstantAllocator) -> tuple[Term, Derivation]:
    """Positive introspection at C: `[t]@C A -> [ind(c, tail(t))]@C [t]@C A`.

    The constant c justifies the co-closure instance
    `[t]@C A -> [tail(t)]@E [t]@C A`; the induction axiom then closes the loop.
    """
    f = Just(t, C, a)
    g = Just(Tail(t), E, f)
    c = alloc.constant_for(Imp(f, g))
    term = Ind(c, Tail(t))
    out = Just(term, C, f)
    b = Builder()
    s1 = b.axnec(c, Imp(f, g))
    s2 = b.axiom(AxiomSchema.INDUCTION, Imp(And(f, Just(c, C, Imp(f, g))), out))
    b.by_taut([s1, s2], Imp(f, out))
    return term, b.build()


def c_shift(t: Term, a: Formula, alloc: ConstantAllocator) -> tuple[Term, Derivation]:
    """Shift common evidence to the group: `[t]@C A -> [c * !C(t)]@C [head(t)]@E A`.

    Uses inspection at C plus a constant for the head co-closure instance,
    applied at C.
    """
    f = Just(t, C, a)
    k = Just(Head(t), E, a)
    insp_term, insp = c_inspection(t, a, alloc)
    c = alloc.constant_for(Imp(f, k))
    term = App(c, insp_term, C)
    b = Builder()
    s1 = b.include(insp)                       # F -> [!C t]@C F
    s2 = b.axnec(c, Imp(f, k))                 # [c]@C (F -> K)
    boxed_f = Just(insp_term, C, f)
    out = Just(term, C, k)
    s3 = b.axiom(AxiomSchema.APP, Imp(Just(c, C, Imp(f, k)), Imp(boxed_f, out)))
    b.by_taut([s1, s2, s3], Imp(f, out))
    return term, b.build()


# ---------------------------------------------------------------------------
# constructive lifting


@dataclass
class LiftingContext:
    """The hypothesis classes of a derivation under lifting.

    `boxed` lists pairs (s_j, B_j) for hypotheses of the form [s_j]@C B_j,
    which stay fixed; `plain` lists the other hypotheses, each of which is
    boxed under a fresh variable at the target sort.  Each list keeps the
    derivation's order.  `lift` only compares a context given to it with
    `from_derivation`.
    """

    boxed: list[tuple[Term, Formula]]
    plain: list[Formula]

    @classmethod
    def from_derivation(cls, d: Derivation) -> "LiftingContext":
        """Classify every C-boxed hypothesis as fixed, the rest as plain."""
        boxed = []
        plain = []
        for f in d.hypotheses:
            if isinstance(f, Just) and f.sort == C:
                boxed.append((f.term, f.body))
            else:
                plain.append(f)
        return cls(boxed, plain)


def _fresh_variables(d: Derivation, sort: Sort, count: int) -> list[Var]:
    # one walk of the whole derivation visits each shared node once
    used = {v.index for v in walk([*d.hypotheses, *(s.formula for s in d.steps)])
            if v.__class__ is Var and v.sort == sort}
    out = []
    k = 1
    while len(out) < count:
        if k not in used:
            out.append(Var(k, sort))
        k += 1
    return out


def lift(d: Derivation, target: Sort, ctx: LiftingContext | None = None,
         alloc: ConstantAllocator | None = None, *, h: int) -> tuple[Term, Derivation]:
    """Internalize a derivation as evidence at `target`, for `h` agents.

    From D proving A under hypotheses H_1, ..., H_n in any order, produce a
    term and a derivation of [term]@target A from the same hypotheses in the
    same places, except that each H_k not of the form [s]@C B becomes
    [y]@target H_k for a fresh variable y.  The term is built over the
    fixed hypotheses' terms s and those variables.  A `ctx` given must equal
    `LiftingContext.from_derivation(d)`.  `d` is not run through the kernel,
    but a `hyp` or `mp` step citing no fitting line raises InvalidInput.
    """
    if alloc is None:
        alloc = ConstantAllocator()
    if ctx is not None and ctx != LiftingContext.from_derivation(d):
        raise InvalidInput("derivation hypotheses do not match the declared lifting shape")

    fixed = [isinstance(f, Just) and f.sort == C for f in d.hypotheses]
    fresh = iter(_fresh_variables(d, target, fixed.count(False)))
    b = Builder([f if kept else Just(next(fresh), target, f)
                 for f, kept in zip(d.hypotheses, fixed)])

    def from_common(step_idx: int, u: Term, body: Formula) -> tuple[Term, int]:
        """Turn a step proving [u]@C body into evidence for body at `target`."""
        if target == C:
            return u, step_idx
        if target.is_agent:
            term, conv = i_conversion(u, target.index, body)
            return term, b.mp(b.include(conv), step_idx)
        term = Head(u)
        ax = b.axiom(AxiomSchema.COCLOSHEAD, Imp(Just(u, C, body), Just(term, E, body)))
        return term, b.mp(ax, step_idx)

    def lift_c_boxed(step_idx: int, boxed: Just) -> tuple[Term, int]:
        """Turn a step proving [u]@C B into evidence for that very formula."""
        if target == E:
            # the co-closure tail axiom directly boxes the formula
            term = Tail(boxed.term)
            ax = b.axiom(AxiomSchema.COCLOSTAIL, Imp(boxed, Just(term, E, boxed)))
            return term, b.mp(ax, step_idx)
        insp_term, insp = c_inspection(boxed.term, boxed.body, alloc)
        return from_common(b.mp(b.include(insp), step_idx), insp_term, boxed)

    def rejected(k: int, message: str) -> InvalidInput:
        # the kernel's wording, for a derivation it was not asked about
        return InvalidInput(f"input derivation rejected at step {k}: {message}")

    mapped: dict[int, tuple[Term, int]] = {}
    for k, step in enumerate(d.steps, start=1):
        f = step.formula
        rule = step.rule
        if isinstance(rule, Hyp):
            if not 1 <= rule.index <= len(d.hypotheses):
                raise rejected(k, f"no hypothesis {rule.index}")
            out = b.hyp(rule.index)
            if fixed[rule.index - 1]:
                mapped[k] = lift_c_boxed(out, b.formula(out))  # [s]@C B itself
            else:
                mapped[k] = (b.formula(out).term, out)  # [y]@target f
        elif isinstance(rule, Axiom):
            c = alloc.constant_for(f)
            mapped[k] = from_common(b.axnec(c, f), c, f)
        elif isinstance(rule, AxNec):
            # f is [c]@C B for a specification member; box it like a fixed hypothesis
            if not (isinstance(f, Just) and f.sort == C):
                raise InvalidInput("lifting expects a pure C constant specification")
            base = b.axnec(rule.constant, f.body)
            mapped[k] = lift_c_boxed(base, f)
        elif isinstance(rule, MP):
            if not (1 <= rule.i < k and 1 <= rule.j < k):
                raise rejected(k, f"premise indices {rule.i}, {rule.j} must point at earlier steps")
            major = d.steps[rule.i - 1].formula
            if not isinstance(major, Imp):
                raise rejected(k, f"steps {rule.i} and {rule.j} do not yield this formula")
            r_term, r_idx = mapped[rule.i]
            s_term, s_idx = mapped[rule.j]
            x, y = major.left, major.right
            if target == E:
                term, application = e_application(h, r_term, s_term, x, y)
                k2 = b.include(application)
            else:
                term = App(r_term, s_term, target)
                k2 = b.axiom(AxiomSchema.APP,
                             Imp(Just(r_term, target, Imp(x, y)),
                                 Imp(Just(s_term, target, x), Just(term, target, y))))
            partial = b.mp(k2, r_idx)
            mapped[k] = (term, b.mp(partial, s_idx))
        else:
            raise InvalidInput(f"unknown rule {rule!r}")

    term, _ = mapped[len(d.steps)]
    return term, b.build()


def necessitate(d: Derivation, target: Sort, alloc: ConstantAllocator | None = None,
                *, h: int) -> tuple[Term, Derivation]:
    """Internalize a hypothesis-free derivation; the returned term is ground."""
    if d.hypotheses:
        raise InvalidInput("necessitation needs a hypothesis-free derivation")
    return lift(d, target, None, alloc, h=h)


# ---------------------------------------------------------------------------
# induction rules


def internalize_induction_1(a: Formula, s: Term, d: Derivation,
                            alloc: ConstantAllocator | None = None,
                            *, h: int) -> tuple[Term, Derivation]:
    """From a proof of `A -> [s]@E A`, produce t and a proof of `A -> [ind(t,s)]@C A`."""
    if alloc is None:
        alloc = ConstantAllocator()
    if d.hypotheses:
        raise InvalidInput("induction internalization needs a hypothesis-free derivation")
    want = Imp(a, Just(s, E, a))
    if d.conclusion != want:
        raise InvalidInput(f"derivation must conclude {print_formula(want)}")
    t, boxed = necessitate(d, C, alloc, h=h)
    b = Builder()
    s1 = b.include(boxed)  # [t]@C (A -> [s]@E A)
    out = Just(Ind(t, s), C, a)
    s2 = b.axiom(AxiomSchema.INDUCTION, Imp(And(a, Just(t, C, want)), out))
    b.by_taut([s1, s2], Imp(a, out))
    return t, b.build()


def internalize_induction_2(a: Formula, bb: Formula, s: Term, d: Derivation,
                            alloc: ConstantAllocator | None = None,
                            *, h: int) -> tuple[Term, Const, Derivation]:
    """From a proof of `B -> [s]@E (A & B)`, produce t, c and a proof of
    `B -> [c * ind(t, s)]@C A`.

    The constant c justifies the projection tautology `A & B -> A`.
    """
    if alloc is None:
        alloc = ConstantAllocator()
    if d.hypotheses:
        raise InvalidInput("induction internalization needs a hypothesis-free derivation")
    ab = And(a, bb)
    want = Imp(bb, Just(s, E, ab))
    if d.conclusion != want:
        raise InvalidInput(f"derivation must conclude {print_formula(want)}")

    # strengthen the premise: A & B -> [s]@E (A & B)
    pre = Builder()
    base = pre.include(d)
    pre.by_taut([base], Imp(ab, Just(s, E, ab)))
    t, ind_step = internalize_induction_1(ab, s, pre.build(), alloc, h=h)

    c = alloc.constant_for(Imp(ab, a))
    term = App(c, Ind(t, s), C)
    b = Builder()
    s1 = b.include(ind_step)                     # A & B -> [ind(t,s)]@C (A & B)
    s2 = b.axnec(c, Imp(ab, a))
    boxed_ab = Just(Ind(t, s), C, ab)
    out = Just(term, C, a)
    s3 = b.axiom(AxiomSchema.APP, Imp(Just(c, C, Imp(ab, a)), Imp(boxed_ab, out)))
    s4 = b.include(d)                            # B -> [s]@E (A & B)
    s5 = b.include(e_reflexivity(s, ab))         # [s]@E (A & B) -> A & B
    b.by_taut([s1, s2, s3, s4, s5], Imp(bb, out))
    return t, c, b.build()
