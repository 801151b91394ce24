"""The modal side: the two syntactic translations and randomized Kripke-model
probing.

A modal formula is an ordinary `syntax` formula whose boxes are
`syntax.Box(sort, body)`, written `#1 A`, `#E A`, `#C A`; it shares the atoms,
connectives, parser and printer of the evidence language.  It is evaluated
on the frame class of `semantics`, `KripkeModel`, by the one evaluator
`semantics.holds`, with no evidence facts.  The frame class, its validator,
text format and loader, generator and the attack fixture are re-exported here.

`forgetful` erases evidence terms, sending [t]@s A to the box #s A.
`conservative_projection` instead stays inside the justification language: it
deletes exactly the boxes whose terms mention any group-level or common-level
machinery, which lands in the single-agent fragment.
`translate_derivation_x` rewrites a full derivation along the projection,
expanding the handful of steps whose axioms do not survive verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .deduction import (
    AGENT_FRAGMENT_SCHEMATA, Axiom, AxiomSchema, AxNec, Builder,
    ConstantSpecification, Derivation, Hyp, MP, check_derivation,
    is_agent_fragment, match_axiom,
)
from .errors import InvalidInput
from .syntax import (
    And, Box, Formula, Imp, Just, Neg, Or, Parser, Prop, conjuncts, print_formula,
    walk,
)
from .semantics import (  # noqa: F401  (re-exported frame API)
    KripkeModel, attack_kripke_model, format_kripke_model, holds,
    parse_kripke_file, random_kripke_model, validate_kripke_model,
)


# ---------------------------------------------------------------------------
# modal formulas


class _ModalParser(Parser):
    """The formula grammar with `#i`, `#E` and `#C` boxes in place of
    evidence boxes."""

    modal = True


def parse_modal_formula(text: str, h: int) -> Formula:
    return _ModalParser(text, h).entire(Parser.parse_formula)


# ---------------------------------------------------------------------------
# translations


def _map_assertions(a: Formula, image) -> Formula:
    """`a` with its connectives kept and each justified assertion `j`
    replaced by `image(j, its body mapped)`."""
    if isinstance(a, Prop):
        return a
    if isinstance(a, Neg):
        return Neg(_map_assertions(a.body, image))
    if isinstance(a, (And, Or, Imp)):
        return a.__class__(_map_assertions(a.left, image), _map_assertions(a.right, image))
    if isinstance(a, Just):
        return image(a, _map_assertions(a.body, image))
    raise InvalidInput(f"not a formula: {a!r}")


def forgetful(a: Formula) -> Formula:
    """Erase evidence terms, keeping only which box each one inhabited."""
    return _map_assertions(a, lambda j, body: Box(j.sort, body))


def realizes(r: Formula, a: Formula) -> bool:
    """Is `r` an evidence-term realization of the modal formula `a`?"""
    return forgetful(r) == a


def _projected(j: Just, body: Formula) -> Formula:
    # a single group- or common-sorted subterm disqualifies the whole box
    return Just(j.term, j.sort, body) if is_agent_fragment(walk([j.term])) else body


def conservative_projection(a: Formula) -> Formula:
    """Project onto the single-agent fragment: boxes whose terms touch the
    group or common machinery are dropped; everything else is kept as is."""
    return _map_assertions(a, _projected)


@dataclass(frozen=True)
class XTranslation:
    """Projection of a whole derivation.

    `flagged` lists translated specification members whose bodies are not
    axiom instances of the single-agent fragment; the kernel will still accept
    them because the translated specification is taken at face value.
    """

    derivation: Derivation
    cs: ConstantSpecification
    flagged: tuple


_SCHEMA_ORDER = list(AxiomSchema)


def _expand_projected_axiom(schema: AxiomSchema, a: Formula, b: Builder) -> int:
    """Append steps deriving the projection of the axiom instance `a`;
    returns the index of the step proving it."""
    image = conservative_projection(a)
    if schema == AxiomSchema.APP:
        boxed_imp = a.left
        boxed_minor = a.right.left
        t_kept = is_agent_fragment(walk([boxed_imp.term]))
        s_kept = is_agent_fragment(walk([boxed_minor.term]))
        if t_kept and s_kept:
            return b.axiom(AxiomSchema.APP, image)
        if t_kept:
            # image is literally [t](X -> Y) -> (X -> Y)
            return b.axiom(AxiomSchema.REFL, image)
        if s_kept:
            minor = conservative_projection(boxed_minor)
            return b.by_taut([b.axiom(AxiomSchema.REFL, Imp(minor, minor.body))], image)
    elif schema in (AxiomSchema.SUML, AxiomSchema.SUMR):
        sum_kept = is_agent_fragment(walk([a.right.term])) if isinstance(a.right, Just) else False
        if sum_kept:
            return b.axiom(schema, image)
        if is_agent_fragment(walk([a.left.term])):
            return b.axiom(AxiomSchema.REFL, image)
    elif schema in (AxiomSchema.REFL, AxiomSchema.INSP):
        if is_agent_fragment(walk([a.left.term])):
            return b.axiom(schema, image)
    elif schema == AxiomSchema.TUPLING:
        # flatten before projecting: a projected conjunct may itself be an And
        parts = [conservative_projection(p) for p in conjuncts(a.left)]
        if not any(p == image.right for p in parts):
            return b.by_taut([b.axiom(AxiomSchema.REFL, Imp(parts[0], image.right))], image)
    # every other case, among them taut, projection, both co-closure forms
    # and induction: the image is a propositional tautology
    return b.axiom(AxiomSchema.TAUT, image)


def translate_derivation_x(d: Derivation, cs: ConstantSpecification) -> XTranslation:
    """Rewrite `d` along the conservative projection.

    The result derives the projected conclusion from the projected hypotheses
    inside the single-agent fragment, under the projected specification
    (agent-sorted members only, bodies projected).  A derivation the kernel
    rejects raises InvalidInput naming the failing step."""
    report = check_derivation(d, cs)
    if not report.ok:
        raise InvalidInput(f"input derivation rejected at step {report.step}: {report.message}")
    return translate_checked_x(d, cs)


def translate_checked_x(d: Derivation, cs: ConstantSpecification) -> XTranslation:
    """`translate_derivation_x` of a derivation the caller has already
    checked with the kernel (as `jck translate-x` does, with its `h`); on
    an unchecked one it may fail with any error."""
    members = []
    flagged = []
    for c, body in cs.pairs():
        if c.sort.is_agent:
            image = conservative_projection(body)
            members.append((c.index, c.sort, image))
            if not (is_agent_fragment(walk([image]))
                    and any(s in AGENT_FRAGMENT_SCHEMATA for s in match_axiom(image))):
                flagged.append((c.index, c.sort, image))
    cs_x = ConstantSpecification.extensional(members, validate=False)

    b = Builder(tuple(conservative_projection(f) for f in d.hypotheses))
    mapped: dict[int, int] = {}
    for k, step in enumerate(d.steps, start=1):
        rule = step.rule
        if isinstance(rule, Hyp):
            mapped[k] = b.hyp(rule.index)
        elif isinstance(rule, Axiom):
            mapped[k] = _expand_projected_axiom(rule.schema, step.formula, b)
        elif isinstance(rule, MP):
            mapped[k] = b.emit(conservative_projection(step.formula),
                               MP(mapped[rule.i], mapped[rule.j]))
        elif isinstance(rule, AxNec):
            c = rule.constant
            body = step.formula.body
            if c.sort.is_agent:
                mapped[k] = b.axnec(c, conservative_projection(body))
            else:
                schemata = match_axiom(body)
                if not schemata:
                    raise InvalidInput(
                        "cannot project a specification step whose body "
                        f"{print_formula(body)} is not an axiom instance")
                schema = min(schemata, key=_SCHEMA_ORDER.index)
                mapped[k] = _expand_projected_axiom(schema, body, b)
        else:
            raise InvalidInput(f"unknown rule {rule!r}")
    return XTranslation(b.build(), cs_x, tuple(flagged))


# ---------------------------------------------------------------------------
# Kripke models


def kripke_satisfies(m: KripkeModel, w: int, a: Formula) -> bool:
    """Truth of `a` at world `w` of the frame `m`: `holds` with no evidence
    facts, so an evidence box [t]@s A reads as the modal box #s A."""
    return holds(m, w, a)


# ---------------------------------------------------------------------------
# probing


@dataclass(frozen=True)
class ProbeReport:
    formula: Formula
    trials: int
    counterexample: tuple | None  # (KripkeModel, world) when found

    @property
    def refuted(self) -> bool:
        return self.counterexample is not None


def probe_modal_formula(a: Formula, h: int, trials: int = 100,
                        seed: int = 0) -> ProbeReport:
    """Search seeded random reflexive-transitive models of 1 to 5 worlds for
    a world falsifying `a`.  No counterexample is evidence of validity only
    to the extent of the trial budget."""
    rng = random.Random(seed)
    for _ in range(trials):
        m = random_kripke_model(h, rng.randint(1, 5),
                                density=rng.uniform(0.1, 0.5),
                                seed=rng.randrange(10 ** 9))
        for w in sorted(m.worlds):
            if not kripke_satisfies(m, w, a):
                return ProbeReport(a, trials, (m, w))
    return ProbeReport(a, trials, None)


def forgetful_soundness_probe(d: Derivation, h: int, trials: int = 100,
                              seed: int = 0) -> ProbeReport:
    """Probe the forgetful image of a theorem: a hypothesis-free derivation's
    conclusion should never be refuted by any reflexive-transitive model."""
    if d.hypotheses:
        raise InvalidInput("the probe needs a hypothesis-free derivation")
    return probe_modal_formula(forgetful(d.conclusion), h, trials, seed)
