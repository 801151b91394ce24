"""Golden derivations: every routine that assembles steps by index, printed.

`tests/golden/derivations.txt` holds, for 20 seeds (h = 1..3 in turn), the printed
output of `gen.random_derivation`, the deduction theorem and the conservative
translation applied to it, the translation of one instance of every schema
(as an axiom step and as a C-sorted `axnec` step), the acceptance fixtures
`_conj_intro` and `_imp_intro` over random theorems, and the second induction
fixture of `conftest`.  Any change in step order or numbering shows here.

Regenerate with `PYTHONPATH=src python tests/test_derivation_goldens.py >
tests/golden/derivations.txt`, and only when a change of output is meant.
"""

import random
from pathlib import Path

from jck.acceptance import _axiom_step, _conj_intro, _imp_intro
from jck.deduction import (
    AxiomSchema, AxNec, ConstantSpecification, Derivation, Step,
    check_derivation, deduction_theorem, print_derivation,
)
from jck.gen import (
    random_axiom_instance, random_derivation, random_formula, random_theorem,
)
from jck.modal import translate_derivation_x
from jck.synthesis import ConstantAllocator
from jck.syntax import C, Const, Just

from conftest import build_induction2_input

GOLDEN = Path(__file__).parent / "golden" / "derivations.txt"
TC = ConstantSpecification.total_c()


def golden_text() -> str:
    out = []

    def show(label: str, d: Derivation, cs=TC, fragment="full") -> None:
        report = check_derivation(d, cs, fragment=fragment)
        assert report, (label, report)
        out.append(f"== {label}\n{print_derivation(d)}")

    for seed in range(20):
        h = seed % 3 + 1
        rng = random.Random(seed)
        tag = f"seed {seed} h {h}"
        d = random_derivation(rng, h, n_extra=rng.randint(1, 4))
        show(f"{tag} random_derivation", d)
        x = translate_derivation_x(d, TC)
        show(f"{tag} translate_derivation_x", x.derivation, x.cs, "agent")
        if not d.hypotheses:
            d = Derivation((random_formula(rng, h, 1),), d.steps)
        hyp = d.hypotheses[rng.randrange(len(d.hypotheses))]
        show(f"{tag} deduction_theorem", deduction_theorem(d, hyp, TC))
        for schema in AxiomSchema:
            inst = random_axiom_instance(rng, schema, h)
            x = translate_derivation_x(_axiom_step(schema, inst), TC)
            show(f"{tag} translate axiom {schema.value}", x.derivation, x.cs, "agent")
            c = Const(1, C)
            boxed = Derivation((), (Step(Just(c, C, inst), AxNec(c)),))
            x = translate_derivation_x(boxed, TC)
            show(f"{tag} translate axnec {schema.value}", x.derivation, x.cs, "agent")
        alloc = ConstantAllocator()
        t1 = random_theorem(rng, h, alloc)
        t2 = random_theorem(rng, h, alloc)
        cs = ConstantSpecification.extensional(
            [(i, C, f) for f, i in alloc.memo.items()], validate=False)
        both = _conj_intro(t1, t2)
        show(f"{tag} _conj_intro", both, cs)
        show(f"{tag} _imp_intro", _imp_intro(both, random_formula(rng, h, 1)), cs)
    for h in (1, 2, 3):
        alloc = ConstantAllocator()
        show(f"h {h} build_induction2_input", build_induction2_input(alloc, h)[3],
             ConstantSpecification.extensional(
                 [(i, C, f) for f, i in alloc.memo.items()], validate=False))
    return "".join(out)


def test_derivations_match_golden():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    print(golden_text(), end="")
