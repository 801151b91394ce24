"""Which jck functions are traced, under which layer, and the per-layer
metrics computed from the spans.

The layers are jck's modules.  Each metric is named `<module>.<layer>.<stat>`
and reports `calls` (spans recorded), `self_s` (span time minus child spans)
or a stat named in `per_layer_metrics`.  Rates (`chars_per_s`, `steps_per_s`,
`facts_per_s`) divide by inclusive span time.
"""

from __future__ import annotations

import reference
from spans import Target


def _chars_in(tracer, stat, args, result) -> None:
    stat.add("chars", len(args[0]))


def _chars_out(tracer, stat, args, result) -> None:
    stat.add("chars", len(result))


def _check(tracer, stat, args, report) -> None:
    stat.add("steps", len(args[0].steps) if report.ok else report.step)
    stat.add("rejects", 0 if report.ok else 1)


def _tautology(tracer, stat, args, result) -> None:
    seen = tracer.scratch.setdefault("tautologies", set())
    formula = args[0]
    if formula in seen:
        stat.add("repeats", 1)
    else:
        seen.add(formula)
        stat.peak("atoms_max", reference.skeleton_atoms(formula))


def _lift(tracer, stat, args, result) -> None:
    lifted = result[1]
    stat.add("out_steps", len(lifted.steps))
    stat.add("out_nodes", reference.tree_nodes(
        list(lifted.hypotheses) + [s.formula for s in lifted.steps]))


def _terms(tracer, stat, args, result) -> None:
    stat.add("terms", len(result))


def _universe(tracer, stat, args, universe) -> None:
    stat.add("entries", len(universe.terms) + len(universe.formulas))


def _facts(tracer, stat, args, result) -> None:
    stat.add("facts", len(result))


def _satisfies(tracer, stat, args, result) -> None:
    if args[0].mode == "base":
        stat.add("base_calls", 1)


def _closure(tracer, stat, args, result) -> None:
    stat.add("pairs_out", len(result))
    if tracer.active["modal.kripke_satisfies"]:
        stat.add("under_kripke", 1)


TARGETS = (
    Target("syntax.print", "jck.syntax", "print_formula", after=_chars_out),
    Target("syntax.print", "jck.syntax", "print_term", after=_chars_out),
    Target("syntax.parse", "jck.syntax", "parse_formula", after=_chars_in),
    Target("syntax.parse", "jck.syntax", "parse_term", after=_chars_in),
    Target("syntax.traverse", "jck.syntax", "subterms"),
    Target("syntax.traverse", "jck.syntax", "subformulas"),
    Target("syntax.traverse", "jck.syntax", "formula_terms"),
    Target("syntax.traverse", "jck.syntax", "variables_in"),
    Target("deduction.parse_derivation", "jck.deduction", "parse_derivation", after=_chars_in),
    Target("deduction.print_derivation", "jck.deduction", "print_derivation", after=_chars_out),
    Target("deduction.check_derivation", "jck.deduction", "check_derivation", after=_check),
    Target("deduction.is_tautology", "jck.deduction", "is_tautology", after=_tautology),
    Target("deduction.match_axiom", "jck.deduction", "match_axiom"),
    Target("synthesis.lift", "jck.synthesis", "lift", outermost=True, after=_lift),
    Target("synthesis.lift", "jck.synthesis", "necessitate", outermost=True, after=_lift),
    Target("gen.enumerate_terms", "jck.gen", "enumerate_terms", after=_terms),
    Target("semantics.build_universe", "jck.semantics", "build_universe", after=_universe),
    Target("semantics.saturate", "jck.semantics", "saturate", after=_facts),
    Target("semantics.satisfies", "jck.semantics", "satisfies", outermost=True,
           after=_satisfies),
    Target("semantics.evidence_holds", "jck.semantics", "evidence_holds", outermost=True),
    Target("semantics.transitive_closure", "jck.semantics", "transitive_closure",
           outermost=True, after=_closure),
    Target("semantics.transitive_closure", "jck.semantics", "reflexive_transitive_closure",
           outermost=True, after=_closure),
    Target("semantics.validate_model", "jck.semantics", "validate_model"),
    Target("semantics.parse_model_file", "jck.semantics", "parse_model_file"),
    Target("modal.kripke_satisfies", "jck.modal", "kripke_satisfies", outermost=True),
    Target("modal.parse_kripke_file", "jck.modal", "parse_kripke_file"),
    Target("modal.forgetful", "jck.modal", "forgetful", outermost=True),
    Target("modal.probe_modal_formula", "jck.modal", "probe_modal_formula", outermost=True),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit).  A layer the
    workload does not exercise reports 0 calls and 0 seconds."""
    out: dict[str, tuple[float, str]] = {}

    def basic(layer: str, *stats: str):
        s = tracer.stat(layer)
        for name in stats:
            if name == "calls":
                out[f"{layer}.calls"] = (s.calls, "count")
            elif name == "self_s":
                out[f"{layer}.self_s"] = (s.self_s, "s")
            elif name == "chars_per_s":
                out[f"{layer}.chars_per_s"] = (_ratio(s.counts.get("chars", 0), s.inclusive_s), "1/s")
        return s

    basic("syntax.print", "calls", "self_s", "chars_per_s")
    basic("syntax.parse", "calls", "self_s", "chars_per_s")
    basic("syntax.traverse", "calls", "self_s")
    basic("deduction.parse_derivation", "self_s", "chars_per_s")
    basic("deduction.print_derivation", "self_s", "chars_per_s")

    s = basic("deduction.check_derivation", "calls", "self_s")
    steps = s.counts.get("steps", 0)
    out["deduction.check_derivation.steps"] = (steps, "count")
    out["deduction.check_derivation.steps_per_s"] = (_ratio(steps, s.inclusive_s), "1/s")
    out["deduction.check_derivation.rejects"] = (s.counts.get("rejects", 0), "count")

    s = basic("deduction.is_tautology", "calls", "self_s")
    out["deduction.is_tautology.repeat_ratio"] = (_ratio(s.counts.get("repeats", 0), s.calls), "1")
    out["deduction.is_tautology.atoms_max"] = (s.counts.get("atoms_max", 0), "count")

    basic("deduction.match_axiom", "calls", "self_s")

    s = basic("synthesis.lift", "calls", "self_s")
    out["synthesis.lift.out_steps"] = (s.counts.get("out_steps", 0), "count")
    out["synthesis.lift.out_nodes"] = (s.counts.get("out_nodes", 0), "count")

    s = basic("gen.enumerate_terms", "calls", "self_s")
    out["gen.enumerate_terms.terms"] = (s.counts.get("terms", 0), "count")

    s = basic("semantics.build_universe", "calls", "self_s")
    out["semantics.build_universe.entries"] = (s.counts.get("entries", 0), "count")

    saturate = basic("semantics.saturate", "calls", "self_s")
    facts = saturate.counts.get("facts", 0)
    out["semantics.saturate.facts"] = (facts, "count")
    out["semantics.saturate.facts_per_s"] = (_ratio(facts, saturate.inclusive_s), "1/s")

    satisfies = basic("semantics.satisfies", "calls", "self_s")
    evidence = tracer.stat("semantics.evidence_holds")
    out["semantics.evidence_holds.calls"] = (evidence.calls, "count")
    queries = satisfies.counts.get("base_calls", 0) + evidence.calls
    out["semantics.saturations_per_query"] = (_ratio(saturate.calls, queries), "1")

    closure = basic("semantics.transitive_closure", "calls", "self_s")
    out["semantics.transitive_closure.pairs_out"] = (closure.counts.get("pairs_out", 0), "count")
    basic("semantics.validate_model", "self_s")
    basic("semantics.parse_model_file", "self_s")

    kripke = basic("modal.kripke_satisfies", "calls", "self_s")
    basic("modal.parse_kripke_file", "self_s")
    basic("modal.forgetful", "self_s")
    basic("modal.probe_modal_formula", "calls", "self_s")
    out["modal.closures_per_kripke_query"] = (
        _ratio(closure.counts.get("under_kripke", 0), kripke.calls), "1")

    out["trace.overhead_ratio"] = (overhead_ratio, "1")
    return out
