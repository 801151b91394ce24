"""Command-line surface: every verb is a thin adapter over one library call.

Exit codes: 0 when the operation succeeds or accepts, 1 when it runs but
rejects (a derivation fails the kernel, a formula is false in the model, a
probe finds a countermodel), 2 on unusable input.  Reports are deterministic
for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import JckError, ParseError, quoted
from .syntax import (
    Parser, Sort, check_size, integer, parse_formula, parse_term,
    print_formula, print_term,
)
from .deduction import (
    ConstantSpecification, check_derivation, parse_derivation,
    print_derivation,
)
from .synthesis import (
    ConstantAllocator, internalize_induction_1, internalize_induction_2,
    lift, necessitate,
)
from .semantics import (
    MAX_AGENTS, parse_cs_table, parse_model_file, satisfies,
)
from .modal import (
    forgetful, format_kripke_model, kripke_satisfies, parse_kripke_file,
    parse_modal_formula, probe_modal_formula, forgetful_soundness_probe,
    realizes, translate_checked_x,
)
from .acceptance import attack_scenario, format_results, run_all


def _read_text(path: str) -> str:
    """The file at `path` as UTF-8 text, a leading byte-order mark read as
    nothing; every file the command line reads is read here."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(
            f"{path!r} is not UTF-8 text: {e.reason} at byte offset {e.start}") from None
    return text[1:] if text.startswith("\ufeff") else text


def _parse_sort(text: str, h: int) -> Sort:
    return Parser(text, h).entire(Parser.parse_sort_token)


def _parse_world(text: str) -> int:
    text = text.strip()
    if text.startswith("w"):
        text = text[1:]
    if not text.isdecimal():
        raise JckError(f"not a world name: {quoted(text)}")
    return integer(text, "world number")


def _load_cs(spec: str, h: int) -> ConstantSpecification:
    if spec == "totalC":
        return ConstantSpecification.total_c()
    return parse_cs_table(_read_text(spec), h)


def _load_model(args):
    """The model file `args.model` and its warnings, read as a relational
    model under `--kripke`; a `cs: file PATH` line names its table relative
    to the model file's directory, or by an absolute path."""
    text = _read_text(args.model)
    if args.kripke:
        return parse_kripke_file(text)
    here = os.path.dirname(args.model)
    return parse_model_file(text, lambda table: _read_text(os.path.join(here, table)))


def _load_derivation(path: str, h: int):
    return parse_derivation(_read_text(path), h)


def _print_constants(alloc: ConstantAllocator) -> None:
    for body, index in sorted(alloc.memo.items(), key=lambda kv: kv[1]):
        print(f"constant c{index}@C := {print_formula(body)}")


def _report_check(report) -> int:
    if report.ok:
        print("accepted")
        return 0
    where = f" at step {report.step}" if report.step is not None else ""
    print(f"rejected{where}: {report.status} ({report.message})")
    return 1


# ---------------------------------------------------------------------------
# verbs


def cmd_parse(args) -> int:
    if args.kind == "term":
        print(print_term(parse_term(args.text, args.agents)))
    elif args.kind == "modal":
        print(print_formula(parse_modal_formula(args.text, args.agents)))
    else:
        print(print_formula(parse_formula(args.text, args.agents)))
    return 0


def cmd_check(args) -> int:
    d = _load_derivation(args.file, args.agents)
    cs = _load_cs(args.cs, args.agents)
    report = check_derivation(d, cs, h=args.agents, fragment=args.fragment)
    code = _report_check(report)
    if report.ok:
        print(f"conclusion: {print_formula(d.conclusion)}")
    return code


def _internalize(args, build) -> int:
    """Run the kernel on the input derivation and refuse it if it does not
    check; otherwise print what `build(d, alloc)` returns (the term, any
    further lines and the new derivation), then the allocated constants."""
    d = _load_derivation(args.file, args.agents)
    cs = _load_cs(args.cs, args.agents)
    report = check_derivation(d, cs, h=args.agents)
    if not report.ok:
        print("input derivation does not check; refusing to internalize")
        return _report_check(report)
    alloc = ConstantAllocator()
    term, lines, out = build(d, alloc)
    check_size([term, *alloc.memo, *out.hypotheses, *(s.formula for s in out.steps)],
               "the result")
    print(f"term: {print_term(term)}")
    for line in lines:
        print(line)
    _print_constants(alloc)
    print(print_derivation(out), end="")
    return 0


def cmd_lift(args) -> int:
    def build(d, alloc):
        term, out = lift(d, _parse_sort(args.target, args.agents), None, alloc,
                         h=args.agents)
        return term, (), out
    return _internalize(args, build)


def cmd_necessitate(args) -> int:
    def build(d, alloc):
        term, out = necessitate(d, _parse_sort(args.target, args.agents), alloc,
                                h=args.agents)
        return term, (), out
    return _internalize(args, build)


def cmd_induct1(args) -> int:
    a = parse_formula(args.formula, args.agents)
    s = parse_term(args.term, args.agents)

    def build(d, alloc):
        t, out = internalize_induction_1(a, s, d, alloc, h=args.agents)
        return t, (), out
    return _internalize(args, build)


def cmd_induct2(args) -> int:
    a = parse_formula(args.formula, args.agents)
    bb = parse_formula(args.formula_b, args.agents)
    s = parse_term(args.term, args.agents)

    def build(d, alloc):
        t, c, out = internalize_induction_2(a, bb, s, d, alloc, h=args.agents)
        return t, (f"projection constant: {print_term(c)}",), out
    return _internalize(args, build)


def cmd_eval(args) -> int:
    m, warnings = _load_model(args)
    if args.kripke:
        a = parse_modal_formula(args.formula, m.h)
        value = kripke_satisfies(m, _parse_world(args.world), a)
    else:
        a = parse_formula(args.formula, m.h)
        value = satisfies(m, _parse_world(args.world), a, depth_budget=args.depth)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print("true" if value else "false")
    return 0 if value else 1


def cmd_validate(args) -> int:
    """Loading is the validation: both loaders raise `InvalidInput` (exit 2)
    on every problem they find, so a model that loads is well formed."""
    _, warnings = _load_model(args)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print("ok")
    return 0


def cmd_translate_x(args) -> int:
    d = _load_derivation(args.file, args.agents)
    cs = _load_cs(args.cs, args.agents)
    report = check_derivation(d, cs, h=args.agents)
    if not report.ok:
        print("input derivation does not check; refusing to translate")
        return _report_check(report)
    x = translate_checked_x(d, cs)
    print(print_derivation(x.derivation), end="")
    for index, sort, body in sorted(
            x.cs.members, key=lambda m: (m[0], str(m[1]), print_formula(m[2]))):
        print(f"cs member: c{index}@{sort} := {print_formula(body)}")
    for index, sort, image in x.flagged:
        print(f"flagged: c{index}@{sort} now justifies the non-axiom "
              f"{print_formula(image)}")
    report = check_derivation(x.derivation, x.cs, h=args.agents, fragment="agent")
    return _report_check(report)


def cmd_translate_o(args) -> int:
    a = parse_formula(args.formula, args.agents)
    print(print_formula(forgetful(a)))
    return 0


def cmd_realize_check(args) -> int:
    r = parse_formula(args.justified, args.agents)
    a = parse_modal_formula(args.modal, args.agents)
    if realizes(r, a):
        print("realizes")
        return 0
    print("does not realize")
    return 1


def cmd_probe(args) -> int:
    if os.path.exists(args.target):
        d = _load_derivation(args.target, args.agents)
        cs = _load_cs(args.cs, args.agents)
        report = check_derivation(d, cs, h=args.agents)
        if not report.ok:
            print("input derivation does not check; probe needs a theorem")
            return _report_check(report)
        probe = forgetful_soundness_probe(d, args.agents, trials=args.trials,
                                          seed=args.seed)
    else:
        a = parse_modal_formula(args.target, args.agents)
        probe = probe_modal_formula(a, args.agents, trials=args.trials,
                                    seed=args.seed)
    print(f"formula: {print_formula(probe.formula)}")
    if not probe.refuted:
        print(f"no countermodel in {probe.trials} trials")
        return 0
    m, w = probe.counterexample
    print(f"countermodel found, false at world w{w}:")
    print(format_kripke_model(m), end="")
    return 1


# ---------------------------------------------------------------------------
# the coordinated-attack demonstration


def demo_attack(depth_budget: int = 3) -> tuple[str, bool]:
    """Render the claims of `acceptance.attack_scenario`.

    Returns (report text, all claims hold).  The singleton-model sweep is a
    bounded check: every candidate term up to the given depth, saturated with
    the same budget, and no further.
    """
    lines = []
    ok = True
    for title, claims in attack_scenario(depth_budget).sections:
        lines.append(title)
        for claim in claims:
            lines.append(f"  [{'ok' if claim.holds else 'FAIL'}] {claim.text}")
            ok = ok and claim.holds
    lines.append(f"  note: the sweep above is a bounded check; it covers every "
                 f"candidate term up to depth {depth_budget}, not all terms of "
                 f"every depth")
    lines.append("all claims hold" if ok else "SOME CLAIMS FAILED")
    return "\n".join(lines) + "\n", ok


def cmd_demo_attack(args) -> int:
    text, ok = demo_attack(args.depth)
    print(text, end="")
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    results = run_all(args.seed)
    print(format_results(results))
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# wiring


def _bounded_int(least: int, most: int | None = None):
    """argparse type: an integer no smaller than `least` and, when `most` is
    given, no larger."""
    def convert(text: str) -> int:
        try:
            value = integer(text, "value")
        except ParseError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    return convert


def _add_common(sub, cs=False) -> None:
    sub.add_argument("--agents", type=_bounded_int(1, MAX_AGENTS), default=2,
                     metavar="H", help="number of agents (default 2)")
    if cs:
        sub.add_argument("--cs", default="totalC", metavar="SPEC",
                         help="constant specification: totalC or a table file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jck",
        description="verification toolkit for a multi-agent justification "
                    "logic with common knowledge")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("parse", help="parse and reprint a term or formula")
    p.add_argument("text")
    p.add_argument("--kind", choices=("formula", "term", "modal"),
                   default="formula")
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("check", help="check a derivation file")
    p.add_argument("file")
    p.add_argument("--fragment", choices=("full", "agent"), default="full")
    _add_common(p, cs=True)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("lift", help="internalize a derivation as evidence")
    p.add_argument("file")
    p.add_argument("--target", required=True, metavar="SORT",
                   help="target sort: an agent index, E, or C")
    _add_common(p, cs=True)
    p.set_defaults(func=cmd_lift)

    p = subs.add_parser("necessitate",
                        help="internalize a hypothesis-free derivation")
    p.add_argument("file")
    p.add_argument("--target", required=True, metavar="SORT")
    _add_common(p, cs=True)
    p.set_defaults(func=cmd_necessitate)

    p = subs.add_parser("induct1",
                        help="from a proof of A -> [s]@E A, evidence that A "
                             "implies common knowledge of A")
    p.add_argument("file", help="derivation proving A -> [s]@E A")
    p.add_argument("--formula", required=True, metavar="A")
    p.add_argument("--term", required=True, metavar="S")
    _add_common(p, cs=True)
    p.set_defaults(func=cmd_induct1)

    p = subs.add_parser("induct2",
                        help="from a proof of B -> [s]@E (A & B), evidence "
                             "that B implies common knowledge of A")
    p.add_argument("file", help="derivation proving B -> [s]@E (A & B)")
    p.add_argument("--formula", required=True, metavar="A")
    p.add_argument("--formula-b", required=True, metavar="B")
    p.add_argument("--term", required=True, metavar="S")
    _add_common(p, cs=True)
    p.set_defaults(func=cmd_induct2)

    p = subs.add_parser("eval", help="evaluate a formula in a model file")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--world", required=True)
    p.add_argument("--depth", type=_bounded_int(0), default=3,
                   help="saturation budget for evidence checks (default 3)")
    p.add_argument("--kripke", action="store_true",
                   help="treat the file as a relational model and the "
                        "formula as modal")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("validate", help="validate a model file")
    p.add_argument("model")
    p.add_argument("--kripke", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("translate-x",
                        help="project a derivation into the single-agent "
                             "fragment and re-check it")
    p.add_argument("file")
    _add_common(p, cs=True)
    p.set_defaults(func=cmd_translate_x)

    p = subs.add_parser("translate-o",
                        help="forget evidence terms, keeping the modal shape")
    p.add_argument("formula")
    _add_common(p)
    p.set_defaults(func=cmd_translate_o)

    p = subs.add_parser("realize-check",
                        help="does the evidence-carrying formula realize the "
                             "modal one?")
    p.add_argument("justified")
    p.add_argument("modal")
    _add_common(p)
    p.set_defaults(func=cmd_realize_check)

    p = subs.add_parser("probe",
                        help="search random relational models for a "
                             "countermodel")
    p.add_argument("target",
                   help="a modal formula, or a derivation file whose modal "
                        "image to probe")
    p.add_argument("--trials", type=_bounded_int(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, cs=True)
    p.set_defaults(func=cmd_probe)

    p = subs.add_parser("demo-attack",
                        help="reproduce the coordinated-attack analysis")
    p.add_argument("--depth", type=_bounded_int(0), default=3,
                   help="term family depth and saturation budget (default 3)")
    p.set_defaults(func=cmd_demo_attack)

    p = subs.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (JckError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
