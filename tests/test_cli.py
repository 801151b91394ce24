"""Command-line front end.  Exit codes: 0 accept/true/clean, 1 logical
rejection, 2 malformed input or missing file."""

import hashlib
import io
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

import jck
from conftest import build_induction2_input, format_model
from jck import gen
from jck.cli import demo_attack, main
from jck.deduction import (
    Axiom, AxiomSchema, Derivation, Step, check_derivation, print_derivation,
)
from jck.errors import ResourceError
from jck.gen import random_derivation
from jck.modal import (
    attack_kripke_model, forgetful, format_kripke_model, parse_kripke_file,
)
from jck.semantics import (
    attack_four_world_model, attack_singleton_model, satisfies,
)
from jck.synthesis import ConstantAllocator, c_reflexivity
from jck.syntax import (
    MAX_DEPTH, C, Just, Neg, Prop, Var, check_size, parse_formula, print_formula,
)

GOLDEN = Path(__file__).parent / "golden"
REFL_TEXT = print_derivation(c_reflexivity(Var(1, C), Prop(1)))
BOXED = Just(Var(1, C), C, Prop(1))
HYPS_TEXT = """hyp: [x1@C]@C P1
hyp: P2
1. [x1@C]@C P1 ; hyp 1
2. P2 ; hyp 2
3. P2 -> P1 -> P2 ; axiom Taut
4. P1 -> P2 ; mp 3 2
"""
BAD_TEXT = """1. P1 -> P1 ; axiom Taut
2. P1 ; mp 1 1
"""


@pytest.fixture
def refl_drv(tmp_path):
    p = tmp_path / "refl.drv"
    p.write_text(REFL_TEXT)
    return str(p)


@pytest.fixture
def hyps_drv(tmp_path):
    p = tmp_path / "hyps.drv"
    p.write_text(HYPS_TEXT)
    return str(p)


@pytest.fixture
def bad_drv(tmp_path):
    p = tmp_path / "bad.drv"
    p.write_text(BAD_TEXT)
    return str(p)


@pytest.fixture
def attack_afm(tmp_path):
    p = tmp_path / "attack4.afm"
    p.write_text(format_model(attack_four_world_model()))
    return str(p)


@pytest.fixture
def single_afm(tmp_path):
    p = tmp_path / "single.afm"
    p.write_text(format_model(attack_singleton_model()))
    return str(p)


@pytest.fixture
def attack_krm(tmp_path):
    p = tmp_path / "attack.krm"
    p.write_text(format_kripke_model(attack_kripke_model()))
    return str(p)


# ---------------------------------------------------------------------------
# parse


def test_parse_formula_canonical(capsys):
    assert main(["parse", "[x1@1]@1 (P1->P2)"]) == 0
    assert capsys.readouterr().out == "[x1@1]@1 (P1 -> P2)\n"


def test_parse_term_and_modal(capsys):
    assert main(["parse", "--kind", "term", "x1@2+c1@2*x2@2"]) == 0
    assert capsys.readouterr().out == "x1@2 + c1@2 * x2@2\n"
    assert main(["parse", "--kind", "modal", "#2 del&#1 #2 del->#C del"]) == 0
    assert capsys.readouterr().out == "#2 del & #1 #2 del -> #C del\n"


def test_parse_errors_exit_2(capsys):
    assert main(["parse", "[x1@3]@3 P1"]) == 2  # default h is 2
    assert "error:" in capsys.readouterr().err
    assert main(["parse", "--agents", "3", "[x1@3]@3 P1"]) == 0
    capsys.readouterr()
    assert main(["parse", "P1 ->"]) == 2
    assert main(["parse", "--kind", "modal", "P0"]) == 2
    assert main(["parse", "--kind", "modal", "Foo"]) == 2


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0


# ---------------------------------------------------------------------------
# check


def test_check_accepts_and_prints_conclusion(refl_drv, capsys):
    assert main(["check", refl_drv]) == 0
    out = capsys.readouterr().out
    assert "accepted" in out
    assert "conclusion: [x1@C]@C P1 -> P1" in out


def test_check_rejects_with_step(bad_drv, capsys):
    assert main(["check", bad_drv]) == 1
    out = capsys.readouterr().out
    assert "rejected at step 2: BadMP" in out


def test_check_fragment_screen(hyps_drv, capsys):
    assert main(["check", hyps_drv]) == 0
    capsys.readouterr()
    assert main(["check", hyps_drv, "--fragment", "agent"]) == 1
    assert "NotInFragment" in capsys.readouterr().out


def test_check_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "nope.drv")]) == 2


# ---------------------------------------------------------------------------
# internalization verbs


def test_lift_prints_term_and_derivation(hyps_drv, capsys):
    assert main(["lift", hyps_drv, "--target", "C"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("term: ")
    assert "; hyp 1" in out


@pytest.mark.parametrize("target", ["1", "2", "E", "C"])
def test_lift_takes_hypotheses_in_any_order(tmp_path, capsys, target):
    drv = tmp_path / "plain_first.drv"
    drv.write_text("hyp: P2\n"
                   "hyp: [x1@C]@C P1\n"
                   "1. P2 ; hyp 1\n"
                   "2. [x1@C]@C P1 ; hyp 2\n"
                   "3. P2 -> [x1@C]@C P1 -> P2 & [x1@C]@C P1 ; axiom Taut\n"
                   "4. [x1@C]@C P1 -> P2 & [x1@C]@C P1 ; mp 3 1\n"
                   "5. P2 & [x1@C]@C P1 ; mp 4 2\n")
    assert main(["lift", str(drv), "--target", target]) == 0
    out = capsys.readouterr().out
    # the plain hypothesis is boxed in its place, the C-boxed one stays
    hyps = [line for line in out.splitlines() if line.startswith("hyp: ")]
    assert len(hyps) == 2
    assert re.fullmatch(rf"hyp: \[x\d+@{target}\]@{target} P2", hyps[0])
    assert hyps[1] == "hyp: [x1@C]@C P1"
    _check_lifted(tmp_path, capsys, out)


def test_lift_refuses_bad_input(bad_drv, capsys):
    assert main(["lift", bad_drv, "--target", "1"]) == 1
    assert "refusing" in capsys.readouterr().out


def test_lift_bad_target_sort(hyps_drv):
    assert main(["lift", hyps_drv, "--target", "9"]) == 2
    assert main(["lift", hyps_drv, "--target", "7" * 5000]) == 2


def test_necessitate(refl_drv, capsys):
    assert main(["necessitate", refl_drv, "--target", "E"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("term: ")
    assert "constant c" in out


@pytest.mark.parametrize("target", ["1", "E", "C"])
def test_lift_matches_golden(hyps_drv, target, capsys):
    assert main(["lift", hyps_drv, "--target", target]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"lift_{target}.txt").read_text()


@pytest.mark.parametrize("target", ["1", "E", "C"])
def test_lifted_proof_checks_under_its_printed_constants(hyps_drv, target, tmp_path, capsys):
    # the `constant` lines, prefix dropped, form the --cs table of the proof
    assert main(["lift", hyps_drv, "--target", target]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = [line[len("constant "):] for line in lines if line.startswith("constant ")]
    proof = tmp_path / "lifted.drv"
    proof.write_text("".join(f"{line}\n" for line in lines
                             if not line.startswith(("term: ", "constant "))))
    cs = tmp_path / "lifted.cs"
    cs.write_text("".join(f"{line}\n" for line in table))
    assert main(["check", str(proof), "--cs", str(cs)]) == 0
    assert capsys.readouterr().out.startswith("accepted")
    cs.write_text("".join(f"{line}\n" for line in table[1:]))
    assert main(["check", str(proof), "--cs", str(cs)]) == 1
    assert "NotInCS" in capsys.readouterr().out


def test_necessitate_matches_golden(refl_drv, capsys):
    assert main(["necessitate", refl_drv, "--target", "E"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "necessitate_E.txt").read_text()


def test_necessitate_rejects_open_derivations(hyps_drv):
    # hypothesis-bearing input is an input error for this verb
    assert main(["necessitate", hyps_drv, "--target", "E"]) == 2


def test_induct1(tmp_path, capsys):
    boxed = "[x1@C]@C P1"
    inst = parse_formula(f"{boxed} -> [tail(x1@C)]@E {boxed}", 2)
    d = Derivation((), (Step(inst, Axiom(AxiomSchema.COCLOSTAIL)),))
    p = tmp_path / "cct.drv"
    p.write_text(print_derivation(d))
    assert main(["induct1", str(p), "--formula", boxed,
                 "--term", "tail(x1@C)"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("term: ")
    assert "constant c1@C :=" in out


def test_induct2(tmp_path, capsys):
    alloc = ConstantAllocator()
    a, bb, s, d = build_induction2_input(alloc)
    p = tmp_path / "ind2.drv"
    p.write_text(print_derivation(d))
    from jck.syntax import print_formula, print_term
    assert main(["induct2", str(p),
                 "--formula", print_formula(a),
                 "--formula-b", print_formula(bb),
                 "--term", print_term(s)]) == 0
    out = capsys.readouterr().out
    assert "projection constant: " in out


# ---------------------------------------------------------------------------
# evaluation


def test_eval_agrees_with_library(attack_afm, capsys):
    m = attack_four_world_model()
    for text, world in (("[m1@2]@2 del", 0), ("[m2@1]@1 [m1@2]@2 del", 0),
                        ("[x1@C]@C del", 0), ("del", 3)):
        expect = satisfies(m, world, parse_formula(text, 2))
        code = main(["eval", attack_afm, text, "--world", f"w{world}"])
        out = capsys.readouterr().out.strip()
        assert out == ("true" if expect else "false")
        assert code == (0 if expect else 1)


def test_eval_kripke(attack_krm, capsys):
    assert main(["eval", attack_krm, "#2 del", "--world", "0", "--kripke"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", attack_krm, "#2 del & #1 #2 del -> #C del",
                 "--world", "0", "--kripke"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_eval_error_paths(attack_afm):
    assert main(["eval", attack_afm, "del", "--world", "w9"]) == 2
    assert main(["eval", attack_afm, "del &", "--world", "w0"]) == 2


@pytest.mark.parametrize("world", ["w", "w-1", "w 3", " x1"])
def test_eval_quotes_a_bad_world_as_given(attack_afm, world, capsys):
    assert main(["eval", attack_afm, "del", "--world", world]) == 2
    assert capsys.readouterr().err == f"error: not a world name: {world!r}\n"


def test_eval_warning_goes_to_stderr(tmp_path, capsys):
    p = tmp_path / "warn.afm"
    p.write_text("h: 1\nworlds: w0 w1\nrel 1: (w0,w1)\nval P1: w0 w1\n")
    assert main(["eval", str(p), "P1", "--world", "w0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "true"
    assert "warning:" in captured.err


SPEC_MODEL = "h: 1\nworlds: w0\nval P1: w0\nmode: base\ncs: {}\n"


@pytest.mark.parametrize("spec, code", [
    ("file extras.cs", 0),  # next to the model file
    ("file {dir}/extras.cs", 0),  # absolute
    ("totalC", 1),  # c1@1 is not a common constant
])
def test_eval_reads_the_specification_file_beside_the_model(tmp_path, monkeypatch, capsys,
                                                            spec, code):
    (tmp_path / "extras.cs").write_text("c1@1 := P1 -> P1\n")
    model = tmp_path / "spec.afm"
    model.write_text(SPEC_MODEL.format(spec.format(dir=tmp_path)))
    monkeypatch.chdir(tmp_path.parent)  # not the model's directory
    assert main(["eval", str(model), "[c1@1]@1 (P1 -> P1)", "--world", "w0"]) == code
    assert capsys.readouterr().out.strip() == ("true" if code == 0 else "false")
    assert main(["validate", str(model)]) == 0


def test_specification_keyword_is_not_a_prefix(tmp_path, capsys):
    # `cs: filetable.cs` names no table, though `table.cs` is there
    (tmp_path / "table.cs").write_text("c1@C := P1 -> P1\n")
    model = tmp_path / "spec.afm"
    model.write_text(SPEC_MODEL.format("filetable.cs"))
    assert main(["eval", str(model), "P1", "--world", "w0"]) == 2
    err = capsys.readouterr().err
    assert "unknown specification 'filetable.cs'" in err and err.count("\n") == 1


def test_missing_specification_file_exits_2_with_one_line(tmp_path):
    model = tmp_path / "spec.afm"
    model.write_text(SPEC_MODEL.format("file nope.cs"))
    for argv in (("eval", str(model), "P1", "--world", "w0"), ("validate", str(model))):
        proc = run_jck(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "nope.cs" in proc.stderr
        assert "Traceback" not in proc.stderr


NOT_UTF8 = b"\xe9"  # Latin-1 for e-acute: not a UTF-8 sequence
BOM = b"\xef\xbb\xbf"


def _encoded_inputs(tmp_path, bad: str | None, prefix: bytes = b"") -> dict[str, str]:
    """A derivation, a model, a model naming a cs file, and a cs file, each
    written as UTF-8 after `prefix`; the one named `bad` ends in a byte that
    is not UTF-8.  Returns the paths by name."""
    texts = {"drv": HYPS_TEXT, "afm": SPEC_MODEL.format("totalC"),
             "spec.afm": SPEC_MODEL.format("file table.cs"), "table.cs": "c1@1 := P1 -> P1\n"}
    paths = {}
    for name, text in texts.items():
        path = tmp_path / (name if "." in name else f"in.{name}")
        data = prefix + text.encode()
        path.write_bytes(data + NOT_UTF8 + b"\n" if name == bad else data)
        paths[name] = str(path)
    return paths


# every verb that reads a file, and the input it reads
_FILE_VERBS = [
    ("drv", lambda p: ["check", p["drv"]]),
    ("drv", lambda p: ["lift", p["drv"], "--target", "C"]),
    ("afm", lambda p: ["eval", p["afm"], "P1", "--world", "w0"]),
    ("afm", lambda p: ["validate", p["afm"]]),
    ("table.cs", lambda p: ["check", p["drv"], "--cs", p["table.cs"]]),
    ("table.cs", lambda p: ["validate", p["spec.afm"]]),
]


@pytest.mark.parametrize("bad, argv", _FILE_VERBS,
                         ids=["check", "lift", "eval", "validate", "check_cs", "model_cs"])
def test_a_file_that_is_not_utf8_exits_2_naming_it_and_the_offset(tmp_path, capsys, bad, argv):
    paths = _encoded_inputs(tmp_path, bad)
    offset = Path(paths[bad]).read_bytes().index(NOT_UTF8)
    assert main(argv(paths)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert Path(paths[bad]).name in captured.err
    assert f"at byte offset {offset}" in captured.err


@pytest.mark.parametrize("argv", [argv for _, argv in _FILE_VERBS],
                         ids=["check", "lift", "eval", "validate", "check_cs", "model_cs"])
def test_a_leading_byte_order_mark_reads_as_nothing(tmp_path, capsys, argv):
    assert main(argv(_encoded_inputs(tmp_path, None))) == 0
    expected = capsys.readouterr().out
    marked = tmp_path / "marked"
    marked.mkdir()
    assert main(argv(_encoded_inputs(marked, None, BOM))) == 0
    assert capsys.readouterr().out == expected


def run_jck(*argv) -> subprocess.CompletedProcess:
    """Run the command line in a child interpreter, as a shell would."""
    src = str(Path(jck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "jck.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("verb, suffix, text, extra", [
    ("validate", ".afm", "h: two\nworlds: w0\n", ()),
    ("validate", ".afm", "h: 1\nworlds: w0\nrelx: (w0,w0)\n", ()),
    ("check", ".drv", "1. P1 ; hyp x\n", ()),
    ("check", ".drv", "1. P1 -> P1 ; axiom Taut\n2. P1 ; mp 1 y\n", ()),
    ("validate", ".afm", f"h: 1\nworlds: w0\nval P{'7' * 5000}: w0\n", ()),
    ("check", ".drv", f"{'7' * 5000}. P1 -> P1 ; axiom Taut\n", ()),
    ("validate", ".afm", f"h: {'7' * 5000}\nworlds: w0\n", ()),
    ("eval", ".afm", "h: 1\nworlds: w0\n", ("P1", "--world", f"w{'7' * 5000}")),
    ("validate", ".afm", f"h: 1\nworlds: wx{'7' * 5000}\n", ()),
    ("validate", ".afm", f"h: 1\nworlds: w0\nfoo{'7' * 5000}: 1\n", ()),
    ("eval", ".afm", "h: 1\nworlds: w0\n", ("P1", "--world", f"x{'7' * 5000}")),
    ("validate", ".afm", f"h: -{'7' * 5000}\nworlds: w0\n", ()),
    ("validate", ".afm", f"h: 1\nworlds: w0\nval x{'7' * 5000}: w0\n", ()),
    ("parse", None, f"x{'7' * 5000}", ()),
    ("check", ".drv", "hyp: P1\n1. P1 ; hyp +1\n", ()),
    ("check", ".drv", "1. P1 -> P1 ; axiom Taut\n2. P1 ; mp 0_2 1\n", ()),
    ("validate", ".afm", "h: +2\nworlds: w0\n", ()),
    ("validate", ".afm", "h: 1\nworlds: w0\nrel 0_1: (w0,w0)\n", ()),
    ("parse", None, "P1", ("--agents", "0_2")),
], ids=["model_h_two", "model_relx", "drv_hyp_x", "drv_mp_y", "model_val_long",
        "drv_step_long", "model_h_long", "eval_world_long", "model_world_name_long",
        "model_line_long", "eval_world_name_long", "model_h_signed_long", "model_val_name_long",
        "parse_name_long", "drv_hyp_plus", "drv_mp_underscore", "model_h_plus",
        "model_rel_underscore", "agents_underscore"])
def test_malformed_numbers_exit_2_without_traceback(tmp_path, verb, suffix, text, extra):
    # a row without a file suffix passes its text as the argument itself
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    proc = run_jck(verb, str(path) if suffix else text, *extra)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr) < 200


@pytest.mark.parametrize("argv", [
    ["parse", f"P{'7' * 5000}"],
    ["parse", "--kind", "term", f"x{'7' * 5000}@1"],
    ["parse", "--kind", "modal", f"#{'7' * 5000} P1"],
], ids=["formula", "term", "modal"])
def test_over_long_integers_exit_2_without_traceback(argv):
    proc = run_jck(*argv)
    assert proc.returncode == 2
    assert "too large (at offset" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("count", ["1001", "100000000"])
def test_agents_flag_above_cap_is_a_usage_error(count):
    proc = run_jck("probe", "#1 P1", "--agents", count, "--trials", "1")
    assert proc.returncode == 2
    assert "must be at most 1000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_agent_count_above_cap_exits_2(tmp_path):
    path = tmp_path / "many.afm"
    path.write_text("h: 100000\nworlds: w0\n")
    proc = run_jck("validate", str(path))
    assert proc.returncode == 2
    assert "exceeds the cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_frame_above_cap_exits_2(tmp_path):
    # 1,000 agents over 4,195 worlds: more frame pairs than MAX_FRAME_PAIRS
    path = tmp_path / "wide.afm"
    path.write_text("h: 1000\nworlds: " + " ".join(f"w{w}" for w in range(4195)) + "\n")
    proc = run_jck("validate", str(path))
    assert proc.returncode == 2
    assert "exceeds the cap of 4194304 frame pairs" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_parenthesis_closing_no_pair_exits_2(tmp_path):
    path = tmp_path / "stray.afm"
    path.write_text("h: 1\nworlds: w0 w1\nrel 1: ))) (w0,w1)),\n")
    proc = run_jck("validate", str(path))
    assert proc.returncode == 2
    assert "bad relation pair ')'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_common_knowledge_on_a_2000_world_cycle(tmp_path):
    # each agent links disjoint pairs of worlds, and the two together make
    # one cycle through all 2,000: common reachability relates every world
    # to every other, 4 M pairs, but is one component with one tuple
    n = 2000
    text = "\n".join([
        "h: 2", "worlds: " + " ".join(f"w{w}" for w in range(n)),
        "rel 1: " + " ".join(f"(w{w},w{w + 1})" for w in range(0, n, 2)),
        "rel 2: " + " ".join(f"(w{w},w{(w + 1) % n})" for w in range(1, n, 2)),
        "val P1: " + " ".join(f"w{w}" for w in range(n)),
    ]) + "\n"
    path = tmp_path / "cycle.krm"
    path.write_text(text)
    proc = run_jck("eval", "--kripke", str(path), "#C P1", "--world", "w0")
    assert proc.returncode == 0
    assert proc.stdout == "true\n"
    assert "Traceback" not in proc.stderr
    m, _ = parse_kripke_file(text)
    succ = m.successors(C)
    assert len(succ) == n and len({id(us) for us in succ.values()}) == 1
    assert sorted(succ[0]) == list(range(n))


def test_validate(attack_afm, attack_krm, single_afm, tmp_path, capsys):
    for path in (attack_afm, single_afm):
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"
    assert main(["validate", attack_krm, "--kripke"]) == 0
    capsys.readouterr()
    broken = tmp_path / "broken.afm"
    broken.write_text("h: 1\nworlds: w0\nevidence: (w5, c1@1, P1)\n")
    assert main(["validate", str(broken)]) == 2


@pytest.mark.parametrize("text, message", [
    ("h: 2\nworlds: w0\nevidence: (w0, c1@3, P1)\n", "agent index 3 outside 1..2"),
    ("h: 2\nworlds: w0\nevidence: (w0, c1@1, [x1@3]@3 P1)\n", "agent index 3 outside 1..2"),
    ("h: 2\nworlds: w0\nevidence: (w0, pi_3(x1@E), P1)\n", "agent index 3 outside 1..2"),
    ("h: 2\nworlds: w0\nevidence: (w0, !3(x1@3), P1)\n", "agent index 3 outside 1..2"),
    ("h: 2\nworlds: w0\nevidence: (w0, <x1@1>, P1)\n",
     "tuple arity 1 does not match agent count 2"),
    # evidence is read against the h in force, so no later h: line may
    # change it
    ("h: 2\nworlds: w0\nevidence: (w0, c1@2, P1)\nh: 1\n", "more than one h: line"),
    ("h: 2\nworlds: w0\nevidence: (w0, <x1@1, x1@2>, P1)\nh: 1\n", "more than one h: line"),
    ("h: 1\nh: 1\nworlds: w0\n", "more than one h: line"),
], ids=["const", "assertion", "proj", "bang", "tuple", "late-h", "late-h-tuple", "same-h"])
def test_out_of_range_evidence_exits_2(tmp_path, capsys, text, message):
    # the parser range-checks evidence against h; the loader adds no check
    path = tmp_path / "range.afm"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("line", ["modes: 3", "csv: 3", "valuation P1: w0", "rel1: (w0,w0)"])
def test_validate_kripke_reads_keys_not_prefixes(tmp_path, capsys, line):
    # only a `mode` or `cs` key is ignored, and `rel` and `val` are words
    # before an index or name; a key that merely starts with one is as
    # unknown as it is to the evidence-model loader
    path = tmp_path / "frame.krm"
    path.write_text(f"h: 1\nworlds: w0\n{line}\n")
    for argv in (["validate", str(path)], ["validate", str(path), "--kripke"]):
        assert main(argv) == 2
        assert "unknown model line" in capsys.readouterr().err
    path.write_text("h: 1\nworlds: w0\nmode : base\ncs: totalC\n")
    assert main(["validate", str(path), "--kripke"]) == 0
    assert capsys.readouterr().err.count("warning: ignored line") == 2


# ---------------------------------------------------------------------------
# translations


def test_translate_x_plain(hyps_drv, capsys):
    assert main(["translate-x", hyps_drv]) == 0
    out = capsys.readouterr().out
    assert "hyp: P1\n" in out  # the boxed hypothesis lost its box
    assert "accepted" in out


def test_translate_x_runs_the_kernel_once_on_its_input(hyps_drv, monkeypatch, capsys):
    import jck.cli
    import jck.modal
    checked = []

    def counting(d, cs, h=None, fragment="full"):
        checked.append(fragment)
        return check_derivation(d, cs, h=h, fragment=fragment)

    monkeypatch.setattr(jck.cli, "check_derivation", counting)
    monkeypatch.setattr(jck.modal, "check_derivation", counting)
    assert main(["translate-x", hyps_drv]) == 0
    assert checked == ["full", "agent"]  # the input once, then the translation


def test_translate_x_flags_members(tmp_path, capsys):
    table = tmp_path / "members.cs"
    table.write_text(
        "c1@1 := [c2@1]@1 P1 -> P1\n"
        "c2@2 := [pi_2(x1@E)]@2 (P1 -> P2) -> ([c1@2]@2 P1 -> "
        "[pi_2(x1@E) * c1@2]@2 P2)\n")
    drv = tmp_path / "axnec.drv"
    drv.write_text("1. [c1@1]@1 ([c2@1]@1 P1 -> P1) ; axnec c1@1\n")
    assert main(["translate-x", str(drv), "--cs", str(table)]) == 0
    out = capsys.readouterr().out
    assert "cs member: c1@1 :=" in out
    assert "flagged: c2@2" in out
    assert "accepted" in out


@pytest.mark.parametrize("text, rejection", [
    ("1. P1 -> P1 ; axiom Taut\n2. P1 ; mp 5 1\n", "at step 2: BadMP"),
    ("hyp: P1\n1. P1 ; hyp 3\n", "at step 1: BadHypIndex"),
    ("1. P1 -> P1 ; axiom Refl\n", "at step 1: NotAnAxiom"),
    ("hyp: P1\n1. P2 ; hyp 1\n",
     "at step 1: BadHypIndex (step formula differs from hypothesis 1)"),
    ("1. " + " | ".join(f"P{i}" for i in range(1, 26)) + " | ~P1 ; axiom Taut\n",
     "at step 1: NotAnAxiom (25 propositional atoms exceed the cap of 24)"),
    ("1. P1 ; axnec c1@C\n",
     "at step 1: NotInCS (step formula is not the boxed form of its constant)"),
])
def test_translate_x_refuses_bad_input(tmp_path, capsys, text, rejection):
    # the first three once escaped as KeyError, IndexError or AttributeError;
    # a row that gives the whole report pins its message too
    drv = tmp_path / "bad.drv"
    drv.write_text(text)
    assert main(["translate-x", str(drv)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("input derivation does not check; refusing to translate\n")
    report = captured.out.splitlines()[1]
    assert report == f"rejected {rejection}" or report.startswith(f"rejected {rejection} (")
    assert "Traceback" not in captured.err


def test_translate_o(capsys):
    assert main(["translate-o",
                 "[m1@2]@2 del & [m2@1]@1 [m1@2]@2 del -> [x1@C]@C del"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "translate_o_readme.txt").read_text()
    expr = "[x1@1]@1 P1 -> P2 & ~P3"
    main(["translate-o", expr])
    assert capsys.readouterr().out.strip() == print_formula(
        forgetful(parse_formula(expr, 2)))


def test_realize_check(capsys):
    assert main(["realize-check", "[x1@1]@1 P1 -> P1", "#1 P1 -> P1"]) == 0
    assert capsys.readouterr().out.strip() == "realizes"
    assert main(["realize-check", "[x1@1]@1 P1 -> P1", "#1 P1 -> P2"]) == 1
    assert capsys.readouterr().out.strip() == "does not realize"


# ---------------------------------------------------------------------------
# probes and demos


def test_probe_modal_control(capsys):
    assert main(["probe", "#1 P1 -> #C P1"]) == 1
    out = capsys.readouterr().out
    assert "countermodel found" in out
    assert "rel 1:" in out


@pytest.mark.parametrize("argv", [
    ["probe", "#1 P1 -> #C P1", "--trials", "-5"],
    ["probe", "#1 P1 -> #C P1", "--trials", "0"],
    ["demo-attack", "--depth", "-1"],
    ["eval", "model.afm", "P1", "--world", "w0", "--depth", "-1"],
], ids=["probe_trials_negative", "probe_trials_zero", "demo_attack_depth", "eval_depth"])
def test_out_of_range_numeric_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err


@pytest.mark.parametrize("seed", [0, 1, 2], ids=["seed0", "seed1", "seed2"])
def test_probe_control_matches_golden(seed, capsys):
    assert main(["probe", "#1 P1 -> #C P1", "--seed", str(seed)]) == 1
    golden = (GOLDEN / f"probe_control_seed{seed}.txt").read_text()
    assert capsys.readouterr().out == golden


def test_probe_theorem_file(refl_drv, capsys):
    assert main(["probe", refl_drv, "--trials", "50"]) == 0
    assert "no countermodel in 50 trials" in capsys.readouterr().out


def test_probe_rejects_bad_file(bad_drv, capsys):
    assert main(["probe", bad_drv]) == 1
    assert "probe needs a theorem" in capsys.readouterr().out


def test_demo_attack(capsys):
    assert main(["demo-attack", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "all claims hold" in out
    assert "bounded check" in out
    assert "[FAIL]" not in out


@pytest.mark.parametrize("depth", [0, 1, 2, 3], ids=["depth0", "depth1", "depth2", "depth3"])
def test_demo_attack_matches_golden(depth, capsys):
    assert main(["demo-attack", "--depth", str(depth)]) == 0
    golden = (GOLDEN / f"demo_attack_depth{depth}.txt").read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("depth", [0, 1, 2, 3], ids=["depth0", "depth1", "depth2", "depth3"])
def test_demo_attack_is_unchanged_by_a_warm_enumeration_memo(depth):
    gen._enumerate_by_sort.cache_clear()
    first, ok = demo_attack(depth)
    second, again = demo_attack(depth)
    assert ok and again
    assert first == second == (GOLDEN / f"demo_attack_depth{depth}.txt").read_text()


def test_demo_attack_past_the_term_cap_exits_2_with_one_line():
    proc = run_jck("demo-attack", "--depth", "4")
    assert proc.returncode == 2
    assert proc.stderr == "error: term enumeration exceeded 200000 terms\n"


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = re.sub(r" in \d+\.\ds ", " in N.Ns ", capsys.readouterr().out, count=1)
    assert out == (GOLDEN / "selftest.txt").read_text()


_DEEP = 10_000


@pytest.mark.parametrize("kind, text", [
    ("formula", "~" * _DEEP + "P1"),
    ("formula", "(" * _DEEP + "P1" + ")" * _DEEP),
    ("term", "!1(" * _DEEP + "x1@1" + ")" * _DEEP),
    ("formula", "[x1@1]@1 " * _DEEP + "P1"),
    ("modal", "#1 " * _DEEP + "P1"),
], ids=["neg", "paren", "bang", "just", "box"])
def test_deep_nesting_exits_2_without_traceback(kind, text, tmp_path, capsys):
    assert main(["parse", "--kind", kind, text]) == 2
    err = capsys.readouterr().err
    assert "nesting deeper than" in err and err.count("\n") == 1
    assert "Traceback" not in err
    if kind == "modal":
        return  # a derivation file holds no modal formula
    formula = f"[{text}]@1 P1" if kind == "term" else text
    path = tmp_path / "deep.drv"
    path.write_text(f"1. {formula} ; axiom Taut\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "nesting deeper than" in err and err.count("\n") == 1
    assert "Traceback" not in err


def _mp_chain(path, steps: int) -> str:
    """A derivation of P1 -> P1 by `steps` modus ponens steps in a row."""
    lines = ["1. P1 -> P1 ; axiom Taut"]
    for k in range(1, 2 * steps, 2):
        lines += [f"{k + 1}. (P1 -> P1) -> P1 -> P1 ; axiom Taut",
                  f"{k + 2}. P1 -> P1 ; mp {k + 1} {k}"]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_lifting_a_long_chain_exits_2_without_traceback(tmp_path):
    # the lifted conclusion nests about one level per step; printing it
    # recursed past the interpreter's limit
    proc = run_jck("lift", _mp_chain(tmp_path / "chain.drv", 1000), "--target", "C")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: the result nests deeper than 250 levels\n"


@pytest.mark.parametrize("target, digest", [
    ("1", "9467ee5f1445a70a6e07e3c5c8a366764a74048b8cb2a3895b5a7c2248bd8b95"),
    ("C", "0a44cf6cca758f229378c798b0c5407fe682769b52d8ab157d38b209076150ec"),
])
def test_lifted_chain_within_the_cap_prints_and_reads_back(tmp_path, capsys, target, digest):
    assert main(["lift", _mp_chain(tmp_path / "chain.drv", 100), "--target", target]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    _check_lifted(tmp_path, capsys, out)


def test_lifted_chain_at_the_cap_reads_back_and_one_step_more_is_refused(tmp_path, capsys):
    # lifted to C, 247 steps nest exactly MAX_DEPTH levels as the parser
    # counts them, and 248 steps one level more
    assert main(["lift", _mp_chain(tmp_path / "chain.drv", 247), "--target", "C"]) == 0
    out = capsys.readouterr().out
    formulas = [line.split(". ", 1)[1].rsplit(" ; ", 1)[0]
                for line in out.splitlines() if re.match(r"\d+\. ", line)]
    # `check_size` counts depth as the parser does: the deepest formula is at
    # the cap, and one level more is over it
    parsed = [parse_formula(f, 1) for f in formulas]
    check_size(parsed, "the proof")
    with pytest.raises(ResourceError, match=f"nests deeper than {MAX_DEPTH} levels"):
        check_size([Neg(a) for a in parsed], "the proof")
    _check_lifted(tmp_path, capsys, out)
    assert main(["lift", _mp_chain(tmp_path / "chain.drv", 248), "--target", "C"]) == 2
    assert capsys.readouterr() == ("", "error: the result nests deeper than 250 levels\n")


@pytest.mark.parametrize("steps, error", [
    (16, "the result would print 427802964 characters, over the cap of 67108864"),
    (100, "the result nests deeper than 250 levels"),
])
def test_lifting_a_chain_to_E_past_a_cap_exits_2_before_printing(tmp_path, steps, error):
    # lifted to E, the printed proof doubles with each step although the
    # proof shares its subterms: 12 steps print 26.7 MB, and 16 steps ran
    # out of memory printing
    started = time.monotonic()
    proc = run_jck("lift", _mp_chain(tmp_path / "chain.drv", steps), "--target", "E")
    assert time.monotonic() - started < 30
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")


def test_lifting_a_short_chain_to_E_prints_as_before(tmp_path, capsys):
    assert main(["lift", _mp_chain(tmp_path / "chain.drv", 5), "--target", "E"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 201310
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "5fc8ec36249035f9b7627adc99cc5d145f8cc186bb6df9e3b27c68cf03ffdc5b")
    _check_lifted(tmp_path, capsys, out)


def _proof_lines(out: str) -> str:
    """The derivation in what `lift` or `necessitate` printed as `out`."""
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith(("term:", "constant ")))


def _check_lifted(tmp_path, capsys, out: str, agents: int = 2) -> None:
    """`jck check` accepts the derivation that `lift` printed as `out`."""
    lifted = tmp_path / "lifted.drv"
    lifted.write_text(_proof_lines(out))
    assert main(["check", str(lifted), "--agents", str(agents)]) == 0
    assert capsys.readouterr().out.startswith("accepted\n")


def test_lifting_modus_ponens_to_E_works_for_at_most_7_agents(tmp_path, capsys):
    # derived application at E closes with one tautology of 3h + 3 atoms,
    # over the kernel's cap of 24 from 8 agents on
    drv = tmp_path / "mp.drv"
    drv.write_text("hyp: P1\nhyp: P1 -> P2\n"
                   "1. P1 ; hyp 1\n2. P1 -> P2 ; hyp 2\n3. P2 ; mp 2 1\n")
    assert main(["lift", str(drv), "--target", "E", "--agents", "7"]) == 0
    _check_lifted(tmp_path, capsys, capsys.readouterr().out, agents=7)
    assert main(["lift", str(drv), "--target", "E", "--agents", "8"]) == 2
    assert capsys.readouterr() == ("", "error: 27 propositional atoms exceed the cap of 24\n")


def _run_main(*argv) -> tuple[int, str, str]:
    """`main(argv)` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# A failing example is reported as drawn, unshrunk: shrinking re-runs
# lifts to E of up to 10 agents, for minutes.
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 2 ** 32 - 1), agents=st.integers(1, 10),
       target=st.sampled_from(["1", "E", "C"]))
def test_every_proof_a_verb_prints_checks(tmp_path_factory, seed, agents, target):
    """`lift` and `necessitate` exit 0 or 2 on a seeded random derivation,
    with no traceback, and `jck check` accepts every proof they print."""
    rng = random.Random(seed)
    d = random_derivation(rng, agents, n_extra=rng.randint(1, 3))
    given_drv = tmp_path_factory.mktemp("verbs") / "given.drv"
    given_drv.write_text(print_derivation(d))
    for verb in ("lift", "necessitate"):
        code, out, err = _run_main(verb, str(given_drv), "--target", target,
                                   "--agents", str(agents))
        assert code in (0, 2), (verb, out, err)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            continue
        printed = given_drv.with_name(f"{verb}.drv")
        printed.write_text(_proof_lines(out))
        code, out, _ = _run_main("check", str(printed), "--agents", str(agents))
        assert (code, out.split("\n", 1)[0]) == (0, "accepted"), (verb, out)
