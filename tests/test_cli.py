"""Command-line front end.  Exit codes: 0 accept/true/clean, 1 logical
rejection, 2 malformed input or missing file."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jck
from conftest import build_induction2_input
from jck.cli import main
from jck.deduction import Axiom, AxiomSchema, Derivation, Step, print_derivation
from jck.modal import (
    attack_kripke_model, forgetful, format_kripke_model, parse_kripke_file,
)
from jck.semantics import (
    attack_four_world_model, attack_singleton_model, format_model, satisfies,
)
from jck.synthesis import ConstantAllocator, c_reflexivity
from jck.syntax import C, Just, Prop, Var, parse_formula, print_formula

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


def test_eval_warning_goes_to_stderr(tmp_path, capsys):
    p = tmp_path / "warn.afm"
    p.write_text("h: 1\nworlds: w0 w1\nrel 1: (w0,w1)\nval P1: w0 w1\n")
    assert main(["eval", str(p), "P1", "--world", "w0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "true"
    assert "warning:" in captured.err


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
], ids=["model_h_two", "model_relx", "drv_hyp_x", "drv_mp_y", "model_val_long",
        "drv_step_long", "model_h_long", "eval_world_long", "model_world_name_long",
        "model_line_long", "eval_world_name_long", "model_h_signed_long"])
def test_malformed_numbers_exit_2_without_traceback(tmp_path, verb, suffix, text, extra):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    proc = run_jck(verb, str(path), *extra)
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


# ---------------------------------------------------------------------------
# translations


def test_translate_x_plain(hyps_drv, capsys):
    assert main(["translate-x", hyps_drv]) == 0
    out = capsys.readouterr().out
    assert "hyp: P1\n" in out  # the boxed hypothesis lost its box
    assert "accepted" in out


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


@pytest.mark.parametrize("depth", [0, 1, 2], ids=["depth0", "depth1", "depth2"])
def test_demo_attack_matches_golden(depth, capsys):
    assert main(["demo-attack", "--depth", str(depth)]) == 0
    golden = (GOLDEN / f"demo_attack_depth{depth}.txt").read_text()
    assert capsys.readouterr().out == golden


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
