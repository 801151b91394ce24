"""Golden transcripts of the model verbs: `validate`, `eval` in base, full and
`--kripke` mode, and `probe`, on seeded model files of 8, 16 and 32 worlds.

Each `tests/golden/models/<name>.afm` is a base-mode model with evidence
facts, `<name>.full.afm` the same frame in full evidence mode, and
`<name>.query` the seeded base query the evidence facts were drawn from.
`cycles16` is written unclosed, so loading it warns; `unknown8` has a pair
that names an unknown world, so every verb on it exits 2.  A transcript
records each command's exit code, stdout, and stderr (lines marked `! `),
byte for byte.
"""

import shlex
from pathlib import Path

import pytest

from jck.cli import main

MODELS = Path(__file__).parent / "golden" / "models"
NAMES = ("frame8", "frame16", "frame32", "chain32", "cycles16", "unknown8")

KRIPKE = ("#C P1", "#C (P1 | #1 P2)", "#1 #C P3 -> #C #E P3",
          "#E #C P4 | #C ~P4", "~#C ~#2 P1", "#C #C P2 -> #C P2")
FULL = ("[x1@C]@C P1", "[x1@C]@C [x2@1]@1 P2 -> P3", "~[x1@C]@C ~[x2@2]@2 P4")
BASE = ("[c1@C]@C (P1 -> P1)", "[c2@C]@C (P2 -> P2) -> [x1@C]@C P2")
PROBES = (
    ("#C P1 -> P1",),
    ("#C P1 -> #1 #C P1", "--seed", "3"),
    ("#E P1 -> #C P1", "--seed", "5"),
    ("#C (P1 -> P2) -> #C P1 -> #C P2", "--trials", "40"),
    ("#1 P1 -> #C P1", "--seed", "7", "--trials", "20"),
    ("~#C P2 | #E #E P2", "--agents", "3", "--seed", "11"),
)


def _run(argv, capsys, shown) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    lines = ["$ jck " + shlex.join(shown), f"exit {code}"]
    lines += captured.out.splitlines()
    lines += ["! " + line for line in captured.err.splitlines()]
    return "\n".join(lines) + "\n"


def transcript(name: str, capsys) -> str:
    """Every model verb on the model pair `name`, one command after another."""
    base = str(MODELS / f"{name}.afm")
    full = str(MODELS / f"{name}.full.afm")
    query = (MODELS / f"{name}.query").read_text().strip()
    worlds = next(line for line in (MODELS / f"{name}.afm").read_text().splitlines()
                  if line.startswith("worlds:")).split()[1:]
    sample = worlds[::max(1, len(worlds) // 4)]
    out = []

    def run(argv):
        out.append(_run(argv, capsys, [Path(a).name if a in (base, full) else a
                                       for a in argv]))

    run(["validate", base])
    run(["validate", "--kripke", full])
    for w in worlds:
        for a in KRIPKE:
            run(["eval", "--kripke", full, a, "--world", w])
    for w in sample:
        for a in (query,) + FULL:
            run(["eval", full, a, "--world", w])
        for a in (query,) + BASE:
            run(["eval", base, a, "--world", w])
    return "".join(out)


@pytest.mark.parametrize("name", NAMES)
def test_model_verbs_match_golden(name, capsys):
    golden = (MODELS / f"{name}.txt").read_text()
    assert transcript(name, capsys) == golden


def probe_transcript(capsys) -> str:
    return "".join(_run(["probe", *argv], capsys, ["probe", *argv]) for argv in PROBES)


def test_probe_matches_golden(capsys):
    assert probe_transcript(capsys) == (MODELS / "probe.txt").read_text()
