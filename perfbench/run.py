"""jck benchmark: one workload, one seed, passes in fresh interpreters.

    python3 perfbench/run.py --workload proofs --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; jck is imported from `src/` of that
checkout.  A pass is the seed's fixed set of inputs, built and run once in a
fresh interpreter, so every pass starts with jck's caches as empty as a CLI
call does.  With `--trace 0` the run repeats passes (at least three) while
the next one, at the passes' mean wall time, still ends within `--seconds`
of the first one's start, takes each unit's and each item's best time over
the passes (the shared machine slows whole seconds at a time, and the best of
several cold passes is what the code costs), and reports the end-to-end
metrics.  Every time in them but set-up's import part is in reference
seconds, scaled by a fixed reference loop run around each unit (see `pace`),
because the machine's speed also drifts from minute to minute; the same
figures in seconds are printed above the result line.  With `--trace 1` it runs one pass with
spans around jck's public functions, then one untraced pass in a child
interpreter, and reports the per-layer metrics (in seconds); a fixed pass
makes every count repeat exactly for a seed.
Either way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 when every verdict matched its reference, 1 when one did
not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
MIN_PASSES = 3


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_jck() -> None:
    """Import jck from this checkout's `src/`, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import jck
    except ImportError as e:
        _fail(f"cannot import jck from {src}: {e}")
    if Path(jck.__file__).resolve().parent.parent != src.resolve():
        _fail(f"imported jck from {jck.__file__}, not from {src}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("proofs", "attack", "models"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="wall time to spend on untraced passes with --trace 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, default=None,
                   help="units in a pass (items; passes of the sweep for attack) "
                        "instead of the workload's own number")
    p.add_argument("--passes", type=int, default=None,
                   help="run exactly this many passes instead of measuring for --seconds")
    p.add_argument("--pass", dest="one_pass", action="store_true",
                   help="run one untraced pass and print its raw timings")
    p.add_argument("--plant-wrong-verdict", action="store_true",
                   help="corrupt one reference verdict (the benchmark's own test)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or any(n is not None and n < 1 for n in (args.items, args.passes)):
        p.error("--seconds, --items and --passes must be positive")
    return args


def run_pass(wl, units, tracer=None) -> dict:
    """Run every unit once, timing only `wl.run`; check each verdict between
    timings.  The reference loop runs just before and just after every unit
    and at the pass's edges (see `pace`).  Returns the pass's raw timings:
    per unit its time and the loop's local time, per item its latency, the
    loop's local time and its row label."""
    clock = time.perf_counter
    out = {"failed": 0, "attempted": 0, "unit_s": [], "unit_loop_s": [], "item_s": [],
           "item_loop_s": [], "labels": [],
           "edge_loop_s": [pace.reference_loop() for _ in range(pace.EDGE_SAMPLES)]}
    for unit in units:
        n_items = wl.items_per_unit
        before = pace.reference_loop()
        if tracer is not None:
            tracer.item = unit.index
            tracer.enabled = True
        t0 = clock()
        try:
            result = wl.run(unit)
        except Exception:
            result = None
            error = traceback.format_exc()
        t1 = clock()
        if tracer is not None:
            tracer.enabled = False
        after = pace.reference_loop()
        inner = (result.loop_runs if result is not None else None) or []
        unit_s = t1 - t0 - sum(inner)
        unit_loop_s = statistics.median([before, after, *inner])
        out["attempted"] += n_items
        out["unit_s"].append(unit_s)
        out["unit_loop_s"].append(unit_loop_s)
        if result is None:
            print(f"unit {unit.index} raised:\n{error}", file=sys.stderr)
            out["failed"] += n_items
            out["item_s"].append([unit_s / n_items] * n_items)
            out["item_loop_s"].append([unit_loop_s] * n_items)
            out["labels"].append(["error"] * n_items)
            continue
        try:
            out["failed"] += wl.check(unit, result)
        except Exception:
            out["failed"] += n_items
            print(f"checking unit {unit.index} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
        if result.latencies is None:
            out["item_s"].append([unit_s])
            out["item_loop_s"].append([unit_loop_s])
            out["labels"].append([unit.label])
        else:
            out["item_s"].append(result.latencies)
            out["item_loop_s"].append(result.loop_s)
            out["labels"].append(result.labels)
    out["edge_loop_s"] += [pace.reference_loop() for _ in range(pace.EDGE_SAMPLES)]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _child_pass(args) -> dict:
    """Run one untraced pass in a fresh interpreter and return its timings."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--pass"]
    if args.items is not None:
        cmd += ["--items", str(args.items)]
    if args.plant_wrong_verdict:
        cmd.append("--plant-wrong-verdict")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        _fail(f"pass failed ({proc.returncode}):\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_times(p: dict, paced: bool) -> tuple[list[float], list[float]]:
    """A pass's item latencies and its units' time outside their items
    (attack's fixtures and enumeration), in reference seconds when `paced`,
    else in seconds."""
    def f(loop_s: float) -> float:
        return pace.scale(loop_s) if paced else 1.0

    item_loop_s = pace.local(list(itertools.chain(*p["item_loop_s"])))
    items = [t * f(loop) for t, loop in zip(itertools.chain(*p["item_s"]), item_loop_s)]
    rest = [(u - sum(ts)) * f(loop)
            for u, ts, loop in zip(p["unit_s"], p["item_s"], p["unit_loop_s"])]
    return items, rest


def best_of(passes: list[dict], paced: bool = True) -> tuple[float, list[float]]:
    """The best (least) time of a pass's parts over the passes: the sum of
    each item's best latency and each unit's best time outside its items;
    and the items' best latencies."""
    per_pass = [pass_times(p, paced) for p in passes]
    items = [min(ts) for ts in zip(*(items for items, _ in per_pass))]
    rest = [min(ts) for ts in zip(*(rest for _, rest in per_pass))]
    return sum(items) + sum(rest), items


def end_to_end(passes: list[dict], paced: bool = True) -> dict:
    pass_best, items = best_of(passes, paced)
    ordered = sorted(items)
    # Importing reads and unmarshals files, whose time does not follow the
    # loop's: paced, the import-bound set-up of attack fell by a third between
    # two sets of runs while the items held steady.  So only building the
    # inputs, Python work like the items', is paced.
    setup = [p["import_s"] + p["build_s"] * (pace.scale(statistics.median(p["setup_loop_s"]))
                                             if paced else 1.0) for p in passes]
    return {
        "items_per_s": (len(items) / pass_best, "1/s"),
        "item_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "item_tail_ms": (ordered[tail_index(len(ordered))] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def tail_index(n: int) -> int:
    """Index, in sorted order, of the highest percentile that still has at
    least ten samples beyond it (the maximum when there are fewer)."""
    return max(n - 11, 0) if n >= 11 else n - 1


def _print_rows(items: list[float], labels: list[str]) -> None:
    rows: dict[str, list[float]] = {}
    for label, lat in zip(labels, items):
        rows.setdefault(label, []).append(lat)
    for label in sorted(rows):
        lat = rows[label]
        print(f"row {label}: {len(lat)} items, {len(lat) / sum(lat):.4g} items/s of "
              f"best item time, p50 {statistics.median(lat) * 1e3:.4g} ms, "
              f"max {max(lat) * 1e3:.4g} ms")


def main(argv=None) -> int:
    args = _parse_args(argv)
    # The loop runs before and after set-up pace it; their time is not set-up.
    setup_loop_s = [pace.reference_loop() for _ in range(pace.EDGE_SAMPLES)] if args.one_pass else []
    _import_jck()
    import layers
    import spans
    import workloads

    imported = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.plant_wrong_verdict)
    units = wl.make_units(args.items if args.items is not None else wl.per_pass)
    built = time.perf_counter()
    if args.one_pass:
        out = run_pass(wl, units)
        out["import_s"] = imported - STARTED - sum(setup_loop_s)
        out["build_s"] = built - imported
        out["setup_loop_s"] = setup_loop_s + out["edge_loop_s"][:pace.EDGE_SAMPLES]
        print(json.dumps(out))
        return 0

    if args.trace:
        tracer = spans.Tracer()
        namespaces = [m for name, m in sys.modules.items()
                      if name == "jck" or name.startswith("jck.")] + [workloads]
        tracer.install(layers.TARGETS, namespaces)
        traced = run_pass(wl, units, tracer)
        tracer.uninstall()
        untraced = _child_pass(args)
        passes = [traced, untraced]
        overhead = sum(untraced["unit_s"]) / sum(traced["unit_s"])
        metrics = layers.per_layer_metrics(tracer, overhead)
    else:
        del units  # the passes run in fresh interpreters
        passes = []
        first_start = time.perf_counter()

        def another_pass() -> bool:
            if args.passes is not None:
                return len(passes) < args.passes
            if len(passes) < MIN_PASSES:
                return True
            spent = time.perf_counter() - first_start
            return spent + spent / len(passes) <= args.seconds

        while another_pass():
            passes.append(_child_pass(args))

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    _, item_best = best_of(passes)
    labels = list(itertools.chain(*passes[0]["labels"]))
    timed_s = sum(sum(p["unit_s"]) for p in passes)
    mode = "the first traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes ({mode}) of "
          f"{len(passes[0]['unit_s'])} units and {len(item_best)} items, {timed_s:.3f} s timed")
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} items)")
    _print_rows(item_best, labels)
    loop_ms = [statistics.median(itertools.chain(*p["item_loop_s"])) * 1e3 for p in passes]
    print(f"reference loop, median per pass: {' '.join(f'{ms:.4g}' for ms in loop_ms)} ms "
          f"(a reference second is {pace.REFERENCE_LOOP_S * 1e3:g} ms of it)")

    if args.trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(spans_path)
        print(f"{len(tracer.span_start)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes)
        n = len(item_best)
        k = tail_index(n)
        print(f"every time is in reference seconds (see pace.py), and every metric is over "
              f"the best of {len(passes)} passes: items_per_s divides the items of a pass by "
              f"the sum of its parts' best times; item_p50_ms and item_tail_ms are taken over "
              f"the {n} items' best times, the tail at p{100.0 * (k + 1) / n:.4g} with "
              f"{n - k - 1} items beyond; setup_s and peak_rss_mb are medians over the "
              f"passes' interpreters")
        for name, (value, unit) in end_to_end(passes, paced=False).items():
            if name != "peak_rss_mb":
                print(f"raw {name} {value:.6g} {unit} (in seconds, not reference seconds)")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
