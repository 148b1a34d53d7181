"""Benchmark of the isingrect routes: one process, one evaluation at a time.

    python3 perfbench/run.py --workload spectral-sweep --seed 1 --seconds 34 --trace 0

Runs whole rounds of the workload's evaluations, in a closed loop with one
client, until --seconds of evaluation time have passed, then checks every
result against a reference computed apart from the route that produced it.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones, per round, and writes the spans to perfbench/out/.
--setup-only makes the set-up alone and prints its time.
"""

import time

# setup_s counts from here, so the imports below are in it
T_START = time.perf_counter()

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PER_LAYER = [
    ("spectral.find_modes.self_s", "s"),
    ("spectral.char_poly.calls", "count"),
    ("numerics.bracketed_root.calls", "count"),
    ("spectral.residual_system.self_s", "s"),
    ("spectral.log_strip_part.self_s", "s"),
    ("thermo.casimir_force_strip.self_s", "s"),
    ("qseries.free_energy_pieces.self_s", "s"),
    ("qseries.pi_product.calls", "count"),
    ("numerics.log_abs_det.self_s", "s"),
    ("numerics.log_abs_det.calls", "count"),
    ("pfaffian.build_A.self_s", "s"),
    ("cylinder.build_factors.self_s", "s"),
    ("cylinder.logZ_cylinder.self_s", "s"),
    ("brute_force.first_on_lattice.self_s", "s"),
    ("brute_force.repeat_on_lattice.self_s", "s"),
    ("brute_force.per_bond.self_s", "s"),
    ("brute_force.states_per_s", "1/s"),
]
# evaluations that visit every spin state; a repeat on a lattice sums a cached histogram
ENUMERATING = ("brute_force.first_on_lattice", "brute_force.per_bond")
# cold set-ups in fresh processes, besides the run's own, for the median of setup_s
EXTRA_SETUPS = 2


def import_program():
    """Import isingrect from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import isingrect
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import isingrect from {ROOT / 'src'}: {exc}")
    if not Path(isingrect.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: isingrect was imported from {isingrect.__file__}, not this checkout")
    import workloads
    import tracing
    return workloads, tracing


def run_rounds(workload, seconds, tracer):
    """Whole rounds until the time is spent.

    Returns the results per round, the seconds of each evaluation, the timed
    wall time and the clock reading at the start of the first evaluation.
    """
    rounds, times = [], []
    start = time.perf_counter()
    while True:
        workload.start_round()
        results = []
        for i, op in enumerate(workload.ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    value = op.run()
                else:
                    tracer.evaluation = len(times)
                    with tracer.span(op.span):
                        value = op.run()
            except Exception as exc:  # any error fails the evaluation
                value = exc
            times.append(time.perf_counter() - t0)
            results.append(value)
        rounds.append(results)
        elapsed = time.perf_counter() - start
        # stop where the next whole round would overshoot by more than half of it
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds, times, elapsed, start


def cold_setup_s(workload, seed):
    """setup_s of a fresh process running this command with --setup-only."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def layer_metrics(tracer, workload, rounds):
    """Per-layer figures per round, so that they do not grow with the rounds that fit."""
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    calls.update(tracer.counts)
    n = len(rounds)
    states = sum(op.states for op in workload.ops if op.span in ENUMERATING) * n
    bf_time = sum(self_s[name] for name in ENUMERATING)
    values = {}
    for metric, unit in PER_LAYER:
        name, kind = metric.rsplit(".", 1)
        if kind == "self_s":
            values[metric] = self_s.get(name, 0.0) / n
        elif kind == "calls":
            values[metric] = calls.get(name, 0) / n
        else:
            values[metric] = states / bf_time if bf_time else 0.0
    return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the set-up, print its time in seconds and exit")
    args = parser.parse_args(argv)

    workloads, tracing = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    # set-up: input generation and one untimed warm-up per route
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup()
    if args.setup_only:
        print(time.perf_counter() - T_START)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        rounds, times, wall, first_eval = run_rounds(workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [first_eval - T_START]
    if not tracer:
        setups += [cold_setup_s(args.workload, args.seed) for _ in range(EXTRA_SETUPS)]

    t_check = time.perf_counter()
    failed = unexpected = 0
    for results in rounds:
        for i, op in enumerate(workload.ops):
            if not workload.check(i, results):
                failed += 1
                if op.known_fault is None:
                    unexpected += 1
                    print(f"FAILED (unexpected): {op.label}: {results[i]!r:.200}", file=sys.stderr)
    check_s = time.perf_counter() - t_check
    attempted = len(times)
    evals_per_s = attempted / wall

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if tracer:
        metrics = layer_metrics(tracer, workload, rounds)
        spans_path = out / f"spans-{stem}.json"
        with open(spans_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "evals_per_s": evals_per_s, "wall_s": wall, "rounds": len(rounds),
                       "labels": [op.label for op in workload.ops],
                       "counts": dict(tracer.counts), "spans": tracer.records()}, fh)
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "evals_per_s": {"value": evals_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(out / f"result-{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "evals_per_s": evals_per_s, "rounds": len(rounds), "setups_s": setups,
                   "eval_s": [[op.label, t] for op, t in zip(workload.ops * len(rounds), times)]},
                  fh, indent=1)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(workload.ops)} evaluations in {wall:.2f} s, checked in {check_s:.2f} s; "
          f"traced: {bool(tracer)}; evals_per_s {evals_per_s:.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed} ({unexpected} not known faults)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
