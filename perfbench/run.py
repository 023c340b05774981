"""Benchmark harness for fockstate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's set-up (imports, seeded
inputs, input files and, in-process, a warm-up unit) is timed five times:
once here and four times in probe processes, one before and three spread
over the run.  Units run in a closed loop with one client for S seconds:
the next unit starts when the last one ends.  After each unit a fixed
reference computation is timed (see reference.py); the gated pipeline time
is the median over units of unit time over that reference time.  Every
output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it are a readable report with the machine,
the commit, the seed and the metrics that have no place in that object.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cli-pipeline", "dense-states", "algebra-fock")
# Set-ups timed per run: this process's own plus SETUPS - 1 probe processes.
SETUPS = 5
# Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print it and exit")
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, workdir: str):
    """Imports, seeded inputs, input files and the warm-up unit."""
    sys.path.insert(0, SRC)
    if workload == "cli-pipeline":
        from cli_pipeline import CliPipeline
        wl = CliPipeline(seed, workdir, SRC)
    else:
        from library import AlgebraFock, DenseStates
        wl = (DenseStates if workload == "dense-states" else AlgebraFock)(seed)
    wl.warm_up()
    return wl


def probe_setup(args) -> float:
    """Time one set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=30, check=True)
    return float(out.stdout.split()[-1])


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  With too few samples for that, the
    maximum, at percentile 100.
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def pipeline_seconds(records, key="seconds"):
    """Median unit time.  Units alternate between sizes, and the median of
    a two-mode sample jumps between the modes, so this is the mean of the
    per-size medians."""
    sizes = {}
    for rec in records:
        if key in rec:
            sizes.setdefault(rec["size"], []).append(rec[key])
    if not sizes:  # every unit failed before it was timed
        return float("nan")
    return statistics.fmean(statistics.median(v) for v in sizes.values())


def end_to_end(wl, records, setups, ref):
    """The end-to-end metrics, and the report-only ones with their notes."""
    values = [rec["seconds"] for rec in records]
    tail_value, tail_pct = tail(values)
    pipeline_s = pipeline_seconds(records)
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_ref": pipeline_seconds(records, "ref_units"),
        "peak_rss_mb": wl.peak_rss_kb * 1024 / 1e6,
    }
    extra = {"pipeline_s": pipeline_s, "pipeline_s.tail": tail_value,
             "reference_s": ref.median(), **cli_metrics(records)}
    notes = {
        "setup_s": (f"median of {len(setups)} set-ups: "
                    + " ".join(f"{x:.3f}" for x in setups)),
        "pipeline_ref": "unit time over the reference time right after it",
        "pipeline_s": f"median of {len(values)} units",
        "pipeline_s.tail": (f"p{tail_pct:.1f} of {len(values)} units"
                            + ("" if tail_pct < 100 else
                               f"; fewer than {TAIL_BEYOND + 1} units, so "
                               "the maximum")),
        "reference_s": f"median of {len(ref.seconds)} reference runs",
    }
    return metrics, extra, notes


def cli_metrics(records):
    """Per-subcommand wall times and output size of ``cli-pipeline``."""
    calls = [rec["calls"] for rec in records if "calls" in rec]
    if not calls:
        return {}

    def median_of(*commands):
        return statistics.median(c[name] for c in calls for name in commands)

    return {
        "extend_s": median_of("extend"),
        "check_s": median_of("positivity", "decreasing", "essential"),
        "decompose_s": median_of("decompose"),
        "eval_s": median_of("eval"),
        "output_mb": statistics.median(
            rec["output_bytes"] for rec in records) / 1e6,
    }


def per_layer(spec, tr, records):
    """Per-unit self times, call counts and counters from the spans, plus
    the CLI process figures and the tracing overhead."""
    traced = [rec for rec in records if "traced_seconds" in rec]
    units = max(1, len(traced))
    totals, calls = tr.self_times()
    special = dict(cli_metrics(records))
    special["trace.units"] = len(traced)
    if traced:
        base = pipeline_seconds(traced, "untraced_seconds")
        special["trace.untraced_s"] = base
        special["trace.overhead_s"] = (
            pipeline_seconds(traced, "traced_seconds") - base)
    imports = [rec["import_seconds"] for rec in traced if "import_seconds" in rec]
    if imports:
        per_unit = len(traced[0]["calls"])
        special["cli.import.s"] = statistics.median(imports) * per_unit
        special["cli.import.calls"] = per_unit
        special["cli.self.s"] = statistics.fmean(
            rec["cli_self_seconds"] for rec in traced)
        special["cli.self.calls"] = per_unit
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name in special:
            value = special[name]
        elif name.endswith(".s"):
            value = totals.get(name[:-2], 0.0) / units
        elif name.endswith(".calls"):
            value = calls.get(name[:-6], 0) / units
        elif name.endswith(".errors"):
            value = tr.errors.get(name[:-7], 0)
        else:
            value = tr.counts.get(name, 0.0) / units
        metrics[name] = value
    return metrics


def report(args, env, attempted, failed, metrics, units, notes):
    print(f"fockstate benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"units: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4f}")
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"  {name:42s} {value:14.6g} {units.get(name, '')}"
              + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fockstate", "__init__.py")):
        print(f"error: no fockstate sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    stdlib_s = perf_counter() - T_START
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            start = perf_counter()
            set_up(args.workload, args.seed, workdir)
            print(stdlib_s + perf_counter() - start)
            return 0
        # A first probe, ahead of this process's own set-up, also warms the
        # file cache and writes the bytecode caches.
        setups = [] if args.trace else [probe_setup(args)]
        start = perf_counter()
        wl = set_up(args.workload, args.seed, workdir)
        setups.append(stdlib_s + perf_counter() - start)
        return measure(args, spec, wl, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, wl, setups) -> int:
    from reference import Reference
    from spans import Tracer

    import machine

    tr = Tracer(bool(args.trace))
    # Untraced, the reference runs after each unit (after each child in the
    # CLI workload), and the remaining probe set-ups are spread over the run,
    # so that both see the same machine as the units do.
    ref = None if args.trace else Reference()
    per_child = ref is not None and hasattr(wl, "after_child")
    if per_child:
        wl.after_child = ref.after
    probes = 0 if args.trace else SETUPS - len(setups)
    begin = perf_counter()
    due = [begin + args.seconds * (k + 1) / (probes + 1) for k in range(probes)]
    deadline = begin + args.seconds
    records, failed = [], set()
    index = 0
    while index == 0 or perf_counter() < deadline + (ref.spent if ref else 0.0):
        if due and perf_counter() >= due[0]:
            due.pop(0)
            start = perf_counter()
            setups.append(probe_setup(args))
            deadline += perf_counter() - start
        start = perf_counter()
        try:
            record = wl.unit(index, tr)
        except Exception:  # a unit that raises counts as failed; go on
            print(f"unit {index} failed:", file=sys.stderr)
            traceback.print_exc()
            failed.add(index)
            record = {"size": "failed", "seconds": perf_counter() - start}
        record["index"] = index
        records.append(record)
        index += 1
        if ref is not None and not per_child:
            record["ref_units"] = record["seconds"] / ref.after(record["seconds"])
    setups.extend(probe_setup(args) for _ in due)
    failed.update(wl.finish())
    good = [rec for rec in records if rec["index"] not in failed] or records

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["pipeline_s"] = units["pipeline_s.tail"] = units["reference_s"] = "s"
    if args.trace:
        metrics, extra, notes = per_layer(spec, tr, good), {}, {}
    else:
        metrics, extra, notes = end_to_end(wl, good, setups, ref)
    report(args, machine.describe(ROOT), len(records), len(failed),
           {**metrics, **extra}, units, notes)
    if args.trace:
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        tr.write(spans_path)
        print(f"spans: {spans_path}")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
