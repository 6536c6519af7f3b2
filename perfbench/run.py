"""drinfeldforms benchmark: end-to-end timing and an outside-in traced run.

Run from the root of a checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload ops-k2 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seconds 120      # every workload, interleaved

Every execution is a fresh single-threaded process (``child.py``) that runs
the real CLI entry point ``drinfeldforms.cli.main(argv)`` once.  Untraced,
a run repeats executions for about ``--seconds`` seconds and reports the
median of each end-to-end metric.  With ``--trace 1`` it runs the workload
three times (untraced, with spans, with spans and counters) and reports the
per-layer metrics.  Every output is checked against ``golden.json``.  Times
are scaled to a reference host speed (``calibrate.py``).  The last line of
stdout is the JSON result; README.md describes the metrics.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import calibrate
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

RUN_LIMIT_S = 165  # no execution starts that would end after this (the contract allows 180)

# the nontrivial units of 1 + tA/(t^3) at q = 2; each diamond is one transport
OPS_UNITS = ("t+1", "t^2+1", "t^2+t+1")


def _hecke(q, n, k, ops):
    argv = ["hecke", "--q", str(q), "--n", str(n), "--k", str(k)]
    for op in ops:
        argv += ["--op", op]
    return argv + ["--certify", "--format", "json"]


def _ops_k2(rng):
    unit = rng.choice(OPS_UNITS)
    argv = _hecke(2, 3, 2, ["Ut", "Tm:t+1", "Tm:t^2+t+1", "Diamond:" + unit])
    return argv, ("sha256", "ops-k2/" + unit)


def _suite_small(rng):
    argv = ["verify", "--suite", "paper", "--q", "2", "--q", "3", "--nmax", "2", "--kmax", "2"]
    return argv + ["--seed", str(rng.randrange(10**6)), "--jobs", "1"], ("suite", "suite-small")


# name -> (inputs from the workload's random generator, (q, n) pairs to set up)
WORKLOADS = {
    "ops-k2": (_ops_k2, [(2, 3)]),
    "suite-small": (_suite_small, [(2, 1), (2, 2), (3, 1), (3, 2)]),
}

# tiny configurations on which every tracing boundary must be reached
SELF_TEST = (
    (_hecke(2, 2, 2, ["Ut", "Tm:t+1", "Diamond:t+1"]), [(2, 2)]),
    (["verify", "--suite", "paper", "--q", "2", "--nmax", "1", "--kmax", "2"], [(2, 1)]),
)

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SCALED = ("wall_s", "cpu_s", "setup_s")

# span name -> metric names (inclusive seconds, self seconds or None)
SPAN_METRICS = {
    "cli.main": ("cli.main_s", "cli.main_self_s"),
    "groups.context": ("groups.context_s", None),
    "tree.graph_build": ("tree.graph_build_s", None),
    "tree.witness": ("tree.witness_s", None),
    "cocycles.space": ("cocycles.space_s", "cocycles.space_self_s"),
    "cocycles.solve": ("cocycles.solve_s", None),
    "cocycles.coords": ("cocycles.coords_s", None),
    "hecke.engine": ("hecke.engine_s", None),
    "hecke.ut": ("hecke.ut_s", "hecke.ut_self_s"),
    "hecke.tm": ("hecke.tm_s", "hecke.tm_self_s"),
    "hecke.diamond": ("hecke.diamond_s", "hecke.diamond_self_s"),
    "hecke.certificate": ("hecke.certificate_s", "hecke.certificate_self_s"),
    "linalg.charpoly": ("linalg.charpoly_s", None),
    "linalg.eval_matrix": ("linalg.eval_matrix_s", None),
    "serialize.dump": ("serialize.dump_s", None),
}
for _kind in tracing.VERIFY_KINDS:
    SPAN_METRICS["verify.item." + _kind] = ("verify.item_s." + _kind, "verify.item_self_s." + _kind)

# count metric -> span name whose calls it counts
SPAN_CALLS = {
    "tree.graph_builds": "tree.graph_build",
    "tree.witness_calls": "tree.witness",
    "cocycles.coords_calls": "cocycles.coords",
}
PROBES = (
    "tree.edge_orbits",
    "cocycles.solve_rows",
    "cocycles.solve_nnz",
    "verify.items",
    "verify.records",
    "verify.records_failed",
    "serialize.out_bytes",
)
COUNTER_NAMES = tuple(c[0] for c in tracing.COUNTERS)


def per_layer_units():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for total, self_ in SPAN_METRICS.values():
        out.append((total, "s"))
        if self_:
            out.append((self_, "s"))
    out += [(name, "count") for name in SPAN_CALLS]
    out += [(name, "bytes" if name.endswith("_bytes") else "count") for name in PROBES]
    out += [(name, "count") for name in COUNTER_NAMES]
    out += [
        ("tree.reduce_miss_ratio", "ratio"),
        ("trace.spans", "count"),
        ("trace.span_overhead", "ratio"),
        ("trace.counter_overhead", "ratio"),
    ]
    return out


class BenchError(Exception):
    """The benchmark cannot run here (no engine, no references, broken tracing)."""


def metadata(seed):
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            commit = fh.read().strip()
        ref = os.path.join(ROOT, ".git", commit[5:]) if commit.startswith("ref: ") else None
        if ref and os.path.exists(ref):
            with open(ref) as fh:
                commit = fh.read().strip()
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg": list(os.getloadavg()),
    }


def run_child(mode, warm, argv=None, trace_out=None, timeout=RUN_LIMIT_S, meta=None):
    """Start one fresh process, wait for it, and return its scaled report (or None).

    The report's times are multiplied by the process's speed factor, the
    reference slice time over its own median calibration slice; the
    measured values stay under ``raw_<name>``.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    spec = {"mode": mode, "warm": warm, "argv": argv, "trace_out": trace_out, "meta": meta}
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        print(f"timeout: {mode} {argv}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    report = json.loads(lines[-1])
    if not report["module"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"imported drinfeldforms from {report['module']}, not from ./src")
    report["speed_factor"] = calibrate.REFERENCE_SLICE_S / report["calib_s"]
    for key in SCALED:
        if key in report:
            report["raw_" + key] = report[key]
            report[key] *= report["speed_factor"]
    return report


def load_golden():
    if not os.path.exists(GOLDEN_PATH):
        raise BenchError(f"missing {GOLDEN_PATH}")
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_output(golden, check, out_path):
    kind, key = check
    with open(out_path, "rb") as fh:
        data = fh.read()
    if kind == "sha256":
        return hashlib.sha256(data).hexdigest() == golden["sha256"][key]
    payload = json.loads(data)
    pairs = [[r["id"], r["status"]] for r in payload["items"]]
    return payload["passed"] is True and pairs == golden["suite"][key]


def execute(golden, mode, warm, inputs, deadline, trace_out=None, meta=None):
    """One checked execution: (report or None, passed)."""
    argv, check = inputs
    out_path = os.path.join(WORK, "out.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    report = run_child(
        mode, warm, argv + ["--out", out_path], trace_out, deadline - time.monotonic(), meta
    )
    ok = report is not None and report["rc"] == 0 and check_output(golden, check, out_path)
    return report, ok


def prepare(warm):
    """Fail early when the engine cannot be imported; this also warms the bytecode cache."""
    if not os.path.isdir(os.path.join(ROOT, "src", "drinfeldforms")):
        raise BenchError("run from the root of a drinfeldforms checkout (no src/drinfeldforms here)")
    os.makedirs(WORK, exist_ok=True)
    if run_child("setup", warm) is None:
        raise BenchError("the engine does not import")


def measure(names, seed, seconds):
    """Untraced executions, interleaved across ``names``, for about ``seconds``.

    A further round starts only while its predicted midpoint is before the
    deadline, so a run lasts ``seconds`` give or take half a round.
    """
    golden = load_golden()
    hard = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(seed)
    samples = {name: {"execs": [], "attempted": 0, "failed": 0} for name in names}
    start = time.monotonic()
    rounds = []
    while True:
        r0 = time.monotonic()
        for name in names:
            make, warm = WORKLOADS[name]
            report, ok = execute(golden, "plain", warm, make(rng), hard)
            s = samples[name]
            s["attempted"] += 1
            s["failed"] += not ok
            if report is not None:
                s["execs"].append(report)
        now = time.monotonic()
        rounds.append(now - r0)
        typical = statistics.median(rounds)
        if now - start + typical / 2 > seconds or now + typical > hard:
            break
    return samples


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def run_untraced(names, seed, seconds):
    samples = measure(names, seed, seconds)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        s = samples[name]
        prefix = "" if len(names) == 1 else name + "."
        reports = s["execs"]
        for metric, unit in END_TO_END:
            values = [r[metric] for r in reports]
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            raw = ""
            if metric in SCALED:
                raw = f"  raw median {statistics.median(r['raw_' + metric] for r in reports):.4f}"
            print(
                f"{name:12s} {metric:12s} median {med:10.4f} {unit:3s} "
                f"q1 {q1:.4f} q3 {q3:.4f} (n={len(values)}){raw}"
            )
            result["metrics"][prefix + metric] = {"value": med, "unit": unit}
        factors = [r["speed_factor"] for r in s["execs"]]
        if factors:
            print(
                f"{name:12s} speed_factor median {statistics.median(factors):.4f} "
                f"min {min(factors):.4f} max {max(factors):.4f}"
            )
        print(
            f"{name:12s} fail_ratio   {s['failed']}/{s['attempted']} = "
            f"{s['failed'] / max(s['attempted'], 1):.4f}"
        )
        result["attempted"] += s["attempted"]
        result["failed"] += s["failed"]
    complete = len(result["metrics"]) == len(names) * len(END_TO_END)
    result["correct"] = result["failed"] == 0 and complete
    return result


def _load_trace(path):
    with open(path) as fh:
        return json.load(fh)


def _call_counts(trace):
    summary = tracing.summarize(trace)
    return {name: row["calls"] for name, row in summary.items()}, dict(trace["counts"])


def self_test():
    """Every boundary is reached on the tiny grid, and counts repeat exactly.

    Returns a list of problems; empty when the tracing is sound.
    """
    problems = []
    seen_spans, seen_counts = set(), set()
    for argv, warm in SELF_TEST:
        runs = []
        for rep in range(2):
            out_path = os.path.join(WORK, f"selftest-{rep}.json")
            trace_out = os.path.join(WORK, f"selftest-trace-{rep}.json")
            report = run_child("counts", warm, argv + ["--out", out_path], trace_out)
            if report is None or report["rc"] != 0:
                problems.append(f"{' '.join(argv)} failed")
                break
            with open(out_path, "rb") as fh:
                runs.append((_call_counts(_load_trace(trace_out)), fh.read()))
        if len(runs) != 2:
            continue
        if runs[0] != runs[1]:
            problems.append(f"{' '.join(argv)}: counts or output differ between two traced runs")
        (spans, counts), _ = runs[0]
        seen_spans.update(n for n, c in spans.items() if c)
        seen_counts.update(n for n, c in counts.items() if c)
    for name in tracing.SPAN_NAMES + ("cli.main",):
        if name not in seen_spans:
            problems.append(f"span {name} recorded no call")
    for name in COUNTER_NAMES + tuple(p for p in PROBES if p != "verify.records_failed"):
        if name not in seen_counts:
            problems.append(f"counter {name} recorded nothing")
    return problems


def run_traced(name, seed, meta):
    """Untraced, spans-only and spans-plus-counters executions of the same inputs."""
    problems = self_test()
    if problems:
        raise BenchError("tracing self-test failed: " + "; ".join(problems))
    golden = load_golden()
    make, warm = WORKLOADS[name]
    inputs = make(random.Random(seed))
    hard = time.monotonic() + RUN_LIMIT_S
    reports, failed = {}, 0
    for mode in ("plain", "spans", "counts"):
        trace_out = None if mode == "plain" else os.path.join(WORK, f"trace-{name}-{mode}.json")
        report, ok = execute(golden, mode, warm, inputs, hard, trace_out, meta)
        failed += not ok
        if report is None:
            raise BenchError(f"{mode} execution of {name} failed")
        reports[mode] = report
    span_trace = _load_trace(os.path.join(WORK, f"trace-{name}-spans.json"))
    count_trace = _load_trace(os.path.join(WORK, f"trace-{name}-counts.json"))
    spans = tracing.summarize(span_trace)
    span_calls, _ = _call_counts(span_trace)
    count_calls, counts = _call_counts(count_trace)
    deterministic = span_calls == count_calls
    factor = reports["spans"]["speed_factor"]
    metrics = {}
    for span, (total, self_) in SPAN_METRICS.items():
        row = spans.get(span, {"total_s": 0.0, "self_s": 0.0})
        metrics[total] = row["total_s"] * factor
        if self_:
            metrics[self_] = row["self_s"] * factor
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = count_calls.get(span, 0)
    for metric in PROBES + COUNTER_NAMES:
        metrics[metric] = counts.get(metric, 0)
    metrics["tree.reduce_miss_ratio"] = counts.get("tree.reduce_misses", 0) / max(
        counts.get("tree.reduce_calls", 0), 1
    )
    metrics["trace.spans"] = len(span_trace["name_id"])
    plain_wall = reports["plain"]["wall_s"]
    metrics["trace.span_overhead"] = reports["spans"]["wall_s"] / plain_wall
    metrics["trace.counter_overhead"] = reports["counts"]["wall_s"] / plain_wall
    units = dict(per_layer_units())
    for metric, unit in units.items():
        print(f"{name:12s} {metric:32s} {metrics[metric]:>16.6g} {unit}")
    if not deterministic:
        print("span call counts differ between the spans and counts executions", file=sys.stderr)
    return {
        "correct": failed == 0 and deterministic,
        "attempted": 3,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.workload is None:
            p.error("--workload is required")
        if args.trace and args.workload == "all":
            p.error("--trace 1 takes a single workload")
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            prepare(WORKLOADS[name][1])
        meta = metadata(args.seed)
        print("# meta " + json.dumps(meta))
        if args.trace:
            result = run_traced(names[0], args.seed, meta)
        else:
            result = run_untraced(names, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
