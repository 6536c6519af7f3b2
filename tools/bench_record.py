"""Record the benchmark of a checkout as one BENCH_<label>.json, or compare two such files.

Usage, from the root of a checkout (the directory that holds src/ and perfbench/):

    python3 tools/bench_record.py record LABEL
    python3 tools/bench_record.py compare BENCH_old.json BENCH_new.json

``record`` runs perfbench/run.py, unchanged, as subprocesses: first
``--workload all --seconds 38 --trace 0``, then ``--workload W --trace 1``
for each workload, all at perfbench's default seed, so that every record
is made the same way and any two compare.  It parses their ``# meta`` lines and result lines and
writes BENCH_<label>.json in the current directory as canonical JSON
(sorted keys, one-space indent, a final newline): the untraced run's meta,
per workload the end-to-end statistics (median, quartiles, count and, for
the scaled metrics, the raw median), the speed factor, the fail ratio, and
the traced per-layer metrics with their run's meta.  A run that does not
exit 0 (perfbench exits 1 on a wrong output) stops the recording with its
exit code, and no file is written, so every record is of correct runs.

``compare`` prints, per workload and metric, the two medians and their
relative change, and whether the new median lies outside the old one's
quartile range.  It reads the files only.

Only the Python standard library is used.
"""

import argparse
import json
import os
import re
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]
SECONDS = 38  # the time budget of the untraced run
SCHEMA = 1

_E2E = re.compile(
    r"^(?P<w>\S+)\s+(?P<m>\S+)\s+median\s+(?P<med>\S+)\s+(?P<unit>\S+)\s+"
    r"q1 (?P<q1>\S+) q3 (?P<q3>\S+) \(n=(?P<n>\d+)\)(?:\s+raw median (?P<raw>\S+))?$"
)
_SPEED = re.compile(r"^(?P<w>\S+)\s+speed_factor median (?P<med>\S+) min (?P<min>\S+) max (?P<max>\S+)$")
_FAIL = re.compile(r"^(?P<w>\S+)\s+fail_ratio\s+(?P<failed>\d+)/(?P<attempted>\d+) = \S+$")


def run_bench(args):
    """stdout of perfbench/run.py with ``args``, echoed to stderr; exits with its code when it fails."""
    cmd = RUN + args
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return proc.stdout.splitlines()


def parse_meta(lines):
    """The JSON object of the ``# meta`` line."""
    for line in lines:
        if line.startswith("# meta "):
            return json.loads(line[len("# meta "):])
    raise ValueError("no '# meta' line in the benchmark output")


def parse_untraced(lines):
    """{workload: {"end_to_end", "speed_factor", "fail_ratio"}} from the result lines of a --trace 0 run."""
    out = {}
    for line in lines:
        for pattern in (_E2E, _SPEED, _FAIL):
            match = pattern.match(line)
            if match:
                break
        else:
            continue
        row = out.setdefault(match["w"], {"end_to_end": {}})
        if pattern is _E2E:
            stats = {"median": float(match["med"]), "q1": float(match["q1"]), "q3": float(match["q3"])}
            stats.update(n=int(match["n"]), unit=match["unit"])
            if match["raw"] is not None:
                stats["raw_median"] = float(match["raw"])
            row["end_to_end"][match["m"]] = stats
        elif pattern is _SPEED:
            row["speed_factor"] = {"median": float(match["med"]), "min": float(match["min"]), "max": float(match["max"])}
        else:
            row["fail_ratio"] = {"failed": int(match["failed"]), "attempted": int(match["attempted"])}
    return out


def record(label):
    """The BENCH record of this checkout, as a dict."""
    lines = run_bench(["--workload", "all", "--seconds", str(SECONDS), "--trace", "0"])
    workloads = parse_untraced(lines)
    for name, row in workloads.items():
        traced = run_bench(["--workload", name, "--trace", "1"])
        row["per_layer"] = json.loads(traced[-1])["metrics"]
        row["trace_meta"] = parse_meta(traced)
    return {"schema": SCHEMA, "label": label, "seconds": SECONDS, "meta": parse_meta(lines), "workloads": workloads}


def canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def compare(old_path, new_path, out=sys.stdout):
    """Print each end-to-end median of two BENCH files side by side."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    print(f"old {old['label']} at {old['meta']['commit']}, new {new['label']} at {new['meta']['commit']}", file=out)
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        a, b = old["workloads"][name]["end_to_end"], new["workloads"][name]["end_to_end"]
        for metric in sorted(set(a) & set(b)):
            x, y = a[metric], b[metric]
            change = (y["median"] - x["median"]) / x["median"] if x["median"] else 0.0
            outside = "outside" if not x["q1"] <= y["median"] <= x["q3"] else "inside"
            print(
                f"{name:12s} {metric:12s} {x['median']:10.4f} -> {y['median']:10.4f} {x['unit']:3s} "
                f"{change:+7.1%}  ({outside} old q1-q3 {x['q1']:.4f}-{x['q3']:.4f})",
                file=out,
            )


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run perfbench and write BENCH_<label>.json")
    rec.add_argument("label")
    cmp_ = sub.add_parser("compare", help="compare the end-to-end medians of two BENCH files")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    args = p.parse_args(argv)
    if args.command == "compare":
        compare(args.old, args.new)
        return 0
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        p.error("the label may hold only letters, digits, '_', '.' and '-'")
    if not os.path.isfile("perfbench/run.py"):
        p.error("run from the root of a checkout: perfbench/run.py not found")
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        fh.write(canonical(record(args.label)))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
