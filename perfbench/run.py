"""Benchmark of `caxial verify`: fresh-process runs of fixed workloads.

    python3 perfbench/run.py --workload rg-flow [--seed 42] [--seconds 40]
                             [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload rg-flow --write-reference

Each timed run is one `caxial.cli.run_verification` call in a child process
started for it, so caches start cold and `ru_maxrss` is that run's own.  One
caller, closed loop: the next child starts when the previous one has ended,
until `--seconds` is used up.  Every child's checks are compared with the
committed reference of the workload (see `mismatch`).

With `--trace 0` the last stdout line carries the end-to-end metrics, the
medians over the children.  With `--trace 1` traced and untraced children
alternate; it carries the per-layer metrics of the traced ones (medians)
and the tracing overhead against the untraced ones.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = {
    "rg-flow": (("rg",), ((2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1))),
    "gauge-ops": (("feynman_landau", "representation", "sqrt", "decay",
                   "appendix"), ((2, 3, 2), (2, 5, 1), (3, 3, 1))),
    "structure": (("geometry", "calculus", "averaging", "gauge_surface"),
                  ((2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 5, 1), (2, 5, 2),
                   (3, 3, 1))),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# BLAS threads in every child.  One thread: on the 2-core machine the
# baseline was taken on, two OpenBLAS threads made rg-flow 2-3 times slower
# and no large instance faster, and spinning threads tie the figures to the
# load of whatever else runs on the host.
BLAS_THREADS = 1

# A child is never started after this many seconds of one invocation, and
# is killed if it runs past it.
HARD_LIMIT_S = 160

# Round-off band for comparing a check value with its reference.  A value
# at most ROUNDOFF_SHARE of its (positive) threshold is a round-off
# residual and must stay within RESIDUAL_BAND * threshold of the reference
# (1e-11 for the 1e-8 identity checks); any other value must match to
# RELATIVE_BAND, and an exact zero exactly.
ROUNDOFF_SHARE = 1e-2
RESIDUAL_BAND = 1e-3
RELATIVE_BAND = 1e-9


def mismatch(got, ref):
    """Why a check outcome departs from its reference, or None."""
    if got["status"] == "ERROR":
        return "ERROR"
    if got["threshold"] != ref["threshold"]:
        return f"threshold {got['threshold']!r} != {ref['threshold']!r}"
    if ref["status"] == "SKIPPED" and got["status"] == "PASS":
        return None        # a check that now fits under the cap and passes
    if got["status"] != ref["status"]:
        return f"status {got['status']} != {ref['status']}"
    if ref["value"] is None or got["value"] is None:
        return None if ref["value"] == got["value"] else "value missing"
    threshold, value = ref["threshold"], ref["value"]
    if 0 < threshold and abs(value) <= ROUNDOFF_SHARE * threshold:
        band = RESIDUAL_BAND * threshold
    else:
        band = RELATIVE_BAND * abs(value)
    if abs(got["value"] - value) > band:
        return f"value {got['value']!r} != {value!r} (band {band:g})"
    return None


def compare(checks, reference):
    """(attempted, list of failures) of one child against the reference."""
    got = {(c["check_id"], tuple(c["instance"])): c for c in checks}
    failures = []
    for ref in reference["checks"]:
        key = (ref["check_id"], tuple(ref["instance"]))
        why = ("missing" if key not in got
               else mismatch(got[key], ref))
        if why:
            failures.append(f"{key[0]} {list(key[1])}: {why}")
    return len(reference["checks"]), failures


def reference_path(workload):
    return os.path.join(HERE, "reference", f"{workload}.json")


def run_child(workload, seed, trace, tag, out_dir, timeout):
    """Run one child; its parsed result, or None and a note on failure."""
    suites, instances = WORKLOADS[workload]
    env = dict(os.environ)
    env.pop("CAXIAL_MAX_DIM", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    spec = {"suites": suites, "instances": instances, "seed": seed,
            "trace": trace, "out_dir": out_dir, "tag": tag}
    spec["launch"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             json.dumps(spec)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child {tag} killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"child {tag} exited {proc.returncode}: "
                      + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1]), None


def tail(values):
    """(percentile, value) of the highest percentile with ten samples
    above it, or None when that percentile would not lie above the median
    (fewer than 20 samples)."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure(workload, seed, seconds, trace):
    """Run children for `seconds`; everything the report needs."""
    out_dir = os.path.join(HERE, "out", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    with open(reference_path(workload)) as fh:
        reference = json.load(fh)
    start = time.monotonic()
    plain, traced, notes = [], [], []
    attempted = failed = 0
    failures = []
    lengths = []
    k = 0
    while True:
        elapsed = time.monotonic() - start
        need = not plain or (trace and not traced)
        expected = statistics.median(lengths) if lengths else 0.0
        if not need and elapsed + expected > seconds:
            break
        if elapsed > HARD_LIMIT_S:
            break
        is_traced = bool(trace) and k % 2 == 1
        t0 = time.monotonic()
        result, note = run_child(workload, seed, is_traced, str(k), out_dir,
                                 max(1.0, HARD_LIMIT_S + 10 - elapsed))
        lengths.append(time.monotonic() - t0)
        k += 1
        if result is None:
            notes.append(note)
            n = len(reference["checks"])
            attempted += n
            failed += n
            failures.append(f"{n} checks lost: {note}")
            if not plain and not traced:
                break          # the program does not run at all
            continue
        n, bad = compare(result["checks"], reference)
        attempted += n
        failed += len(bad)
        failures.extend(bad)
        (traced if is_traced else plain).append(result)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "elapsed_s": time.monotonic() - start, "plain": plain,
            "traced": traced, "attempted": attempted, "failed": failed,
            "failures": failures,
            "notes": notes, "out_dir": out_dir}


def summarize(run, trace):
    """Metrics of one measured workload, and printable lines."""
    plain = run["plain"]
    lines = [f"workload {run['workload']} seed {run['seed']}: "
             f"{len(plain)} untraced and {len(run['traced'])} traced "
             f"fresh-process runs in {run['elapsed_s']:.1f} s"]
    metrics = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in plain]
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": unit}
        t = tail(values)
        tail_text = (f"p{t[0]:.0f} {t[1]:.4f} {unit}" if t
                     else "too few runs for a tail with 10 runs above it")
        lines.append(f"  {name:<14} {med:12.4f} {unit:<3} median of "
                     f"{len(values)} runs; {tail_text}")
    lines.append(f"  {'checks_failed':<14} {run['failed']:12d}     "
                 f"of {run['attempted']} checks attempted")
    for failure in run["failures"][:20]:
        lines.append(f"    FAILED {failure}")
    env = plain[0]["env"]
    lines.append("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if trace:
        from tracer import METRICS
        layer = {}
        for name, unit in METRICS:
            value = statistics.median(r["layers"][name] for r in run["traced"])
            if unit == "count" and float(value).is_integer():
                value = int(value)
            layer[name] = {"value": value, "unit": unit}
        layer["trace.overhead_s"]["value"] = (layer["trace.wall_s"]["value"]
                                              - metrics["wall_s"]["value"])
        lines.append(f"  per-layer (median of {len(run['traced'])} traced "
                     f"runs; spans in {os.path.relpath(run['out_dir'], ROOT)})")
        for name, m in layer.items():
            lines.append(f"    {name:<42} {m['value']:14.6g} {m['unit']}")
        metrics = layer
    return metrics, lines


def write_reference(workload, seed):
    out_dir = os.path.join(HERE, "out", workload)
    os.makedirs(out_dir, exist_ok=True)
    result, note = run_child(workload, seed, False, "reference", out_dir,
                             HARD_LIMIT_S)
    if result is None:
        print(note, file=sys.stderr)
        return 1
    suites, instances = WORKLOADS[workload]
    ref = {"workload": workload, "suites": suites,
           "instances": [list(i) for i in instances], "seed": seed,
           "env": result["env"], "checks": result["checks"]}
    os.makedirs(os.path.dirname(reference_path(workload)), exist_ok=True)
    with open(reference_path(workload), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(reference_path(workload), ROOT)}: "
          f"{len(result['checks'])} checks")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference outputs and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "caxial", "cli.py")):
        print(f"caxial sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        return max(write_reference(w, args.seed) for w in names)

    results = {}
    correct, attempted, failed = True, 0, 0
    for workload in names:
        run = measure(workload, args.seed, args.seconds, args.trace)
        if not run["plain"] or (args.trace and not run["traced"]):
            print("\n".join(run["notes"]), file=sys.stderr)
            print(f"{workload}: no run completed", file=sys.stderr)
            return 3
        metrics, lines = summarize(run, args.trace)
        print("\n".join(lines))
        with open(os.path.join(run["out_dir"],
                               f"result-seed{args.seed}.json"), "w") as fh:
            json.dump({"run": run, "metrics": metrics}, fh, indent=1)
        correct = correct and not run["failed"]
        attempted += run["attempted"]
        failed += run["failed"]
        results[workload] = metrics
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{w}/{k}": v for w, ms in results.items()
                   for k, v in ms.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
