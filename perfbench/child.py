"""One timed `caxial verify` run in a fresh process.

Started by run.py with a JSON spec as its only argument:

    {"suites": [...], "instances": [[d, L, N], ...], "seed": 42,
     "launch": <time.monotonic() in the parent just before the spawn>,
     "trace": false, "out_dir": "perfbench/out/<workload>", "tag": "3"}

It times `caxial.cli.run_verification` from the first check until the
report is written, and prints one JSON object on its last stdout line:
the set-up, wall and CPU seconds, the peak RSS, every check's outcome, the
environment and, when traced, the per-layer metrics of its spans.  The BLAS
thread count comes from the environment the parent sets.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv):
    spec = json.loads(argv[1])
    # called through the module, so that a traced run reaches the wrapper
    from caxial import cli
    os.makedirs(spec["out_dir"], exist_ok=True)
    report_path = os.path.join(spec["out_dir"], f"report-{spec['tag']}.json")
    config = cli.RunConfig(
        instances=tuple(tuple(i) for i in spec["instances"]),
        suites=tuple(spec["suites"]), seed=spec["seed"],
        report=report_path).validate()
    setup_s = time.monotonic() - spec["launch"]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        report, _ = cli.run_verification(config)
    finally:
        wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "checks": [{k: c[k] for k in ("check_id", "instance", "status",
                                      "value", "threshold")}
                   for c in report["checks"]],
        "env": environment(spec["seed"]),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(spec["out_dir"],
                                        f"spans-{spec['tag']}.tsv"),
                           run_id=f"{os.path.basename(spec['out_dir'])}"
                                  f"-seed{spec['seed']}-{spec['tag']}")
    print(json.dumps(out))
    return 0


def blas_threads():
    """Threads OpenBLAS uses in this process, asked of the loaded library."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 6 and "openblas" in os.path.basename(
                    parts[5]).lower():
                libs.add(parts[5])
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed):
    import platform
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
