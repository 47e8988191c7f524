"""Tests of the benchmark's tracer and reference comparison.

    python3 -m pytest perfbench/test_tracer.py -q
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import METHODS, METRICS, MODULES, Tracer  # noqa: E402

import caxial  # noqa: E402
from caxial import cli  # noqa: E402

SUITES = ["calculus", "averaging", "gauge_surface", "representation", "rg",
          "appendix"]
INSTANCES = [[2, 3, 1], [2, 3, 2]]


def _modules():
    import importlib
    return [caxial] + [importlib.import_module(f"caxial.{m}")
                       for m in MODULES]


def _bindings():
    """Every name the tracer may rebind, with the object bound to it."""
    out = {}
    for mod in _modules():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = obj
            if isinstance(obj, dict):
                for key, value in obj.items():
                    out[(mod.__name__, name, key)] = value
    for layer, classes in METHODS.items():
        for cname in classes:
            cls = getattr(_modules()[1 + MODULES.index(layer)], cname)
            for name, obj in vars(cls).items():
                out[(cls.__qualname__, name)] = obj
    for owner in (np.linalg, scipy.linalg):
        for name, obj in vars(owner).items():
            out[(owner.__name__, name)] = obj
    return out


def _child(trace, tmp_path):
    spec = {"suites": SUITES, "instances": INSTANCES, "seed": 5,
            "trace": trace, "out_dir": str(tmp_path), "tag": str(trace),
            "launch": time.monotonic()}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("CAXIAL_MAX_DIM", None)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           json.dumps(spec)], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_gives_the_untraced_check_values(tmp_path):
    plain = _child(False, tmp_path)
    traced = _child(True, tmp_path)
    assert plain["checks"] == traced["checks"]
    assert {c["status"] for c in plain["checks"]} == {"PASS"}
    assert set(traced["layers"]) == {name for name, _ in METRICS}
    assert traced["layers"]["trace.spans"] > 0
    assert (tmp_path / "spans-True.tsv").exists()


def test_every_importing_module_gets_the_wrapper_and_all_are_restored():
    before = _bindings()
    tracer = Tracer().install()
    try:
        originals = {id(orig) for _, _, orig in tracer._patches}
        for mod in _modules():
            for name, obj in vars(mod).items():
                assert id(obj) not in originals, f"{mod.__name__}.{name}"
        from caxial import gauge_ops, rg_flow
        # bound with `from .gauge_ops import get_context` in two modules
        assert cli.get_context is gauge_ops.get_context
        assert rg_flow.get_context is gauge_ops.get_context
        assert hasattr(cli.get_context, "__wrapped__")
        assert hasattr(cli.SUITE_FUNCS["rg"], "__wrapped__")
        assert np.linalg.svd is not before[("numpy.linalg", "svd")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_layer_self_times_add_up_to_the_traced_wall_time():
    config = cli.RunConfig(instances=tuple(map(tuple, INSTANCES)),
                           suites=tuple(SUITES), seed=3).validate()
    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        cli.run_verification(config)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    spans = tracer.spans
    roots = sum(s[3] - s[2] for s in spans if s[4] < 0)
    layers = {s[1] for s in spans}
    self_sum = sum(m[f"{layer}.self_s"] for layer in layers)
    assert self_sum == pytest.approx(roots, rel=1e-9, abs=1e-9)
    # only the call into run_verification lies outside every span
    assert 0 <= wall - roots < 0.01 * wall + 1e-3
    assert m["trace.wall_s"] == pytest.approx(roots, rel=1e-9)
    assert 0 < m["linalg.share"] < 1
    assert m["cli.calls"] > 0 and m["linalg.svd.calls"] > 0


def _check(status="PASS", value=1e-14, threshold=1e-8):
    return {"check_id": "x", "instance": [2, 3, 1], "status": status,
            "value": value, "threshold": threshold}


def test_reference_comparison():
    ref = _check()
    assert run.mismatch(_check(value=3e-13), ref) is None
    assert run.mismatch(_check(value=5e-11), ref)          # outside band
    assert run.mismatch(_check(threshold=1e-6), ref)       # loosened
    assert run.mismatch(_check(status="FAIL"), ref)
    assert run.mismatch(_check(status="ERROR", value=None), ref)
    floor = _check(value=0.1514, threshold=1e-9)
    assert run.mismatch(_check(value=0.1514 + 1e-12, threshold=1e-9),
                        floor) is None
    assert run.mismatch(_check(value=0.1515, threshold=1e-9), floor)
    skipped = _check(status="SKIPPED", value=None)
    assert run.mismatch(_check(status="SKIPPED", value=None), skipped) is None
    n, failures = run.compare([], {"checks": [ref]})
    assert n == 1 and failures


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        METRICS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
