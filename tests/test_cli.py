import gc
import json
import os
import weakref

import numpy as np
import pytest

from caxial import averaging as av
from caxial import cli, gauge_ops, rg_flow
from caxial.cli import ConfigError, RunConfig, main, run_verification
from caxial.fields import ResourceCapExceeded
from caxial.gauge_ops import GaugeContext
from caxial.lattice import LatticeSpec, clear_caches, unit_torus


GAUGE_SUITES = ("feynman_landau", "representation", "sqrt", "decay",
                "appendix")


def small_config(**kw):
    base = dict(instances=((2, 3, 1),), suites=("geometry", "averaging"))
    base.update(kw)
    return RunConfig(**base).validate()


def strip_times(report):
    out = json.loads(json.dumps(report))
    for c in out["checks"]:
        c.pop("wall_time")
    return out


# every suite on the small instances; on the larger ones only the suites
# that build no level context or flow, which take seconds to minutes
# there (decay on (2,3,3) is run by
# test_decay_profiles_the_minimizer_once_per_instance)
SMALL_INSTANCES = ((2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1))
LARGE_INSTANCES = ((2, 3, 3), (2, 5, 2), (3, 3, 2))
STRUCTURE_SUITES = ("geometry", "calculus", "averaging", "gauge_surface")
CHECK_MATRIX = ([(s, i) for s in cli.SUITES for i in SMALL_INSTANCES]
                + [(s, i) for s in STRUCTURE_SUITES for i in LARGE_INSTANCES])


@pytest.mark.parametrize("suite, inst", CHECK_MATRIX,
                         ids=[f"{s}-{'-'.join(map(str, i))}"
                              for s, i in CHECK_MATRIX])
def test_verify_checks_pass(suite, inst):
    # the paper's statements, checked by the CLI's own suites at the
    # tighter identity threshold 1e-9
    report, _ = run_verification(RunConfig(
        instances=(inst,), suites=(suite,), identity_tol=1e-9).validate())
    assert report["checks"]
    for c in report["checks"]:
        assert c["anchor"]
        # the fine torus of the scale-invariance check is over the cap on
        # the large instances
        skip_ok = (c["check_id"] == "calculus.curl_energy_scale_invariance"
                   and inst in LARGE_INSTANCES)
        allowed = ("PASS", "SKIPPED") if skip_ok else ("PASS",)
        assert c["status"] in allowed, c


def test_report_reproducible_except_wall_time():
    r1, _ = run_verification(small_config(suites=("calculus", "rg")))
    r2, _ = run_verification(small_config(suites=("calculus", "rg")))
    assert strip_times(r1) == strip_times(r2)


def test_resource_cap_records_skip(monkeypatch):
    monkeypatch.setenv("CAXIAL_MAX_DIM", "5")
    report, _ = run_verification(small_config(suites=("rg",)))
    statuses = {c["status"] for c in report["checks"]}
    assert statuses == {"SKIPPED"}
    for c in report["checks"]:
        assert "reason" in c


@pytest.mark.parametrize("suite", ["rg", *GAUGE_SUITES])
def test_cached_context_is_not_served_over_the_cap(monkeypatch, suite):
    # a run under a lower cap skips every check of an instance whose
    # contexts an earlier run built under the default cap
    config = small_config(instances=((2, 3, 2),), suites=(suite,))
    report, _ = run_verification(config)
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    monkeypatch.setenv("CAXIAL_MAX_DIM", "100")
    report, _ = run_verification(config)
    # decay.massive_green_function builds its own one-level torus
    capped = [c for c in report["checks"]
              if c["check_id"] != "decay.massive_green_function"]
    assert capped and {c["status"] for c in capped} == {"SKIPPED"}
    assert {c["reason"] for c in capped} == {
        "ambient dimension 162 exceeds cap 100"}


@pytest.mark.parametrize("cap", ["abc", "0", "-3"])
def test_unusable_cap_is_config_error(cap, tmp_path, monkeypatch, capsys):
    # a non-integer cap crashed the report itself; a cap below 1 would skip
    # every check and exit 0
    monkeypatch.setenv("CAXIAL_MAX_DIM", cap)
    path = tmp_path / "report.json"
    assert main(["verify", "--dim", "2", "--L", "3", "--levels", "4",
                 "--suite", "rg", "--report", str(path)]) == 2
    assert "CAXIAL_MAX_DIM" in capsys.readouterr().err
    assert not path.exists()


def test_cap_above_the_default_runs_the_larger_instance(tmp_path,
                                                       monkeypatch):
    # (3, 13, 1) has 6,591 bonds, over the default cap of 5000; the fine
    # torus of the scale-invariance check has 14,480,427 and stays skipped
    monkeypatch.setenv("CAXIAL_MAX_DIM", "7000")
    path = tmp_path / "report.json"
    assert main(["verify", "--dim", "3", "--L", "13", "--levels", "1",
                 "--suite", "geometry,calculus", "--report", str(path)]) == 0
    status = {c["check_id"]: c["status"]
              for c in json.loads(path.read_text())["checks"]}
    assert status.pop("calculus.curl_energy_scale_invariance") == "SKIPPED"
    assert status and set(status.values()) == {"PASS"}


def test_appendix_runs_change_of_gauge_once(monkeypatch):
    original = cli.change_of_gauge_check
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(cli, "change_of_gauge_check", counted)
    report, _ = run_verification(small_config(suites=("appendix",)))
    assert len(calls) == 1
    assert [c["status"] for c in report["checks"]] == ["PASS", "PASS"]

    def broken(*args):
        raise RuntimeError("broken")
    monkeypatch.setattr(cli, "change_of_gauge_check", broken)
    report, _ = run_verification(small_config(suites=("appendix",)))
    assert [c["status"] for c in report["checks"]] == ["ERROR", "ERROR"]


FLOW_CHECKS = ("lower_bound.flow_forms_positive", "rg.flow_gauge_invariance",
               "rg.iterated_matches_one_shot", "rg.final_winding_step")


def test_rg_runs_the_flow_once_per_instance(monkeypatch):
    original = cli.flow_states
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(cli, "flow_states", counted)
    suites = ("lower_bound", "rg")
    config = small_config(instances=((2, 3, 1), (2, 5, 1)), suites=suites)
    report, _ = run_verification(config)
    # one flow per instance, shared by the two suites
    assert calls == [(2, 3, 1), (2, 5, 1)]
    assert {c["status"] for c in report["checks"]} == {"PASS"}

    # an exception is not cached: every check that reads the flow records
    # it, and the checks that do not read it still pass
    for error, status in ((RuntimeError("broken"), "ERROR"),
                          (ResourceCapExceeded("too big"), "SKIPPED")):
        def broken(*args, error=error):
            calls.append(args)
            raise error
        monkeypatch.setattr(cli, "flow_states", broken)
        calls.clear()
        report, _ = run_verification(small_config(suites=suites))
        assert len(calls) == len(FLOW_CHECKS)
        for c in report["checks"]:
            assert c["status"] == (status if c["check_id"] in FLOW_CHECKS
                                   else "PASS")


def test_sqrt_evaluates_each_root_once_per_instance(monkeypatch):
    quadrature, spectral = GaugeContext.cov_sqrt_quadrature, \
        GaugeContext.cov_sqrt_spectral
    nodes, roots = [], []

    def counted_quadrature(self, npoints=200):
        nodes.append(npoints)
        return quadrature(self, npoints)

    def counted_spectral(self):
        roots.append(self)
        return spectral(self)
    monkeypatch.setattr(GaugeContext, "cov_sqrt_quadrature",
                        counted_quadrature)
    monkeypatch.setattr(GaugeContext, "cov_sqrt_spectral", counted_spectral)
    config = small_config(instances=((2, 3, 1), (2, 5, 1)), suites=("sqrt",))
    report, _ = run_verification(config)
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    n = cli.NPOINTS
    assert nodes == [n, n // 2] * 2
    assert len(roots) == 2

    def broken(self):
        roots.append(self)
        raise RuntimeError("broken")
    monkeypatch.setattr(GaugeContext, "cov_sqrt_spectral", broken)
    roots.clear()
    report, _ = run_verification(small_config(suites=("sqrt",)))
    assert [c["status"] for c in report["checks"]] == ["ERROR"] * 3
    assert len(roots) == 3


RG_BUILDERS = (rg_flow._step_constraints, rg_flow._winding_constraints,
               rg_flow._one_shot_winding_constraints,
               gauge_ops.one_shot_constraints, gauge_ops.average_constraints)


def test_rg_factors_each_builder_key_once(monkeypatch):
    clear_caches()
    original = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    report, _ = run_verification(small_config(instances=((2, 3, 2),),
                                              suites=("rg",)))
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    infos = [f.cache_info() for f in RG_BUILDERS]
    # each key is factored once and then shared by the iterated and
    # one-shot flows, the constants and the minimizers
    assert all(i.misses == i.currsize for i in infos)
    assert sum(i.hits for i in infos) > 0
    assert len(shapes) <= sum(i.currsize for i in infos)


def test_gauge_suites_build_one_context_per_level(monkeypatch):
    clear_caches()
    init = GaugeContext.__init__
    built = []

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(GaugeContext, "__init__", counted)
    config = small_config(instances=((2, 3, 2), (2, 5, 1)),
                          suites=GAUGE_SUITES)
    report, _ = run_verification(config)
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    # the regulator a and the weight alpha are method arguments, so every
    # check of one level shares its context
    assert sorted(built) == [(2, 3, 2, 0), (2, 3, 2, 1),
                             (2, 5, 1, 0), (2, 5, 1, 1)]


def test_run_drops_each_instance_state_before_the_next(monkeypatch):
    suite = cli.SUITE_FUNCS["averaging"]
    refs = []

    def recording(run, inst):
        suite(run, inst)
        if not refs:
            # a lattice and an operator the suite cached on the first
            # instance
            lattice = unit_torus(*inst)
            refs.extend([weakref.ref(lattice),
                         weakref.ref(av.path_average_matrix(lattice))])
    monkeypatch.setitem(cli.SUITE_FUNCS, "averaging", recording)
    config = small_config(instances=((2, 3, 1), (2, 3, 2)),
                          suites=("averaging",))
    report, _ = run_verification(config)
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_decay_profiles_the_minimizer_once_per_instance(monkeypatch):
    original = cli.decay_profile
    kinds = []

    def counted(*args, **kwargs):
        kinds.append(kwargs.get("kind", "bond"))
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, "decay_profile", counted)
    report, _ = run_verification(small_config(instances=((2, 3, 3),),
                                              suites=("decay",)))
    assert [(c["check_id"], c["status"]) for c in report["checks"]] == [
        ("decay.massive_green_function", "PASS"),
        ("decay.minimizer_kernel_slope", "PASS"),
        ("decay.minimizer_fit_quality", "PASS")]
    # the slope and the fit quality read one profile of the minimizer
    assert kinds == ["site", "bond"]


def test_report_is_suite_major():
    # the run is instance-major, the report suite-major as before
    suites = ("geometry", "lower_bound", "decay")
    instances = ((2, 3, 1), (2, 3, 2))
    report, _ = run_verification(small_config(instances=instances,
                                              suites=suites))
    seen = [(c["check_id"].split(".")[0], tuple(c["instance"]))
            for c in report["checks"]]
    assert list(dict.fromkeys(seen)) == [(s, i) for s in suites
                                         for i in instances]


def test_exit_code_zero_and_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--dim", "2", "--L", "3", "--levels", "1",
                 "--suite", "geometry", "--report", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["summary"]["fail"] == 0
    assert "checks:" in capsys.readouterr().out.splitlines()[-1]


def test_exit_code_two_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"suites": ["no-such-suite"]}))
    assert main(["verify", "--config", str(good)]) == 2
    assert main(["verify", "--dim", "2", "--L", "3"]) == 2  # missing levels


@pytest.mark.parametrize("key, value", [
    ("instances", [[2, 3]]),
    ("instances", [[2, 3.0, 1]]),
    ("instances", [[2, 3, True]]),
    ("instances", [[2, 3, 1], [2, 3, 1]]),
    ("npoints", 200),
    ("seed", -1),
    ("seed", 1.5),
    ("suites", "rg"),
    ("suites", ["geometry", "geometry"]),
    ("identity_tol", "1e-8"),
    ("a_list", [1.0, 2.0]),
    ("csv_dir", 5),
], ids=["short-instance", "float-L", "bool-levels", "repeated-instance",
        "unknown-npoints", "negative-seed", "float-seed", "suites-string",
        "repeated-suite", "text-tolerance", "unknown-a-list",
        "number-csv-dir"])
def test_malformed_config_value_is_config_error(key, value, tmp_path,
                                                capsys):
    data = {"instances": [[2, 3, 1]], "suites": ["calculus"], key: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg),
                 "--report", str(report)]) == 2
    # the message names the offending key ("suites": "rg" once read as
    # the suites 'r' and 'g')
    assert key in capsys.readouterr().err
    assert not report.exists()


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [[2, 3, 1]],
                               "suites": ["geometry"], "seed": 7}))
    code = main(["verify", "--config", str(cfg)])
    assert code == 0


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        small_config().__class__(instances=((2, 3, 1),),
                                 suites=("nope",)).validate()


def test_csv_export(tmp_path):
    cfg = small_config(suites=("decay",), csv_dir=str(tmp_path))
    report, run = run_verification(cfg)
    files = os.listdir(tmp_path)
    assert files
    body = (tmp_path / files[0]).read_text().splitlines()
    assert body[0] == "distance,max_abs,count"
    assert len(body) > 2


@pytest.mark.parametrize("suite, inst, check_id, spec_args, cap, n", [
    # the fine lattice of the scale-invariance check, guarded on its
    # closed-form bond count
    ("calculus", (2, 3, 1), "calculus.curl_energy_scale_invariance",
     (2, 3, 1, 1), 100, 162),
    # the unit torus of the bijection check, guarded on 4 * its site count
    ("gauge_surface", (2, 3, 2), "gauge_surface.scalar_hierarchy_bijection",
     (2, 3, 0, 2), 300, 324),
    # the fine lattice of a level-1 context, guarded in GaugeContext
    ("feynman_landau", (2, 3, 2), "feynman_landau.projector_idempotent",
     (2, 3, 1, 1), 100, 162),
    # the unit torus of the flow, guarded in rg_flow
    ("rg", (2, 3, 2), "rg.flow_gauge_invariance", (2, 3, 0, 2), 100, 162),
], ids=["calculus", "gauge_surface", "context", "rg"])
def test_skipped_check_builds_no_lattice(monkeypatch, lattice_builds, suite,
                                         inst, check_id, spec_args, cap, n):
    # the run starts the instance with every cache empty
    spec = LatticeSpec(*spec_args)
    monkeypatch.setenv("CAXIAL_MAX_DIM", str(cap))
    report, _ = run_verification(small_config(instances=(inst,),
                                              suites=(suite,)))
    check = next(c for c in report["checks"] if c["check_id"] == check_id)
    assert check["status"] == "SKIPPED"
    assert check["reason"] == f"ambient dimension {n} exceeds cap {cap}"
    assert spec not in lattice_builds


def test_rank_tol_is_the_rank_cut_of_the_averaging_certificates():
    # a cut at the largest singular value keeps no row space of K, so each
    # certificate reports max |T| instead of round-off; on (2,3,2) neither
    # T vanishes (on (2,3,1) the coarse curl of a one-site torus does)
    names = ("averaging.closed_fields_average_closed",
             "averaging.recovery_inverts_gradient")

    def values(**kw):
        report, _ = run_verification(small_config(
            instances=((2, 3, 2),), suites=("averaging",), **kw))
        return {c["check_id"]: c["value"] for c in report["checks"]
                if c["check_id"] in names}

    default, cut = values(), values(rank_tol=1.0)
    assert set(default) == set(names)
    for name in names:
        assert default[name] < 1e-12
        assert cut[name] > 1e-3
