import json
import os

import pytest

from caxial import cli
from caxial.cli import ConfigError, RunConfig, main, run_verification


def small_config(**kw):
    base = dict(instances=((2, 3, 1),), suites=("geometry", "averaging"))
    base.update(kw)
    return RunConfig(**base).validate()


def strip_times(report):
    out = json.loads(json.dumps(report))
    for c in out["checks"]:
        c.pop("wall_time")
    return out


def test_all_pass_on_small_instance():
    report, _ = run_verification(small_config())
    assert report["summary"]["fail"] == 0
    assert report["summary"]["error"] == 0
    assert report["summary"]["total"] == len(report["checks"])


def test_report_reproducible_except_wall_time():
    r1, _ = run_verification(small_config(suites=("calculus", "rg")))
    r2, _ = run_verification(small_config(suites=("calculus", "rg")))
    assert strip_times(r1) == strip_times(r2)


def test_report_records_every_check_with_anchor():
    report, _ = run_verification(small_config())
    for c in report["checks"]:
        assert c["anchor"]
        assert c["status"] in ("PASS", "FAIL", "ERROR", "SKIPPED")


def test_resource_cap_records_skip(monkeypatch):
    monkeypatch.setenv("CAXIAL_MAX_DIM", "5")
    report, _ = run_verification(small_config(suites=("rg",)))
    statuses = {c["status"] for c in report["checks"]}
    assert statuses == {"SKIPPED"}
    for c in report["checks"]:
        assert "reason" in c


@pytest.mark.parametrize("cap", ["20000", "abc"])
def test_unusable_cap_is_config_error(cap, tmp_path, monkeypatch, capsys):
    # above fields.DENSE_LIMIT the operators are sparse and every check
    # would crash; a non-integer cap crashed the report itself
    monkeypatch.setenv("CAXIAL_MAX_DIM", cap)
    path = tmp_path / "report.json"
    assert main(["verify", "--dim", "2", "--L", "3", "--levels", "4",
                 "--suite", "rg", "--report", str(path)]) == 2
    assert "CAXIAL_MAX_DIM" in capsys.readouterr().err
    assert not path.exists()


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
], ids=["calculus", "gauge_surface"])
def test_skipped_check_builds_no_lattice(monkeypatch, suite, inst, check_id,
                                         spec_args, cap, n):
    from caxial.lattice import LatticeSpec, _lattice_cache
    spec = LatticeSpec(*spec_args)
    monkeypatch.delitem(_lattice_cache, spec, raising=False)
    monkeypatch.setenv("CAXIAL_MAX_DIM", str(cap))
    report, _ = run_verification(small_config(instances=(inst,),
                                              suites=(suite,)))
    check = next(c for c in report["checks"] if c["check_id"] == check_id)
    assert check["status"] == "SKIPPED"
    assert check["reason"] == f"ambient dimension {n} exceeds cap {cap}"
    assert spec not in _lattice_cache
