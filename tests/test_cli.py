import ast
import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from caxial import averaging as av
from caxial import cli, gauge_ops, gaussian, lattice, rg_flow
from caxial.cli import ConfigError, RunConfig, main, run_verification
from caxial.gauge_ops import NPOINTS, GaugeContext
from caxial.lattice import (OPEN_CUBE, Lattice, LatticeSpec, clear_caches,
                            unit_torus)


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
# test_decay_profiles_the_minimizer_once_per_instance), up to (2,5,3),
# whose level contexts are over the default cap
SMALL_INSTANCES = ((2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1))
LARGE_INSTANCES = ((2, 3, 3), (2, 5, 2), (3, 3, 2), (2, 5, 3))
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
        assert c["status"] == "PASS", c


def test_report_reproducible_except_wall_time():
    r1, _ = run_verification(small_config(suites=("calculus", "rg")))
    r2, _ = run_verification(small_config(suites=("calculus", "rg")))
    assert strip_times(r1) == strip_times(r2)


def test_resource_cap_records_skip(monkeypatch):
    monkeypatch.setenv("CAXIAL_MAX_DIM", "5")
    report, _ = run_verification(small_config(suites=("rg",)))
    statuses = {c["status"] for c in report["checks"]}
    assert statuses == {"SKIPPED"}
    # every rg check declares a dense matrix on the 18 bonds
    for c in report["checks"]:
        assert c["reason"] == "declared cost 324 exceeds cap 5**2 = 25 entries"


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
    # a dense matrix on the 162 bonds of every level's fine lattice
    assert {c["reason"] for c in capped} == {
        "declared cost 26244 exceeds cap 100**2 = 10000 entries"}


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
    # (3, 13, 1) has 6,591 bonds, over the default cap of 5000; the index
    # tables of the fine torus of the scale-invariance check (14,480,427
    # bonds) hold 130,323,843 entries, over 7000**2, so it stays skipped
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


def test_appendix_fails_a_singular_split_map(monkeypatch):
    original = GaugeContext.gauge_bijection_matrix

    def repeated_row(self):
        m = original(self)
        m[-1] = m[0]
        return m
    monkeypatch.setattr(GaugeContext, "gauge_bijection_matrix", repeated_row)
    report, _ = run_verification(small_config(suites=("appendix",)))
    status = {c["check_id"]: c["status"] for c in report["checks"]}
    assert status["appendix.scalar_split_dimensions"] == "FAIL"


FLOW_CHECKS = ("lower_bound.flow_forms_positive", "rg.flow_gauge_invariance",
               "rg.iterated_matches_one_shot", "rg.final_winding_step")


def test_rg_runs_the_flow_once_per_instance(monkeypatch):
    # rg_flow.flow_states caches the flow; each build starts at init_rho0
    original = rg_flow.init_rho0
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(rg_flow, "init_rho0", counted)
    suites = ("lower_bound", "rg")
    config = small_config(instances=((2, 3, 1), (2, 5, 1)), suites=suites)
    report, _ = run_verification(config)
    # one flow per instance, shared by the two suites
    assert calls == [(2, 3, 1), (2, 5, 1)]
    assert {c["status"] for c in report["checks"]} == {"PASS"}

    # an exception is not cached: every check that reads the flow records
    # it, and the checks that do not read it still pass
    def broken(*args):
        calls.append(args)
        raise RuntimeError("broken")
    monkeypatch.setattr(rg_flow, "init_rho0", broken)
    calls.clear()
    report, _ = run_verification(small_config(suites=suites))
    assert len(calls) == len(FLOW_CHECKS)
    for c in report["checks"]:
        assert c["status"] == ("ERROR" if c["check_id"] in FLOW_CHECKS
                               else "PASS")


def test_sqrt_evaluates_each_root_once_per_instance(monkeypatch):
    # the level context caches both roots: before each instance's caches
    # are dropped, the quadrature root has missed once per node count and
    # the spectral one once, and the eigendecompositions the spectral root
    # is built from are counted (no other check of the suite takes an eigh)
    cached = GaugeContext.cov_sqrt_quadrature, GaugeContext.cov_sqrt_spectral
    infos, roots = [], []

    def audited_clear():
        infos.append([root.cache_info() for root in cached])
        clear_caches()

    eigh = np.linalg.eigh

    def counted_eigh(m):
        roots.append(m.shape)
        return eigh(m)
    monkeypatch.setattr(cli, "clear_caches", audited_clear)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    clear_caches()
    config = small_config(instances=((2, 3, 1), (2, 5, 1)), suites=("sqrt",))
    report, _ = run_verification(config)
    audited_clear()
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    # the quadrature at NPOINTS and NPOINTS // 2 nodes, the first read
    # twice; the spectral root read four times by the three checks
    assert [[(i.misses, i.hits) for i in info] for info in infos] == [
        [(0, 0), (0, 0)], [(2, 1), (1, 3)], [(2, 1), (1, 3)]]
    assert len(roots) == 2

    def broken(m):
        roots.append(m.shape)
        raise RuntimeError("broken")
    monkeypatch.setattr(np.linalg, "eigh", broken)
    roots.clear()
    report, _ = run_verification(small_config(suites=("sqrt",)))
    assert [c["status"] for c in report["checks"]] == ["ERROR"] * 3
    assert len(roots) == 3


@pytest.mark.parametrize("rule", ("RULE", "HALF_RULE"))
def test_quadrature_rules_are_gauss_legendre(rule):
    # an n-node Gauss-Legendre rule integrates x^(2n-2) on [-1, 1] exactly
    nodes, weights = getattr(gauge_ops, rule)
    n = len(nodes)
    assert abs(weights @ nodes ** (2 * n - 2) - 2 / (2 * n - 1)) < 1e-14


def test_verify_loads_no_scipy_and_imports_nothing_during_the_run():
    # numpy is the one backend of the package: importing it and running
    # every suite loads no scipy module, nor numpy.f2py, numpy.testing or
    # numpy.ma (which a scipy import brings in), nor numpy.random (the
    # probes come from cli.ProbeStream).  Every module is loaded
    # with the package, so the run itself imports nothing.  A fresh
    # process, since the test modules import scipy
    code = (
        "import sys\n"
        "from caxial.cli import RunConfig, run_verification\n"
        "config = RunConfig(instances=((2, 3, 1),)).validate()\n"
        "before = set(sys.modules)\n"
        "report, _ = run_verification(config)\n"
        "print({c['status'] for c in report['checks']})\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m.split('.')[:2] in (['numpy', 'f2py'],\n"
        "                                     ['numpy', 'testing'],\n"
        "                                     ['numpy', 'ma'],\n"
        "                                     ['numpy', 'random'])))\n")
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["{'PASS'}", "[]", "[]"]


RG_BUILDERS = (rg_flow._one_shot_winding_constraints,
               gauge_ops.one_shot_constraints, gauge_ops.average_constraints)


def test_rg_factors_each_builder_key_once(monkeypatch):
    original = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    # the surfaces of one shape share a key at every spacing, so the flow's
    # step surfaces are the level contexts' axial ones and, on one level,
    # final_step's is one_shot_final's; level 0 builds no surface, and the
    # one SVD past the surfaces is the fluctuation basis.
    # (2,3,2): steps at 9 and 3 sites per side, the level-2 axial surface
    # and the two winding stacks; (3,3,1): the step and the winding stack
    for inst, svds in (((2, 3, 2), 6), ((3, 3, 1), 3)):
        clear_caches()
        shapes.clear()
        report, _ = run_verification(small_config(instances=(inst,),
                                                  suites=("rg",)))
        assert {c["status"] for c in report["checks"]} == {"PASS"}
        infos = [f.cache_info() for f in RG_BUILDERS]
        # each key is factored once and then shared by the iterated and
        # one-shot flows, the constants and the minimizers
        assert all(i.misses == i.currsize for i in infos), inst
        assert sum(i.hits for i in infos) > 0, inst
        assert len(shapes) == svds, (inst, shapes)


def test_suites_reduce_each_shared_gaussian_once(monkeypatch):
    # every surface integral is a SurfaceGaussian, which forms its reduced
    # form once and each output at most once; the level contexts keep the
    # outputs of their axial and per-alpha Feynman Gaussians and their step
    # Gaussians whole, and the flow steps through the level-0 one, so on
    # (2,3,2) no (surface, form) pair is reduced twice
    clear_caches()
    init = gaussian.SurfaceGaussian.__init__
    reductions = []     # holding the objects keeps their ids unique

    def counted(self, form, surface):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):    # a comprehension
            caller = caller.f_back
        reductions.append((caller.f_code.co_name, surface, form))
        init(self, form, surface)
    monkeypatch.setattr(gaussian.SurfaceGaussian, "__init__", counted)
    report, _ = run_verification(RunConfig(instances=((2, 3, 2),)).validate())
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    # axial at levels 1-2, step at 0-1, Feynman at three alphas on level
    # 1, Landau once; level 0 integrates nothing, so its axial density is
    # the curl form and its Feynman minimizer the axial one, the identity.
    # The flow reduces only its level-1 step, whose form is iterated
    assert Counter(name for name, *_ in reductions) == {
        "_axial": 2, "step": 2, "feynman": 3, "rg_step": 1, "final_step": 1,
        "one_shot_final": 1, "change_of_gauge_check": 1}
    assert len(reductions) == 11
    pairs = {(id(surface), id(form)) for _, surface, form in reductions}
    assert len(pairs) == len(reductions)
    assert rg_flow.flow_states(2, 3, 2)[0].step \
        is gauge_ops.get_context(2, 3, 2, 0).step


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
    # cli profiles the massive Green's function, the level context the
    # minimizer
    original = gauge_ops.decay_profile
    kinds = []

    def counted(*args, **kwargs):
        kinds.append(kwargs.get("kind", "bond"))
        return original(*args, **kwargs)
    for mod in (cli, gauge_ops):
        monkeypatch.setattr(mod, "decay_profile", counted)
    config = small_config(instances=((2, 3, 3),), suites=("decay",))
    report, _ = run_verification(config)
    ids = ["decay.massive_green_function", "decay.minimizer_kernel_slope",
           "decay.minimizer_fit_quality"]
    assert [(c["check_id"], c["status"]) for c in report["checks"]] == [
        (i, "PASS") for i in ids]
    # the slope and the fit quality read one profile of the minimizer
    assert kinds == ["site", "bond"]

    # an exception is not memoized: both checks that read the profile
    # record it
    def broken(*args, **kwargs):
        kinds.append(kwargs.get("kind", "bond"))
        raise RuntimeError("broken")
    monkeypatch.setattr(gauge_ops, "decay_profile", broken)
    kinds.clear()
    report, _ = run_verification(config)
    assert [(c["check_id"], c["status"]) for c in report["checks"]] == [
        (ids[0], "PASS"), (ids[1], "ERROR"), (ids[2], "ERROR")]
    assert kinds == ["site", "bond", "bond"]


def test_library_caches_are_shared_and_read_only():
    # the flow, the roots, the minimizer profile and the level Gaussians'
    # outputs are cached where they are built: a second read returns the
    # same object, and every shared array is read-only
    clear_caches()
    states = rg_flow.flow_states(2, 3, 2)
    c = gauge_ops.get_context(2, 3, 2, 1)
    reads = (lambda: rg_flow.flow_states(2, 3, 2), c.cov_sqrt_spectral,
             lambda: c.cov_sqrt_quadrature(NPOINTS // 2),
             c.minimizer_profile)
    for read in reads:
        assert read() is read()
    assert c.feynman(1.0) is c.feynman(1.0)
    assert c.axial_density is c.axial_density
    arrays = [s.density.form for s in states] \
        + [c.cov_sqrt_spectral(), c.cov_sqrt_quadrature(NPOINTS // 2),
           c.green_scalar(), c.proj_div(), c.bond_average_next_symbol,
           c._covariance_symbol(0.0)[0], *c._unit_symbols,
           av.fluctuation_basis(c.unit), c.grad_fine, c.lap_fine,
           c.axial_minimizer, c.delta, c.div_penalty, c.reduced_delta,
           c.div_range_basis, c.fluct_basis, c.chi_star,
           c.step.minimizer, c.step.covariance,
           *c.feynman(1.0), c.feynman(0.5)[0]]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_instance_caches_hold_every_key_of_an_instance(monkeypatch):
    # before a run drops an instance's caches, each holds every key it
    # missed (nothing was evicted, nothing built twice), below CACHE_SIZE
    held = []

    def audit():
        for cached in lattice._caches:
            info = cached.cache_info()
            assert info.misses == info.currsize < lattice.CACHE_SIZE, \
                (cached.__module__, cached.__name__, info)
        held.append(max(c.cache_info().currsize for c in lattice._caches))

    def audited_clear():
        audit()
        clear_caches()
    clear_caches()
    monkeypatch.setattr(cli, "clear_caches", audited_clear)
    report, _ = run_verification(RunConfig(
        instances=SMALL_INSTANCES).validate())
    audit()
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    assert len(held) == len(SMALL_INSTANCES) + 1 and max(held) > 0


def test_cli_caches_only_values_of_the_seed():
    # a library value is cached in the module that builds it; an
    # instance_cache of cli holds only what depends on the run's seed
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    uses = [n for n in ast.walk(tree)
            if getattr(n, "id", getattr(n, "attr", None)) == "instance_cache"]
    cached = {f.name: [a.arg for a in f.args.posonlyargs + f.args.args]
              for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and any(d in uses for d in f.decorator_list)}
    # instance_cache is used only as a decorator
    assert cached and len(cached) == len(uses)
    for name, args in cached.items():
        assert "seed" in args, name


PROBE_CHECKS = {"calculus.adjointness",
                "calculus.curl_energy_scale_invariance",
                "calculus.path_average_symmetry", "averaging.scalar_recovery",
                "appendix.gauge_change_moments"}


def _splitmix64(key, n):
    """The first n outputs of SplitMix64 seeded with key, in Python ints."""
    out = []
    for _ in range(n):
        key = (key + 0x9E3779B97F4A7C15) % 2**64
        z = key
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        out.append(z ^ (z >> 31))
    return out


def test_probe_stream_is_splitmix64_under_box_muller():
    # the published first output of SplitMix64 seeded with 0
    assert _splitmix64(0, 1) == [0xE220A8397B1DCDAF]
    stream = cli.ProbeStream(42, 1, 2, 3, 1)
    u = np.array(_splitmix64(stream.key, 6), dtype=np.uint64) >> 11
    u = u.astype(float).reshape(3, 2) * 2.0**-53
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]
    expected = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    assert np.array_equal(stream.standard_normal(6), expected.ravel())


def test_probe_stream_is_keyed_by_seed_and_salt():
    draw = lambda *words: cli.ProbeStream(*words).standard_normal(5)
    assert np.array_equal(draw(42, 1, 2, 3, 1), draw(42, 1, 2, 3, 1))
    words = [(42, 1, 2, 3, 1), (42, 2, 2, 3, 1), (42, 1, 2, 3, 2),
             (7, 1, 2, 3, 1), (0,), (0, 0), (5,), (5, 1), (2**64 + 5,),
             (2**64, 5), (2**128,)]
    assert len({draw(*w).tobytes() for w in words}) == len(words)
    with pytest.raises(ValueError):
        cli.ProbeStream(-1)


def test_probe_stream_continues_across_calls():
    # successive calls, of odd lengths too, continue one stream bit for bit
    whole = cli.ProbeStream(42, 4).standard_normal(16)
    stream = cli.ProbeStream(42, 4)
    parts = [stream.standard_normal(n) for n in (3, 1, 0, 5, 2, 5)]
    assert [len(p) for p in parts] == [3, 1, 0, 5, 2, 5]
    assert np.array_equal(np.concatenate(parts), whole)


def test_probe_stream_is_standard_normal():
    n = 10**6
    x = cli.ProbeStream(42, 0).standard_normal(n)
    assert x.shape == (n,) and x.dtype == np.float64
    assert abs(x.mean()) <= 5 / math.sqrt(n)
    assert abs(x.var() - 1) <= 5 * math.sqrt(2 / n)


def test_probe_stream_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli.ProbeStream(2**64 - 1, 2**70, 1).standard_normal(1001)


def test_seed_beyond_64_bits_runs_calculus():
    report, _ = run_verification(RunConfig(
        instances=((2, 3, 1),), suites=("calculus",),
        seed=2**64 + 5).validate())
    assert {c["status"] for c in report["checks"]} == {"PASS"}


def test_seed_moves_only_the_probe_values():
    runs = [run_verification(RunConfig(instances=((2, 3, 2),),
                                       seed=seed).validate())[0]["checks"]
            for seed in (42, 7)]
    assert [c["check_id"] for c in runs[0]] \
        == [c["check_id"] for c in runs[1]]
    moved = {a["check_id"] for a, b in zip(*runs) if a["value"] != b["value"]}
    assert moved and moved <= PROBE_CHECKS
    assert PROBE_CHECKS <= {c["check_id"] for c in runs[0]}


def test_path_average_symmetry_raises_on_an_image_that_is_no_row(
        monkeypatch):
    # shifting the coarse images by one site moves every image pair of
    # (2,3,2)'s 9 blocks out of its block: the check must not pass
    original = Lattice.site_permutation

    def shifted(self, r):
        dest = original(self, r)
        return (dest + 1) % self.n_sites if self.n_sites == 9 else dest
    monkeypatch.setattr(Lattice, "site_permutation", shifted)
    report, _ = run_verification(small_config(instances=((2, 3, 2),),
                                              suites=("calculus",)))
    for c in report["checks"]:
        if c["check_id"] == "calculus.path_average_symmetry":
            assert c["status"] == "ERROR"
            assert c["reason"].startswith("KeyError")
        else:
            assert c["status"] == "PASS", c


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


def test_non_finite_tolerance_is_config_error(tmp_path, capsys):
    # an infinite tolerance passes every identity check vacuously and
    # writes Infinity, which is not JSON, into the report
    report = tmp_path / "report.json"
    assert main(["verify", "--dim", "2", "--L", "3", "--levels", "1",
                 "--suite", "calculus", "--tol", "inf",
                 "--report", str(report)]) == 2
    assert "identity_tol" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"instances": [[2, 3, 1]], "suites": ["calculus"], '
                   '"identity_tol": 1e400}')
    assert main(["verify", "--config", str(cfg),
                 "--report", str(report)]) == 2
    assert "identity_tol" in capsys.readouterr().err
    assert not report.exists()


def test_empty_suite_selection_is_config_error(tmp_path, capsys):
    # a run of no suite makes 0 checks and would exit 0; an empty --suite
    # used to be skipped, so that every suite ran
    with pytest.raises(ConfigError, match="no suites"):
        RunConfig(suites=()).validate()
    report = tmp_path / "report.json"
    assert main(["verify", "--dim", "2", "--L", "3", "--levels", "1",
                 "--suite", "", "--report", str(report)]) == 2
    assert "suite" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"instances": [[2, 3, 1]], "suites": []}')
    assert main(["verify", "--config", str(cfg),
                 "--report", str(report)]) == 2
    assert "no suites" in capsys.readouterr().err
    assert not report.exists()


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
    ("rank_tol", 1e-9),
    ("csv_dir", 5),
], ids=["short-instance", "float-L", "bool-levels", "repeated-instance",
        "unknown-npoints", "negative-seed", "float-seed", "suites-string",
        "repeated-suite", "text-tolerance", "unknown-a-list",
        "unknown-rank-tol", "number-csv-dir"])
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


def test_report_in_a_missing_directory_is_config_error(tmp_path, capsys):
    # rejected before any check runs: no summary and no report
    report = tmp_path / "missing" / "r.json"
    assert main(["verify", "--dim", "2", "--L", "3", "--levels", "1",
                 "--report", str(report)]) == 2
    out = capsys.readouterr()
    assert "report" in out.err and out.out == ""
    assert not report.parent.exists()
    assert main(["verify", "--dim", "2", "--L", "3", "--levels", "1",
                 "--report", str(tmp_path)]) == 2


def test_csv_dir_naming_a_file_is_config_error(tmp_path, capsys):
    not_a_dir = tmp_path / "tables"
    not_a_dir.write_text("")
    report = tmp_path / "r.json"
    assert main(["verify", "--dim", "2", "--L", "3", "--levels", "1",
                 "--csv-dir", str(not_a_dir), "--report", str(report)]) == 2
    out = capsys.readouterr()
    assert "csv_dir" in out.err and out.out == ""
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


@pytest.mark.parametrize("suite, inst, check_id, spec, cost", [
    # the index tables of the fine lattice of the scale-invariance check
    ("calculus", (2, 3, 1), "calculus.curl_energy_scale_invariance",
     LatticeSpec(2, 3, 1, 1), 1215),
    # the block-Fourier stack of the unit torus of the bijection check
    ("gauge_surface", (2, 3, 2), "gauge_surface.scalar_hierarchy_bijection",
     LatticeSpec(2, 3, 0, 2), 1458),
    # a dense matrix on the bonds of a level-1 context's fine lattice
    ("feynman_landau", (2, 3, 2), "feynman_landau.projector_idempotent",
     LatticeSpec(2, 3, 1, 1), 26244),
    # a dense matrix on the bonds of the unit torus of the flow
    ("rg", (2, 3, 2), "rg.flow_gauge_invariance", LatticeSpec(2, 3, 0, 2),
     26244),
    # the index tables of the open cube
    ("geometry", (2, 3, 1), "geometry.spanning_tree",
     LatticeSpec(2, 3, boundary=OPEN_CUBE), 108),
], ids=["calculus", "gauge_surface", "context", "rg", "open_cube"])
def test_skipped_check_builds_no_lattice(monkeypatch, lattice_builds, suite,
                                         inst, check_id, spec, cost):
    # the largest cap whose square is below the declared cost; the run
    # starts the instance with every cache empty
    cap = math.isqrt(cost - 1)
    monkeypatch.setenv("CAXIAL_MAX_DIM", str(cap))
    report, _ = run_verification(small_config(instances=(inst,),
                                              suites=(suite,)))
    check = next(c for c in report["checks"] if c["check_id"] == check_id)
    assert check["status"] == "SKIPPED"
    assert check["reason"] == (f"declared cost {cost} exceeds cap "
                               f"{cap}**2 = {cap * cap} entries")
    assert spec not in lattice_builds


def test_open_cube_checks_are_capped(monkeypatch, lattice_builds):
    # every check of these suites declares more than 10**2 entries on
    # (2,3,1); the open-cube checks used to run under any cap
    monkeypatch.setenv("CAXIAL_MAX_DIM", "10")
    suites = ("geometry", "gauge_surface", "lower_bound")
    report, _ = run_verification(small_config(suites=suites))
    assert len(report["checks"]) == 10
    assert {c["status"] for c in report["checks"]} == {"SKIPPED"}
    assert not lattice_builds


LINALG_CALLS = ("cholesky", "cond", "det", "eig", "eigh", "eigvals",
                "eigvalsh", "inv", "lstsq", "matrix_rank", "norm", "pinv",
                "qr", "slogdet", "solve", "svd")


def test_representation_runs_on_blocks_smaller_than_the_bonds(monkeypatch):
    # on (2,3,2) the representation suite runs on 9 momentum blocks of 18
    # bonds: no linear-algebra call sees a matrix with a side of n_bonds
    shapes = []
    for name in LINALG_CALLS:
        def recorded(a, *args, _call=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    report, _ = run_verification(RunConfig(
        instances=((2, 3, 2),), suites=("representation",)).validate())
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    assert shapes
    n_bonds = LatticeSpec(2, 3, 0, 2).n_bonds
    assert max(max(s[-2:]) for s in shapes) < n_bonds, shapes


# Bound on the tracemalloc peak of one check run from empty caches, in
# float64 entries per declared entry.  The small instances reach 16 in
# representation.covariance_identity_* on (2,5,1), one block, where each
# symbol is a dense bond matrix (4 on (2,3,2), 9 blocks), and 16 in rg on
# (2,3,2), which hold that many dense bond matrices at once.  ALLOWANCE
# covers what a check holds whatever its size (Python objects, cache
# entries, small tables): 10-45 KB for the structure checks on (2,3,1).
PEAK_MULTIPLE = 24
ALLOWANCE = 64 * 1024


@pytest.mark.parametrize("suite", cli.SUITES)
def test_declared_cost_bounds_the_peak_memory(monkeypatch, suite):
    peaks = []
    check = cli.Runner.check

    def traced(self, check_id, anchor, instance, fn, *args, cost):
        def measured():
            clear_caches()
            gc.collect()
            tracemalloc.start()
            try:
                return fn()
            finally:
                peaks.append((check_id, instance,
                              tracemalloc.get_traced_memory()[1], cost))
                tracemalloc.stop()
        return check(self, check_id, anchor, instance, measured, *args,
                     cost=cost)
    monkeypatch.setattr(cli.Runner, "check", traced)
    report, _ = run_verification(RunConfig(instances=SMALL_INSTANCES,
                                           suites=(suite,)).validate())
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    assert len(peaks) == len(report["checks"])
    for check_id, inst, peak, cost in peaks:
        assert peak <= PEAK_MULTIPLE * 8 * cost + ALLOWANCE, \
            (check_id, inst, peak, cost)


def test_scale_check_holds_one_shape_of_tables_and_curl(monkeypatch):
    # curl_energy_scale_invariance compares a torus with its relabeling at
    # a spacing L times finer: one shape, so one set of index tables and
    # one ext_d layout (data, columns and rows per entry, and indptr).
    # With a table set and a layout per lattice the peak on (2,3,3) was
    # 3.2 times that; one of each, their assembly scratch and the probe
    # fields stay below 2.5 times (2.0 measured).
    spec = LatticeSpec(2, 3, 1, 3)
    tables = (4 * spec.dim * spec.n_sites + 2 * spec.n_bonds
              + 3 * spec.n_plaquettes)
    layout = 3 * 4 * spec.n_plaquettes + spec.n_plaquettes + 1
    peaks = []
    check = cli.Runner.check

    def only_scale(self, check_id, anchor, instance, fn, *args, cost):
        if check_id != "calculus.curl_energy_scale_invariance":
            return None

        def measured():
            clear_caches()
            gc.collect()
            tracemalloc.start()
            try:
                return fn()
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return check(self, check_id, anchor, instance, measured, *args,
                     cost=cost)
    monkeypatch.setattr(cli.Runner, "check", only_scale)
    report, _ = run_verification(small_config(instances=((2, 3, 3),),
                                              suites=("calculus",)))
    assert [c["status"] for c in report["checks"]] == ["PASS"]
    assert peaks[0] < 2.5 * 8 * (tables + layout), peaks[0]


def test_only_gaussian_reads_a_surface_basis_or_lift():
    # every surface integral goes through gaussian.SurfaceGaussian, and
    # kernel_basis is the one kernel accessor of the other modules
    readers = set()
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    node.attr in ("basis", "lift"):
                readers.add(path.name)
    assert readers == {"gaussian.py"}


def test_only_cli_reads_or_compares_the_cap():
    # Runner.check is the one resource guard: no other module reads
    # CAXIAL_MAX_DIM, the environment or a cap, or compares with one
    found = {}
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and \
                    node.value == "CAXIAL_MAX_DIM":
                found.setdefault("variable", set()).add(path.name)
            if isinstance(node, ast.Attribute) and node.attr == "environ":
                found.setdefault("environ", set()).add(path.name)
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for n in ast.walk(node)}
            if isinstance(node, ast.Compare) and names & {
                    "cap", "max_ambient_dim", "DEFAULT_MAX_DIM"}:
                found.setdefault("comparison", set()).add(path.name)
    assert found == {"variable": {"cli.py"}, "environ": {"cli.py"},
                     "comparison": {"cli.py"}}
