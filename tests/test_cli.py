"""End-to-end runs of the command-line driver, in process."""
import filecmp
import json

import jsonschema
import numpy as np
import pytest

from inghamlab import construct
from inghamlab.cli import CONFIG_SCHEMA, main
from inghamlab.grids import Grid


def _manifest(out_dir):
    with open(out_dir / "manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_a_parse_error():
    # usage errors exit 1 like every configuration error; 2 is a verdict
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0
    assert "--profile" in capsys.readouterr().out


def test_classify_flags_divergent_profile(tmp_path, capsys):
    rc = main(["classify", "--profile", "theta_log",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "LIKELY_DIVERGENT" in capsys.readouterr().out
    report = json.loads((tmp_path / "classification.json").read_text())
    assert report["verdict"] == "LIKELY_DIVERGENT"


def test_classify_convergent_profile(tmp_path, capsys):
    rc = main(["classify", "--profile", "theta_log_sq",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "LIKELY_CONVERGENT" in capsys.readouterr().out


def test_construct_manifest_contents(tmp_path):
    out = tmp_path / "run"
    assert main(["construct", "--out", str(out)]) == 0
    m = _manifest(out)
    assert m["schema_version"] == 1
    assert m["subcommand"] == "construct"
    assert len(m["config_sha256"]) == 64
    assert m["outputs"] == sorted(m["outputs"])
    assert set(m["outputs"]) == {"certificate.json", "product.csv",
                                 "realized.csv", "spec.json"}
    res = m["results"]
    assert res["certificate_verdict"] == "HOLDS"
    assert res["support_radius"] == pytest.approx(1.4384678533405229)
    assert res["leak_fraction"] < 1e-6
    for name in m["outputs"]:
        assert (out / name).exists()


def test_construct_runs_are_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["construct", "--profile", "theta_log_sq",
                     "--out", str(out)]) == 0
    for name in ("realized.csv", "product.csv", "manifest.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_construct_evaluates_the_dual_grid_product_once(tmp_path,
                                                         monkeypatch):
    # one evaluation on the dual grid feeds realized.csv and product.csv,
    # one on the certificate grid: two calls, not three
    returned, realized_from = [], []
    evaluate, realize = (construct.evaluate_product_fourier,
                         construct.realize_function)

    def counted(spec, xi):
        returned.append(evaluate(spec, xi))
        return returned[-1]

    def recorded(spec, grid, product=None):
        realized_from.append(product)
        return realize(spec, grid, product)

    monkeypatch.setattr(construct, "evaluate_product_fourier", counted)
    monkeypatch.setattr(construct, "realize_function", recorded)
    out = tmp_path / "run"
    assert main(["construct", "--grid-radius", "16", "--grid-points", "4096",
                 "--out", str(out)]) == 0
    assert len(returned) == 2
    dual = [v for v in returned if v.size == 4096]
    assert len(dual) == 1 and len(realized_from) == 1
    assert realized_from[0] is dual[0]
    csv = np.loadtxt(out / "product.csv", delimiter=",", skiprows=1)
    assert np.array_equal(csv[:, 1], dual[0])


@pytest.mark.parametrize("subcommand", ["verify", "construct"])
def test_ruinous_certificate_grid_is_refused(tmp_path, capsys, subcommand):
    # 30 windows from xi0 = 64 ask for 3.4e12 points; refused up front
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"windows": {"count": 30}}))
    out = tmp_path / "out"
    rc = main([subcommand, "--config", str(config), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "certificate grid of 3.43597e+12 points" in err
    assert "count 30" in err
    assert not (out / "manifest.json").exists()
    assert not list(out.iterdir())


def test_verify_rejects_divergent_schedule(tmp_path, capsys):
    rc = main(["verify", "--profile", "theta_log", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_drives_the_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"radius": 8.0, "points": 2048},
        "profile": {"name": "psi_power", "params": {"exponent": 0.5}},
    }))
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config),
                 "--out", str(out)]) == 0
    m = _manifest(out)
    assert m["config"]["grid"] == {"radius": 8.0, "points": 2048,
                                   "offset": False}
    assert m["config"]["profile"]["name"] == "psi_power"


def test_flags_override_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"radius": 8.0, "points": 2048}}))
    out = tmp_path / "out"
    assert main(["construct", "--config", str(config), "--out", str(out),
                 "--grid-points", "1024"]) == 0
    assert _manifest(out)["config"]["grid"]["points"] == 1024


def test_config_unknown_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gird": {"radius": 8.0}}))
    rc = main(["construct", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config rejected" in capsys.readouterr().err


def test_config_malformed_json(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{")
    rc = main(["construct", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    rc = main(["construct", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_config_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


# (flag, value, the same value as config, message)
_OUT_OF_BOUNDS = [
    ("--probe", "-1", {"probe": -1}, "-1 is less than the minimum of 0"),
    ("--grid-points", "1", {"grid": {"points": 1}},
     "1 is less than the minimum of 2"),
    ("--grid-radius", "0", {"grid": {"radius": 0.0}},
     "0.0 is less than or equal to the minimum of 0"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag,value,config,message", _OUT_OF_BOUNDS,
                         ids=[case[0] for case in _OUT_OF_BOUNDS])
def test_flag_values_meet_the_config_bounds(tmp_path, capsys, source, flag,
                                            value, config, message):
    if source == "flag":
        given = [flag, value]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        given = ["--config", str(path)]
    out = tmp_path / "out"
    assert main(["transform", *given, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config rejected: {message}\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("source", ["flag", "config"])
def test_grid_points_above_the_bound_build_nothing(tmp_path, capsys,
                                                   monkeypatch, source):
    # 2**22, the bound decay_certificate enforces, holds for every grid
    jsonschema.validate({"grid": {"points": 2 ** 22}}, CONFIG_SCHEMA)

    def no_grid(self):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(Grid, "__post_init__", no_grid)
    if source == "flag":
        given = ["--grid-points", str(2 ** 22 + 1)]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": {"points": 2 ** 22 + 1}}))
        given = ["--config", str(path)]
    out = tmp_path / "out"
    assert main(["evolve", "--path", "closed", *given, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: config rejected: 4194305 is "
                                       "greater than the maximum of 4194304\n")
    assert not out.exists() or not any(out.iterdir())


def test_unknown_initial_profile(tmp_path, capsys):
    rc = main(["transform", "--initial", "nope", "--out", str(tmp_path),
               "--grid-points", "256"])
    assert rc == 1
    assert "unknown initial profile" in capsys.readouterr().err


def test_initial_profile_missing_params(tmp_path, capsys):
    # bump has no default support interval; must fail cleanly, not crash
    rc = main(["evolve", "--initial", "bump", "--out", str(tmp_path),
               "--grid-points", "256"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_transform_probe_agrees_with_oracle(tmp_path):
    out = tmp_path / "t"
    rc = main(["transform", "--initial", "gaussian", "--grid-radius", "16",
               "--grid-points", "1024", "--probe", "8", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    m = _manifest(out)
    assert m["results"]["probe_max_rel_dev"] < 1e-8
    assert (out / "spectrum.csv").exists()


def test_group_probe_on_odd_data_uses_a_priori_scale(tmp_path):
    # odd data has a zero Weyl average, so max |F| = 0 cannot scale the
    # probe; the bound h * sum |f| phi**2 does instead
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"initial": {"name": "gaussian-hermite",
                                           "params": {"order": 1}}}))
    out = tmp_path / "t"
    rc = main(["transform", "--group", "sl2c", "--config", str(cfg),
               "--grid-points", "2048", "--probe", "8", "--out", str(out)])
    assert rc == 0
    dev = _manifest(out)["results"]["probe_max_rel_dev"]
    assert isinstance(dev, float) and dev < 1e-12


def test_group_evolve_paths_agree_on_odd_data(tmp_path):
    # both paths evolve the Weyl average, which is zero for odd data
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"initial": {"name": "gaussian-hermite",
                                           "params": {"order": 1}}}))
    res = {}
    for path in ("spectral", "closed"):
        out = tmp_path / path
        rc = main(["evolve", "--group", "sl2c", "--config", str(cfg),
                   "--grid-points", "2048", "--t0", "0.7", "--path", path,
                   "--out", str(out)])
        assert rc == 0
        res[path] = _manifest(out)["results"]
    assert abs(res["closed"]["l2_solution"] - res["spectral"]["l2_solution"]) \
        <= 1e-10 * res["spectral"]["l2_initial"]


def test_group_transform_uses_half_step_grid(tmp_path):
    out = tmp_path / "t"
    rc = main(["transform", "--group", "sl2c", "--initial", "gaussian",
               "--grid-points", "2048", "--out", str(out)])
    assert rc == 0
    m = _manifest(out)
    assert m["config"]["group"] == "sl2c"
    assert m["config"]["grid"] == {"radius": 32.0, "points": 2048,
                                   "offset": True}


@pytest.mark.parametrize("path", ["spectral", "closed"])
def test_group_evolve_reports_the_conserved_norm(tmp_path, capsys, path):
    # the group flow conserves the L2 norm of u phi, from f_sym phi
    cfg = tmp_path / "bump.json"
    cfg.write_text(json.dumps({"initial": {"name": "bump",
                                           "params": {"lo": -0.5, "hi": 1.5}}}))
    out = tmp_path / path
    assert main(["evolve", "--group", "sl2c", "--config", str(cfg),
                 "--path", path, "--out", str(out)]) == 0
    res = _manifest(out)["results"]
    assert res["l2_solution"] == pytest.approx(res["l2_initial"], rel=1e-12)
    assert "phi-weighted l2" in capsys.readouterr().out


def test_evolve_conserves_l2(tmp_path):
    out = tmp_path / "e"
    rc = main(["evolve", "--initial", "gaussian", "--grid-radius", "32",
               "--grid-points", "2048", "--t0", "0.5", "--out", str(out)])
    assert rc == 0
    res = _manifest(out)["results"]
    assert res["l2_solution"] == pytest.approx(res["l2_initial"], rel=1e-10)


def test_counterexample_verdicts(tmp_path, capsys):
    out = tmp_path / "ce"
    rc = main(["counterexample", "--grid-points", "4096", "--out", str(out),
               "--expect-holds"])
    assert rc == 0
    res = _manifest(out)["results"]
    assert res["verdict"] == "HOLDS"
    assert res["companion_verdict"] == "FAILS"
    assert res["companion_growth_factor"] > 10.0
    assert "HOLDS" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["verdict"] == "HOLDS"


# witness runs whose windows must start at 2 whatever theta and eta are,
# with the companion verdict and growth measured on the default grid
_FIXED_START_RUNS = {
    "theta_log_sq": (("--theta-profile", "theta_log_sq"), "HOLDS", 0.0629),
    "alpha-0.1-eta-0.85": (("--alpha", "0.1", "--eta", "0.85"), "FAILS",
                           787.7),
}


@pytest.mark.parametrize("case", sorted(_FIXED_START_RUNS))
def test_counterexample_windows_start_at_two(tmp_path, case):
    flags, companion, growth = _FIXED_START_RUNS[case]
    out = tmp_path / "ce"
    assert main(["counterexample", *flags, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("report", "companion"):
        assert [w["lo"] for w in report[key]["windows"]] == [2.0, 4.0, 8.0]
    res = _manifest(out)["results"]
    assert res["verdict"] == "HOLDS"
    assert res["companion_verdict"] == companion
    assert res["companion_growth_factor"] == pytest.approx(growth, rel=1e-3)


@pytest.mark.parametrize("profile", ["psi_power", "psi_linear"])
def test_psi_theta_profile_is_refused(tmp_path, capsys, profile):
    errors = []
    for sub in ("counterexample", "dichotomy"):
        out = tmp_path / sub
        rc = main([sub, "--theta-profile", profile, "--grid-points", "4096",
                   "--out", str(out)])
        assert rc == 1
        assert not list(out.iterdir())
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "need a decreasing theta profile" in errors[0]
    assert "is a psi profile" in errors[0]


def test_expect_holds_exits_two_on_fails(tmp_path, capsys):
    out = tmp_path / "d"
    rc = main(["dichotomy", "--grid-points", "4096", "--out", str(out),
               "--expect-holds"])
    assert rc == 2
    assert "HOLDS expected" in capsys.readouterr().err
    # the report is still written before the gate fires
    assert (out / "report.json").exists()
    assert _manifest(out)["results"]["verdict"] == "FAILS"


# first runs of the round trip; small grids keep each under a second
_ROUND_TRIPS = {
    "construct": ["construct", "--grid-points", "2048"],
    "verify": ["verify", "--profile", "psi_power"],
    "transform-line": ["transform", "--grid-points", "1024", "--probe", "4",
                       "--seed", "3"],
    "transform-group": ["transform", "--group", "sl2c", "--grid-points",
                        "2048", "--probe", "4"],
    "evolve": ["evolve", "--group", "sl2c", "--grid-points", "2048",
               "--path", "closed", "--t0", "0.7"],
    "counterexample-theta": ["counterexample", "--grid-points", "4096",
                             "--alpha", "0.3"],
    "counterexample-linear": ["counterexample", "--grid-points", "4096",
                              "--mode", "linear-decay"],
    "dichotomy": ["dichotomy", "--grid-points", "4096", "--eta", "0.3"],
    "classify": ["classify", "--profile", "psi_linear"],
}


def _same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("case", sorted(_ROUND_TRIPS))
def test_manifest_config_reruns_the_run(tmp_path, case):
    argv = _ROUND_TRIPS[case]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--out", str(first)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_manifest(first)["config"]))
    assert main([argv[0], "--config", str(config),
                 "--out", str(second)]) == 0
    _same_files(first, second)


def test_group_from_config_matches_group_flag(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"group": "sl2c"}))
    flag, conf = tmp_path / "flag", tmp_path / "conf"
    assert main(["transform", "--group", "sl2c", "--grid-points", "2048",
                 "--out", str(flag)]) == 0
    assert main(["transform", "--config", str(config), "--grid-points",
                 "2048", "--out", str(conf)]) == 0
    _same_files(flag, conf)


_REMOVED_FLAGS = (
    [(sub, ["--seed", "1"]) for sub in ("construct", "verify", "evolve",
                                        "counterexample", "dichotomy",
                                        "classify")]
    + [(sub, ["--expect-holds"]) for sub in ("transform", "evolve",
                                             "classify")]
    + [(sub, [flag, "3"]) for sub in ("verify", "classify")
       for flag in ("--grid-points", "--grid-radius")])


@pytest.mark.parametrize("sub,flags", _REMOVED_FLAGS,
                         ids=[f"{sub}{flags[0]}" for sub, flags in
                              _REMOVED_FLAGS])
def test_removed_flags_are_usage_errors(tmp_path, sub, flags):
    with pytest.raises(SystemExit) as exc:
        main([sub, *flags, "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert not (tmp_path / "out").exists()


_UNREAD_CONFIGS = [
    ("construct", {"initial": {"name": "gaussian"}, "probe": 3},
     "config initial.name, config probe"),
    ("construct", {"group": "sl2c"}, "config group"),
    ("construct", {"seed": 1}, "config seed"),
    ("verify", {"grid": {"points": 4096}}, "config grid.points"),
    ("transform", {"profile": {"params": {"exponent": 0.5}}},
     "config profile.params.exponent"),
    ("transform", {"windows": {"count": 3}}, "config windows.count"),
    ("evolve", {"probe": 3}, "config probe"),
    ("evolve", {"counterexample": {"t0": 1.0}}, "config counterexample.t0"),
    ("counterexample", {"windows": {"xi0": 64.0}}, "config windows.xi0"),
    ("counterexample", {"group": "sl2c"}, "config group"),
    ("counterexample", {"schrodinger": {"t0": 1.0}},
     "config schrodinger.t0"),
    ("counterexample", {"counterexample": {"mode": "linear-decay",
                                           "theta": "theta_log"}},
     "config counterexample.theta"),
    ("dichotomy", {"windows": {"xi0": 64.0}}, "config windows.xi0"),
    ("dichotomy", {"counterexample": {"mode": "theta-decay"}},
     "config counterexample.mode"),
    ("classify", {"grid": {"radius": 16.0}}, "config grid.radius"),
    ("classify", {"windows": {"slack": 0.5}}, "config windows.slack"),
]


@pytest.mark.parametrize("sub,config,named", _UNREAD_CONFIGS,
                         ids=[f"{sub}-{named.replace('config ', '').replace(', ', '+')}"
                              for sub, _, named in _UNREAD_CONFIGS])
def test_unread_config_entries_are_refused(tmp_path, capsys, sub, config,
                                           named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([sub, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: not read by this run: {named}\n"
    assert not list(out.iterdir())


def test_theta_profile_is_refused_in_linear_mode(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["counterexample", "--mode", "linear-decay", "--theta-profile",
               "theta_log_sq", "--out", str(out)])
    assert rc == 1
    assert "not read by this run: --theta-profile" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_window_start_is_not_a_config_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"windows": {"start": 3.0}}))
    rc = main(["counterexample", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "'start' was unexpected" in capsys.readouterr().err
