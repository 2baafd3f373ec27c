"""End-to-end runs of the command-line driver, in process."""
import filecmp
import json

import pytest

from inghamlab.cli import main


def _manifest(out_dir):
    with open(out_dir / "manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_a_parse_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


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


def test_group_transform_uses_half_step_grid(tmp_path):
    out = tmp_path / "t"
    rc = main(["transform", "--group", "sl2c", "--initial", "gaussian",
               "--grid-points", "2048", "--out", str(out)])
    assert rc == 0
    m = _manifest(out)
    assert m["config"]["group"] == "sl2c"
    assert m["config"]["grid"] == {"radius": 32.0, "points": 2048,
                                   "offset": True}


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


def test_expect_holds_exits_two_on_fails(tmp_path, capsys):
    out = tmp_path / "d"
    rc = main(["dichotomy", "--grid-points", "4096", "--out", str(out),
               "--expect-holds"])
    assert rc == 2
    assert "HOLDS expected" in capsys.readouterr().err
    # the report is still written before the gate fires
    assert (out / "report.json").exists()
    assert _manifest(out)["results"]["verdict"] == "FAILS"
