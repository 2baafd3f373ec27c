"""Command-line experiment driver: every pipeline as a subcommand.

Runs are deterministic for a fixed config: CSV cells use shortest
roundtrip float repr, manifests are canonical JSON keyed by a config
digest, and nothing records wall-clock time.  Exit codes: 0 success,
2 when --expect-holds is given and the verdict is FAILS, 1 on errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import jsonschema
import numpy as np

from . import construct, initialdata, io, profiles
from .counterexample import (MODE_LINEAR, MODE_THETA, CounterexampleParams,
                             build_initial_data, run_pipeline,
                             theorem_dichotomy_experiment)
from .envelopes import HOLDS
from .fourier import fourier_transform, fourier_transform_direct, l2_norm
from .grids import Grid, SampledFunction, SpectralFunction
from .groups import (phi_weight, preset, spherical_transform_direct,
                     spherical_transform_reduced)
from .schrodinger import (SchrodingerParams, evolve_closed_form,
                          evolve_group_closed_form, evolve_group_spectral,
                          evolve_spectral)

_NUMERIC = {"type": "number"}
_PARAMS_OBJ = {"type": "object",
               "additionalProperties": {"type": ["number", "integer"]}}
_NAMED = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"name": {"type": "string"}, "params": _PARAMS_OBJ},
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "points": {"type": "integer", "minimum": 2},
                "offset": {"type": "boolean"},
            },
        },
        "group": {"type": "string"},
        "profile": _NAMED,
        "initial": _NAMED,
        "schrodinger": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t0": _NUMERIC,
                "c": _NUMERIC,
                "path": {"enum": ["spectral", "closed"]},
            },
        },
        "counterexample": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": _NUMERIC,
                "eta": _NUMERIC,
                "beta_prime": _NUMERIC,
                "t0": _NUMERIC,
                "mode": {"enum": [MODE_THETA, MODE_LINEAR]},
                "theta": {"type": "string"},
            },
        },
        "windows": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "xi0": _NUMERIC,
                "start": _NUMERIC,
                "count": {"type": "integer", "minimum": 2},
                "slack": _NUMERIC,
            },
        },
        "probe": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
    },
}

# per-subcommand (radius, points, offset); group runs override below
_GRID_DEFAULTS = {
    "construct": (16.0, 4096, False),
    "verify": (16.0, 4096, False),
    "transform": (64.0, 2 ** 14, False),
    "evolve": (64.0, 2 ** 14, False),
    "counterexample": (32.0, 2 ** 14, True),
    "dichotomy": (32.0, 2 ** 14, True),
    "classify": (16.0, 4096, False),
}
_GROUP_GRID_DEFAULT = (32.0, 2 ** 14, True)

_CERT_SLACK_DEFAULT = 0.5
_ENVELOPE_SLACK_DEFAULT = 0.10


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    jsonschema.validate(config, CONFIG_SCHEMA)
    return config


def _dig(config, *keys):
    node = config
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _pick(*candidates):
    for value in candidates:
        if value is not None:
            return value
    return None


def _build_grid(args, config):
    base = _GRID_DEFAULTS[args.subcommand]
    if getattr(args, "group", None):
        base = _GROUP_GRID_DEFAULT
    radius = float(_pick(args.grid_radius, _dig(config, "grid", "radius"),
                         base[0]))
    points = int(_pick(args.grid_points, _dig(config, "grid", "points"),
                       base[1]))
    offset = bool(_pick(_dig(config, "grid", "offset"), base[2]))
    return Grid.symmetric(radius, points, offset=offset)


def _grid_dict(grid):
    return {"radius": grid.x_max, "points": grid.n_points,
            "offset": grid.offset}


def _initial_function(args, config, grid):
    name = _pick(getattr(args, "initial", None),
                 _dig(config, "initial", "name"), "gaussian")
    params = _dig(config, "initial", "params") or {}
    func = initialdata.profile_from_config(name, params)
    return SampledFunction.from_callable(grid, func, label=name), name, params


def _named_profile(args, config, default):
    name = _pick(getattr(args, "profile", None),
                 _dig(config, "profile", "name"), default)
    params = _dig(config, "profile", "params") or {}
    return profiles.profile_from_config(name, params), name, params


def _windows(config, *, slack_default):
    return {
        "xi0": float(_pick(_dig(config, "windows", "xi0"), 64.0)),
        "start": _dig(config, "windows", "start"),
        "count": int(_pick(_dig(config, "windows", "count"), 3)),
        "slack": float(_pick(_dig(config, "windows", "slack"), slack_default)),
    }


def _spec_and_psi(profile):
    if profile.kind is profiles.ProfileKind.THETA_DECREASING:
        return (construct.spec_from_theta(profile),
                profiles.psi_from_theta(profile))
    return construct.spec_from_psi(profile), profile


def _run_construct(args, config, out):
    profile, name, params = _named_profile(args, config, "theta_log_sq")
    windows = _windows(config, slack_default=_CERT_SLACK_DEFAULT)
    grid = _build_grid(args, config)
    spec, psi = _spec_and_psi(profile)
    realized = construct.realize_function(spec, grid)
    outside, total = construct.support_mass_fractions(realized,
                                                      spec.support_radius)
    leak = outside / total if total > 0 else 0.0
    cert = construct.decay_certificate(spec, psi, xi0=windows["xi0"],
                                       n_windows=windows["count"],
                                       slack=windows["slack"])
    product = SpectralFunction(grid.dual_frequencies(),
                               construct.evaluate_product_fourier(
                                   spec, grid.dual_frequencies()),
                               label=name)
    io.write_samples_csv(out / "realized.csv", realized)
    io.write_spectrum_csv(out / "product.csv", product)
    io.write_json(out / "spec.json", spec.to_json_dict())
    io.write_json(out / "certificate.json", cert.to_json_dict())
    results = {
        "n_factors": spec.n_factors,
        "support_radius": spec.support_radius,
        "leak_fraction": leak,
        "certificate_verdict": cert.verdict,
    }
    effective = {"profile": {"name": name, "params": params},
                 "grid": _grid_dict(grid), "windows": windows}
    outputs = ["realized.csv", "product.csv", "spec.json", "certificate.json"]
    print(f"[construct] {name}: {spec.n_factors} factors, support radius "
          f"{spec.support_radius:.6f}, leak {leak:.2e}, certificate "
          f"{cert.verdict}")
    return results, effective, outputs, cert.verdict


def _run_verify(args, config, out):
    profile, name, params = _named_profile(args, config, "theta_log_sq")
    windows = _windows(config, slack_default=_CERT_SLACK_DEFAULT)
    spec, psi = _spec_and_psi(profile)
    cert = construct.decay_certificate(spec, psi, xi0=windows["xi0"],
                                       n_windows=windows["count"],
                                       slack=windows["slack"])
    io.write_json(out / "spec.json", spec.to_json_dict())
    io.write_json(out / "certificate.json", cert.to_json_dict())
    results = {"certificate_verdict": cert.verdict,
               "constants": [float(c) for c in cert.constants]}
    effective = {"profile": {"name": name, "params": params},
                 "windows": windows}
    print(f"[verify] {name}: certificate {cert.verdict}, constants "
          + ", ".join(f"{c:.6g}" for c in cert.constants))
    return results, effective, ["spec.json", "certificate.json"], cert.verdict


def _probe_frequencies(rng, xi, count):
    take = min(count, xi.size)
    idx = np.sort(rng.choice(xi.size, size=take, replace=False))
    return idx


def _run_transform(args, config, out):
    grid = _build_grid(args, config)
    f, name, params = _initial_function(args, config, grid)
    probe = int(_pick(args.probe, _dig(config, "probe"), 0))
    seed = int(_pick(args.seed, _dig(config, "seed"), 0))
    results = {}
    if args.group:
        G = preset(args.group)
        fast = partial(spherical_transform_reduced, G)
        oracle = partial(spherical_transform_direct, G)
        # |phi_lambda| <= 1, so h * sum |f| phi**2 bounds every |F(lambda)|
        weight = phi_weight(G, grid.nodes) ** 2
    else:
        fast, oracle, weight = fourier_transform, fourier_transform_direct, 1.0
    spectrum = fast(f)
    if probe:
        rng = np.random.default_rng(seed)
        idx = _probe_frequencies(rng, spectrum.xi_values, probe)
        direct = oracle(f, spectrum.xi_values[idx])
        # data whose transform vanishes (odd data on the group) is
        # measured against the a-priori bound instead of max |F| = 0
        scale = (float(np.max(np.abs(spectrum.values)))
                 or float(grid.step * np.sum(np.abs(f.values) * weight)))
        results["probe_max_rel_dev"] = float(
            np.max(np.abs(direct.values - spectrum.values[idx])) / scale)
    io.write_spectrum_csv(out / "spectrum.csv", spectrum)
    results["n_frequencies"] = int(spectrum.xi_values.size)
    effective = {"initial": {"name": name, "params": params},
                 "grid": _grid_dict(grid), "probe": probe, "seed": seed}
    if args.group:
        effective["group"] = args.group
    dev = results.get("probe_max_rel_dev")
    extra = "" if dev is None else f", probe dev {dev:.2e}"
    print(f"[transform] {name}: {spectrum.xi_values.size} frequencies{extra}")
    return results, effective, ["spectrum.csv"], None


def _run_evolve(args, config, out):
    grid = _build_grid(args, config)
    f, name, init_params = _initial_function(args, config, grid)
    t0 = float(_pick(args.t0, _dig(config, "schrodinger", "t0"), 1.0))
    c = float(_pick(args.c, _dig(config, "schrodinger", "c"), 0.0))
    path = _pick(args.path, _dig(config, "schrodinger", "path"), "spectral")
    params = SchrodingerParams(t0=t0, c=c)
    if args.group:
        G = preset(args.group)
        if path == "closed":
            u = evolve_group_closed_form(G, f, params)
        else:
            u = evolve_group_spectral(G, f, params)
    else:
        u = evolve_closed_form(f, params) if path == "closed" \
            else evolve_spectral(f, params)
    io.write_samples_csv(out / "solution.csv", u)
    results = {"l2_initial": l2_norm(f), "l2_solution": l2_norm(u)}
    effective = {"initial": {"name": name, "params": init_params},
                 "grid": _grid_dict(grid),
                 "schrodinger": {"t0": t0, "c": c, "path": path}}
    if args.group:
        effective["group"] = args.group
    print(f"[evolve] {name} by t0={t0:g} ({path}): l2 {results['l2_initial']:.6f} "
          f"-> {results['l2_solution']:.6f}")
    return results, effective, ["solution.csv"], None


def _counterexample_params(args, config):
    alpha = float(_pick(args.alpha, _dig(config, "counterexample", "alpha"),
                        0.5))
    eta = float(_pick(args.eta, _dig(config, "counterexample", "eta"), 0.25))
    t0 = float(_pick(args.t0, _dig(config, "counterexample", "t0"), 1.0))
    beta_prime = _pick(args.beta_prime,
                       _dig(config, "counterexample", "beta_prime"))
    return CounterexampleParams(alpha=alpha, eta=eta, t0=t0,
                                beta_prime=beta_prime)


def _theta_profile(args, config):
    name = _pick(getattr(args, "theta_profile", None),
                 _dig(config, "counterexample", "theta"), "theta_log")
    return profiles.profile_from_config(name), name


def _run_counterexample(args, config, out):
    params = _counterexample_params(args, config)
    mode = _pick(args.mode, _dig(config, "counterexample", "mode"),
                 MODE_THETA)
    theta, theta_name = (None, None)
    if mode == MODE_THETA:
        theta, theta_name = _theta_profile(args, config)
    windows = _windows(config, slack_default=_ENVELOPE_SLACK_DEFAULT)
    grid = _build_grid(args, config)
    result = run_pipeline(params, mode, theta=theta, grid=grid,
                          n_windows=windows["count"], slack=windows["slack"])
    io.write_samples_csv(out / "initial.csv", result.initial)
    io.write_samples_csv(out / "solution.csv", result.solution)
    io.write_json(out / "report.json", result.to_json_dict())
    results = {
        "verdict": result.report.verdict,
        "companion_verdict": result.companion.verdict,
        "growth_factor": result.report.growth_factor,
        "companion_growth_factor": result.companion.growth_factor,
    }
    effective = {
        "counterexample": {**params.to_json_dict(), "mode": mode,
                           "theta": theta_name},
        "grid": _grid_dict(grid), "windows": windows,
    }
    outputs = ["initial.csv", "solution.csv", "report.json"]
    print(f"[counterexample] mode {mode}, alpha={params.alpha:g}, "
          f"eta={params.eta:g}: {result.report.verdict} "
          f"(full-weight companion: {result.companion.verdict})")
    return results, effective, outputs, result.report.verdict


def _run_dichotomy(args, config, out):
    params = _counterexample_params(args, config)
    theta, theta_name = _theta_profile(args, config)
    windows = _windows(config, slack_default=_ENVELOPE_SLACK_DEFAULT)
    grid = _build_grid(args, config)
    G = preset(args.group or "sl2c")
    f = build_initial_data(params, G, grid)
    report = theorem_dichotomy_experiment(
        G, theta, f, params.t0, n_windows=windows["count"],
        slack=windows["slack"])
    io.write_json(out / "report.json", report.to_json_dict())
    results = {
        "verdict": report.verdict,
        "growth_factor": report.growth_factor,
        "monotone_growth": report.monotone_growth,
        "constants": [float(c) for c in report.constants],
    }
    effective = {
        "counterexample": {**params.to_json_dict(), "theta": theta_name},
        "grid": _grid_dict(grid), "windows": windows,
        "group": G.name,
    }
    print(f"[dichotomy] theta={theta_name}: {report.verdict}, window "
          f"constants grow x{report.growth_factor:.3g}")
    return results, effective, ["report.json"], report.verdict


def _run_classify(args, config, out):
    profile, name, params = _named_profile(args, config, "theta_log")
    diagnostics = profiles.classify_integral(profile)
    io.write_json(out / "classification.json", diagnostics.to_json_dict())
    results = {"verdict": diagnostics.verdict,
               "tail_exponent": diagnostics.tail_exponent}
    effective = {"profile": {"name": name, "params": params}}
    print(f"[classify] {name}: {diagnostics.verdict} "
          f"(tail exponent {diagnostics.tail_exponent:.3f})")
    return results, effective, ["classification.json"], None


_RUNNERS = {
    "construct": _run_construct,
    "transform": _run_transform,
    "evolve": _run_evolve,
    "verify": _run_verify,
    "counterexample": _run_counterexample,
    "dichotomy": _run_dichotomy,
    "classify": _run_classify,
}


def _common_flags(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--grid-points", type=int, default=None)
    sub.add_argument("--grid-radius", type=float, default=None)
    sub.add_argument("--expect-holds", action="store_true",
                     help="exit 2 unless the verdict is HOLDS")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for randomized probe selection")


def _witness_flags(sub):
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--eta", type=float, default=None)
    sub.add_argument("--t0", type=float, default=None)
    sub.add_argument("--beta-prime", type=float, default=None)
    sub.add_argument("--theta-profile", help="theta profile name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inghamlab",
        description="decay-envelope and Schrodinger-flow experiments")
    subs = parser.add_subparsers(dest="subcommand")

    p = subs.add_parser("construct", help="build and realize a sinc product")
    p.add_argument("--profile", help="decay profile name")
    _common_flags(p)

    p = subs.add_parser("transform", help="Fourier or spherical transform")
    p.add_argument("--initial", help="initial profile name")
    p.add_argument("--group", help="group preset (spherical transform)")
    p.add_argument("--probe", type=int, default=None,
                   help="check N frequencies against the direct oracle")
    _common_flags(p)

    p = subs.add_parser("evolve", help="run the Schrodinger flow")
    p.add_argument("--initial", help="initial profile name")
    p.add_argument("--group", help="group preset (model-space flow)")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--path", choices=["spectral", "closed"], default=None)
    _common_flags(p)

    p = subs.add_parser("verify", help="decay certificate for a sinc product")
    p.add_argument("--profile", help="decay profile name")
    _common_flags(p)

    p = subs.add_parser("counterexample",
                        help="witness pipeline with envelope verdicts")
    _witness_flags(p)
    p.add_argument("--mode", choices=[MODE_THETA, MODE_LINEAR], default=None)
    _common_flags(p)

    p = subs.add_parser("dichotomy",
                        help="full-weight envelope on nonzero data")
    _witness_flags(p)
    p.add_argument("--group", help="group preset")
    _common_flags(p)

    p = subs.add_parser("classify", help="integral growth diagnostics")
    p.add_argument("--profile", help="decay profile name")
    _common_flags(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except jsonschema.ValidationError as exc:
        print(f"error: config rejected: {exc.message}", file=sys.stderr)
        return 1

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        results, effective, outputs, verdict = _RUNNERS[args.subcommand](
            args, config, out)
        effective["subcommand"] = args.subcommand
        manifest = io.build_manifest(args.subcommand, effective, results,
                                     outputs)
        io.write_json(out / "manifest.json", manifest)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1

    if args.expect_holds and verdict is not None and verdict != HOLDS:
        print(f"verdict {verdict} but HOLDS expected", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
