"""Command-line experiment driver: every pipeline as a subcommand.

Runs are deterministic for a fixed config: CSV cells use shortest
roundtrip float repr, manifests are canonical JSON keyed by a config
digest, and nothing records wall-clock time.  Every option resolves
flag -> config -> default before any work starts, and the manifest's
config holds exactly the resolved values, so it reruns the same run.
Exit codes: 0 success, 2 when --expect-holds is given and the verdict
is not HOLDS, 1 on errors, usage errors and unread input included.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
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
from .groups import (DEFAULT_GRID, phi_weight, preset,
                     spherical_transform_direct, spherical_transform_reduced,
                     symmetrize)
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
                "points": {"type": "integer", "minimum": 2,
                           "maximum": 2 ** 22},
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
                "count": {"type": "integer", "minimum": 2},
                "slack": _NUMERIC,
            },
        },
        "probe": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
    },
}

# (radius, points, offset); group runs use groups.DEFAULT_GRID
_CERT_GRID = (16.0, 4096, False)
_LINE_GRID = (64.0, 2 ** 14, False)

_CERT_SLACK_DEFAULT = 0.5
_ENVELOPE_SLACK_DEFAULT = 0.10


_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def _check_schema(config: dict) -> None:
    """Refuse ``config`` with the error ``jsonschema.validate`` would pick."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ValueError(f"config rejected: {error.message}")


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    _check_schema(config)
    return config


class _Options:
    """The options of one run, each resolved flag -> config -> default.

    ``get`` records every value it returns, None aside, under its config
    path, and refuses a record that breaks ``CONFIG_SCHEMA``; the records
    are the run's manifest config.  ``seal`` ends
    resolution and refuses any given flag or config entry that no ``get``
    read, so a manifest never lists an input that the run ignored.
    """

    def __init__(self, flags: dict, config: dict):
        self._flags = flags  # config path -> (flag, value or None)
        self._config = config
        self._read = set()
        self._sealed = False
        self.record = {}

    def get(self, path: str, default=None, kind=None):
        if self._sealed:
            raise RuntimeError(f"option {path} read after resolution ended")
        self._read.add(path)
        keys = path.split(".")
        value = self._flags.get(path, (None, None))[1]
        if value is None:
            value = self._config
            for key in keys:
                value = None if value is None else value.get(key)
        if value is None:
            value = default
        if value is None:
            return None
        if kind is not None:
            value = kind(value)
        node = self.record
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
        _check_schema(self.record)  # flags meet the config's bounds too
        return value

    def seal(self) -> None:
        self._sealed = True
        unread = [flag for path, (flag, value) in self._flags.items()
                  if value is not None and path not in self._read]
        unread += [f"config {path}"
                   for path in _entries(self._config, self._read)]
        if unread:
            raise ValueError("not read by this run: " + ", ".join(unread))


def _entries(node: dict, read: set, prefix: str = ""):
    """Config paths under ``node`` that no read path covers."""
    for key, value in node.items():
        path = prefix + key
        if path in read:
            continue
        if isinstance(value, dict):
            yield from _entries(value, read, path + ".")
        else:
            yield path


def _grid(opts, default):
    radius, points, offset = default
    return Grid.symmetric(opts.get("grid.radius", radius, float),
                          opts.get("grid.points", points, int),
                          opts.get("grid.offset", offset, bool))


def _named(opts, key, default):
    return opts.get(f"{key}.name", default), opts.get(f"{key}.params", {})


def _windows(opts, slack):
    return {"n_windows": opts.get("windows.count", 3, int),
            "slack": opts.get("windows.slack", slack, float)}


def _cert_options(opts):
    name, params = _named(opts, "profile", "theta_log_sq")
    windows = {"xi0": opts.get("windows.xi0", 64.0, float),
               **_windows(opts, _CERT_SLACK_DEFAULT)}
    return name, params, windows


def _witness_params(opts):
    # beta' defaults to the value CounterexampleParams derives, and the
    # manifest records it like any other resolved value
    derived = CounterexampleParams(
        alpha=opts.get("counterexample.alpha", 0.5, float),
        eta=opts.get("counterexample.eta", 0.25, float),
        t0=opts.get("counterexample.t0", 1.0, float))
    return replace(derived, beta_prime=opts.get(
        "counterexample.beta_prime", derived.beta_prime, float))


def _certify(name, params, windows):
    profile = profiles.profile_from_config(name, params)
    if profile.kind is profiles.ProfileKind.THETA_DECREASING:
        spec = construct.spec_from_theta(profile)
        psi = profiles.psi_from_theta(profile)
    else:
        spec, psi = construct.spec_from_psi(profile), profile
    return spec, construct.decay_certificate(spec, psi, **windows)


def _sampled(grid, name, params):
    func = initialdata.profile_from_config(name, params)
    return SampledFunction.from_callable(grid, func, label=name)


def _run_construct(opts, out):
    name, params, windows = _cert_options(opts)
    grid = _grid(opts, _CERT_GRID)
    opts.seal()
    spec, cert = _certify(name, params, windows)
    # one evaluation on the dual grid feeds both realized.csv and product.csv
    xi = grid.dual_frequencies()
    values = construct.evaluate_product_fourier(spec, xi)
    realized = construct.realize_function(spec, grid, values)
    outside, total = construct.support_mass_fractions(realized,
                                                      spec.support_radius)
    leak = outside / total if total > 0 else 0.0
    io.write_samples_csv(out / "realized.csv", realized)
    io.write_spectrum_csv(out / "product.csv",
                          SpectralFunction(xi, values, label=name))
    io.write_json(out / "spec.json", spec.to_json_dict())
    io.write_json(out / "certificate.json", cert.to_json_dict())
    results = {
        "n_factors": spec.n_factors,
        "support_radius": spec.support_radius,
        "leak_fraction": leak,
        "certificate_verdict": cert.verdict,
    }
    outputs = ["realized.csv", "product.csv", "spec.json", "certificate.json"]
    print(f"[construct] {name}: {spec.n_factors} factors, support radius "
          f"{spec.support_radius:.6f}, leak {leak:.2e}, certificate "
          f"{cert.verdict}")
    return results, outputs, cert.verdict


def _run_verify(opts, out):
    name, params, windows = _cert_options(opts)
    opts.seal()
    spec, cert = _certify(name, params, windows)
    io.write_json(out / "spec.json", spec.to_json_dict())
    io.write_json(out / "certificate.json", cert.to_json_dict())
    results = {"certificate_verdict": cert.verdict,
               "constants": [float(c) for c in cert.constants]}
    print(f"[verify] {name}: certificate {cert.verdict}, constants "
          + ", ".join(f"{c:.6g}" for c in cert.constants))
    return results, ["spec.json", "certificate.json"], cert.verdict


def _run_transform(opts, out):
    group = opts.get("group")
    grid = _grid(opts, DEFAULT_GRID if group else _LINE_GRID)
    name, params = _named(opts, "initial", "gaussian")
    probe = opts.get("probe", 0, int)
    seed = opts.get("seed", 0, int)
    opts.seal()
    f = _sampled(grid, name, params)
    results = {}
    if group:
        G = preset(group)
        fast = partial(spherical_transform_reduced, G)
        oracle = partial(spherical_transform_direct, G)
        # |phi_lambda| <= 1, so h * sum |f| phi**2 bounds every |F(lambda)|
        weight = phi_weight(G, grid.nodes) ** 2
    else:
        fast, oracle, weight = fourier_transform, fourier_transform_direct, 1.0
    spectrum = fast(f)
    if probe:
        n = spectrum.xi_values.size
        idx = np.sort(np.random.default_rng(seed).choice(
            n, size=min(probe, n), replace=False))
        direct = oracle(f, spectrum.xi_values[idx])
        # data whose transform vanishes (odd data on the group) is
        # measured against the a-priori bound instead of max |F| = 0
        scale = (float(np.max(np.abs(spectrum.values)))
                 or float(grid.step * np.sum(np.abs(f.values) * weight)))
        results["probe_max_rel_dev"] = float(
            np.max(np.abs(direct.values - spectrum.values[idx])) / scale)
    io.write_spectrum_csv(out / "spectrum.csv", spectrum)
    results["n_frequencies"] = int(spectrum.xi_values.size)
    dev = results.get("probe_max_rel_dev")
    extra = "" if dev is None else f", probe dev {dev:.2e}"
    print(f"[transform] {name}: {spectrum.xi_values.size} frequencies{extra}")
    return results, ["spectrum.csv"], None


def _run_evolve(opts, out):
    group = opts.get("group")
    grid = _grid(opts, DEFAULT_GRID if group else _LINE_GRID)
    name, init_params = _named(opts, "initial", "gaussian")
    t0 = opts.get("schrodinger.t0", 1.0, float)
    c = opts.get("schrodinger.c", 0.0, float)
    path = opts.get("schrodinger.path", "spectral")
    opts.seal()
    f = _sampled(grid, name, init_params)
    params = SchrodingerParams(t0=t0, c=c)
    if group:
        G = preset(group)
        if path == "closed":
            u = evolve_group_closed_form(G, f, params)
        else:
            u = evolve_group_spectral(G, f, params)
        # the group flow conserves the L2 norm of u phi from f_sym phi
        phi = phi_weight(G, grid.nodes)
        norm = "phi-weighted l2"
        before = l2_norm(f.with_values(symmetrize(f).values * phi))
        after = l2_norm(u.with_values(u.values * phi))
    else:
        u = evolve_closed_form(f, params) if path == "closed" \
            else evolve_spectral(f, params)
        norm, before, after = "l2", l2_norm(f), l2_norm(u)
    io.write_samples_csv(out / "solution.csv", u)
    results = {"l2_initial": before, "l2_solution": after}
    print(f"[evolve] {name} by t0={t0:g} ({path}): {norm} {before:.6f} "
          f"-> {after:.6f}")
    return results, ["solution.csv"], None


def _run_counterexample(opts, out):
    params = _witness_params(opts)
    mode = opts.get("counterexample.mode", MODE_THETA)
    theta_name = (opts.get("counterexample.theta", "theta_log")
                  if mode == MODE_THETA else None)
    windows = _windows(opts, _ENVELOPE_SLACK_DEFAULT)
    grid = _grid(opts, DEFAULT_GRID)
    opts.seal()
    theta = (None if theta_name is None
             else profiles.profile_from_config(theta_name))
    result = run_pipeline(params, mode, theta=theta, grid=grid, **windows)
    io.write_samples_csv(out / "initial.csv", result.initial)
    io.write_samples_csv(out / "solution.csv", result.solution)
    io.write_json(out / "report.json", result.to_json_dict())
    results = {
        "verdict": result.report.verdict,
        "companion_verdict": result.companion.verdict,
        "growth_factor": result.report.growth_factor,
        "companion_growth_factor": result.companion.growth_factor,
    }
    outputs = ["initial.csv", "solution.csv", "report.json"]
    print(f"[counterexample] mode {mode}, alpha={params.alpha:g}, "
          f"eta={params.eta:g}: {result.report.verdict} "
          f"(full-weight companion: {result.companion.verdict})")
    return results, outputs, result.report.verdict


def _run_dichotomy(opts, out):
    params = _witness_params(opts)
    theta_name = opts.get("counterexample.theta", "theta_log")
    windows = _windows(opts, _ENVELOPE_SLACK_DEFAULT)
    group = opts.get("group", "sl2c")
    grid = _grid(opts, DEFAULT_GRID)
    opts.seal()
    G = preset(group)
    f = build_initial_data(params, G, grid)
    report = theorem_dichotomy_experiment(
        G, profiles.profile_from_config(theta_name), f, params.t0, **windows)
    io.write_json(out / "report.json", report.to_json_dict())
    results = {
        "verdict": report.verdict,
        "growth_factor": report.growth_factor,
        "monotone_growth": report.monotone_growth,
        "constants": [float(c) for c in report.constants],
    }
    print(f"[dichotomy] theta={theta_name}: {report.verdict}, window "
          f"constants grow x{report.growth_factor:.3g}")
    return results, ["report.json"], report.verdict


def _run_classify(opts, out):
    name, params = _named(opts, "profile", "theta_log")
    opts.seal()
    diagnostics = profiles.classify_integral(
        profiles.profile_from_config(name, params))
    io.write_json(out / "classification.json", diagnostics.to_json_dict())
    results = {"verdict": diagnostics.verdict,
               "stopped_by": diagnostics.stopped_by}
    print(f"[classify] {name}: {diagnostics.verdict} "
          f"(stopped by {diagnostics.stopped_by})")
    return results, ["classification.json"], None


# flags as (flag, config path, add_argument keywords); --config and --out
# come with every subcommand, --expect-holds with those that give a verdict
_FLOAT = {"type": float}
_PROFILE = ("--profile", "profile.name", {"help": "decay profile name"})
_INITIAL = ("--initial", "initial.name", {"help": "initial profile name"})
_GROUP = ("--group", "group", {"help": "group preset"})
_GRID_FLAGS = (("--grid-points", "grid.points", {"type": int}),
               ("--grid-radius", "grid.radius", _FLOAT))
_WITNESS_FLAGS = (("--alpha", "counterexample.alpha", _FLOAT),
                  ("--eta", "counterexample.eta", _FLOAT),
                  ("--t0", "counterexample.t0", _FLOAT),
                  ("--beta-prime", "counterexample.beta_prime", _FLOAT),
                  ("--theta-profile", "counterexample.theta",
                   {"help": "theta profile name (theta-decay mode)"}))

# name: (runner, help, gives a verdict, flags)
_SUBCOMMANDS = {
    "construct": (_run_construct, "build and realize a sinc product", True,
                  (_PROFILE, *_GRID_FLAGS)),
    "transform": (_run_transform, "Fourier or spherical transform", False,
                  (_INITIAL, _GROUP,
                   ("--probe", "probe", {"type": int, "help": (
                       "check N frequencies against the direct oracle")}),
                   ("--seed", "seed", {"type": int, "help": (
                       "seed for randomized probe selection")}),
                   *_GRID_FLAGS)),
    "evolve": (_run_evolve, "run the Schrodinger flow", False,
               (_INITIAL, _GROUP, ("--t0", "schrodinger.t0", _FLOAT),
                ("--c", "schrodinger.c", _FLOAT),
                ("--path", "schrodinger.path",
                 {"choices": ["spectral", "closed"]}),
                *_GRID_FLAGS)),
    "verify": (_run_verify, "decay certificate for a sinc product", True,
               (_PROFILE,)),
    "counterexample": (_run_counterexample,
                       "witness pipeline with envelope verdicts", True,
                       (*_WITNESS_FLAGS,
                        ("--mode", "counterexample.mode",
                         {"choices": [MODE_THETA, MODE_LINEAR]}),
                        *_GRID_FLAGS)),
    "dichotomy": (_run_dichotomy, "full-weight envelope on nonzero data",
                  True, (*_WITNESS_FLAGS, _GROUP, *_GRID_FLAGS)),
    "classify": (_run_classify, "dyadic convergence test", False,
                 (_PROFILE,)),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other configuration error does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="inghamlab",
        description="decay-envelope and Schrodinger-flow experiments")
    subs = parser.add_subparsers(dest="subcommand")
    for name, (_, help_, verdict, flags) in _SUBCOMMANDS.items():
        p = subs.add_parser(name, help=help_)
        for flag, path, keywords in flags:
            p.add_argument(flag, dest=path, **keywords)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        if verdict:
            p.add_argument("--expect-holds", action="store_true",
                           help="exit 2 unless the verdict is HOLDS")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    runner, _, _, flags = _SUBCOMMANDS[args.subcommand]
    out = Path(args.out)
    try:
        opts = _Options({path: (flag, getattr(args, path))
                         for flag, path, _ in flags},
                        _load_config(args.config))
        out.mkdir(parents=True, exist_ok=True)
        results, outputs, verdict = runner(opts, out)
        manifest = io.build_manifest(args.subcommand, opts.record, results,
                                     outputs)
        io.write_json(out / "manifest.json", manifest)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1

    if getattr(args, "expect_holds", False) and verdict != HOLDS:
        print(f"verdict {verdict} but HOLDS expected", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
