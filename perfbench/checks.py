"""Reference checks for each op's outputs.

Nothing here imports ``inghamlab``: every reference is recomputed from
the op's parameters or its written artifacts with plain numpy, so a
defect in the path under test cannot cancel out of the comparison.
Each check returns the raw deviation it measured, keyed by the layer
metric it feeds, and a failure reason when a tolerance or an expected
verdict is missed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad

# grids the CLI uses by default: (radius, points, offset)
LINE_GRID = (64.0, 2 ** 14, False)
GROUP_GRID = (32.0, 2 ** 14, True)

# the rank-one model behind --group sl2c: root 2, |H|_B = 4|H|
SL2C_RHO = 2.0
SL2C_B = 4.0

# tolerances, fixed from the accuracy the paths are documented to reach
CLOSED_VS_SPECTRAL_TOL = 1e-8
# the witness bump's transform decays only like exp(-sqrt(xi)), so the
# closed form's direct sum aliases it: at the default grid the narrowest
# bump drawn (beta = 0.15, t0 = 0.5) is off by up to ~1e-2 relative at
# the 1e-3 fringe, wider bumps by 1e-6 and less
WITNESS_REF_TOL = 5e-2
ORACLE_TOL = 1e-8
L2_TOL = 1e-9
PRODUCT_TOL = 1e-12
NODES_TOL = 1e-9
FLOW_FLOOR = 1e-3
FLOW_PAD = 4
N_REFERENCE_POINTS = 8


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(first column, complex values) of an ``x,re,im`` artifact."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def grid_nodes(radius: float, n: int, offset: bool) -> tuple[np.ndarray, float]:
    h = 2.0 * radius / n
    return -radius + (np.arange(n) + (0.5 if offset else 0.0)) * h, h


def _gauss(x, center, width):
    z = (x - center) / width
    return np.exp(-0.5 * z * z)


def _hermite(order: int, z: np.ndarray) -> np.ndarray:
    # physicists' recursion H_{k+1} = 2 z H_k - 2 k H_{k-1}
    prev, cur = np.zeros_like(z), np.ones_like(z)
    for k in range(order):
        prev, cur = cur, 2.0 * z * cur - 2.0 * k * prev
    return cur


def initial_profile(name: str, params: dict, x: np.ndarray) -> np.ndarray:
    """The stock initial profiles, written out from their formulas."""
    p = dict(params)
    if name == "gaussian":
        return _gauss(x, p.get("center", 0.0), p.get("width", 1.0)) + 0j
    if name == "gaussian-hermite":
        w = p.get("width", 1.0)
        z = x / w
        return _hermite(int(p.get("order", 1)), z) * np.exp(-0.5 * z * z) + 0j
    if name == "modulated":
        return (np.exp(1j * p.get("freq", 4.0) * x)
                * _gauss(x, p.get("center", 0.0), p.get("width", 1.0)))
    if name == "gaussian-pair":
        s, w = p.get("separation", 4.0), p.get("width", 1.0)
        return _gauss(x, -0.5 * s, w) + _gauss(x, 0.5 * s, w) + 0j
    if name == "bump":
        lo, hi = p["lo"], p["hi"]
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        y = (x - mid) / half
        out = np.zeros_like(x)
        inside = np.abs(y) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2)) / (_unit_bump_mass() * half)
        return out + 0j
    raise ValueError(f"no reference for initial profile {name!r}")


def _flow(values: np.ndarray, h: float, multiplier) -> np.ndarray:
    # zero padding to four times the box keeps the periodic images of a
    # spreading solution away from the nodes that are compared
    n = values.size
    start = (FLOW_PAD - 1) * n // 2
    padded = np.zeros(FLOW_PAD * n, dtype=complex)
    padded[start:start + n] = values
    k = 2.0 * np.pi * np.fft.fftfreq(padded.size, d=h)
    return np.fft.ifft(np.fft.fft(padded) * multiplier(k))[start:start + n]


def line_flow(f: np.ndarray, h: float, t: float) -> np.ndarray:
    """Free flow i u_t = -u'' on the periodic grid, by FFT."""
    return _flow(f, h, lambda k: np.exp(-1j * t * k * k))


def group_flow(H: np.ndarray, f: np.ndarray, h: float, t: float) -> np.ndarray:
    """sl2c flow of the Weyl average of f, on a half-step symmetric grid.

    u phi evolves by the Euclidean multiplier shifted by |rho|_B^2, with
    phi(H) = 2 sinh(rho H) and the dual norm |lambda| / b.
    """
    phi = 2.0 * np.sinh(SL2C_RHO * H)
    g = 0.5 * (f + f[::-1]) * phi
    shift = (SL2C_RHO / SL2C_B) ** 2
    return _flow(g, h, lambda k: np.exp(-1j * t * (k * k / SL2C_B ** 2 + shift))) / phi


def _unit_bump_mass() -> float:
    mass, _ = quad(lambda y: math.exp(-1.0 / (1.0 - y * y)), -1.0, 1.0,
                   epsabs=1e-14, epsrel=1e-13)
    return mass


def witness_solution_at(H, alpha: float, eta: float, t0: float) -> np.ndarray:
    """The sl2c witness solution at nodes H, by quadrature of the bump.

    The witness data makes u phi a chirp times the sine transform of a
    unit-mass bump on [beta/2, beta], beta = 1 - alpha - eta, so

        u phi (H) = C |t|^(-1/2) exp(-i t |rho|_B^2 + i b^2 H^2 / 4t)
                    * (-2i) int h(s) sin(2 t s xi) ds,   xi = b^2 H / 2t,

    with the analytic constant C = b / (2 sqrt(pi)) exp(-i sign(t) pi/4).
    Each value is one ``quad(weight='sin')`` call: no grid, no FFT.
    """
    beta = 1.0 - alpha - eta
    lo, hi = 0.5 * beta, beta
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    scale = 1.0 / (_unit_bump_mass() * half)

    def bump(s):
        y = (s - mid) / half
        return scale * math.exp(-1.0 / (1.0 - y * y)) if abs(y) < 1.0 else 0.0

    b, t = SL2C_B, t0
    const = b / (2.0 * math.sqrt(math.pi)) * np.exp(-1j * math.copysign(math.pi / 4.0, t))
    out = []
    for x in np.asarray(H, dtype=float):
        xi = b * b * x / (2.0 * t)
        sine, _ = quad(bump, lo, hi, weight="sin", wvar=2.0 * t * xi,
                       epsabs=1e-15, epsrel=1e-12, limit=200)
        u_phi = (const * abs(t) ** -0.5
                 * np.exp(-1j * t * (SL2C_RHO / b) ** 2 + 1j * b * b * x * x / (4.0 * t))
                 * (-2j) * sine)
        out.append(u_phi / (2.0 * math.sinh(SL2C_RHO * x)))
    return np.array(out)


def flow_dev(u: np.ndarray, ref: np.ndarray) -> float:
    """Largest relative deviation over nodes where |ref| >= 1e-3 of its peak."""
    mag = np.abs(ref)
    keep = mag >= FLOW_FLOOR * float(np.max(mag))
    return float(np.max(np.abs(u[keep] - ref[keep]) / mag[keep]))


def l2(values: np.ndarray, h: float) -> float:
    return math.sqrt(h * math.fsum(np.abs(values) ** 2))


def line_transform_at(x, f, h, xi) -> np.ndarray:
    """h * sum f(x) exp(-i x xi), one frequency at a time."""
    return np.array([h * np.sum(f * np.exp(-1j * x * v)) for v in xi])


def spherical_transform_at(H, f, h, lam) -> np.ndarray:
    """h * sum f phi_lambda phi^2 for sl2c, in the closed form

    phi_lambda phi^2 = 4 rho sin(lambda H) sinh(rho H) / lambda.
    """
    out = []
    for v in lam:
        kern = np.sin(v * H) / v if v != 0.0 else H
        out.append(h * np.sum(f * 4.0 * SL2C_RHO * kern * np.sinh(SL2C_RHO * H)))
    return np.array(out)


def sinc_product(half_widths, xi: float) -> float:
    """prod sin(a xi) / (a xi), plain float loop; the empty product is 1."""
    out = 1.0
    for a in half_widths:
        z = a * xi
        out *= 1.0 if z == 0.0 else math.sin(z) / z
    return out


# ---- per-kind checks ---------------------------------------------------

def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _manifest(out: Path) -> dict:
    manifest = read_json(out / "manifest.json")
    for name in manifest["outputs"]:
        _require((out / name).is_file(), f"manifest lists missing {name}")
    return manifest


def _nodes_match(x: np.ndarray, nodes: np.ndarray):
    _require(x.size == nodes.size and float(np.max(np.abs(x - nodes))) <= NODES_TOL,
             "artifact nodes differ from the default grid")


def _picks(rng, size: int) -> list[int]:
    return sorted(rng.sample(range(size), N_REFERENCE_POINTS))


def _check_counterexample(op, out, rng, devs):
    results = _manifest(out)["results"]
    _require(results["verdict"] == op.expect["verdict"]
             and results["companion_verdict"] == op.expect["companion_verdict"],
             f"verdicts {results['verdict']}/{results['companion_verdict']}")
    H, u = read_csv(out / "solution.csv")
    _nodes_match(H, grid_nodes(*GROUP_GRID)[0])
    mag = np.abs(u)
    keep = mag >= FLOW_FLOOR * float(np.max(mag))
    ref = witness_solution_at(H[keep], *op.expect["params"])
    devs["counterexample.witness_ref_dev"] = float(
        np.max(np.abs(u[keep] - ref) / np.abs(ref)))


def _check_dichotomy(op, out, rng, devs):
    results = _manifest(out)["results"]
    _require(results["verdict"] == op.expect["verdict"],
             f"verdict {results['verdict']}")


def _initial_on_grid(op):
    nodes, h = grid_nodes(*(GROUP_GRID if op.expect["group"] else LINE_GRID))
    name, params = op.expect["initial"]
    return nodes, h, initial_profile(name, params, nodes)


def _check_evolve_closed(op, out, rng, devs):
    _manifest(out)
    nodes, h, f = _initial_on_grid(op)
    x, u = read_csv(out / "solution.csv")
    _nodes_match(x, nodes)
    flow = group_flow if op.expect["group"] else (
        lambda H, f, h, t: line_flow(f, h, t))
    devs["schrodinger.closed_vs_spectral_dev"] = flow_dev(
        u, flow(nodes, f, h, op.expect["t0"]))


def _check_evolve_spectral(op, out, rng, devs):
    _manifest(out)
    nodes, h, f = _initial_on_grid(op)
    x, u = read_csv(out / "solution.csv")
    _nodes_match(x, nodes)
    if op.expect["group"]:
        # the conserved norm is that of u phi, for the Weyl average of f
        phi = 2.0 * np.sinh(SL2C_RHO * nodes)
        before, after = l2(0.5 * (f + f[::-1]) * phi, h), l2(u * phi, h)
    else:
        before, after = l2(f, h), l2(u, h)
    devs["schrodinger.l2_conservation_dev"] = abs(after - before) / before


def _check_transform(op, out, rng, devs):
    results = _manifest(out)["results"]
    nodes, h, f = _initial_on_grid(op)
    xi, F = read_csv(out / "spectrum.csv")
    idx = _picks(rng, xi.size)
    at = spherical_transform_at if op.expect["group"] else line_transform_at
    ref = at(nodes, f, h, xi[idx])
    own = float(np.max(np.abs(F[idx] - ref)) / np.max(np.abs(F)))
    key = "groups.oracle_dev" if op.expect["group"] else "fourier.oracle_dev"
    devs[key] = max(own, float(results["probe_max_rel_dev"]))


def _check_certificate(op, out, rng, devs):
    results = _manifest(out)["results"]
    _require(results["certificate_verdict"] == op.expect["verdict"],
             f"certificate {results['certificate_verdict']}")
    spec = read_json(out / "spec.json")
    a = spec["half_widths"]
    lo, hi = op.expect["n_factors"]
    _require(lo <= len(a) <= hi, f"{len(a)} factors")
    _require(abs(spec["support_radius"] - math.fsum(a)) <= 1e-12 * math.fsum(a),
             "support radius is not the half-width sum")
    if op.argv[0] == "construct":
        xi, P = read_csv(out / "product.csv")
        idx = _picks(rng, xi.size)
        ref = np.array([sinc_product(a, float(xi[i])) for i in idx])
        devs["construct.product_ref_dev"] = float(np.max(np.abs(P[idx] - ref)))


def _check_classify(op, out, rng, devs):
    _manifest(out)
    verdict = read_json(out / "classification.json")["verdict"]
    _require(verdict == op.expect["classification"], f"classified {verdict}")


def _check_refused(op, out, rng, devs):
    _require(not (out / "manifest.json").exists(),
             "refused run still wrote a manifest")


_CHECKS = {
    "counterexample": _check_counterexample,
    "dichotomy": _check_dichotomy,
    "evolve-closed-group": _check_evolve_closed,
    "evolve-closed-line": _check_evolve_closed,
    "evolve-spectral-group": _check_evolve_spectral,
    "evolve-spectral-line": _check_evolve_spectral,
    "transform-group": _check_transform,
    "transform-line": _check_transform,
    "construct-theta_log_sq": _check_certificate,
    "verify-theta_log_sq": _check_certificate,
    "construct-psi_power": _check_certificate,
    "verify-psi_power": _check_certificate,
    "classify": _check_classify,
    "refused": _check_refused,
}

_TOLERANCES = {
    "schrodinger.closed_vs_spectral_dev": CLOSED_VS_SPECTRAL_TOL,
    "counterexample.witness_ref_dev": WITNESS_REF_TOL,
    "schrodinger.l2_conservation_dev": L2_TOL,
    "fourier.oracle_dev": ORACLE_TOL,
    "groups.oracle_dev": ORACLE_TOL,
    "construct.product_ref_dev": PRODUCT_TOL,
}

DEV_METRICS = tuple(_TOLERANCES)


def check(op, rc: int, out: Path, rng) -> tuple[dict, str | None]:
    """(deviations, failure reason or None) for one finished op."""
    devs: dict = {}
    if rc != op.expect["rc"]:
        return devs, f"exit code {rc}, expected {op.expect['rc']}"
    try:
        _CHECKS[op.kind](op, out, rng, devs)
    except CheckFailed as exc:
        return devs, str(exc)
    for key, value in devs.items():
        if not value <= _TOLERANCES[key]:
            return devs, f"{key} = {value:.3g} exceeds {_TOLERANCES[key]:g}"
    return devs, None
