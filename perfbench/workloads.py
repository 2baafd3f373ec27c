"""Seeded op lists for the three benchmark workloads.

An op is one ``inghamlab`` CLI invocation: its argv (without ``--out``),
an optional JSON config written next to its outputs, and what the
reference check expects.  Ops come in blocks of fixed composition whose
order is shuffled by the seed, so every run of a workload sees the same
mix of kinds while parameters and order change with the seed.  The
block composition keeps the latency median and tail inside one cluster
of op costs instead of on the gap between two clusters.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("witness", "certificate", "spectral")

# ops replayed by the traced run: whole leading blocks, so every span
# and count named by the benchmark occurs and the counts repeat exactly
TRACE_BLOCKS = {"witness": 1, "certificate": 2, "spectral": 4}

SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Op:
    """One CLI call and what its check expects.

    ``expect`` holds the reference facts: the exit code, verdicts, and
    the parameters the benchmark needs to recompute outputs itself.
    """

    kind: str
    argv: tuple
    config: dict | None = None
    expect: dict = field(default_factory=dict)


def _r(rng: random.Random, lo: float, hi: float) -> float:
    # rounded so argv and configs carry short, exact decimal values
    return round(rng.uniform(lo, hi), 4)


def _initial(rng: random.Random, *, even: bool, names) -> tuple[str, dict]:
    """A stock initial profile with parameters drawn from ``rng``.

    ``even`` keeps the profile symmetric, which the closed-form group
    flow needs to agree with the spectral flow of the Weyl average.
    """
    name = rng.choice(names)
    width = _r(rng, 0.6, 1.5)
    if name == "gaussian":
        center = 0.0 if even else _r(rng, -2.0, 2.0)
        return name, {"center": center, "width": width}
    if name == "gaussian-hermite":
        order = rng.choice((0, 2)) if even else rng.randrange(4)
        return name, {"order": order, "width": width}
    if name == "modulated":
        return name, {"freq": _r(rng, 1.0, 8.0),
                      "center": _r(rng, -2.0, 2.0), "width": width}
    if name == "gaussian-pair":
        return name, {"separation": _r(rng, 1.0, 6.0), "width": width}
    if name == "bump":
        lo = _r(rng, -3.0, 0.0)
        return name, {"lo": lo, "hi": round(lo + _r(rng, 0.5, 3.0), 4)}
    raise ValueError(f"unknown initial profile {name!r}")


def _t0(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi), 4)


# ---- witness: closed-form flows at the default 2^14-point grid --------

def _witness_weights(rng):
    alpha = _r(rng, 0.0, 0.6)
    return alpha, _r(rng, 0.15, min(0.6, 0.85 - alpha))


def _counterexample(rng):
    mode = rng.choice(("theta-decay", "linear-decay"))
    if mode == "theta-decay":
        alpha, eta = _witness_weights(rng)
    else:
        # the linear-decay witness HOLDS only while eta stays moderate:
        # at the default grid eta = 0.6, or alpha + eta = 0.85 with
        # eta = 0.4, already FAILS
        alpha, eta = _r(rng, 0.0, 0.4), _r(rng, 0.15, 0.35)
    t0 = _r(rng, 0.5, 2.0)
    argv = ("counterexample", "--mode", mode, "--alpha", str(alpha),
            "--eta", str(eta), "--t0", str(t0))
    return Op("counterexample", argv, None,
              {"rc": 0, "verdict": "HOLDS", "companion_verdict": "FAILS",
               "params": [alpha, eta, t0]})


def _dichotomy(rng):
    alpha, eta = _witness_weights(rng)
    t0 = _r(rng, 0.5, 2.0)
    argv = ("dichotomy", "--alpha", str(alpha), "--eta", str(eta),
            "--t0", str(t0))
    return Op("dichotomy", argv, None, {"rc": 0, "verdict": "FAILS"})


def _evolve_closed_group(rng):
    name, params = _initial(rng, even=True,
                            names=("gaussian", "gaussian-hermite",
                                   "gaussian-pair"))
    t0 = _t0(rng, 0.5, 2.0)
    argv = ("evolve", "--group", "sl2c", "--path", "closed", "--t0", str(t0))
    return Op("evolve-closed-group", argv,
              {"initial": {"name": name, "params": params}},
              {"rc": 0, "initial": [name, params], "t0": t0, "group": True})


def _evolve_closed_line(rng):
    name, params = _initial(rng, even=False,
                            names=("gaussian", "modulated", "gaussian-pair"))
    t0 = _t0(rng, 0.5, 2.0)
    argv = ("evolve", "--path", "closed", "--t0", str(t0))
    return Op("evolve-closed-line", argv,
              {"initial": {"name": name, "params": params}},
              {"rc": 0, "initial": [name, params], "t0": t0, "group": False})


# ---- certificate: sinc-product construction at 16/4096 ----------------

def _profile_op(sub, profile, params, expect, kind=None):
    config = {"profile": {"name": profile, "params": params}}
    return Op(kind or f"{sub}-{profile}", (sub,), config, expect)


def _theta_log_sq(sub):
    def make(rng):
        return _profile_op(sub, "theta_log_sq", {},
                           {"rc": 0, "verdict": "HOLDS", "n_factors": [1023, 1023]})
    return make


def _psi_power(sub):
    def make(rng):
        # exponents 0.5..0.8 give schedules of 53..132 factors
        return _profile_op(sub, "psi_power", {"exponent": _r(rng, 0.5, 0.8)},
                           {"rc": 0, "verdict": "HOLDS", "n_factors": [53, 132]})
    return make


_CLASSIFY_CASES = (
    ("theta_log_sq", lambda rng: {}, "LIKELY_CONVERGENT"),
    ("psi_power", lambda rng: {"exponent": _r(rng, 0.5, 0.8)},
     "LIKELY_CONVERGENT"),
    ("theta_log", lambda rng: {}, "LIKELY_DIVERGENT"),
    ("psi_linear", lambda rng: {"slope": _r(rng, 0.5, 2.0)},
     "LIKELY_DIVERGENT"),
)


def _classify(rng):
    profile, params, verdict = rng.choice(_CLASSIFY_CASES)
    return _profile_op("classify", profile, params(rng),
                       {"rc": 0, "classification": verdict}, kind="classify")


def _refused(rng):
    sub = rng.choice(("construct", "verify"))
    profile = rng.choice(("theta_log", "psi_linear"))
    params = {"slope": _r(rng, 0.5, 2.0)} if profile == "psi_linear" else {}
    return _profile_op(sub, profile, params, {"rc": 1}, kind="refused")


# ---- spectral: FFT-dual transforms and flows at 2^14 points -----------

_SPECTRAL_INITIALS = ("gaussian", "gaussian-hermite", "modulated",
                      "gaussian-pair", "bump")


def _spectral_initial(rng, group: bool) -> tuple[str, dict]:
    name, params = _initial(rng, even=False, names=_SPECTRAL_INITIALS)
    if group and name == "gaussian-hermite":
        # odd orders have a zero Weyl average: nothing to transform or evolve
        params = {**params, "order": 2 * (params["order"] // 2)}
    return name, params


def _transform(group):
    def make(rng):
        name, params = _spectral_initial(rng, group)
        probe_seed = rng.randrange(2 ** 31)
        argv = ("transform", "--probe", "16", "--seed", str(probe_seed))
        if group:
            argv += ("--group", "sl2c")
        return Op("transform-group" if group else "transform-line", argv,
                  {"initial": {"name": name, "params": params}},
                  {"rc": 0, "initial": [name, params], "group": group})
    return make


def _evolve_spectral(group):
    def make(rng):
        name, params = _spectral_initial(rng, group)
        t0 = _t0(rng, 0.2, 2.0)
        argv = ("evolve", "--path", "spectral", "--t0", str(t0))
        if group:
            argv += ("--group", "sl2c")
        return Op("evolve-spectral-group" if group else "evolve-spectral-line",
                  argv, {"initial": {"name": name, "params": params}},
                  {"rc": 0, "initial": [name, params], "t0": t0,
                   "group": group})
    return make


_BLOCKS = {
    "witness": (_counterexample, _dichotomy, _evolve_closed_group,
                _evolve_closed_line),
    # six theta_log_sq constructs per ten ops put the median and the tail
    # inside the slowest cluster of op costs
    "certificate": ((_theta_log_sq("construct"),) * 6
                    + (_theta_log_sq("verify"), _psi_power("construct"),
                       _psi_power("verify"), None)),
    # transforms write the slower CSV; two per evolve keep the median and
    # the tail inside the transform cluster
    "spectral": (_transform(False), _transform(True)) * 2
                + (_evolve_spectral(False), _evolve_spectral(True)),
}


def _block(workload: str, index: int, rng: random.Random) -> list[Op]:
    makers = list(_BLOCKS[workload])
    if workload == "certificate":
        # one classify or refused op per block, alternating
        makers[-1] = _classify if index % 2 == 0 else _refused
    ops = [make(rng) for make in makers]
    rng.shuffle(ops)
    return ops


def iter_ops(workload: str, seed: int):
    """Endless op sequence for ``workload``; equal seeds give equal ops."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(SEED_STRIDE * int(seed) + WORKLOADS.index(workload))
    for index in itertools.count():
        yield from _block(workload, index, rng)


def stop_stride(workload: str) -> int:
    """Ops between the points where a timed run may stop.

    Runs stop only between whole blocks, so every run has the same mix
    of op kinds; witness ops all cost about the same, so a witness run
    may stop after any op.
    """
    return 1 if workload == "witness" else len(_BLOCKS[workload])


def trace_ops(workload: str, seed: int) -> list[Op]:
    """The fixed prefix of the op sequence that the traced run replays."""
    count = TRACE_BLOCKS[workload] * len(_BLOCKS[workload])
    return list(itertools.islice(iter_ops(workload, seed), count))
