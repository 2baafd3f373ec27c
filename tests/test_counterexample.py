"""Witness construction, envelope pipeline, dichotomy."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

import inghamlab as il
from inghamlab import counterexample
from inghamlab.construct import realize_function, spec_from_theta
from inghamlab.counterexample import (
    MODE_LINEAR, MODE_THETA, CounterexampleParams, SupportTouchesZeroError,
    build_initial_data, run_pipeline, theorem_dichotomy_experiment,
    verify_envelope)
from inghamlab.envelopes import FAILS, HOLDS
from inghamlab.groups import WallSingularityError, default_grid, phi_weight
from inghamlab.initialdata import smooth_bump
from inghamlab.profiles import DecayProfile, ProfileKind


def _theta_profile(func, name="theta-custom"):
    return DecayProfile(name, ProfileKind.THETA_DECREASING, func,
                        validate=False)


# ---------------------------------------------------------------- params

def test_params_weights_sum_to_one():
    p = CounterexampleParams(alpha=0.5, eta=0.25)
    assert p.beta == pytest.approx(0.25)
    assert p.beta_prime == pytest.approx(0.125)  # default: beta / 2
    assert p.alpha + p.eta + p.beta == pytest.approx(1.0)
    d = p.to_json_dict()
    assert d == {"alpha": 0.5, "eta": 0.25, "beta": 0.25,
                 "beta_prime": 0.125, "t0": 1.0}


def test_params_accepts_explicit_beta_prime():
    p = CounterexampleParams(alpha=0.5, eta=0.25, beta_prime=0.2)
    assert p.beta_prime == 0.2


@pytest.mark.parametrize("kwargs", [
    dict(alpha=1.0, eta=0.25),
    dict(alpha=-0.1, eta=0.25),
    dict(alpha=0.5, eta=0.0),
    dict(alpha=0.5, eta=0.5),      # eta must stay below 1 - alpha
    dict(alpha=0.5, eta=0.25, t0=0.0),
    dict(alpha=0.5, eta=0.25, t0=np.inf),
    dict(alpha=0.5, eta=0.25, beta_prime=0.25),
    dict(alpha=0.5, eta=0.25, beta_prime=0.0),
])
def test_params_rejects_bad_weights(kwargs):
    with pytest.raises(ValueError):
        CounterexampleParams(**kwargs)


# ---------------------------------------------------------------- bump

def _bump(lo, hi, grid):
    return il.SampledFunction.from_callable(grid, smooth_bump(lo, hi))


def test_bump_has_unit_mass():
    # fine one-sided grid so the quadrature error is far below the target
    grid = il.Grid(0.0, 0.5, 65536)
    b = _bump(0.125, 0.25, grid)
    mass = grid.step * float(np.sum(b.values.real))
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_bump_support_is_exact():
    grid = il.Grid(0.0, 0.5, 65536)
    b = _bump(0.125, 0.25, grid)
    x = grid.nodes
    outside = (x <= 0.125) | (x >= 0.25)
    assert np.all(b.values[outside] == 0.0)
    # edge nodes can underflow; the interior band must be strictly positive
    inner = (x > 0.14) & (x < 0.235)
    assert np.all(b.values[inner].real > 0.0)


def test_bump_rejects_bad_interval():
    grid = il.Grid(0.0, 0.5, 64)
    with pytest.raises(ValueError, match="lo < hi"):
        _bump(0.3, 0.2, grid)


# ---------------------------------------------------------------- initial data

def test_witness_structure(witness, witness_params):
    assert witness.label == "witness-initial"
    H = witness.grid.nodes
    absv = np.abs(witness.values)
    # even in |H| by construction
    np.testing.assert_allclose(absv, witness.grid.reflect_values(absv))
    lo = 2.0 * witness_params.t0 * witness_params.beta_prime
    hi = 2.0 * witness_params.t0 * witness_params.beta
    outside = (np.abs(H) <= lo) | (np.abs(H) >= hi)
    assert np.all(absv[outside] == 0.0)
    assert np.any(absv > 0.0)


def test_gf_phase_cancellation(witness, witness_params, sl2c):
    # exp(+i|H|_B^2/4t0) * f * phi collapses to the scaled bump
    from inghamlab.initialdata import smooth_bump
    p = witness_params
    H = witness.grid.nodes
    gf = (np.exp(1j * sl2c.b_norm(H) ** 2 / (4.0 * p.t0)) * witness.values
          * phi_weight(sl2c, np.abs(H)))
    h_func = smooth_bump(p.beta_prime, p.beta)
    expect = h_func(np.abs(H) / (2.0 * p.t0)) / (2.0 * p.t0)
    np.testing.assert_allclose(gf, expect, atol=1e-12)


def test_initial_data_requires_half_step_grid(witness_params, sl2c):
    grid = il.Grid.symmetric(32.0, 2 ** 14, offset=False)  # has H = 0
    with pytest.raises(WallSingularityError):
        build_initial_data(witness_params, sl2c, grid)


def test_initial_data_support_must_clear_origin(sl2c, offset_grid):
    # support edge 2 t0 beta' = 7.5e-4 sits below the first node h/2
    p = CounterexampleParams(alpha=0.5, eta=0.25, t0=0.003)
    with pytest.raises(SupportTouchesZeroError):
        build_initial_data(p, sl2c, offset_grid)


def test_default_grid_shape():
    grid = default_grid()
    assert grid.offset and not grid.has_zero_node
    assert grid.x_max == 32.0 and grid.n_points == 2 ** 14


# ---------------------------------------------------------------- pipeline

def test_theta_pipeline_envelope_holds(theta_pipeline):
    rep = theta_pipeline.report
    assert rep.verdict == HOLDS
    assert np.all(np.diff(rep.constants) < 0)
    assert rep.growth_factor < 1.0
    assert rep.meta["mode"] == MODE_THETA
    assert rep.meta["alpha_fit"] == 0.5
    assert rep.meta["alpha_override"] is False
    assert rep.meta["theta"] == "theta_log"
    assert [w.lo for w in rep.windows] == [2.0, 4.0, 8.0]


def test_theta_pipeline_companion_fails(theta_pipeline):
    comp = theta_pipeline.companion
    assert comp is not None
    assert comp.verdict == FAILS
    assert comp.monotone_growth
    assert comp.growth_factor > 10.0
    assert comp.meta["alpha_fit"] == 1.0
    assert comp.meta["alpha_override"] is True


def test_theta_pipeline_fields(theta_pipeline, witness_params):
    assert theta_pipeline.mode == MODE_THETA
    assert theta_pipeline.params == witness_params
    assert theta_pipeline.initial.label == "witness-initial"
    assert theta_pipeline.solution.grid == theta_pipeline.initial.grid
    d = theta_pipeline.to_json_dict()
    assert set(d) == {"params", "mode", "report", "companion"}
    assert d["companion"]["verdict"] == FAILS


def test_linear_pipeline_envelope_holds(linear_pipeline):
    rep = linear_pipeline.report
    assert rep.verdict == HOLDS
    assert linear_pipeline.companion.verdict == FAILS
    assert rep.meta["mode"] == MODE_LINEAR
    assert [w.lo for w in rep.windows] == [2.0, 4.0, 8.0]
    assert np.all(np.diff(rep.constants) < 0)


def test_envelope_input_validation(witness_params, sl2c, witness,
                                  theta_pipeline):
    u = theta_pipeline.solution
    with pytest.raises(ValueError, match="unknown mode"):
        verify_envelope(witness_params, sl2c, u, "exponential",
                        theta=il.theta_log())
    with pytest.raises(ValueError, match="theta"):
        theorem_dichotomy_experiment(sl2c, None, witness, 1.0)
    with pytest.raises(ValueError, match="decreasing"):
        verify_envelope(witness_params, sl2c, u, MODE_THETA,
                        theta=il.psi_linear())
    with pytest.raises(ValueError, match="decreasing"):
        theorem_dichotomy_experiment(sl2c, il.psi_linear(), witness, 1.0)


def test_pipeline_refuses_before_it_evolves(witness_params, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the witness was evolved before the refusal")

    monkeypatch.setattr(counterexample, "evolve_group_closed_form", never)
    with pytest.raises(ValueError, match="is a psi profile"):
        run_pipeline(witness_params, MODE_THETA, theta=il.psi_power())
    with pytest.raises(ValueError, match="unknown mode 'exponential'"):
        run_pipeline(witness_params, "exponential")


# ---------------------------------------------------------------- dichotomy

def test_dichotomy_witness_refutes_full_weight(sl2c, witness):
    rep = theorem_dichotomy_experiment(sl2c, il.theta_log(), witness, 1.0)
    assert rep.verdict == FAILS
    assert rep.monotone_growth
    assert rep.growth_factor > 10.0
    assert rep.meta["source"] == "witness-initial"
    assert rep.meta["alpha_fit"] == 1.0


def test_dichotomy_zero_data_holds(sl2c, offset_grid):
    f = il.SampledFunction(offset_grid,
                           np.zeros(offset_grid.n_points, dtype=complex),
                           label="zero")
    rep = theorem_dichotomy_experiment(sl2c, il.theta_log(), f, 1.0)
    assert rep.verdict == HOLDS
    assert np.all(rep.constants == 0.0)


def test_dichotomy_convergent_theta_admits_data(sl2c, offset_grid):
    # seed g_f with a compact product built from the doubled-argument
    # profile, so the solution decays like the convergent modulation.
    # The data must be Weyl invariant (the flow evolves its even part),
    # so g_f = f phi is odd: the product, moved off the wall by a shift
    # larger than its support radius, then extended oddly.
    base = il.theta_log_sq()
    theta = _theta_profile(lambda r: base(np.asarray(r, float) / 2.0),
                           name="theta-log-sq-half")
    spec = spec_from_theta(theta)
    shift = 4.0
    assert spec.support_radius < shift
    g = offset_grid
    w = realize_function(spec, il.Grid(g.x_min - shift, g.x_max - shift,
                                       g.n_points, offset=True)).values
    H = g.nodes
    w_even = np.where(H > 0.0, w, w[::-1])  # w(|H| - shift)
    t0 = 1.0
    chirp = np.exp(-1j * sl2c.b_norm(H) ** 2 / (4.0 * t0))
    f = il.SampledFunction(g, chirp * w_even / phi_weight(sl2c, np.abs(H)),
                           label="convergent-seed")
    rep = theorem_dichotomy_experiment(sl2c, theta, f, t0)
    assert rep.verdict == HOLDS
    assert np.all(np.diff(rep.constants) < 0)
    assert rep.growth_factor < 1e-3


def test_witness_far_nodes_match_sine_quadrature(sl2c, offset_grid):
    """Closed-form witness flow at far nodes against a grid-free oracle.

    The witness data makes u phi a chirp times the sine transform of the
    unit-mass bump h on [beta/2, beta]:

        u phi (H) = C t^(-1/2) exp(-i t |rho|_B^2 + i b^2 H^2 / 4t)
                    * (-2i) int h(s) sin(b^2 H s) ds,

    with C = b / (2 sqrt(pi)) exp(-i pi/4), b = 4, |rho|_B^2 = 1/4 and
    phi = 2 sinh 2H.  One quad(weight='sin') per node, no grid.  The
    closed form's chirp-z and direct sums agree to about 1e-14 at these
    nodes; the deviations left (2e-8 at H = 5 to 9e-7 at H = 13) are
    the grid's discretisation, not the summation.
    """
    alpha, eta, t0 = 0.3, 0.3, 1.0
    params = il.CounterexampleParams(alpha=alpha, eta=eta, t0=t0)
    f = build_initial_data(params, sl2c, offset_grid)
    u = il.evolve_group_closed_form(sl2c, f, il.SchrodingerParams(t0=t0))

    beta = 1.0 - alpha - eta
    half, mid = 0.25 * beta, 0.75 * beta
    mass = quad(lambda y: math.exp(-1.0 / (1.0 - y * y)), -1.0, 1.0,
                epsabs=1e-14, epsrel=1e-13)[0]

    def bump(s):
        y = (s - mid) / half
        return math.exp(-1.0 / (1.0 - y * y)) / (mass * half) if abs(y) < 1 else 0.0

    b = 4.0
    const = b / (2.0 * math.sqrt(math.pi)) * np.exp(-1j * math.pi / 4.0)
    H = offset_grid.nodes
    for target in (5.0, 7.0, 10.0, 13.0):
        i = int(np.argmin(np.abs(H - target)))
        x = H[i]
        sine = quad(bump, mid - half, mid + half, weight="sin", wvar=b * b * x,
                    epsabs=0.0, epsrel=1e-11, limit=200)[0]
        u_phi = (const * t0 ** -0.5
                 * np.exp(-1j * t0 * 0.25 + 1j * b * b * x * x / (4.0 * t0))
                 * (-2j) * sine)
        ref = u_phi / (2.0 * math.sinh(2.0 * x))
        assert abs(u.values[i] - ref) <= 1e-5 * abs(ref)
