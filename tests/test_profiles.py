import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inghamlab as il
from inghamlab.profiles import (MAX_TERMS, VERDICT_CONVERGENT,
                                VERDICT_DIVERGENT, theta_from_psi)


def test_registry_contents():
    assert set(il.PROFILES) == {"psi_power", "psi_linear", "psi_log_damped",
                                "psi_zero", "theta_log", "theta_log_sq"}
    for name, factory in il.PROFILES.items():
        p = factory()
        assert p.name.startswith(name)


def test_profile_from_config_passes_params():
    p = il.profile_from_config("psi_power", {"exponent": 0.25})
    np.testing.assert_allclose(p(16.0), 2.0)
    with pytest.raises(ValueError):
        il.profile_from_config("no_such_profile")


def test_theta_profiles_decrease():
    r = np.geomspace(0.1, 1e8, 200)
    for name in ("theta_log", "theta_log_sq"):
        vals = il.PROFILES[name]()(r)
        assert np.all(np.diff(vals) < 0)


def test_psi_profiles_nondecreasing():
    r = np.geomspace(0.1, 1e8, 200)
    for name in ("psi_power", "psi_linear", "psi_log_damped", "psi_zero"):
        vals = il.PROFILES[name]()(r)
        assert np.all(np.diff(vals) >= 0)


# every registered profile at its defaults, and psi_power and psi_linear
# at the ends of the parameter ranges the tests and the benchmark draw
_PROFILE_CASES = [(name, {}) for name in sorted(il.PROFILES)] + [
    ("psi_power", {"exponent": 0.01}), ("psi_power", {"exponent": 1.0}),
    ("psi_linear", {"slope": 0.5}), ("psi_linear", {"slope": 3.0})]


@pytest.mark.parametrize("name,params", _PROFILE_CASES,
                         ids=[f"{n}{list(p.values())}"
                              for n, p in _PROFILE_CASES])
def test_theta_nonincreasing_between_dyadic_nodes(name, params):
    # classification.json's integral_bracket assumes theta (psi/r for psi
    # profiles) nonincreasing on each octave, not only at the nodes 2**k
    profile = il.profile_from_config(name, params)
    theta = (profile if profile.kind is il.ProfileKind.THETA_DECREASING
             else theta_from_psi(profile))
    vals = theta(np.geomspace(2.0, 2.0 ** 1000, 1000 * 32 + 1))
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) <= 1e-12 * vals[:-1])


def test_validation_rejects_wrong_monotonicity():
    with pytest.raises(il.ProfileError):
        il.DecayProfile("bad", il.ProfileKind.THETA_DECREASING,
                        lambda r: np.asarray(r, dtype=float))
    with pytest.raises(il.ProfileError):
        il.DecayProfile("bad", il.ProfileKind.PSI_NONDECREASING,
                        lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)))


def test_psi_from_theta():
    psi = il.psi_from_theta(il.theta_log())
    r = np.array([1.0, 10.0, 100.0])
    np.testing.assert_allclose(psi(r), r / np.log(np.e + r))
    assert psi.kind is il.ProfileKind.PSI_NONDECREASING
    with pytest.raises(il.ProfileError):
        il.psi_from_theta(il.PROFILES["psi_linear"]())


def _bracket(profile):
    blob = il.classify_integral(profile).to_json_dict()
    K = blob["n_terms"]
    b = blob["integral_bracket"]
    assert b["upper_limit"] == 2.0 ** K
    assert b["lower"] <= b["upper"]
    return K, b["lower"], b["upper"]


def test_partial_integral_linear_psi_oracle():
    """theta = psi/r = s, so the integral over [2, 2**K] is s ln(2**K/2)."""
    for s in (0.5, 1.0, 1.5):
        K, lo, hi = _bracket(il.psi_linear(s))
        assert K == MAX_TERMS
        # for constant theta both ends are ln2 * s * (K - 1), the integral
        np.testing.assert_allclose([lo, hi], s * math.log(2.0 ** K / 2.0),
                                   rtol=1e-12)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.75, 0.9])
def test_bracket_psi_power_closed_form(a):
    """theta = r**(a-1); the integral over [2, 2**K] has a closed form."""
    K, lo, hi = _bracket(il.psi_power(a))
    exact = (2.0 ** (a - 1) - 2.0 ** (K * (a - 1))) / (1 - a)
    assert lo <= exact <= hi
    # the bracket is ln2 * (a_1 - a_K) wide
    np.testing.assert_allclose(hi - lo, math.log(2.0) * (
        2.0 ** (a - 1) - 2.0 ** (K * (a - 1))), rtol=1e-9)


def test_partial_integral_theta_log_grows_like_loglog():
    # for r >= 2, log r < log(e + r) <= 1 + log r, so the integral of
    # theta_log(r)/r over [2, 2**K] lies between ln((1 + K ln2)/(1 + ln2))
    # and ln K, and the bracket must meet that range
    K, lo, hi = _bracket(il.theta_log())
    assert K == MAX_TERMS
    assert lo <= math.log(K)
    assert hi >= math.log((1 + K * math.log(2.0)) / (1 + math.log(2.0)))


def test_classifier_verdicts():
    assert il.classify_integral(il.theta_log()).verdict == VERDICT_DIVERGENT
    assert il.classify_integral(il.theta_log_sq()).verdict == VERDICT_CONVERGENT
    assert il.classify_integral(
        il.PROFILES["psi_linear"]()).verdict == VERDICT_DIVERGENT
    assert il.classify_integral(
        il.PROFILES["psi_power"]()).verdict == VERDICT_CONVERGENT
    assert il.classify_integral(
        il.PROFILES["psi_log_damped"]()).verdict == VERDICT_DIVERGENT
    assert il.classify_integral(
        il.PROFILES["psi_zero"]()).verdict == VERDICT_CONVERGENT


def test_classifier_diagnostics_roundtrip():
    d = il.classify_integral(il.theta_log_sq())
    blob = d.to_json_dict()
    assert blob["verdict"] == VERDICT_CONVERGENT
    assert blob["profile"] == "theta_log_sq"
    assert blob["n_terms"] == len(d.terms) == MAX_TERMS
    assert blob["stopped_by"] == "term cap"
    # one sum per full index block [2**j, 2**(j+1)) below MAX_TERMS
    assert len(blob["block_sums"]) == 9
    np.testing.assert_allclose(blob["block_sums"][0], d.terms[1])
    # the convergent tail: each block sum at most 0.8 of the one before
    tail = blob["block_sums"][-4:]
    assert all(b <= 0.8 * a for a, b in zip(tail, tail[1:]))


def test_classifier_rejects_bad_schedule():
    # psi(r) = r**2 passes its spot check, but psi/r increases
    psi = il.DecayProfile("psi_square", il.ProfileKind.PSI_NONDECREASING,
                          lambda r: np.asarray(r, dtype=float) ** 2)
    with pytest.raises(il.ProfileError, match="increase"):
        il.classify_integral(psi)
    with pytest.raises(il.ProfileError, match="increase"):
        il.spec_from_psi(psi)


def test_overflowing_term_is_divergent_without_warning():
    # 2 * 2**1023 overflows: the last term is inf, and the terms before
    # it are all 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = il.classify_integral(il.psi_linear(2.0))
        assert d.verdict == VERDICT_DIVERGENT
        assert d.stopped_by == "overflow"
        assert len(d.terms) == MAX_TERMS - 1
        with pytest.raises(il.DivergentProfileError):
            il.spec_from_psi(il.psi_linear(2.0))


def _accepted(profile):
    build = (il.spec_from_theta
             if profile.kind is il.ProfileKind.THETA_DECREASING
             else il.spec_from_psi)
    try:
        build(profile)
    except il.DivergentProfileError:
        return False
    return True


def _agree(profile):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = il.classify_integral(profile).verdict
        assert (verdict == VERDICT_CONVERGENT) == _accepted(profile)
    return verdict


@settings(max_examples=30, deadline=None)
@given(exponent=st.floats(min_value=0.0, max_value=0.95,
                          exclude_min=True))
@example(exponent=0.85)
@example(exponent=0.9)
@example(exponent=0.95)
def test_classify_agrees_with_constructor_psi_power(exponent):
    # for a <= 0.95 the terms 2**((a - 1) k) fall below the truncation
    # tolerance by k = 532, inside the term cap
    assert _agree(il.psi_power(exponent)) == VERDICT_CONVERGENT


@settings(max_examples=30, deadline=None)
@given(slope=st.floats(min_value=0.5, max_value=3.0))
@example(slope=2.0)
def test_classify_agrees_with_constructor_psi_linear(slope):
    assert _agree(il.psi_linear(slope)) == VERDICT_DIVERGENT


@pytest.mark.parametrize("name", sorted(il.PROFILES))
def test_classify_agrees_with_constructor_registered(name):
    _agree(il.PROFILES[name]())


@settings(max_examples=25, deadline=None)
@given(exponent=st.floats(min_value=0.05, max_value=0.9),
       r=st.floats(min_value=0.0, max_value=1e6))
def test_psi_power_matches_power_law(exponent, r):
    p = il.profile_from_config("psi_power", {"exponent": exponent})
    np.testing.assert_allclose(float(p(r)), r ** exponent, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(lo=st.floats(min_value=0.0, max_value=1e5),
       span=st.floats(min_value=1e-3, max_value=1e5))
def test_theta_log_sq_monotone_everywhere(lo, span):
    theta = il.theta_log_sq()
    assert float(theta(lo + span)) < float(theta(lo))
