"""Numerical laboratory for decay envelopes of Schrodinger flows.

The package covers four layers: sampled functions and Fourier
transforms on uniform grids (grids, fourier), decay profiles and the
sinc-product constructor they feed (profiles, construct), a rank-one
model of the spherical transform with its Schrodinger flow (groups,
schrodinger), and the witness pipeline that fits dyadic envelope
constants and reports HOLDS or FAILS (envelopes, counterexample).
"""
from .construct import (DivergentProfileError, GridTooSmallError,
                        SincProductSpec, decay_certificate,
                        evaluate_product_fourier, realize_function,
                        spec_from_psi, spec_from_theta,
                        support_mass_fractions)
from .counterexample import (MODE_LINEAR, MODE_THETA, CounterexampleParams,
                             PipelineResult, SupportTouchesZeroError,
                             build_initial_data, run_pipeline,
                             theorem_dichotomy_experiment, verify_envelope)
from .envelopes import (FAILS, HOLDS, EnvelopeReport, WindowFit,
                        WindowTooSmallError, fit_dyadic, fit_nested)
from .fourier import (fourier_transform, fourier_transform_direct,
                      inverse_fourier_transform, l2_norm, spectral_l2_norm)
from .grids import Grid, InvalidDataError, SampledFunction, SpectralFunction
from .groups import (BoundaryLeakError, GroupModel, SphericalTransform,
                     WallSingularityError, c_function, c_inverse,
                     inverse_spherical, phi0, phi_weight, preset,
                     sl2c, spherical_function,
                     spherical_transform_direct,
                     spherical_transform_reduced, symmetrize)
from .initialdata import INITIAL_PROFILES, gaussian, smooth_bump
from .profiles import (PROFILES, DecayProfile, IntegralDiagnostics,
                       ProfileError, ProfileKind, classify_integral,
                       profile_from_config, psi_from_theta, psi_linear,
                       psi_log_damped, psi_power, psi_zero, theta_log,
                       theta_log_sq)
from .schrodinger import (AliasingWarning, InvalidTimeError, ResidualReport,
                          SchrodingerParams, calibrate_group_constant,
                          evolve_closed_form, evolve_group_closed_form,
                          evolve_group_spectral, evolve_spectral,
                          kernel_gamma, pde_residual)

__version__ = "0.1.0"

__all__ = [
    "AliasingWarning", "BoundaryLeakError", "CounterexampleParams",
    "DecayProfile", "DivergentProfileError", "EnvelopeReport", "FAILS",
    "Grid", "GridTooSmallError", "GroupModel", "HOLDS", "INITIAL_PROFILES",
    "IntegralDiagnostics", "InvalidDataError", "InvalidTimeError",
    "MODE_LINEAR", "MODE_THETA", "PROFILES", "PipelineResult",
    "ProfileError", "ProfileKind", "ResidualReport", "SampledFunction",
    "SchrodingerParams", "SincProductSpec", "SpectralFunction",
    "SphericalTransform", "SupportTouchesZeroError",
    "WallSingularityError", "WindowFit", "WindowTooSmallError",
    "build_initial_data", "c_function", "c_inverse",
    "calibrate_group_constant", "classify_integral", "decay_certificate",
    "evaluate_product_fourier", "evolve_closed_form",
    "evolve_group_closed_form", "evolve_group_spectral", "evolve_spectral",
    "fit_dyadic", "fit_nested", "fourier_transform",
    "fourier_transform_direct", "gaussian", "inverse_fourier_transform",
    "inverse_spherical", "kernel_gamma", "l2_norm", "pde_residual", "phi0",
    "phi_weight", "preset", "profile_from_config", "psi_from_theta",
    "psi_linear", "psi_log_damped", "psi_power", "psi_zero",
    "realize_function", "run_pipeline", "sl2c", "smooth_bump",
    "spec_from_psi", "spec_from_theta", "spectral_l2_norm",
    "spherical_function", "spherical_transform_direct",
    "spherical_transform_reduced", "support_mass_fractions", "symmetrize",
    "theorem_dichotomy_experiment", "theta_log", "theta_log_sq",
    "verify_envelope",
]
