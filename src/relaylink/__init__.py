"""Two-way relay network performance over mixed RF and free-space-optical
links: exact outage, symbol-error quadrature, high-SNR asymptotics,
turbulence-model fitting and a reproducible Monte-Carlo engine."""

from .analysis import (
    AsymptoticReport,
    PerfEstimate,
    SweepRow,
    SystemConfig,
    asep,
    asymptotic_outage,
    classify_asymptotics,
    configure,
    evaluate,
    phase1_outage,
    phase2_outage,
    sweep,
    total_outage,
)
from .channels import AlphaMuParams, GammaGammaParams
from .errors import NonConvergenceError
from .ggfit import (
    FitDiagnostics,
    FitResult,
    fit_alpha_mu,
    fit_diagnostics,
)
from .mcsim import DEFAULT_SEED, McConfig, rng_stream, simulate_asep, simulate_outage
from .scenario import Scenario, ScenarioError, load_scenario, serialize_scenario
from .selection import SchedulingSpec

__all__ = [
    "AlphaMuParams", "AsymptoticReport", "DEFAULT_SEED", "FitDiagnostics",
    "FitResult", "GammaGammaParams", "McConfig", "NonConvergenceError",
    "PerfEstimate", "Scenario", "ScenarioError", "SchedulingSpec", "SweepRow", "SystemConfig",
    "asep", "asymptotic_outage", "classify_asymptotics", "configure",
    "evaluate", "fit_alpha_mu", "fit_diagnostics", "load_scenario",
    "phase1_outage", "phase2_outage", "rng_stream", "serialize_scenario",
    "simulate_asep", "simulate_outage", "sweep", "total_outage",
]

__version__ = "0.1.0"
