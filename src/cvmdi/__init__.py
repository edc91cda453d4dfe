"""Security analysis of continuous-variable QKD with an untrusted relay.

Gaussian-state toolkit, protocol composition under independent
entangling-cloner attacks, asymptotic reverse-reconciliation key rates,
distance sweeps, and a quadrature-level Monte Carlo verification layer.
"""

from . import kernels
from .gaussian import (
    CovarianceMatrix,
    UnphysicalStateError,
    entropy_g,
    heterodyne_condition,
    symplectic_eigenvalues,
    tms_state,
    vacuum_state,
    von_neumann_entropy,
)
from .keyrate import (
    KeyRatePoint,
    key_rate_vs_k,
    max_distance_asymmetric,
    max_total_distance_symmetric,
    min_detector_efficiency,
    optimize_k_detection_scheme,
    secret_key_rate,
    sweep_asymmetric,
    sweep_symmetric,
)
from .protocol import (
    ChannelParams,
    DetectorParams,
    Scenario,
    compose_eb_simulated,
    effective_transmittance,
    equivalent_excess_noise,
    optimal_gain,
)

__version__ = "0.7.0"

__all__ = [
    "CovarianceMatrix",
    "UnphysicalStateError",
    "entropy_g",
    "heterodyne_condition",
    "symplectic_eigenvalues",
    "tms_state",
    "vacuum_state",
    "von_neumann_entropy",
    "KeyRatePoint",
    "key_rate_vs_k",
    "max_distance_asymmetric",
    "max_total_distance_symmetric",
    "min_detector_efficiency",
    "optimize_k_detection_scheme",
    "secret_key_rate",
    "sweep_asymmetric",
    "sweep_symmetric",
    "ChannelParams",
    "DetectorParams",
    "Scenario",
    "compose_eb_simulated",
    "effective_transmittance",
    "equivalent_excess_noise",
    "optimal_gain",
    "kernels",
    "__version__",
]
