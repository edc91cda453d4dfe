"""Security analysis of continuous-variable QKD with an untrusted relay.

Protocol composition under independent entangling-cloner attacks,
asymptotic reverse-reconciliation key rates, distance sweeps, and a
quadrature-level Monte Carlo verification layer. The package root loads
only the analytic path, which needs `math` alone; the Gaussian-state toolkit
of the generic cross-check is `cvmdi.gaussian`, and it, `cvmdi.montecarlo`
and `cvmdi.oracle` load numpy.
"""

from . import kernels
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

__version__ = "0.12.0"

__all__ = [
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
