"""Security analysis of continuous-variable QKD with an untrusted relay.

Protocol composition under independent entangling-cloner attacks,
asymptotic reverse-reconciliation key rates, distance sweeps, and a
quadrature-level Monte Carlo verification layer. The package root loads
only the analytic path, which needs `math` alone; the reduction gain ->
(T, eps') is the steps of `cvmdi.protocol`, which the key rate and the
oracle compose, and the key-rate kernels are closed forms in (V_A, T, eps');
`compose_eb_simulated` and the `*_generic` key rate are its exact
reference, in stdlib `decimal`. The oracle
(`cvmdi.oracle`, `cvmdi.montecarlo`) computes in `math` as well and reads
moments drawn from the sampler's law, never rows; only the PM row sampler
and its CSV export load numpy, and no `cvmdi` command calls them.
"""

from . import kernels
from .keyrate import (
    KeyRateNotFinite,
    KeyRatePoint,
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
    optimal_gain,
)

__version__ = "0.23.0"

__all__ = [
    "KeyRateNotFinite",
    "KeyRatePoint",
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
    "optimal_gain",
    "kernels",
    "__version__",
]
