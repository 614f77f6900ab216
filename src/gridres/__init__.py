"""Average effective resistance of rings, toroidal grids and hypercubes.

Exact spectra, closed-form bounds with sandwich verdicts, continuum
integral estimates, and a definition-based electrical oracle for
cross-validation.
"""

from .bounds import (
    BoundReport,
    bounds_hypercube,
    bounds_integral,
    bounds_torus2,
    bounds_torusd,
    scenario_bounds,
)
from .eigen import eigenvalues_symmetric, null_mode_count
from .errors import (
    DisconnectedGraph,
    DisconnectedSpectrum,
    DivergentIntegral,
    GridResError,
    InsufficientBudget,
    InsufficientData,
    InvalidFamily,
    NonIntegralSides,
    Overflow,
    SingularPoint,
    SingularSystem,
    SizeExceeded,
)
from .families import Explicit, GraphFamily, Hypercube, Ring, Torus, read_edge_list
from .laplacian import DENSE_LIMIT, build_laplacian
from .linsolve import GroundedSolver, solve_grounded
from .quadrature import IntegralEstimate, estimate_integral, integrand_f, interior_sum
from .resistance import (
    ResistanceResult,
    hypercube_ad_direct,
    hypercube_ad_recursive,
    pairwise_reff,
    rave,
    rave_definition_oracle,
    rave_dense_spectral,
    rave_hypercube_binomial,
    rave_hypercube_recursive,
    rave_ring_exact,
    rave_torus,
)
from .spectrum import (
    SpectrumStream,
    hypercube_spectrum,
    spectral_rave,
    stream_from_eigenvalues,
    torus_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DENSE_LIMIT",
    "DisconnectedGraph",
    "DisconnectedSpectrum",
    "DivergentIntegral",
    "Explicit",
    "GraphFamily",
    "GridResError",
    "GroundedSolver",
    "Hypercube",
    "InsufficientBudget",
    "InsufficientData",
    "IntegralEstimate",
    "InvalidFamily",
    "NonIntegralSides",
    "Overflow",
    "ResistanceResult",
    "Ring",
    "SingularPoint",
    "SingularSystem",
    "SizeExceeded",
    "SpectrumStream",
    "Torus",
    "bounds_hypercube",
    "bounds_integral",
    "bounds_torus2",
    "bounds_torusd",
    "build_laplacian",
    "eigenvalues_symmetric",
    "estimate_integral",
    "hypercube_ad_direct",
    "hypercube_ad_recursive",
    "hypercube_spectrum",
    "integrand_f",
    "interior_sum",
    "null_mode_count",
    "pairwise_reff",
    "rave",
    "rave_definition_oracle",
    "rave_dense_spectral",
    "rave_hypercube_binomial",
    "rave_hypercube_recursive",
    "rave_ring_exact",
    "rave_torus",
    "read_edge_list",
    "scenario_bounds",
    "solve_grounded",
    "spectral_rave",
    "stream_from_eigenvalues",
    "torus_spectrum",
]
