"""Bipartite entanglement measures through antisymmetric volumes.

Squared wedge-product volumes of the projected environment states equal
the elementary symmetric polynomials of the reduced-density-matrix
spectrum; from those the whole entropy stack (linear, Renyi, truncated
r-th-order, von Neumann) follows, and the second-order volume is exactly
the bunching probability of a two-copy fermionic interference experiment,
which this package simulates in full.
"""

from .entropy import (
    SeriesResult,
    linear_entropy,
    purities_from_esp,
    purities_recurrence,
    q_tilde,
    renyi_entropy,
    s_r_truncated,
    von_neumann_direct,
    von_neumann_series,
)
from .errors import (
    DimensionMismatchError,
    EspentError,
    IndefiniteMatrixError,
    InvalidCutError,
    InvalidOptionError,
    InvalidOrderError,
    NormError,
    OrderOutOfRangeError,
    ParseError,
    TooLargeError,
    WrongPortDomainError,
    ZeroStateError,
)
from .fermions import (
    TwoFermionJointState,
    beamsplitter_transform,
    build_two_copy_state,
    bunching_probability,
    fermionic_encoding_probability,
)
from .io import parse_state_file, serialize_state, state_to_dict, write_state_file
from .quench import QuenchConfig, build_hamiltonian, quench_trajectory
from .report import AnalysisOptions, AnalysisReport, analyze, analyze_batch
from .states import (
    PureBipartiteState,
    ReducedDensityMatrix,
    Spectrum,
    gram_matrix,
    random_haar_state,
    reduced_density_matrix,
    schmidt_spectrum,
    spectrum,
    validate_state,
)
from .volumes import (
    ESPVector,
    esp_from_charpoly,
    esp_from_spectrum,
)

__version__ = "0.1.0"
