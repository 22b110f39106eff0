"""Central Delannoy paths, Kimberling paths, and the bijection between them.

The package provides exact counting and exhaustive enumeration of both
families, uniform random sampling, integer-exact subdiagonal geometry, an
exhaustive verification harness, a CLI, and SVG rendering.
"""

from .lattice_core import (
    BadEndpoint,
    BadOrigin,
    DecreasingY,
    DelannoyPath,
    InvalidCharacter,
    KimberlingPath,
    LatticeError,
    LatticePoint,
    NonIncreasingX,
    NotCentral,
    central_index,
    parse_step_word,
    path_vertices,
)
from .bijection import (
    phi,
    phi_inverse,
    step_labels,
)
from .counting import (
    count_delannoy,
    count_delannoy_by_e,
    count_kimberling,
    count_kimberling_by_vertices,
    enumerate_delannoy,
    enumerate_delannoy_by_e,
    enumerate_kimberling,
    enumerate_kimberling_by_vertices,
    sample_delannoy_stream,
    schroder,
)
from .geometry import (
    below_endpoint_chord,
    classify_d_counts,
    is_subdiagonal_delannoy,
    is_subdiagonal_kimberling,
    walk_east_steps,
)
from .harness import VerificationReport, run_checks
from .render import RenderSpec, render_pair

__version__ = "0.1.0"

__all__ = [
    "BadEndpoint",
    "BadOrigin",
    "DecreasingY",
    "DelannoyPath",
    "InvalidCharacter",
    "KimberlingPath",
    "LatticeError",
    "LatticePoint",
    "NonIncreasingX",
    "NotCentral",
    "RenderSpec",
    "VerificationReport",
    "below_endpoint_chord",
    "central_index",
    "classify_d_counts",
    "count_delannoy",
    "count_delannoy_by_e",
    "count_kimberling",
    "count_kimberling_by_vertices",
    "enumerate_delannoy",
    "enumerate_delannoy_by_e",
    "enumerate_kimberling",
    "enumerate_kimberling_by_vertices",
    "is_subdiagonal_delannoy",
    "is_subdiagonal_kimberling",
    "parse_step_word",
    "path_vertices",
    "phi",
    "phi_inverse",
    "render_pair",
    "run_checks",
    "sample_delannoy_stream",
    "schroder",
    "step_labels",
    "walk_east_steps",
]
