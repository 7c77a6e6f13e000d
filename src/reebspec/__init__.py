"""Conley-Zehnder indices, ellipsoid Reeb spectra, and Beatty/Tamura
partitions of the natural numbers, with exact quadratic-field arithmetic.

The headline computation: the multiset of Conley-Zehnder indices of the
Reeb orbits on an irrational ellipsoid boundary matches, degree by degree,
the dimension pattern of positive S^1-equivariant symplectic homology —
and that match is equivalent to the Tamura sets of the weights partitioning
the positive integers.  Both sides are computed independently and compared.
"""

from .czindex import (
    Crossing,
    RotationPath,
    SymplecticPath,
    crossing_form,
    cz_index,
    cz_rotation_analytic,
    direct_sum,
    find_crossings,
    standard_j,
    symplectic_defect,
)
from .ellipsoid import (
    CrossCheck,
    Ellipsoid,
    GoodnessReport,
    ReebOrbit,
    check_goodness_and_lacunarity,
    cross_check_family,
    cross_check_index,
    orbit_index,
    spectrum,
)
from .errors import (
    CrossingError,
    DegenerateCrossingError,
    ExprSyntaxError,
    FlatCrossingError,
    HypothesisViolation,
    NonIsolatedCrossingError,
    NotACrossingError,
    RadicandError,
)
from .homology import (
    DegreeVector,
    ShComparison,
    first_difference,
    sh_dims_formula,
    sh_dims_gutt,
)
from .homology import compare as sh_compare
from .partitions import (
    PartitionReport,
    TamuraFamily,
    beatty_set,
    rayleigh_conjugate,
    rayleigh_pair,
    uspensky_scan,
    verify_partition,
)
from .quadfield import (
    FieldContext,
    QuadIrrational,
    floor_product,
    pairwise_rational_ratio,
    parse_expr,
    render,
)

__version__ = "0.1.0"
