"""Exact-arithmetic computations with finite-dimensional Lie algebras.

Given structure constants over the rationals, the package computes the
derived, lower central and upper central series, the perfect and near perfect
radicals, the radical, the center and the smallest upper bounded ideal, and it
can machine-check the structure laws these objects satisfy on arbitrary
inputs.  See the `cli` module for the command line front end.
"""

from .algfile import (
    AlgebraFileError,
    InvalidAlgebraError,
    ParseError,
    parse_algebra,
    render_algebra,
)
from .catalog import CatalogEntry, Known, UnknownAlgebraError
from .core import (
    LieAlgebra,
    NotAnIdealError,
    NotClosedError,
    StructureConstants,
    ValidationReport,
)
from .linalg import Matrix
from .oracle import (
    PROPOSITION_IDS,
    PropositionCheck,
    TheoremReport,
    naive_series,
    random_algebras,
    random_ideal,
    verify_theorems,
)
from .series import (
    ProfileReport,
    SeriesKind,
    SeriesReport,
    center,
    derived_series,
    derived_subalgebra,
    is_abelian,
    is_near_perfect_ideal,
    is_nilpotent,
    is_perfect,
    is_perfect_ideal,
    is_semisimple,
    is_solvable,
    is_upper_bounded_ideal,
    lower_central_series,
    near_perfect_radical,
    perfect_radical,
    profile,
    radical,
    smallest_upper_bounded_ideal,
    upper_central_series,
    upper_extension,
)
from .subspace import Subspace

__version__ = "0.1.0"

__all__ = [
    "AlgebraFileError",
    "CatalogEntry",
    "InvalidAlgebraError",
    "Known",
    "LieAlgebra",
    "Matrix",
    "NotAnIdealError",
    "NotClosedError",
    "PROPOSITION_IDS",
    "ParseError",
    "ProfileReport",
    "PropositionCheck",
    "SeriesKind",
    "SeriesReport",
    "StructureConstants",
    "Subspace",
    "TheoremReport",
    "UnknownAlgebraError",
    "ValidationReport",
    "center",
    "derived_series",
    "derived_subalgebra",
    "is_abelian",
    "is_near_perfect_ideal",
    "is_nilpotent",
    "is_perfect",
    "is_perfect_ideal",
    "is_semisimple",
    "is_solvable",
    "is_upper_bounded_ideal",
    "lower_central_series",
    "naive_series",
    "near_perfect_radical",
    "parse_algebra",
    "perfect_radical",
    "profile",
    "radical",
    "random_algebras",
    "random_ideal",
    "render_algebra",
    "smallest_upper_bounded_ideal",
    "upper_central_series",
    "upper_extension",
    "verify_theorems",
]
