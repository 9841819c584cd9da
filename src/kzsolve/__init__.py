"""Exact and numerical toolkit for KZ systems over symmetric-group residues."""

from .exactalg import (
    GaussianRational,
    Matrix,
    Vector,
    char_poly,
    determinant,
    nullspace,
    parse_scalar,
)
from .symrep import t_spectrum
from .kzcore import KZSystem, local_coefficients, new_system
from .frobenius import (
    SeriesFamily,
    exponent_window,
    frobenius_solve,
)
from .ansatz import (
    ConditionReport,
    RationalVectorFunction,
    check_conditions,
    in_span,
    residual,
    solve_ansatz,
)
from .s4explicit import (
    IndependenceCertificate,
    independence_certificate,
    y1,
    y2,
    y3,
    y4,
)
from .numverify import MonodromyResult, monodromy

__all__ = [
    "GaussianRational",
    "Matrix",
    "Vector",
    "char_poly",
    "determinant",
    "nullspace",
    "parse_scalar",
    "t_spectrum",
    "KZSystem",
    "local_coefficients",
    "new_system",
    "SeriesFamily",
    "exponent_window",
    "frobenius_solve",
    "ConditionReport",
    "RationalVectorFunction",
    "check_conditions",
    "in_span",
    "residual",
    "solve_ansatz",
    "IndependenceCertificate",
    "independence_certificate",
    "y1",
    "y2",
    "y3",
    "y4",
    "MonodromyResult",
    "monodromy",
]

__version__ = "0.1.0"
