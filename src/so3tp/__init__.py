"""SO(3) tensor products on spherical grids.

Exact Clebsch-Gordan and Wigner 9j coefficients, scalar and tensor
spherical harmonic transforms, coefficient-space and grid-based tensor
products with selection-rule machinery, and a FLOP-instrumented benchmark
harness.
"""

from .angular import (
    cg_block,
    rotation_matrix,
    triangle_delta,
    wigner_9j_spin1,
    wigner_d_matrix,
)
from .exact import (
    SqrtRational,
    cg,
    cg_float,
    cg_zero,
    gaunt_coefficient,
    generalized_gaunt,
    wigner_9j,
)
from .rules import (
    NotInteractable,
    PathKey,
    RuleReport,
    TriangleViolation,
    expressivity_count,
    find_valid_ells,
    interactable,
    vstp_rules,
)
from .sht import (
    IrrepCoeffs,
    SphereGrid,
    make_grid,
    sh_eval,
)
from .tenprod import (
    NumericalDegeneracy,
    TpoResult,
    cgtp_full,
    cgtp_path,
    gtp,
    istp,
    pointwise_spin_tp,
    simulate_cgtp_path,
    vstp,
)
from .tsh import (
    SpinSignal,
    TshCoeffs,
    from_sphere,
    to_sphere,
    tsh_decode,
    tsh_encode,
    tsh_eval,
    tsh_orthonormality_check,
)

__version__ = "0.1.0"

__all__ = [
    "SqrtRational",
    "triangle_delta",
    "cg",
    "cg_block",
    "cg_float",
    "cg_zero",
    "wigner_d_matrix",
    "wigner_9j",
    "wigner_9j_spin1",
    "rotation_matrix",
    "SphereGrid",
    "IrrepCoeffs",
    "make_grid",
    "sh_eval",
    "to_sphere",
    "from_sphere",
    "gaunt_coefficient",
    "SpinSignal",
    "TshCoeffs",
    "tsh_eval",
    "tsh_encode",
    "tsh_decode",
    "tsh_orthonormality_check",
    "PathKey",
    "TpoResult",
    "NumericalDegeneracy",
    "cgtp_path",
    "cgtp_full",
    "pointwise_spin_tp",
    "istp",
    "gtp",
    "vstp",
    "simulate_cgtp_path",
    "RuleReport",
    "TriangleViolation",
    "NotInteractable",
    "generalized_gaunt",
    "vstp_rules",
    "find_valid_ells",
    "interactable",
    "expressivity_count",
    "__version__",
]
