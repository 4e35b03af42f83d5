"""Exact workbench for twisted group rings and noisy linear cellular
automata over Z^d and free groups."""

from .errors import FormatError, UsageError
from .exactalg import FieldSpec, Matrix, Subspace, kernel_basis, rank, solve
from .groupring import GroupRingElement, matrix_shuffle, matrix_unshuffle
from .groups import FiniteSubset, GroupSpec
from .invert import (
    InjectivityVerdict,
    InverseSearchParams,
    KernelTowerReport,
    SearchBudget,
    finitely_supported_kernel,
    kernel_tower,
    search_left_inverse,
    search_one_sided_inverse,
    solve_one_sided_inverse,
    stable_injectivity_verdict,
    verify_identity,
)
from .nuca import Configuration, InducedLocalMap, LocalRule, Nuca, Pattern
from .twisted import (
    TwistedElement,
    TwistedMatrix,
    embed,
    f_shuffle,
    f_shuffle_inv,
)
from .experiments import (
    SuiteConfig,
    SuiteReport,
    gen_unit,
    run_direct_finiteness,
    run_surjunctivity_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "FieldSpec",
    "FiniteSubset",
    "FormatError",
    "GroupRingElement",
    "GroupSpec",
    "InducedLocalMap",
    "InjectivityVerdict",
    "InverseSearchParams",
    "KernelTowerReport",
    "LocalRule",
    "Matrix",
    "Nuca",
    "Pattern",
    "SearchBudget",
    "Subspace",
    "SuiteConfig",
    "SuiteReport",
    "TwistedElement",
    "TwistedMatrix",
    "UsageError",
    "embed",
    "f_shuffle",
    "f_shuffle_inv",
    "finitely_supported_kernel",
    "gen_unit",
    "kernel_basis",
    "kernel_tower",
    "matrix_shuffle",
    "matrix_unshuffle",
    "rank",
    "run_direct_finiteness",
    "run_surjunctivity_pipeline",
    "search_left_inverse",
    "search_one_sided_inverse",
    "solve",
    "solve_one_sided_inverse",
    "stable_injectivity_verdict",
    "verify_identity",
]
