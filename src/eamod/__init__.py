"""Exact modular representation toolkit for elementary abelian p-groups.

Modules are tuples of commuting nilpotent matrices over a finite field;
the package computes Jordan types, rank-variety point sets over finite
extensions, generic/maximal types, module constructions and the
symmetric-group restrictions D(r), with a CLI and verification suites.
"""

from .gf import FieldCtx, Fel, field_create, poly_is_irreducible
from .linalg import (
    Dominance,
    JordanType,
    MatF,
    canonical_nilpotent,
    dominance_compare,
)
from .modrep import (
    EAModule,
    Point,
    Symmetry,
    direct_sum,
    dual,
    endomorphism_basis,
    fitting_decompose,
    induce,
    is_free_at,
    jordan_type_nilpotent,
    lift_to_extension,
    linear_variety_module,
    point_jordan_type,
    projective_test,
    regular_module,
    restrict_to_subgroup,
    tensor,
    trivial_module,
    validate,
    wedge,
    wedge_jordan,
    x_alpha,
)
from .symrep import (
    PkPoly,
    SymContext,
    basis_change_check,
    block_model_d1,
    d_r,
    perm_model_d1,
    rank_lemma_check,
)
from .variety import (
    PointSetReport,
    compare_sets,
    count_affine_zeros,
    dimension_estimate,
    dv_rank2_builder,
    generic_type,
    green_witness,
    variety_points,
    zero_points,
)

__version__ = "0.1.0"
