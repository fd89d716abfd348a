"""Exact verification of finite groupoid actions on products of finite
field blocks: invariants, Galois coordinates, skew groupoid rings, the
set/algebra equivalence and the subgroupoid correspondence."""

from .scalar import FieldSpec, LinearSystem, make_field, frobenius, solve_linear
from .groupoid import (
    Groupoid,
    SubgroupoidSpec,
    validate_groupoid,
    is_wide_subgroupoid,
    enumerate_wide_subgroupoids,
    left_transversal,
    quotient_gset,
    regular_gset,
)
from .gset import GSet, GMap, validate_gset, check_gmap, gset_isomorphic
from .blockring import (
    BlockRing,
    IdealRef,
    Idempotent,
    make_ring,
    ring_arith,
    idempotents_of,
    is_faithful_ideal,
    faithfulness_criterion,
)
from .action import (
    AlgebraAction,
    GaloisCoordinates,
    Subalgebra,
    Submodule,
    validate_action,
    apply_beta,
    invariants,
    trace,
    find_galois_coordinates,
    check_galois_coordinates,
    skew_element,
    skew_add,
    skew_mul,
    skew_identity,
    verify_skew_ring,
    module_invariants_check,
    stabilizer,
    subalgebra_closure,
)
from .mapalg import (
    MapSpace,
    MapAlgebra,
    InvariantAlgebra,
    HomRecord,
    function_algebra,
    invariant_algebra,
    evaluation_hom,
    eval_hom_family,
    build_eval_gset,
    eval_iso_check,
    hom_set,
    transversal_hom_family,
    tensor_split_check,
    hom_gset_check,
    double_dual_check,
    quotient_iso_pair,
    grothendieck_set_check,
    grothendieck_algebra_check,
    require_faithful_hypotheses,
)
from .galois import (
    strongly_distinct,
    pairwise_strongly_distinct,
    dual_basis_solve,
    freeness_check,
    tri_equivalence_check,
    rank_profile,
    RankProfile,
    separability_idempotent,
    SeparabilityIdempotent,
    associated_idempotent,
    coords_from_separability,
    is_beta_strong,
    strong_subalgebra_check,
    galois_correspondence,
    CorrespondenceTable,
)
from .errors import HypothesisFailure, ValidationError

__version__ = "0.1.0"
