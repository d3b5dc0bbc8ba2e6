"""easyqg: exact combinatorics of free easy quantum group fixed points.

Partition categories and their linear realizations, fusion rings, the
conditions controlling Kirchberg fixed-point algebras, and the
inductive-limit K-theory computation, all in exact arithmetic.
"""

from .categories import (
    PartitionCategorySample,
    family_category,
    family_generators,
    generate_category,
    k_param,
)
from .conditions import (
    ConditionReport,
    check_c1,
    check_c2,
    check_c2_partition_proxy,
    classify_cp,
    cp2_witness,
    evaluate_conditions,
)
from .errors import (
    BoundTooSmall,
    ColorMismatch,
    EasyQGError,
    EmptyRow,
    InconsistentDimension,
    IndexOutOfRange,
    MissingSubprojectives,
    ModulusMismatch,
    NotProjective,
    NotReachable,
    OddLabel,
    ParseError,
    PreconditionError,
    ShapeMismatch,
    SizeOverflow,
    WrongFamily,
)
from .fusion import (
    FusionRing,
    HWordRing,
    SO3Ring,
    SU2Ring,
    chain_group_order,
    get_ring,
)
from .ktheory import (
    FGAbelianGroup,
    IntMatrix,
    InductiveLimitReport,
    LevelModule,
    bareiss_determinant,
    build_levels,
    check_diagram_commutes,
    invariant_factors,
    k_groups,
    phi_structure_check,
    smith_normal_form,
)
from .partitions import (
    BLACK,
    WHITE,
    ColoredPartition,
    b_block,
    color_counts,
    compose,
    empty_partition,
    four_block_wwbb,
    identity,
    identity_power,
    involute,
    is_noncrossing,
    is_projective,
    lower_pair,
    one_block,
    parse_partition,
    precedes,
    rotate,
    singleton,
    tensor,
    to_literal,
    vertical_pair,
)
from .tmaps import (
    ExactMatrix,
    ProjectionReport,
    check_functoriality,
    cp1_witness_check,
    delta_p,
    intertwiner_dim,
    matrix_rank,
    projective_projection,
    t_map,
)

__version__ = "0.1.0"
