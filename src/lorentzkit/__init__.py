"""Lorentz sequence space toolkit.

Power-law weight sequences, Lorentz norms on finitely supported vectors,
staggered block constructions, closed-form norm-equivalence constants, and
verification grids for the inequality catalog in :mod:`lorentzkit.verify`.
"""

from .weights import (
    THETA_MAX,
    THETA_MIN,
    PREFIX_CACHE_LIMIT,
    INDEX_LIMIT,
    WeightSequence,
)
from .space import (
    FiniteVector,
    SpaceParams,
    decreasing_rearrangement,
    disjoint_supports,
    lorentz_norm,
    lorentz_pnorm_pow,
    lorentz_pnorm_pow_runlength,
    lp_norm,
)
from .blocks import (
    BlockScheme,
    SchemeOverflowError,
    block_vector,
    corollary_scheme,
    expand,
    expand_runlength,
    staggered_family,
)
from .constants import (
    BlockCountSelection,
    EquivEstimate,
    GrowthCutoffError,
    NormDescriptor,
    averaged_norm_descriptor,
    domination_constant,
    equiv_to_lp_exact,
    lorentz_norm_descriptor,
    lp_norm_descriptor,
    section_ratio,
    select_block_counts,
)
from .verify import (
    DEFAULT_TOLERANCE,
    STATEMENT_IDS,
    InequalityInstance,
    VerificationReport,
    check_lemma_3_1,
    check_lemma_3_2,
    check_lemma_3_4_conditions,
    check_remark_3_3,
    check_theorem_3_5,
    run_grid,
    theorem_constants,
)

__version__ = "0.1.0"

__all__ = [
    "THETA_MAX",
    "THETA_MIN",
    "PREFIX_CACHE_LIMIT",
    "INDEX_LIMIT",
    "WeightSequence",
    "FiniteVector",
    "SpaceParams",
    "decreasing_rearrangement",
    "disjoint_supports",
    "lorentz_norm",
    "lorentz_pnorm_pow",
    "lorentz_pnorm_pow_runlength",
    "lp_norm",
    "BlockScheme",
    "SchemeOverflowError",
    "block_vector",
    "corollary_scheme",
    "expand",
    "expand_runlength",
    "staggered_family",
    "BlockCountSelection",
    "EquivEstimate",
    "GrowthCutoffError",
    "NormDescriptor",
    "averaged_norm_descriptor",
    "domination_constant",
    "equiv_to_lp_exact",
    "lorentz_norm_descriptor",
    "lp_norm_descriptor",
    "section_ratio",
    "select_block_counts",
    "DEFAULT_TOLERANCE",
    "STATEMENT_IDS",
    "InequalityInstance",
    "VerificationReport",
    "check_lemma_3_1",
    "check_lemma_3_2",
    "check_lemma_3_4_conditions",
    "check_remark_3_3",
    "check_theorem_3_5",
    "run_grid",
    "theorem_constants",
    "__version__",
]
