"""Lorentz sequence space toolkit.

Power-law weight sequences, Lorentz norms on finitely supported vectors,
staggered block constructions, closed-form norm-equivalence constants, and
verification grids for the inequality catalog in :mod:`lorentzkit.verify`.

Importing the package imports none of its modules: each exported name is
imported from its module on first use, so a program (the command line among
them) loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: each exported name's module
_EXPORTS = {
    **dict.fromkeys((
        "THETA_MAX", "THETA_MIN", "PREFIX_CACHE_LIMIT", "INDEX_LIMIT", "WeightSequence",
    ), "weights"),
    **dict.fromkeys((
        "FiniteVector", "SpaceParams", "decreasing_rearrangement", "disjoint_supports",
        "lorentz_norm", "lorentz_pnorm_pow", "lorentz_pnorm_pow_runlength", "lp_norm",
    ), "space"),
    **dict.fromkeys((
        "BlockScheme", "SchemeOverflowError", "block_vector", "corollary_scheme", "expand",
        "expand_runlength", "staggered_family",
    ), "blocks"),
    **dict.fromkeys((
        "BlockCountSelection", "EquivEstimate", "GrowthCutoffError", "NormDescriptor",
        "averaged_norm_descriptor", "domination_constant", "equiv_to_lp_exact",
        "lorentz_norm_descriptor", "lp_norm_descriptor", "section_ratio",
        "select_block_counts",
    ), "constants"),
    "DEFAULT_TOLERANCE": "options",
    **dict.fromkeys((
        "STATEMENT_IDS", "InequalityInstance", "VerificationReport", "check_lemma_3_1",
        "check_lemma_3_2", "check_lemma_3_4_conditions", "check_remark_3_3",
        "check_theorem_3_5", "run_grid", "theorem_constants",
    ), "verify"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
