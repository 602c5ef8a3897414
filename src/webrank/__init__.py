"""Symbolic-numeric verification of codimension-one webs of maximal rank.

A balanced set of generating webs assembles, by pullback along coordinate
projections, into one calibrated web per ambient dimension.  This package
certifies (at explicit sampled points, in exact rational arithmetic, mod a
prime for exp webs, or in extended floats) that the assembled webs are
ordinary and that their spaces of abelian relations reach the maximal
dimension, and exposes the whole pipeline through the `webrank` command
line.

`import webrank` loads none of its modules: each name below, and each
submodule as an attribute (`webrank.linalg`), is imported on first access
(PEP 562), so `from webrank import catalog` loads the catalog and the web
layer it builds on but not the rank engine (`abelrank`, `ordinary`, `jets`,
`linalg`).  `webrank.cli` imports every engine module at its top.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_MODULES = {
    "abelrank": ("RankEstimate", "rank_estimate", "verify_max_rank"),
    "catalog": ("FamilySpec", "family_names", "get_family"),
    "cli": (),
    "combin": (
        "binom",
        "calibrated_max_rank",
        "calibration_order",
        "exact_support_dims",
        "max_rank_bound",
        "monomial_count",
        "verify_counting_identities",
    ),
    "expr": ("Expr", "diff", "evaluate", "parse", "to_text"),
    "frozen": (),
    "jets": ("jet_matrix_from_gradients", "square_block"),
    "linalg": (),
    "ordinary": (
        "GenericPointSampler",
        "check_finite_criterion",
        "check_ordinary_at",
        "crosscheck_ordinary",
    ),
    "report": ("VerificationReport",),
    "scalars": ("EXACT", "Mode"),
    "tpoly": ("taylor", "vars_used"),
    "web": (
        "AssembledWeb",
        "BalancedSet",
        "GeneratingWeb",
        "assemble",
        "balanced_set",
        "cross_ratio_family",
        "is_quasi_symmetric",
        "load_balanced_set",
        "multi_indices",
        "validate_balanced",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *_EXPORTS})
