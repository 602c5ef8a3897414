"""Symbolic-numeric verification of codimension-one webs of maximal rank.

A balanced set of generating webs assembles, by pullback along coordinate
projections, into one calibrated web per ambient dimension.  This package
certifies (at explicit sampled points, in exact rational arithmetic, mod a
prime for exp webs, or in extended floats) that the assembled webs are
ordinary and that their spaces of abelian relations reach the maximal
dimension, and exposes the whole pipeline through the `webrank` command
line.
"""

from .abelrank import RankEstimate, rank_estimate, verify_max_rank
from .catalog import FamilySpec, family_names, get_family
from .combin import (
    binom,
    calibrated_max_rank,
    calibration_order,
    exact_support_dims,
    max_rank_bound,
    monomial_count,
    verify_counting_identities,
)
from .expr import Expr, diff, evaluate, parse, to_text
from .jets import jet_matrix_from_gradients, square_block
from .ordinary import (
    GenericPointSampler,
    check_finite_criterion,
    check_ordinary_at,
    crosscheck_ordinary,
)
from .report import VerificationReport
from .scalars import EXACT, Mode
from .tpoly import taylor, vars_used
from .web import (
    AssembledWeb,
    BalancedSet,
    GeneratingWeb,
    assemble,
    balanced_set,
    cross_ratio_family,
    is_quasi_symmetric,
    load_balanced_set,
    multi_indices,
    validate_balanced,
)

__version__ = "0.1.0"
