"""Embeddings of regular 4-set systems.

Given an r-factorization of the lam-fold complete 4-uniform system on m
vertices, decide whether it extends to an s-factorization on n vertices,
plan the extension color by color, and construct an explicit certificate.

All arithmetic is exact integer arithmetic (``math.comb``); a
``fractions.Fraction`` appears only in the ``Verdict`` witnesses of a
``check`` report (``bounds`` prints its ratios from integer rows).  The
inequalities decided here are sharp at many boundary tuples, so floating
point is banned everywhere.
"""

from .bounds import AmalgamCase, global_bounds, per_color_bounds, tier_bounds
from .detach import detach, generate_base
from .errors import ConditionsFailed, FormatError, InputError, PlanInfeasible
from .factorization import (
    EmbeddingCertificate,
    Factorization,
    certificate_issues,
    factorization_issues,
    is_valid_factorization,
    parse_factorization,
    read_factorization,
    render_factorization,
    verify_certificate,
)
from .intervals import IntervalSystem
from .params import (
    ConditionReport,
    EmbeddingParams,
    TheoremCase,
    Verdict,
    check_conditions,
    color_counts,
    is_admissible,
)
from .planner import (
    AmalgamPlan,
    build_plan,
    extend_plan,
    plan_e,
    plan_f,
    plan_to_json,
    render_plan,
    totals,
    verify_plan,
)

__version__ = "0.1.0"
