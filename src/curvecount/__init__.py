"""Exact curve counts on threefolds via Schubert calculus and Chern class
integrals over Grassmannians and projective bundles.

The engine modules load with the package.  The check suites load on first
access to one of their names (CheckResult, run_suite), so a process that
never runs a check never compiles them; SUITE_NAMES, the names run_suite
takes, is declared here, so that the command line can list them without
loading the suites.
"""

from .chern import (
    ChernVector,
    GrassRing,
    direct_sum,
    dual_bundle,
    segre,
    sym_power,
    tensor_line,
    whitney_quotient,
)
from .dsl import DSLError, EvalError, EvalResult, ParseError, Query, evaluate, parse, render
from .projbundle import PBElement, ProjBundleRing, pb_integrate, pb_multiply, pb_pushforward
from .recipes import (
    ClemensCount,
    CountReport,
    DegenerationLedger,
    LedgerComponent,
    LedgerReport,
    NormalBundleSplit,
    builtin_ledgers,
    clemens_excess,
    conics_on_complete_intersection,
    conics_on_quintic_type,
    equivalence_unobstructed,
    equivalence_zero_dim,
    ledger_check,
    lines_on_complete_intersection,
    load_ledger_file,
    multiple_cover_weight,
    normal_bundle_classify,
    reference_counts,
)
from .schubert import (
    GrassCtx,
    Partition,
    SchubertCycle,
    chern_tautological,
    dual_partition,
    integrate,
    lr_coefficient,
    multiply,
    multiply_lr,
    pieri,
    schubert_class,
)

__version__ = "0.1.0"

SUITE_NAMES = ("classical", "properties", "all")

__all__ = [
    "ChernVector",
    "CheckResult",
    "ClemensCount",
    "CountReport",
    "DSLError",
    "DegenerationLedger",
    "EvalError",
    "EvalResult",
    "GrassCtx",
    "GrassRing",
    "LedgerComponent",
    "LedgerReport",
    "NormalBundleSplit",
    "PBElement",
    "ParseError",
    "Partition",
    "ProjBundleRing",
    "Query",
    "SchubertCycle",
    "SUITE_NAMES",
    "builtin_ledgers",
    "chern_tautological",
    "clemens_excess",
    "conics_on_complete_intersection",
    "conics_on_quintic_type",
    "direct_sum",
    "dual_bundle",
    "dual_partition",
    "equivalence_unobstructed",
    "equivalence_zero_dim",
    "evaluate",
    "integrate",
    "ledger_check",
    "lines_on_complete_intersection",
    "load_ledger_file",
    "lr_coefficient",
    "multiple_cover_weight",
    "multiply",
    "multiply_lr",
    "normal_bundle_classify",
    "parse",
    "pb_integrate",
    "pb_multiply",
    "pb_pushforward",
    "pieri",
    "reference_counts",
    "render",
    "run_suite",
    "schubert_class",
    "segre",
    "sym_power",
    "tensor_line",
    "whitney_quotient",
    "__version__",
]

_SUITE_EXPORTS = ("CheckResult", "run_suite")


def __getattr__(name):
    if name in _SUITE_EXPORTS:
        from . import suites

        value = getattr(suites, name)
        globals()[name] = value  # later lookups skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUITE_EXPORTS))
