"""Exact curve counts on threefolds via Schubert calculus and Chern class
integrals over Grassmannians and projective bundles.

The engine modules and the count recipes load with the package.  Two
modules load on first access to one of their names, listed in _LAZY: the
family and degeneration bookkeeping (curvecount.bookkeeping) and the check
suites with the Littlewood-Richardson cross-check (curvecount.suites).  A
process that only counts never compiles them.  SUITE_NAMES, the names
run_suite takes, is declared here, so that the command line can list them
without loading the suites.
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
    CountReport,
    conics_on_complete_intersection,
    conics_on_quintic_type,
    lines_on_complete_intersection,
)
from .schubert import (
    GrassCtx,
    Partition,
    SchubertCycle,
    chern_tautological,
    dual_partition,
    integrate,
    multiply,
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

# each name of a module that loads on first use, mapped to that module
_LAZY = {
    **dict.fromkeys(("ClemensCount", "DegenerationLedger", "LedgerComponent", "LedgerReport",
                     "NormalBundleSplit", "builtin_ledgers", "clemens_excess", "equivalence_unobstructed",
                     "equivalence_zero_dim", "ledger_check", "load_ledger_file", "multiple_cover_weight",
                     "normal_bundle_classify", "reference_counts"), "bookkeeping"),
    **dict.fromkeys(("CheckResult", "lr_coefficient", "multiply_lr", "run_suite"), "suites"),
}


def __getattr__(name):
    if name in _LAZY:
        module = __import__(f"{__name__}.{_LAZY[name]}", fromlist=[name])  # the submodule itself
        value = getattr(module, name)
        globals()[name] = value  # later lookups skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
