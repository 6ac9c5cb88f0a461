"""Per-layer tracing from outside the program.

The tracer replaces each public function of the five layer modules with a
wrapper, in every curvecount namespace that binds it: recipes and dsl import
sym_power, tensor_line, whitney_quotient and pb_integrate by name, chern
binds schubert.integrate as _grass_integrate, and SchubertCycle.__mul__ and
PBElement.__mul__ reach multiply and pb_multiply through module globals.  It
is installed only in a forked pass worker, so the process that forks the
passes keeps the untouched functions.

A tracer runs in one of two modes, because counting pairs costs about as
much as the products it counts:

* counting: call counts and work sizes, no timing;
* spans: one span per entry into a layer, with its parent, kept in memory.
  A call from a layer into the same layer (chern_tautological into
  schubert_class, sym_power into its helpers) stays inside the caller's
  span, so a span's self time is all the time its layer spent under that
  entry, and the self times of all spans add up to the time spent inside
  the five layers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("schubert", "chern", "projbundle", "recipes", "dsl")

# per-layer metric name -> span name, for the self-time metrics
SELF_TIME = {
    "schubert.multiply.self_s": "schubert.multiply",
    "chern.sym_power.self_s": "chern.sym_power",
    "chern.tensor_line.self_s": "chern.tensor_line",
    "chern.whitney_quotient.self_s": "chern.whitney_quotient",
    "chern.direct_sum.self_s": "chern.direct_sum",
    "projbundle.pb_multiply.self_s": "projbundle.pb_multiply",
    "projbundle.pb_integrate.self_s": "projbundle.pb_integrate",
    "recipes.lines.self_s": "recipes.lines_on_complete_intersection",
    "recipes.conics.self_s": "recipes.conics_on_quintic_type",
    "dsl.parse.self_s": "dsl.parse",
    "dsl.evaluate.self_s": "dsl.evaluate",
    "dsl.render.self_s": "dsl.render",
}
CALLS = {
    "schubert.multiply.calls": "schubert.multiply",
    "chern.sym_power.calls": "chern.sym_power",
    "projbundle.pb_multiply.calls": "projbundle.pb_multiply",
}


class Tracer:
    def __init__(self, counting: bool):
        self.counting = counting
        self.calls = {}
        self.pairs = 0
        self.distinct = set()
        self.terms_max = 0
        self.rank_max = 0
        self.spans = []  # [id, parent id or -1, name, start, end]
        self._open = []  # (span id, layer) of the spans now running

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "curvecount" or name.startswith("curvecount."))]
        for layer in LAYERS:
            module = sys.modules[f"curvecount.{layer}"]
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isroutine(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(layer, f"{layer}.{fname}", fn)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, attr, wrapper)

    def _wrap(self, layer, name, fn):
        if self.counting:
            return self._counting_wrapper(name, fn)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if open_ and open_[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = len(spans)
            record = [sid, open_[-1][0] if open_ else -1, name, 0.0, 0.0]
            spans.append(record)
            open_.append((sid, layer))
            record[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                open_.pop()

        return span

    def _counting_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if name == "schubert.multiply":
                self._count_product(*args, result)
            elif name == "chern.sym_power":
                self.rank_max = max(self.rank_max, result.rank)
            return result

        return count

    def _count_product(self, x, y, result) -> None:
        xt, yt = x.terms, y.terms
        self.pairs += len(xt) * len(yt)
        self.terms_max = max(self.terms_max, len(xt), len(yt), len(result.terms))
        ctx = (x.ctx.k, x.ctx.n)
        for lam in xt:
            for mu in yt:
                self.distinct.add(ctx + ((lam, mu) if lam <= mu else (mu, lam)))

    def counts(self) -> dict:
        out = {metric: self.calls.get(name, 0) for metric, name in CALLS.items()}
        out["schubert.pairs"] = self.pairs
        out["schubert.pairs.distinct"] = len(self.distinct)
        out["schubert.pairs.reuse"] = 1 - len(self.distinct) / self.pairs if self.pairs else 0.0
        out["schubert.terms.max"] = self.terms_max
        out["chern.sym_power.rank.max"] = self.rank_max
        return out

    def self_times(self) -> dict:
        """Seconds per self-time metric: each span's duration minus that
        of its child spans, summed by span name."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        by_name = {}
        for (_, _, name, _, _), seconds in zip(self.spans, own):
            by_name[name] = by_name.get(name, 0.0) + seconds
        return {metric: by_name.get(name, 0.0) for metric, name in SELF_TIME.items()}

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
