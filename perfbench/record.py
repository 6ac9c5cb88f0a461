"""Regenerate expected.json, the answers the benchmark cannot derive
independently, from the current source tree.

Run it only at a commit whose answers are trusted (the values in the file
were recorded at the commit that introduced the benchmark); a later change
to the engine must match them, not re-record them.

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import curvecount as cc  # noqa: E402
import workloads  # noqa: E402

WHICH = {"S": "sub", "Sdual": "sub_dual", "Q": "quotient"}


def main() -> int:
    chern = {}
    for k, n, bundle, m in workloads.sym_bundles():
        ring = cc.GrassRing(cc.GrassCtx(k, n))
        power = cc.sym_power(ring.tautological(WHICH[bundle]), m)
        top = min(power.rank, ring.top_degree)
        chern[f"{bundle}|{m}|{k},{n}"] = [
            [[list(lam), c] for lam, c in power.c(i).items()] for i in range(1, top + 1)
        ]
    proj = {}
    for context in workloads.P_CONTEXTS:
        for text in workloads.p_queries(*context):
            proj[text] = cc.evaluate(text).rendered
    planes = {}
    for k, n, m in workloads.PLANES:
        ring = cc.GrassRing(cc.GrassCtx(k, n))
        power = cc.sym_power(ring.tautological("sub_dual"), m)
        planes[f"{k},{n},{m}"] = str(ring.integrate(power.c(power.rank)))
    with workloads.EXPECTED_FILE.open("w") as fh:
        json.dump({"planes": planes, "chern": chern, "proj": proj}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(chern)} Chern tables, {len(proj)} P(E) answers, {len(planes)} plane counts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
