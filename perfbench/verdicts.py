"""Stored ``member`` verdicts, computed with sympy instead of kuroda.

A PI3 expression ``f`` lies in the ring when every monomial of its
expansion under ``P_i = y_i - y_4`` lies in the exponent monoid.  Here the
expansion is done by ``sympy.expand`` and the monoid test is the
benchmark's own :func:`inputs.in_monoid`, so no kuroda code decides a
stored verdict.

Regenerate ``verdicts.json`` (only when the entry rules below change) with::

    PYTHONPATH=src python3 perfbench/verdicts.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

COUNT = 48
_EXTRA = ("(P1-P2)", "(P2-P3)", "(P3-P1)", "(P1+P2-2*P3)", "P1", "(P2+P3)")


def sympy_in_r(expr: str, config: dict) -> bool:
    """Ring membership of ``expr`` under ``config`` by sympy expansion."""
    import sympy

    from kuroda.config import KurodaConfig

    y = sympy.symbols("y1:5")
    subs = {f"P{i}": y[i - 1] - y[3] for i in (1, 2, 3)}
    poly = sympy.Poly(sympy.expand(sympy.sympify(expr.replace("^", "**"), locals=subs)), *y)
    cfg = KurodaConfig.from_dict(config)
    return all(inputs.in_monoid(m[:3], cfg) for m in poly.monoms())


def build(seed: int = 2011) -> list[dict]:
    """Half members, half not: member-block sums times an optional extra factor."""
    rng = random.Random(seed)
    want = {True: COUNT // 2, False: COUNT // 2}
    out = []
    while any(want.values()):
        cfg = inputs.draw_config(rng, accept=lambda c: bool(inputs.member_blocks(c)))
        extra = rng.choice((None,) + _EXTRA)
        degree = rng.randint(6, 8) - (extra is not None)
        expr = inputs.member_expression(rng, inputs.member_blocks(cfg), degree)
        if extra is not None:
            expr = f"({expr})*{extra}"
        verdict = sympy_in_r(expr, cfg.to_dict())
        if want[verdict]:
            want[verdict] -= 1
            out.append({"expr": expr, "config": cfg.to_dict(), "in_r": verdict})
    return out


if __name__ == "__main__":
    with open(HERE / "verdicts.json", "w", encoding="utf-8") as fh:
        json.dump(build(), fh, indent=1)
        fh.write("\n")
