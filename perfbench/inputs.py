"""Seeded inputs for the four workloads.

Everything here depends only on the workload name and the seed: one seed
gives the same configs, expressions and sample seeds every time.  The
program under test sees only the generated inputs.

Each workload is a fixed *rotation* of op slots.  A run executes whole
rotations ("rounds"), so every run holds the same mix of op kinds whatever
the seed or the machine speed, and its medians and tail percentiles fall
inside the same slot class from run to run.

Configs are drawn by rejection on the exact validity condition of
:mod:`kuroda.config`.  Expected ``member`` verdicts are certified here,
without kuroda's membership code:

* a product of linear forms whose P-coefficients are all nonzero contains
  ``P1**deg`` and hence ``y1**deg``, which no valid config admits, so it is
  never a member;
* a sum of products of blocks ``(P1-P2)**a (P2-P3)**b (P3-P1)**c`` is a
  member when every block is, because the exponent monoid is closed under
  addition; each block is checked by expanding it in ``y`` below;
* one slot per round takes an entry of ``verdicts.json``, whose verdicts
  were computed with sympy (see ``verdicts.py``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from kuroda.config import KurodaConfig, condition_value, euclid_tower

HERE = Path(__file__).resolve().parent

# The valid symmetric config with diagonal 1 and off-diagonal 300: weights
# this large overflow the float layer's escape sequence (known defect a).
BIG_CONFIG = {"delta": [[-1, 300, 300, 0], [300, -1, 300, 0], [300, 300, -1, 0]], "gamma": 1}

# Symmetric configs pass ``sandwich --samples 200`` while off/diag <= 4; from
# about 4.5 on ``in_s`` answers OUT for points that are inside (known defect
# b), and drawn asymmetric configs hit the same defect almost always.
SANDWICH_RATIO_OK = 4
SANDWICH_RATIO_DEFECT = (5, 8)

_NONZERO = (-3, -2, -1, 1, 2, 3)
_PAIRS = ((1, 2), (2, 3), (3, 1))


# -- configs --------------------------------------------------------------


def draw_config(rng: random.Random, accept=None, diag=(1, 7), off=(1, 60)) -> KurodaConfig:
    """A valid config: diagonals and off-diagonals uniform in their ranges."""
    while True:
        rows = []
        for i in range(3):
            row = [rng.randint(*off) for _ in range(3)] + [rng.randint(0, 4)]
            row[i] = -rng.randint(*diag)
            rows.append(row)
        config = KurodaConfig.from_signed(rows, rng.randint(1, 3))
        if condition_value(config) < 1 and (accept is None or accept(config)):
            return config


def draw_symmetric(rng: random.Random, ratio: tuple[float, float]) -> KurodaConfig:
    """A valid config with one diagonal and one off-diagonal magnitude, off/diag in ``ratio``."""
    while True:
        diag = rng.randint(1, 7)
        off = rng.randint(2 * diag + 1, 8 * diag)
        if not ratio[0] <= off / diag <= ratio[1]:
            continue
        rows = [[off, off, off, rng.randint(0, 4)] for _ in range(3)]
        for i in range(3):
            rows[i][i] = -diag
        config = KurodaConfig.from_signed(rows, rng.randint(1, 3))
        if condition_value(config) < 1:
            return config


def tower_length(config: KurodaConfig) -> int:
    """Number of tower indices 0..N over the three axes."""
    return sum(ax.n_total + 1 for ax in euclid_tower(config).axes)


# -- expressions ----------------------------------------------------------


def _linear_text(coeffs, names) -> str:
    text = ""
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        mag = abs(c)
        body = name if name and mag == 1 else (f"{mag}*{name}" if name else str(mag))
        if not text:
            text = body if c > 0 else f"-{body}"
        else:
            text += f" + {body}" if c > 0 else f" - {body}"
    return text or "0"


def dense_product(rng: random.Random, degree: int) -> str:
    """Product of ``degree`` linear forms, all P-coefficients nonzero, one constant.

    Its support is the same for every draw, so the cost of an op on it does
    not depend on the seed.
    """
    factors = []
    for n in range(degree):
        coeffs = [rng.choice(_NONZERO) for _ in range(3)]
        coeffs.append(rng.choice(_NONZERO) if n == 0 else 0)
        factors.append("(" + _linear_text(coeffs, ("P1", "P2", "P3", "")) + ")")
    return "*".join(factors)


def _difference_power_y(exps) -> dict[tuple[int, int, int], int]:
    """y-expansion of prod (y_i - y_j)**e over the pairs (1,2), (2,3), (3,1)."""
    poly = {(0, 0, 0): 1}
    for (i, j), e in zip(_PAIRS, exps):
        for _ in range(e):
            nxt: dict[tuple[int, int, int], int] = {}
            for mono, c in poly.items():
                for var, sign in ((i, 1), (j, -1)):
                    key = tuple(m + (k == var - 1) for k, m in enumerate(mono))
                    nxt[key] = nxt.get(key, 0) + sign * c
            poly = {k: v for k, v in nxt.items() if v}
    return poly


def in_monoid(n, config: KurodaConfig) -> bool:
    """delta_ii * n_i <= delta_ji * n_j + delta_ki * n_k on every axis."""
    for i in (1, 2, 3):
        j, k = (t for t in (1, 2, 3) if t != i)
        lhs = config.magnitude(i, i) * n[i - 1]
        if lhs > config.magnitude(j, i) * n[j - 1] + config.magnitude(k, i) * n[k - 1]:
            return False
    return True


def member_blocks(config: KurodaConfig) -> list[tuple[int, int, int]]:
    """Exponents (a, b, c), degree 3 or 4, whose difference block is a member."""
    out = []
    for a in range(1, 3):
        for b in range(1, 3):
            for c in range(1, 3):
                if a + b + c <= 4 and all(
                    in_monoid(n, config) for n in _difference_power_y((a, b, c))
                ):
                    out.append((a, b, c))
    return out


def member_expression(rng: random.Random, blocks, degree: int) -> str:
    """Sum of two products of member blocks, the first of total ``degree``."""
    terms = []
    for t in range(2):
        pair = [b1 + b2 for b1, b2 in zip(rng.choice(blocks), rng.choice(blocks))]
        for _ in range(100):
            if t or sum(pair) == degree:
                break
            pair = [b1 + b2 for b1, b2 in zip(rng.choice(blocks), rng.choice(blocks))]
        factors = "*".join(f"(P{i}-P{j})^{e}" for (i, j), e in zip(_PAIRS, pair))
        terms.append(f"{rng.choice(_NONZERO)}*{factors}")
    return " + ".join(terms).replace("+ -", "- ")


def monoid_monomial(rng: random.Random, config: KurodaConfig) -> str:
    """A Y4 monomial of degree 2..5 in the exponent monoid (probe bound applies)."""
    while True:
        exps = [rng.randint(0, 2) for _ in range(4)]
        if 2 <= sum(exps) <= 5 and in_monoid(exps[:3], config):
            return "*".join(f"Y{i + 1}^{e}" for i, e in enumerate(exps) if e)


# -- workloads ------------------------------------------------------------


class _Round:
    """Collects the ops of one round; configs are shared through the document."""

    def __init__(self, configs: list[dict]):
        self.configs = configs
        self.ops: list[dict] = []

    def add(self, kind, args, config, slot, **expect):
        cfg = config if isinstance(config, dict) else config.to_dict()
        self.configs.append(cfg)
        self.ops.append({
            "kind": kind,
            "args": [str(a) for a in args],
            "config": len(self.configs) - 1,
            "slot": slot,
            "expect": expect,
        })


def _member_config(rng):
    return draw_config(rng, accept=lambda c: bool(member_blocks(c)))


def member_exact_round(rng: random.Random, out: _Round, stored: list) -> None:
    """Ten slots: two certified members, one stored verdict, seven dense products."""
    for slot in ("M", "F", 6, 7, 8, "M", 7, 8, 7, 8):
        if slot == "M":
            cfg = _member_config(rng)
            expr = member_expression(rng, member_blocks(cfg), rng.randint(6, 8))
            out.add("member", ["--expr", expr], cfg, "member", in_r=True)
        elif slot == "F":
            if not stored:
                stored.extend(load_stored_verdicts())
                rng.shuffle(stored)
            entry = stored.pop()
            out.add("member", ["--expr", entry["expr"]], entry["config"], "stored",
                    in_r=entry["in_r"])
        else:
            out.add("member", ["--expr", dense_product(rng, slot)], draw_config(rng),
                    f"dense{slot}", in_r=False)


def tower_queries_round(rng: random.Random, out: _Round) -> None:
    """Eight query kinds, each on a fresh config with 15..90 tower indices.

    The expressions are degree-3 dense products, a fixed support of 16 terms.
    """

    def fresh():
        return draw_config(rng, accept=lambda c: 15 <= tower_length(c) <= 90)

    def axis():
        return rng.randint(1, 3)

    def triple():
        return ["--r1", rng.randint(0, 8), "--r2", rng.randint(0, 8), "--r3", rng.randint(0, 8)]

    out.add("validate", [], fresh(), "validate")
    out.add("tower", [], fresh(), "tower")
    out.add("generators", ["--degree-bound", 10], fresh(), "generators")
    out.add("cond", [*triple(), "--axis", axis()], fresh(), "cond_triple")
    out.add("cond", ["--expr", dense_product(rng, 3), "--axis", axis()], fresh(), "cond_expr")
    out.add("pullback", ["--axis", axis()], fresh(), "pullback")
    out.add("pullback", ["--axis", axis(), *triple()], fresh(), "pullback_triple")
    out.add("member", ["--expr", dense_product(rng, 3)], fresh(), "member_small", in_r=False)


def regions_sampling_round(rng: random.Random, out: _Round) -> None:
    """Probes and clouds on drawn configs, plus three slots on the big config."""

    def seed():
        return rng.randrange(2**31)

    probe = ["--samples", 20000]
    cfg = draw_config(rng)
    out.add("probe", ["--expr", monoid_monomial(rng, cfg), "--region", "sprime", *probe,
                      "--seed", seed(), "--kmax", 2000], cfg, "probe_sprime")
    out.add("probe", ["--expr", dense_product(rng, 3), "--region", "s", *probe,
                      "--seed", seed(), "--kmax", 2000], draw_config(rng), "probe_s")
    out.add("probe", ["--expr", dense_product(rng, 3), "--region", "stilde", *probe,
                      "--seed", seed(), "--kmax", 0], draw_config(rng), "probe_stilde")
    out.add("cloud", ["--which", "sdoubleprime", "--grid", 48], draw_config(rng), "cloud_sdp")
    out.add("cloud", ["--which", "stilde", "--grid", 48], draw_config(rng), "cloud_stilde")
    big = KurodaConfig.from_dict(BIG_CONFIG)
    out.add("probe", ["--expr", monoid_monomial(rng, big), "--region", "sprime", *probe,
                      "--seed", seed(), "--kmax", 2000], big, "big_probe_sprime")
    out.add("probe", ["--expr", dense_product(rng, 3), "--region", "stilde", *probe,
                      "--seed", seed(), "--kmax", 0], big, "big_probe_stilde")
    out.add("cloud", ["--which", "stilde", "--grid", 48], big, "big_cloud_stilde")


def regions_sandwich_round(rng: random.Random, out: _Round) -> None:
    """Six sandwich checks: four below the in_s defect ratio, two that reach it."""
    for slot in ("sym_ok", "sym_ok", "sym_defect", "sym_ok", "drawn", "sym_ok"):
        if slot == "sym_ok":
            cfg = draw_symmetric(rng, (2, SANDWICH_RATIO_OK))
        elif slot == "sym_defect":
            cfg = draw_symmetric(rng, SANDWICH_RATIO_DEFECT)
        else:
            cfg = draw_config(rng)
        out.add("sandwich", ["--samples", 200, "--seed", rng.randrange(2**31)], cfg, slot)


# Nominal seconds per round at the seed commit; a document holds enough
# rounds for a run several times faster than that.
ROUND_SECONDS = {
    "member_exact": 2.0,
    "tower_queries": 0.1,
    "regions_sampling": 0.6,
    "regions_sandwich": 0.45,
}
SPEED_MARGIN = 4

WORKLOADS = tuple(ROUND_SECONDS)


def load_stored_verdicts() -> list[dict]:
    with open(HERE / "verdicts.json", encoding="utf-8") as fh:
        return json.load(fh)


def rounds_for(workload: str, seconds: float) -> int:
    return int(seconds * SPEED_MARGIN / ROUND_SECONDS[workload]) + 1


def generate(workload: str, seed: int, rounds: int) -> dict:
    """Input document of one run: a warm-up round followed by ``rounds`` timed rounds."""
    if workload not in ROUND_SECONDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    configs: list[dict] = []
    ops: list[dict] = []
    stored: list[dict] = []
    round_len = None
    for _ in range(rounds + 1):
        out = _Round(configs)
        if workload == "member_exact":
            member_exact_round(rng, out, stored)
        else:
            {
                "tower_queries": tower_queries_round,
                "regions_sampling": regions_sampling_round,
                "regions_sandwich": regions_sandwich_round,
            }[workload](rng, out)
        round_len = len(out.ops)
        ops.extend(out.ops)
    return {
        "workload": workload,
        "seed": seed,
        "round_len": round_len,
        "configs": configs,
        "ops": ops,
    }


def summary(doc: dict, executed: int) -> dict:
    """What the executed part of a run drew: configs, tower lengths, member share."""
    ops = doc["ops"][:executed]
    used = sorted({op["config"] for op in ops})
    lengths = sorted(tower_length(KurodaConfig.from_dict(doc["configs"][i])) for i in used)
    members = [op for op in ops if "in_r" in op["expect"]]
    return {
        "ops": len(ops),
        "round_len": doc["round_len"],
        "distinct_configs": len({json.dumps(doc["configs"][i], sort_keys=True) for i in used}),
        "tower_length_min": lengths[0] if lengths else None,
        "tower_length_median": lengths[len(lengths) // 2] if lengths else None,
        "tower_length_max": lengths[-1] if lengths else None,
        "member_share": (
            sum(1 for op in members if op["expect"]["in_r"]) / len(members) if members else None
        ),
    }
