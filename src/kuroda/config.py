"""Weight configurations, their validity condition, and Euclid towers.

A :class:`KurodaConfig` is the integer data ``(delta, gamma)`` behind the
monomial substitutions

    y_i = x ** delta_i   (i = 1, 2, 3),     y_4 = x_4 ** gamma,

where row ``i`` of the 3x4 matrix ``delta`` carries a *negative* entry in
position ``i`` and nonnegative entries elsewhere.  Rows are stored as
positive magnitudes; the diagonal sign is applied wherever exponent vectors
are expanded (:func:`kuroda.algebra.expand_y_to_x`).

A configuration is *valid* when the strict dominance condition

    sum_i  delta_ii / (delta_ii + d_i)  <  1,    d_i = min_{j != i} delta_ji,

holds in exact rationals.  Validity is decided here, never with floats: the
boundary case must come out exactly.  The continued-fraction expansions of
the ratios ``Q_i = d_i / delta_ii`` produce the per-axis tower bookkeeping
(:class:`AxisTower`) consumed by :mod:`kuroda.blowup`.
"""

from __future__ import annotations

import enum
import json
import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

AXES = (1, 2, 3)

# Largest accepted tower length ``N = sum(q)`` on one axis (indices 0..N).
# Every index is an entry of the tower's tuples, a census row and a trace
# step, so memory grows linearly with N: ``kuroda tower`` at N = 10**4 on all
# three axes peaks at ~47 MB RSS and writes ~4.8 MB of JSON.
MAX_TOWER_INDICES = 10**4

# The region names, the sampler's error and the sandwich radius floor live
# here rather than in :mod:`kuroda.regions`, so that the CLI can parse its
# arguments and catch its errors without importing numpy; ``regions``
# re-exports all three.


class RegionKind(enum.Enum):
    S_PRIME4 = "sprime"
    S_DOUBLE_PRIME3 = "sdoubleprime"
    S3 = "s"
    S_TILDE3 = "stilde"

    @property
    def dim(self) -> int:
        return 4 if self is RegionKind.S_PRIME4 else 3


class SamplingError(RuntimeError):
    """A sampler exhausted its candidate budget without accepting anything."""


# The sandwich's far zone: some |coordinate| above FAR_ZONE_START.  Half-scaled
# fattened-star points reach at most (radius + 1)/2, so at a sampling radius of
# SANDWICH_MIN_RADIUS or less none of them is in it.
FAR_ZONE_START = 2.0
SANDWICH_MIN_RADIUS = 2.0 * FAR_ZONE_START - 1.0


class ConfigError(ValueError):
    """Structurally malformed configuration input."""


class SignPatternError(ConfigError):
    """Signed matrix whose entries do not follow the required sign pattern."""

    def __init__(self, issues: Sequence[str]):
        self.issues = tuple(issues)
        super().__init__("; ".join(self.issues))


def load_json(path):
    """The parsed JSON document in ``path``; invalid JSON is a :class:`ConfigError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"invalid JSON in {path}: nested too deeply") from None


def _check_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _check_gamma(value) -> None:
    if _check_int(value, "gamma") < 1:
        raise ConfigError(f"gamma must be >= 1, got {value}")


def _check_shape(rows) -> tuple[tuple[int, int, int, int], ...]:
    if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)) or len(rows) != 3:
        raise ConfigError("delta must be a sequence of three rows")
    out = []
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, Sequence) or isinstance(row, (str, bytes)) or len(row) != 4:
            raise ConfigError(f"delta row {i} must have four entries")
        out.append(tuple(_check_int(v, f"delta[{i}][{j}]") for j, v in enumerate(row, start=1)))
    return tuple(out)


def _sign_issues(rows: tuple[tuple[int, int, int, int], ...]) -> list[str]:
    """Sign-pattern problems of a signed (as-displayed) matrix; empty if well formed."""
    issues = []
    for i, row in enumerate(rows, start=1):
        for j, v in enumerate(row, start=1):
            if j == i:
                if v > -1:
                    issues.append(f"delta[{i}][{j}] must be <= -1, got {v}")
            elif j <= 3:
                if v < 1:
                    issues.append(f"delta[{i}][{j}] must be >= 1, got {v}")
            else:
                if v < 0:
                    issues.append(f"delta[{i}][4] must be >= 0, got {v}")
    return issues


class _KurodaConfigFields(NamedTuple):
    delta: tuple[tuple[int, int, int, int], ...]
    gamma: int


class KurodaConfig(_KurodaConfigFields):
    """Weight data; ``delta[i][j]`` holds the magnitude of the (i+1, j+1) entry.

    All entries are stored positive (``delta[i][i]`` is the magnitude of the
    negated diagonal entry).  Use :meth:`signed_row` for the as-displayed row.
    Every construction is checked, ``_replace`` included; the rows are
    stored as a tuple of tuples.
    """

    __slots__ = ()

    def __new__(cls, delta, gamma):
        rows = _check_shape(delta)
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(row, start=1):
                if j <= 3 and v < 1:
                    raise ConfigError(f"magnitude delta[{i}][{j}] must be >= 1, got {v}")
                if j == 4 and v < 0:
                    raise ConfigError(f"delta[{i}][4] must be >= 0, got {v}")
        _check_gamma(gamma)
        return super().__new__(cls, rows, gamma)

    @classmethod
    def _make(cls, iterable) -> "KurodaConfig":
        return cls(*iterable)

    def magnitude(self, i: int, j: int) -> int:
        """Magnitude of entry (i, j), axes 1-based, j in 1..4."""
        return self.delta[i - 1][j - 1]

    def signed_row(self, i: int) -> tuple[int, int, int, int]:
        """Row i with the diagonal negation applied (the displayed form)."""
        row = list(self.delta[i - 1])
        row[i - 1] = -row[i - 1]
        return tuple(row)

    @classmethod
    def from_signed(cls, rows, gamma: int) -> "KurodaConfig":
        """Build from the as-displayed matrix (negative diagonal entries)."""
        signed = _check_shape(rows)
        _check_gamma(gamma)  # before the signs: a malformed document is never a sign verdict
        issues = _sign_issues(signed)
        if issues:
            raise SignPatternError(issues)
        magnitudes = tuple(
            tuple(abs(v) for v in row) for row in signed
        )
        return cls(magnitudes, gamma)

    @classmethod
    def from_dict(cls, data: Mapping) -> "KurodaConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("config document must be a JSON object")
        if "delta" not in data or "gamma" not in data:
            raise ConfigError('config document needs "delta" and "gamma" fields')
        return cls.from_signed(data["delta"], data["gamma"])

    @classmethod
    def from_json_file(cls, path) -> "KurodaConfig":
        return cls.from_dict(load_json(path))

    def to_dict(self) -> dict:
        return {"delta": [list(self.signed_row(i)) for i in AXES], "gamma": self.gamma}


def concrete_example() -> KurodaConfig:
    """The standard symmetric instance: off-diagonal weights 3, diagonal 1, gamma 1."""
    return KurodaConfig.from_signed(
        [[-1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], 1
    )


class DerivedConstants(NamedTuple):
    """Column minima ``d`` and the exact ratios ``q_ratio[i] = d_i / delta_ii``."""

    d: tuple[int, int, int]
    q_ratio: tuple[Fraction, Fraction, Fraction]


class PairCheck(NamedTuple):
    """Cross-product dominance for one unordered axis pair."""

    i: int
    j: int
    diagonal_product: int
    cross_product: int

    @property
    def ok(self) -> bool:
        return self.diagonal_product < self.cross_product


class ValidationReport(NamedTuple):
    """Outcome of :func:`validate`; ``valid`` requires sign pattern and strict condition."""

    sign_ok: bool
    sign_issues: tuple[str, ...]
    condition_value: Fraction | None
    condition_holds: bool | None
    valid: bool
    d: tuple[int, int, int] | None
    pair_checks: tuple[PairCheck, ...]
    config: KurodaConfig | None

    @property
    def pairs_ok(self) -> bool:
        return bool(self.pair_checks) and all(p.ok for p in self.pair_checks)


def column_minima(config: KurodaConfig) -> tuple[int, int, int]:
    """d_i = min over the two off-diagonal magnitudes in column i."""
    return tuple(
        min(config.magnitude(j, i) for j in AXES if j != i) for i in AXES
    )


def condition_value(config: KurodaConfig) -> Fraction:
    """Exact value of the dominance sum; validity means a strict value < 1."""
    d = column_minima(config)
    return sum(
        (Fraction(config.magnitude(i, i), config.magnitude(i, i) + d[i - 1]) for i in AXES),
        Fraction(0),
    )


def _pair_checks(config: KurodaConfig) -> tuple[PairCheck, ...]:
    out = []
    for i in AXES:
        for j in AXES:
            if i < j:
                out.append(
                    PairCheck(
                        i,
                        j,
                        config.magnitude(i, i) * config.magnitude(j, j),
                        config.magnitude(i, j) * config.magnitude(j, i),
                    )
                )
    return tuple(out)


def validate(source) -> ValidationReport:
    """Validate a configuration given as :class:`KurodaConfig` or a raw mapping.

    Malformed input (wrong shape, non-integers, gamma < 1) raises
    :class:`ConfigError`.  A bad sign pattern is a *verdict*, not an error:
    the report comes back with ``sign_ok=False`` and ``valid=False``.
    """
    if isinstance(source, KurodaConfig):
        config = source
    else:
        try:
            config = KurodaConfig.from_dict(source)
        except SignPatternError as exc:
            return ValidationReport(
                sign_ok=False,
                sign_issues=exc.issues,
                condition_value=None,
                condition_holds=None,
                valid=False,
                d=None,
                pair_checks=(),
                config=None,
            )

    value = condition_value(config)
    holds = value < 1
    return ValidationReport(
        sign_ok=True,
        sign_issues=(),
        condition_value=value,
        condition_holds=holds,
        valid=holds,
        d=column_minima(config),
        pair_checks=_pair_checks(config),
        config=config,
    )


def derive_constants(config: KurodaConfig) -> DerivedConstants:
    d = column_minima(config)
    ratios = tuple(Fraction(d[i - 1], config.magnitude(i, i)) for i in AXES)
    return DerivedConstants(d, ratios)


def continued_fraction(value: Fraction) -> tuple[int, ...]:
    """Floor-based continued fraction of a positive rational; always terminates.

    The first quotient is floor(value) and may be 0 (values below 1 are
    accepted); every later quotient is >= 1.
    """
    if value <= 0:
        raise ValueError(f"continued fraction needs a positive rational, got {value}")
    value = Fraction(value)
    quotients = [math.floor(value)]
    rest = value - quotients[0]
    while rest != 0:
        value = 1 / rest
        q = math.floor(value)
        quotients.append(q)
        rest = value - q
    return tuple(quotients)


class AxisTower(NamedTuple):
    """Per-axis tower bookkeeping derived from the continued fraction of Q_i.

    ``blocks[m-1]`` is the m-th consecutive run of indices: the first block is
    {0, ..., q1}, later blocks have lengths q2, ..., qM, and together they
    partition {0, ..., N} with N = sum(q).  Index sets:

      j1 = {0, ..., N-1}
      j2 = union of odd-position blocks, minus {N}

    The sentinel index -1 (the hyperplane divisor) sits in block position 0.
    ``positions[n]`` is the block position k(n) of index n in 0..N.
    """

    axis: int
    q: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    positions: tuple[int, ...]

    @property
    def m_count(self) -> int:
        return len(self.q)

    @property
    def n_total(self) -> int:
        return sum(self.q)

    @property
    def nu(self) -> tuple[int, ...]:
        """Block-end indices, one per block."""
        return tuple(block[-1] for block in self.blocks)

    @property
    def j1(self) -> frozenset[int]:
        return frozenset(range(self.n_total))

    @property
    def j2(self) -> frozenset[int]:
        members: set[int] = set()
        for m, block in enumerate(self.blocks, start=1):
            if m % 2 == 1:
                members.update(block)
        members.discard(self.n_total)
        return frozenset(members)

    def block_of(self, n: int) -> int:
        """Block position k(n) holding index n; n = -1 hits the sentinel block 0."""
        if n == -1:
            return 0
        if not 0 <= n < len(self.positions):
            raise ValueError(f"index {n} outside -1..{self.n_total} on axis {self.axis}")
        return self.positions[n]

    @classmethod
    def from_ratio(cls, axis: int, ratio: Fraction) -> "AxisTower":
        """The tower of ``ratio``; ``ValueError`` above :data:`MAX_TOWER_INDICES` indices."""
        q = continued_fraction(ratio)
        n_total = sum(q)
        if n_total > MAX_TOWER_INDICES:
            raise ValueError(
                f"axis {axis} tower has {n_total} indices, more than {MAX_TOWER_INDICES}"
            )
        blocks = []
        start = 0
        for m, qm in enumerate(q, start=1):
            end = start + qm if m > 1 else qm
            blocks.append(tuple(range(start, end + 1)) if m == 1 else tuple(range(start + 1, end + 1)))
            start = end
        positions = tuple(m for m, block in enumerate(blocks, start=1) for _ in block)
        return cls(axis, q, tuple(blocks), positions)


class EuclidTower(NamedTuple):
    """The three per-axis towers of a valid configuration."""

    config: KurodaConfig
    constants: DerivedConstants
    axes: tuple[AxisTower, AxisTower, AxisTower]

    def axis(self, i: int) -> AxisTower:
        return self.axes[i - 1]


def euclid_tower(config: KurodaConfig) -> EuclidTower:
    constants = derive_constants(config)
    axes = tuple(
        AxisTower.from_ratio(i, constants.q_ratio[i - 1]) for i in AXES
    )
    return EuclidTower(config, constants, axes)
