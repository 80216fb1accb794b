import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kuroda import ConfigError, KurodaConfig, derive_constants, euclid_tower, validate
from kuroda.config import (
    MAX_TOWER_INDICES,
    SignPatternError,
    column_minima,
    condition_value,
    continued_fraction,
)

from reference import evaluate_continued_fraction


def test_concrete_example_is_valid(concrete):
    report = validate(concrete)
    assert report.sign_ok
    assert report.condition_value == Fraction(3, 4)
    assert report.valid
    assert report.d == (3, 3, 3)


def test_all_ones_config_is_invalid():
    report = validate({"delta": [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1]], "gamma": 1})
    assert report.sign_ok
    assert report.condition_value == Fraction(3, 2)
    assert not report.valid


def test_family72_value(family72):
    report = validate(family72)
    assert report.condition_value == Fraction(2, 3)
    assert report.valid
    assert report.d == (7, 7, 7)


def test_pair_products_follow_from_validity(concrete):
    report = validate(concrete)
    assert report.pairs_ok
    for check in report.pair_checks:
        assert check.diagonal_product == 1
        assert check.cross_product == 9


def test_sign_pattern_violation_is_a_verdict_not_an_exception():
    report = validate({"delta": [[1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], "gamma": 1})
    assert not report.sign_ok
    assert not report.valid
    assert report.sign_issues
    assert report.condition_value is None


def test_malformed_matrix_raises():
    with pytest.raises(ConfigError):
        validate({"delta": [[-1, 3, 3], [3, -1, 3], [3, 3, -1]], "gamma": 1})
    with pytest.raises(ConfigError):
        validate({"delta": [[-1, 3, 3, 0], [3, -1, 3, 0]], "gamma": 1})
    with pytest.raises(ConfigError):
        validate({"delta": [[-1, 3, 3.5, 0], [3, -1, 3, 0], [3, 3, -1, 0]], "gamma": 1})
    with pytest.raises(ConfigError):
        validate({"delta": [[-1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], "gamma": 0})
    # direct construction from magnitudes runs the same checks
    rows = [[1, 3, 3, 0], [3, 1, 3, 0], [3, 3, 1, 0]]
    for delta, gamma in (
        ([[0, 3, 3, 0], [3, 1, 3, 0], [3, 3, 1, 0]], 1),
        ([[1, 3, 3, -1], [3, 1, 3, 0], [3, 3, 1, 0]], 1),
        ([[1, True, 3, 0], [3, 1, 3, 0], [3, 3, 1, 0]], 1),
        ([[1, 3.0, 3, 0], [3, 1, 3, 0], [3, 3, 1, 0]], 1),
        ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 1),
        (rows, 0),
        (rows, True),
    ):
        with pytest.raises(ConfigError):
            KurodaConfig(delta, gamma)
    config = KurodaConfig(rows, 1)
    assert config.delta == ((1, 3, 3, 0), (3, 1, 3, 0), (3, 3, 1, 0))
    assert type(config.delta) is tuple and all(type(row) is tuple for row in config.delta)
    assert config == KurodaConfig(delta=config.delta, gamma=1)
    with pytest.raises(ConfigError):
        config._replace(gamma=0)


def test_malformed_document_with_bad_signs_raises_config_error():
    # gamma 0 is malformed input, not a sign-pattern verdict
    with pytest.raises(ConfigError) as exc:
        validate({"delta": [[1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], "gamma": 0})
    assert not isinstance(exc.value, SignPatternError)


def test_sign_pattern_error_carries_issues():
    with pytest.raises(SignPatternError) as exc:
        KurodaConfig.from_signed([[1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, -2]], 1)
    assert exc.value.issues == (
        "delta[1][1] must be <= -1, got 1",
        "delta[3][4] must be >= 0, got -2",
    )
    report = validate({"delta": [[1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, -2]], "gamma": 1})
    assert report.sign_issues == exc.value.issues


def test_from_signed_rejects_bad_signs():
    with pytest.raises(SignPatternError):
        KurodaConfig.from_signed([[1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], 1)
    with pytest.raises(SignPatternError):
        KurodaConfig.from_signed([[-1, 0, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], 1)
    with pytest.raises(SignPatternError):
        KurodaConfig.from_signed([[-1, 3, 3, -1], [3, -1, 3, 0], [3, 3, -1, 0]], 1)


def test_json_round_trip(tmp_path, concrete):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(concrete.to_dict()))
    loaded = KurodaConfig.from_json_file(path)
    assert loaded == concrete
    assert loaded.signed_row(1) == (-1, 3, 3, 0)
    assert loaded.magnitude(1, 1) == 1


def test_derive_constants_examples(concrete, family72):
    cc = derive_constants(concrete)
    assert cc.d == (3, 3, 3)
    assert cc.q_ratio == (Fraction(3), Fraction(3), Fraction(3))
    f2 = derive_constants(family72)
    assert f2.d == (7, 7, 7)
    assert f2.q_ratio == (Fraction(7, 2),) * 3


def test_column_minima_of_equal_columns():
    config = KurodaConfig.from_signed([[-2, 5, 5, 0], [5, -2, 5, 0], [5, 5, -2, 0]], 3)
    assert column_minima(config) == (5, 5, 5)


def test_continued_fraction_values():
    assert continued_fraction(Fraction(3)) == (3,)
    assert continued_fraction(Fraction(7, 2)) == (3, 2)
    assert continued_fraction(Fraction(1)) == (1,)
    assert continued_fraction(Fraction(1, 2)) == (0, 2)
    assert continued_fraction(Fraction(5, 3)) == (1, 1, 2)
    with pytest.raises(ValueError):
        continued_fraction(Fraction(0))


def test_tower_concrete(concrete):
    tower = euclid_tower(concrete)
    for ax in tower.axes:
        assert ax.q == (3,)
        assert ax.m_count == 1
        assert ax.n_total == 3
        assert ax.blocks == ((0, 1, 2, 3),)
        assert ax.j1 == frozenset({0, 1, 2})
        assert ax.j2 == frozenset({0, 1, 2})
        assert ax.nu == (3,)


def test_tower_family72(family72):
    tower = euclid_tower(family72)
    ax = tower.axis(1)
    assert ax.q == (3, 2)
    assert ax.m_count == 2
    assert ax.n_total == 5
    assert ax.blocks == ((0, 1, 2, 3), (4, 5))
    assert ax.j1 == frozenset(range(5))
    assert ax.j2 == frozenset({0, 1, 2, 3})


def test_tower_with_unit_and_sub_unit_ratios():
    # Axis 1 ratio is exactly 1; axes 2 and 3 have ratio 9.
    config = KurodaConfig.from_signed(
        [[-4, 9, 9, 0], [4, -1, 9, 0], [4, 9, -1, 0]], 1
    )
    assert validate(config).valid
    constants = derive_constants(config)
    assert constants.q_ratio[0] == 1
    ax = euclid_tower(config).axis(1)
    assert ax.q == (1,)
    assert ax.n_total == 1
    assert ax.blocks == ((0, 1),)
    assert ax.j1 == frozenset({0}) and ax.j2 == frozenset({0})

    # Axis 1 ratio below 1: first quotient 0, first block is the singleton {0}.
    config = KurodaConfig.from_signed(
        [[-4, 9, 9, 0], [2, -1, 9, 0], [3, 9, -1, 0]], 1
    )
    assert validate(config).valid
    constants = derive_constants(config)
    assert constants.q_ratio[0] == Fraction(1, 2)
    ax = euclid_tower(config).axis(1)
    assert ax.q == (0, 2)
    assert ax.blocks == ((0,), (1, 2))
    assert ax.j1 == frozenset({0, 1})
    assert ax.j2 == frozenset({0})


def _symmetric(off: int) -> KurodaConfig:
    return KurodaConfig.from_signed([[-1, off, off, 0], [off, -1, off, 0], [off, off, -1, 0]], 1)


def test_tower_length_is_bounded(big_weights):
    # diagonal 1, off-diagonal o: q = (o,) on every axis, so o + 1 indices
    assert [ax.n_total for ax in euclid_tower(_symmetric(MAX_TOWER_INDICES)).axes] == [
        MAX_TOWER_INDICES
    ] * 3
    assert all(ax.n_total == 300 for ax in euclid_tower(big_weights).axes)
    # checked on the quotients, before any index tuple is built
    for off in (MAX_TOWER_INDICES + 1, 10**12):
        with pytest.raises(ValueError, match=f"axis 1 tower has {off} indices"):
            euclid_tower(_symmetric(off))
    # the configuration itself is fine: validity needs no tower
    assert validate(_symmetric(10**12)).valid


def test_block_lookup_and_sentinel(family72):
    ax = euclid_tower(family72).axis(1)
    assert ax.block_of(-1) == 0
    assert ax.block_of(0) == 1
    assert ax.block_of(4) == 2
    with pytest.raises(ValueError):
        ax.block_of(6)


def test_block_lookup_rejects_indices_outside_the_tower(family72):
    ax = euclid_tower(family72).axis(1)
    for n in (-2, ax.n_total + 1):
        with pytest.raises(ValueError):
            ax.block_of(n)
    assert [ax.block_of(n) for n in range(ax.n_total + 1)] == [1, 1, 1, 1, 2, 2]


def test_validate_is_pure(concrete):
    assert validate(concrete) == validate(concrete)


@st.composite
def valid_configs(draw):
    """Valid by construction: column entries above twice the column's diagonal
    keep every dominance term strictly below 1/3."""
    diag = [draw(st.integers(1, 3)) for _ in range(3)]
    rows = [[0, 0, 0, draw(st.integers(0, 2))] for _ in range(3)]
    for i in range(3):
        rows[i][i] = diag[i]
    for j in range(3):
        for i in range(3):
            if i != j:
                rows[i][j] = draw(st.integers(2 * diag[j] + 1, 2 * diag[j] + 9))
    gamma = draw(st.integers(1, 3))
    config = KurodaConfig(tuple(tuple(r) for r in rows), gamma)
    assume(condition_value(config) < 1)
    return config


@settings(max_examples=60, deadline=None)
@given(valid_configs())
def test_tower_properties_random(config):
    tower = euclid_tower(config)
    for i, ax in enumerate(tower.axes, start=1):
        # quotient sequence reconstructs the exact ratio
        assert evaluate_continued_fraction(ax.q) == tower.constants.q_ratio[i - 1]
        # later quotients are always >= 1
        assert all(q >= 1 for q in ax.q[1:])
        # blocks partition {0..N}
        flat = [n for block in ax.blocks for n in block]
        assert flat == list(range(ax.n_total + 1))
        assert sum(len(b) for b in ax.blocks) == ax.n_total + 1
        # nested index sets
        assert ax.j2 <= ax.j1 <= frozenset(range(ax.n_total + 1))
    # cross-product consequence of validity, exact
    report = validate(config)
    assert report.valid and report.pairs_ok
