import math

import pytest

from irslink.units import db_to_linear, dbm_to_watts


def test_spot_values():
    assert abs(db_to_linear(-90.0) - 1e-9) <= 1e-12 * 1e-9
    # 8 dBm is 10^0.8 milliwatts
    assert abs(dbm_to_watts(8.0) - 10**0.8 * 1e-3) <= 1e-12 * dbm_to_watts(8.0)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("x_db", [-94.0, -90.0, -84.0, -75.0, 0.0, 8.0, 17.3])
def test_round_trip(x_db):
    assert 10.0 * math.log10(db_to_linear(x_db)) == pytest.approx(x_db, rel=1e-12, abs=1e-12)
    assert 10.0 * math.log10(dbm_to_watts(x_db)) + 30.0 == pytest.approx(x_db, rel=1e-12, abs=1e-12)


def test_against_log_identity():
    for x in (1e-12, 1.0, 42.0):
        assert db_to_linear(10.0 * math.log10(x)) == pytest.approx(x, rel=1e-12)
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-12)
    assert math.isclose(db_to_linear(3.0), 10**0.3)
