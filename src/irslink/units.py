"""Decibel and dBm conversions, centralized so every module agrees on them."""

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def db_to_linear(x_db: float) -> float:
    """10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(x_dbm: float) -> float:
    """10^((x - 30)/10)."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)
