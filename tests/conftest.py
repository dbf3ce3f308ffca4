from pathlib import Path

import numpy as np
import pytest

from tiltwing.trim import build_trim_map
from tiltwing.vehicle import default_vehicle, vehicle_from_dict, vehicle_to_dict


@pytest.fixture(scope="session")
def vp():
    return default_vehicle()


@pytest.fixture(scope="session")
def vp_uneven_mains(vp):
    """The default vehicle with a slower right main propeller (200 rev/s
    against the left one's 220)."""
    raw = vehicle_to_dict(vp)
    next(p for p in raw["propellers"] if p["name"] == "pr")["max_speed"] = 200.0
    return vehicle_from_dict(raw)


@pytest.fixture(scope="session")
def committed_map_path():
    """The 6x5 trim map committed as benchmark input; read only."""
    return Path(__file__).resolve().parents[1] / "perfbench" / "data" / "coarse_map.csv"


@pytest.fixture(scope="session")
def coarse_map(vp):
    """Small map for unit tests; the acceptance suite builds the full grid."""
    va = np.arange(0.0, 20.0 + 1e-9, 4.0)
    gamma = np.radians(np.arange(-10.0, 10.0 + 1e-9, 5.0))
    return build_trim_map(vp, va_axis=va, gamma_axis=gamma)
