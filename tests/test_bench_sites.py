"""The benchmark's trace sites name functions the program still binds.

``perfbench/tracing.py`` wraps each layer function where its caller looks
it up. A site whose binding is gone would only fail on a traced benchmark
run; this test reads the site table and checks every entry here.
"""
import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        yield importlib.import_module("tracing")


def test_every_site_is_a_callable_of_its_module(tracing):
    for site, (module_name, attr_path) in tracing.SITES.items():
        owner, attr = tracing._resolve(module_name, attr_path)
        assert attr in owner.__dict__, f"{site}: {attr_path} not bound in {module_name}"
        assert callable(owner.__dict__[attr]), site


def test_exercised_sets_are_sites(tracing):
    for workload, sites in tracing.EXERCISED.items():
        assert sites <= set(tracing.SITES), (workload, sites - set(tracing.SITES))
