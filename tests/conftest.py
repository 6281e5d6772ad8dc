from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import torslat
from torslat import verify as verify_mod

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_CATS = {}
_LATS = {}

# the a7@p2 catalog export of the benchmark, read only
A7_EXPORT = Path(__file__).resolve().parent.parent / "bench" / "data" / "a7p2.catalog.json"


def _catalog(name):
    if name not in _CATS:
        _CATS[name] = torslat.build_catalog(verify_mod.load_corpus_algebra(name))
    return _CATS[name]


def _lattice(name, side="tors"):
    key = (name, side)
    if key not in _LATS:
        _LATS[key] = torslat.build_lattice(_catalog(name), side=side)
    return _LATS[key]


@pytest.fixture(scope="session")
def cat_of():
    return _catalog


@pytest.fixture(scope="session")
def lat_of():
    return _lattice


@pytest.fixture(scope="session")
def a2cat():
    return _catalog("a2")


@pytest.fixture(scope="session")
def a2lat():
    return _lattice("a2")


@pytest.fixture(scope="session")
def a7lat():
    """The torsion lattice of A7@p2 (1430 classes), built from the export."""
    return torslat.build_lattice(torslat.from_json(A7_EXPORT.read_text()))


def names_to_mask(cat, *names):
    index = {n: i for i, n in enumerate(cat.names)}
    return frozenset(index[n] for n in names)
