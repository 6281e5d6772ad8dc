from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import oracles
import torslat
from torslat import subcat
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


# the self-injective Nakayama algebra N_5^5: the cyclic quiver 1 -> ... -> 5
# -> 1 with every path of length 5 zero
NAKAYAMA_5_5 = oracles.nakayama_spec(5, 5, 2)
# N_7^7, the scale point of the verify paths
NAKAYAMA_7_7 = oracles.nakayama_spec(7, 7, 2)


def names_to_mask(cat, *names):
    index = {n: i for i, n in enumerate(cat.names)}
    return frozenset(index[n] for n in names)


def names_to_bits(cat, *names):
    """The names as a library mask, an int bitset."""
    return subcat.bits(names_to_mask(cat, *names))
