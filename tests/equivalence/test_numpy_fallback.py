"""The numpy-absent machine, simulated on a machine that has numpy.

The ``pure`` leg of ``numpy_mode`` exercises the pure-Python branches by
*flag* (``force_pure_python``); this module goes further and makes the
import itself fail, the way a genuinely numpy-less machine would: a
``sys.modules`` entry of ``None`` makes ``import numpy`` raise
``ImportError``, and :func:`repro.fastpath.reset` forgets the cached module
so the gate re-probes and finds nothing.
"""

import random
import sys

import pytest

from repro import fastpath
from repro.reference import (
    bytes_to_words_reference,
    checksum_reference,
    random_bytes_reference,
    words_to_bytes_reference,
)
from repro.words import (
    WORD_MASK,
    bytes_to_words,
    checksum,
    random_bytes,
    words_to_bytes,
)


@pytest.fixture
def numpy_hidden(monkeypatch):
    """numpy uninstalled, as far as any ``import numpy`` can tell."""
    for name in [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "numpy", None)  # import -> ImportError
    fastpath.reset()
    yield
    fastpath.reset()  # re-probe with the real sys.modules restored


def test_gate_degrades_cleanly(numpy_hidden):
    assert fastpath.numpy() is None
    assert not fastpath.numpy_available()
    with pytest.raises(ImportError):
        import numpy  # noqa: F401 - proving the hiding works


def test_equivalence_holds_without_numpy(numpy_hidden):
    """The full word-substrate equivalence slice, import genuinely failing.

    Large sizes ride along with the small ones: world-swap state files pack
    thousands of words at a time.
    """
    rng = random.Random(41)
    for n in (0, 1, 7, 2047, 2048, 2057):
        data = [rng.randrange(WORD_MASK + 1) for _ in range(n)]
        assert checksum(data) == checksum_reference(data)
        assert words_to_bytes(data) == words_to_bytes_reference(data)
        raw = bytes(rng.randrange(256) for _ in range(n + 1))  # odd length
        assert bytes_to_words(raw, 0x5A) == bytes_to_words_reference(raw, 0x5A)

    a, b = random.Random(1979), random.Random(1979)
    assert random_bytes(a, 4000) == random_bytes_reference(b, 4000)
    assert a.getrandbits(64) == b.getrandbits(64)


def test_workload_digest_identical_without_numpy(numpy_hidden):
    """A full golden workload on the no-numpy path pins the same digest."""
    from .test_golden_images import GOLDEN_PATH, WORKLOADS
    import json, os

    if os.environ.get("REPRO_UPDATE_GOLDENS") or not GOLDEN_PATH.exists():
        pytest.skip("goldens being regenerated")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert WORKLOADS["mount_write"]() == golden["mount_write"]
