"""Unit tests for the admission curve."""

import random

import pytest

from repro.errors import ServerError
from repro.server import (
    AdmissionCurve,
    QOS_BULK,
    QOS_CLASSES,
    QOS_INTERACTIVE,
    QOS_MAINTENANCE,
)


# -- AdmissionCurve ------------------------------------------------------------


def test_cliff_is_the_old_step_function_and_draw_free():
    curve = AdmissionCurve.cliff(4)
    assert curve.is_cliff
    for qos in QOS_CLASSES:
        # rng=None proves no probabilistic draw happens on this path.
        assert [curve.admit(d, qos, None) for d in (0, 3, 4, 5)] == \
            [True, True, False, False]


def test_graduated_watermarks_shed_lower_classes_first():
    curve = AdmissionCurve.graduated(100)
    assert not curve.is_cliff
    assert curve.watermarks[QOS_INTERACTIVE] == (75, 100)
    assert curve.watermarks[QOS_BULK] == (50, 100)
    assert curve.watermarks[QOS_MAINTENANCE] == (25, 100)
    rng = random.Random(1979)
    # At depth 60: below interactive's low (always in), inside bulk's
    # band (sometimes in), above... maintenance's low (sheds hardest).
    assert curve.admit(60, QOS_INTERACTIVE, rng)
    bulk = [curve.admit(60, QOS_BULK, rng) for _ in range(400)]
    maint = [curve.admit(60, QOS_MAINTENANCE, rng) for _ in range(400)]
    assert 0 < sum(bulk) < 400 and 0 < sum(maint) < 400
    assert sum(maint) < sum(bulk)                       # sheds earlier


def test_graduated_band_is_deterministic_per_seed():
    curve = AdmissionCurve.graduated(64)
    draws = [
        [curve.admit(40, QOS_BULK, random.Random(7)) for _ in range(1)][0]
        for _ in range(3)
    ]
    assert len(set(draws)) == 1                         # same seed, same call


def test_band_without_rng_is_an_error_not_a_silent_guess():
    curve = AdmissionCurve.graduated(100)
    with pytest.raises(ServerError):
        curve.admit(60, QOS_BULK, None)


def test_unknown_class_falls_back_to_interactive_watermarks():
    curve = AdmissionCurve({QOS_INTERACTIVE: (2, 2)})
    assert curve.admit(1, "no-such-class", None)
    assert not curve.admit(2, "no-such-class", None)


def test_bad_watermarks_are_rejected():
    with pytest.raises(ServerError):
        AdmissionCurve({QOS_BULK: (5, 3)})
    with pytest.raises(ServerError):
        AdmissionCurve({"turbo": (0, 1)})
