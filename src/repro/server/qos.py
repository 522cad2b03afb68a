"""Quality-of-service classes and the graduated admission curve.

The event-driven engine (:mod:`repro.server.engine`) schedules admitted
requests by **class**, not by strict alternation: every client belongs to
one of three QoS classes -- ``interactive`` (the default: short
request/response traffic that wants latency), ``bulk`` (uploads and
scans that want throughput), and ``maintenance`` (background tooling
that should only soak up leftover capacity).  The scheduler visits the
classes round-robin and gives each visit a request allowance
proportional to the class weight (:data:`DEFAULT_QOS_WEIGHTS`), so a
backlogged bulk client can no longer double an interactive client's
queueing delay by keeping the old strict-alternation loop busy.

Admission is a **curve**, not a cliff.  The PR-5 engine rejected with
``ST_BUSY`` the instant the admitted-but-unserviced count reached
``max_pending``; under a 10k-client storm that is a step function --
everything is admitted, then suddenly nothing is.
:class:`AdmissionCurve` grades the transition: below the class's low
watermark everything is admitted, above the high watermark nothing is,
and in between requests are shed probabilistically (seeded, so runs stay
reproducible) with lower-priority classes shedding first because their
watermarks sit lower.  :meth:`AdmissionCurve.cliff` reproduces the old
step function exactly and is the engine's default, which is what keeps
every pre-existing byte-identical-per-seed proof green.

>>> curve = AdmissionCurve.cliff(4)
>>> [curve.admit(depth, QOS_INTERACTIVE, None) for depth in (0, 3, 4, 5)]
[True, True, False, False]
>>> curve.is_cliff
True
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Tuple

from ..errors import ServerError

#: The latency class: short request/response traffic, served first.
QOS_INTERACTIVE = "interactive"

#: The throughput class: uploads, scans, anything that queues deep.
QOS_BULK = "bulk"

#: The background class: tooling that should only soak up leftovers.
QOS_MAINTENANCE = "maintenance"

#: Scheduler visiting order; also the priority order admission sheds in
#: reverse (maintenance sheds first, interactive last).
QOS_CLASSES = (QOS_INTERACTIVE, QOS_BULK, QOS_MAINTENANCE)

#: Requests granted per scheduler visit to a class, one per session wakeup.
#: With every client in one class (the default) the weights are inert:
#: the schedule degenerates to the old round-robin order exactly.
DEFAULT_QOS_WEIGHTS: Dict[str, int] = {
    QOS_INTERACTIVE: 4,
    QOS_BULK: 2,
    QOS_MAINTENANCE: 1,
}

#: Fraction of the high watermark where each class's shedding begins
#: when :meth:`AdmissionCurve.graduated` derives per-class watermarks.
_GRADUATED_LOW_FRACTION = {
    QOS_INTERACTIVE: 0.75,
    QOS_BULK: 0.50,
    QOS_MAINTENANCE: 0.25,
}


class AdmissionCurve:
    """Per-class admission probability as a function of queue depth.

    Each class has a ``(low, high)`` watermark pair: depths below *low*
    always admit, depths at or above *high* always reject, and the band
    between sheds linearly -- at depth ``d`` the admit probability is
    ``(high - d) / (high - low)``.  The probabilistic band draws from
    the RNG the engine passes in (seeded per server), so two runs with
    the same seed shed the same requests.

    >>> curve = AdmissionCurve({QOS_INTERACTIVE: (2, 4)})
    >>> curve.admit(1, QOS_INTERACTIVE, None)      # below low: no draw
    True
    >>> curve.admit(4, QOS_INTERACTIVE, None)      # at high: no draw
    False
    >>> rng = random.Random(7)
    >>> isinstance(curve.admit(3, QOS_INTERACTIVE, rng), bool)
    True
    """

    def __init__(self, watermarks: Mapping[str, Tuple[int, int]]) -> None:
        self.watermarks: Dict[str, Tuple[int, int]] = {}
        for qos, (low, high) in watermarks.items():
            if qos not in QOS_CLASSES:
                raise ServerError(f"unknown QoS class {qos!r}")
            if not 0 <= low <= high:
                raise ServerError(
                    f"bad watermarks for {qos!r}: low={low} high={high}")
            self.watermarks[qos] = (low, high)

    @classmethod
    def cliff(cls, max_pending: int) -> "AdmissionCurve":
        """The PR-5 step function: admit below *max_pending*, reject at it.

        Every class gets the same watermarks and ``low == high``, so no
        probabilistic draw ever happens -- the engine's default, byte-
        identical to the old ``self._pending >= self.max_pending`` test.

        >>> AdmissionCurve.cliff(8).watermarks[QOS_BULK]
        (8, 8)
        """
        return cls({qos: (max_pending, max_pending) for qos in QOS_CLASSES})

    @classmethod
    def graduated(cls, max_pending: int) -> "AdmissionCurve":
        """A shaped curve: lower classes shed earlier on the way to full.

        Interactive sheds from 75% of *max_pending*, bulk from 50%,
        maintenance from 25%; all classes hard-stop at *max_pending*.

        >>> curve = AdmissionCurve.graduated(100)
        >>> curve.watermarks[QOS_INTERACTIVE]
        (75, 100)
        >>> curve.watermarks[QOS_MAINTENANCE]
        (25, 100)
        """
        marks = {}
        for qos in QOS_CLASSES:
            low = int(max_pending * _GRADUATED_LOW_FRACTION[qos])
            marks[qos] = (low, max_pending)
        return cls(marks)

    @property
    def is_cliff(self) -> bool:
        """True when no depth can trigger a probabilistic draw.

        >>> AdmissionCurve.graduated(64).is_cliff
        False
        """
        return all(low == high for low, high in self.watermarks.values())

    def admit(self, depth: int, qos: str,
              rng: Optional[random.Random]) -> bool:
        """Decide one admission at queue *depth* for class *qos*.

        *rng* is only consulted inside the shedding band; a cliff curve
        never touches it (pass None to prove a path draw-free).

        >>> AdmissionCurve.cliff(2).admit(1, QOS_BULK, None)
        True
        """
        low, high = self.watermarks.get(qos,
                                        self.watermarks[QOS_INTERACTIVE])
        if depth < low:
            return True
        if depth >= high:
            return False
        probability = (high - depth) / (high - low)
        if rng is None:
            raise ServerError("graduated admission needs the engine's RNG")
        return rng.random() < probability

    def __repr__(self) -> str:
        marks = ", ".join(f"{qos}={self.watermarks[qos]}"
                          for qos in QOS_CLASSES if qos in self.watermarks)
        return f"AdmissionCurve({marks})"
