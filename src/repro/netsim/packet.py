"""Packets exchanged on the body network."""

from __future__ import annotations

from ..errors import SimulationError


class Packet:
    """One data unit travelling from a leaf node to the hub (or back).

    A plain ``__slots__`` class rather than a dataclass: the simulator
    kernel creates one per generated packet, and on the dense hot path
    the dataclass machinery (``__post_init__`` dispatch, a metadata dict
    per instance) measurably dominated creation cost.  The ``metadata``
    dict is materialised lazily on first access.
    """

    __slots__ = ("source", "destination", "bits", "created_at",
                 "delivered_at", "queued_at", "attempts", "_metadata",
                 "_service", "_node")

    def __init__(self, source: str, destination: str, bits: float,
                 created_at: float, delivered_at: float | None = None,
                 queued_at: float | None = None, attempts: int = 0,
                 metadata: dict[str, object] | None = None) -> None:
        if bits < 0:
            raise SimulationError("packet size must be non-negative")
        if created_at < 0:
            raise SimulationError("creation time must be non-negative")
        self.source = source
        self.destination = destination
        self.bits = bits
        self.created_at = created_at
        self.delivered_at = delivered_at
        self.queued_at = queued_at
        #: Completed transmission attempts.  Only counted on a medium with
        #: a reliability model attached; the lossless path never touches
        #: it, so there it stays 0.
        self.attempts = attempts
        self._metadata = metadata
        #: Serialisation time pre-resolved by the simulator kernel for
        #: fixed-size sources; ``None`` means look it up on the medium.
        self._service: float | None = None
        #: Source node's index in the kernel's per-node tables (set on
        #: every packet the kernel generates); ``None`` outside it.
        self._node: int | None = None

    @property
    def metadata(self) -> dict[str, object]:
        """Free-form per-packet annotations (created on first access)."""
        if self._metadata is None:
            self._metadata = {}
        return self._metadata

    def __repr__(self) -> str:
        return (f"Packet(source={self.source!r}, "
                f"destination={self.destination!r}, bits={self.bits!r}, "
                f"created_at={self.created_at!r}, "
                f"delivered_at={self.delivered_at!r})")

    @property
    def delivered(self) -> bool:
        """Whether the packet has reached its destination."""
        return self.delivered_at is not None

    @property
    def latency_seconds(self) -> float:
        """End-to-end latency; raises if the packet has not been delivered."""
        if self.delivered_at is None:
            raise SimulationError("packet has not been delivered yet")
        return self.delivered_at - self.created_at

    @property
    def queueing_delay_seconds(self) -> float:
        """Time spent waiting before transmission started."""
        if self.queued_at is None:
            return 0.0
        return self.queued_at - self.created_at
