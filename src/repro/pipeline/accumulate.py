"""Growable per-second aggregation buffers for streaming consumers.

Every "per second" quantity in the paper — busy time, bits, frame
counts, per-rate/per-category splits — is a weighted histogram over
second indices.  A :class:`SecondAccumulator` lets a consumer add one
chunk's contribution at a time without knowing the trace duration in
advance; capacity grows geometrically, so a full pass stays O(frames).

>>> import numpy as np
>>> acc = SecondAccumulator()
>>> acc.add(np.array([0, 0, 2]), weights=np.array([1.0, 2.0, 5.0]))
>>> acc.add(np.array([2]))
>>> acc.totals(4)
array([3., 0., 6., 0.])
"""

from __future__ import annotations

import numpy as np

__all__ = ["SecondAccumulator"]


class SecondAccumulator:
    """Accumulate per-second (optionally per-column) weighted counts.

    ``width`` > 1 adds a second axis — e.g. 4 rate codes or 16 frame
    categories — addressed by the ``cols`` argument of :meth:`add`.
    """

    def __init__(self, width: int = 1) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        self._width = int(width)
        self._flat = np.zeros(0, dtype=np.float64)

    def _ensure(self, flat_len: int) -> None:
        if flat_len > len(self._flat):
            grown = np.zeros(max(flat_len, 2 * len(self._flat)), dtype=np.float64)
            grown[: len(self._flat)] = self._flat
            self._flat = grown

    def add(
        self,
        seconds: np.ndarray,
        weights: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ) -> None:
        """Add one chunk's contribution.

        ``seconds`` are non-negative int second indices; ``weights``
        default to 1 per entry (a count); ``cols`` select the second
        axis when ``width`` > 1.
        """
        if len(seconds) == 0:
            return
        seconds = np.asarray(seconds, dtype=np.int64)
        if seconds.min() < 0:
            raise ValueError("second indices must be non-negative")
        if cols is None:
            flat = seconds * self._width
        else:
            flat = seconds * self._width + np.asarray(cols, dtype=np.int64)
        # Scatter-add in place: the cost follows the chunk's size, not
        # how many seconds the stream already holds.
        self._ensure(int(flat.max()) + 1)
        np.add.at(self._flat, flat, 1.0 if weights is None else weights)

    def totals(self, n_seconds: int) -> np.ndarray:
        """The accumulated table, padded/truncated to ``n_seconds``.

        Returns shape ``(n_seconds,)`` when ``width`` is 1, else
        ``(n_seconds, width)``.
        """
        out = np.zeros(n_seconds * self._width, dtype=np.float64)
        take = min(len(self._flat), len(out))
        out[:take] = self._flat[:take]
        if self._width == 1:
            return out
        return out.reshape(n_seconds, self._width)
