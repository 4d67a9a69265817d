"""In-process switches that route a layer to its reference path.

The chip-timing fast paths (lowered replay, grid kernel) each keep a
bit-identical reference in the package. A :class:`PathSwitch` counts
open :meth:`~PathSwitch.disabled` blocks; while any is open,
:meth:`~PathSwitch.enabled` is false and the layer runs its reference.
Tests and ``benchmarks/speedup_gates.py`` use this to run both paths in
one process. (The serving replay kernels have no switch: their
reference event loops are test oracles in ``tests/oracle/``.)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class PathSwitch:
    """A nestable, process-wide on/off switch for one fast path."""

    def __init__(self) -> None:
        self._off_depth = 0

    def enabled(self) -> bool:
        """Whether the fast path is on (no ``disabled()`` block is open)."""
        return not self._off_depth

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Run the reference path until the block exits (reentrant)."""
        self._off_depth += 1
        try:
            yield
        finally:
            self._off_depth -= 1
