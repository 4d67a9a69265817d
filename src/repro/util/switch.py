"""In-process switches that route a layer to its reference path.

Each fast kernel (lowered replay, grid kernel, serving replay) has a
bit-identical reference. A :class:`PathSwitch` counts open
:meth:`~PathSwitch.disabled` blocks; while any is open,
:meth:`~PathSwitch.enabled` is false and the layer runs its reference.
Tests and the engine bench use this to run both paths in one process.
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
