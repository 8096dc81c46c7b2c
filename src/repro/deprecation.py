"""Warn-once plumbing for the legacy entry points.

The old constructors (:class:`~repro.generation.pipeline.NotebookGenerator`,
the ``n_threads``/``parallel_backend`` knobs on
:class:`~repro.generation.config.GenerationConfig`) keep working as shims
over :mod:`repro.api` / :class:`~repro.config.ReproConfig`, but each emits
one :class:`DeprecationWarning` per process — loud enough to notice,
quiet enough not to flood a loop that constructs thousands of configs.
"""

from __future__ import annotations

import threading
import warnings

_emitted: set[str] = set()
_emitted_lock = threading.Lock()


def warn_once(key: str, message: str, *, stacklevel: int = 3) -> None:
    """Emit ``message`` as a DeprecationWarning, once per ``key``."""
    with _emitted_lock:
        if key in _emitted:
            return
        _emitted.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)


def reset() -> None:
    """Forget which warnings fired (test isolation hook)."""
    _emitted.clear()
