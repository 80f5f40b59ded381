"""Per-worker-process state for the KG stages' Ray tasks.

The triples kernel and both linkers run as plain ``map_batches`` tasks,
not actor pools: an actor pool serialises whatever Ray fuses into it and
can hold every CPU of a small node, starving the read tasks. Their
expensive state (the kernel's context cache, a linker's alias index) is
built once per worker process instead, keyed by the ``ray.put`` ref the
driver broadcast. Ray worker processes are long-lived, so a worker
reuses the entry across batches and across the fused extract → kernel →
linker task.

One entry per stage kind: a new key replaces the old entry, so a
long-lived worker never pins more than one dictionary per kind.
"""

from __future__ import annotations

from typing import Any, Callable

_STATE: dict[str, tuple[Any, Any]] = {}


def worker_state(kind: str, key: Any, build: Callable[[], Any]) -> Any:
    """The ``kind`` entry built by ``build()`` for ``key``; rebuilt (and
    the previous entry dropped first) when ``key`` differs from the one
    cached."""
    entry = _STATE.get(kind)
    if entry is not None and entry[0] == key:
        return entry[1]
    _STATE.pop(kind, None)
    value = build()
    _STATE[kind] = (key, value)
    return value
