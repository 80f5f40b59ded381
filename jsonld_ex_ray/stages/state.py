"""Per-worker-process state for plain Ray tasks, and the driver-side
broadcast it is keyed by.

The triples kernel, both linkers and the broadcast probe of
``ops/joins.py`` (``lookup_by_key``) run as plain ``map_batches``
tasks, not actor pools: an actor pool serialises whatever Ray fuses
into it and can hold every CPU of a small node, starving the read
tasks. Their expensive state (the kernel's context
cache, a linker's alias index, a lookup's key index) is built once per
worker process instead, keyed by the ``ray.put`` ref the driver
broadcast. Ray worker processes are long-lived, so a worker
reuses the entry across batches and across the fused extract → kernel →
linker task.

A linker dictionary is broadcast through :func:`shared_ref`, which puts
each dictionary content once per Ray connection and hands every later
call the same ref: a worker then builds a linker's index once per
dictionary content, not once per pipeline call.

One entry per stage kind, on both sides: a new key replaces the old
entry, so a long-lived worker (or driver) never pins more than one
dictionary per kind.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Callable

_STATE: dict[str, tuple[Any, Any]] = {}
_SHARED: dict[str, tuple[tuple[str, str, str], Any]] = {}


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


def content_digest(obj: Any) -> str:
    """sha256 of ``obj``'s pickle: equal for equal contents. A dict's
    pickle follows insertion order, so an equal dict built in another
    order only costs a second broadcast or a checkpoint rebuild."""
    return hashlib.sha256(pickle.dumps(obj, protocol=5)).hexdigest()


def shared_ref(kind: str, obj: Any) -> tuple[Any, str]:
    """``(ray.put(obj), content_digest(obj))``, the put made once per
    Ray connection and content: a later call with an equal ``obj`` gets
    the same ref, so the workers' ``worker_state`` entries keyed by it
    stay valid. The connection is named by its node and job ids: a new
    local cluster has a new node id and a new connection to a running
    cluster a new job id, so a ref owned by an ended connection (whose
    id a new connection may even reissue) is never handed out. The
    previous ``kind`` entry is dropped before a new put."""
    import ray

    digest = content_digest(obj)
    entry = _SHARED.get(kind)
    if entry is not None and ray.is_initialized() and entry[0] == _key(digest):
        return entry[1], digest
    _SHARED.pop(kind, None)
    ref = ray.put(obj)  # starts Ray if it is not running yet
    _SHARED[kind] = (_key(digest), ref)
    return ref, digest


def _key(digest: str) -> tuple[str, str, str]:
    """(node id, job id, ``digest``) of the running Ray connection."""
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id(), digest
