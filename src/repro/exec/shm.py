"""Shared-memory topology pools: map the graph once per machine, not per worker.

PR 5's :mod:`repro.exec.cache` stopped each *process* from regenerating the
same base topology; at 10^5-10^6 nodes the remaining cost is that every
pooled worker still builds (and holds) its own copy of the graph — hundreds
of megabytes of identical ``int64`` arrays per process.  This module is the
next rung of the ROADMAP's "shared-memory topology path": the runner
*publishes* the base topologies (and the array kernel's derived
:class:`~repro.kernel.csr.EdgeUniverse` CSR arrays) that several work units
share into ``multiprocessing.shared_memory`` segments, and pooled workers
*attach* them — one physical copy of the adjacency arrays per machine,
mapped zero-copy into every worker.

Lifecycle and correctness rules:

* **The runner owns the segments.**  :func:`publish_for_chunks` (called by
  :func:`repro.exec.runner.run_units` before pooled dispatch) creates them
  and :meth:`SharedTopologyPool.close` unlinks them when the batch ends —
  workers never unlink, they only map.  Worker processes therefore call
  :func:`multiprocessing.resource_tracker.unregister` right after
  attaching: without it Python's resource tracker would tear the segment
  down when the *first* pool worker exits (the 3.11 ``SharedMemory`` API
  has no ``track=False``).
* **Publication is keyed, not guessed.**  Segments are registered under the
  same ``(family, params, n, derived topology-stream seed)`` key the
  per-process cache uses, serialised through the ``REPRO_SHM_TOPOLOGIES``
  environment variable which pooled workers inherit.  A worker that misses
  both its local cache and the registry simply regenerates — shm is a pure
  accelerator, never a correctness dependency.
* **Byte-identity.**  The published arrays come from a topology built by the
  real generator on the real derived stream, and workers rebuild it with
  :meth:`Topology.from_arrays`, so an attached topology equals a regenerated
  one and iterates its sets in the same order (rows can see set order:
  targeted-mis iterates ``neighbors(v)``).  ``from_arrays`` replays the
  insertion order of a build over sorted edges, as :func:`generators.gnp`
  makes; a topology a generator built in another order (geometric, grid)
  is published as its edge universe only, and workers regenerate it.  The
  kernel-vs-full equivalence gates and the store drift gate run unchanged
  over shm-backed runs.
* **Attached arrays are read-only.**  Views handed to the engine have their
  ``writeable`` flag cleared; segments stay mapped for the lifetime of the
  attaching process (traces may hold :class:`ArrayDelta` references into
  them).

Segment names follow ``repro-shm-<pid>-<key>`` so ``repro audit`` can spot
segments whose owning runner died (see :func:`stale_segments`) and
``repro repair`` can unlink them.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dynamics.topology import Topology
from repro.kernel.csr import EdgeUniverse
from repro.utils.rng import derive_seed

__all__ = [
    "REGISTRY_ENV",
    "SharedTopologyPool",
    "attach_topology",
    "publish_for_chunks",
    "shared_edge_universe",
    "shm_info",
    "stale_segments",
    "topology_key",
]

#: Environment variable carrying the ``{key: segment-name}`` registry to
#: pooled workers (they inherit the runner's environment on fork/spawn).
REGISTRY_ENV = "REPRO_SHM_TOPOLOGIES"

#: Publish a topology only when at least this many units of the batch share
#: it (publishing costs one serial build in the runner — it has to amortise).
_MIN_SHARERS = 2

#: Hard caps on what one runner may publish: segments and total bytes.
_MAX_SEGMENTS = 32
_MAX_TOTAL_BYTES = 4 << 30

#: ``int64`` header words at the start of every segment:
#: ``[n, num_nodes, m, um, exact]`` (``um == usrc.size == 2 * m``; ``exact``
#: is 1 when :meth:`Topology.from_arrays` rebuilds the topology exactly).
_HEADER_WORDS = 5

# -- process-local state ----------------------------------------------------

#: Segments this process created (runner side): key -> SharedMemory.
_OWNED: Dict[str, Any] = {}

#: Segments this process mapped (worker side): key -> SharedMemory.  Never
#: closed before process exit — attached Topology/EdgeUniverse arrays alias
#: the mapping.
_ATTACHED: Dict[str, Any] = {}

#: Small FIFO of built/attached edge universes keyed by ``(n, edges tuple)``.
#: Tuple keys compare by content at C speed, so a churn process that re-sorts
#: the same edge set into a fresh tuple still hits.  Kept tiny — each entry
#: can be hundreds of MB when not shm-backed.
_UNIVERSE_CACHE: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], EdgeUniverse] = {}
_UNIVERSE_CACHE_MAX = 8

_ATTACH_HITS = 0
_ATTACH_MISSES = 0


# ---------------------------------------------------------------------------
# keys and registry
# ---------------------------------------------------------------------------


def topology_key(name: str, params: Mapping[str, Any], n: int, master_seed: int) -> str:
    """The registry key of one base topology build.

    Mirrors the per-process cache key of
    :func:`repro.exec.cache.cached_base_topology`: the derived
    ``("topology", name, n)`` stream seed plus the canonicalised params, so
    runner and worker agree on the key from the spec alone.
    """
    stream_seed = derive_seed(master_seed, "topology", name, n)
    raw = (name, n, stream_seed, tuple(sorted((k, repr(v)) for k, v in params.items())))
    return hashlib.sha256(repr(raw).encode("utf-8")).hexdigest()[:16]


def _registry() -> Dict[str, str]:
    raw = os.environ.get(REGISTRY_ENV)
    if not raw:
        return {}
    try:
        data = json.loads(raw)
    except ValueError:
        return {}
    return {str(k): str(v) for k, v in data.items()} if isinstance(data, dict) else {}


def _write_registry(mapping: Dict[str, str]) -> None:
    if mapping:
        os.environ[REGISTRY_ENV] = json.dumps(mapping, sort_keys=True)
    else:
        os.environ.pop(REGISTRY_ENV, None)


# ---------------------------------------------------------------------------
# segment layout
# ---------------------------------------------------------------------------


def _pack(topology: Topology, n: int):
    """``(total_bytes, writer)`` for one topology + its derived universe."""
    nodes = np.fromiter(sorted(topology.nodes), dtype=np.int64, count=topology.num_nodes)
    universe = EdgeUniverse(n, topology.sorted_edges())
    exact = Topology.from_arrays(nodes, universe.eu, universe.ev).iterates_like(topology)
    m = universe.m
    um = universe.usrc.size
    arrays = [
        np.array([n, nodes.size, m, um, exact], dtype=np.int64),
        nodes,
        universe.eu,
        universe.ev,
        universe.usrc,
        universe.udst,
        universe.uedge,
        universe.indptr,
    ]
    total = sum(a.nbytes for a in arrays)

    def write(buf: memoryview) -> None:
        offset = 0
        for a in arrays:
            out = np.ndarray(a.shape, dtype=np.int64, buffer=buf, offset=offset)
            out[:] = a
            offset += a.nbytes

    return total, write


def _unpack(buf: memoryview):
    """``(n, exact, nodes, eu, ev, usrc, udst, uedge, indptr)``, arrays as read-only views."""
    header = np.ndarray((_HEADER_WORDS,), dtype=np.int64, buffer=buf)
    n, num_nodes, m, um, exact = (int(x) for x in header)
    offset = _HEADER_WORDS * 8
    views = []
    for size in (num_nodes, m, m, um, um, um, n + 1):
        view = np.ndarray((size,), dtype=np.int64, buffer=buf, offset=offset)
        view.flags.writeable = False
        views.append(view)
        offset += size * 8
    return (n, bool(exact), *views)


# ---------------------------------------------------------------------------
# runner side: publish
# ---------------------------------------------------------------------------


def _publish(key: str, topology: Topology, n: int, budget: int) -> int:
    """Create one segment for ``key``; returns its size (0 when skipped)."""
    from multiprocessing import shared_memory

    if key in _OWNED:
        return 0
    total, write = _pack(topology, n)
    if total > budget:
        return 0
    name = f"repro-shm-{os.getpid()}-{key}"
    try:
        segment = shared_memory.SharedMemory(name=name, create=True, size=max(total, 1))
    except (OSError, FileExistsError):
        return 0
    write(segment.buf)
    _OWNED[key] = segment
    registry = _registry()
    registry[key] = name
    _write_registry(registry)
    return total


class SharedTopologyPool:
    """Runner-owned handle over the segments published for one batch."""

    def __init__(self) -> None:
        self._keys: List[str] = []
        self.published_bytes = 0

    @property
    def segments(self) -> int:
        return len(self._keys)

    def publish(self, key: str, topology: Topology, n: int) -> bool:
        if len(self._keys) >= _MAX_SEGMENTS:
            return False
        size = _publish(key, topology, n, _MAX_TOTAL_BYTES - self.published_bytes)
        if size:
            self._keys.append(key)
            self.published_bytes += size
        return bool(size)

    def close(self) -> None:
        """Unlink every segment this pool published and drop registry entries."""
        registry = _registry()
        for key in self._keys:
            segment = _OWNED.pop(key, None)
            registry.pop(key, None)
            if segment is not None:
                try:
                    segment.close()
                except (OSError, BufferError):
                    pass  # live views keep the mapping; the unlink still frees the name
                try:
                    segment.unlink()
                except OSError:
                    pass
        self._keys = []
        _write_registry(registry)

    def __enter__(self) -> "SharedTopologyPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def publish_for_chunks(chunks: Sequence[Any]) -> Optional[SharedTopologyPool]:
    """Publish every base topology shared by >= 2 units of ``chunks``.

    Builds the shared topologies through the per-process cache (so the
    runner's own serial fallback reuses them too) and returns the owning
    pool, or ``None`` when nothing in the batch is shared.  Publication
    failures are silent by design — workers regenerate on a miss.
    """
    counts: Dict[str, int] = {}
    builders: Dict[str, Tuple[str, Mapping[str, Any], int, int]] = {}
    for chunk in chunks:
        spec_dict = chunk.spec_dict
        topology = spec_dict.get("topology")
        if not isinstance(topology, Mapping) or "name" not in topology:
            continue
        name = topology["name"]
        params = topology.get("params", {}) or {}
        n = int(spec_dict["n"])
        for seed in chunk.seeds:
            key = topology_key(name, params, n, int(seed))
            counts[key] = counts.get(key, 0) + 1
            builders.setdefault(key, (name, params, n, int(seed)))
    shared = [k for k, c in sorted(counts.items(), key=lambda kv: -kv[1]) if c >= _MIN_SHARERS]
    if not shared:
        return None
    from repro.exec.cache import cached_base_topology

    pool = SharedTopologyPool()
    for key in shared:
        name, params, n, seed = builders[key]
        try:
            topology = cached_base_topology(name, params, n, seed)
        except Exception:
            continue  # a broken spec fails identically in the workers
        if not pool.publish(key, topology, n):
            break
    if pool.segments == 0:
        pool.close()
        return None
    return pool


# ---------------------------------------------------------------------------
# worker side: attach
# ---------------------------------------------------------------------------


def _universe_from_views(n, m, eu, ev, usrc, udst, uedge, indptr) -> EdgeUniverse:
    universe = EdgeUniverse.__new__(EdgeUniverse)
    universe.n = n
    universe.m = m
    universe.eu = eu
    universe.ev = ev
    universe.usrc = usrc
    universe.udst = udst
    universe.uedge = uedge
    universe.indptr = indptr
    return universe


def _cache_universe(n: int, edges: Tuple[Tuple[int, int], ...], universe: EdgeUniverse) -> None:
    while len(_UNIVERSE_CACHE) >= _UNIVERSE_CACHE_MAX:
        _UNIVERSE_CACHE.pop(next(iter(_UNIVERSE_CACHE)))
    _UNIVERSE_CACHE[(n, edges)] = universe


def attach_topology(key: str) -> Optional[Topology]:
    """Map the registered segment for ``key``; ``None`` when unavailable.

    ``None`` too when the segment carries only the edge universe (the
    topology is not rebuilt exactly from arrays, see the module notes).
    Also primes the process-local edge-universe cache with the segment's
    zero-copy CSR arrays, so the array kernel over the same base graph maps
    the adjacency instead of rebuilding it.
    """
    global _ATTACH_HITS, _ATTACH_MISSES
    name = _registry().get(key)
    if name is None:
        return None
    if key in _ATTACHED:
        segment = _ATTACHED[key]
    else:
        from multiprocessing import resource_tracker, shared_memory

        try:
            segment = shared_memory.SharedMemory(name=name)
        except (OSError, FileNotFoundError):
            _ATTACH_MISSES += 1
            return None
        if key not in _OWNED:
            # Undo the attach-side registration: the runner owns the unlink;
            # letting this process's resource tracker "clean up" would rip
            # the segment out from under every sibling worker (3.11 has no
            # track=False).
            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:
                pass
        _ATTACHED[key] = segment
    n, exact, nodes, eu, ev, usrc, udst, uedge, indptr = _unpack(segment.buf)
    if exact:
        topology = Topology.from_arrays(nodes, eu, ev)
        edges = topology.sorted_edges()
    else:
        topology = None
        edges = tuple(zip(eu.tolist(), ev.tolist()))
    _cache_universe(n, edges, _universe_from_views(n, len(edges), eu, ev, usrc, udst, uedge, indptr))
    if topology is not None:
        _ATTACH_HITS += 1
    return topology


def shared_edge_universe(n: int, edges: Tuple[Tuple[int, int], ...]) -> EdgeUniverse:
    """The :class:`EdgeUniverse` over ``edges`` — shm-mapped or cached when possible.

    The cache key is the edge tuple's *content* (tuple hashing/equality is
    C-speed), so any plan whose universe matches a published or previously
    built one — grid points sharing a base graph, verification re-runs —
    reuses the CSR arrays instead of re-sorting them.
    """
    edges = tuple(edges)
    key = (int(n), edges)
    universe = _UNIVERSE_CACHE.get(key)
    if universe is None:
        universe = EdgeUniverse(n, edges)
        _cache_universe(key[0], edges, universe)
    return universe


# ---------------------------------------------------------------------------
# observability: audit / repair / tests
# ---------------------------------------------------------------------------


def shm_info() -> Dict[str, Any]:
    """Counters and segment lists of this process's shm state."""
    return {
        "owned": sorted(_OWNED),
        "attached": sorted(_ATTACHED),
        "registry": sorted(_registry()),
        "attach_hits": _ATTACH_HITS,
        "attach_misses": _ATTACH_MISSES,
        "universe_cache_entries": len(_UNIVERSE_CACHE),
    }


def _segment_dir() -> str:
    return "/dev/shm"


def stale_segments() -> List[str]:
    """``repro-shm-*`` segments on this machine whose owning process is gone.

    A live runner's segments are healthy; anything left by a dead pid is a
    leak (a killed runner never reached :meth:`SharedTopologyPool.close`)
    that ``repro repair`` may unlink.
    """
    directory = _segment_dir()
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    stale = []
    for name in names:
        if not name.startswith("repro-shm-"):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            stale.append(name)
            continue
        if not os.path.exists(f"/proc/{pid}"):
            stale.append(name)
    return sorted(stale)


def unlink_stale_segments() -> List[str]:
    """Unlink every stale segment; returns the names removed."""
    removed = []
    for name in stale_segments():
        try:
            os.unlink(os.path.join(_segment_dir(), name))
            removed.append(name)
        except OSError:
            pass
    return removed


def shm_state_clear() -> None:
    """Drop owned/attached segments and caches (test isolation).

    Owned segments are unlinked; attached segments are only closed.
    """
    registry = _registry()
    for key, segment in list(_OWNED.items()):
        registry.pop(key, None)
        try:
            segment.close()
        except (OSError, BufferError):
            pass
        try:
            segment.unlink()
        except OSError:
            pass
    _OWNED.clear()
    for segment in _ATTACHED.values():
        try:
            segment.close()
        except (OSError, BufferError):
            pass
    _ATTACHED.clear()
    _UNIVERSE_CACHE.clear()
    _write_registry(registry)
    global _ATTACH_HITS, _ATTACH_MISSES
    _ATTACH_HITS = 0
    _ATTACH_MISSES = 0
