"""Instance-fingerprint caches: solve results and canonical instances.

Two process-wide LRU caches keyed by **content**, not identity:

* the **result cache** memoizes full verified solve results under
  ``(instance fingerprint, family, algorithm, eps, seed)``;
* the **compile cache** interns one *canonical instance* per content
  fingerprint (:func:`intern_instance`).  The compiled view every solver
  consumes — sorted-angle permutations, demand/profit prefix sums, shared
  sweeps, candidate grids, constraint masks — lives in that object's
  ``Instance.compile()`` memo, the only compile memo there is.  The
  engine runs each monolithic solve, and its verification, on the
  canonical object, so ``solve_many`` batches and each service worker
  compile each distinct instance once, no matter how many requests
  reference equal content.  ``Instance.compile()`` itself consults no
  process-wide cache: a caller that never goes through the engine (or the
  partitioned strategy's parent instance) compiles on its own object and
  frees the view with it.

Keying is a SHA-256 over the canonical content: array bytes plus the
antenna/station scalars, via :func:`fingerprint`.  Two instances with
equal content share entries no matter how they were constructed; any
content change produces a new key, so *correctness* never needs an
invalidation protocol — stale entries simply age out of the LRU.  This is
sound because instances are immutable by contract (read-only arrays,
frozen dataclasses, a staleness token re-checked on every ``compile()``
memo hit) and a compiled view is append-only after construction
(its internal memo tables only accrete sweeps for new widths).  The online
delta layer (:mod:`repro.online.delta`, ``docs/ONLINE.md``) additionally
performs *capacity hygiene*: when an event stream touches a sector, it
calls :meth:`LruCache.evict` on the registered result keys whose angular
window contains a touched customer, so dead keys stop occupying LRU slots
while untouched-sector entries stay warm.

Mutation safety: the result cache stores and returns **deep copies**, so
callers may freely edit what they get back.  The compile cache returns
shared instances; their arrays, and their views' arrays, are read-only.

Hit/miss/eviction counters live in the metrics registry under
``engine.cache.*`` and ``engine.compile.*`` (contract:
``docs/OBSERVABILITY.md``).

Budget-bounded solves are **never cached**: a deadline-truncated result
is not canonical for the instance (see ``docs/ENGINE.md``).
"""

from __future__ import annotations

import copy
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

import numpy as np

from repro.model.instance import AngleInstance, SectorInstance
from repro.obs.metrics import get_registry

__all__ = [
    "LruCache",
    "RESULT_CACHE",
    "COMPILE_CACHE",
    "fingerprint",
    "result_key",
    "intern_instance",
    "clear_caches",
]

#: Default capacities.  Results hold full solutions (small: two arrays of
#: size n/k); compile entries hold an instance plus its compiled view
#: (sorted permutations and prefix sums, O(n) per station and width).
RESULT_CACHE_MAXSIZE = 256
COMPILE_CACHE_MAXSIZE = 128


class LruCache:
    """Thread-safe LRU with hit/miss/eviction counters in the registry.

    ``metric_prefix`` names the counter family (``<prefix>.hits`` /
    ``.misses`` / ``.evictions``).  ``copy_values=True`` deep-copies on
    both ``put`` and ``get`` so cached payloads can never be mutated
    through what callers hold.
    """

    def __init__(self, metric_prefix: str, maxsize: int, copy_values: bool = False):
        reg = get_registry()
        self._hits = reg.counter(f"{metric_prefix}.hits")
        self._misses = reg.counter(f"{metric_prefix}.misses")
        self._evictions = reg.counter(f"{metric_prefix}.evictions")
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._maxsize = int(maxsize)
        self._copy = copy_values

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits.inc()
                value = self._data[key]
                return copy.deepcopy(value) if self._copy else value
            self._misses.inc()
            return None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = copy.deepcopy(value) if self._copy else value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions.inc()

    def evict(self, key: Hashable) -> bool:
        """Drop one entry by key; True if it was present.

        Used by the online delta layer's per-sector invalidation
        (``docs/ONLINE.md``): keys whose angular window contains a touched
        customer are dead (their content fingerprint can never recur), so
        evicting them is pure capacity hygiene.  Counted under
        ``<prefix>.evictions`` like a capacity eviction.
        """
        with self._lock:
            if key in self._data:
                del self._data[key]
                self._evictions.inc()
                return True
            return False

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def resize(self, maxsize: int) -> None:
        """Shrink/grow capacity (evicting LRU-first); used by tests."""
        with self._lock:
            self._maxsize = int(maxsize)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions.inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


RESULT_CACHE = LruCache("engine.cache", RESULT_CACHE_MAXSIZE, copy_values=True)
COMPILE_CACHE = LruCache("engine.compile", COMPILE_CACHE_MAXSIZE)


def clear_caches() -> None:
    """Empty both caches (counters keep accumulating; reset them via the
    metrics registry)."""
    RESULT_CACHE.clear()
    COMPILE_CACHE.clear()


# ----------------------------------------------------------------------
# Content fingerprinting
# ----------------------------------------------------------------------
def _hash_array(h, arr: np.ndarray) -> None:
    h.update(np.ascontiguousarray(arr).tobytes())


def _hash_antenna(h, spec) -> None:
    h.update(repr((spec.rho, spec.capacity, spec.radius, spec.name)).encode())


def fingerprint(instance) -> str:
    """Canonical SHA-256 content hash of an instance (hex digest).

    Equal-content instances fingerprint identically regardless of how
    they were built (generator, JSON round-trip, ``restrict()``...).
    Computing it is linear in the instance size and costs microseconds at
    the sizes the suite handles, so fingerprints are not memoized.
    """
    h = hashlib.sha256()
    if isinstance(instance, AngleInstance):
        h.update(b"angle")
        _hash_array(h, instance.thetas)
        _hash_array(h, instance.demands)
        _hash_array(h, instance.profits)
        for spec in instance.antennas:
            _hash_antenna(h, spec)
    elif isinstance(instance, SectorInstance):
        h.update(b"sector")
        _hash_array(h, instance.positions)
        _hash_array(h, instance.demands)
        _hash_array(h, instance.profits)
        for station in instance.stations:
            h.update(repr(station.position).encode())
            for spec in station.antennas:
                _hash_antenna(h, spec)
        if instance.constraints:
            # Hashed only when present, so unconstrained instances keep
            # their pre-pipeline fingerprints (warm caches stay warm and
            # the shard routing of existing deployments is undisturbed).
            from repro.model.constraints import constraint_to_dict

            h.update(b"constraints")
            for c in instance.constraints:
                h.update(repr(sorted(constraint_to_dict(c).items())).encode())
    else:
        raise TypeError(f"cannot fingerprint {type(instance).__name__}")
    return h.hexdigest()


def result_key(
    instance, family: str, algorithm: str, eps: float, seed: int
) -> Tuple:
    """Cache key for a full solve result.

    ``eps`` and ``seed`` are always part of the key: they are cheap to
    include and make the key an honest function of everything that can
    change a solver's output (eps selects the oracle, seed drives the
    randomized rounding).
    """
    return (fingerprint(instance), family, algorithm, float(eps), int(seed))


# ----------------------------------------------------------------------
# Canonical instances
# ----------------------------------------------------------------------
def intern_instance(instance):
    """The canonical equal-content instance for ``instance``.

    Returns the first instance with this content fingerprint still held
    by the compile cache (its ``compile()`` memo is then already warm), or
    registers ``instance`` itself as canonical on a miss.  Payloads that
    are not angle or sector instances (knapsack triples) pass through.
    Counted under ``engine.compile.{hits,misses,evictions}``.
    """
    if not isinstance(instance, (AngleInstance, SectorInstance)):
        return instance
    key = fingerprint(instance)
    canonical = COMPILE_CACHE.get(key)
    if canonical is None:
        COMPILE_CACHE.put(key, instance)
        canonical = instance
    return canonical
