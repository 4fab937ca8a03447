"""Deterministic fault injection: delays, exceptions, and worker faults.

Degradation paths are only trustworthy if they are *exercised*; this
module makes every failure mode reproducible from a seed so tier-1 tests
can prove each one (``tests/test_resilience.py``).

Two injection surfaces:

* **in-process sites** — ``with chaos_active(policy): ...`` installs a
  thread-local :class:`ChaosMonkey`; instrumented call sites (the fallback
  chain's stage entry, or any code calling :func:`chaos_point`) then
  deterministically sleep or raise :class:`ChaosError` according to the
  policy.  Decisions depend only on ``(seed, site, call ordinal)`` — the
  RNG is re-derived per decision from a string seed (SHA-512 underneath),
  so they are stable across processes and interpreter restarts.
* **service reply sites** — :meth:`ChaosPolicy.decide_reply` picks one
  fault (or none) for a service worker about to send a reply frame:
  ``kill`` (SIGKILL mid-request), ``blackhole`` (never reply, forcing the
  supervisor's timeout path), ``corrupt`` (flip bytes in the pickled
  reply frame), or ``delay``.  The decision is again a pure function of
  ``(seed, site, ordinal)``; supervised workers put their generation
  number in the site string so a restarted worker rolls a *fresh* stream
  instead of replaying the kill that just ended its predecessor
  (:mod:`repro.service.workers`).

Injected events are counted in the ``chaos.injected.*`` metrics
(delays/errors counted in-process; kills die with their worker and are
observed parent-side as ``service.supervisor.restarts``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import get_registry

__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "ChaosMonkey",
    "chaos_active",
    "current_chaos",
    "chaos_point",
]

_REG = get_registry()
_INJ_ERRORS = _REG.counter("chaos.injected.errors")
_INJ_DELAYS = _REG.counter("chaos.injected.delays")


class ChaosError(RuntimeError):
    """A deterministically injected (transient) failure."""


@dataclass(frozen=True)
class ChaosPolicy:
    """Declarative fault rates, all driven by one seed.

    Rates are probabilities in ``[0, 1]`` evaluated independently per
    decision; ``1.0`` means "always".  The service-level rates
    (``kill_rate``, ``blackhole_rate``, ``corrupt_rate``, ``delay_rate``)
    apply to worker reply sites via :meth:`decide_reply`; the in-process
    sites use ``error_rate``/``delay_rate`` via :class:`ChaosMonkey`.
    """

    seed: int = 0
    error_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.0
    kill_rate: float = 0.0
    blackhole_rate: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("error_rate", "delay_rate", "kill_rate",
                     "blackhole_rate", "corrupt_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")

    def _roll(self, site: str, ordinal: int) -> random.Random:
        # str seeds hash through SHA-512 — stable across processes, unlike
        # builtin hash() which is salted per interpreter.
        return random.Random(f"{self.seed}:{site}:{ordinal}")

    def decide_reply(self, site: str, ordinal: int) -> Optional[str]:
        """Pick at most one fault for a service worker reply, or ``None``.

        Rolls ``kill``, ``blackhole``, ``corrupt``, ``delay`` in that
        fixed order from one ``(seed, site, ordinal)``-derived RNG, so the
        whole reply schedule is reproducible.  The caller is responsible
        for acting on the verdict (``repro.service.workers`` SIGKILLs
        itself on ``kill``, skips the send on ``blackhole``, flips frame
        bytes on ``corrupt``, sleeps ``delay_s`` on ``delay``).
        """
        rng = self._roll(site, ordinal)
        if self.kill_rate and rng.random() < self.kill_rate:
            return "kill"
        if self.blackhole_rate and rng.random() < self.blackhole_rate:
            return "blackhole"
        if self.corrupt_rate and rng.random() < self.corrupt_rate:
            return "corrupt"
        if self.delay_rate and rng.random() < self.delay_rate:
            return "delay"
        return None

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosPolicy":
        """Parse a ``key=value,...`` string (the CLI ``--chaos`` flag).

        Keys are the dataclass fields (``seed`` parses as int, everything
        else as float); unknown keys or malformed pairs raise
        ``ValueError``.  Example: ``"seed=7,kill_rate=0.2,delay_s=0.01"``.
        """
        import dataclasses

        valid = {f.name for f in dataclasses.fields(cls)}
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or not value.strip():
                raise ValueError(f"chaos spec entry {part!r} is not key=value")
            if key not in valid:
                raise ValueError(
                    f"unknown chaos field {key!r} (valid: {sorted(valid)})"
                )
            try:
                kwargs[key] = (int(value) if key == "seed" else float(value))
            except ValueError:
                raise ValueError(f"chaos field {key!r} has non-numeric "
                                 f"value {value.strip()!r}")
        return cls(**kwargs)


class ChaosMonkey:
    """Per-thread injector executing a :class:`ChaosPolicy` at named sites."""

    def __init__(self, policy: ChaosPolicy):
        self.policy = policy
        self._lock = threading.Lock()
        self._ordinals: dict = {}

    def at(self, site: str) -> None:
        """Maybe inject a delay and/or an error at this site."""
        with self._lock:
            ordinal = self._ordinals.get(site, 0)
            self._ordinals[site] = ordinal + 1
        rng = self.policy._roll(site, ordinal)
        if self.policy.delay_rate and rng.random() < self.policy.delay_rate:
            _INJ_DELAYS.inc()
            time.sleep(self.policy.delay_s)
        if self.policy.error_rate and rng.random() < self.policy.error_rate:
            _INJ_ERRORS.inc()
            raise ChaosError(f"injected failure at {site!r} (call {ordinal})")


_TLS = threading.local()


def current_chaos() -> Optional[ChaosMonkey]:
    """The thread's active :class:`ChaosMonkey`, or ``None``."""
    return getattr(_TLS, "monkey", None)


@contextmanager
def chaos_active(policy: ChaosPolicy) -> Iterator[ChaosMonkey]:
    """Install ``policy`` as the thread's fault injector."""
    prev = getattr(_TLS, "monkey", None)
    monkey = ChaosMonkey(policy)
    _TLS.monkey = monkey
    try:
        yield monkey
    finally:
        _TLS.monkey = prev


def chaos_point(site: str) -> None:
    """Instrumented call site: no-op unless a chaos policy is active."""
    monkey = getattr(_TLS, "monkey", None)
    if monkey is not None:
        monkey.at(site)
