"""Every execution switch of the repository, resolved by one rule.

A switch decides *which code* computes a result (fast or reference
kernels and engines) or *how* a campaign executes (scheduler, worker
count). There are five, one environment variable each:

- :data:`KERNELS` — ``REPRO_KERNELS``: ``fast`` (default) or ``reference``
  codec kernels (bit-identical);
- :data:`PERF` — ``REPRO_PERF``: ``reference`` (default) or ``fast`` perf
  engine;
- :data:`FAULTSIM` — ``REPRO_FAULTSIM``: ``reference`` (default) or
  ``fast`` Monte-Carlo engine;
- :data:`SCHEDULER` — ``REPRO_SCHEDULER``: ``pool`` (default) or
  ``steal`` campaign fan-out;
- :data:`WORKERS` — ``REPRO_WORKERS``: campaign worker processes, an
  integer >= 1 (default 1).

Resolution is the same for all of them (:meth:`Switch.get`): an explicit
argument (a config field, a keyword, a CLI flag) > the innermost active
:meth:`Switch.override` > the environment variable > the default. The
environment is read once, when this module is imported; its values are
stripped and lower-cased, and one that does not validate raises
``ValueError`` naming the variable. Nothing else in the package reads
``os.environ``.

Overrides live in a :class:`contextvars.ContextVar`, so they are scoped
to the thread (or asyncio task) that sets them: a campaign-server job
thread forcing the reference engine never changes the mode another job
thread sees. A process forked inside an override inherits it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator, Optional, Tuple


def choice(*values: str) -> Callable[[Any], str]:
    """A validator accepting exactly ``values``."""

    def validate(value: Any) -> str:
        if value not in values:
            raise ValueError(f"use one of {values}")
        return value

    return validate


def positive_int(value: Any) -> int:
    """A validator accepting integers >= 1 (or their decimal strings)."""
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ValueError("use an integer >= 1")
    return count


class Switch:
    """One switch: environment variable, validator and default."""

    def __init__(self, env: str, validate: Callable[[Any], Any], default: Any):
        self.env = env
        self.validate = validate
        self.default = default
        raw = os.environ.get(env, "").strip().lower()
        if raw:
            try:
                default = validate(raw)
            except ValueError as error:
                raise ValueError(f"{env}={raw!r} is not recognized; {error}") from None
        # The variable's fallback is the environment value (or the
        # default), so resolving without an override is one lookup.
        self._var: ContextVar = ContextVar(env, default=default)

    def get(self, value: Optional[Any] = None) -> Any:
        """``value`` if given (validated); else the override, the
        environment value or the default, in that order."""
        if value is None:
            return self._var.get()
        try:
            return self.validate(value)
        except ValueError as error:
            raise ValueError(f"{value!r} is not a valid {self.env} value; {error}") from None

    @contextmanager
    def override(self, value: Any) -> Iterator[None]:
        """Resolve to ``value`` inside the block, in this context only."""
        token = self._var.set(self.get(value))
        try:
            yield
        finally:
            self._var.reset(token)


_ENGINES = choice("fast", "reference")

KERNELS = Switch("REPRO_KERNELS", _ENGINES, "fast")
PERF = Switch("REPRO_PERF", _ENGINES, "reference")
FAULTSIM = Switch("REPRO_FAULTSIM", _ENGINES, "reference")
SCHEDULER = Switch("REPRO_SCHEDULER", choice("pool", "steal"), "pool")
WORKERS = Switch("REPRO_WORKERS", positive_int, 1)

SWITCHES: Tuple[Switch, ...] = (KERNELS, PERF, FAULTSIM, SCHEDULER, WORKERS)
