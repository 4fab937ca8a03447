"""Exception -> exit code: the one table the CLI and the service wire share.

``repro-sectors`` exits with, and the solver service answers with, the
same codes (``docs/RESILIENCE.md``, ``docs/SERVICE.md``).
:data:`ERROR_CODES` is ordered: an exception takes the code of the first
class it is an instance of, so a subclass is classified like its base on
both paths (``InfeasibleCoverError`` is a ``ValueError``: usage, ``2``).

:func:`repro.cli.main` classifies the raised exception directly.  A wire
failure crosses a process boundary as the report's ``error`` string, so
every failure report writes it with :func:`error_text`, whose leading
type name is the matched table class, and :func:`status_from_error`
reads the code back from that name.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from repro.model.instance import InvalidInstanceError
from repro.model.solution import FeasibilityError
from repro.resilience.budget import BudgetExpired

__all__ = [
    "EXIT_OK",
    "EXIT_INTERNAL",
    "EXIT_USAGE",
    "EXIT_INVALID_INPUT",
    "EXIT_TIMEOUT",
    "EXIT_OVERLOADED",
    "ERROR_CODES",
    "WorkerUnavailable",
    "classify",
    "error_text",
    "status_from_error",
]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3
EXIT_TIMEOUT = 4
#: Wire-born: the CLI only exits with it when ``client`` relays a shed
#: or worker-less response.
EXIT_OVERLOADED = 5


class WorkerUnavailable(RuntimeError):
    """No service worker is up to run a request that must not run elsewhere."""


#: ``(exception class, code)`` rows; the first ``isinstance`` match wins,
#: anything unmatched is an internal error.
ERROR_CODES: Tuple[Tuple[type, int], ...] = (
    (BudgetExpired, EXIT_TIMEOUT),
    (InvalidInstanceError, EXIT_INVALID_INPUT),
    (json.JSONDecodeError, EXIT_INVALID_INPUT),
    (OSError, EXIT_INVALID_INPUT),
    (FeasibilityError, EXIT_INTERNAL),
    (WorkerUnavailable, EXIT_OVERLOADED),
    (ValueError, EXIT_USAGE),
    (KeyError, EXIT_USAGE),
    (TypeError, EXIT_USAGE),
)

_CODE_BY_NAME = {cls.__name__: code for cls, code in ERROR_CODES}


def classify(exc: BaseException) -> Tuple[Optional[type], int]:
    """``(matched table class, code)``; ``(None, EXIT_INTERNAL)`` if none."""
    for cls, code in ERROR_CODES:
        if isinstance(exc, cls):
            return cls, code
    return None, EXIT_INTERNAL


def error_text(exc: BaseException) -> str:
    """The ``"Type: message"`` error string of a failure report.

    An exception whose own class is not a table row but subclasses one is
    prefixed with that row's name (``"ValueError: InfeasibleCoverError:
    ..."``), so :func:`status_from_error` classifies it by class.
    """
    cls, _ = classify(exc)
    name = type(exc).__name__
    if cls is None or cls is type(exc):
        return f"{name}: {exc}"
    return f"{cls.__name__}: {name}: {exc}"


def status_from_error(error: Optional[str]) -> int:
    """The code of a report ``error`` string (``None`` means success)."""
    if not error:
        return EXIT_OK
    return _CODE_BY_NAME.get(error.split(":", 1)[0].strip(), EXIT_INTERNAL)
