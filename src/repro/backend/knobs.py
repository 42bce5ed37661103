"""Process-wide execution knobs, resolved through one precedence chain.

These are the CLI's ``--jobs`` / ``--batch-size`` / ``--backend`` /
``--deadline`` / ``--slow-job-threshold`` and their environment twins
(``REPRO_JOBS``, ``REPRO_BATCH``, ``REPRO_BACKEND``,
``REPRO_DEADLINE``, ``REPRO_SLOW_JOB``).  Every one resolves the same
way: explicit argument, process default set by the CLI, environment
variable, then a built-in fallback.

They live here — below :mod:`repro.exec` and :mod:`repro.backend.base`
— because both layers consult them; :mod:`repro.exec.executor`
re-exports the worker and batch names for their long-standing import
paths.

The resolved batch size is a **cap** on the adaptive batch sizer, not
a fixed size: backends start from it (or the four-batches-per-worker
heuristic when nothing is set) and shrink batches when measured per-job
cost says a full batch would run past the sizer's latency target.
:func:`resolve_batch_cap` returns None when no cap is configured.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.errors import ConfigurationError

#: Every registered backend, in documentation order.
BACKEND_NAMES = ("inline", "warm")

_default_jobs: int | None = None
_default_batch: int | None = None
_default_backend: str | None = None
_default_deadline: float | None = None
_default_slow_threshold: float | None = None

#: ``repro serve``'s slow-job threshold when neither its flag nor
#: ``REPRO_SLOW_JOB`` sets one.
SERVE_SLOW_JOB_S = 30.0


def _chain(
    explicit: Any,
    default: Any,
    what: str,
    var: str,
    check: Callable[[Any, str], Any],
    parse: Callable[[str, str], Any],
) -> Any:
    """explicit > process default > ``$var``; None when none is set.

    ``check(value, what)`` validates a value given in code and
    ``parse(text, var)`` the raw environment text; each resolver
    supplies its own fallback for None.
    """
    for candidate in (explicit, default):
        if candidate is not None:
            return check(candidate, what)
    text = os.environ.get(var, "").strip()
    return parse(text, var) if text else None


def _at_least_one(value: int, what: str) -> int:
    if value < 1:
        raise ConfigurationError(f"{what} must be >= 1, got {value}")
    return value


def _parse_count(text: str, var: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError(
            f"{var} must be an integer, got {text!r}"
        ) from None
    return _at_least_one(value, var)


def _positive_seconds(value: float | None, what: str) -> float | None:
    if value is not None and not value > 0:
        raise ConfigurationError(f"{what} must be > 0 seconds, got {value}")
    return value


def _parse_seconds(text: str, var: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(
            f"{var} must be a number of seconds, got {text!r}"
        ) from None
    return _positive_seconds(value, var)


def _known_backend(name: str, what: str = "backend") -> str:
    name = name.strip().lower()
    if name not in BACKEND_NAMES:
        known = ", ".join(BACKEND_NAMES)
        raise ConfigurationError(
            f"unknown backend {name!r}; known: {known}"
        )
    return name


# -- worker count -----------------------------------------------------------

def set_default_jobs(jobs: int | None) -> None:
    """Set the process-wide worker count (the CLI's ``--jobs``)."""
    global _default_jobs
    _default_jobs = None if jobs is None else _at_least_one(jobs, "jobs")


def resolve_jobs(explicit: int | None = None) -> int:
    """Worker count: explicit arg > set_default_jobs > $REPRO_JOBS > 1."""
    jobs = _chain(
        explicit, _default_jobs, "jobs", "REPRO_JOBS",
        _at_least_one, _parse_count,
    )
    return 1 if jobs is None else jobs


# -- batch cap --------------------------------------------------------------

def set_default_batch(batch: int | None) -> None:
    """Set the process-wide batch cap (the CLI's ``--batch-size``)."""
    global _default_batch
    _default_batch = (
        None if batch is None else _at_least_one(batch, "batch size")
    )


def resolve_batch_cap(explicit: int | None = None) -> int | None:
    """The configured batch cap, or None when nothing was set.

    Chain: explicit > set_default_batch > $REPRO_BATCH.  There is no
    automatic fallback — the adaptive sizer supplies its own size when
    no cap is configured.
    """
    return _chain(
        explicit, _default_batch, "batch size", "REPRO_BATCH",
        _at_least_one, _parse_count,
    )


# -- backend name -----------------------------------------------------------

def set_default_backend(name: str | None) -> None:
    """Set the process-wide backend (the CLI's ``--backend``)."""
    global _default_backend
    _default_backend = None if name is None else _known_backend(name)


def resolve_backend_name(
    explicit: str | None = None, jobs: int | None = None
) -> str:
    """Backend name: explicit > default > $REPRO_BACKEND > by-jobs.

    With nothing configured, one job slot means ``inline`` and more
    means ``warm`` (``inline`` where fork is unavailable) — so plain
    ``--jobs 4`` gets the persistent fleet without further flags.
    """
    name = _chain(
        explicit, _default_backend, "backend", "REPRO_BACKEND",
        _known_backend, _known_backend,
    )
    if name is not None:
        return name
    from repro.backend.warm import warm_available

    return "warm" if resolve_jobs(jobs) > 1 and warm_available() else "inline"


# -- watchdog thresholds ----------------------------------------------------

def set_default_deadline(seconds: float | None) -> None:
    """Set the process-wide per-job deadline (the CLI's ``--deadline``)."""
    global _default_deadline
    _default_deadline = _positive_seconds(seconds, "deadline")


def resolve_deadline(explicit: float | None = None) -> float | None:
    """Per-job deadline in seconds, or None when the watchdog is off.

    Chain: explicit > set_default_deadline > $REPRO_DEADLINE.  When
    set, the warm backend's collect loop revives any worker whose
    oldest in-flight batch has been running longer than
    ``deadline × batch size`` and re-dispatches its batches.
    """
    return _chain(
        explicit, _default_deadline, "deadline", "REPRO_DEADLINE",
        _positive_seconds, _parse_seconds,
    )


def set_default_slow_threshold(seconds: float | None) -> None:
    """Set the slow-job warning threshold (``--slow-job-threshold``)."""
    global _default_slow_threshold
    _default_slow_threshold = _positive_seconds(seconds, "slow-job threshold")


def resolve_slow_threshold(explicit: float | None = None) -> float | None:
    """Slow-job warning threshold in seconds, or None when off.

    Chain: explicit > set_default_slow_threshold > $REPRO_SLOW_JOB.
    Crossing it warns (and counts into
    ``repro_slow_job_warnings_total``) but never kills anything —
    that's the deadline's job.
    """
    return _chain(
        explicit, _default_slow_threshold, "slow-job threshold",
        "REPRO_SLOW_JOB", _positive_seconds, _parse_seconds,
    )


def resolve_serve_slow_threshold(flag: float | None) -> float | None:
    """``repro serve``'s slow-job threshold in seconds, or None when off.

    Chain: ``--slow-job-threshold`` > $REPRO_SLOW_JOB >
    :data:`SERVE_SLOW_JOB_S`; a flag of 0 turns the watchdog off.
    """
    if flag == 0:
        return None
    threshold = _chain(
        flag, None, "slow-job threshold", "REPRO_SLOW_JOB",
        _positive_seconds, _parse_seconds,
    )
    return SERVE_SLOW_JOB_S if threshold is None else threshold
