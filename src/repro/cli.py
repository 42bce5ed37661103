"""Command-line entry point: reproduce paper artifacts from a shell.

Usage::

    python -m repro list [--json]
    python -m repro reproduce figure4
    python -m repro reproduce all --repeats 2 --jobs 4
    python -m repro measure --processor K8 --infra pm --pattern rr \
        --mode user --loop 100000
    python -m repro trace figure4 --repeats 1

``reproduce all --jobs N`` forks N worker processes before it runs
anything.  Worker *i* renders artifacts *i*, *i* + N, … of the
``reproduce all`` order whole, exactly as the serial loop does, and
streams each one's text home; this process prints them in order, so
the output is byte-identical to a serial run.  One artifact,
``--jobs 1`` and ``--backend inline`` run in this process.
``--no-cache`` bypasses the in-memory result cache.

Resilience (see ``docs/resilience.md``): an artifact that a worker did
not deliver, because the worker died or raised, runs again in this
process, so it raises here exactly as it would in a serial run.

Observability (:mod:`repro.obs`): ``trace`` runs an artifact (or
``all``) exactly as ``reproduce`` does with a timer at every layer
boundary, and prints each scope's self time, closing to the traced
wall time, with the run's exact counts (``--json`` prints the same
data as JSON); stdout stays machine-readable throughout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import struct
import sys
from typing import Iterator, NoReturn, Sequence

from repro.core.benchmarks import LoopBenchmark, NullBenchmark
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Mode, Pattern
from repro.core.measurement import run_measurement
from repro.errors import ConfigurationError, UnsupportedPatternError
from repro.exec import configure_default_cache
from repro.exec.cache import default_cache
from repro.experiments import (
    ALL_EXPERIMENTS,
    EXPERIMENTS,
    EXTENSIONS,
    artifact_catalog,
    run_artifact,
)

_PATTERNS_BY_SHORT = {p.short: p for p in Pattern}
_MODES = {m.value: m for m in Mode}

#: ``--backend`` names: ``warm``, the default under ``--jobs > 1``,
#: forks artifact workers for ``reproduce all``; ``inline`` keeps every
#: artifact in this process.
_BACKENDS = ("inline", "warm")

#: The head of one artifact a worker sends home: its position in the
#: run, the cache hits and misses it took, and its text's UTF-8 length.
_RECORD = struct.Struct("<IQQQ")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Accuracy of Performance Counter "
            "Measurements' (ISPASS 2009)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list the runnable paper artifacts")
    list_cmd.add_argument(
        "--json", action="store_true",
        help="emit artifact ids + descriptions as JSON (machine-readable)",
    )

    reproduce = sub.add_parser(
        "reproduce", help="regenerate one paper artifact (or 'all')"
    )
    reproduce.add_argument(
        "artifact",
        help="artifact id from 'repro list', or 'all' for everything",
    )
    reproduce.add_argument(
        "--repeats", type=int, default=None,
        help="per-configuration repetitions (experiments that sample)",
    )
    reproduce.add_argument(
        "--seed", type=int, default=0, help="base seed for the sweep"
    )
    reproduce.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for 'all', each rendering whole artifacts "
            "(default: REPRO_JOBS or 1; output is identical for any "
            "value)"
        ),
    )
    reproduce.add_argument(
        "--backend", default=None, metavar="NAME",
        help=(
            "inline runs every artifact in this process; warm (the "
            "default when --jobs > 1) forks the artifact workers"
        ),
    )
    reproduce.add_argument(
        "--no-cache", action="store_true",
        help="disable the in-memory result cache",
    )

    trace = sub.add_parser(
        "trace",
        help="run one artifact (or 'all') with a timer at every layer "
             "boundary; print where the time went",
    )
    trace.add_argument(
        "artifact",
        help="artifact id from 'repro list', or 'all' for everything",
    )
    trace.add_argument("--repeats", type=int, default=None)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--json", action="store_true",
        help="emit the scope table as JSON on stdout (same numbers "
             "as the table)",
    )

    measure = sub.add_parser(
        "measure", help="run one measurement configuration"
    )
    measure.add_argument(
        "--processor", default="CD",
        choices=["PD", "CD", "K8", "P3"],  # P3 is the extension platform
    )
    measure.add_argument("--infra", default="pc", choices=list(INFRASTRUCTURES))
    measure.add_argument(
        "--pattern", default="ar", choices=sorted(_PATTERNS_BY_SHORT)
    )
    measure.add_argument("--mode", default="user+kernel", choices=sorted(_MODES))
    measure.add_argument(
        "--loop", type=int, default=0,
        help="loop benchmark iterations (0 = null benchmark)",
    )
    measure.add_argument("--counters", type=int, default=1)
    measure.add_argument("--no-tsc", action="store_true",
                         help="disable the TSC (direct perfctr only)")
    measure.add_argument("--seed", type=int, default=0)

    advise = sub.add_parser(
        "advise",
        help="recommend an infrastructure/pattern (paper Section 8)",
    )
    advise.add_argument(
        "--processor", default="CD", choices=["PD", "CD", "K8", "P3"]
    )
    advise.add_argument(
        "--mode", default="user",
        choices=["user", "user+kernel"],
    )
    advise.add_argument("--seed", type=int, default=0)

    sub.add_parser(
        "selftest",
        help="fast end-to-end check that the paper's results reproduce",
    )

    return parser


def _cmd_list(as_json: bool = False) -> int:
    if as_json:
        print(json.dumps({"artifacts": artifact_catalog()}, indent=2))
        return 0
    print("paper artifacts:")
    for artifact in EXPERIMENTS:
        print(f"  {artifact}")
    print("extension experiments:")
    for artifact in EXTENSIONS:
        print(f"  {artifact}")
    return 0


def _print_artifact_text(report: str, notes: Sequence[str]) -> None:
    """The canonical artifact rendering: the report, its notes and a
    blank line."""
    print(report)
    for note in notes:
        print(f"note: {note}")
    print()


def _run_artifact(artifact: str, repeats: int | None, seed: int) -> int:
    result = run_artifact(artifact, repeats=repeats, seed=seed)
    _print_artifact_text(result.report(), result.notes)
    return 0


def _artifact_names(artifact: str) -> "list[str] | None":
    """The artifacts ``artifact`` names (``all`` is every one), or None
    after reporting an unknown id on stderr."""
    if artifact == "all":
        return list(ALL_EXPERIMENTS)
    if artifact not in ALL_EXPERIMENTS:
        known = ", ".join(ALL_EXPERIMENTS)
        print(f"unknown artifact {artifact!r}; known: {known}", file=sys.stderr)
        return None
    return [artifact]


def resolve_jobs(jobs: int | None) -> int:
    """Worker count: ``--jobs`` > ``$REPRO_JOBS`` > 1; at least 1."""
    what = "jobs"
    if jobs is None:
        text = os.environ.get("REPRO_JOBS", "").strip()
        if not text:
            return 1
        what = "REPRO_JOBS"
        try:
            jobs = int(text)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_JOBS must be an integer, got {text!r}"
            ) from None
    if jobs < 1:
        raise ConfigurationError(f"{what} must be >= 1, got {jobs}")
    return jobs


def _worker_count(jobs: int | None, backend: str | None) -> int:
    """How many processes ``reproduce all`` may fork (1: none)."""
    workers = resolve_jobs(jobs)
    if backend is None:
        return workers
    name = backend.strip().lower()
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown backend {name!r}; known: {', '.join(_BACKENDS)}"
        )
    return workers if name == "warm" else 1


def _cache_counts() -> tuple[int, int]:
    """The default cache's hits and misses so far ((0, 0) without one)."""
    cache = default_cache()
    return (0, 0) if cache is None else (cache.stats.hits, cache.stats.misses)


def _artifact_worker(
    write: int,
    names: Sequence[str],
    positions: range,
    repeats: int | None,
    seed: int,
) -> NoReturn:
    """A forked worker's whole life: render the artifacts at
    ``positions`` in order, send each home over ``write`` once it is
    done, and exit without returning to the caller."""
    code = 1
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        with open(write, "wb") as pipe:
            for position in positions:
                hits, misses = _cache_counts()
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    _run_artifact(names[position], repeats, seed)
                now_hits, now_misses = _cache_counts()
                pipe.write(_record(
                    position, now_hits - hits, now_misses - misses,
                    out.getvalue(),
                ))
                pipe.flush()
        code = 0
    finally:
        os._exit(code)


def _record(position: int, hits: int, misses: int, text: str) -> bytes:
    """One artifact as a worker sends it home: its head, then its text."""
    data = text.encode("utf-8")
    return _RECORD.pack(position, hits, misses, len(data)) + data


def _records(data: bytearray) -> Iterator[tuple[int, int, int, str]]:
    """``(position, hits, misses, text)`` of every whole artifact in a
    worker's output; a worker killed mid-write leaves a torn last one."""
    offset = 0
    while offset + _RECORD.size <= len(data):
        position, hits, misses, size = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        if offset + size > len(data):
            return
        yield position, hits, misses, data[offset:offset + size].decode("utf-8")
        offset += size


def _fork_artifacts(
    names: Sequence[str], repeats: int | None, seed: int, workers: int
) -> tuple[dict[int, str], int, int]:
    """Fork up to ``workers`` processes; worker *i* renders the
    artifacts at positions *i*, *i* + ``workers``, ….

    Returns each delivered artifact's text by position, and the cache
    hits and misses the workers took.  Every worker has been reaped when
    this returns, and killed and reaped when it raises.
    """
    import select

    pipes: dict[int, int] = {}  # read end -> worker pid
    received: dict[int, bytearray] = {}
    try:
        for first in range(min(workers, len(names))):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # what no worker took runs in this process
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _artifact_worker(
                    write, names, range(first, len(names), workers),
                    repeats, seed,
                )
            os.close(write)
            pipes[read] = pid
            received[read] = bytearray()
        # Drain every pipe as it fills, so no worker blocks on a full one.
        open_ends = list(pipes)
        while open_ends:
            for end in select.select(open_ends, [], [])[0]:
                chunk = os.read(end, 1 << 16)
                if chunk:
                    received[end] += chunk
                else:
                    open_ends.remove(end)
    except BaseException:
        for pid in pipes.values():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for end, pid in pipes.items():
            os.close(end)
            os.waitpid(pid, 0)
    texts: dict[int, str] = {}
    hits = misses = 0
    for data in received.values():
        for position, took_hits, took_misses, text in _records(data):
            texts[position] = text
            hits += took_hits
            misses += took_misses
    return texts, hits, misses


def _cmd_reproduce(
    artifact: str, repeats: int | None, seed: int, workers: int
) -> int:
    start_hits, start_misses = _cache_counts()
    names = _artifact_names(artifact)
    if names is None:
        return 2
    texts: dict[int, str] = {}
    hits = misses = 0
    if workers > 1 and len(names) > 1 and hasattr(os, "fork"):
        texts, hits, misses = _fork_artifacts(names, repeats, seed, workers)
    code = 0
    for position, name in enumerate(names):
        if position in texts:
            sys.stdout.write(texts[position])
        else:
            code = _run_artifact(name, repeats, seed) or code
    if default_cache() is not None:
        end_hits, end_misses = _cache_counts()
        hits += end_hits - start_hits
        misses += end_misses - start_misses
        print(f"cache: {hits} hits / {misses} misses", file=sys.stderr)
    return code


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run artifacts as ``reproduce`` does, timing every layer boundary.

    The artifacts' text is rendered as usual and discarded: this
    subcommand answers "where did the time go", not "what was
    measured".  Table and JSON show the same payload.
    """
    from repro.obs.scopes import ScopeTracer, render

    names = _artifact_names(args.artifact)
    if names is None:
        return 2
    with contextlib.redirect_stdout(io.StringIO()), ScopeTracer() as tracer:
        for name in names:
            _run_artifact(name, args.repeats, args.seed)
    payload = tracer.payload()
    if args.json:
        print(json.dumps({
            "artifact": args.artifact,
            "seed": args.seed,
            "repeats": args.repeats,
            **payload,
        }, indent=2, sort_keys=True))
    else:
        print(f"trace of {args.artifact} (seed {args.seed}):")
        print(render(payload))
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    for flag, value, floor in (
        ("counters", args.counters, 1),
        ("loop", args.loop, 0),
        ("seed", args.seed, 0),
    ):
        if value < floor:
            print(f"error: {flag} must be >= {floor}, got {value}",
                  file=sys.stderr)
            return 2
    try:
        config = MeasurementConfig(
            processor=args.processor,
            infra=args.infra,
            pattern=_PATTERNS_BY_SHORT[args.pattern],
            mode=_MODES[args.mode],
            n_counters=args.counters,
            tsc=not args.no_tsc,
            seed=args.seed,
        )
        benchmark = LoopBenchmark(args.loop) if args.loop else NullBenchmark()
        result = run_measurement(config, benchmark)
    except (ConfigurationError, UnsupportedPatternError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{config.infra} on {config.processor}, {config.pattern.value}, "
        f"{config.mode.value}, {config.n_counters} counter(s)"
    )
    print(f"benchmark: {result.benchmark_name} "
          f"(expected {result.expected} instructions)")
    print(f"measured:  {result.measured}")
    print(f"error:     {result.error} instructions")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.guidelines import advise

    recommendation = advise(
        processor=args.processor,
        mode=_MODES[args.mode],
        base_seed=args.seed,
    )
    print(
        f"for {args.mode} counting on {args.processor} "
        "(paper Section 8 guidance):"
    )
    print(recommendation.render())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(as_json=args.json)
    if args.command in ("reproduce", "trace") and (
        args.repeats is not None and args.repeats < 1
    ):
        print(f"error: repeats must be >= 1, got {args.repeats}",
              file=sys.stderr)
        return 2
    if args.command == "reproduce":
        try:
            workers = _worker_count(args.jobs, args.backend)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.no_cache:
            configure_default_cache(enabled=False)
        return _cmd_reproduce(args.artifact, args.repeats, args.seed, workers)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "measure":
        return _cmd_measure(args)
    if args.command == "advise":
        return _cmd_advise(args)
    if args.command == "selftest":
        from repro.selftest import render, run_selftest

        results = run_selftest()
        print(render(results))
        return 0 if all(r.passed for r in results) else 1
    raise AssertionError(f"unhandled command {args.command!r}")
