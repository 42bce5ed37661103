"""Command-line entry point: reproduce paper artifacts from a shell.

Usage::

    python -m repro list [--json]
    python -m repro reproduce figure4
    python -m repro reproduce all --repeats 2 --jobs 4
    python -m repro reproduce figure1 --cache-dir .repro-cache
    python -m repro measure --processor K8 --infra pm --pattern rr \
        --mode user --loop 100000
    python -m repro serve --port 7471 --workers 2
    python -m repro submit figure4 --repeats 1 --wait
    python -m repro status job-1-abcdef01 / --metrics / --health
    python -m repro trace figure4 --repeats 1

``reproduce`` accepts ``--jobs N`` to spread measurements over N worker
processes (results are bit-identical to a serial run), ``--backend``
to pick where jobs execute (``inline`` or the persistent ``warm``
worker fleet — the default under ``--jobs > 1``; see
``docs/backends.md``), ``--batch-size`` to cap how many jobs each
dispatched batch carries, ``--no-cache`` to bypass the result cache,
and ``--cache-dir`` to persist results on disk.
``serve`` exposes the same engine as a long-lived service speaking the
line-delimited JSON protocol of :mod:`repro.service`; ``submit`` and
``status`` are thin clients for it.

Resilience (see ``docs/resilience.md``): ``--deadline SECONDS`` (on
``reproduce``, ``trace`` and ``serve``) revives workers whose batch
overruns its per-job budget; ``reproduce --resume`` journals completed
jobs to a crash-safe sidecar under ``--journal-dir`` so a killed run
restarts where it left off; ``submit``/``status`` retry transient
service errors by default (``--no-retry`` opts out).

Observability (:mod:`repro.obs`): ``trace`` runs an artifact (or
``all``) exactly as ``reproduce`` does with a timer at every layer
boundary, and prints each scope's self time, closing to the traced
wall time, with the run's exact counts (``--json`` prints the same
data as JSON); the top-level ``--log-json`` flag (or ``REPRO_LOG``)
turns on line-delimited JSON logs on stderr — stdout stays
machine-readable throughout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from typing import Sequence

from repro.backend import (
    resolve_backend_name,
    resolve_deadline,
    resolve_serve_slow_threshold,
    resolve_slow_threshold,
    set_default_backend,
    set_default_deadline,
    set_default_slow_threshold,
)
from repro.core.benchmarks import LoopBenchmark, NullBenchmark
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Mode, Pattern
from repro.core.measurement import run_measurement
from repro.errors import ConfigurationError, UnsupportedPatternError
from repro.exec import (
    configure_default_cache,
    resolve_batch_cap,
    resolve_jobs,
    set_default_batch,
    set_default_jobs,
)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Accuracy of Performance Counter "
            "Measurements' (ISPASS 2009)"
        ),
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit line-delimited JSON logs on stderr (REPRO_LOG=PATH "
             "appends to a file instead)",
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
            "worker processes for measurement plans (default: REPRO_JOBS "
            "or 1; results are identical for any value)"
        ),
    )
    reproduce.add_argument(
        "--backend", default=None, metavar="NAME",
        help=(
            "execution backend: inline or warm (default: "
            "REPRO_BACKEND, else warm when --jobs > 1; results are "
            "identical for any choice)"
        ),
    )
    reproduce.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help=(
            "cap on jobs shipped per dispatched batch under --jobs "
            "(default: REPRO_BATCH or an adaptive size from measured "
            "per-job cost; results are identical for any value)"
        ),
    )
    reproduce.add_argument(
        "--no-cache", action="store_true",
        help="disable the in-memory/on-disk result cache",
    )
    reproduce.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist measurement results under DIR (content-addressed)",
    )
    reproduce.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job deadline: revive a worker whose batch overruns "
             "deadline x jobs and re-dispatch its work (REPRO_DEADLINE)",
    )
    reproduce.add_argument(
        "--resume", action="store_true",
        help="journal completed jobs to a crash-safe sidecar and, when "
             "one exists from a killed run, restart from it "
             "(output is byte-identical to an uninterrupted run)",
    )
    reproduce.add_argument(
        "--journal-dir", default=".repro-journal", metavar="DIR",
        help="where --resume keeps its sidecar journals "
             "(default: .repro-journal)",
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
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (the workers run untraced)",
    )
    trace.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend: inline or warm",
    )
    trace.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="cap on jobs shipped per dispatched batch under --jobs",
    )
    trace.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job deadline for the hung-worker watchdog",
    )
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

    serve = sub.add_parser(
        "serve",
        help="run the measurement service (line-delimited JSON protocol)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7471)
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent job slots (each runs one plan/artifact at a time)",
    )
    serve.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend for measurement plans: inline or warm "
             "(default: REPRO_BACKEND, else by --jobs/REPRO_JOBS)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="queued-job bound; submissions beyond it are rejected "
             "with a retry-after hint",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request server-side handler timeout",
    )
    serve.add_argument(
        "--slow-job-threshold", type=float, default=None, metavar="SECONDS",
        help="warn (structured log + metric) when a job runs longer than "
             "this (default: REPRO_SLOW_JOB, else 30); 0 disables the "
             "watchdog",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job deadline for the hung-worker watchdog "
             "(REPRO_DEADLINE)",
    )

    submit = sub.add_parser(
        "submit", help="submit one artifact to a running service"
    )
    submit.add_argument("artifact", help="artifact id from 'repro list'")
    submit.add_argument("--repeats", type=int, default=None)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--priority", type=int, default=5, help="0 (urgent) .. 9 (batch)"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7471)
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until done and print the report (byte-identical to "
             "'repro reproduce' of the same artifact and seed)",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="--wait polling deadline",
    )
    submit.add_argument(
        "--no-retry", action="store_true",
        help="fail fast on transient service errors instead of the "
             "default backoff-and-retry",
    )

    status = sub.add_parser(
        "status", help="query a running service: job state, health, metrics"
    )
    status.add_argument(
        "job", nargs="?", default=None, help="job id returned by submit"
    )
    status.add_argument(
        "--metrics", action="store_true",
        help="print the service's Prometheus-style metrics text",
    )
    status.add_argument(
        "--health", action="store_true",
        help="print the service's health summary as JSON",
    )
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=7471)
    status.add_argument(
        "--no-retry", action="store_true",
        help="fail fast on transient service errors instead of the "
             "default backoff-and-retry",
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
    """The canonical artifact rendering, shared by reproduce and submit
    so a served result prints byte-identically to a local run."""
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


def _print_cache_summary(before: "tuple[int, int, int] | None") -> None:
    """One stderr line of cache accounting for this invocation."""
    cache = default_cache()
    if cache is None or before is None:
        return
    hits, misses, disk = before
    stats = cache.stats
    print(
        f"cache: {stats.hits - hits} hits / {stats.misses - misses} misses "
        f"({stats.disk_hits - disk} disk)",
        file=sys.stderr,
    )


def _cmd_reproduce(
    artifact: str,
    repeats: int | None,
    seed: int,
    resume: bool = False,
    journal_dir: str = ".repro-journal",
) -> int:
    cache = default_cache()
    before = (
        (cache.stats.hits, cache.stats.misses, cache.stats.disk_hits)
        if cache is not None else None
    )
    names = _artifact_names(artifact)
    if names is None:
        return 2
    journal = None
    if resume:
        from repro.exec import SweepJournal, journal_path, set_active_journal

        journal = SweepJournal(
            journal_path(journal_dir, artifact, repeats, seed)
        )
        try:
            restored = journal.open()
        except OSError as exc:
            print(
                f"error: cannot open a resume journal under {journal_dir} "
                f"({exc})",
                file=sys.stderr,
            )
            return 2
        print(
            f"resume: {restored} completed job(s) restored",
            file=sys.stderr,
        )
        set_active_journal(journal)
    code: "int | None" = None
    try:
        run_code = 0
        for name in names:
            run_code = _run_artifact(name, repeats, seed) or run_code
        code = run_code
    finally:
        if journal is not None:
            set_active_journal(None)
            if code == 0:
                # The run completed: the sidecar has served its purpose.
                journal.discard()
            else:
                journal.close()
    _print_cache_summary(before)
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


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import run_service

    return run_service(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
        slow_job_threshold=args.slow_job_threshold,
        backend=args.backend,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        with ServiceClient(
            args.host, args.port, retry=not args.no_retry
        ) as client:
            # The client's default policy covers queue-full
            # backpressure, lost connections and backoff; with
            # --no-retry the client fails fast on the first error.
            job = client.submit_artifact(
                args.artifact,
                repeats=args.repeats,
                seed=args.seed,
                priority=args.priority,
            )
            if not args.wait:
                print(f"submitted {job['id']} ({job['state']})")
                return 0
            result = client.wait(job["id"], timeout=args.timeout)
            _print_artifact_text(result["report"], result.get("notes", ()))
            return 0
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach service at {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    if not (args.job or args.metrics or args.health):
        print("error: give a job id, --metrics, or --health", file=sys.stderr)
        return 2
    try:
        with ServiceClient(
            args.host, args.port, retry=not args.no_retry
        ) as client:
            if args.metrics:
                sys.stdout.write(client.metrics())
            if args.health:
                print(json.dumps(client.health(), indent=2, sort_keys=True))
            if args.job:
                print(json.dumps(client.status(args.job), indent=2,
                                 sort_keys=True))
            return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach service at {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.log_json:
        from repro.obs.logging import configure_logging

        configure_logging(enabled=True)
    if args.command == "list":
        return _cmd_list(as_json=args.json)
    if args.command in ("reproduce", "submit", "trace") and (
        args.repeats is not None and args.repeats < 1
    ):
        print(f"error: repeats must be >= 1, got {args.repeats}",
              file=sys.stderr)
        return 2
    if args.command in ("reproduce", "trace"):
        try:
            set_default_jobs(args.jobs)
            resolve_jobs()  # surface a bad REPRO_JOBS before running
            set_default_batch(args.batch_size)
            resolve_batch_cap()  # ...and a bad REPRO_BATCH
            set_default_backend(args.backend)
            resolve_backend_name()  # ...and a bad REPRO_BACKEND
            set_default_deadline(args.deadline)
            resolve_deadline()  # ...and a bad REPRO_DEADLINE
            resolve_slow_threshold()  # ...and a bad REPRO_SLOW_JOB
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command in ("serve", "submit", "status") and not (
        0 <= args.port <= 65535
    ):
        print(f"error: port must be in 0..65535, got {args.port}",
              file=sys.stderr)
        return 2
    if args.command == "serve":
        # Structured exit-2 errors, not a traceback from deep in the
        # service stack.
        for flag, value, floor in (
            ("workers", args.workers, 1),
            ("queue-depth", args.queue_depth, 1),
        ):
            if value < floor:
                print(
                    f"error: {flag} must be >= {floor}, got {value}",
                    file=sys.stderr,
                )
                return 2
        if args.request_timeout <= 0:
            print(
                "error: request-timeout must be > 0, got "
                f"{args.request_timeout}",
                file=sys.stderr,
            )
            return 2
        try:
            set_default_backend(args.backend)
            resolve_backend_name()  # surface a bad REPRO_BACKEND early
            set_default_deadline(args.deadline)
            resolve_deadline()  # ...and a bad REPRO_DEADLINE
            # Set the resolved threshold as the process default so
            # backend collect loops see it too, not just the scheduler.
            args.slow_job_threshold = resolve_serve_slow_threshold(
                args.slow_job_threshold
            )  # ...and a bad REPRO_SLOW_JOB
            set_default_slow_threshold(args.slow_job_threshold)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "reproduce":
        if args.no_cache or args.cache_dir:
            configure_default_cache(
                enabled=not args.no_cache, disk_dir=args.cache_dir
            )
        return _cmd_reproduce(
            args.artifact, args.repeats, args.seed,
            resume=args.resume, journal_dir=args.journal_dir,
        )
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
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    raise AssertionError(f"unhandled command {args.command!r}")
