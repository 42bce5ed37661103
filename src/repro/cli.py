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
    python -m repro trace figure4 --repeats 1 --trace-out trace.json
    python -m repro metrics
    python -m repro report BENCH_8.json -o report.html
    python -m repro report base.json new.json --history .repro-bench-history
    python -m repro bench record BENCH_8.json --meta ci_run=123
    python -m repro bench diff base.json new.json --history .repro-bench-history

``reproduce`` accepts ``--jobs N`` to spread measurements over N worker
processes (results are bit-identical to a serial run), ``--backend``
to pick where jobs execute (``inline``, ``pool``, or the persistent
``warm`` worker fleet — the default under ``--jobs > 1``; see
``docs/backends.md``), ``--batch-size`` to cap how many jobs each
dispatched batch carries, ``--no-cache`` to bypass the result cache,
and ``--cache-dir`` to persist results on disk.
``serve`` exposes the same engine as a long-lived service speaking the
line-delimited JSON protocol of :mod:`repro.service`; ``submit`` and
``status`` are thin clients for it.

Resilience (see ``docs/resilience.md``): ``--chaos SPEC`` (on
``reproduce``, ``trace`` and ``serve``) arms the deterministic fault
injector; ``--deadline SECONDS`` revives workers whose batch overruns
its per-job budget; ``reproduce --resume`` journals completed jobs to
a crash-safe sidecar under ``--journal-dir`` so a killed run restarts
where it left off; ``submit``/``status`` retry transient service
errors by default (``--no-retry`` opts out).

Observability (:mod:`repro.obs`): ``trace`` runs an artifact with
tracing on and prints the per-layer time/retirement breakdown;
``--trace-out`` (on ``trace``, ``reproduce`` and ``serve``) writes a
Chrome ``trace_event`` JSON loadable in Perfetto; ``trace --json``
emits the same breakdown machine-readably; ``metrics`` dumps the
process-wide unified registry; the top-level ``--log-json`` flag
(or ``REPRO_LOG``) turns on line-delimited JSON logs on stderr —
stdout stays machine-readable throughout.

Reporting (see ``docs/reports.md``): ``report`` renders one or two
benchmark result files into a single self-contained HTML file (inline
CSS/SVG, no network); ``bench record`` appends a run to the perf
history store; ``bench diff --history`` replaces the global noise
threshold with per-benchmark variance-derived thresholds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Sequence

from repro.backend import (
    resolve_backend_name,
    set_default_backend,
    set_default_deadline,
    set_default_slow_threshold,
)
from repro.chaos import configure_chaos, get_injector
from repro.core.benchmarks import LoopBenchmark, NullBenchmark
from repro.core.config import INFRASTRUCTURES, MeasurementConfig, Mode, Pattern
from repro.core.measurement import run_measurement
from repro.errors import ConfigurationError, UnsupportedPatternError
from repro.exec import (
    configure_default_cache,
    resolve_batch_size,
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
            "execution backend: inline, pool, or warm (default: "
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
        "--trace-out", default=None, metavar="PATH",
        help="record spans for this run and write a Chrome trace_event "
             "JSON to PATH (artifact output is unchanged)",
    )
    reproduce.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject deterministic faults, e.g. 'worker-kill:p=0.05,"
             "seed=7' (REPRO_CHAOS; see docs/resilience.md; results "
             "stay byte-identical)",
    )
    reproduce.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job deadline: revive a worker whose batch overruns "
             "deadline x jobs and re-dispatch its work (REPRO_DEADLINE)",
    )
    reproduce.add_argument(
        "--fast-forward", default=None, metavar="MODE",
        help=(
            "symbolic fast-forward for steady-state loops: auto, on, or "
            "off (default: REPRO_FF or auto; results are byte-identical "
            "for any choice)"
        ),
    )
    reproduce.add_argument(
        "--ff-warmup", type=int, default=None, metavar="K",
        help=(
            "loop iterations observed before fast-forward may engage "
            "(default: REPRO_FF_WARMUP or 64)"
        ),
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
        help="run one artifact with tracing on; print the per-layer "
             "time/retirement breakdown",
    )
    trace.add_argument(
        "artifact", help="artifact id from 'repro list'"
    )
    trace.add_argument("--repeats", type=int, default=None)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (spans cross the pool boundary)",
    )
    trace.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend: inline, pool, or warm",
    )
    trace.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="cap on jobs shipped per dispatched batch under --jobs",
    )
    trace.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also write the Chrome trace_event JSON to PATH "
             "(load it in Perfetto or chrome://tracing)",
    )
    trace.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject deterministic faults (see docs/resilience.md)",
    )
    trace.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job deadline for the hung-worker watchdog",
    )
    trace.add_argument(
        "--fast-forward", default=None, metavar="MODE",
        help="symbolic loop fast-forward: auto, on, or off (REPRO_FF)",
    )
    trace.add_argument(
        "--ff-warmup", type=int, default=None, metavar="K",
        help="iterations observed before fast-forward engages "
             "(REPRO_FF_WARMUP)",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="emit the per-layer breakdown as JSON on stdout (same "
             "numbers as the table; feeds 'repro report --trace')",
    )

    sub.add_parser(
        "metrics",
        help="print this process's unified metrics registry "
             "(Prometheus text format)",
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
        help="execution backend for measurement plans: inline, pool, "
             "or warm (default: REPRO_BACKEND, else by --jobs/REPRO_JOBS)",
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
        "--trace-out", default=None, metavar="PATH",
        help="write the service's Chrome trace_event JSON to PATH on "
             "graceful shutdown",
    )
    serve.add_argument(
        "--slow-job-threshold", type=float, default=30.0, metavar="SECONDS",
        help="warn (structured log + metric) when a job runs longer than "
             "this; 0 disables the watchdog",
    )
    serve.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject deterministic faults (see docs/resilience.md)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job deadline for the hung-worker watchdog "
             "(REPRO_DEADLINE)",
    )
    serve.add_argument(
        "--fast-forward", default=None, metavar="MODE",
        help="symbolic loop fast-forward: auto, on, or off (REPRO_FF)",
    )
    serve.add_argument(
        "--ff-warmup", type=int, default=None, metavar="K",
        help="iterations observed before fast-forward engages "
             "(REPRO_FF_WARMUP)",
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

    fleet = sub.add_parser(
        "fleet",
        help="run or inspect a sharded measurement fleet "
             "(consistent-hash router over N serve processes)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_serve = fleet_sub.add_parser(
        "serve",
        help="run a router plus N shard processes on one address "
             "(drop-in for 'repro serve'; see docs/fleet.md)",
    )
    fleet_serve.add_argument("--host", default="127.0.0.1")
    fleet_serve.add_argument("--port", type=int, default=7471)
    fleet_serve.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="shard processes to run (each is an unmodified 'repro serve')",
    )
    fleet_serve.add_argument(
        "--workers", type=int, default=1, metavar="M",
        help="concurrent job slots per shard",
    )
    fleet_serve.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="per-shard queued-job bound",
    )
    fleet_serve.add_argument(
        "--request-timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request timeout (router and shards)",
    )
    fleet_serve.add_argument(
        "--backend", default=None, metavar="NAME",
        help="execution backend inside each shard: inline, pool, or warm",
    )
    fleet_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared on-disk result cache for all shards (default: a "
             "fresh temp dir for the fleet's lifetime)",
    )
    fleet_serve.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the router's Chrome trace_event JSON on shutdown",
    )
    fleet_serve.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject deterministic faults; 'shard-kill' and "
             "'router-conn-drop' fire in the router, the rest are "
             "forwarded to every shard (see docs/resilience.md)",
    )

    fleet_status = fleet_sub.add_parser(
        "status",
        help="print a running fleet's topology (shards, ring, jobs) "
             "as JSON",
    )
    fleet_status.add_argument("--host", default="127.0.0.1")
    fleet_status.add_argument("--port", type=int, default=7471)

    fleet_drain = fleet_sub.add_parser(
        "drain",
        help="drain one shard (finish its jobs, restart it) with zero "
             "dropped submissions",
    )
    fleet_drain.add_argument("shard", help="shard id from 'fleet status', e.g. s1")
    fleet_drain.add_argument("--host", default="127.0.0.1")
    fleet_drain.add_argument("--port", type=int, default=7471)
    fleet_drain.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="client-side wait for the drain to complete",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="measure submit->result latency under concurrent clients "
             "(single process vs fleet; writes pytest-benchmark JSON)",
    )
    loadtest.add_argument(
        "--topology", default="both", choices=["single", "fleet", "both"],
        help="what to boot and measure (default: both, for comparison)",
    )
    loadtest.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="fleet shards (the single topology gets shards x workers "
             "workers so capacity matches)",
    )
    loadtest.add_argument(
        "--workers", type=int, default=1, metavar="M",
        help="job slots per shard",
    )
    loadtest.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent closed-loop client threads",
    )
    loadtest.add_argument(
        "--requests", type=int, default=40, metavar="N",
        help="total submissions per topology",
    )
    loadtest.add_argument(
        "--distinct", type=int, default=8, metavar="N",
        help="distinct submission seeds (fewer than --requests means "
             "repeats, exercising the cache and ring locality)",
    )
    loadtest.add_argument(
        "--loop-iters", type=int, default=2000, metavar="N",
        help="loop-benchmark iterations per submitted job",
    )
    loadtest.add_argument(
        "--out", default=None, metavar="PATH",
        help="write pytest-benchmark-compatible JSON to PATH "
             "(e.g. BENCH_8.json)",
    )
    loadtest.add_argument(
        "--host", default=None,
        help="target an already-running service instead of booting one "
             "(requires --port; ignores --topology/--shards/--workers)",
    )
    loadtest.add_argument("--port", type=int, default=None)
    loadtest.add_argument(
        "--meta", action="append", default=None, metavar="KEY=VALUE",
        help="extra run metadata stamped into every entry's extra_info "
             "(repeatable; e.g. --meta ci_run=123)",
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark result tooling (see 'bench diff', 'bench record')",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_diff = bench_sub.add_parser(
        "diff",
        help="compare two pytest-benchmark JSON files; flag regressions "
             "beyond a noise threshold",
    )
    bench_diff.add_argument("baseline", help="baseline result file (A)")
    bench_diff.add_argument("candidate", help="candidate result file (B)")
    bench_diff.add_argument(
        "--metric", default="mean", metavar="NAME",
        help="stats field to compare (mean, median, min, ops, p99, ...; "
             "default: mean)",
    )
    bench_diff.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRACTION",
        help="relative change below which a difference is noise "
             "(default: 0.10 = 10%%; benchmarks with history use their "
             "own variance-derived threshold instead)",
    )
    _add_history_args(bench_diff)

    bench_record = bench_sub.add_parser(
        "record",
        help="append a result file's per-benchmark summaries to the "
             "perf-history store (JSONL; feeds 'bench diff --history')",
    )
    bench_record.add_argument("result", help="pytest-benchmark JSON file")
    bench_record.add_argument(
        "--history", default=".repro-bench-history", metavar="DIR",
        help="history store directory (default: .repro-bench-history)",
    )
    bench_record.add_argument(
        "--meta", action="append", default=None, metavar="KEY=VALUE",
        help="extra run metadata for the record (repeatable; overrides "
             "what the result file carries)",
    )

    report = sub.add_parser(
        "report",
        help="render one or two benchmark result files into a single "
             "self-contained HTML report (see docs/reports.md)",
    )
    report.add_argument(
        "runs", nargs="+", metavar="RESULT",
        help="one result file, or two for a side-by-side A/B report",
    )
    report.add_argument(
        "-o", "--out", default="report.html", metavar="PATH",
        help="output HTML file (default: report.html)",
    )
    report.add_argument(
        "--title", default=None, help="report title (default: from files)"
    )
    report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="a 'repro trace --json' payload: adds the per-layer "
             "self-time panel",
    )
    report.add_argument(
        "--metric", default="mean", metavar="NAME",
        help="stats field for the A/B delta table (default: mean)",
    )
    report.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRACTION",
        help="fallback noise threshold for the delta table "
             "(default: 0.10)",
    )
    _add_history_args(report)
    return parser


def _add_history_args(parser: argparse.ArgumentParser) -> None:
    """The perf-history gating knobs, shared by 'bench diff' and 'report'."""
    from repro.perfdb import DEFAULT_FLOOR, DEFAULT_K, DEFAULT_WINDOW

    parser.add_argument(
        "--history", default=None, metavar="DIR",
        help="perf-history store ('repro bench record'): derive "
             "per-benchmark noise thresholds from recorded variance "
             "instead of the global --threshold",
    )
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, metavar="M",
        help=f"history runs considered per benchmark "
             f"(default: {DEFAULT_WINDOW})",
    )
    parser.add_argument(
        "--k", type=float, default=DEFAULT_K, metavar="K",
        help=f"threshold = max(floor, K x stddev/mean) over the window "
             f"(default: {DEFAULT_K})",
    )
    parser.add_argument(
        "--floor", type=float, default=DEFAULT_FLOOR, metavar="FRACTION",
        help=f"minimum per-benchmark threshold (default: {DEFAULT_FLOOR})",
    )


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
    trace_out: str | None = None,
    resume: bool = False,
    journal_dir: str = ".repro-journal",
) -> int:
    from repro import obs
    from repro.obs.export import write_chrome_trace

    cache = default_cache()
    before = (
        (cache.stats.hits, cache.stats.misses, cache.stats.disk_hits)
        if cache is not None else None
    )
    if artifact != "all" and artifact not in ALL_EXPERIMENTS:
        known = ", ".join(ALL_EXPERIMENTS)
        print(f"unknown artifact {artifact!r}; known: {known}", file=sys.stderr)
        return 2
    names = list(ALL_EXPERIMENTS) if artifact == "all" else [artifact]
    journal = None
    if resume:
        from repro.exec import SweepJournal, journal_path, set_active_journal

        journal = SweepJournal(
            journal_path(journal_dir, artifact, repeats, seed)
        )
        restored = journal.open()
        print(
            f"resume: {restored} completed job(s) restored",
            file=sys.stderr,
        )
        set_active_journal(journal)
    collector = obs.TraceCollector() if trace_out is not None else None
    code: "int | None" = None
    try:
        run_code = 0
        with contextlib.ExitStack() as stack:
            if collector is not None:
                stack.enter_context(obs.activate(collector))
                stack.enter_context(
                    obs.span("reproduce", category="cli", artifact=artifact,
                             seed=seed)
                )
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
    if collector is not None:
        write_chrome_trace(trace_out, collector)
        print(
            f"trace: {len(collector)} span(s) written to {trace_out}",
            file=sys.stderr,
        )
    return code


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one artifact under a fresh collector; print the breakdown.

    Retirement tracing is enabled so measurement spans carry simulated
    instruction counts; the artifact's own report is suppressed — this
    subcommand answers "where did the time go", not "what was measured".
    """
    from repro import obs
    from repro.obs.export import write_chrome_trace
    from repro.obs.report import layer_breakdown_payload, render_layer_payload

    if args.artifact not in ALL_EXPERIMENTS:
        known = ", ".join(ALL_EXPERIMENTS)
        print(f"unknown artifact {args.artifact!r}; known: {known}",
              file=sys.stderr)
        return 2
    collector = obs.TraceCollector()
    with obs.activate(collector), obs.enable_retirements():
        with obs.span(
            "artifact", category="cli",
            artifact=args.artifact, repeats=args.repeats, seed=args.seed,
        ) as sp:
            result = run_artifact(
                args.artifact, repeats=args.repeats, seed=args.seed
            )
            sp.set(notes=len(result.notes))
    # Table and JSON render the SAME payload — one code path, so the
    # two views cannot drift (pinned by tests/obs/test_report.py).
    payload = layer_breakdown_payload(collector.spans)
    if getattr(args, "json", False):
        print(json.dumps({
            "artifact": args.artifact,
            "seed": args.seed,
            "repeats": args.repeats,
            **payload,
        }, indent=2, sort_keys=True))
    else:
        print(f"trace of {args.artifact} (seed {args.seed}):")
        print(render_layer_payload(payload))
    if args.trace_out is not None:
        write_chrome_trace(args.trace_out, collector)
        print(
            f"trace: {len(collector)} span(s) written to {args.trace_out}",
            file=sys.stderr,
        )
    return 0


def _cmd_metrics() -> int:
    from repro.obs.metrics import default_registry

    sys.stdout.write(default_registry().render())
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
        trace_out=args.trace_out,
        slow_job_threshold=(
            args.slow_job_threshold if args.slow_job_threshold > 0 else None
        ),
        backend=args.backend,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.service import ServiceClient, ServiceError

    # The trace id is minted here, where the work enters the system;
    # the service threads it through queue, scheduler, executor and
    # measurement spans.  Reported on stderr: stdout's one-line
    # acknowledgement is machine-readable and stays stable.
    trace_id = obs.new_trace_id()
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
                trace_id=trace_id,
            )
            print(
                f"trace: {job.get('trace_id', trace_id)}", file=sys.stderr
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


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    from repro.fleet import run_fleet

    extra_env = {}
    if args.chaos is not None:
        # The router evaluates only its own points (shard-kill,
        # router-conn-drop); the full spec still ships to every shard
        # so engine/scheduler points fire there with their own seeded
        # streams.
        extra_env["REPRO_CHAOS"] = args.chaos
    return run_fleet(
        host=args.host,
        port=args.port,
        shards=args.shards,
        workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
        backend=args.backend,
        cache_dir=args.cache_dir,
        trace_out=args.trace_out,
        extra_env=extra_env or None,
    )


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port) as client:
            print(json.dumps(client.fleet_status(), indent=2, sort_keys=True))
            return 0
    except ServiceError as exc:
        if exc.code == "unknown-op":
            print(
                f"error: {args.host}:{args.port} is a plain service, not "
                "a fleet router (start one with 'repro fleet serve')",
                file=sys.stderr,
            )
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach fleet at {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1


def _cmd_fleet_drain(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
            out = client.fleet_drain(args.shard)
            print(
                f"drained {out['shard']}: {out['drained_jobs']} job(s) "
                f"finished, shard restarted"
            )
            return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach fleet at {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.fleet.loadtest import (
        _entry,
        render_entries,
        run_loadtest,
        run_metadata,
        run_topologies,
        write_bench_json,
    )
    from repro.perfdb import parse_meta_pairs

    try:
        meta = parse_meta_pairs(args.meta) if args.meta else None
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    load_kwargs = dict(
        clients=args.clients,
        requests=args.requests,
        distinct=args.distinct,
        loop_iters=args.loop_iters,
    )
    try:
        if args.host is not None:
            if args.port is None:
                print("error: --host requires --port", file=sys.stderr)
                return 2
            sink: "list[dict]" = []
            stats = run_loadtest(
                args.host, args.port, metrics_sink=sink, **load_kwargs
            )
            entries = [_entry(
                "loadtest_external", stats,
                {"topology": "external",
                 "target": f"{args.host}:{args.port}"},
                metadata=run_metadata(meta),
                metrics=sink[0] if sink else None,
            )]
        else:
            entries = run_topologies(
                shards=args.shards,
                workers=args.workers,
                topology=args.topology,
                meta=meta,
                **load_kwargs,
            )
    except (RuntimeError, OSError) as exc:
        print(f"error: loadtest failed: {exc}", file=sys.stderr)
        return 1
    print(render_entries(entries))
    if args.out is not None:
        path = write_bench_json(args.out, entries)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _apply_fastforward_args(args: argparse.Namespace) -> None:
    """Install the fast-forward knobs; flags shadow ``REPRO_FF*``.

    With neither flag given this still resolves the shared engine once,
    so a malformed ``REPRO_FF``/``REPRO_FF_WARMUP`` surfaces here as a
    structured exit-2 error rather than a traceback mid-run.  With a
    flag given, the resolved values are stamped back into the
    environment so spawned worker processes inherit the same engine.
    """
    from repro.cpu import fastforward

    mode, warmup = args.fast_forward, args.ff_warmup
    if mode is None and warmup is None:
        fastforward.default_engine()
        return
    if mode is None:
        mode = os.environ.get("REPRO_FF") or "auto"
    mode = fastforward.parse_ff_mode(mode)
    if warmup is None:
        raw = os.environ.get("REPRO_FF_WARMUP")
        warmup = raw if raw else fastforward.DEFAULT_WARMUP
    warmup = fastforward.parse_ff_warmup(warmup)
    fastforward.configure_fastforward(mode, warmup)
    os.environ["REPRO_FF"] = mode
    os.environ["REPRO_FF_WARMUP"] = str(warmup)


def _bench_gate() -> "str | None":
    """The ``REPRO_BENCH_GATE`` policy, or None when malformed."""
    raw = os.environ.get("REPRO_BENCH_GATE")
    gate = (raw or "advisory").strip().lower()
    if gate not in ("advisory", "hard"):
        print(
            f"error: REPRO_BENCH_GATE must be advisory or hard, got {raw!r}",
            file=sys.stderr,
        )
        return None
    return gate


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.analysis.benchdiff import diff_files

    gate = _bench_gate()
    if gate is None:
        return 2
    try:
        code, text = diff_files(
            args.baseline, args.candidate,
            metric=args.metric, threshold=args.threshold,
            history_dir=args.history, window=args.window,
            k=args.k, floor=args.floor,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if code != 0 and args.history is not None and gate == "advisory":
        # History-based gating defaults to advisory: report loudly,
        # fail only when the caller opted into REPRO_BENCH_GATE=hard.
        print(
            "advisory: regression beyond the history gate "
            "(set REPRO_BENCH_GATE=hard to fail the build)",
            file=sys.stderr,
        )
        return 0
    return code


def _cmd_bench_record(args: argparse.Namespace) -> int:
    from repro.perfdb import parse_meta_pairs, record_run

    try:
        meta = parse_meta_pairs(args.meta) if args.meta else None
        run = record_run(args.result, args.history, meta=meta)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"recorded {len(run.benchmarks)} benchmark(s) from {args.result} "
        f"into {args.history} "
        f"(sha {str(run.meta.get('git_sha', 'unknown'))[:12]})"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.htmlreport import validate_report_text, write_report
    from repro.perfdb import history_thresholds, load_history

    if len(args.runs) > 2:
        print(
            f"error: a report covers one or two runs, got {len(args.runs)}",
            file=sys.stderr,
        )
        return 2
    thresholds = None
    history = None
    try:
        if args.history is not None:
            history = load_history(args.history, window=args.window)
            thresholds = history_thresholds(
                history, args.metric, k=args.k, floor=args.floor
            )
        out, families = write_report(
            args.out, args.runs, trace_path=args.trace, title=args.title,
            metric=args.metric, threshold=args.threshold,
            thresholds=thresholds, history=history,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Self-check what we just wrote — a report that fails its own
    # validator should never reach an artifact store silently.
    problems = validate_report_text(out.read_text(), expect_svgs=families)
    if problems:
        for problem in problems:
            print(f"error: generated report invalid: {problem}",
                  file=sys.stderr)
        return 1
    print(
        f"wrote {out} ({families} plot(s), "
        f"{len(args.runs)} run(s), self-contained)"
    )
    return 0


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
            resolve_batch_size(None, 1, 1)  # ...and a bad REPRO_BATCH
            set_default_backend(args.backend)
            resolve_backend_name()  # ...and a bad REPRO_BACKEND
            set_default_deadline(args.deadline)
            if args.chaos is not None:
                configure_chaos(args.chaos)  # validates the spec grammar
            else:
                get_injector()  # ...and surface a bad REPRO_CHAOS
            _apply_fastforward_args(args)  # ...and a bad REPRO_FF*
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
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
            # Route the threshold through the knob chain so backend
            # collect loops see it too, not just the scheduler.
            set_default_slow_threshold(
                args.slow_job_threshold if args.slow_job_threshold > 0
                else None
            )
            if args.chaos is not None:
                configure_chaos(args.chaos)  # validates the spec grammar
            else:
                get_injector()  # ...and surface a bad REPRO_CHAOS
            _apply_fastforward_args(args)  # ...and a bad REPRO_FF*
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "fleet" and args.fleet_command == "serve":
        for flag, value, floor in (
            ("shards", args.shards, 1),
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
        if args.chaos is not None:
            try:
                configure_chaos(args.chaos)  # validates the spec grammar
            except ConfigurationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    if args.command == "loadtest":
        for flag, value, floor in (
            ("shards", args.shards, 1),
            ("workers", args.workers, 1),
            ("clients", args.clients, 1),
            ("requests", args.requests, 1),
            ("distinct", args.distinct, 1),
            ("loop-iters", args.loop_iters, 1),
        ):
            if value < floor:
                print(
                    f"error: {flag} must be >= {floor}, got {value}",
                    file=sys.stderr,
                )
                return 2
    if (
        args.command == "report"
        or (args.command == "bench" and args.bench_command == "diff")
    ):
        if args.threshold < 0:
            print(
                f"error: threshold must be >= 0, got {args.threshold}",
                file=sys.stderr,
            )
            return 2
        if args.window < 2:
            print(
                f"error: window must be >= 2, got {args.window}",
                file=sys.stderr,
            )
            return 2
    if args.command == "reproduce":
        if args.no_cache or args.cache_dir:
            configure_default_cache(
                enabled=not args.no_cache, disk_dir=args.cache_dir
            )
        return _cmd_reproduce(
            args.artifact, args.repeats, args.seed, trace_out=args.trace_out,
            resume=args.resume, journal_dir=args.journal_dir,
        )
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "metrics":
        return _cmd_metrics()
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
    if args.command == "fleet":
        if args.fleet_command == "serve":
            return _cmd_fleet_serve(args)
        if args.fleet_command == "status":
            return _cmd_fleet_status(args)
        return _cmd_fleet_drain(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    if args.command == "bench":
        if args.bench_command == "record":
            return _cmd_bench_record(args)
        return _cmd_bench_diff(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")
