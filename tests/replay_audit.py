"""Audit every replayed measurement of ``reproduce all`` against its own run.

Runs ``repro reproduce all`` at one seed, serially in this process, and
notes every measurement that ``run_measurement`` answered from a
recorded run.  Then it measures each of them again with a tracer
attached (a traced run is always simulated, never replayed) and
compares the two results, deltas and tick count included.  It prints
each difference and a summary line, and exits 1 when a result differs
or when nothing was replayed (an audit of nothing shows nothing).

    PYTHONPATH=src python tests/replay_audit.py --seed 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from repro.cli import main as repro_main
from repro.core import measurement
from repro.core.compiler import DEFAULT_GCC
from repro.trace import Tracer


def _rebind(old, new) -> list:
    """Bind ``new`` wherever a loaded ``repro`` module binds ``old``;
    returns the (module, name) pairs it rebound."""
    rebound = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                rebound.append((module, attr))
    return rebound


def replays_of_reproduce_all(seed: int) -> list[tuple]:
    """Run ``reproduce all`` at ``seed``; returns each replayed
    measurement as (config, benchmark, gcc, result)."""
    run = measurement.run_measurement
    replays = []

    def noting(config, benchmark, gcc=DEFAULT_GCC, tracer=None):
        before = measurement.replayed()
        result = run(config, benchmark, gcc, tracer)
        if measurement.replayed() != before:
            replays.append((config, benchmark, gcc, result))
        return result

    rebound = _rebind(run, noting)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = repro_main(["reproduce", "all", "--seed", str(seed),
                                 "--jobs", "1"])
    finally:
        for module, attr in rebound:
            setattr(module, attr, run)
    if status != 0:
        raise SystemExit(f"reproduce all --seed {seed} exited {status}")
    return replays


def audit(seed: int) -> tuple[int, int]:
    """How many replayed measurements were audited, and how many of
    them differ from their own run."""
    replays = replays_of_reproduce_all(seed)
    differ = 0
    for config, benchmark, gcc, replayed in replays:
        simulated = measurement.run_measurement(
            config, benchmark, gcc, tracer=Tracer())
        if simulated != replayed:
            differ += 1
            print(f"differs: {config} {benchmark.name}: replayed "
                  f"{replayed.deltas} ticks {replayed.ticks}, simulated "
                  f"{simulated.deltas} ticks {simulated.ticks}")
    print(f"seed {seed}: {len(replays)} replayed measurements audited, "
          f"{differ} differ")
    return len(replays), differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    audited, differ = audit(parser.parse_args(argv).seed)
    return 0 if audited and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
