"""One cold ``repro`` CLI process, as the benchmark harness launches it.

Usage::

    python3 perfbench/launch.py STAMP MODE [repro arguments ...]

``MODE`` is ``setup`` (import the CLI and stop), ``run`` (call
``repro.cli.main`` with the arguments, exactly as ``python -m repro``
does) or ``trace`` (the same, with :class:`layers.LayerTracer`
installed).  On the way out the launcher writes a JSON stamp to
``STAMP``: the ``CLOCK_MONOTONIC`` times at which ``import repro.cli``
completed and the CLI returned, how many modules that import loaded
and, when tracing, the tracer's accounting.  The harness reads it to
split set-up and exit time from the rest of the launch.  ``src/`` must
be on ``PYTHONPATH``.
"""

import sys
import time


def main() -> int:
    modules_before = len(sys.modules)
    import repro.cli

    stamp = {
        "import_done": time.clock_gettime(time.CLOCK_MONOTONIC),
        "modules": len(sys.modules) - modules_before,
    }
    import json

    stamp_path, mode, *argv = sys.argv[1:]
    tracer = None
    try:
        if mode == "setup":
            return 0
        if mode == "trace":
            from layers import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        elif mode != "run":
            raise SystemExit(f"launch.py: unknown mode {mode!r}")
        return repro.cli.main(argv)
    finally:
        stamp["main_end"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        if tracer is not None:
            tracer.uninstall()
            stamp["trace"] = tracer.dump()
        with open(stamp_path, "w", encoding="utf-8") as out:
            json.dump(stamp, out)


if __name__ == "__main__":
    sys.exit(main())
