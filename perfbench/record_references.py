"""Record the artifact references the benchmark checks outputs against.

Usage::

    python3 perfbench/record_references.py SEED [SEED ...]

For each seed, runs ``repro reproduce all --seed SEED`` serially on the
inline backend and stores the SHA-256 of every artifact's section of
standard output in ``perfbench/references.json``, next to the seeds
already there.  Artifacts whose runner takes no seed are listed as
seed-independent: their bytes are checked at every seed.  Re-record
only when a change is meant to alter artifact output.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys

from run import REFERENCES, ROOT, SRC, digest, split_sections


def record(seed: int) -> list[tuple[str, str]]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "reproduce", "all", "--seed",
         str(seed), "--jobs", "1", "--backend", "inline"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    preamble, sections = split_sections(proc.stdout)
    if preamble.strip() or not sections:
        raise SystemExit(f"seed {seed}: unexpected output layout")
    return [(artifact, digest(text)) for artifact, text in sections]


def main(seeds: list[int]) -> int:
    sys.path.insert(0, str(SRC))
    from repro.experiments import ALL_EXPERIMENTS

    refs = {"seeds": {}}
    if REFERENCES.exists():
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    for seed in seeds:
        sections = record(seed)
        order = [artifact for artifact, _ in sections]
        if refs.get("order", order) != order:
            raise SystemExit(f"seed {seed}: artifact order changed")
        refs["order"] = order
        refs["seeds"][str(seed)] = dict(sections)
        print(f"seed {seed}: {len(sections)} artifacts", file=sys.stderr)
    # run_artifact forwards the seed only to runners taking base_seed.
    refs["seed_independent"] = [
        artifact for artifact, runner in ALL_EXPERIMENTS.items()
        if "base_seed" not in inspect.signature(runner).parameters
    ]
    for artifact in refs["seed_independent"]:
        if len({ref[artifact] for ref in refs["seeds"].values()}) != 1:
            raise SystemExit(f"{artifact} differs between seeds")
    refs = {
        "order": refs["order"],
        "seed_independent": refs["seed_independent"],
        "seeds": dict(sorted(refs["seeds"].items(), key=lambda kv: int(kv[0]))),
    }
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]]))
