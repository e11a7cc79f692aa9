"""bellgame benchmark: time to a verified result for four seeded CLI workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``inputs.build_workload``):

* ``classical``: equilibria, audit-bound and bell on table1 and on seeded
  relabelled affine copies.  Exact ``Fraction`` work in ``classical`` and
  ``game``; ``quantum`` is never called.
* ``table1-optimize``: optimize on table1 over seeded optimizer seeds, which
  runs the table1-only closed form ``planar_payoff``.
* ``generic-optimize``: optimize on seeded relabelled affine copies, which
  runs the trace-rule objective (``quantum_payoffs``).
* ``certify``: check (planar and full-sphere, one random restart) and bell
  on a seeded gauge-shifted copy of the optimum: the grid scans and the only
  non-planar distributions.

Each run measures set-up in fresh interpreters, then runs the workload in a
worker process of its own (``worker.py``) so that its peak memory is its own.
With ``--trace 0`` it prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing ``bellgame.cli``
  and loading ``builtin:table1``, at reference machine speed;
* ``wall_s``: median over passes of the time of the workload's whole
  sequence of CLI operations, at reference machine speed;
* ``verified_ratio``: operations whose report passed every reference check,
  over operations attempted (one minus the error rate);
* ``peak_rss_mb``: peak resident memory of the worker process.

"At reference machine speed" means scaled by a calibration kernel sampled
while the code runs (``speed.py``); the raw times are printed on the
``timing`` line.  With ``--trace 1`` the run prints the per-layer metrics of
traced passes instead, and the set-up interpreters run with ``-X importtime``
to break their imports down.  A run that cannot finish within
``RUN_LIMIT_S`` stops its worker and exits 1 without a result.  Lines before the last one carry the environment, the
raw timings and every failed check; the last line is the result object.  Run
outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from inputs import GAME_SCHEMA_PATH, SETTING_SCHEMA_PATH, WORKLOADS  # noqa: E402

#: One BLAS/OpenMP thread: the program is single-threaded, and idle pool
#: threads would only add noise.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Fresh interpreters timed per run (after one untimed one that fills the
#: bytecode and file caches); setup_s is their median.
SETUP_PROBES = 5
#: A run must end within this many seconds of its start, worker included.
RUN_LIMIT_S = 170

#: Run in a fresh interpreter: time what every CLI call pays before it does any
#: work, with the machine's speed sampled throughout.  The probe imports
#: nothing itself that the program might stop importing; with ``-X importtime``
#: the import lines between its two markers on stderr break the time down.
SETUP_START = "bench: setup start"
SETUP_END = "bench: setup end"
SETUP_PROBE = f"""
import sys, time
sys.path.insert(0, sys.argv[2])
from speed import SpeedSampler, speed_factor
sys.path.insert(0, sys.argv[1])
with SpeedSampler() as sampler:
    sampler.sample()
    print({SETUP_START!r}, file=sys.stderr, flush=True)
    k0 = sampler.kernel_s
    t0 = time.perf_counter()
    import bellgame.cli
    from bellgame.builtin import builtin_game
    builtin_game("table1")
    t1 = time.perf_counter()
    k1 = sampler.kernel_s
    print({SETUP_END!r}, file=sys.stderr, flush=True)
    sampler.sample()
import json
print(json.dumps({{"raw_s": t1 - t0 - (k1 - k0), "speed": speed_factor(sampler.samples)}}))
"""
#: Import stages of the set-up breakdown, by top-level package; every other
#: module counts towards the package that imported it, bellgame at the root.
IMPORT_STAGES = {"numpy": "numpy_s", "scipy": "scipy_optimize_s"}


def import_stages(stderr: str) -> dict[str, float]:
    """Seconds of import time per stage, from the probe's ``-X importtime`` lines.

    A stage the program no longer imports reads 0.
    """
    window = stderr.split(SETUP_START + "\n", 1)[1].split(SETUP_END + "\n", 1)[0]
    entries = []
    for line in window.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or not fields[0][12:].strip().isdigit():
            continue  # the header, or output that is not an import line
        name = fields[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(fields[0][12:])))
    stages = dict.fromkeys([*IMPORT_STAGES.values(), "bellgame_s"], 0.0)
    owners: list[str] = []  # stage of each enclosing import, outermost first
    # importtime lists a module after the modules it imports; reversed, every
    # module comes after its importer
    for depth, name, self_us in reversed(entries):
        del owners[depth:]
        stage = IMPORT_STAGES.get(name.partition(".")[0]) or (owners[-1] if owners else "bellgame_s")
        owners.append(stage)
        stages[stage] += self_us / 1e6
    return stages


def measure_setup(env: dict, trace: bool, deadline: float) -> list[dict]:
    """Time SETUP_PROBES fresh interpreters; with ``trace`` also break their imports down."""
    probes = []
    flags = ["-X", "importtime"] if trace else []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, *flags, "-c", SETUP_PROBE, str(ROOT / "src"), str(BENCH)],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=deadline - time.monotonic(),
        )
        probe = json.loads(done.stdout)
        if trace:
            probe.update(import_stages(done.stderr))
        probes.append(probe)
    return probes[1:]


def validate_inputs(directory: Path) -> list[str]:
    """Schema check of every generated game and setting file."""
    schemas = {
        "game": json.loads(GAME_SCHEMA_PATH.read_text()),
        "setting": json.loads(SETTING_SCHEMA_PATH.read_text()),
    }
    fails = []
    for path in sorted(directory.glob("*.json")):
        kind = "game" if path.name.startswith("game") else "setting"
        try:
            jsonschema.validate(json.loads(path.read_text()), schemas[kind])
        except jsonschema.ValidationError as exc:
            fails.append(f"{path.name} violates the {kind} schema: {exc.message}")
    return fails


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bellgame").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": sha,
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bellgame" / "cli.py").is_file():
        print(f"error: no bellgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update(THREAD_PINS)
    env = dict(os.environ)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(dir=OUT) as input_dir:
        try:
            probes = measure_setup(env, bool(args.trace), deadline)
            done = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
                 str(args.seconds), str(args.trace), input_dir, str(OUT / f"spans-{tag}.json")],
                env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=deadline - time.monotonic(),
            )
        except subprocess.TimeoutExpired:
            print(f"error: the {args.workload} workload did not finish within the run limit of "
                  f"{RUN_LIMIT_S} s: set-up or one pass over its operations takes too long", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"error: worker exited with {done.returncode}", file=sys.stderr)
            return 1
        worker = json.loads(done.stdout.strip().splitlines()[-1])
        schema_fails = validate_inputs(Path(input_dir))

    failures = schema_fails + worker["failures"]
    if args.trace:
        metrics = dict(worker["layers"])
        for stage in (*IMPORT_STAGES.values(), "bellgame_s"):
            metrics[f"setup.import.{stage}"] = statistics.median(p[stage] for p in probes)
    else:
        attempted = worker["attempted"]
        metrics = {
            "setup_s": statistics.median(p["raw_s"] * p["speed"] for p in probes),
            "wall_s": worker["wall_s"],
            "verified_ratio": (attempted - worker["failed"]) / attempted,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    detail = {"run": vars(args), "environment": environment(), "setup_probes": probes,
              "worker": worker, "schema_failures": schema_fails}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("environment " + json.dumps(detail["environment"]))
    print("timing " + json.dumps({
        "passes": worker["passes"],
        "raw_wall_s": worker["raw_wall_s"],
        "wall_speed_factor": worker["speed_factor"],
        "raw_setup_s": statistics.median(p["raw_s"] for p in probes),
        "setup_speed_factor": statistics.median(p["speed"] for p in probes),
    }))
    if worker.get("missing_boundaries"):
        print("note: boundaries no longer in the program: " + ", ".join(worker["missing_boundaries"]))
    for failure in failures:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": worker["attempted"],
        "failed": worker["failed"] + len(schema_fails),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
