"""Offline benchmark of the terminators pipeline.

    python3 perfbench/run.py --workload agent-latency --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and fails when that is missing. Untraced (``--trace 0``) it prints the
end-to-end metrics, traced (``--trace 1``) the per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when an output
check fails. Run directories and caches live in a temporary directory under
``.perfbench/`` in the checkout, removed before exit.

Workloads, their input properties and the layer-to-metric predictions are
in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = tuple(json.loads(
    (Path(__file__).parent / "workloads.json").read_text(encoding="utf-8"))["workloads"])
IMPORT_REPEATS = 3


def _time_imports() -> list[tuple[float, float]]:
    """(wall s, CPU s) to import the package, measured IMPORT_REPEATS times
    by dropping it from sys.modules in between."""
    seconds = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules
                     if m == "terminators" or m.startswith("terminators.")]:
            del sys.modules[name]
        started, cpu_started = time.perf_counter(), time.process_time()
        importlib.import_module("terminators")
        seconds.append((time.perf_counter() - started,
                        time.process_time() - cpu_started))
    return seconds


def _run_one(args) -> int:
    if not (SRC / "terminators" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'terminators'} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Compile from source every time, so import cost does not depend on
    # what an earlier run left behind, and write nothing into the checkout.
    sys.dont_write_bytecode = True
    sys.path[:] = [str(SRC), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != Path(__file__).resolve().parent]
    import_seconds = _time_imports()
    import terminators
    if Path(terminators.__file__).resolve().parent != (SRC / "terminators").resolve():
        print(f"perfbench: imported terminators from {terminators.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workspace = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result, report = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workspace,
            import_seconds)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time the untraced run spends in the pipeline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
