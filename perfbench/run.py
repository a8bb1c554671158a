"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sparse-train --seed 1 --seconds 45 --trace 0

The run generates the workload's inputs from the seed in a child process,
sets up the package's data, graphs and params ``SETUP_REPS`` times, then
runs the workload's phases as a closed loop of timed calls and checks
every output.  With ``--trace 0`` the last line of stdout reports the
end-to-end metrics.  With ``--trace 1`` the run makes an untraced pass
and a traced pass on the same inputs, each with half the seconds, checks
that both produce identical outputs, and reports the per-layer metrics
and the tracing overhead.  The exit code is 0 only when every check
passed.  Outputs go to ``.perfbench/out`` under the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    # One BLAS thread: the package computes sequentially, and a second
    # thread on a small shared machine mostly adds noise.  Set before
    # numpy is imported; the input generator inherits it.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from perfbench import metrics  # noqa: E402
from perfbench.phases import MIN_UNITS, P99_REQUESTS, run_phases, timed_setups  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import INPUTS_FILE, WORKLOADS, import_package  # noqa: E402

STATE_DIR = ROOT / ".perfbench"
SETUP_REPS = 3
GENERATE_TIMEOUT_S = 300
# measuring loop ceilings that keep a run under three minutes
CEILING_S = 75.0
TRACED_CEILING_S = 45.0


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(hg) -> dict:
    """Machine, interpreter, BLAS and source identity of this result."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hypergroup": getattr(hg, "__version__", "unknown"),
        "commit": _commit(),
        "source_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


def generate_inputs(workload_name: str, seed: int, work_dir: Path) -> dict:
    """Write the workload's inputs with the generator, in a child process."""
    cmd = [sys.executable, "-m", "perfbench.workloads", "--workload", workload_name,
           "--seed", str(seed), "--out", str(work_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, timeout=GENERATE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: input generator exited with {proc.returncode}")
    return json.loads((work_dir / INPUTS_FILE).read_text(encoding="utf-8"))


def measure(hg, workload, inputs: dict, work_dir: Path, seed: int, seconds: float, reps: int,
            ceiling_s: float, tracer: Tracer | None = None, requests: int = MIN_UNITS["recommend"]) -> dict:
    """One pass: set up ``reps`` times, then run every phase on the last world,
    with at least ``requests`` timed recommend requests."""
    if tracer is not None:
        tracer.install(hg)
        tracer.begin_unit("setup", 0)
    try:
        world, setup_seconds = timed_setups(hg, workload, work_dir, seed, reps)
        if tracer is not None:
            tracer.end_unit()
        phases, reference = run_phases(hg, world, inputs, seed, seconds, ceiling_s, tracer, requests)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "world": world,
        "phases": phases,
        "metrics": metrics.end_to_end(setup_seconds, phases, peak_rss_mb),
        "setup_seconds": setup_seconds,
        "reference_ms": reference,
    }


def compare_outputs(untraced: dict, traced: dict) -> list[str]:
    """The traced pass reproduced the untraced pass's outputs exactly."""
    problems = []
    for phase, first in untraced["phases"].items():
        a, b = first.outputs, traced["phases"][phase].outputs
        n = min(len(a), len(b))
        if n == 0 or a[:n] != b[:n]:
            problems.append(f"traced {phase} outputs differ from the untraced pass")
    return problems


def run(workload, seed: int, seconds: float, trace: bool, work_dir: Path, inputs: dict, hg) -> dict:
    """Measure one workload whose inputs are already in ``work_dir``."""
    if not trace:
        passes = [measure(hg, workload, inputs, work_dir, seed, seconds, SETUP_REPS, CEILING_S)]
        values = passes[0]["metrics"]
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        extra_problems, absent, tracer = [], [], None
    else:
        untraced = measure(hg, workload, inputs, work_dir, seed, seconds / 2, 1, TRACED_CEILING_S,
                           requests=P99_REQUESTS)
        untraced["world"] = None
        gc.collect()
        tracer = Tracer()
        traced = measure(hg, workload, inputs, work_dir, seed, seconds / 2, 1, TRACED_CEILING_S, tracer,
                         requests=P99_REQUESTS)
        passes = [untraced, traced]
        values, absent = metrics.per_layer(tracer, traced["phases"], traced["world"])
        values.update(metrics.overhead(untraced["metrics"], traced["metrics"]))
        values.update({name: untraced["metrics"][name] for name, _, _ in metrics.UNGATED})
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        extra_problems = compare_outputs(untraced, traced)
    problems = list(extra_problems)
    attempted = failed = 0
    for p in passes:
        for phase in p["phases"].values():
            problems += phase.problems
            attempted += phase.attempted
            failed += phase.failed
    return {
        "passes": passes,
        "tracer": tracer,
        "absent": absent,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": max(1, attempted),
            "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
        },
    }


def _report_lines(workload, env: dict, inputs: dict, outcome: dict) -> list[str]:
    first = outcome["passes"][0]
    lines = [
        f"workload {workload.name}: {workload.why}",
        "env " + json.dumps(env, sort_keys=True),
        "inputs " + json.dumps(inputs["properties"], sort_keys=True),
        "setup_seconds " + json.dumps(first["setup_seconds"]),
        "machine_reference_cpu_ms " + json.dumps(first["reference_ms"]),
    ]
    for phase, res in first["phases"].items():
        if phase in ("user", "group"):
            lines.append(f"losses.{phase} " + json.dumps(res.outputs))
            lines.append(f"call_setup_seconds.{phase} " + json.dumps(res.setup_seconds))
        lines.append(f"units.{phase} timed={len(res.seconds)} attempted={res.attempted} failed={res.failed}")
        if len(res.seconds) < res.minimum:
            lines.append(f"note: {phase} reached the time ceiling with {len(res.seconds)} of "
                         f"{res.minimum} timed units; its metrics rest on fewer samples")
    if first["phases"]["eval"].outputs:
        lines.append("eval.report " + json.dumps(json.loads(first["phases"]["eval"].outputs[0])))
    result = outcome["result"]
    lines.append(f"fail_ratio {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        lines.append(f"metric {name} {m['value']:.6g} {m['unit']}")
    if len(first["phases"]["recommend"].seconds) >= P99_REQUESTS:
        for name, unit, _ in metrics.UNGATED:
            lines.append(f"ungated {name} {first['metrics'][name]:.6g} {unit}")
    if outcome["absent"]:
        lines.append("absent " + "; ".join(outcome["absent"]))
    for problem in outcome["problems"]:
        lines.append(f"CHECK FAILED: {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hg = import_package()
    workload = WORKLOADS[args.workload]
    env = environment(hg)
    tag = f"{workload.name}-s{args.seed}-trace{args.trace}"
    work_dir = STATE_DIR / "work" / f"{tag}-p{os.getpid()}"
    out_dir = STATE_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = generate_inputs(workload.name, args.seed, work_dir)
        outcome = run(workload, args.seed, args.seconds, bool(args.trace), work_dir, inputs, hg)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = _report_lines(workload, env, inputs, outcome)
    summary = {"env": env, "inputs": inputs["properties"], "report": lines, "result": outcome["result"]}
    (out_dir / f"{tag}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if outcome["tracer"] is not None:
        outcome["tracer"].write(out_dir / f"{tag}.spans.json")
    print("\n".join(lines))
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
