"""Benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ridge_demo --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
with ``--trace 1`` every per-layer metric. The last line of the output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give quartiles, sample counts and any
failures. The exit code is 0 only when every correctness check passed.

The program is used from ``src/`` as it stands in the checkout. Set-up
time is measured in fresh interpreters; everything else in one separate
measurement process (``measure.py``), so that its peak memory is the
program's and its pool's alone.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference_probe import REFERENCE_S as IMPORTS_REFERENCE_S
from workloads import WORKLOADS, build_spec

HERE = Path(__file__).resolve().parent
# Fresh interpreters timed for setup_s, half before and half after the
# measurement, so that the median sees the machine at two moments.
SETUP_PROBES = 6
# Every run must end within 180 s; keep a margin for start-up and clean-up.
DEADLINE_S = 170.0


def timed_setup(probe, reference, env, deadline: float) -> tuple:
    """(wall seconds, reference seconds) of one set-up probe.

    Reference seconds scale the probe's wall time by a fixed import
    workload timed right after it (reference_probe.py).
    """
    wall = float(run_child(probe, env, deadline))
    return wall, wall * IMPORTS_REFERENCE_S / float(run_child(reference, env, deadline))


def run_child(cmd, env, deadline: float) -> str:
    """Stdout of a child process; its whole process group is killed at the deadline."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # pool workers left behind, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} exited with code {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pfdca benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    ap.add_argument("--inject", choices=("nonstochastic", "raise"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "pfdca" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a pfdca checkout (needs src/pfdca and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), str(HERE), env.get("PYTHONPATH")]))
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        spec = build_spec(args.workload, args.seed, tiny=args.tiny)
        spec_path, source_path = f"{workdir}/spec.json", f"{workdir}/source.json"
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with open(source_path, "w", encoding="utf-8") as fh:
            json.dump(spec["source"], fh)

        probe = [sys.executable, str(HERE / "setup_probe.py"), spec_path, source_path]
        reference = [sys.executable, str(HERE / "reference_probe.py")]
        probes = 0 if args.trace else 2 if args.tiny else SETUP_PROBES
        if probes:   # the first imports also write the bytecode caches
            run_child(probe, env, deadline)
            run_child(reference, env, deadline)
        setup = [timed_setup(probe, reference, env, deadline) for _ in range(probes // 2)]

        cmd = [
            sys.executable, str(HERE / "measure.py"), spec_path, workdir,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans-out", str(work_root / f"{args.workload}-seed{args.seed}.spans.npz"),
        ]
        if args.inject:
            cmd += ["--inject", args.inject]
        report = json.loads(run_child(cmd, env, deadline).strip().splitlines()[-1])
        setup += [timed_setup(probe, reference, env, deadline) for _ in range(probes - probes // 2)]
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = report["metrics"]
    if setup:
        wall, ref = zip(*setup)
        values["setup_s"] = statistics.median(ref)
        report["detail"]["setup_s"] = {"probes": ref, "wall_probes": wall}
    missing = [m["name"] for m in declared if m["name"] not in values]
    correct = report["correct"] and not missing

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for m in declared:
        if m["name"] in values:
            print(f"  {m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    print("detail " + json.dumps(report["detail"]))
    for why in report["failures"] + [f"metric {name} not reported" for name in missing]:
        print(f"failure: {why}")
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
