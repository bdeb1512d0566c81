"""Set-up time of one workload, measured in a fresh interpreter.

Usage: ``python3 setup_probe.py SPEC SOURCE``. Times importing the
command-line module, loading and validating the source through
``load_joint`` and building the workload's task list, then prints the
seconds taken.
"""

import json
import sys
import time


def main(spec_path: str, source_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    import pfdca.cli  # noqa: F401  (the import is part of what is timed)
    from pfdca.baseline import iter_partitions
    from pfdca.probability import load_joint
    from pfdca.sweep import SweepConfig, sweep_tasks

    joint = load_joint(source_path)
    if spec["kind"] == "sweep":
        cfg = SweepConfig(
            beta_grid=tuple(spec["beta_grid"]),
            alpha_grid=tuple(spec["alpha_grid"]),
            card_z_values=tuple(spec["card_z"]),
            restarts=spec["restarts"],
            inner_kind=spec["inner_kind"],
            base_seed=spec["base_seed"],
        )
        tasks = sweep_tasks(joint, cfg)
    else:
        tasks = list(iter_partitions(joint.n_x))
    elapsed = time.perf_counter() - start
    if not tasks:
        print("empty task list", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
