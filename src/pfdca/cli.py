"""Command-line surface: solve one instance, sweep the hyperparameter
grid into a CSV of trade-off points and a ``.frontier.csv`` of their
lower frontier, run deterministic baselines, verify the numerical
certificates, and merge result files into an information-plane report.

argparse parses every flag; a flag left out keeps the default of
``DcaConfig`` or ``SweepConfig``, and ``verify`` runs each check at its
fixed tolerance.

Exit codes: 0 success; 1 malformed input (a bad distribution file, such
as a ``p_x`` that is not a list of numbers, or a result CSV with a bad
row, such as a number that is not finite, a ``converged`` cell other
than true/false, or a ``q`` that contradicts its solver); 2 bad flags
(a flag the command does not take, a negative ``--seed``, a number
that is not finite, a ``--card-z`` list that repeats a size, a ``--jobs``
below 1, or an ``--out`` path that cannot be written); 3 a ``solve``
run that did not converge within the solver's 10,000-iteration cap;
4 exhaustive baseline guard exceeded; 5 a verification check failed;
6 internal error (a bug, not bad input; set ``PFDCA_DEBUG`` to print
its traceback).
"""

import argparse
import bisect
import itertools
import json
import os
import sys

import numpy as np

from .baseline import ExhaustiveGuardError, exhaustive_points, greedy_merge_run
from .dca import DcaConfig, InnerKind, _finite_positive, dca_run
from .diagnostics import run_verification
from .probability import InvalidDistributionError, load_joint
from .sweep import (
    SweepConfig,
    _row_formatter,
    pareto_frontier,
    read_points_csv,
    resolve_jobs,
    run_sweep,
    write_points_csv,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_BAD_FLAGS = 2
EXIT_NOT_CONVERGED = 3
EXIT_GUARD = 4
EXIT_CHECK_FAILED = 5
EXIT_INTERNAL = 6

DOMINANCE_SLACK_BITS = 0.01


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# Inner solver per --q; argparse admits no other value.
_Q_KIND = {1: InnerKind.SPARSE_LOG, 2: InnerKind.RIDGE}

DOMINANCE_HEADER = ["baseline_solver", "card_z", "i_zx_bits", "i_zy_bits", "dominated",
                    "by_i_zx_bits", "by_i_zy_bits"]
# A dominance row's by_* cells are the dominating solver point's
# coordinates, or empty when the baseline point is not dominated.
_DOMINATED_ROW = _row_formatter([str, int, float, float, bool, float, float])
_UNDOMINATED_ROW = _row_formatter([str, int, float, float, bool, str, str])


def _comma_list(kind):
    """argparse type of a comma list of ``kind`` values, such as ``0.5,2``."""
    parse = lambda text: tuple(kind(v) for v in text.split(","))
    parse.__name__ = f"comma list of {kind.__name__}"  # argparse's name for it in errors
    return parse


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _load_dist(path):
    try:
        return load_joint(path)
    except OSError as exc:
        raise CliError(EXIT_BAD_INPUT, f"cannot read {path}: {exc}") from exc
    except InvalidDistributionError as exc:
        raise CliError(EXIT_BAD_INPUT, f"invalid distribution file {path}: {exc}") from exc


def cmd_solve(args) -> int:
    j = _load_dist(args.dist)
    try:
        cfg = DcaConfig(
            beta=args.beta,
            alpha=args.alpha,
            inner_kind=_Q_KIND[args.q],
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(EXIT_BAD_FLAGS, f"bad solver configuration: {exc}") from exc
    if args.card_z < 1:
        raise CliError(EXIT_BAD_FLAGS, "--card-z must be >= 1")
    res = dca_run(j, args.card_z, cfg)
    payload = {
        "beta": cfg.beta,
        "alpha": cfg.alpha,
        "q": args.q,
        "card_z": args.card_z,
        "seed": cfg.seed,
        "converged": res.converged,
        "iterations": res.iterations,
        "loss_nats": res.loss_nats,
        "i_zx_bits": res.i_zx_bits,
        "i_zy_bits": res.i_zy_bits,
        "stationarity_gap": res.stationarity_gap,
        "fallback_steps": res.fallback_steps,
        "mirror_steps": res.mirror_steps,
        "defect": res.defect,
        "loss_trace": res.loss_trace.tolist(),
        "encoder": res.encoder.matrix.tolist(),
    }
    col_sums = res.encoder.matrix.sum(axis=0)
    if np.max(np.abs(col_sums - 1.0)) > 1e-9:
        raise CliError(EXIT_INTERNAL, "internal error: encoder columns not stochastic")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(
        f"solve: converged={res.converged} iterations={res.iterations} "
        f"I(Z;X)={res.i_zx_bits:.6f} bits I(Z;Y)={res.i_zy_bits:.6f} bits -> {args.out}"
    )
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def cmd_sweep(args) -> int:
    j = _load_dist(args.dist)
    grid = {k: v for k, v in vars(args).items() if k in ("beta_grid", "alpha_grid", "card_z_values")}
    try:
        cfg = SweepConfig(
            restarts=args.restarts,
            inner_kind=_Q_KIND[args.q],
            base_seed=args.seed,
            **grid,
        )
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        raise CliError(EXIT_BAD_FLAGS, f"bad sweep configuration: {exc}") from exc
    frontier_out = f"{args.out}.frontier.csv"
    for path in (args.out, frontier_out):  # an output that cannot be written fails before the sweep runs
        open(path, "w").close()
    points = run_sweep(j, cfg, n_jobs=jobs)
    write_points_csv(points, args.out)
    write_points_csv(pareto_frontier(points), frontier_out)
    print(f"sweep: {len(points)} runs -> {args.out}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    j = _load_dist(args.dist)
    if not _finite_positive(args.beta):
        raise CliError(EXIT_BAD_FLAGS, "--beta must be finite and positive")
    points = greedy_merge_run(j, args.beta) if args.solver in ("greedy", "both") else []
    if args.solver in ("exhaustive", "both"):
        try:
            points = itertools.chain(points, exhaustive_points(j, args.beta))
        except ExhaustiveGuardError as exc:
            raise CliError(EXIT_GUARD, str(exc)) from exc
    n = write_points_csv(points, args.out)
    print(f"baseline: {n} points -> {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    j = _load_dist(args.dist)
    with open(args.out, "w", encoding="utf-8") as fh:
        reports = run_verification(j, seed=args.seed)
        for report in reports:
            fh.write(json.dumps(report.to_record()) + "\n")
    failed = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        failed += not report.passed
        print(
            f"[{status}] {report.name}: max_violation={report.max_violation:.3e} "
            f"tolerance={report.tolerance:.3e} samples={report.samples}"
        )
    print(f"verify: {len(reports) - failed}/{len(reports)} checks passed -> {args.out}")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    all_points = []
    for path in args.inputs:
        try:
            all_points.extend(read_points_csv(path))
        except OSError as exc:
            raise CliError(EXIT_BAD_INPUT, f"cannot read {path}: {exc}") from exc
        except ValueError as exc:
            raise CliError(EXIT_BAD_INPUT, str(exc)) from exc
    if not all_points:
        raise CliError(EXIT_BAD_INPUT, "no records found in the input files")
    write_points_csv(pareto_frontier(all_points), args.out)
    # Sorted by i_zx_bits, the solver points at or above a baseline point's
    # i_zx_bits less the slack are a suffix; best_from[i] is the point of
    # least (i_zy_bits, -i_zx_bits) in the suffix from i.
    dca_points = sorted((p for p in all_points if p.q), key=lambda d: d.i_zx_bits)
    zx_sorted = [d.i_zx_bits for d in dca_points]
    best_from = [*itertools.accumulate(
        reversed(dca_points), lambda a, d: min(a, d, key=lambda p: (p.i_zy_bits, -p.i_zx_bits))
    )][::-1] + [None]
    baseline_points = [p for p in all_points if not p.q]
    dominated_count = 0
    with open(str(args.out) + ".dominance.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(DOMINANCE_HEADER) + "\n")
        for b in baseline_points:
            best = best_from[bisect.bisect_left(zx_sorted, b.i_zx_bits - DOMINANCE_SLACK_BITS)]
            if best and best.i_zy_bits > b.i_zy_bits + DOMINANCE_SLACK_BITS:
                best = None
            dominated_count += best is not None
            row = [b.solver.value, b.card_z, b.i_zx_bits, b.i_zy_bits, best is not None]
            if best:
                fh.write(_DOMINATED_ROW(row + [best.i_zx_bits, best.i_zy_bits]))
            else:
                fh.write(_UNDOMINATED_ROW(row + ["", ""]))
    print(
        f"report: {len(all_points)} points, {dominated_count}/{len(baseline_points)} "
        f"baseline points dominated within {DOMINANCE_SLACK_BITS} bits -> {args.out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfdca",
        description="Difference-of-convex privacy funnel solver suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dist", required=True, help="joint distribution JSON file")
        p.add_argument("--out", required=True, help="output file path")

    def add_seed(p):
        p.add_argument("--seed", type=_seed, default=DcaConfig.seed, help="base random seed")

    def add_solver(p):
        p.add_argument("--q", type=int, choices=(1, 2), default=2, help="inner penalty norm order")

    p_solve = sub.add_parser("solve", help="run one solver instance")
    add_common(p_solve)
    add_seed(p_solve)
    add_solver(p_solve)
    p_solve.add_argument("--beta", type=float, default=1.0, help="trade-off multiplier")
    p_solve.add_argument("--alpha", type=float, default=1.0, help="relaxation coefficient")
    p_solve.add_argument("--card-z", type=int, default=3, dest="card_z", help="code alphabet size")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="hyperparameter grid sweep")
    add_common(p_sweep)
    add_seed(p_sweep)
    add_solver(p_sweep)
    # A grid flag left out is absent from args; cmd_sweep leaves that grid to SweepConfig.
    grid = dict(default=argparse.SUPPRESS, metavar="V,V,...")
    p_sweep.add_argument("--beta-grid", type=_comma_list(float), help="trade-off multipliers", **grid)
    p_sweep.add_argument("--alpha-grid", type=_comma_list(float), help="relaxation coefficients", **grid)
    p_sweep.add_argument("--card-z", type=_comma_list(int), dest="card_z_values",
                         help="code alphabet sizes", **grid)
    p_sweep.add_argument("--restarts", type=int, default=SweepConfig.restarts)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_base = sub.add_parser("baseline", help="deterministic clustering baselines")
    add_common(p_base)
    p_base.add_argument("--beta", type=float, default=1.0)
    p_base.add_argument(
        "--solver", choices=("greedy", "exhaustive", "both"), default="both"
    )
    p_base.set_defaults(func=cmd_baseline)

    p_verify = sub.add_parser("verify", help="run the numerical certificate suite")
    add_common(p_verify)
    add_seed(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="merge result CSVs into a frontier report")
    p_report.add_argument("--inputs", nargs="+", required=True, help="sweep/baseline CSV files")
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        # No abbreviations: ``sweep --beta 2`` must not pass for ``--beta-grid 2``.
        p.allow_abbrev = False
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            # Reported with the usage of the command given, which lists the
            # flags it does take.
            args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"{args.command_parser.prog}: error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # Each command reports its own read errors, so a file named
            # here is an output path that cannot be written.
            print(f"{args.command_parser.prog}: error: cannot write {exc.filename}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_BAD_FLAGS
        if os.environ.get("PFDCA_DEBUG"):
            import traceback  # only debug runs pay for the import

            traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
