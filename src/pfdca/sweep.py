"""Hyperparameter sweep harness: run the solver over geometric grids of
(beta, alpha) for a range of code cardinalities with random restarts,
collect trade-off points on the information plane, and extract the
empirical lower frontier.

Seeds derive from a stable hash of (base seed, grid indices, restart)
so the sweep is reproducible and independent of execution schedule.
"""

import csv
import io
import json
import os
from dataclasses import dataclass, field, fields
from enum import Enum
from multiprocessing import get_context
from numbers import Integral

import numpy as np

from .dca import DcaConfig, InnerKind, _finite_positive, dca_run
from .probability import JointXY

PARETO_BIN_BITS = 0.02


class Solver(str, Enum):
    DCA_RIDGE = "dca_ridge"
    DCA_SPARSE = "dca_sparse"
    GREEDY = "greedy"
    EXHAUSTIVE = "exhaustive"


_SOLVER_Q = {
    Solver.DCA_RIDGE: 2,
    Solver.DCA_SPARSE: 1,
    Solver.GREEDY: 0,
    Solver.EXHAUSTIVE: 0,
}


@dataclass(frozen=True)
class TradeoffPoint:
    """One achieved (I(Z;X), I(Z;Y)) pair plus its provenance."""

    solver: Solver
    beta: float
    alpha: float
    card_z: int
    restart: int
    seed: int
    i_zx_bits: float
    i_zy_bits: float
    loss_nats: float
    converged: bool
    iterations: int
    stationarity_gap: float

    @property
    def q(self) -> int:
        return _SOLVER_Q[self.solver]


# The on-disk record: the solver, its norm order q, then every other field
# of TradeoffPoint in declaration order.
_FIELDS = fields(TradeoffPoint)
CSV_HEADER = ["solver", "q"] + [f.name for f in _FIELDS[1:]]


def geomspace(start: float, stop: float, n: int) -> list[float]:
    """n geometrically spaced points, endpoints included exactly."""
    if not (0 < start < stop):
        raise ValueError("need 0 < start < stop")
    if n < 2:
        raise ValueError("need at least two points")
    return [float(v) for v in np.geomspace(start, stop, n)]


def _default_grid() -> tuple:
    return tuple(geomspace(0.1, 10.0, 16))


@dataclass(frozen=True)
class SweepConfig:
    beta_grid: tuple = field(default_factory=_default_grid)
    alpha_grid: tuple = field(default_factory=_default_grid)
    card_z_values: tuple | None = None  # None: 2 .. max(|X|, |Y|) + 1
    restarts: int = 10
    inner_kind: InnerKind = InnerKind.RIDGE
    base_seed: int = DcaConfig.seed
    outer_tol: float = DcaConfig.outer_tol
    outer_max_iter: int = DcaConfig.outer_max_iter

    def __post_init__(self):
        for name in ("beta_grid", "alpha_grid"):
            grid = tuple(float(v) for v in getattr(self, name))
            if not grid or not _finite_positive(*grid) or list(grid) != sorted(grid):
                raise ValueError(f"{name} must be finite, positive and sorted ascending")
            object.__setattr__(self, name, grid)
        if self.card_z_values is not None:
            values = tuple(self.card_z_values)
            # A repeated size would rerun its cells with the same seeds.
            if not values or len(set(values)) < len(values) or not all(
                isinstance(v, Integral) and v >= 1 for v in values
            ):
                raise ValueError(f"card_z_values must be distinct positive integers, got {values}")
            object.__setattr__(self, "card_z_values", tuple(int(v) for v in values))
        if not isinstance(self.restarts, Integral) or self.restarts < 1:
            raise ValueError("restarts must be an integer >= 1")
        object.__setattr__(self, "inner_kind", InnerKind(self.inner_kind))
        # Check the solver fields here, as every cell's config will.
        self._run_config(self.beta_grid[0], self.alpha_grid[0], self.base_seed)

    def _run_config(self, beta: float, alpha: float, seed: int) -> DcaConfig:
        return DcaConfig(
            beta=beta,
            alpha=alpha,
            inner_kind=self.inner_kind,
            outer_tol=self.outer_tol,
            outer_max_iter=self.outer_max_iter,
            seed=seed,
        )

    def resolve_card_z(self, j: JointXY) -> tuple:
        if self.card_z_values is not None:
            return self.card_z_values
        return tuple(range(2, max(j.n_x, j.n_y) + 2))


def derive_seed(base_seed: int, beta_idx: int, alpha_idx: int, card_z: int, restart: int) -> int:
    """Stable 64-bit seed for one sweep cell."""
    ss = np.random.SeedSequence((int(base_seed), beta_idx, alpha_idx, card_z, restart))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_cell_full(args):
    """(TradeoffPoint, DcaResult) for one grid cell."""
    j, cfg, beta_idx, alpha_idx, card_z, restart = args
    beta = cfg.beta_grid[beta_idx]
    alpha = cfg.alpha_grid[alpha_idx]
    seed = derive_seed(cfg.base_seed, beta_idx, alpha_idx, card_z, restart)
    res = dca_run(j, card_z, cfg._run_config(beta, alpha, seed))
    solver = Solver.DCA_RIDGE if cfg.inner_kind is InnerKind.RIDGE else Solver.DCA_SPARSE
    point = TradeoffPoint(
        solver=solver,
        beta=beta,
        alpha=alpha,
        card_z=card_z,
        restart=restart,
        seed=seed,
        i_zx_bits=res.i_zx_bits,
        i_zy_bits=res.i_zy_bits,
        loss_nats=res.loss_nats,
        converged=res.converged,
        iterations=res.iterations,
        stationarity_gap=res.stationarity_gap,
    )
    return point, res


# (source, config) of the sweep this process serves as a pool worker, set
# once by the pool's initializer so that tasks carry only grid indices.
_WORKER_SWEEP: tuple = ()


def _init_worker(j: JointXY, cfg: SweepConfig) -> None:
    global _WORKER_SWEEP
    _WORKER_SWEEP = (j, cfg)


def _run_worker_cell(cell) -> TradeoffPoint:
    return _run_cell_full(_WORKER_SWEEP + cell)[0]


def sweep_tasks(j: JointXY, cfg: SweepConfig) -> list:
    """Grid-ordered task tuples consumed by the cell runners."""
    return [
        (j, cfg, bi, ai, card_z, restart)
        for bi in range(len(cfg.beta_grid))
        for ai in range(len(cfg.alpha_grid))
        for card_z in cfg.resolve_card_z(j)
        for restart in range(cfg.restarts)
    ]


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Worker count: explicit argument (the CLI's ``--jobs``), else
    PF_THREADS, else 1. A count below 1, or a PF_THREADS that is not an
    integer, raises ValueError."""
    source = "--jobs"
    if n_jobs is None:
        source, env = "PF_THREADS", os.environ.get("PF_THREADS", "").strip()
        try:
            n_jobs = int(env) if env else 1
        except ValueError:
            raise ValueError(f"PF_THREADS must be an integer, got {env!r}") from None
    if n_jobs < 1:
        raise ValueError(f"{source} must be at least 1, got {n_jobs}")
    return n_jobs


def run_sweep(j: JointXY, cfg: SweepConfig, n_jobs: int | None = None) -> list[TradeoffPoint]:
    """One solver run per (beta, alpha, card_z, restart) cell.

    Output order is deterministic (grid order) regardless of the worker
    count used to compute it. Each worker receives the source and the
    config once, when it starts; its tasks are grid indices.
    """
    tasks = sweep_tasks(j, cfg)
    jobs = min(resolve_jobs(n_jobs), len(tasks))   # no worker without a task
    if jobs == 1 or len(tasks) < 4:
        return [_run_cell_full(t)[0] for t in tasks]
    cells = [t[2:] for t in tasks]
    with get_context("fork").Pool(processes=jobs, initializer=_init_worker, initargs=(j, cfg)) as pool:
        points = pool.map(_run_worker_cell, cells, chunksize=max(1, len(cells) // (jobs * 8)))
    return points


def pareto_frontier(points: list) -> list:
    """Lower frontier of the information plane.

    Points are binned by utility ``i_zx_bits`` in bins of
    ``PARETO_BIN_BITS``; the minimum-leakage point per bin survives,
    then any point beaten by another with strictly higher utility and no
    more leakage is dropped. Every returned point is one of the inputs.
    """
    best: dict = {}
    for p in points:
        key = int(np.floor(p.i_zx_bits / PARETO_BIN_BITS))
        cur = best.get(key)
        if cur is None or p.i_zy_bits < cur.i_zy_bits:
            best[key] = p
    kept = list(best.values())
    survivors = [
        p
        for p in kept
        if not any(r.i_zx_bits > p.i_zx_bits and r.i_zy_bits <= p.i_zy_bits for r in kept if r is not p)
    ]
    survivors.sort(key=lambda p: (p.i_zx_bits, p.i_zy_bits))
    return survivors


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v + 0.0 if v != 0.0 else 0.0, ".12g")
    return str(v)


def point_to_record(p: TradeoffPoint) -> dict:
    return {"solver": p.solver.value, "q": p.q, **{k: getattr(p, k) for k in CSV_HEADER[2:]}}


def _write_csv_rows(fh, points) -> int:
    """Write the header and one row per point to ``fh``; returns the row count."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    n = 0
    for n, p in enumerate(points, 1):
        rec = point_to_record(p)
        writer.writerow([_format_value(rec[k]) for k in CSV_HEADER])
    return n


def points_to_csv(points) -> str:
    out = io.StringIO()
    _write_csv_rows(out, points)
    return out.getvalue()


def write_points_csv(points, path) -> int:
    """Write the points row by row as they come from any iterable; returns the row count."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        return _write_csv_rows(fh, points)


def write_points_json(points: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([point_to_record(p) for p in points], fh, indent=1)
        fh.write("\n")


def _parse_float(text: str) -> float:
    v = float(text)
    if not np.isfinite(v):
        raise ValueError("a number is not finite")
    return v


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# Cell parser per TradeoffPoint field type.
_PARSERS = {Solver: Solver, int: int, float: _parse_float, bool: _parse_bool}


def read_points_csv(path) -> list:
    """Parse a sweep/baseline CSV back into trade-off points.

    Raises ValueError on any schema mismatch, a number that is not
    finite, a ``converged`` cell other than true/false, or a ``q`` that
    contradicts the solver.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        points = []
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}: row with {len(row)} fields")
            cells = dict(zip(CSV_HEADER, row))
            try:
                p = TradeoffPoint(**{f.name: _PARSERS[f.type](cells[f.name]) for f in _FIELDS})
                if int(cells["q"]) != p.q:
                    raise ValueError(f"q={cells['q']} contradicts solver {p.solver.value}")
            except ValueError as exc:
                raise ValueError(f"{path}: bad row {row!r}: {exc}") from exc
            points.append(p)
    return points
