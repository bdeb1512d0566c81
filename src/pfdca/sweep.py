"""Hyperparameter sweep harness: run the solver over geometric grids of
(beta, alpha) for a range of code cardinalities with random restarts,
collect trade-off points on the information plane, and extract the
empirical lower frontier.

Seeds derive from a stable hash of (base seed, grid indices, restart)
so the sweep is reproducible and independent of execution schedule.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np

from .dca import DcaConfig, InnerKind, _finite_positive, _is_int, dca_run
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


class TradeoffPoint(NamedTuple):
    """One achieved (I(Z;X), I(Z;Y)) pair plus its provenance.

    A named tuple, so it is cheap to build and to send from a pool worker,
    and it compares equal to the plain tuple of its values.
    """

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


# The on-disk record: the solver's value, its norm order q, then every other
# field of TradeoffPoint in declaration order. _CELL_TYPES holds the type of
# each column.
CSV_HEADER = ["solver", "q", *TradeoffPoint._fields[1:]]
_CELL_TYPES = (str, int, *tuple(TradeoffPoint.__annotations__.values())[1:])


def _default_grid() -> tuple:
    """16 geometrically spaced points on [0.1, 10], endpoints exact."""
    return tuple(np.geomspace(0.1, 10.0, 16).tolist())


@dataclass(frozen=True)
class SweepConfig:
    beta_grid: tuple = field(default_factory=_default_grid)
    alpha_grid: tuple = field(default_factory=_default_grid)
    card_z_values: tuple | None = None  # None: 2 .. max(|X|, |Y|) + 1
    restarts: int = 10
    inner_kind: InnerKind = InnerKind.RIDGE
    base_seed: int = DcaConfig.seed

    def __post_init__(self):
        for name in ("beta_grid", "alpha_grid"):
            values = tuple(getattr(self, name))
            # Checked before float(), which would also read text and booleans.
            if not values or not _finite_positive(*values) or list(values) != sorted(values):
                raise ValueError(f"{name} must be finite, positive and sorted ascending")
            object.__setattr__(self, name, tuple(float(v) for v in values))
        if self.card_z_values is not None:
            values = tuple(self.card_z_values)
            # A repeated size would rerun its cells with the same seeds.
            if not values or len(set(values)) < len(values) or not all(
                _is_int(v) and v >= 1 for v in values
            ):
                raise ValueError(f"card_z_values must be distinct positive integers, got {values}")
            object.__setattr__(self, "card_z_values", tuple(int(v) for v in values))
        if not _is_int(self.restarts) or self.restarts < 1:
            raise ValueError("restarts must be an integer >= 1")
        object.__setattr__(self, "inner_kind", InnerKind(self.inner_kind))
        # Check the solver fields here, as every cell's config will.
        self._run_config(self.beta_grid[0], self.alpha_grid[0], self.base_seed)

    def _run_config(self, beta: float, alpha: float, seed: int) -> DcaConfig:
        return DcaConfig(beta=beta, alpha=alpha, inner_kind=self.inner_kind, seed=seed)

    def resolve_card_z(self, j: JointXY) -> tuple:
        if self.card_z_values is not None:
            return self.card_z_values
        return tuple(range(2, max(j.n_x, j.n_y) + 2))


def derive_seed(base_seed: int, beta_idx: int, alpha_idx: int, card_z: int, restart: int) -> int:
    """Stable 64-bit seed for one sweep cell."""
    ss = np.random.SeedSequence((int(base_seed), beta_idx, alpha_idx, card_z, restart))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_cell(j: JointXY, cfg: SweepConfig, cell: tuple) -> TradeoffPoint:
    """The trade-off point of one (beta_idx, alpha_idx, card_z, restart) cell."""
    beta_idx, alpha_idx, card_z, restart = cell
    beta = cfg.beta_grid[beta_idx]
    alpha = cfg.alpha_grid[alpha_idx]
    seed = derive_seed(cfg.base_seed, *cell)
    res = dca_run(j, card_z, cfg._run_config(beta, alpha, seed))
    solver = Solver.DCA_RIDGE if cfg.inner_kind is InnerKind.RIDGE else Solver.DCA_SPARSE
    return TradeoffPoint(
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


# (source, config) of the sweep this process serves as a pool worker, set
# once by the pool's initializer so that tasks carry only grid indices.
_WORKER_SWEEP: tuple = ()


def _init_worker(j: JointXY, cfg: SweepConfig) -> None:
    global _WORKER_SWEEP
    _WORKER_SWEEP = (j, cfg)


def _run_worker_cell(cell: tuple) -> TradeoffPoint:
    return _run_cell(*_WORKER_SWEEP, cell)


def sweep_tasks(j: JointXY, cfg: SweepConfig) -> list:
    """The (beta_idx, alpha_idx, card_z, restart) cells of the sweep, in grid order."""
    return [
        (bi, ai, card_z, restart)
        for bi in range(len(cfg.beta_grid))
        for ai in range(len(cfg.alpha_grid))
        for card_z in cfg.resolve_card_z(j)
        for restart in range(cfg.restarts)
    ]


def resolve_jobs(n_jobs: int) -> int:
    """The worker count (the CLI's ``--jobs``) as an int. A count that is
    not an integer (a bool is not), or is below 1, raises ValueError."""
    if not _is_int(n_jobs):
        raise ValueError(f"--jobs must be an integer, got {n_jobs!r}")
    if n_jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {n_jobs}")
    return int(n_jobs)


def run_sweep(j: JointXY, cfg: SweepConfig, n_jobs: int = 1) -> list[TradeoffPoint]:
    """One solver run per (beta, alpha, card_z, restart) cell.

    Output order is deterministic (grid order) regardless of the worker
    count used to compute it. Each worker receives the source and the
    config once, when it starts; its tasks are grid indices.
    """
    cells = sweep_tasks(j, cfg)
    jobs = min(resolve_jobs(n_jobs), len(cells))   # no worker without a task
    if jobs == 1 or len(cells) < 4:
        return [_run_cell(j, cfg, cell) for cell in cells]
    with get_context("fork").Pool(processes=jobs, initializer=_init_worker, initargs=(j, cfg)) as pool:
        return pool.map(_run_worker_cell, cells, chunksize=max(1, len(cells) // (jobs * 8)))


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


def _row_formatter(types):
    """The CSV row of a list of cells of the given column types, by one
    format string: a float column is written ``%.12g`` after ``+ 0.0``, so
    -0.0 writes 0 and a NumPy float is read through ``float``; a bool
    column is ``true`` or ``false`` by truth value; any other column is
    ``str(v)``. The list is changed in place."""
    text = ",".join("%.12g" if t is float else "%s" for t in types) + "\n"
    floats = [i for i, t in enumerate(types) if t is float]
    bools = [i for i, t in enumerate(types) if t is bool]

    def row(cells: list) -> str:
        for i in floats:
            cells[i] += 0.0
        for i in bools:
            cells[i] = "true" if cells[i] else "false"
        return text % tuple(cells)

    return row


_POINT_ROW = _row_formatter(_CELL_TYPES)


def _cells(p: TradeoffPoint) -> list:
    """The values of a point's record in ``CSV_HEADER`` order."""
    return [p.solver.value, p.q, *p[1:]]


def _write_csv_rows(fh, points) -> int:
    """Write the header and one row per point to ``fh``; returns the row count."""
    fh.write(",".join(CSV_HEADER) + "\n")
    n = 0
    for n, p in enumerate(points, 1):
        fh.write(_POINT_ROW(_cells(p)))
    return n


def points_to_csv(points) -> str:
    out = io.StringIO()
    _write_csv_rows(out, points)
    return out.getvalue()


def write_points_csv(points, path) -> int:
    """Write the points row by row as they come from any iterable; returns the row count."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        return _write_csv_rows(fh, points)


def _parse_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("a number is not finite")
    return v


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# One cell parser per CSV_HEADER column, by its type.
_PARSERS = {int: int, float: _parse_float, bool: _parse_bool}
_ROW_PARSERS = (Solver, *(_PARSERS[t] for t in _CELL_TYPES[1:]))


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
            try:
                cells = [parse(cell) for parse, cell in zip(_ROW_PARSERS, row)]
                q = cells.pop(1)
                p = TradeoffPoint._make(cells)
                if q != p.q:
                    raise ValueError(f"q={row[1]} contradicts solver {p.solver.value}")
            except ValueError as exc:
                raise ValueError(f"{path}: bad row {row!r}: {exc}") from exc
            points.append(p)
    return points
