import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfdca.sweep
import reference_kernels as ref
from pfdca.probability import JointXY
from pfdca.sweep import (
    CSV_HEADER,
    Solver,
    SweepConfig,
    TradeoffPoint,
    _default_grid,
    derive_seed,
    pareto_frontier,
    points_to_csv,
    read_points_csv,
    resolve_jobs,
    run_sweep,
    sweep_tasks,
    write_points_csv,
)

SMALL = dict(
    beta_grid=(0.1, 1.0, 10.0),
    alpha_grid=(0.5, 2.0),
    card_z_values=(2, 3),
    restarts=2,
)


# Floats a CSV cell must spell as the per-cell rule did: signed zeros,
# subnormals, magnitudes near the ends of the double range, NaN and inf.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300,
               1.7976931348623157e308, float("nan"), float("inf"), -float("inf")]
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
any_point = st.builds(
    TradeoffPoint,
    st.sampled_from(Solver),
    any_float,
    any_float,
    st.integers(1, 64),
    st.integers(0, 1000),
    st.integers(0, 2**64 - 1),
    any_float,
    any_float,
    any_float,
    st.booleans(),
    st.integers(0, 10**6),
    any_float,
)


def point(i_zx, i_zy, solver=Solver.DCA_RIDGE, **kw):
    defaults = dict(
        beta=1.0,
        alpha=1.0,
        card_z=3,
        restart=0,
        seed=0,
        loss_nats=0.0,
        converged=True,
        iterations=10,
        stationarity_gap=0.0,
    )
    defaults.update(kw)
    return TradeoffPoint(solver=solver, i_zx_bits=i_zx, i_zy_bits=i_zy, **defaults)


class TestGeomspace:
    def test_sixteen_point_ratio(self):
        # The default beta and alpha grid: 16 geometric points, endpoints exact.
        got = _default_grid()
        assert len(got) == 16
        assert got[0] == 0.1 and got[-1] == 10.0
        expected_ratio = 100.0 ** (1.0 / 15.0)
        for lo, hi in zip(got, got[1:]):
            assert hi / lo == pytest.approx(expected_ratio, rel=1e-12)


class TestSeeds:
    def test_stable(self):
        assert derive_seed(7, 1, 2, 3, 4) == derive_seed(7, 1, 2, 3, 4)

    def test_distinct_across_cells(self):
        seeds = {
            derive_seed(0, bi, ai, cz, r)
            for bi in range(4)
            for ai in range(4)
            for cz in (2, 3)
            for r in range(3)
        }
        assert len(seeds) == 4 * 4 * 2 * 3


class TestRunSweep:
    def test_point_count_and_order(self, demo_joint):
        cfg = SweepConfig(**SMALL)
        points = run_sweep(demo_joint, cfg)
        assert len(points) == 3 * 2 * 2 * 2
        keys = [(p.beta, p.alpha, p.card_z, p.restart) for p in points]
        assert keys == sorted(keys)

    def test_single_cell_counts_cardinalities(self, demo_joint):
        cfg = SweepConfig(
            beta_grid=(1.0,), alpha_grid=(1.0,), card_z_values=(2, 3, 4), restarts=1
        )
        points = run_sweep(demo_joint, cfg)
        assert len(points) == 3

    def test_default_card_range_uses_cardinality_bound(self, demo_joint):
        cfg = SweepConfig(beta_grid=(1.0,), alpha_grid=(1.0,), restarts=1)
        points = run_sweep(demo_joint, cfg)
        assert sorted({p.card_z for p in points}) == [2, 3, 4]

    def test_deterministic(self, demo_joint):
        cfg = SweepConfig(**SMALL)
        assert run_sweep(demo_joint, cfg) == run_sweep(demo_joint, cfg)

    def test_parallel_matches_serial(self, demo_joint):
        cfg = SweepConfig(**SMALL)
        serial = run_sweep(demo_joint, cfg, n_jobs=1)
        parallel = run_sweep(demo_joint, cfg, n_jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("n_jobs", [2.5, "2", True])
    def test_worker_count_that_is_not_an_integer_refused(self, demo_joint, n_jobs):
        # Unchecked, 2.5 fails inside the pool, "2" on a comparison, and
        # True runs one worker.
        cfg = SweepConfig(beta_grid=(1.0,), alpha_grid=(1.0,), card_z_values=(2, 3, 4, 5), restarts=1)
        with pytest.raises(ValueError, match="--jobs must be an integer"):
            run_sweep(demo_joint, cfg, n_jobs=n_jobs)

    def test_numpy_integer_worker_count(self, demo_joint):
        cfg = SweepConfig(beta_grid=(1.0,), alpha_grid=(1.0,), card_z_values=(2, 3, 4, 5), restarts=1)
        assert run_sweep(demo_joint, cfg, n_jobs=np.int64(2)) == run_sweep(demo_joint, cfg, n_jobs=1)

    @pytest.fixture
    def pools_started(self, monkeypatch):
        """The worker count of every pool run_sweep builds; the pool runs its
        tasks in this process."""
        started = []

        class FakePool:
            def __init__(self, processes, initializer, initargs):
                started.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks, chunksize=1):
                return [func(t) for t in tasks]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(pfdca.sweep, "get_context", lambda method: FakeContext())
        monkeypatch.setattr(pfdca.sweep, "_WORKER_SWEEP", ())   # restored after the in-process initializer
        return started

    def test_pool_has_no_more_workers_than_cells(self, demo_joint, pools_started):
        cfg = SweepConfig(beta_grid=(1.0,), alpha_grid=(1.0,), card_z_values=(2, 3, 4, 5, 6), restarts=1)
        points = run_sweep(demo_joint, cfg, n_jobs=16)
        assert pools_started == [5]
        assert points == run_sweep(demo_joint, cfg, n_jobs=1)

    def test_worker_count_comes_only_from_the_argument(self, demo_joint, pools_started, monkeypatch):
        # The environment does not choose the worker count: without n_jobs
        # the sweep is serial.
        monkeypatch.setenv("PF_THREADS", "2")
        cfg = SweepConfig(beta_grid=(1.0,), alpha_grid=(1.0,), card_z_values=(2, 3, 4, 5), restarts=1)
        points = run_sweep(demo_joint, cfg)
        assert pools_started == []
        assert len(points) == 4

    def test_tasks_are_index_cells_in_grid_order(self, demo_joint):
        cfg = SweepConfig(beta_grid=(0.5, 2.0), alpha_grid=(1.0, 3.0, 9.0), card_z_values=(3, 2), restarts=2)
        cells = sweep_tasks(demo_joint, cfg)
        assert cells == [
            (bi, ai, card_z, restart)
            for bi in range(2) for ai in range(3) for card_z in (3, 2) for restart in range(2)
        ]
        points = run_sweep(demo_joint, cfg)
        assert [(p.beta, p.alpha, p.card_z, p.restart) for p in points] == [
            (cfg.beta_grid[bi], cfg.alpha_grid[ai], card_z, restart) for bi, ai, card_z, restart in cells
        ]

    def test_pool_sends_the_source_once_per_worker(self, demo_joint, monkeypatch):
        # Tasks are pickled in this process; the workers get the source from
        # the pool's initializer when they fork, so no task pickles it.
        cfg = SweepConfig(beta_grid=(0.5, 2.0), alpha_grid=(0.5, 2.0), card_z_values=(2, 3), restarts=1)
        serial = points_to_csv(run_sweep(demo_joint, cfg, n_jobs=1))
        pickled = []
        original = JointXY.__reduce_ex__

        def recorded(self, protocol):
            pickled.append(self)
            return original(self, protocol)

        monkeypatch.setattr(JointXY, "__reduce_ex__", recorded)
        parallel = points_to_csv(run_sweep(demo_joint, cfg, n_jobs=2))
        assert pickled == []
        assert parallel == serial

    def test_information_plane_invariants(self, demo_joint):
        for p in run_sweep(demo_joint, SweepConfig(**SMALL)):
            assert p.i_zy_bits <= p.i_zx_bits + 1e-9
            assert p.i_zx_bits >= -1e-9

    def test_sparse_solver_points(self, demo_joint):
        cfg = SweepConfig(
            beta_grid=(1.0,),
            alpha_grid=(0.5,),
            card_z_values=(2,),
            restarts=1,
            inner_kind="sparse_log",
        )
        points = run_sweep(demo_joint, cfg)
        assert points[0].solver is Solver.DCA_SPARSE
        assert points[0].q == 1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(beta_grid=(1.0, 0.1))
        with pytest.raises(ValueError):
            SweepConfig(restarts=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_seed", -1),
            ("restarts", 1.5),
            ("card_z_values", (2, 2)),
            ("card_z_values", (2, 2.5)),
            ("beta_grid", (True,)),
            ("restarts", True),
            ("card_z_values", (True,)),
            # Numeric text and booleans are not numbers, as in distribution files.
            ("beta_grid", (0.5, np.True_)),
            ("alpha_grid", ("0.5",)),
            ("alpha_grid", "12"),
        ],
    )
    def test_config_refuses_values_that_would_fail_later(self, field, value):
        with pytest.raises(ValueError):
            SweepConfig(**{field: value})

    def test_config_takes_numpy_integers(self):
        cfg = SweepConfig(card_z_values=np.array([3, 2]), restarts=np.int64(2), base_seed=np.uint32(5))
        assert cfg.card_z_values == (3, 2) and all(type(v) is int for v in cfg.card_z_values)

    def test_grids_take_integers_and_numpy_floats(self):
        cfg = SweepConfig(beta_grid=(1, 2, 10), alpha_grid=np.geomspace(0.5, 2.0, 3, dtype=np.float32))
        assert cfg.beta_grid == (1.0, 2.0, 10.0) and cfg.alpha_grid == (0.5, 1.0, 2.0)
        assert all(type(v) is float for v in cfg.beta_grid + cfg.alpha_grid)


class TestResolveJobs:
    def test_explicit_count_wins(self, monkeypatch):
        monkeypatch.setenv("PF_THREADS", "3")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_count_below_one_refused(self, n_jobs):
        with pytest.raises(ValueError, match="--jobs must be at least 1"):
            resolve_jobs(n_jobs)

    @pytest.mark.parametrize("n_jobs", [2.0, False])
    def test_count_that_is_not_an_integer_refused(self, n_jobs):
        with pytest.raises(ValueError, match="--jobs must be an integer"):
            resolve_jobs(n_jobs)

    def test_numpy_integer_count_taken(self):
        jobs = resolve_jobs(np.int64(2))
        assert jobs == 2 and type(jobs) is int


class TestParetoFrontier:
    def test_same_bin_keeps_minimum_leakage(self):
        pts = [point(1.0, 0.5), point(1.0, 0.3)]
        front = pareto_frontier(pts)
        assert len(front) == 1
        assert front[0].i_zy_bits == 0.3

    def test_strict_domination(self):
        pts = [point(0.5, 0.2), point(1.0, 0.1)]
        front = pareto_frontier(pts)
        assert len(front) == 1
        assert front[0].i_zx_bits == 1.0

    def test_single_point(self):
        pts = [point(0.7, 0.2)]
        assert pareto_frontier(pts) == pts

    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_no_interpolation_and_monotone(self, demo_joint):
        points = run_sweep(demo_joint, SweepConfig(**SMALL))
        front = pareto_frontier(points)
        ids = {id(p) for p in points}
        assert all(id(p) in ids for p in front)
        xs = [p.i_zx_bits for p in front]
        ys = [p.i_zy_bits for p in front]
        assert xs == sorted(xs)
        # The achievable lower frontier rises with utility: no point on it
        # may offer more utility at no more leakage than a predecessor.
        assert all(y2 > y1 for y1, y2 in zip(ys, ys[1:]))


class TestCsv:
    def test_header_and_significant_digits(self, demo_joint):
        cfg = SweepConfig(
            beta_grid=(1.0,), alpha_grid=(1.0,), card_z_values=(2,), restarts=1
        )
        points = run_sweep(demo_joint, cfg)
        text = points_to_csv(points)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        row = lines[1].split(",")
        assert row[0] == "dca_ridge" and row[1] == "2"
        # 12 significant digits on floats
        assert len(row[7].replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13

    def test_round_trip(self, tmp_path, demo_joint):
        points = run_sweep(demo_joint, SweepConfig(**SMALL))
        path = tmp_path / "points.csv"
        write_points_csv(points, path)
        again = read_points_csv(path)
        assert len(again) == len(points)
        for a, b in zip(again, points):
            assert a.solver is b.solver
            assert a.i_zx_bits == pytest.approx(b.i_zx_bits, rel=1e-11)
            assert a.seed == b.seed
            assert a.converged == b.converged

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_points_csv(path)

    def test_bad_row_rejected(self, tmp_path):
        # A row with too few fields, and one with a field too many.
        path = tmp_path / "bad.csv"
        for row in ("dca_ridge,2,oops", points_to_csv([point(1.0, 0.5)]).split("\n")[1] + ",0"):
            path.write_text(",".join(CSV_HEADER) + f"\n{row}\n")
            with pytest.raises(ValueError, match=f"row with {row.count(',') + 1} fields"):
                read_points_csv(path)

    def test_header_line_is_pinned(self):
        # The on-disk order; reordering a TradeoffPoint field must fail here.
        text = points_to_csv([point(1.0, 0.5)])
        assert text.split("\n")[0] == (
            "solver,q,beta,alpha,card_z,restart,seed,i_zx_bits,i_zy_bits,"
            "loss_nats,converged,iterations,stationarity_gap"
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(any_point, max_size=6))
    def test_rows_match_the_per_cell_reference(self, points):
        assert points_to_csv(points) == ref.points_csv(points)

    def test_numpy_scalars_round_trip(self, tmp_path):
        # Array code hands back NumPy scalars: the bool column writes by
        # truth value and a float column through float, so the file reads back.
        p = point(np.float32(0.1), np.float64(0.25), converged=np.bool_(True), card_z=np.int64(3),
                  seed=np.uint64(2**64 - 1), stationarity_gap=np.float32(-0.0))
        path = tmp_path / "numpy.csv"
        write_points_csv([p], path)
        assert path.read_text().splitlines()[1] == (
            "dca_ridge,2,1,1,3,0,18446744073709551615,0.10000000149,0.25,0,true,10,0"
        )
        (again,) = read_points_csv(path)
        assert again == point(0.10000000149, 0.25, seed=2**64 - 1)
        assert again.converged is True

    def test_point_pickles_and_is_immutable(self):
        # Pool workers send points back pickled.
        p = point(0.5, 0.25, solver=Solver.DCA_SPARSE, seed=2**64 - 1)
        again = pickle.loads(pickle.dumps(p))
        assert again == p and type(again) is TradeoffPoint
        assert again.solver is Solver.DCA_SPARSE and again.q == 1
        with pytest.raises(AttributeError):
            p.beta = 2.0

    @staticmethod
    def _one_row_csv(tmp_path, **cells):
        path = tmp_path / "one.csv"
        write_points_csv([point(1.0, 0.5)], path)
        header, row = path.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        fields.update(cells)
        path.write_text(header + "\n" + ",".join(fields.values()) + "\n")
        return path

    def test_unchanged_row_reads_back(self, tmp_path):
        (p,) = read_points_csv(self._one_row_csv(tmp_path))
        assert p == point(1.0, 0.5)

    @pytest.mark.parametrize("value", ["maybe", "True", "1", ""])
    def test_converged_other_than_true_or_false_rejected(self, tmp_path, value):
        with pytest.raises(ValueError, match="bad row"):
            read_points_csv(self._one_row_csv(tmp_path, converged=value))

    @pytest.mark.parametrize("value", ["7", "1", "0"])
    def test_q_contradicting_solver_rejected(self, tmp_path, value):
        with pytest.raises(ValueError, match="contradicts solver dca_ridge"):
            read_points_csv(self._one_row_csv(tmp_path, q=value))

    @pytest.mark.parametrize("cells", [
        dict(solver="dca_lasso"), dict(solver=""), dict(q="two"), dict(q="2.0"),
        dict(beta="nan"), dict(alpha="inf"), dict(i_zx_bits="-inf"), dict(i_zy_bits="NaN"),
        dict(loss_nats="x"), dict(stationarity_gap=""), dict(card_z="3.5"), dict(restart="-"),
        dict(seed="1e3"), dict(iterations=""),
    ])
    def test_malformed_cell_rejected(self, tmp_path, cells):
        with pytest.raises(ValueError, match="one.csv: bad row"):
            read_points_csv(self._one_row_csv(tmp_path, **cells))
