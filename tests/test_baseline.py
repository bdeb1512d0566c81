import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pfdca.baseline
import reference_kernels as ref
from conftest import entropy_oracle, mi_bruteforce_oracle
from pfdca import CondDist, DiscreteDist, JointXY, pf_lagrangian, stationarity_gap
from pfdca.baseline import (
    EXHAUSTIVE_MAX_SYMBOLS,
    ExhaustiveGuardError,
    exhaustive_partitions,
    exhaustive_points,
    greedy_merge_run,
    iter_partitions,
)
from pfdca.probability import random_encoder
from pfdca.sweep import Solver, _default_grid, points_to_csv
from reference_kernels import HardClustering, _merge, clustering_to_encoder

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


class TestHardClustering:
    def test_singletons_give_identity(self):
        enc = clustering_to_encoder(HardClustering((0, 1, 2)))
        assert np.array_equal(enc.matrix, np.eye(3))

    def test_single_cluster_gives_row_of_ones(self):
        enc = clustering_to_encoder(HardClustering((0, 0, 0)))
        assert np.array_equal(enc.matrix, np.ones((1, 3)))

    def test_two_cluster_assignment(self):
        enc = clustering_to_encoder(HardClustering((0, 0, 1)))
        assert np.array_equal(enc.matrix, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_requires_contiguous_ids(self):
        with pytest.raises(ValueError):
            HardClustering((0, 2, 2))

    def test_one_hot_columns(self):
        enc = clustering_to_encoder(HardClustering((1, 0, 1, 2)))
        assert set(np.unique(enc.matrix)) == {0.0, 1.0}
        assert np.allclose(enc.matrix.sum(axis=0), 1.0)


class TestPartitions:
    @pytest.mark.parametrize("n,count", sorted(BELL.items()))
    def test_bell_numbers(self, n, count):
        parts = list(iter_partitions(n))
        assert len(parts) == count
        assert len(set(parts)) == count

    def test_restricted_growth_strings_in_lexicographic_order(self):
        # Each symbol joins a cluster already used or opens the next one;
        # that and the order pin down the sequence the oracle writes.
        for n in range(1, 9):
            parts = list(iter_partitions(n))
            assert parts == sorted(parts)
            for p in parts:
                assert all(type(v) is int for v in p)
                assert all(v <= max(p[:i], default=-1) + 1 for i, v in enumerate(p))


class TestGreedy:
    def test_trajectory_length(self, demo_joint):
        points = greedy_merge_run(demo_joint, beta=1.0)
        assert len(points) == 3
        assert [p.card_z for p in points] == [3, 2, 1]
        assert all(p.solver is Solver.GREEDY for p in points)

    def test_first_point_is_identity_encoder(self, demo_joint):
        first = greedy_merge_run(demo_joint, beta=1.0)[0]
        h_x = entropy_oracle(demo_joint.p_x.probs) / np.log(2)
        i_xy = mi_bruteforce_oracle(demo_joint.joint_matrix()) / np.log(2)
        assert first.i_zx_bits == pytest.approx(h_x, abs=1e-10)
        assert first.i_zy_bits == pytest.approx(i_xy, abs=1e-10)

    def test_final_point_is_origin(self, demo_joint):
        last = greedy_merge_run(demo_joint, beta=2.0)[-1]
        assert last.i_zx_bits == pytest.approx(0.0, abs=1e-12)
        assert last.i_zy_bits == pytest.approx(0.0, abs=1e-12)

    def test_information_bounds(self, demo_joint):
        h_x = entropy_oracle(demo_joint.p_x.probs) / np.log(2)
        i_xy = mi_bruteforce_oracle(demo_joint.joint_matrix()) / np.log(2)
        for beta in _default_grid():
            for p in greedy_merge_run(demo_joint, beta):
                assert p.i_zy_bits <= i_xy + 1e-10
                assert p.i_zx_bits <= h_x + 1e-10

    def test_rejects_bad_beta(self, demo_joint):
        for beta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                greedy_merge_run(demo_joint, beta=beta)


class TestExhaustive:
    def test_five_partitions_for_three_symbols(self, demo_joint):
        points = exhaustive_partitions(demo_joint)
        assert len(points) == 5
        assert all(p.solver is Solver.EXHAUSTIVE for p in points)

    def test_contains_extremes(self, demo_joint):
        points = exhaustive_partitions(demo_joint)
        h_x = entropy_oracle(demo_joint.p_x.probs) / np.log(2)
        i_xy = mi_bruteforce_oracle(demo_joint.joint_matrix()) / np.log(2)
        assert any(
            abs(p.i_zx_bits) < 1e-10 and abs(p.i_zy_bits) < 1e-10 for p in points
        )
        assert any(
            abs(p.i_zx_bits - h_x) < 1e-10 and abs(p.i_zy_bits - i_xy) < 1e-10
            for p in points
        )

    def test_greedy_points_are_subset(self, demo_joint):
        exhaustive = exhaustive_partitions(demo_joint)
        coords = {(round(p.i_zx_bits, 9), round(p.i_zy_bits, 9)) for p in exhaustive}
        for beta in _default_grid():
            for p in greedy_merge_run(demo_joint, beta):
                assert (round(p.i_zx_bits, 9), round(p.i_zy_bits, 9)) in coords

    def test_exhaustive_dominates_greedy_per_cluster_count(self, demo_joint):
        for beta in _default_grid():
            exhaustive = exhaustive_partitions(demo_joint, beta)
            greedy = greedy_merge_run(demo_joint, beta)
            for g in greedy:
                best = min(p.loss_nats for p in exhaustive if p.card_z == g.card_z)
                assert best <= g.loss_nats + 1e-12

    def test_guard_rejects_large_alphabets(self):
        n = EXHAUSTIVE_MAX_SYMBOLS + 1
        j = JointXY(DiscreteDist(np.full(n, 1.0 / n)), CondDist(np.eye(n)))
        with pytest.raises(ValueError):
            exhaustive_partitions(j)
        with pytest.raises(ExhaustiveGuardError):
            exhaustive_points(j)   # at the call, before any point is read

    def test_rejects_bad_beta(self, demo_joint):
        for beta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                exhaustive_partitions(demo_joint, beta)
            with pytest.raises(ValueError):
                exhaustive_points(demo_joint, beta)

    def test_deterministic_encoders_have_zero_gap(self, demo_joint):
        for p in exhaustive_partitions(demo_joint):
            assert p.stationarity_gap == 0.0


def random_joint(seed: int, nx: int, ny: int) -> JointXY:
    """Seeded source; some channel cells are exactly zero, every y keeps mass."""
    rng = np.random.default_rng(seed)
    channel = rng.dirichlet(np.full(ny, 0.7), nx).T
    small = channel < 0.05
    small[np.arange(ny), channel.argmax(axis=1)] = False
    channel[small] = 0.0
    return JointXY(DiscreteDist(rng.dirichlet(np.ones(nx))), CondDist(channel / channel.sum(axis=0)))


BASELINE_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@BASELINE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(2, 6),
    extra_y=st.integers(0, 3),
    beta=st.sampled_from([0.1, 0.7, 1.0, 3.0, 10.0]),
)
def test_baseline_csv_matches_reference(seed, nx, extra_y, beta):
    # One P(X|Y) per call and one problem object per source write the
    # same bytes as a fresh Bayes inverse per clustering.
    j = random_joint(seed, nx, nx + extra_y)
    points = greedy_merge_run(j, beta) + exhaustive_partitions(j, beta)
    want = ref.baseline_points(j, beta)
    assert points == want   # every field, bit for bit
    assert points_to_csv(points) == points_to_csv(want)


@BASELINE_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 6), ny=st.integers(1, 5), beta=st.floats(0.1, 10.0))
def test_baselines_accept_fewer_outputs_than_inputs(seed, nx, ny, beta):
    # |Y| < |X| leaves the backward block below rank |X|; the baselines
    # score deterministic clusterings and never read its pseudo-inverse.
    ny = min(ny, nx - 1)
    j = random_joint(seed, nx, ny)
    greedy = greedy_merge_run(j, beta)
    exhaustive = exhaustive_partitions(j, beta)
    assert len(greedy) == nx and len(exhaustive) == BELL[nx]
    for p in greedy + exhaustive:
        assert np.isfinite([p.i_zx_bits, p.i_zy_bits, p.loss_nats, p.stationarity_gap]).all()
    enc = random_encoder(np.random.default_rng(seed), 2, nx)
    assert np.isfinite(stationarity_gap(enc, j, beta))


@pytest.mark.parametrize("seed", range(8))
def test_zero_probability_output_matches_source_without_it(seed):
    # A never-seen output symbol moves no baseline point beyond rounding:
    # its posterior column is weighted by P(y) = 0 everywhere.
    rng = np.random.default_rng(seed)
    nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    short = random_joint(seed, nx, ny)
    k = int(rng.integers(0, ny + 1))
    j = JointXY(short.p_x, CondDist(np.insert(short.y_given_x.matrix, k, 0.0, axis=0)))
    assert j.p_y.probs[k] == 0.0
    for beta in (0.5, 3.0):
        got = greedy_merge_run(j, beta) + exhaustive_partitions(j, beta)
        want = greedy_merge_run(short, beta) + exhaustive_partitions(short, beta)
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert (p.solver, p.card_z, p.iterations, p.i_zx_bits) == (q.solver, q.card_z, q.iterations, q.i_zx_bits)
            for field in ("i_zy_bits", "loss_nats", "stationarity_gap"):
                assert getattr(p, field) == pytest.approx(getattr(q, field), abs=1e-12)


def bits(points) -> list:
    """Every field of every point, floats as hex: -0.0 and 0.0 differ."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in p) for p in points]


@pytest.mark.parametrize("block", [1, 3, pfdca.baseline._BLOCK])
def test_block_size_does_not_change_bits(monkeypatch, block):
    # Each clustering is one item of its stack: how the stack is cut into
    # blocks moves no bit.
    j = random_joint(5, 6, 8)
    want = greedy_merge_run(j, 0.7) + exhaustive_partitions(j, 0.7)
    monkeypatch.setattr(pfdca.baseline, "_BLOCK", block)
    got = greedy_merge_run(j, 0.7) + exhaustive_partitions(j, 0.7)
    assert bits(got) == bits(want)


@pytest.mark.parametrize("nx", [7, 8])
@pytest.mark.parametrize("seed", [11, 29])
def test_baselines_match_reference_at_larger_alphabets(nx, seed):
    # Seven and eight symbols: up to eight clusters, the sizes where a
    # reduction over more than seven entries changes its summation order.
    j = random_joint(seed, nx, nx + 1)
    points = greedy_merge_run(j, 1.0) + exhaustive_partitions(j, 1.0)
    want = ref.baseline_points(j, 1.0)
    assert bits(points) == bits(want)
    assert points_to_csv(points) == points_to_csv(want)


@BASELINE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 7),
    ny=st.integers(1, 7),
    zero=st.sampled_from([None, "x", "y"]),
    log_beta=st.floats(math.log(0.1), math.log(10.0)),
)
def test_baseline_points_agree_with_the_solver_lagrangian(seed, nx, ny, zero, log_beta):
    # The dominance report sets baseline points beside solver points, so a
    # clustering scores as the solver's Lagrangian scores its one-hot
    # encoder, to rounding. With zero, a public or private symbol of zero
    # mass is inserted into a source of one fewer symbol.
    beta = math.exp(log_beta)
    j = random_joint(seed, nx - (zero == "x" and nx > 1), ny - (zero == "y" and ny > 1))
    rng = np.random.default_rng(seed)
    if j.n_x < nx:
        k = int(rng.integers(0, nx))
        column = rng.dirichlet(np.ones(ny))
        j = JointXY(
            DiscreteDist(np.insert(j.p_x.probs, k, 0.0)),
            CondDist(np.insert(j.y_given_x.matrix, k, column, axis=1)),
        )
    if j.n_y < ny:
        j = JointXY(j.p_x, CondDist(np.insert(j.y_given_x.matrix, int(rng.integers(0, ny)), 0.0, axis=0)))
    parts = list(iter_partitions(nx))
    index = {c: i for i, c in enumerate(parts)}
    exhaustive = exhaustive_partitions(j, beta)

    def check(p, assignment):
        want = pf_lagrangian(clustering_to_encoder(HardClustering(assignment)), j, beta)
        assert abs(p.loss_nats - want) <= 4e-15 * max(1.0, abs(want))
        assert p.i_zx_bits >= 0.0

    for p in exhaustive:
        check(p, parts[p.iterations])
    # Replay the greedy trajectory: each level takes the first candidate
    # merge of least loss, read off the exhaustive points.
    current = tuple(range(nx))
    for p in greedy_merge_run(j, beta):
        if p.iterations:
            c = HardClustering(current)
            k = c.n_clusters
            cands = [_merge(c, a, b).assignment for a in range(k) for b in range(a + 1, k)]
            current = min(cands, key=lambda m: exhaustive[index[m]].loss_nats)
        assert p.card_z == max(current) + 1
        check(p, current)


@BASELINE_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    raw=st.lists(st.integers(0, 5), min_size=6, max_size=6),
    beta=st.floats(0.05, 20.0),
)
def test_hard_clusterings_are_exactly_stationary(seed, nx, ny, raw, beta):
    # The baselines write a stationarity gap of 0.0 without computing it:
    # a one-hot column has one supported code, so its residual is 0.
    labels = {}
    for v in raw[:nx]:
        labels.setdefault(v, len(labels))
    c = HardClustering(tuple(labels[v] for v in raw[:nx]))
    gap = stationarity_gap(clustering_to_encoder(c), random_joint(seed, nx, ny), beta)
    assert gap == 0.0 and math.copysign(1.0, gap) == 1.0   # +0.0, as written


def test_greedy_tie_takes_the_first_pair(monkeypatch):
    # Uniform P(X) through an identity channel: symbols are interchangeable,
    # so all six first merges score the same loss, bit for bit, and so do
    # the three second ones. The lexicographically first pair must win, so
    # each level's candidates are the merges of the previous level's first.
    j = JointXY(DiscreteDist(np.full(4, 1.0 / 4)), CondDist(np.eye(4)))
    levels, scores = [], pfdca.baseline._scores

    def recording(assignments, k, *args):
        i_zy, i_zx = scores(assignments, k, *args)
        levels.append((assignments.tolist(), (i_zy - i_zx).tolist()))
        return i_zy, i_zx

    def merges(assignment):
        c = HardClustering(assignment)
        k = c.n_clusters
        return [list(_merge(c, a, b).assignment) for a in range(k) for b in range(a + 1, k)]

    monkeypatch.setattr(pfdca.baseline, "_scores", recording)
    points = greedy_merge_run(j, 1.0)
    levels = levels[1:]   # the first call scores the all-singletons start
    assert [len(loss) for _, loss in levels] == [6, 3, 1]
    assert all(len(set(loss)) == 1 for _, loss in levels)
    assert [cands for cands, _ in levels] == [merges((0, 1, 2, 3)), merges((0, 0, 1, 2)), merges((0, 0, 0, 1))]
    assert bits(points) == bits(ref.baseline_points(j, 1.0)[:4])
