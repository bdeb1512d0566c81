import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import pfdca.baseline
import pfdca.cli
import pfdca.dca
import pfdca.diagnostics
from pfdca import DcaConfig, InnerKind, dca_run, load_joint
from pfdca.cli import EXIT_BAD_FLAGS, EXIT_BAD_INPUT, EXIT_INTERNAL, main
from pfdca.sweep import CSV_HEADER, SweepConfig, read_points_csv


def run_cli(*args):
    return main([str(a) for a in args])


class TestSolve:
    def test_defaults_write_valid_json(self, tmp_path, demo_dist_file):
        out = tmp_path / "result.json"
        rc = run_cli("solve", "--dist", demo_dist_file, "--out", out)
        assert rc == 0
        payload = json.loads(out.read_text())
        enc = np.array(payload["encoder"])
        assert enc.shape == (3, 3)
        assert np.allclose(enc.sum(axis=0), 1.0, atol=1e-9)
        assert payload["converged"] is True
        assert payload["q"] == 2 and payload["beta"] == 1.0 and payload["alpha"] == 1.0
        diffs = np.diff(payload["loss_trace"])
        assert diffs.size == 0 or diffs.max() <= 1e-6

    def test_single_code_symbol(self, tmp_path, demo_dist_file):
        out = tmp_path / "result.json"
        rc = run_cli("solve", "--dist", demo_dist_file, "--out", out, "--card-z", 1)
        assert rc == 0
        payload = json.loads(out.read_text())
        assert abs(payload["i_zx_bits"]) < 1e-12

    def test_missing_file_is_input_error(self, tmp_path):
        rc = run_cli("solve", "--dist", tmp_path / "nope.json", "--out", tmp_path / "o.json")
        assert rc == 1

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run_cli("solve", "--dist", bad, "--out", tmp_path / "o.json")
        assert rc == 1

    @pytest.mark.parametrize("command", ["solve", "sweep", "baseline", "verify"])
    def test_non_utf8_file_is_input_error(self, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        rc = run_cli(command, "--dist", bad, "--out", tmp_path / "o")
        assert rc == EXIT_BAD_INPUT

    def test_bad_flag_value(self, tmp_path, demo_dist_file):
        rc = run_cli("solve", "--dist", demo_dist_file, "--out", tmp_path / "o.json", "--q", 3)
        assert rc == 2

    def test_negative_beta_is_flag_error(self, tmp_path, demo_dist_file):
        rc = run_cli(
            "solve", "--dist", demo_dist_file, "--out", tmp_path / "o.json", "--beta", -1.0
        )
        assert rc == 2

    def test_unknown_override_key(self, tmp_path, demo_dist_file):
        rc = run_cli(
            "solve", "--dist", demo_dist_file, "--out", tmp_path / "o.json",
            "--set", "not_a_field=1",
        )
        assert rc == 2

    def test_matches_library_run_bit_for_bit(self, tmp_path, demo_dist_file):
        out = tmp_path / "o.json"
        rc = run_cli("solve", "--dist", demo_dist_file, "--out", out, "--q", 1)
        cfg = DcaConfig(beta=1.0, alpha=1.0, inner_kind=InnerKind.SPARSE_LOG)
        res = dca_run(load_joint(demo_dist_file), 3, cfg)
        assert rc == 0 and res.converged
        payload = json.loads(out.read_text())
        assert np.array_equal(np.array(payload["encoder"]), res.encoder.matrix)
        assert np.array_equal(np.array(payload["loss_trace"]), res.loss_trace)
        assert payload["fallback_steps"] == res.fallback_steps
        assert payload["mirror_steps"] == res.mirror_steps > 0
        # There is no boost, so no key counts one.
        assert not any("boost" in key for key in payload)

    def test_iteration_cap_exit_code(self, tmp_path, demo_dist_file, monkeypatch):
        monkeypatch.setattr(pfdca.dca, "_OUTER_MAX_ITER", 1)
        rc = run_cli("solve", "--dist", demo_dist_file, "--out", tmp_path / "o.json", "--beta", 3.0, "--seed", 2)
        assert rc == 3


class TestSweep:
    ARGS = (
        "--beta-grid", "0.1,1,10",
        "--alpha-grid", "0.5,2",
        "--card-z", "2,3",
        "--restarts", 1,
    )

    def test_outputs(self, tmp_path, demo_dist_file):
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--dist", demo_dist_file, "--out", out, *self.ARGS)
        assert rc == 0
        points = read_points_csv(out)
        assert len(points) == 3 * 2 * 2
        frontier = read_points_csv(tmp_path / "sweep.csv.frontier.csv")
        assert 0 < len(frontier) <= len(points)

    def test_writes_only_the_csv_and_its_frontier(self, tmp_path, demo_dist_file):
        (tmp_path / "out").mkdir()
        assert run_cli("sweep", "--dist", demo_dist_file, "--out", tmp_path / "out" / "s.csv", *self.ARGS) == 0
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == ["s.csv", "s.csv.frontier.csv"]

    def test_byte_identical_reruns_across_thread_counts(self, tmp_path, demo_dist_file):
        outs = []
        for name, jobs in (("a.csv", "1"), ("b.csv", "2")):
            out = tmp_path / name
            assert run_cli("sweep", "--dist", demo_dist_file, "--out", out, *self.ARGS, "--jobs", jobs) == 0
            outs.append((out.read_bytes(), (tmp_path / f"{name}.frontier.csv").read_bytes()))
        assert outs[0] == outs[1]

    @pytest.fixture
    def sweep_config(self, monkeypatch):
        """The SweepConfig a sweep command would run; nothing is solved."""
        seen = []
        monkeypatch.setattr(pfdca.cli, "run_sweep", lambda j, cfg, n_jobs: seen.append(cfg) or [])
        return seen

    def test_no_grid_flags_run_the_default_grid(self, tmp_path, demo_dist_file, sweep_config):
        assert run_cli("sweep", "--dist", demo_dist_file, "--out", tmp_path / "o.csv") == 0
        assert sweep_config == [SweepConfig()]

    def test_grid_flags_set_only_their_grid(self, tmp_path, demo_dist_file, sweep_config):
        rc = run_cli("sweep", "--dist", demo_dist_file, "--out", tmp_path / "o.csv", "--card-z", "4,2")
        assert rc == 0
        assert sweep_config == [SweepConfig(card_z_values=(4, 2))]

    @pytest.mark.parametrize(
        "flags",
        [
            ("--beta-grid", "a,b"),
            ("--alpha-grid", "2,0.5"),
            ("--card-z", "0"),
            ("--card-z", "2.5"),
            ("--card-z", "2,2"),
            ("--beta", "2"),
            ("--jobs", "0"),
            ("--jobs", "-3"),
        ],
    )
    def test_bad_sweep_flag_is_flag_error(self, tmp_path, demo_dist_file, flags, capsys, sweep_config):
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--dist", demo_dist_file, "--out", out, *flags) == EXIT_BAD_FLAGS
        assert not out.exists()
        assert "pfdca sweep: error:" in capsys.readouterr().err


class TestBaseline:
    def test_greedy_row_count(self, tmp_path, demo_dist_file):
        out = tmp_path / "g.csv"
        rc = run_cli("baseline", "--dist", demo_dist_file, "--out", out, "--solver", "greedy")
        assert rc == 0
        assert len(read_points_csv(out)) == 3

    def test_exhaustive_row_count(self, tmp_path, demo_dist_file):
        out = tmp_path / "e.csv"
        rc = run_cli(
            "baseline", "--dist", demo_dist_file, "--out", out, "--solver", "exhaustive"
        )
        assert rc == 0
        assert len(read_points_csv(out)) == 5

    def test_both_default(self, tmp_path, demo_dist_file):
        out = tmp_path / "b.csv"
        assert run_cli("baseline", "--dist", demo_dist_file, "--out", out) == 0
        assert len(read_points_csv(out)) == 8

    def test_guard_exit_code(self, tmp_path):
        n = 13
        dist = tmp_path / "big.json"
        dist.write_text(
            json.dumps({"p_x": [1.0 / n] * n, "p_y_given_x": np.eye(n).tolist()})
        )
        for solver in ("exhaustive", "both"):
            out = tmp_path / f"{solver}.csv"
            assert run_cli("baseline", "--dist", dist, "--out", out, "--solver", solver) == 4
            assert not out.exists()   # the guard fires before the file is opened

    def test_exhaustive_points_are_written_as_they_are_made(self, tmp_path):
        # Bell(9) = 21,147 points held at once peak above 10 MB; written one
        # at a time, only the score arrays and the partitions stay.
        rng = np.random.default_rng(9)
        channel = rng.dirichlet(np.full(9, 0.7), 9).T
        dist = tmp_path / "nine.json"
        dist.write_text(json.dumps({"p_x": rng.dirichlet(np.ones(9)).tolist(), "p_y_given_x": channel.tolist()}))
        out = tmp_path / "nine.csv"
        tracemalloc.start()
        try:
            rc = run_cli("baseline", "--dist", dist, "--out", out, "--solver", "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(out.read_text().splitlines()) == 21147 + 1
        assert peak < 4 * 2**20

    def test_value_error_inside_the_kernel_is_internal(self, tmp_path, demo_dist_file, monkeypatch, capsys):
        # Only the guard is exit 4; any other ValueError is a bug in pfdca.
        def broken(*args):
            raise ValueError("kernel bug")

        monkeypatch.setattr(pfdca.baseline, "_scores", broken)
        rc = run_cli("baseline", "--dist", demo_dist_file, "--out", tmp_path / "o.csv", "--solver", "exhaustive")
        assert rc == EXIT_INTERNAL
        assert "internal error: ValueError: kernel bug" in capsys.readouterr().err


class TestVerify:
    def test_passes_on_demo(self, tmp_path, demo_dist_file, capsys):
        out = tmp_path / "checks.jsonl"
        rc = run_cli("verify", "--dist", demo_dist_file, "--out", out)
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(lines) == 9
        assert all(rec["passed"] for rec in lines)
        stdout = capsys.readouterr().out
        assert stdout.count("[PASS]") == 9

    def test_record_keys_are_pinned(self, tmp_path, demo_dist_file):
        out = tmp_path / "checks.jsonl"
        assert run_cli("verify", "--dist", demo_dist_file, "--out", out) == 0
        for line in out.read_text().splitlines():
            assert list(json.loads(line)) == ["name", "samples", "max_violation", "tolerance", "passed"]

    def test_corrupted_distribution(self, tmp_path):
        dist = tmp_path / "bad.json"
        dist.write_text(
            json.dumps({"p_x": [0.5, 0.5], "p_y_given_x": [[0.5, 0.5], [0.4, 0.4]]})
        )
        rc = run_cli("verify", "--dist", dist, "--out", tmp_path / "o.jsonl")
        assert rc == 1

    def test_absurd_tolerance_fails(self, tmp_path, demo_dist_file, monkeypatch):
        monkeypatch.setattr(pfdca.diagnostics, "RESIDUAL_TOL", 1e-30)
        out = tmp_path / "checks.jsonl"
        rc = run_cli("verify", "--dist", demo_dist_file, "--out", out)
        assert rc == 5


class TestZeroProbabilityOutput:
    """A source whose second output symbol never occurs: P(Y) = (1, 0)."""

    @pytest.fixture
    def dist(self, tmp_path):
        path = tmp_path / "zero_y.json"
        path.write_text(json.dumps({"p_x": [0.5, 0.5], "p_y_given_x": [[1, 1], [0, 0]]}))
        return path

    @pytest.mark.parametrize("q", [1, 2])
    def test_solve(self, tmp_path, dist, q):
        out = tmp_path / "result.json"
        assert run_cli("solve", "--dist", dist, "--out", out, "--q", q) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] and not payload["defect"]
        # Y carries no information about anything.
        assert abs(payload["i_zy_bits"]) < 1e-12

    def test_verify_passes_every_check(self, tmp_path, dist):
        out = tmp_path / "checks.jsonl"
        assert run_cli("verify", "--dist", dist, "--out", out) == 0
        assert all(json.loads(line)["passed"] for line in out.read_text().splitlines())

    def test_baseline(self, tmp_path, dist):
        out = tmp_path / "b.csv"
        assert run_cli("baseline", "--dist", dist, "--out", out) == 0
        points = read_points_csv(out)
        assert len(points) == 2 + 2
        assert all(p.i_zy_bits == 0.0 for p in points)


class TestReport:
    @pytest.fixture
    def result_files(self, tmp_path, demo_dist_file):
        sweep = tmp_path / "sweep.csv"
        base = tmp_path / "base.csv"
        assert run_cli("sweep", "--dist", demo_dist_file, "--out", sweep, *TestSweep.ARGS) == 0
        assert run_cli("baseline", "--dist", demo_dist_file, "--out", base) == 0
        return sweep, base

    def test_merges_and_summarizes(self, tmp_path, result_files, capsys):
        sweep, base = result_files
        out = tmp_path / "combined.csv"
        rc = run_cli("report", "--inputs", sweep, base, "--out", out)
        assert rc == 0
        frontier = read_points_csv(out)
        assert frontier
        dom_lines = (tmp_path / "combined.csv.dominance.csv").read_text().strip().split("\n")
        assert len(dom_lines) == 1 + 8  # header + baseline points
        assert "baseline points dominated" in capsys.readouterr().out

    def test_dominance_header_is_pinned(self, tmp_path, result_files):
        sweep, base = result_files
        out = tmp_path / "combined.csv"
        assert run_cli("report", "--inputs", sweep, base, "--out", out) == 0
        lines = (tmp_path / "combined.csv.dominance.csv").read_text().splitlines()
        assert lines[0] == "baseline_solver,card_z,i_zx_bits,i_zy_bits,dominated,by_i_zx_bits,by_i_zy_bits"
        assert lines[1].startswith("greedy,3,")
        # Every cell: the baseline point's coordinates as the input CSV spells
        # them, true or false, and a dominating sweep point's coordinates or
        # two empty cells.
        base_rows = [line.split(",") for line in base.read_text().splitlines()[1:]]
        sweep_rows = [line.split(",") for line in sweep.read_text().splitlines()[1:]]
        zx, zy = CSV_HEADER.index("i_zx_bits"), CSV_HEADER.index("i_zy_bits")
        sweep_bits = {(r[zx], r[zy]) for r in sweep_rows}
        assert len(lines) == 1 + len(base_rows)
        for line, b in zip(lines[1:], base_rows):
            solver, card_z, i_zx, i_zy, dominated, by_zx, by_zy = line.split(",")
            assert (solver, card_z, i_zx, i_zy) == (b[0], b[CSV_HEADER.index("card_z")], b[zx], b[zy])
            assert dominated in ("true", "false")
            if dominated == "true":
                assert (by_zx, by_zy) in sweep_bits
            else:
                assert line.endswith(",,")

    def test_dominance_matches_pairwise_rule(self, tmp_path):
        # Coordinates from a small set of hundredths, so that ties and
        # points exactly one slack (0.01 bits) apart occur often. Each
        # baseline row must name the solver point the pairwise rule picks:
        # the least (i_zy_bits, -i_zx_bits) of those with i_zx_bits >=
        # b - slack and i_zy_bits <= b + slack.
        slack = pfdca.cli.DOMINANCE_SLACK_BITS
        values = [f"{i / 100:.12g}" for i in range(8)]
        solvers = [("dca_ridge", 2), ("dca_sparse", 1), ("greedy", 0), ("exhaustive", 0)]
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rows = [(*solvers[rng.integers(4)], *rng.choice(values, 2)) for _ in range(rng.integers(1, 40))]
            path = tmp_path / f"points-{seed}.csv"
            path.write_text("\n".join([",".join(CSV_HEADER)] + [
                f"{name},{q},1,1,3,0,0,{zx},{zy},0,true,10,0" for name, q, zx, zy in rows
            ]) + "\n")
            out = tmp_path / f"report-{seed}.csv"
            assert run_cli("report", "--inputs", path, "--out", out) == 0
            lines = (tmp_path / f"report-{seed}.csv.dominance.csv").read_text().splitlines()
            got = [line.split(",")[4:] for line in lines[1:]]
            solver_points = [(float(zx), float(zy), zx, zy) for _, q, zx, zy in rows if q]
            want = []
            for _, q, zx, zy in rows:
                if q:
                    continue
                found = [d for d in solver_points if d[0] >= float(zx) - slack and d[1] <= float(zy) + slack]
                best = min(found, key=lambda d: (d[1], -d[0]), default=None)
                want.append(["true", best[2], best[3]] if best else ["false", "", ""])
            assert got == want, seed

    def test_single_file(self, tmp_path, result_files):
        sweep, _ = result_files
        out = tmp_path / "single.csv"
        assert run_cli("report", "--inputs", sweep, "--out", out) == 0
        assert read_points_csv(out)

    def test_empty_inputs_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_HEADER) + "\n")
        rc = run_cli("report", "--inputs", empty, "--out", tmp_path / "o.csv")
        assert rc == 1

    def test_schema_mismatch_rejected(self, tmp_path, result_files):
        sweep, _ = result_files
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        rc = run_cli("report", "--inputs", sweep, bad, "--out", tmp_path / "o.csv")
        assert rc == 1


class TestExitCodes:
    @pytest.fixture
    def rank_deficient_file(self, tmp_path):
        # |Y| < |X|: the backward block has rank 2 < |X| = 3.
        path = tmp_path / "short.json"
        path.write_text(
            json.dumps({"p_x": [1 / 3] * 3, "p_y_given_x": [[0.6, 0.5, 0.4], [0.4, 0.5, 0.6]]})
        )
        return path

    @staticmethod
    def _raise(*args, **kwargs):
        raise RuntimeError("solver bug")

    def test_internal_error_has_own_code(self, tmp_path, demo_dist_file, monkeypatch, capsys):
        monkeypatch.delenv("PFDCA_DEBUG", raising=False)
        monkeypatch.setattr(pfdca.cli, "dca_run", self._raise)
        rc = run_cli("solve", "--dist", demo_dist_file, "--out", tmp_path / "o.json")
        assert rc == EXIT_INTERNAL == 6
        err = capsys.readouterr().err
        assert "solver bug" in err and "Traceback" not in err

    def test_debug_env_prints_traceback(self, tmp_path, demo_dist_file, monkeypatch, capsys):
        monkeypatch.setenv("PFDCA_DEBUG", "1")
        monkeypatch.setattr(pfdca.cli, "dca_run", self._raise)
        rc = run_cli("solve", "--dist", demo_dist_file, "--out", tmp_path / "o.json")
        assert rc == EXIT_INTERNAL
        assert "Traceback" in capsys.readouterr().err

    def test_non_stochastic_encoder_is_internal(self, tmp_path, demo_dist_file, monkeypatch):
        bad = SimpleNamespace(
            converged=True, iterations=1, loss_nats=0.0, i_zx_bits=0.0, i_zy_bits=0.0,
            stationarity_gap=0.0, fallback_steps=0, mirror_steps=0, defect=False,
            loss_trace=np.zeros(1), encoder=SimpleNamespace(matrix=np.full((3, 3), 0.5)),
        )
        monkeypatch.setattr(pfdca.cli, "dca_run", lambda *args: bad)
        rc = run_cli("solve", "--dist", demo_dist_file, "--out", tmp_path / "o.json")
        assert rc == EXIT_INTERNAL

    @pytest.mark.parametrize(
        "command",
        [
            ("solve",),
            ("baseline", "--solver", "exhaustive"),
            ("baseline",),
            ("solve", "--q", "1"),
            ("sweep", "--restarts", "1", "--beta-grid", "0.5,2", "--alpha-grid", "1"),
        ],
    )
    def test_rank_deficient_source_is_solved(self, tmp_path, rank_deficient_file, command):
        rc = run_cli(command[0], "--dist", rank_deficient_file, "--out", tmp_path / "o", *command[1:])
        assert rc == 0
        if command[0] == "solve":
            payload = json.loads((tmp_path / "o").read_text())
            enc = np.array(payload["encoder"])
            assert np.all(enc >= 0.0) and np.allclose(enc.sum(axis=0), 1.0, atol=1e-9)
            points = [SimpleNamespace(**payload)]
        else:
            points = read_points_csv(tmp_path / "o")
        assert points
        h_x = np.log2(3.0)
        for p in points:
            assert -1e-9 <= p.i_zy_bits <= p.i_zx_bits + 1e-9 <= h_x + 2e-9

    def test_baseline_negative_beta_is_flag_error(self, tmp_path, demo_dist_file):
        rc = run_cli("baseline", "--dist", demo_dist_file, "--out", tmp_path / "o.csv", "--beta", -1.0)
        assert rc == EXIT_BAD_FLAGS

    @pytest.mark.parametrize(
        "command",
        [
            ("solve", "--beta", "nan"),
            ("solve", "--alpha", "inf"),
            ("solve", "--alpha", "nan"),
            ("solve", "--beta", "inf"),
            ("baseline", "--beta", "nan"),
            ("baseline", "--solver", "exhaustive", "--beta", "inf"),
            ("sweep", "--beta-grid", "nan,2"),
            ("sweep", "--alpha-grid", "0.5,inf"),
            ("sweep", "--alpha-grid", "nan"),
        ],
    )
    def test_non_finite_number_is_flag_error(self, tmp_path, demo_dist_file, command):
        out = tmp_path / "o"
        rc = run_cli(command[0], "--dist", demo_dist_file, "--out", out, *command[1:])
        assert rc == EXIT_BAD_FLAGS
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ("solve", "--set", "inner_tol=1e-9"),
            ("sweep", "--set", "outer_tol=1e-6"),
            ("sweep", "--set", "inner_max_iter=10"),
            ("baseline", "--set", "x=1"),
            ("baseline", "--seed", "3"),
            ("sweep", "--set", "beta_grid=1"),
            # The outer stop is the solver's own, not a flag.
            ("solve", "--tol", "1e-6"),
            ("solve", "--max-iter", "5"),
            ("sweep", "--tol", "1e-6"),
            ("sweep", "--max-iter", "5"),
        ],
    )
    def test_flag_the_command_does_not_read_is_flag_error(self, tmp_path, demo_dist_file, command, capsys):
        out = tmp_path / "o"
        rc = run_cli(command[0], "--dist", demo_dist_file, "--out", out, *command[1:])
        assert rc == EXIT_BAD_FLAGS
        assert not out.exists()
        # The message names the command given, not only the root parser.
        assert f"pfdca {command[0]}: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["i_zx_bits", "stationarity_gap"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_number_is_input_error(self, tmp_path, demo_dist_file, field, value):
        base = tmp_path / "base.csv"
        assert run_cli("baseline", "--dist", demo_dist_file, "--out", base, "--solver", "greedy") == 0
        header, first, *rest = base.read_text().splitlines()
        row = first.split(",")
        row[CSV_HEADER.index(field)] = value
        base.write_text("\n".join([header, ",".join(row), *rest]) + "\n")
        out = tmp_path / "o.csv"
        assert run_cli("report", "--inputs", base, "--out", out) == EXIT_BAD_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("cells", [{"q": "7"}, {"converged": "maybe"}, {"q": "7", "converged": "maybe"}])
    def test_contradictory_csv_cell_is_input_error(self, tmp_path, demo_dist_file, cells):
        sweep = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--dist", demo_dist_file, "--out", sweep, *TestSweep.ARGS) == 0
        header, first, *rest = sweep.read_text().splitlines()
        row = first.split(",")
        assert row[0] == "dca_ridge"
        for field, value in cells.items():
            row[CSV_HEADER.index(field)] = value
        sweep.write_text("\n".join([header, ",".join(row), *rest]) + "\n")
        out = tmp_path / "o.csv"
        assert run_cli("report", "--inputs", sweep, "--out", out) == EXIT_BAD_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_negative_seed_is_flag_error(self, tmp_path, demo_dist_file, command, capsys):
        out = tmp_path / "o"
        rc = run_cli(command, "--dist", demo_dist_file, "--out", out, "--seed", "-1")
        assert rc == EXIT_BAD_FLAGS
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"usage: pfdca {command} ")
        assert f"pfdca {command}: error: argument --seed:" in err

    @pytest.mark.parametrize("setting", ["grad_tol=nan", "grad_tol=inf", "grad_tol=-1", "descent_tol=nan"])
    def test_verify_takes_no_set(self, tmp_path, demo_dist_file, setting, capsys):
        out = tmp_path / "checks.jsonl"
        rc = run_cli("verify", "--dist", demo_dist_file, "--out", out, "--set", setting)
        assert rc == EXIT_BAD_FLAGS
        assert not out.exists()
        assert capsys.readouterr().err.startswith("usage: pfdca verify ")

    @pytest.mark.parametrize(
        "command",
        [
            ("solve",),
            ("sweep", "--restarts", "1", "--beta-grid", "1", "--alpha-grid", "1", "--card-z", "2"),
            ("baseline",),
            ("verify",),
            ("report",),
        ],
    )
    def test_unwritable_out_is_flag_error(self, tmp_path, demo_dist_file, command, capsys):
        out = tmp_path / "missing-dir" / "o"
        if command[0] == "report":
            base = tmp_path / "base.csv"
            assert run_cli("baseline", "--dist", demo_dist_file, "--out", base) == 0
            source = ("--inputs", base)
        else:
            source = ("--dist", demo_dist_file)
        rc = run_cli(command[0], *source, "--out", out, *command[1:])
        assert rc == EXIT_BAD_FLAGS
        err = capsys.readouterr().err
        assert err.startswith(f"pfdca {command[0]}: error: cannot write {out}: ")
        assert "internal error" not in err

    @pytest.mark.parametrize("command, runner", [("sweep", "run_sweep"), ("verify", "run_verification")])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, demo_dist_file, command, runner, monkeypatch, capsys):
        def run(*args, **kwargs):
            raise AssertionError(f"{runner} ran before --out was opened")

        monkeypatch.setattr(pfdca.cli, runner, run)
        out = tmp_path / "missing-dir" / "x"
        assert run_cli(command, "--dist", demo_dist_file, "--out", out) == EXIT_BAD_FLAGS
        assert capsys.readouterr().err.startswith(f"pfdca {command}: error: cannot write {out}: ")

    @pytest.mark.parametrize("p_x", [5, ["a", "b"], {"a": 0.5, "b": 0.5}])
    def test_malformed_p_x_is_input_error(self, tmp_path, p_x, capsys):
        dist = tmp_path / "bad.json"
        dist.write_text(json.dumps({"p_x": p_x, "p_y_given_x": [[0.5, 0.5], [0.5, 0.5]]}))
        rc = run_cli("solve", "--dist", dist, "--out", tmp_path / "o.json")
        assert rc == EXIT_BAD_INPUT
        assert "invalid distribution file" in capsys.readouterr().err
