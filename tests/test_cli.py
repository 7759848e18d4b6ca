import json

import numpy as np
import pytest
from click.testing import CliRunner

from gwsos import hierarchy, load_space, sdp
from gwsos.cli import main

SPACE_A = {"labels": ["a", "b"], "dist": [[0, 1], [1, 0]],
           "weights": [0.5, 0.5]}
SPACE_B = {"labels": ["c", "d"], "dist": [[0, 0.5], [0.5, 0]],
           "weights": [0.5, 0.5]}
SPACE_C = {"labels": ["e", "f"], "dist": [[0, 0.75], [0.75, 0]],
           "weights": [0.25, 0.75]}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("a", SPACE_A), ("b", SPACE_B), ("c", SPACE_C)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def record(result):
    """First JSON line of the command output."""
    for line in result.output.splitlines():
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError(f"no JSON record in output: {result.output!r}")


class TestLowerBound:
    def test_reference_pair(self, runner, files):
        result = runner.invoke(main, ["lower-bound", files["a"], files["b"]])
        assert result.exit_code == 0
        rec = record(result)
        assert rec["status"] == "optimal"
        assert rec["value"] == pytest.approx(0.25, abs=1e-4)
        man = rec["manifest"]
        assert man["command"] == "lower-bound"
        assert man["parameters"] == {"level": 1, "p": 1.0, "q": 1.0}
        assert len(man["inputs"]) == 2
        assert all(len(d) == 16 for d in man["inputs"].values())
        assert man["elapsed_s"] >= 0

    def test_symmetric_pair_reports_its_symmetries(self, runner, files):
        # each two-point space with equal weights has the swap
        rec = record(runner.invoke(main, ["lower-bound", files["a"],
                                          files["b"]]))
        assert rec["symmetries"] == 4

    def test_asymmetric_pair_reports_one_symmetry(self, runner, files):
        result = runner.invoke(main, ["lower-bound", files["c"], files["c"]])
        assert result.exit_code == 0
        assert record(result)["symmetries"] == 1

    def test_missing_file_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["lower-bound",
                                      str(tmp_path / "no.json"),
                                      str(tmp_path / "no.json")])
        assert result.exit_code == 1
        assert "error" in result.output

    def test_malformed_space_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": ["a"], "dist": [[0.5]],
                                   "weights": [1.0]}))
        result = runner.invoke(main, ["lower-bound", str(bad), str(bad)])
        assert result.exit_code == 1

    def test_output_file_appended(self, runner, files, tmp_path):
        out = tmp_path / "records.jsonl"
        for _ in range(2):
            runner.invoke(main, ["lower-bound", files["a"], files["b"],
                                 "-o", str(out)])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["value"] == \
            json.loads(lines[1])["value"]


class TestOracle:
    def test_reference_value(self, runner, files):
        result = runner.invoke(main, ["oracle", files["a"], files["b"]])
        assert result.exit_code == 0
        rec = record(result)
        assert rec["value"] == pytest.approx(0.25, abs=1e-10)
        pi = np.asarray(rec["coupling"])
        assert pi.shape == (2, 2)

    def test_size_cap_exits_one(self, runner, tmp_path):
        paths = []
        for size in (4, 5):
            pts = np.linspace(0.0, 1.0, size)
            doc = {"labels": [f"p{i}" for i in range(size)],
                   "dist": np.abs(pts[:, None] - pts[None, :]).tolist(),
                   "weights": [1.0 / size] * size}
            path = tmp_path / f"s{size}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        result = runner.invoke(main, ["oracle", *paths])
        assert result.exit_code == 1
        assert "error:" in result.stderr


class TestMetricCheck:
    def test_three_spaces_pass(self, runner, files):
        result = runner.invoke(main, ["metric-check", files["a"],
                                      files["b"], files["c"]])
        assert result.exit_code == 0
        rec = record(result)
        assert rec["passed"]
        assert np.asarray(rec["roots"]).shape == (3, 3)

    def test_too_few_spaces_exits_one(self, runner, files):
        result = runner.invoke(main, ["metric-check", files["a"],
                                      files["b"]])
        assert result.exit_code == 1

    def test_bad_level_exits_one(self, runner, files):
        result = runner.invoke(main, ["metric-check", files["a"],
                                      files["b"], files["c"], "--level", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: hierarchy level" in result.stderr


class TestGlueCheck:
    def test_product_tensors(self, runner, files):
        result = runner.invoke(main, ["glue-check", files["a"],
                                      files["b"], files["c"]])
        assert result.exit_code == 0
        rec = record(result)
        assert rec["passed"]
        assert rec["marginal_error"] <= 1e-9


class TestConcentrate:
    def test_coarsens_space(self, runner, tmp_path):
        pts = (np.arange(8) + 0.5) / 8
        doc = {"labels": [f"t{i}" for i in range(8)],
               "dist": np.abs(pts[:, None] - pts[None, :]).tolist(),
               "weights": [0.125] * 8}
        p = tmp_path / "line.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(main, ["concentrate", str(p),
                                      "--epsilon", "0.25"])
        assert result.exit_code == 0
        rec = record(result)
        assert rec["radius"] <= 0.25
        assert len(rec["cells"]) == len(rec["representatives"])
        assert sum(rec["coarse_space"]["weights"]) == pytest.approx(1.0)


class TestExperiment:
    def test_finite_ground_run(self, runner, files):
        result = runner.invoke(main, ["experiment", "--ground", files["a"],
                                      "--sizes", "2,4", "--trials", "2",
                                      "--seed", "1", "--rate-s", "3"])
        assert result.exit_code == 0
        rec = record(result)
        assert rec["sizes"] == [2, 4]
        assert "jobs" not in rec["manifest"]["parameters"]
        assert rec["failures"] == 0
        assert len(rec["rate_curve"]) == 2
        assert "n\tmean" in result.output

    def test_bad_sizes_exit_one(self, runner):
        result = runner.invoke(main, ["experiment", "--sizes", "4,x"])
        assert result.exit_code == 1

    def test_seed_reproducible(self, runner, files):
        args = ["experiment", "--ground", files["a"], "--sizes", "4",
                "--trials", "2", "--seed", "3"]
        r1, r2 = runner.invoke(main, args), runner.invoke(main, args)
        rec1, rec2 = record(r1), record(r2)
        assert rec1["means"] == rec2["means"]


class TestSolverDump:
    def test_dump_roundtrips(self, runner, files, tmp_path):
        out = tmp_path / "prob.json"
        result = runner.invoke(main, ["solver-dump", files["a"],
                                      files["b"], "-o", str(out)])
        assert result.exit_code == 0
        assert record(result)["num_equalities"] == 1  # w_0 = 1
        prob = sdp.load_problem(out)
        want, _ = hierarchy.assemble_relaxation(load_space(files["a"]),
                                                load_space(files["b"]))
        for a, b in zip(prob.free, want.free):
            assert np.array_equal(a, b)
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.25, abs=1e-4)

    def test_symmetric_pair_dumps_the_reduced_problem(self, runner, files,
                                                      tmp_path):
        # both swaps are kept: M_1 over (1, t) splits into two 1x1 blocks,
        # listed by the signs of their eigenspaces and stacked with the
        # LP rows, and the free set is the coordinates y[1:] of y = (1, z)
        out = tmp_path / "prob.json"
        rec = record(runner.invoke(main, ["solver-dump", files["a"],
                                          files["b"], "-o", str(out)]))
        assert json.loads(out.read_text())["free"].keys() == {"offset",
                                                              "coords"}
        prob = sdp.load_problem(out)
        assert rec["nvars"] == prob.nvars == 2
        assert np.array_equal(prob.free[1], [1])
        assert rec["blocks"] == ["moment[+,+]", "moment[-,-]", "loc[0,1]",
                                 "loc[0,2]", "loc[0,3]"]
        assert [blk.const.shape for blk in prob.blocks] == [(5, 1, 1)]

    def test_asymmetric_pair_lists_every_block(self, runner, files,
                                               tmp_path):
        rec = record(runner.invoke(main, ["solver-dump", files["c"],
                                          files["c"], "-o",
                                          str(tmp_path / "prob.json")]))
        assert rec["nvars"] == 3  # t-moments 1, t, t^2
        assert rec["blocks"] == ["moment", "loc[0,1]", "loc[0,2]",
                                 "loc[0,3]", "loc[1,2]", "loc[1,3]",
                                 "loc[2,3]"]
