import json
import pathlib
import subprocess
import sys

SURVEY = pathlib.Path(__file__).resolve().parent.parent / "tools" / "survey.py"


def run(*args):
    return subprocess.run([sys.executable, str(SURVEY), *args],
                          capture_output=True, text=True, timeout=300)


def test_two_records_of_one_checkout_are_equal(tmp_path):
    paths = [tmp_path / name for name in ("a.json", "b.json")]
    for path in paths:
        rec = run("record", "--workload", "small_batch", "--seeds", "0",
                  "--out", str(path))
        assert rec.returncode == 0, rec.stderr
    doc = json.loads(paths[0].read_text())
    solves = doc["workloads"]["small_batch"]["0"]
    # 112 bounds and the experiment's 60 trials
    assert len(solves) == 172
    assert set(solves[0]) == {"status", "iterations", "objective", "y"}
    out = run("compare", *map(str, paths))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "172 solves; differ in status 0, iterations 0, objective 0, y 0" \
        in out.stdout


def test_compare_reports_a_changed_solve(tmp_path):
    solve = {"status": "optimal", "iterations": 9, "objective": "0.5",
             "y": "00"}
    changed = dict(solve, iterations=10, y="01")
    for name, rec in (("a.json", solve), ("b.json", changed)):
        (tmp_path / name).write_text(json.dumps(
            {"workloads": {"wide_l1": {"0": [rec]}}}))
    out = run("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert out.returncode == 1
    assert "differ in status 0, iterations 1, objective 0, y 1; " \
           "iterations 9 -> 10" in out.stdout


def test_compare_reports_the_size_of_a_change(tmp_path):
    solves = [{"status": "optimal", "iterations": 9, "objective": "0.5",
               "y": "00"},
              {"status": "optimal", "iterations": 12, "objective": "0.25",
               "y": "02"}]
    changed = [dict(solves[0], objective="0.5000000001", y="01"),
               dict(solves[1], iterations=9, y="03")]
    for name, recs in (("a.json", solves), ("b.json", changed)):
        (tmp_path / name).write_text(json.dumps(
            {"workloads": {"wide_l1": {"0": recs}}}))
    out = run("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert out.returncode == 1
    assert "differ in status 0, iterations 1, objective 1, y 2; " \
           "iterations 21 -> 18; largest |objective change| 1.00e-10, " \
           "|iteration change| 3" in out.stdout
