"""The summary of tools/bench_pairs.py on synthetic pair results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_ms", "better": "lower"},
           {"name": "setup_s", "better": "lower"}]


def _pairs(parent, change, name="ops_per_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_higher_is_better_counts_wins_and_resolves_a_clear_gain():
    pairs = _pairs([100, 104, 98, 102, 101], [120, 125, 97, 130, 122])
    (row,) = bench_pairs.summarize(pairs, METRICS)
    assert row["name"] == "ops_per_s" and row["pairs"] == 5
    assert row["wins"] == 4  # 97 < 98 loses
    assert row["parent"][1] == 101 and row["change"][1] == 122
    q1, _, q3 = row["parent"]
    assert q1 < 101 < q3 and row["resolved"]


def test_lower_is_better_and_ties_do_not_win():
    pairs = _pairs([5.0, 5.0, 6.0, 4.0], [4.0, 5.0, 7.0, 3.0], name="op_p50_ms")
    (row,) = bench_pairs.summarize(pairs, METRICS)
    assert row["wins"] == 2
    assert row["change"][1] == 4.5 and row["parent"][1] == 5.0
    assert not row["resolved"]  # a 0.5 gap inside the parent's quartile range


def test_quartiles_follow_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    q1, med, q3 = bench_pairs.spread(values)
    assert (q1, med, q3) == (1.25, 3.5, 5.75)
    assert bench_pairs.spread([7.0]) == (7.0, 7.0, 7.0)


def test_metrics_missing_from_a_run_are_skipped():
    pairs = [({"ops_per_s": 1.0, "setup_s": 0.1}, {"ops_per_s": 2.0}),
             ({"ops_per_s": 1.0, "setup_s": 0.1}, {"ops_per_s": 2.0, "setup_s": 0.1})]
    assert [row["name"] for row in bench_pairs.summarize(pairs, METRICS)] == ["ops_per_s"]
    assert bench_pairs.summarize([], METRICS) == []


@pytest.mark.parametrize("better, wins", [("higher", 0), ("lower", 3)])
def test_direction_decides_the_winner(better, wins):
    pairs = _pairs([10, 11, 12], [9, 10, 11], name="m")
    (row,) = bench_pairs.summarize(pairs, [{"name": "m", "better": better}])
    assert row["wins"] == wins


@pytest.mark.parametrize("change, beyond", [(0.114, True), (0.100, False)])
def test_a_median_worse_by_more_than_the_bound_is_flagged(change, beyond):
    spec = [{"name": "setup_s", "better": "lower", "bound": 0.25}]
    pairs = _pairs([0.088] * 5, [change] * 5, name="setup_s")
    (row,) = bench_pairs.summarize(pairs, spec)
    assert row["beyond_bound"] is beyond  # 0.114 is 29.5 % above 0.088, 0.100 13.6 %
    # a higher-is-better metric is worse when it falls
    pairs = _pairs([100.0] * 3, [74.0] * 3)
    (row,) = bench_pairs.summarize(pairs, [{"name": "ops_per_s", "better": "higher", "bound": 0.25}])
    assert row["beyond_bound"] and not bench_pairs.summarize(pairs, METRICS)[0]["beyond_bound"]


def test_json_summary_round_trips_the_printed_rows(tmp_path, monkeypatch, capsys):
    runs = iter([4.0, 5.0, 6.0, 5.5, 4.5, 6.5])  # parent, change; change, parent; parent, change

    def fake_run(tree, workload, seed, seconds):
        value = next(runs)
        return {"correct": True, "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH_x.json"
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    argv = [str(parent), str(change), "--workload", "family_scan", "--pairs", "3", "--seed", "7",
            "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    data = json.loads(out.read_text())
    assert data["workload"] == "family_scan" and data["seeds"] == [7, 8, 9] and data["pairs"] == 3
    assert data["parent_commit"] is None and data["change_commit"] is None  # not git checkouts
    (row,) = data["metrics"]
    pairs = [({"ops_per_s": 4.0}, {"ops_per_s": 5.0}), ({"ops_per_s": 5.5}, {"ops_per_s": 6.0}),
             ({"ops_per_s": 4.5}, {"ops_per_s": 6.5})]
    assert row == json.loads(json.dumps(bench_pairs.summarize(pairs, METRICS)[0]))
    assert row["wins"] == 3
    assert "ops_per_s" in capsys.readouterr().out


def test_tree_commit_names_only_a_clean_checkout_root(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                               *args], cwd=tmp_path, check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.py").write_text("a = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "HEAD")
    assert bench_pairs.tree_commit(str(tmp_path)) == head
    (tmp_path / "out.json").write_text("{}\n")  # untracked: a run output, not the code
    assert bench_pairs.tree_commit(str(tmp_path)) == head
    (tmp_path / "sub").mkdir()
    assert bench_pairs.tree_commit(str(tmp_path / "sub")) is None  # not the root
    (tmp_path / "a.py").write_text("a = 2\n")
    assert bench_pairs.tree_commit(str(tmp_path)) is None
    git("add", "a.py")  # staged, not committed
    assert bench_pairs.tree_commit(str(tmp_path)) is None
    git("commit", "-q", "-m", "a = 2")
    assert bench_pairs.tree_commit(str(tmp_path)) == git("rev-parse", "HEAD") != head
