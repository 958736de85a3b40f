"""tools/bench_pairs.py on synthetic perfbench outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
METRICS = {m["name"]: m for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]}


def _write_run(path, seed, wall, rss, digest="ab12"):
    env = {"python": "3.11.7", "seed": seed}
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "success_ratio": {"value": 1.0, "unit": "ratio"},
    }
    path.write_text(
        f"env {json.dumps(env)}\n"
        "workload ensemble: 3 untraced + 0 traced passes, 3 operations\n"
        f"  wall_s                                       n=3   median={wall}\n"
        f"  digest {digest} same        ensemble --lambda 1.5 --n 2 --seed 1\n"
        "  digest 5e9a no-baseline ensemble --lambda 1.5 --n 50 --seed 7\n"
        + json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
        + "\n"
    )


def test_summary_and_runs_from_synthetic_pairs(tmp_path):
    pairs = tmp_path / "pairs"
    pairs.mkdir()
    # (parent wall, change wall) per seed; the change wins 3 of 4, and the
    # first side alternates starting with the parent
    walls = {1: (2.0, 1.5), 2: (2.4, 1.6), 3: (2.2, 1.7), 4: (1.4, 1.8)}
    order = 0
    for i, (seed, (pw, cw)) in enumerate(walls.items()):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            order += 1
            wall = pw if side == "parent" else cw
            digest = "ffff" if (seed, side) == (4, "change") else "ab12"
            _write_run(pairs / f"{order:02d}-ensemble-{seed}-{side}.out", seed, wall,
                       50.0 if side == "parent" else 49.5, digest)
    (pairs / "notes.txt").write_text("not a run\n")
    out = tmp_path / "BENCH_99.json"
    out.write_text(json.dumps({"claim": "kept as written"}))

    assert bench_pairs.main([str(pairs), "-o", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["claim"] == "kept as written"
    entry = record["summary"]["ensemble"]
    assert entry["pairs"] == 4
    wall = entry["wall_s"]
    # inclusive quartiles of (1.4, 2.0, 2.2, 2.4): 1.85, 2.1, 2.25
    assert wall["parent_median"] == pytest.approx(2.1)
    assert wall["parent_quartiles"] == pytest.approx([1.85, 2.25])
    assert wall["parent_iqr"] == pytest.approx(0.4)
    assert wall["change_median"] == pytest.approx(1.65)
    assert wall["change_better_in"] == 3
    assert entry["peak_rss_mb"]["change_better_in"] == 4
    assert entry["success_ratio"]["change_better_in"] == 0  # ties count for neither
    assert entry["attempted_failed"]["change"] == [[3, 0]] * 4
    assert entry["correct"] is True
    assert entry["digests_equal_in"] == 3
    assert [(r["seed"], r["first"]) for r in record["runs"]] == [
        (1, "parent"), (2, "change"), (3, "parent"), (4, "change")]
    assert record["runs"][1]["change"]["env"]["seed"] == 2
    assert record["runs"][1]["parent"]["result"]["metrics"]["wall_s"]["value"] == 2.4


def test_unpaired_run_is_an_error(tmp_path):
    _write_run(tmp_path / "01-mlp-7-parent.out", 7, 2.0, 60.0)
    with pytest.raises(ValueError, match="lacks a parent or a change"):
        bench_pairs.load_pairs(tmp_path)


def test_per_operation_medians_from_saved_records(tmp_path):
    # (parent, change) seconds of two operations in three passes per run
    passes = {1: ([0.30, 0.10, 0.20], [0.12, 0.11, 0.10]),
              2: ([0.25, 0.26, 0.24], [0.30, 0.20, 0.29])}
    order = 0
    for seed, (parent, change) in passes.items():
        for side, seconds in (("parent", parent), ("change", change)):
            order += 1
            stem = tmp_path / f"{order:02d}-figures-{seed}-{side}"
            _write_run(stem.with_suffix(".out"), seed, sum(seconds), 90.0)
            ops = [{f"trajectory --seed {seed} --format json": s, "density --lambda 0": 0.01 * seed}
                   for s in seconds]
            stem.with_suffix(".json").write_text(json.dumps({"samples": {"ops": ops}}))
    out = tmp_path / "BENCH_99.json"
    assert bench_pairs.main([str(tmp_path), "-o", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["runs"][0]["parent"]["ops"] == {"trajectory --seed 1 --format json": 0.20,
                                                  "density --lambda 0": 0.01}
    assert record["runs"][1]["change"]["ops"]["trajectory --seed 2 --format json"] == 0.29
    ops = record["summary"]["figures"]["ops"]
    # per-pair medians: parent 0.20 and 0.25, change 0.11 and 0.29; the seed
    # in the label differs between pairs
    trajectory = ops["trajectory --seed * --format json"]
    assert trajectory["parent_median_s"] == pytest.approx(0.225)
    assert trajectory["change_median_s"] == pytest.approx(0.20)
    assert trajectory["change_faster_in"] == 1
    assert ops["density --lambda 0"]["change_faster_in"] == 0  # equal times


def test_runs_without_records_have_no_operation_summary(tmp_path):
    _write_run(tmp_path / "01-mlp-7-parent.out", 7, 2.0, 60.0)
    _write_run(tmp_path / "02-mlp-7-change.out", 7, 1.9, 60.0)
    (tmp_path / "02-mlp-7-change.json").write_text(
        json.dumps({"samples": {"ops": [{"mlp": 1.9}]}}))
    pairs = bench_pairs.load_pairs(tmp_path)
    summary = bench_pairs.summarize(pairs, METRICS)
    assert "ops" not in summary["mlp"]  # one side has no record


def _flags(name, parent, change):
    """The bound flags of ``name`` for synthetic runs that report it alone."""
    def run(value):
        return {"env": {}, "digests": {}, "result": {
            "correct": True, "attempted": 1, "failed": 0, "metrics": {name: {"value": value}}}}
    pairs = [("figures", seed, "parent", {"parent": run(p), "change": run(c)})
             for seed, (p, c) in enumerate(zip(parent, change))]
    entry = bench_pairs.summarize(pairs, METRICS)["figures"][name]
    return {key: entry[key] for key in ("parent_rel_iqr", "resolved", "worse_beyond_bound")}


def test_bound_flags_on_synthetic_runs():
    # inclusive quartiles of (1.0, 1.5, 2.0, 3.0): 1.375, 1.75, 2.25, so the
    # parent's quartile distance is 50% of its median against wall_s's 25% bound
    wide = [1.0, 1.5, 2.0, 3.0]
    flags = _flags("wall_s", wide, [1.7, 1.8, 1.6, 1.9])
    assert flags["parent_rel_iqr"] == pytest.approx(0.5)
    assert flags["resolved"] is False
    assert flags["worse_beyond_bound"] is False
    # every change run better than every parent run resolves even a wide parent
    assert _flags("wall_s", wide, [0.5, 0.9, 0.7, 0.8])["resolved"]
    # a tight parent resolves the bound; a median 30% slower is worse beyond it
    flags = _flags("wall_s", [2.0, 2.1, 2.0, 2.1], [2.6, 2.7, 2.8, 2.7])
    assert flags["resolved"] is True
    assert flags["worse_beyond_bound"] is True
    # for a higher-is-better metric a drop is worse: 0.9 against 1.0 with a 5% bound
    flags = _flags("success_ratio", [1.0] * 4, [0.9, 0.9, 1.0, 0.9])
    assert flags == {"parent_rel_iqr": 0.0, "resolved": True, "worse_beyond_bound": True}
    # a zero parent median with spread has no relative quartile distance
    flags = _flags("wall_s", [0.0, 0.0, 0.0, 1.0], [0.5] * 4)
    assert flags["parent_rel_iqr"] is None and flags["resolved"] is False


def test_unresolved_and_worse_metrics_are_marked_and_printed(tmp_path, capsys):
    walls = {1: (1.0, 1.7), 2: (1.5, 1.8), 3: (2.0, 1.6), 4: (3.0, 1.9)}
    order = 0
    for seed, (pw, cw) in walls.items():
        for side, wall, rss in (("parent", pw, 50.0), ("change", cw, 60.0)):
            order += 1
            _write_run(tmp_path / f"{order:02d}-figures-{seed}-{side}.out", seed, wall, rss)
    out = tmp_path / "BENCH_99.json"
    assert bench_pairs.main([str(tmp_path), "-o", str(out)]) == 0
    entry = json.loads(out.read_text())["summary"]["figures"]
    assert entry["wall_s"]["parent_rel_iqr"] == pytest.approx(0.5)
    assert entry["wall_s"]["resolved"] is False
    assert entry["peak_rss_mb"]["resolved"] is True
    assert entry["peak_rss_mb"]["worse_beyond_bound"] is True  # 60 MB against 50, bound 5%
    assert entry["success_ratio"]["worse_beyond_bound"] is False
    printed = capsys.readouterr().out
    assert "unresolved: wall_s, parent IQR 50% of its median against a bound of 25%" in printed
    assert "worse beyond bound: peak_rss_mb" in printed
    assert "unresolved: peak_rss_mb" not in printed
