"""tools/bench_pairs.py on synthetic perfbench outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


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
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "peak_rss_mb": "lower",
                                            "success_ratio": "higher"})
    assert "ops" not in summary["mlp"]  # one side has no record
