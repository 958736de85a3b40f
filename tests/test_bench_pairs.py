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
