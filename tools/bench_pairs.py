"""Assemble a BENCH_<n>.json from saved outputs of perfbench/run.py pairs.

    python3 tools/bench_pairs.py PAIRS_DIR -o BENCH_12.json

PAIRS_DIR holds the standard output of each run of
``python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0``,
one file per run, named ``<order>-<W>-<S>-<side>.out``: ``side`` is
``parent`` or ``change`` and ``order`` is the run's place in the sequence,
so that the side of each pair that ran first is known.  The parent and the
change of a pair share W and S.  Each file holds perfbench's ``env`` line
and, as its last line, its JSON result line.

The output keeps, under ``runs``, both sides' ``env`` and result of every
pair, and under ``summary``, per workload and end-to-end metric: each side's
median and quartiles (inclusive method, which is numpy.percentile's linear
one), the distance between the parent's quartiles, and in how many pairs
the change is strictly better (the direction comes from BENCHMARK.json).  It
also counts the pairs whose printed output digests are identical.  Other
top-level keys of an existing output file, such as notes on the claim, are
kept.  Standard library only.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
NAME = re.compile(r"^(\d+)-([a-z_]+)-(\d+)-(parent|change)\.out$")
SIDES = ("parent", "change")


def read_run(path: Path) -> dict:
    """The env, result and output digests of one saved run."""
    lines = path.read_text().splitlines()
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    if len(env) != 1 or not lines:
        raise ValueError(f"{path}: expected one env line and a result line")
    digests = {}
    for line in lines:
        parts = line.split(None, 3)  # digest <hex> <status> <label with spaces>
        if len(parts) == 4 and parts[0] == "digest":
            digests[parts[3]] = parts[1]
    return {"env": env[0], "result": json.loads(lines[-1]), "digests": digests}


def quartiles(values):
    """(q1, median, q3), inclusive: a few values give nothing outside their range."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def load_pairs(pairs_dir: Path) -> list:
    """Every (workload, seed) pair, in the order its first run was made."""
    found = {}
    for path in sorted(pairs_dir.iterdir()):
        m = NAME.match(path.name)
        if m is None:
            continue
        order, workload, seed, side = int(m[1]), m[2], int(m[3]), m[4]
        pair = found.setdefault((workload, seed), {})
        if side in pair:
            raise ValueError(f"two {side} runs for {workload} seed {seed}")
        pair[side] = (order, read_run(path))
    pairs = []
    for (workload, seed), pair in found.items():
        if set(pair) != set(SIDES):
            raise ValueError(f"{workload} seed {seed} lacks a parent or a change run")
        for side in SIDES:
            if pair[side][1]["env"].get("seed") != seed:
                raise ValueError(f"{workload} {side} run: env seed differs from {seed}")
        first = min(SIDES, key=lambda side: pair[side][0])
        pairs.append((min(o for o, _ in pair.values()), workload, seed, first,
                      {side: pair[side][1] for side in SIDES}))
    return [p[1:] for p in sorted(pairs)]


def summarize(pairs: list, better: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(p[0] for p in pairs):
        runs = [sides for w, _, _, sides in pairs if w == workload]
        entry = {"pairs": len(runs)}
        for name in runs[0]["parent"]["result"]["metrics"]:
            if name not in better:
                raise ValueError(f"{name} is not an end-to-end metric of BENCHMARK.json")
            values = {side: [r[side]["result"]["metrics"][name]["value"] for r in runs]
                      for side in SIDES}
            pq1, pmed, pq3 = quartiles(values["parent"])
            cq1, cmed, cq3 = quartiles(values["change"])
            sign = 1.0 if better[name] == "higher" else -1.0
            entry[name] = {
                "parent_median": pmed,
                "change_median": cmed,
                "parent_quartiles": [pq1, pq3],
                "change_quartiles": [cq1, cq3],
                "parent_iqr": pq3 - pq1,
                "change_better_in": sum(sign * (c - p) > 0.0 for p, c in
                                        zip(values["parent"], values["change"])),
            }
        entry["attempted_failed"] = {
            side: [[r[side]["result"]["attempted"], r[side]["result"]["failed"]]
                   for r in runs] for side in SIDES}
        entry["correct"] = all(r[side]["result"]["correct"] for r in runs for side in SIDES)
        entry["digests_equal_in"] = sum(
            bool(r["parent"]["digests"]) and r["parent"]["digests"] == r["change"]["digests"]
            for r in runs)
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pairs_dir", type=Path)
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)

    better = {m["name"]: m["better"]
              for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    pairs = load_pairs(args.pairs_dir)
    if not pairs:
        print(f"error: no <order>-<workload>-<seed>-<side>.out files in {args.pairs_dir}",
              file=sys.stderr)
        return 2
    record = json.loads(args.output.read_text()) if args.output.is_file() else {}
    record["summary_notes"] = (
        "medians and quartiles over the runs of each side (inclusive quartiles, "
        "as numpy.percentile's linear method); change_better_in counts pairs in "
        "which the change is strictly better; digests_equal_in counts pairs whose "
        "output digests are identical")
    record["summary"] = summarize(pairs, better)
    record["runs"] = [
        {"workload": workload, "seed": seed, "first": first,
         **{side: {"env": sides[side]["env"], "result": sides[side]["result"]}
            for side in SIDES}}
        for workload, seed, first, sides in pairs]
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["summary"].items():
        wall = entry.get("wall_s")
        if wall:
            print(f"{workload}: {entry['pairs']} pairs, wall_s {wall['parent_median']:.4g} -> "
                  f"{wall['change_median']:.4g} s, change better in "
                  f"{wall['change_better_in']}; digests equal in {entry['digests_equal_in']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
