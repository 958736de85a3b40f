"""Assemble a BENCH_<n>.json from saved outputs of perfbench/run.py pairs.

    python3 tools/bench_pairs.py PAIRS_DIR -o BENCH_12.json

PAIRS_DIR holds the standard output of each run of
``python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0``,
one file per run, named ``<order>-<W>-<S>-<side>.out``: ``side`` is
``parent`` or ``change`` and ``order`` is the run's place in the sequence,
so that the side of each pair that ran first is known.  The parent and the
change of a pair share W and S.  Each file holds perfbench's ``env`` line
and, as its last line, its JSON result line.  Beside it may lie the run's
full record, ``<order>-<W>-<S>-<side>.json`` (perfbench writes it to
``.perfbench/<W>-seed<S>-trace0.json``), whose ``samples.ops`` holds the
seconds of each operation in each pass.

The output keeps, under ``runs``, both sides' ``env`` and result of every
pair, and under ``summary``, per workload and end-to-end metric: each side's
median and quartiles (inclusive method, which is numpy.percentile's linear
one), the distance between the parent's quartiles, and in how many pairs
the change is strictly better (the direction comes from BENCHMARK.json).
Against each metric's ``bound`` from BENCHMARK.json it marks whether the
runs resolve the bound (the parent's quartile distance is at most bound x
|parent median|, or every change run is better than every parent run) and
whether the change median is worse than the parent's by more than bound x
|parent median|; the unresolved metrics are printed.  It also counts the
pairs whose printed output digests are identical.  Where every run of a
workload has its record, each pair also keeps both sides' median seconds
per operation, and the summary each operation's median over the pairs of
those medians and in how many pairs the change is faster; the operations
of different pairs are matched by their place in the pass.
Other top-level keys of an existing output file, such as notes on the
claim, are kept.  Standard library only.
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
    """The env, result and output digests of one saved run, and the median
    seconds of each operation over its passes if its record lies beside it."""
    lines = path.read_text().splitlines()
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    if len(env) != 1 or not lines:
        raise ValueError(f"{path}: expected one env line and a result line")
    digests = {}
    for line in lines:
        parts = line.split(None, 3)  # digest <hex> <status> <label with spaces>
        if len(parts) == 4 and parts[0] == "digest":
            digests[parts[3]] = parts[1]
    run = {"env": env[0], "result": json.loads(lines[-1]), "digests": digests}
    record = path.with_suffix(".json")
    if record.is_file():
        passes = json.loads(record.read_text())["samples"]["ops"]
        run["ops"] = {label: statistics.median(p[label] for p in passes)
                      for label in passes[0]}
    return run


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


def operation_names(runs: list) -> list:
    """The operations of one workload's runs, matched by their place in the
    pass, each named by its label with the words that differ between pairs,
    such as a seed, as ``*``."""
    labels = [list(r[side]["ops"]) for r in runs for side in SIDES]
    if len({len(ops) for ops in labels}) != 1:
        raise ValueError("the runs of one workload ran different operations")
    return [" ".join(w[0] if len(set(w)) == 1 else "*"
                     for w in zip(*(ops[k].split() for ops in labels)))
            for k in range(len(labels[0]))]


def summarize(pairs: list, metrics: dict) -> dict:
    """Per workload and end-to-end metric, each side's median and quartiles and
    the flags of the metric's bound; ``metrics`` maps each name to its entry in
    BENCHMARK.json, which gives ``better`` and ``bound``."""
    summary = {}
    for workload in dict.fromkeys(p[0] for p in pairs):
        runs = [sides for w, _, _, sides in pairs if w == workload]
        entry = {"pairs": len(runs)}
        for name in runs[0]["parent"]["result"]["metrics"]:
            if name not in metrics:
                raise ValueError(f"{name} is not an end-to-end metric of BENCHMARK.json")
            parent, change = ([r[side]["result"]["metrics"][name]["value"] for r in runs]
                              for side in SIDES)
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            sign = 1.0 if metrics[name]["better"] == "higher" else -1.0
            bound = metrics[name]["bound"]
            rel_iqr = (pq3 - pq1) / abs(pmed) if pmed else (0.0 if pq3 == pq1 else None)
            separated = min(sign * c for c in change) > max(sign * p for p in parent)
            entry[name] = {
                "parent_median": pmed,
                "change_median": cmed,
                "parent_quartiles": [pq1, pq3],
                "change_quartiles": [cq1, cq3],
                "parent_iqr": pq3 - pq1,
                "change_better_in": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
                "parent_rel_iqr": rel_iqr,
                "resolved": (rel_iqr is not None and rel_iqr <= bound) or separated,
                "worse_beyond_bound": sign * (cmed - pmed) < -bound * abs(pmed),
            }
        entry["attempted_failed"] = {
            side: [[r[side]["result"]["attempted"], r[side]["result"]["failed"]]
                   for r in runs] for side in SIDES}
        entry["correct"] = all(r[side]["result"]["correct"] for r in runs for side in SIDES)
        entry["digests_equal_in"] = sum(
            bool(r["parent"]["digests"]) and r["parent"]["digests"] == r["change"]["digests"]
            for r in runs)
        if all("ops" in r[side] for r in runs for side in SIDES):
            seconds = {side: [list(r[side]["ops"].values()) for r in runs] for side in SIDES}
            entry["ops"] = {
                name: {
                    **{f"{side}_median_s": statistics.median(s[k] for s in seconds[side])
                       for side in SIDES},
                    "change_faster_in": sum(c[k] < p[k] for p, c in
                                            zip(seconds["parent"], seconds["change"])),
                } for k, name in enumerate(operation_names(runs))}
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pairs_dir", type=Path)
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    pairs = load_pairs(args.pairs_dir)
    if not pairs:
        print(f"error: no <order>-<workload>-<seed>-<side>.out files in {args.pairs_dir}",
              file=sys.stderr)
        return 2
    record = json.loads(args.output.read_text()) if args.output.is_file() else {}
    record["summary_notes"] = (
        "medians and quartiles over the runs of each side (inclusive quartiles, "
        "as numpy.percentile's linear method); change_better_in counts pairs in "
        "which the change is strictly better; parent_rel_iqr is the parent's "
        "quartile distance over |parent median|, resolved says it is at most the "
        "metric's BENCHMARK.json bound or every change run beats every parent run, "
        "and worse_beyond_bound that the change median is worse than the parent's "
        "by more than bound x |parent median|; digests_equal_in counts pairs whose "
        "output digests are identical; ops holds, per operation, the median over "
        "the pairs of each side's median seconds per pass (runs[].<side>.ops), and "
        "change_faster_in the pairs in which the change's is lower")
    record["summary"] = summarize(pairs, metrics)
    record["runs"] = [
        {"workload": workload, "seed": seed, "first": first,
         **{side: {key: sides[side][key] for key in ("env", "result", "ops")
                   if key in sides[side]}
            for side in SIDES}}
        for workload, seed, first, sides in pairs]
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["summary"].items():
        wall = entry.get("wall_s")
        if wall:
            print(f"{workload}: {entry['pairs']} pairs, wall_s {wall['parent_median']:.4g} -> "
                  f"{wall['change_median']:.4g} s, change better in "
                  f"{wall['change_better_in']}; digests equal in {entry['digests_equal_in']}")
        for name in metrics:
            metric = entry.get(name, {})
            if metric.get("resolved") is False:
                rel = metric["parent_rel_iqr"]
                print(f"  unresolved: {name}, parent IQR "
                      f"{'undefined' if rel is None else f'{rel:.0%}'} of its median "
                      f"against a bound of {metrics[name]['bound']:.0%}")
            if metric.get("worse_beyond_bound"):
                print(f"  worse beyond bound: {name}")
        for label, op in entry.get("ops", {}).items():
            print(f"  {op['parent_median_s']:.4g} -> {op['change_median_s']:.4g} s, faster in "
                  f"{op['change_faster_in']}: {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
