"""Self-test of the benchmark, at tiny sizes.

Run from the root of a zenopath checkout:

    python3 perfbench/selftest.py

It runs every workload once with tracing on and expects every span to be
entered (or reported absent), every per-layer metric of BENCHMARK.json to
be derived, and every output check to pass (a strict-JSON failure is
allowed: it is a known defect the benchmark reports).  It then damages each
output in turn and expects exactly that operation to fail its check, and
bounds the memory each digest and check allocates (``tracemalloc``).
Finally it runs ``run.py --tiny`` for every workload and trace mode and
checks the result line against BENCHMARK.json, and checks that ``run.py``
exits non-zero, printing no result, where there is no program to measure.
Exits 1 if any expectation fails.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics, span_totals  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"
FAILURES = []


def expect(ok, message):
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        FAILURES.append(message)


def edit_csv(path: Path, row: int, column: str, value: str) -> Path:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    table[row + 1][table[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table)
    return path


def drop_last_line(path: Path) -> Path:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    return path


def off_sphere(path: Path) -> Path:
    payload = json.loads(path.read_text())
    payload["rows"][0][3] = 2.0
    path.write_text(json.dumps(payload))
    return path


def shifted(arr):
    arr = arr.copy()
    arr[-1] += 0.1
    return arr


# label prefix -> damage that the operation's check must catch
CORRUPTIONS = {
    "ensemble": lambda p: edit_csv(p, 1, "var_z", "-1"),
    "mlp": drop_last_line,
    "critical-points": lambda p: edit_csv(p, 0, "theta_rad", "0.5"),
    "portrait": lambda p: edit_csv(p, 0, "p_theta", "123"),
    "transition-time": lambda p: edit_csv(p, 0, "time_ns", "3.15"),
    "zeno-frequencies": lambda p: edit_csv(p, 0, "omega1_ghz", "-1"),
    "action": lambda p: edit_csv(p, 1, "action", "0"),
    "density": lambda p: edit_csv(p, 5, "probability_density", "9"),
    "trajectory": off_sphere,
    "mc_zeno_trajectory lam=1.5": shifted,
    "mc_zeno_trajectory lam=0.5": lambda ends: (ends[0] + 0.01, *ends[1:]),
    "integrate_phase_path": lambda arrays: (arrays[0], arrays[1] * math.nan, arrays[2]),
}


def corruption_for(label: str):
    matches = [f for prefix, f in CORRUPTIONS.items() if label.startswith(prefix)]
    return matches[0] if len(matches) == 1 else None


def failed(results):
    return sum(r.status != "ok" for r in results)


def check_spans_and_checks(spec):
    per_layer = {m["name"] for m in spec["per_layer"]}
    seen, absent = set(), set()
    tracer = Tracer()
    for name in wl.WORKLOADS:
        built = wl.build(name, seed=1, tiny=True)
        workload = wl.Workload(name, built.program_seed, built.reference + built.ops)
        absent |= set(tracer.install())
        try:
            _, _, results = wl.run_pass(workload, SCRATCH / name, tracer.root)
        finally:
            tracer.uninstall()
        totals = span_totals(tracer.take())
        seen |= set(totals)
        for r in results:
            expect(r.status in ("ok", "unusable"), f"{name}: {r.label}: {r.status} {r.message}")
        self_sum = sum(t["self_s"] for t in totals.values())
        expect(abs(self_sum - totals["pass"]["s"]) < 1e-9,
               f"{name}: span self times sum to the traced pass time")
        derived = set(layer_metrics(totals, 0))
        measured_by_run = {"import.numpy_s", "import.scipy_s", "import.zenopath_s",
                           "trace.wall_s", "trace.overhead_s"}
        expect(derived | measured_by_run == per_layer,
               f"{name}: derived metrics are the per_layer list "
               f"(extra {sorted(derived - per_layer)}, "
               f"missing {sorted(per_layer - derived - measured_by_run)})")

        for i, op in enumerate(workload.ops):
            damage = corruption_for(op.label)
            expect(damage is not None, f"{name}: a corruption exists for {op.label}")
            if damage is None:
                continue
            _, _, bad = wl.run_pass(
                workload, SCRATCH / name,
                corrupt=lambda label, out, op=op, d=damage: d(out) if label == op.label else out)
            # an operation that already fails cannot raise the count further
            rise = results[i].status == "ok"
            expect(bad[i].status == "wrong" and failed(bad) == failed(results) + rise,
                   f"{name}: damaged output of {op.label!r} trips its check "
                   f"({bad[i].status}: {bad[i].message})")

    wanted = {span for _, _, span in TARGETS} | {"cli.parse_args", "pass"}
    expect(wanted <= seen | absent,
           f"every span entered or absent (never entered: {sorted(wanted - seen - absent)})")


def check_memory_of_checks():
    """Digests and checks hold a row at a time, so that ``peak_rss_mb``
    measures the program, not the benchmark."""
    limit = 1 << 20
    for name in wl.WORKLOADS:
        built = wl.build(name, seed=1, tiny=True)
        for i, op in enumerate(built.reference + built.ops):
            workdir = SCRATCH / "memory" / f"{name}{i:02d}"
            output, seconds, error = wl.run_op(op, workdir)
            size = sum(f.stat().st_size for f in workdir.iterdir())
            tracemalloc.start()
            result = wl.check_op(op, output, seconds, error, workdir)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            expect(peak < limit and result.status in ("ok", "unusable"),
                   f"{name}: checking {op.label!r} ({size / 2**20:.2f} MiB written) "
                   f"peaks at {peak / 2**20:.3f} MiB")
            if name == "mlp":
                expect(size > 4 * limit, f"mlp: the table ({size / 2**20:.1f} MiB) is far "
                       "larger than the memory its check may use")
    shutil.rmtree(SCRATCH / "memory")


def check_run_contract(spec):
    for name in wl.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            expect(proc.returncode == 0, f"run.py {name} trace={trace} exits 0 {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{name} trace={trace}: correct with attempts")
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{name} trace={trace}: every {key} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace={trace}: every value is a number")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program, run.py exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_spans_and_checks(spec)
        check_memory_of_checks()
        check_run_contract(spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(FAILURES)} failed expectation(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
