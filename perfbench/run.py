"""zenopath benchmark: one workload, timed end to end, or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``ensemble``: ``zenopath ensemble --lambda 1.5 --n 50 --t-end 20``, 50 seeded
  diffusive trajectories; almost all of it is ``_kernels.diffusive_walk``,
  so batching the ensemble shows here, and so does any memory it costs.
* ``mlp``: ``zenopath mlp --lambda 1.5 --dt 5e-5 --t-end 7.9``, one sequential
  158 000-step path and its CSV; batching cannot help it, so an
  ensemble-only change must read "no change" here.
* ``figures``: one pass over the README working points: many short CLI and
  library calls in ``measurement``, ``phase`` and ``action``, one diffusive
  trajectory and the JSON writer.

The run is one process with no extra threads; it repeats whole passes of
the workload until ``--seconds`` are spent (at least ``MIN_PASSES``).  With
``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median wall
time of a fresh interpreter running ``import zenopath.cli``), ``wall_s`` and
``cpu_s`` (medians per pass), ``peak_rss_mb`` and ``success_ratio``.  With
``--trace 1`` it alternates untraced passes with passes traced by
``tracing.py`` and prints the per-layer metrics.  The last line of standard
output is one JSON object; the full record (environment, samples, digests,
spans of the last traced pass) goes to ``.perfbench/`` in the checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
MIN_PASSES = 3
MIN_TRACED = 2  # of each kind, traced and untraced, with --trace 1
SETUP_SAMPLES = 5
BASELINE = HERE / "baseline_digests.json"

IMPORT_BREAKDOWN = """
import json, time
t0 = time.perf_counter(); import numpy
t1 = time.perf_counter(); import scipy.integrate
t2 = time.perf_counter(); import zenopath.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def quartiles(values):
    """(q1, median, q3); inclusive, so a few samples give no values outside
    their range."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fresh_interpreter(root: Path, code: str) -> tuple[float, str]:
    """Run ``code`` in a new interpreter that sees ``src/``; return its wall
    time and standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"fresh interpreter failed: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def environment(seed: int, program_seed) -> dict:
    import numpy
    import scipy
    import zenopath

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "numba_enabled": bool(zenopath.NUMBA_ENABLED),
        "kernel_path": "numba" if zenopath.NUMBA_ENABLED else "pure-python",
        "zenopath": zenopath.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "seed": seed,
        "program_seed": program_seed,
    }


def git_sha():
    """``git rev-parse HEAD``, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_passes(workload, seconds: float, scratch: Path, trace: bool):
    """Repeat passes until ``seconds`` are spent.  Returns untraced samples,
    traced samples and the digests/failures of every pass."""
    from tracing import Tracer, span_totals

    tracer = Tracer()
    plain, traced, last_spans = [], [], []
    digests, problems, observed = {}, {}, {}
    attempted = failed = 0
    wrong = nondeterministic = False

    def tally(results):
        nonlocal attempted, failed, wrong, nondeterministic
        for r in results:
            attempted += 1
            if r.status != "ok":
                failed += 1
                problems[r.label] = f"{r.status}: {r.message}"
            wrong |= r.status == "wrong"
            if r.digest is not None:
                if digests.setdefault(r.label, r.digest) != r.digest:
                    nondeterministic = True
            if r.observed:
                observed[r.label] = r.observed

    if workload.reference:  # once, untimed and untraced
        ref = workloads.Workload(workload.name, workloads.REFERENCE_SEED, workload.reference)
        tally(workloads.run_pass(ref, scratch)[2])
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced_pass = trace and i % 2 == 1
        gc.collect()
        if traced_pass:
            tracer.install()
            try:
                wall, cpu, results = workloads.run_pass(workload, scratch, tracer.root)
            finally:
                tracer.uninstall()
        else:
            wall, cpu, results = workloads.run_pass(workload, scratch)
        sample = {"wall_s": wall, "cpu_s": cpu,
                  "bytes_written": sum(r.bytes_written for r in results),
                  "ops": {r.label: r.seconds for r in results}}
        if traced_pass:
            last_spans = tracer.take()
            sample["totals"] = span_totals(last_spans)
            traced.append(sample)
        else:
            plain.append(sample)
        tally(results)
        i += 1
        left = deadline - time.perf_counter()
        enough = (len(plain) >= MIN_TRACED and len(traced) >= MIN_TRACED if trace
                  else len(plain) >= MIN_PASSES)
        if enough and left < statistics.median(s["wall_s"] for s in plain + traced):
            break
    return {
        "plain": plain, "traced": traced, "digests": digests, "problems": problems,
        "observed": observed, "attempted": attempted, "failed": failed,
        "correct": not wrong and not nondeterministic,
        "nondeterministic": nondeterministic, "absent": tracer.absent,
        "last_spans": last_spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-test only; not comparable)")
    parser.add_argument("--record-baseline", action="store_true",
                        help=f"merge this run's output digests into {BASELINE.name}")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zenopath" / "__init__.py").is_file():
        print(f"error: {root} has no src/zenopath; run from a zenopath checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    out_dir = root / ".perfbench"
    scratch = out_dir / f"scratch-{os.getpid()}"
    setup_samples = SETUP_SAMPLES if not args.tiny else 2

    # set-up: a fresh interpreter per sample, one unmeasured warm-up first
    fresh_interpreter(root, "import zenopath.cli")
    if args.trace:
        breakdown = [json.loads(fresh_interpreter(root, IMPORT_BREAKDOWN)[1])
                     for _ in range(setup_samples)]
        setup = []
    else:
        setup = [fresh_interpreter(root, "import zenopath.cli")[0]
                 for _ in range(setup_samples)]

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    env = environment(args.seed, workload.program_seed)
    try:
        run = run_passes(workload, args.seconds, scratch, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    known = baseline.get(args.workload, {})
    digest_status = {label: ("same" if known.get(label) == d else
                             "no-baseline" if label not in known else "DIFFERS")
                     for label, d in run["digests"].items()}

    record = {"workload": args.workload, "env": env, "seconds": args.seconds,
              "tiny": args.tiny, "trace": args.trace,
              "attempted": run["attempted"], "failed": run["failed"],
              "correct": run["correct"], "problems": run["problems"],
              "observed": run["observed"], "digests": run["digests"],
              "digest_vs_baseline": digest_status}

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload}: {len(run['plain'])} untraced + "
          f"{len(run['traced'])} traced passes, {run['attempted']} operations")

    def report(name, values, unit):
        q1, med, q3 = quartiles(values)
        print(f"  {name:<44} n={len(values):<3} median={med:.6g} q1={q1:.6g} "
              f"q3={q3:.6g} {unit}")
        return med

    metrics = {}
    if args.trace:
        from tracing import layer_metrics

        names = ("import.numpy_s", "import.scipy_s", "import.zenopath_s")
        per_pass = [layer_metrics(s["totals"], s["bytes_written"]) for s in run["traced"]]
        plain_wall = statistics.median(s["wall_s"] for s in run["plain"])
        traced_wall = [s["wall_s"] for s in run["traced"]]
        for j, name in enumerate(names):
            metrics[name] = (report(name, [b[j] for b in breakdown], "s"), "s")
        for name in per_pass[0]:
            unit = per_pass[0][name][1]
            metrics[name] = (report(name, [p[name][0] for p in per_pass], unit), unit)
        metrics["trace.wall_s"] = (report("trace.wall_s", traced_wall, "s"), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_wall) - plain_wall, "s")
        print(f"  {'trace.overhead_s':<44} {metrics['trace.overhead_s'][0]:.6g} s "
              f"(traced minus untraced median wall_s {plain_wall:.6g} s)")
        absent = run["absent"]
        print(f"  absent spans: {', '.join(absent) if absent else 'none'}")
        last = run["traced"][-1]
        self_sum = sum(t["self_s"] for t in last["totals"].values())
        print(f"  last traced pass: self times sum to {self_sum:.6g} s of "
              f"{last['wall_s']:.6g} s wall; uncovered {last['totals']['pass']['self_s']:.6g} s")
        for name, t in sorted(last["totals"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    self {t['self_s']:10.6f} s  total {t['s']:10.6f} s  "
                  f"calls {t['calls']:6d}  {name}")
        record["absent_spans"] = absent
        record["spans_last_traced_pass"] = run["last_spans"]
        record["samples"] = {"import_breakdown": breakdown,
                             "plain_wall_s": [s["wall_s"] for s in run["plain"]],
                             "traced_wall_s": traced_wall}
    else:
        walls = [s["wall_s"] for s in run["plain"]]
        cpus = [s["cpu_s"] for s in run["plain"]]
        metrics["setup_s"] = (report("setup_s", setup, "s"), "s")
        metrics["wall_s"] = (report("wall_s", walls, "s"), "s")
        metrics["cpu_s"] = (report("cpu_s", cpus, "s"), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"  {'peak_rss_mb':<44} n=1   {peak_rss_mb:.6g} MB")
        ok = run["attempted"] - run["failed"]
        metrics["success_ratio"] = (ok / run["attempted"], "ratio")
        print(f"  {'success_ratio':<44} {ok}/{run['attempted']} ratio; "
              f"fail_ratio {run['failed']}/{run['attempted']} = "
              f"{run['failed'] / run['attempted']:.6g}")
        record["samples"] = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus,
                             "ops": [s["ops"] for s in run["plain"]]}

    for label, problem in run["problems"].items():
        print(f"  FAILED {label}: {problem}")
    for label, obs in run["observed"].items():
        print(f"  observed {label}: {json.dumps(obs)}")
    if run["nondeterministic"]:
        print("  NONDETERMINISTIC: equal inputs gave different outputs within this run")
    for label, d in run["digests"].items():
        print(f"  digest {d[:16]} {digest_status[label]:<11} {label}")

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if args.record_baseline:
        baseline.setdefault(args.workload, {}).update(run["digests"])
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
