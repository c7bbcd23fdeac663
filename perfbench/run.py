"""kreinspec benchmark: run one seeded workload in process and report it.

    python3 perfbench/run.py --workload kron_campaign --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload runs whole passes until
``--seconds`` have elapsed (at least one) and the end-to-end metrics are
reported: ``setup_s`` (median of three imports of kreinspec plus median
of three seeded input generations), ``wall_s`` (median pass),
``peak_rss_mb`` (high-water mark after the first pass) and the failure
counts.  With ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics, the tracing overhead, and writes every span.
Every pass is checked against independent references outside the timed
region.  ``failed`` in the JSON line counts the units that fail for a
reason other than a known defect of the seed commit, and ``correct`` is
false when it is not 0 or when passes disagree; units that show a known
defect are counted and printed as ``known_defect_units`` and still count
in ``failed_frac``.  Human-readable lines
come first; the last line of standard output is one JSON object.  Result
and span files go to ``perfbench/out/``.
"""
import os

# One BLAS thread, pinned before numpy is first imported (threadpoolctl is
# not available to do it later).
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3

# Times the import of kreinspec in a fresh interpreter, for the import
# repeats after this process's own (a module imports only once).
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import kreinspec; "
                "print(time.perf_counter() - t0)")

# BENCHMARK.json lists the per-layer metrics a traced run puts in its JSON
# line; the full table is printed above that line and written to the
# result file.
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> float:
    """Import kreinspec (and with it numpy and scipy) from ``src/``; seconds."""
    if not (SRC / "kreinspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no kreinspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kreinspec
    elapsed = time.perf_counter() - t0
    if Path(kreinspec.__file__).resolve().parent != SRC / "kreinspec":
        raise SystemExit(f"error: imported kreinspec from {kreinspec.__file__}")
    return elapsed


def child_import_s() -> float:
    """Import time of kreinspec in a child interpreter with this environment."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def timed_pass(workload, inputs, tracer):
    t0 = time.perf_counter()
    records, artefacts = workload.run_pass(inputs, tracer)
    return time.perf_counter() - t0, records, artefacts


def unexpected_failures(workload, passes, judged) -> Counter:
    """Failure reasons, over all passes, that are not known seed defects."""
    return Counter(
        reason for p, (verdicts, _) in zip(passes, judged) for rec in p[2]
        if (reason := verdicts[rec["unit"]]) is not None
        and not workload.known_defect(rec, reason))


def run(args, work_dir: Path) -> dict:
    imports = [import_program()]
    imports += [child_import_s() for _ in range(SETUP_REPEATS - 1)]
    import tracer as tr
    import workloads as wl

    env = environment(args.workload, args.seed)
    workload = wl.make(args.workload, work_dir)
    selection = workload.select(args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(selection)
        setups.append(time.perf_counter() - t0)

    start = time.perf_counter()
    passes = [("untraced", *timed_pass(workload, inputs, tr.NullTracer()))]
    # later passes repeat the same work but can overlap the first pass's
    # artefacts in memory, so the high-water mark is taken here
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        patches = tr.instrument(tracer)
        try:
            passes.append(("traced", *timed_pass(workload, inputs, tracer)))
        finally:
            tr.restore(patches)
    else:
        while time.perf_counter() - start < args.seconds:
            passes.append(("untraced", *timed_pass(workload, inputs, tr.NullTracer())))

    t0 = time.perf_counter()
    judged = [workload.judge(inputs, records, artefacts)
              for _, _, records, artefacts in passes]
    check_s = time.perf_counter() - t0

    first_records, first_verdicts = passes[0][2], judged[0][0]
    reproducible = all(p[2] == first_records and j[0] == first_verdicts
                       for p, j in zip(passes, judged))
    unexpected = unexpected_failures(workload, passes, judged)
    attempted = sum(len(v) for v, _ in judged)
    failed_units = sum(r is not None for v, _ in judged for r in v.values())
    failed = sum(unexpected.values())
    known_defect_units = failed_units - failed
    reasons = Counter(r for v, _ in judged for r in v.values() if r is not None)
    errors = Counter(e for p in passes for rec in p[2] for e in rec["errors"])

    walls = [p[1] for p in passes if p[0] == "untraced"]
    e2e = {
        "setup_s": (statistics.median(imports) + statistics.median(setups),
                    "s", SETUP_REPEATS),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_frac": (failed_units / attempted, "1", attempted),
    }
    for name, (value, unit) in judged[0][1].items():
        e2e[name] = (value, unit, len(first_verdicts))

    result = {
        "environment": env,
        "trace": args.trace,
        "correct": reproducible and not unexpected,
        "reproducible": reproducible,
        "attempted": attempted,
        "failed": failed,
        "known_defect_units": known_defect_units,
        "failure_reasons": dict(sorted(reasons.items())),
        "unexpected_failures": dict(sorted(unexpected.items())),
        "errors_by_class": dict(sorted(errors.items())),
        "verdicts": first_verdicts,
        "import_runs_s": imports,
        "setup_runs_s": setups,
        "pass_walls_s": [[p[0], p[1]] for p in passes],
        "check_s": check_s,
        "end_to_end": {k: {"value": v, "unit": u, "n": n}
                       for k, (v, u, n) in e2e.items()},
    }
    if tracer is not None:
        layers = tr.layer_metrics(tracer)
        # one traced pass minus one untraced pass would measure host drift
        # more than the tracer, so the overhead is the spans times the
        # calibrated cost of one span
        span_cost = tr.span_cost_s()
        layers["trace.wall_s"] = (passes[1][1], "s")
        layers["trace.untraced_wall_s"] = (passes[0][1], "s")
        layers["trace.spans"] = (len(tracer.spans), "count")
        layers["trace.span_cost_us"] = (1e6 * span_cost, "us")
        layers["trace.overhead_s"] = (len(tracer.spans) * span_cost, "s")
        layers["known_defect_units"] = (known_defect_units, "count")
        result["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        result["spans"] = tracer.spans
    return result


def report(args, result) -> str:
    """Write the result files, print human lines; return the JSON line."""
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))

    env = result["environment"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()
                            if k != "thread_env"))
    for name, m in result["end_to_end"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"imports {result['import_runs_s']}  inputs {result['setup_runs_s']}")
    print(f"passes {result['pass_walls_s']}  checks {result['check_s']:.3g} s")
    print(f"failed {result['failed']}/{result['attempted']} beyond known "
          f"defects, known defects {result['known_defect_units']}, "
          f"reasons {result['failure_reasons']} "
          f"errors {result['errors_by_class']}")
    for name, m in result.get("per_layer", {}).items():
        print(f"layer {name} = {m['value']:.6g} {m['unit']}")
    if not result["reproducible"]:
        print("passes disagree: records or verdicts differ between passes")
    if result["unexpected_failures"]:
        print(f"failures beyond the known defects: "
              f"{result['unexpected_failures']}")

    spec = json.loads(SPEC.read_text())
    table = result["per_layer"] if args.trace else result["end_to_end"]
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {k: {"value": table[k]["value"], "unit": table[k]["unit"]}
               for k in names}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    args = parse_args(argv)
    work = OUT / f"work-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(report(args, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
