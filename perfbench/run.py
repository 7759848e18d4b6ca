"""Benchmark of the gwsos bound pipeline: one command, three workloads.

    python3 perfbench/run.py --workload ladder_l2 --seed 0 --seconds 18 \
        --trace 0

Runs from the root of a source checkout and imports ``gwsos`` from its
``src/``.  One caller, closed loop: passes over the workload repeat until
``--seconds`` have gone by (at least one pass).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs one pass with spans around each
module's entry points, then untraced passes for the overhead, and prints
the per-layer metrics.  Human-readable lines come first; the last line is
one JSON object.  Every failed check counts in ``failed``; the exit code
is 1 when an output is wrong.  A solve that ends without status
``optimal`` is a failed operation, not a wrong output.
"""

import os

# The IPM's iterates depend on the BLAS thread count (16x4 L1 takes 54
# iterations on one thread and 33 on two), so it is pinned before numpy
# loads.  threadpoolctl is not available, hence the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5


def import_gwsos():
    """Import the package from this checkout's sources, never elsewhere."""
    if not (SRC / "gwsos" / "__init__.py").is_file():
        sys.exit(f"error: no gwsos sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gwsos
    if not pathlib.Path(gwsos.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: gwsos imported from {gwsos.__file__}, not {SRC}")
    return gwsos


def setup(workload, seed):
    """Everything before the first timed pass: import, inputs, warm-up."""
    import_gwsos()
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    workloads.warm_up(wl)
    return wl


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        if child.wait() != 0 or line.strip() != "ready":
            sys.exit("error: set-up probe failed")
    return elapsed


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def timed_passes(wl, seconds, started=None):
    import workloads
    passes = []
    start = time.perf_counter() if started is None else started
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workloads.run_pass(wl))
    return passes


def check(wl, passes, seed, failures):
    """Check every pass.

    Returns (attempted, failed, wrong, checked bounds per pass).
    """
    import workloads
    oracles = workloads.check_oracles(wl)
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[wl.name]
    attempted, failed, wrong, ok = len(oracles), 0, 0, []
    for j, ps in enumerate(passes):
        bad, bad_output = workloads.check_pass(wl, ps, oracles, reference,
                                               passes[0] if j else None)
        attempted += ps.attempted
        failed += len(bad)
        wrong += len(bad_output)
        ok.append(sum(1 for k in range(len(ps.bounds))
                      if ("bound", k) not in bad))
        failures.extend(f"pass {j} {key}: {'; '.join(why)}"
                        for key, why in bad.items())
    return attempted, failed, wrong, ok


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, passes, ok, setup_times, rss_mb, attempted, failed,
               wrong):
    from stats import nearest_rank, tail
    latencies = [s for ps in passes for *_, s in ps.bounds]
    metrics = {
        "setup_s": (statistics.median(setup_times or [float("nan")]), "s"),
        "wall_s": (statistics.median(ps.wall for ps in passes), "s"),
        "bounds_per_s": (statistics.median(
            n / ps.wall for n, ps in zip(ok, passes)), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    p90 = tail(latencies, 0.9)
    extra = {"bound_p50_s": (nearest_rank(latencies, 0.5), "s"),
             "bound_p90_s": (p90, "s") if p90 is not None else
             (f"n/a (needs 10 calls beyond it, {len(latencies)} calls)", "")}
    labels = {}
    for ps in passes:
        for i, level, _, s in ps.bounds:
            labels.setdefault(wl.pairs[i].label(level), []).append(s)
    for label, samples in sorted(labels.items()):
        extra[f"bound_s.{label}"] = (statistics.median(samples), "s")
    if wl.experiment is not None:
        extra["experiment_s"] = (statistics.median(
            ps.experiment_s for ps in passes), "s")
    extra["failed_frac"] = (failed / attempted, "1")
    info = {"passes": len(passes), "bound_calls": len(latencies),
            "iterations_per_pass": sum(res.iterations
                                       for _, _, res, _ in passes[0].bounds),
            "attempted": attempted, "failed": failed, "wrong": wrong}
    return metrics, extra, info


def traced(wl, seconds):
    """One traced pass, then untraced ones.

    Returns (passes, per-layer metrics, span records).
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        start = time.perf_counter()
        traced_pass = workloads.run_pass(wl)
    plain = timed_passes(wl, seconds, started=start)
    layer = tracing.layer_metrics(tracer, traced_pass.wall,
                                  statistics.median(ps.wall for ps in plain))
    return [traced_pass] + plain, layer, tracing.span_records(tracer.spans)


def emit(metrics, extra, info, env, attempted, failed, wrong, args,
         spans=None):
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "info": info,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extra}.items()}}
    if spans is not None:
        record["spans"] = spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("run " + " ".join(f"{k}={v}" for k, v in info.items()))
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"{k} {v:.6g} {u}" if isinstance(v, float) else
              f"{k} {v} {u}".rstrip())
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ladder_l2", "wide_l1", "small_batch"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    import_gwsos()
    setup_times = ([] if args.trace else
                   [probe_setup(args) for _ in range(SETUP_PROBES)])
    wl = setup(args.workload, args.seed)
    env = environment()

    spans = None
    if args.trace:
        passes, layer, spans = traced(wl, args.seconds)
    else:
        passes = timed_passes(wl, args.seconds)
    # read before the checks: the oracle grid of a check outgrows the solves
    rss_mb = peak_rss_mb()
    failures = []
    attempted, failed, wrong, ok = check(wl, passes, args.seed, failures)
    for line in failures:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    if args.trace:
        # the untraced passes' figures, printed next to the layers
        untraced, extra, info = end_to_end(wl, passes[1:], ok[1:], [],
                                           rss_mb, attempted, failed, wrong)
        extra = {f"untraced.{k}": v for k, v in {**untraced, **extra}.items()
                 if k not in ("setup_s", "peak_rss_mb")}
        metrics = layer
    else:
        metrics, extra, info = end_to_end(wl, passes, ok, setup_times,
                                          rss_mb, attempted, failed, wrong)
    emit(metrics, extra, info, env, attempted, failed, wrong, args, spans)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
