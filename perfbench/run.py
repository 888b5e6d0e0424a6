"""cproc benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload tu-cold --seed 1 --seconds 30 --trace 0

Builds its inputs from --seed, times set-up several times, measures
operations for --seconds (always at least one; tu-cold measures exactly one
cold operation per run), checks the outputs of the last operation, and
prints every metric with its unit. Set-up and operation times are read at a
reference machine speed measured by a probe that runs alongside (see
speed.py); the wall times go to the results file. The last stdout line
is one JSON object {correct, attempted, failed, metrics}: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. A traced run first repeats
the untraced measurement, then replays the same operations with spans
recorded, then replays operation 0 once more to check that its counts repeat.
A results file with the environment, input properties and output digests
goes to .perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# numpy is first imported inside main(), after these are set
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# counts that must repeat exactly when an operation is replayed
REPEATABLE = (
    "graphdata.graphs", "graphdata.nodes", "graphdata.edges",
    "topology.diagram_points", "topology.zero_pers_points",
    "similarity.pairs_solved", "similarity.pairs_read", "similarity.cache_hits",
    "similarity.cache_misses", "similarity.cache_bytes", "similarity.knn_calls",
    "similarity.knn_cells_sorted", "conformal.calib_scores", "rocbands.intervals",
    "baseline.resamples", "synthetic.fit_iters", "synthetic.distance_cells", "cli.output_bytes",
)
LAYERS = ("graphdata", "topology", "similarity", "conformal", "rocbands", "baseline", "synthetic", "cli")


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_bytes", "bytes"), ("_share", "ratio"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_requested": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def run_phase(wl, phase: str, seconds: float | None, ops: int | None, span, tracer=None, run_id=None):
    """Closed loop. With `ops` None, runs until `seconds` have passed (at
    least one operation); otherwise runs exactly `ops` operations. Spans and
    counts go to run id `run_id`, or to the operation's index. Returns the
    phase's wall time, each operation's (start, end) and the failures."""
    spans_, failures = [], {}
    start = time.perf_counter()
    i = 0
    while (i < ops) if ops is not None else (i == 0 or time.perf_counter() - start < seconds):
        if tracer is not None:
            tracer.run = i if run_id is None else run_id
        t0 = time.perf_counter()
        try:
            with span("op"):
                wl.op(i, phase, span)
        except Exception as exc:  # any failure of an operation is counted, never retried
            failures[i] = f"{type(exc).__name__}: {exc}"
        spans_.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.finish_run()
        i += 1
    return time.perf_counter() - start, spans_, failures


def layer_metrics(tracer, ops: int, traced_s: float, overhead_s: float) -> tuple[dict, dict]:
    """Per-operation means over the traced phase, plus layer shares of the
    traced wall time computed from span self times."""
    own = tracer.self_times()
    total, self_total, layer_self = {}, {}, dict.fromkeys(LAYERS, 0.0)
    for run, sid, _parent, name, start, end in tracer.spans:
        if not isinstance(run, int) or run >= ops:
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + own[sid]
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += own[sid]
    counts: dict[str, float] = {}
    for run, c in tracer.counts.items():
        if isinstance(run, int) and run < ops:
            for k, v in c.items():
                counts[k] = counts.get(k, 0.0) + v

    def t(name):
        return total.get(name, 0.0) / ops

    def n(name):
        return counts.get(name, 0.0) / ops

    solved = counts.get("similarity.pairs_solved", 0.0)
    points = counts.get("topology.diagram_points", 0.0)
    m = {
        "graphdata.parse_s": t("graphdata.parse"),
        "graphdata.load_scores_s": t("graphdata.load_scores"),
        "topology.filtration_s": sum(v for k, v in total.items() if k.startswith("topology.filtration.")) / ops,
        "topology.filtration_degree_s": t("topology.filtration.degree"),
        "topology.filtration_eigenvector_s": t("topology.filtration.eigenvector"),
        "topology.persistence_s": t("topology.persistence"),
        "topology.zero_pers_share": counts.get("topology.zero_pers_points", 0.0) / points if points else 0.0,
        "similarity.build_s": t("similarity.build"),
        "similarity.pair_us": 1e6 * total.get("similarity.build", 0.0) / solved if solved else 0.0,
        "similarity.useful_ratio": counts.get("similarity.pairs_read", 0.0) / solved if solved else 0.0,
        "similarity.cache_write_s": t("similarity.cache_write"),
        "similarity.cache_read_s": t("similarity.cache_read"),
        "similarity.knn_s": t("similarity.knn"),
        "conformal.score_table_s": t("conformal.score_table"),
        "rocbands.cp_roc_bands_self_s": self_total.get("rocbands.cp_roc_bands", 0.0) / ops,
        "rocbands.band_assembly_s": t("rocbands.band_assembly"),
        "baseline.bootstrap_s": t("baseline.bootstrap"),
        "synthetic.generate_s": t("synthetic.generate"),
        "synthetic.fit_s": t("synthetic.fit"),
        "synthetic.distance_s": t("synthetic.distance"),
        "cli.output_s": t("cli.output"),
        "cli.self_s": self_total.get("cli.main", 0.0) / ops,
        "trace.ops": float(ops),
        "trace.op_s": traced_s / ops,
        "trace.overhead_s": overhead_s,
    }
    for name in REPEATABLE:
        if name != "topology.zero_pers_points":
            m[name] = n(name)
    m.update({f"layer.{layer}_share": v / traced_s for layer, v in layer_self.items()})
    return m, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tu-cold", "tu-warm", "synthetic-cov"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cproc" / "__init__.py").exists():
        print(f"perfbench: cproc sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans
    import stats
    from speed import REF_S, SpeedProbe
    from workloads import WORKLOADS

    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    probe = SpeedProbe()
    with probe.running():
        setup_spans = []
        for rep in range(wl.setup_reps):
            t0 = time.perf_counter()
            wl.setup(rep)
            setup_spans.append((t0, time.perf_counter()))
        nospan = contextlib.nullcontext
        run_t0 = time.perf_counter()
        run_s, op_spans, run_fail = run_phase(wl, "run", args.seconds, wl.ops_per_run, lambda name: nospan())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_adj = [probe.adjusted(*s) for s in setup_spans]
    op_adj = [probe.adjusted(*s) for s in op_spans]
    failures = {f"run-{k}": v for k, v in run_fail.items()}
    last = len(op_spans) - 1
    attempted = len(op_spans)
    if last not in run_fail:
        try:
            errors, report = wl.check()
        except Exception:
            errors, report = [f"check raised:\n{traceback.format_exc()}"], {}
        if errors:
            failures[f"run-{last}"] = "output check failed: " + "; ".join(errors)
    else:
        report = {}

    lat = stats.latency_summary(op_adj)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "speed_probe": {"ref_s": REF_S, "median_s": statistics.median(probe.durations),
                        "times": probe.times, "durations": probe.durations},
        "setup_spans": setup_spans,
        "setup_s_adjusted": setup_adj,
        "run_s": run_s,
        "latency": lat,
        "latency_wall": stats.latency_summary([t1 - t0 for t0, t1 in op_spans]),
        "latency_samples_adjusted": op_adj,
        "op_spans": op_spans,
        **report,
    }
    if args.trace:
        tracer = spans.Tracer()
        # The probe runs again, so that both phases are compared at the
        # reference speed; its kernel adds the same ~2 % to every span.
        with probe.running(), tracer.install():
            traced_t0 = time.perf_counter()
            traced_s, tr_spans, tr_fail = run_phase(wl, "traced", None, attempted, tracer.span, tracer)
            _, _, rp_fail = run_phase(wl, "replay", None, 1, tracer.span, tracer, run_id="replay")
        replayed = tracer.counts["replay"]
        overhead_s = probe.adjusted(traced_t0, traced_t0 + traced_s) - probe.adjusted(run_t0, run_t0 + run_s)
        metrics, totals = layer_metrics(tracer, attempted, traced_s, overhead_s)
        flags = [
            f"{k}: {tracer.counts[0].get(k, 0.0)} then {replayed.get(k, 0.0)}"
            for k in REPEATABLE if tracer.counts[0].get(k, 0.0) != replayed.get(k, 0.0)
        ]
        attempted += len(tr_spans) + 1
        failures.update({f"traced-{k}": v for k, v in tr_fail.items()})
        failures.update({f"replay-{k}": v for k, v in rp_fail.items()})
        units = {name: layer_unit(name) for name in metrics}
        results.update(traced_run_s=traced_s, count_totals=totals, unrepeatable_counts=flags)
        tracer.dump(work / "spans.json")
        for flag in flags:
            print(f"FLAG count did not repeat: {flag}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_adj),
            "op_p50_s": lat["p50"],
            "op_tail_s": lat["tail"],
            "ops_per_s": len(op_adj) / math.fsum(op_adj),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    failed = len(failures)
    results.update(metrics=metrics, attempted=attempted, failed=failed, error_rate=failed / attempted,
                   failures=failures)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    for key, msg in failures.items():
        print(f"FAILED op {key}: {msg}", file=sys.stderr)
    print(f"workload {args.workload}: {len(op_spans)} operation(s), closed loop, 1 caller, "
          f"BLAS threads {results['environment']['blas_threads']}, nproc {os.cpu_count()}")
    print(f"run_s = {run_s:.6g} s (wall time of the measured phase)")
    print(f"speed probe: {len(probe.durations)} samples, median {results['speed_probe']['median_s']:.6g} s "
          f"(reference {REF_S} s); times below are at the reference speed")
    print(f"op_tail_s is p{lat['tail_percentile']:.1f} of {lat['count']} samples ({lat['tail_beyond']} beyond it)")
    print(f"error_rate = {failed / attempted:.4f} ({failed} of {attempted} operations failed)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
