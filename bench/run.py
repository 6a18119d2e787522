"""wickchaos benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --replay KIND:TASKSEED

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 the run measures an untraced half and a traced half and
reports the per-layer metrics.  Spans and the environment record go to
.bench_out/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

# One process, at most nproc threads: keep BLAS from starting a pool of its
# own beside the library's Monte Carlo workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)

sys.path.insert(0, str(BENCH))
from tracer import Tracer  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 5  # before the timed phase, and again after it


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_fresh():
    """Import wickchaos from ./src as a user's first import would."""
    for name in [n for n in sys.modules if n == "wickchaos" or n.startswith("wickchaos.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    # The package imports every layer except the command-line front end.
    for name in ("wickchaos", "wickchaos.cli"):
        importlib.import_module(name)
    wc = sys.modules["wickchaos"]
    if Path(wc.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"wickchaos was imported from {wc.__file__}, not {SRC}")
    return wc


def setup(workload: str, seed: int, tiny: bool):
    """Import, build the cycle from the seed, warm up: one timed set-up."""
    t0 = time.perf_counter()
    wc = import_fresh()
    slots = W.build_cycle(wc, workload, seed, tiny)
    seen = set()
    for inst, workers in slots:
        if inst.kind in seen:
            continue
        seen.add(inst.kind)
        if inst.warm is not None:
            inst.warm()
        else:
            inst.execute(inst.prepare(), workers)
    return time.perf_counter() - t0, wc, slots


class Checker:
    """Judges each result by its oracle until one result of the instance
    passes; every later one must equal that reference bitwise."""

    def __init__(self, inject_fault: bool):
        self.refs: dict[str, tuple] = {}
        self.inject = inject_fault
        self.worker_mismatch = 0

    def check(self, inst, workers, result) -> str | None:
        ref = self.refs.get(inst.key)
        if ref is None:
            msg = W.judge(inst, result, fault=self.inject)
            self.inject = False
            if msg is None:
                self.refs[inst.key] = (workers, result)
            return msg
        ref_workers, ref_result = ref
        if inst.same(result, ref_result):
            return None
        if ref_workers != workers:
            self.worker_mismatch += 1
            return f"workers={workers} result differs bitwise from workers={ref_workers}"
        return "repeated run differs bitwise from the first run"


def run_phase(slots, seconds: float, checker: Checker, tracer=None, task0: int = 0):
    """Whole cycles of the closed loop until `seconds` have passed.
    Returns per-task records (slot index, latency, passed) and failures."""
    records = []
    failures = []
    start = time.perf_counter()
    task = task0
    while True:
        for i, (inst, workers) in enumerate(slots):
            args = inst.prepare()
            if tracer is not None:
                tracer.task = task
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = inst.execute(args, workers)
                msg = None
            except Exception as e:  # a raising task is a failed task, keep going
                result, msg = None, f"raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            if msg is None:
                try:
                    msg = checker.check(inst, workers, result)
                except Exception as e:  # so is a result the oracle cannot judge
                    msg = f"check raised {type(e).__name__}: {e}"
            records.append((i, dt, msg is None))
            if msg is not None:
                failures.append((inst.kind, inst.seed, workers, msg))
            task += 1
        if time.perf_counter() - start >= seconds:
            return records, failures


def quantiles(values):
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def latencies(slots, records) -> dict[tuple[str, str, int], list[float]]:
    """Measured latencies grouped by (kind, instance key, workers)."""
    table: dict[tuple[str, str, int], list[float]] = {}
    for i, dt, _ in records:
        inst, workers = slots[i]
        table.setdefault((inst.kind, inst.key, workers), []).append(dt)
    return table


def uncontended(table) -> list[float]:
    """Each task's latency, taken as the fastest run of the same instance at
    the same worker count during the phase.

    The host's co-tenants slow every task down by up to ~1.7x for seconds
    to minutes at a time, and interference only ever adds time, so the
    fastest repetition estimates the cost of the code itself.  Slow
    repetitions caused by the code (a cache that sometimes misses) are not
    seen here; tasks-*.jsonl keeps every measured latency."""
    return [min(lat) for lat in table.values() for _ in lat]


def end_to_end(slots, records, setup_s: float, rss_mb: float) -> dict:
    lat = uncontended(latencies(slots, records))
    ok = sum(1 for *_, good in records if good)
    p50, p90 = quantiles(lat)
    return {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (len(lat) / sum(lat), "1/s"),
        "task_p50_ms": (p50 * 1e3, "ms"),
        "task_p90_ms": (p90 * 1e3, "ms"),
        "ok_frac": (ok / len(lat), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


MALLIAVIN = ("derivative_dir", "gradient", "directional_derivative", "higher_derivative",
             "divergence", "ou_apply", "sobolev_norm", "wick_via_malliavin",
             "product_via_wick_gradients", "wick_with_gaussian")
STRATONOVICH = ("trace", "trace_k", "stratonovich_integral", "ito_from_stratonovich",
                "stratonovich_partial_sum")


def _hooks(wc):
    chunk = wc.sampling.CHUNK_SIZE

    def product(name):
        def hook(tr, args, kwargs, result):
            tr.add(f"{name}.pairs", args[0].n_terms() * args[1].n_terms())
            tr.add(f"{name}.out_terms", result.n_terms())
        return hook

    def evaluate(tr, args, kwargs, result):
        tr.add("chaos.evaluate.term_rows", args[0].n_terms() * len(result))

    def chunk_normals(tr, args, kwargs, result):
        tr.add("sampling.chunk_normals.rows", result.shape[0])

    def mean_estimate(tr, args, kwargs, result):
        tr.add("montecarlo.mean_estimate.samples", result.n_samples)
        tr.add("montecarlo.mean_estimate.chunks", -(-result.n_samples // chunk))

    def run_checks(tr, args, kwargs, result):
        tr.add("checks.row.failed", sum(1 for r in result if not r.passed))

    return {"chaos.wick_product": product("chaos.wick_product"),
            "chaos.ordinary_product": product("chaos.ordinary_product"),
            "chaos.evaluate": evaluate, "sampling.chunk_normals": chunk_normals,
            "montecarlo.mean_estimate": mean_estimate, "checks.run_checks": run_checks}


def per_layer(tracer: Tracer, tasks: int, lin_hits: int, lin_misses: int,
              overhead: float, efficiency: float, mismatch: int) -> dict:
    """Counts and busy times per completed task of the traced phase."""
    m: dict[str, tuple[float, str]] = {}
    st, ex = tracer.stats, tracer.extra

    def busy(metric, span):
        m[metric] = (st(span)["busy_s"] / tasks, "s/task")

    m["multiindex.constructed"] = (tracer.count("multiindex.MultiIndex.__init__") / tasks, "1/task")
    looked = lin_hits + lin_misses
    m["hermite.linearize.hit_ratio"] = (lin_hits / looked if looked else 0.0, "ratio")
    m["hermite.rows.calls"] = (st("hermite.hermite_rows")["calls"] / tasks, "1/task")
    busy("hermite.rows.busy_s", "hermite.hermite_rows")
    for prod in ("chaos.wick_product", "chaos.ordinary_product"):
        s = st(prod)
        pairs, out = ex[f"{prod}.pairs"], ex[f"{prod}.out_terms"]
        m[f"{prod}.calls"] = (s["calls"] / tasks, "1/task")
        m[f"{prod}.busy_s"] = (s["busy_s"] / tasks, "s/task")
        m[f"{prod}.self_s"] = (s["self_s"] / tasks, "s/task")
        m[f"{prod}.pairs"] = (pairs / tasks, "1/task")
        m[f"{prod}.out_terms"] = (out / tasks, "1/task")
        m[f"{prod}.kept_ratio"] = (out / pairs if pairs else 0.0, "ratio")
    busy("chaos.evaluate.busy_s", "chaos.evaluate")
    m["chaos.evaluate.term_rows"] = (ex["chaos.evaluate.term_rows"] / tasks, "1/task")
    busy("stransform.translate.busy_s", "stransform.translate")
    for fn in MALLIAVIN:
        busy(f"malliavin.{fn}.busy_s", f"malliavin.{fn}")
    for fn in STRATONOVICH:
        busy(f"stratonovich.{fn}.busy_s", f"stratonovich.{fn}")
    for fn in ("wick_exp_I2", "poly_mul", "wick_order_icopy_mc"):
        busy(f"renormalization.{fn}.busy_s", f"renormalization.{fn}")
    busy("jacobi.jacobi_eigh.busy_s", "jacobi.jacobi_eigh")
    cn = st("sampling.chunk_normals")
    m["sampling.chunk_normals.calls"] = (cn["calls"] / tasks, "1/task")
    m["sampling.chunk_normals.rows"] = (ex["sampling.chunk_normals.rows"] / tasks, "1/task")
    m["sampling.chunk_normals.busy_s"] = (cn["busy_s"] / tasks, "s/task")
    me = st("montecarlo.mean_estimate")
    m["montecarlo.mean_estimate.busy_s"] = (me["busy_s"] / tasks, "s/task")
    m["montecarlo.mean_estimate.chunks"] = (ex["montecarlo.mean_estimate.chunks"] / tasks, "1/task")
    samples = ex["montecarlo.mean_estimate.samples"]
    m["montecarlo.mean_estimate.samples_per_s"] = (
        samples / me["busy_s"] if me["busy_s"] else 0.0, "1/s")
    m["montecarlo.reduce_s"] = (me["self_s"] / tasks, "s/task")
    m["montecarlo.parallel_efficiency"] = (efficiency, "ratio")
    m["montecarlo.worker_mismatch"] = (float(mismatch), "count")
    busy("checks.row.busy_s", "checks.run_checks")
    m["checks.row.failed"] = (ex["checks.row.failed"], "count")
    busy("dsl.parse_program.busy_s", "dsl.parse_program")
    busy("runtime.execute.busy_s", "runtime.execute")
    busy("cli.main.busy_s", "cli.main")
    busy("serialization.chaos_to_obj.busy_s", "serialization.chaos_to_obj")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def cache_counts(fn) -> tuple[int, int]:
    """(hits, misses) of an lru_cache-wrapped function, (0, 0) for any other."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


def parallel_efficiency(table) -> float:
    """Mean over MC instances run at both worker counts of
    (fastest serial latency / fastest parallel latency) / workers."""
    ratios = [min(table[(kind, key, 1)]) / min(lat) / workers
              for (kind, key, workers), lat in table.items()
              if workers > 1 and (kind, key, 1) in table]
    return statistics.fmean(ratios) if ratios else 0.0


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": nproc(),
            "mc_workers": mc_workers(), "cpu": cpu, "platform": platform.platform()}


def kind_medians(table) -> dict:
    """Median latency and task count per task kind and worker count."""
    by: dict[str, list[float]] = {}
    for (kind, _, workers), lat in table.items():
        by.setdefault(f"{kind}/w{workers}", []).extend(lat)
    return {k: [round(statistics.median(v) * 1e3, 3), len(v)]
            for k, v in sorted(by.items(), key=lambda kv: statistics.median(kv[1]))}


def write_outputs(tag: str, env: dict, slots, records) -> None:
    (OUT / f"env-{tag}.json").write_text(json.dumps(env, indent=1) + "\n", encoding="utf-8")
    with open(OUT / f"tasks-{tag}.jsonl", "w", encoding="utf-8") as fh:
        for i, dt, good in records:
            inst, workers = slots[i]
            fh.write(json.dumps([inst.kind, inst.seed, workers, dt, good]) + "\n")


def mc_workers() -> int:
    return min(2, nproc())


def replay(workload: str, spec: str, tiny: bool) -> int:
    kind, _, seed = spec.partition(":")
    wc = import_fresh()
    inst = W.make_instance(wc, kind, int(seed), tiny)
    workers = {w for k, w, _ in W.WORKLOADS[workload] if k == kind} or {1}
    status = 0
    for w in sorted(workers):
        t0 = time.perf_counter()
        result = inst.execute(inst.prepare(), min(w, mc_workers()))
        msg = W.judge(inst, result)
        print(json.dumps({"kind": kind, "seed": int(seed), "workers": w,
                          "latency_ms": (time.perf_counter() - t0) * 1e3,
                          "ok": msg is None, "message": msg}))
        status |= msg is not None
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", metavar="KIND:TASKSEED",
                    help="run and judge one task alone, as printed for a failure")
    ap.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first result before it is judged (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "wickchaos" / "__init__.py").is_file():
        print(f"error: no wickchaos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.replay:
        return replay(args.workload, args.replay, args.tiny)

    repeats = 1 if args.tiny else SETUP_REPEATS
    setups = []
    for _ in range(repeats):
        dt, wc, slots = setup(args.workload, args.seed, args.tiny)
        setups.append(dt)
    slots = [(inst, min(w, mc_workers())) for inst, w in slots]
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": env}))

    checker = Checker(args.inject_fault)
    gc.collect()
    if args.trace:
        half = args.seconds / 2
        plain, fails = run_phase(slots, half, checker)
        tracer = Tracer(wc)
        tracer.install(_hooks(wc))
        linearize = tracer.original("hermite.hermite_linearize")
        before = cache_counts(linearize)
        gc.collect()
        traced, fails2 = run_phase(slots, half, checker, tracer, task0=len(plain))
        after = cache_counts(linearize)
        tracer.uninstall()
        fails += fails2
        records = plain + traced
        tps = [len(r) / sum(uncontended(latencies(slots, r))) for r in (plain, traced)]
        metrics = per_layer(tracer, len(traced), after[0] - before[0], after[1] - before[1],
                            tps[1] / tps[0], parallel_efficiency(latencies(slots, plain)),
                            checker.worker_mismatch)
        tracer.write_spans(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
    else:
        records, fails = run_phase(slots, args.seconds, checker)
        rss = peak_rss_mb()
        # Like task latencies, set-up time is taken as the fastest run.  The
        # host's slow phases last seconds to minutes, so set-ups on both
        # sides of the timed phase give the minimum two chances at a fast one.
        for _ in range(repeats):
            setups.append(setup(args.workload, args.seed, args.tiny)[0])
        metrics = end_to_end(slots, records, min(setups), rss)

    instances = {id(inst): inst for inst, _ in slots}.values()
    env["retests"] = sum(inst.stats.get("retests", 0) for inst in instances)
    env["setup_runs_s"] = setups
    env["kind_median_ms"] = kind_medians(latencies(slots, records))
    write_outputs(f"{args.workload}-s{args.seed}-t{args.trace}", env, slots, records)
    for kind, seed, workers, msg in fails[:20]:
        print(f"FAILED {kind} workers={workers}: {msg} "
              f"(replay: --workload {args.workload} --replay {kind}:{seed})", file=sys.stderr)
    failed = len(fails)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
