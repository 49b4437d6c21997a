"""finhankel benchmark: run one workload and check its outputs.

    python3 bench/run.py --workload {transform,corroborate,classify,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.  The
workloads, checks and metrics are described in ``bench/README.md``; the
metric names and units are those of ``BENCHMARK.json``.

Output: one line per metric with its unit, then a JSON line with the run's
facts (input digest, machine, versions, git sha) and every figure,
including the failure, bound-miss and uncertified fractions, the tail
latency with its percentile and, on ``transform``, the probe of known-defect
inputs (``workloads.Transform.probe``), then, last, the summary line
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means the
sources or ``BENCHMARK.json`` are missing, 3 that a metric or a traced
boundary recorded nothing.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
WORKLOADS = ("transform", "corroborate", "classify")


def _fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_loop(workload, seconds: float, tracer=None, stream=None):
    """Closed loop over the workload's stream (or the given ``stream``,
    to continue one) for ``seconds`` of wall time.

    Returns the latencies, the records the workload keeps (each with its
    latency), and the time spent inside operations; the workload's own
    bookkeeping between operations is not part of that time.
    """
    latencies, records = [], []
    start = time.perf_counter()
    for key, call in stream or workload.stream():
        if tracer is not None:
            tracer.op = len(latencies)
        error = result = None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        rec = workload.record(key, result, error)
        if rec is not None:
            rec["latency"] = t1 - t0
            records.append(rec)
        if time.perf_counter() - start >= seconds:
            return latencies, records, math.fsum(latencies)


def setup_seconds(workload) -> float:
    """Median wall time of a fresh interpreter that imports finhankel and
    completes the workload's warm-up operation (node tables cold).  One
    unmeasured start comes first, so every measured one finds the bytecode
    already compiled."""
    code = f"import sys\nsys.path.insert(0, {SRC!r})\n" + workload.warmup
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def tail(latencies) -> dict | None:
    """Latency at the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n <= 10:
        return None
    lat = sorted(latencies)
    return {"value_ms": 1e3 * lat[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def summarize(latencies, busy) -> dict:
    return {
        "ops": len(latencies),
        "ops_per_s": len(latencies) / busy,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail": tail(latencies),
    }


# ---------------------------------------------------------------------------
# facts about the run
# ---------------------------------------------------------------------------


def inputs_digest(workload) -> str:
    return hashlib.sha256(json.dumps(workload.inputs, sort_keys=True).encode()).hexdigest()


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_facts(workloads) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "inputs_sha256": {w.name: inputs_digest(w) for w in workloads},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# per-layer figures
# ---------------------------------------------------------------------------


def _median_ms(records, pick) -> float:
    lat = [r["latency"] for r in records if pick(r)]
    return 1e3 * statistics.median(lat) if lat else math.nan


def _calls_busy(m: dict, layers: dict, name: str):
    m[f"{name}.calls"] = layers[name]["calls"]
    m[f"{name}.busy_s"] = layers[name]["busy_s"]


def _bessel(m: dict, layers: dict, name: str):
    _calls_busy(m, layers, name)
    m[f"{name}.elems"] = layers[name]["elems"]
    m[f"{name}.ns_per_elem"] = 1e9 * layers[name]["busy_s"] / layers[name]["elems"]


def transform_layers(m: dict, tracer, records, workload):
    layers = tracer.layers()
    _bessel(m, layers, "specfun.bessel_ld")
    name = "quadrature.finite_hankel"
    _calls_busy(m, layers, name)
    m[f"{name}.self_s"] = layers[name]["self_s"]
    done = [r for r in records if r["error"] is None]
    m[f"{name}.panels_per_eval"] = statistics.fmean(r["panels"] for r in done)
    for k in (1, 2, 3, 4):
        lo, hi = 10 ** (k - 0.5), 10 ** (k + 0.5)
        m[f"{name}.ms_r1e{k}"] = _median_ms(records, lambda r: lo <= workload.radius(r["key"]) < hi)
    m[f"{name}.ms_complex"] = _median_ms(records, lambda r: workload.is_complex(r["key"]))
    rel = [r["rel_err"] for r in done if "rel_err" in r]
    m[f"{name}.rel_err_p50"] = statistics.median(rel)
    m[f"{name}.rel_err_max"] = max(rel)


def corroborate_layers(m: dict, tracer):
    import oracle

    layers = tracer.layers()
    _bessel(m, layers, "specfun.bessel_f64")
    name = "quadrature.hankel_sweep"
    _calls_busy(m, layers, name)
    m[f"{name}.self_s"] = layers[name]["self_s"]
    m[f"{name}.us_per_radius"] = 1e6 * layers[name]["busy_s"] / layers[name]["elems"]
    errs = []
    for profile, r, value in tracer.kept:
        terms = [(t.coeff, t.lam, t.rho) for t in profile.terms]
        errs.append(oracle.rel_err(value, oracle.profile_transform(terms, profile.nu, r)))
    m[f"{name}.rel_err_max"] = max(errs)
    m["invertibility.verify_profile_slow_decrease.self_s"] = \
        layers["invertibility.verify_profile_slow_decrease"]["self_s"]
    m["cli.main.self_s"] = layers["cli.main"]["self_s"]


def classify_layers(m: dict, tracer):
    layers = tracer.layers()
    for name in ("specfun.gamma", "invertibility.classify", "invertibility.derive_params",
                 "invertibility.combine", "asymptotics.predict", "asymptotics.dominance",
                 "profiles.origin_expansion", "profiles.boundary_expansion",
                 "profiles.profile_from_json"):
        _calls_busy(m, layers, name)


def kernel_layers(m: dict):
    """Bessel kernels at fixed sizes, per branch and precision, with the
    error against mpmath relative to sqrt(J_nu^2 + J_{nu+1}^2)."""
    import numpy as np

    import oracle
    from finhankel import specfun

    size, nus = 4096, (0.0, 0.5, 1.0)  # the orders of dimensions 2, 3, 4
    grids = {"series": np.linspace(0.05, 10.0, size), "asym": np.geomspace(50.0, 1e4, size)}
    probe = np.arange(0, size, size // 32)
    for branch, x in grids.items():
        refs = {nu: [oracle.bessel_ref(nu, float(x[i])) for i in probe] for nu in nus}
        for prec, ld in (("ld", True), ("f64", False)):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                outs = {nu: specfun.bessel_j_grid(nu, x, longdouble=ld) for nu in nus}
                times.append(time.perf_counter() - t0)
            m[f"specfun.kernel.{prec}.{branch}.ns_per_elem"] = 1e9 * statistics.median(times) / (len(nus) * size)
            m[f"specfun.kernel.{prec}.{branch}.max_rel_err"] = max(
                oracle.kernel_err(outs[nu][i], ref) / scale
                for nu in nus for i, (ref, scale) in zip(probe, refs[nu])
            )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":  # each workload in a fresh interpreter, one after another
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    if not os.path.isfile(os.path.join(SRC, "finhankel", "__init__.py")):
        _fail(f"no finhankel sources under {SRC}; run from the repository root")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, SRC)
    import finhankel

    if os.path.dirname(os.path.abspath(finhankel.__file__)) != os.path.join(SRC, "finhankel"):
        _fail(f"imported finhankel from {finhankel.__file__}, not from {SRC}")
    import oracle
    import workloads as wl

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        make = {
            "transform": lambda: wl.Transform(args.seed),
            "corroborate": lambda: wl.Corroborate(args.seed, workdir),
            "classify": lambda: wl.Classify(args.seed),
        }
        main_wl = make[args.workload]()
        oracle_gap = oracle.self_check()
        exec(main_wl.warmup, {})
        figures: dict = {"oracle_self_check_rel": oracle_gap}
        if not args.trace:
            figures["setup_s"] = setup_seconds(main_wl)
            lat, records, busy = run_loop(main_wl, args.seconds)
            figures["peak_rss_mb"] = peak_rss_mb()
            figures.update(summarize(lat, busy))
            figures.update(main_wl.check(records))
            if hasattr(main_wl, "probe"):
                figures["probe"] = main_wl.probe()
            runs = [(main_wl, lat, records)]
        else:
            runs = traced_run(args, main_wl, make, figures)
    attempted = sum(len(lat) for _, lat, _ in runs)
    failed = sum(r["failed"] for _, _, records in runs for r in records)
    figures["attempted"] = attempted
    figures["fail_frac"] = failed / attempted
    figures["failures"] = [r["detail"] for _, _, recs in runs for r in recs if r["failed"]][:5]
    involved = [w for w, _, _ in runs]
    facts = run_facts(involved)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for item in wanted:
        value = figures.get(item["name"])
        if value is None or not math.isfinite(value):
            _fail(f"metric {item['name']} was not measured (got {value!r})", code=3)
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
    print(f"finhankel benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, item in metrics.items():
        print(f"  {name:56s} {item['value']:.6g} {item['unit']}")
    for name in ("fail_frac", "bound_miss_frac", "uncertified_frac"):
        if name in figures:
            print(f"  {name:56s} {figures[name]:.6g} fraction")
    if "probe" in figures:
        probe = figures["probe"]
        print(f"  {'probe (untimed, not in correct)':56s} {probe['failed']} of "
              f"{probe['evaluations']} evaluations failed, worst rel err "
              f"{probe.get('rel_err_max', math.nan):.3g}")
    if figures.get("latency_tail"):
        t = figures["latency_tail"]
        print(f"  {'latency_tail_ms':56s} {t['value_ms']:.6g} ms "
              f"(p{t['percentile']:.2f} of {t['samples']} operations)")
    elif not args.trace:
        print(f"  {'latency_tail_ms':56s} omitted: {figures['ops']} operations, too few")
    print(json.dumps({"facts": facts, "figures": figures}, default=str))
    ok = failed == 0 and oracle_gap < 1e-30
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(args, main_wl, make, figures) -> list:
    """Untraced then traced halves of the workload, then a traced quarter of
    each other workload; fills ``figures`` with the per-layer metrics."""
    from tracing import Tracer

    half = args.seconds / 2.0
    # the traced half continues the stream: repeating inputs would find the
    # program's node tables already filled for them
    stream = main_wl.stream()
    lat0, recs0, busy0 = run_loop(main_wl, half, stream=stream)
    passes = {}
    for name in (main_wl.name,) + tuple(n for n in WORKLOADS if n != main_wl.name):
        w = main_wl if name == main_wl.name else make[name]()
        exec(w.warmup, {})
        tracer = Tracer()
        try:
            with tracer.installed():
                if w is main_wl:
                    lat, recs, busy = run_loop(w, half, tracer, stream)
                else:
                    lat, recs, busy = run_loop(w, args.seconds / 4.0, tracer)
        except LookupError as exc:
            _fail(f"{exc}; update tracing.BOUNDARIES", code=3)
        if w is main_wl:
            figures["trace.overhead_frac"] = (len(lat0) / busy0) / (len(lat) / busy) - 1.0
        layers = tracer.layers()
        missing = [n for n in w.expected_layers if layers.get(n, {}).get("calls", 0) == 0]
        if missing:
            _fail(f"traced {name} recorded no spans at {', '.join(missing)}; a boundary "
                  "in tracing.BOUNDARIES no longer matches how the program calls it", code=3)
        figures.update({f"{name}.{k}": v for k, v in w.check(recs).items()})
        passes[name] = (w, tracer, lat, recs)
    main_wl.check(recs0)
    transform_layers(figures, passes["transform"][1], passes["transform"][3], passes["transform"][0])
    corroborate_layers(figures, passes["corroborate"][1])
    classify_layers(figures, passes["classify"][1])
    kernel_layers(figures)
    with gzip.open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"), "wt") as fh:
        for name, (_, tracer, _, _) in passes.items():
            for span in tracer.spans:
                fh.write(json.dumps([name] + span) + "\n")
    return [(main_wl, lat0, recs0)] + [(w, lat, recs) for w, _, lat, recs in passes.values()]


if __name__ == "__main__":
    sys.exit(main())
