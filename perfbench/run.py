"""End-to-end benchmark of the ``repro`` package: build, serve and sweep.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build --seed 20 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35 --trace 1

One run measures one workload for ``--seconds`` seconds, checks every
answer with ``refcheck`` (which shares no code with ``repro``), prints
a host fingerprint, the per-operation latencies and, with
``--trace 1``, the layer tree; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics listed in
``BENCHMARK.json`` (end-to-end ones untraced, per-layer ones traced).
``--workload all`` runs each workload in its own process and prints the
end-to-end table of every workload.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import selftest
import workloads
from stats import REF_NOMINAL_S, quantile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every end-to-end metric under its own name, each as (workload, metric
#: reported by that workload, scale): README.md maps the gated slots.
#: Times are host-normalized (``stats.normalized``).
NAMED_METRICS = (
    ("setup_s", "s", (("build", "setup_s", 1.0), ("serve", "setup_s", 1.0),
                      ("sweep", "setup_s", 1.0))),
    ("build_chords_p50_s", "s", (("build", "op1_norm_p50_ms", 1e-3),)),
    ("build_er_p50_s", "s", (("build", "op2_norm_p50_ms", 1e-3),)),
    ("point_p50_ms", "ms", (("serve", "op.point.norm_p50_ms", 1.0),)),
    ("path_p50_ms", "ms", (("serve", "op.path.norm_p50_ms", 1.0),)),
    ("batch_p50_ms", "ms", (("serve", "op1_norm_p50_ms", 1.0),)),
    ("delta_p50_ms", "ms", (("serve", "op2_norm_p50_ms", 1.0),)),
    ("sweep_fresh_p50_s", "s", (("sweep", "op1_norm_p50_ms", 1e-3),)),
    ("sweep_delta_p50_s", "s", (("sweep", "op2_norm_p50_ms", 1e-3),)),
    ("peak_rss_mb", "MB", (("build", "peak_rss_mb", 1.0), ("serve", "peak_rss_mb", 1.0),
                           ("sweep", "peak_rss_mb", 1.0))),
    ("error_rate", "ratio", (("build", "error_rate", 1.0), ("serve", "error_rate", 1.0),
                             ("sweep", "error_rate", 1.0))),
)


def _prepare_environment():
    """Point imports, children and the C-kernel cache at this checkout.

    Unsets every ``REPRO_*`` knob so the default configuration runs.
    Returns the names of the knobs that were unset.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no repro package under {src}; run from a full checkout")
    unset = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in unset:
        del os.environ[key]
    os.environ["PYTHONPATH"] = src
    # Children write bytecode into the checkout, so a cold start after
    # the warm-up imports cached bytecode as an installed package does.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["XDG_CACHE_HOME"] = os.path.join(ROOT, ".perfbench_work", "cache")
    sys.path.insert(0, src)
    return unset


def _fingerprint(ctx, unset):
    import repro
    from repro.core.ckernel import c_kernel_status

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    ok, detail = c_kernel_status()
    in_effect = sorted(k for k in os.environ if k.startswith("REPRO_"))

    ref = quantile(ctx.ref_samples, 0.25) * 1e3 if ctx.ref_samples else 0.0
    ctx.layers["host.ref_bfs_p25_ms"] = ref
    return [
        f"host: {os.cpu_count()} cores, Python {platform.python_version()}, "
        f"numpy {numpy_version}, C kernel {'loads' if ok else 'unavailable'} ({detail})",
        f"engine: {repro.DEFAULT_ENGINE} (default); REPRO_* in effect: "
        f"{in_effect or 'none'}; unset by the benchmark: {unset or 'none'}",
        f"reference BFS p25 {ref:.3f} ms over {len(ctx.ref_samples)} blocks "
        f"(the host's speed; times are normalized to {REF_NOMINAL_S * 1e3:g} ms per BFS)",
    ]


def _metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def run_one(args):
    """Run one workload; prints the report and the JSON result line."""
    unset = _prepare_environment()
    selftest.run()
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not this checkout")
    env = dict(os.environ)
    ctx = workloads.Context(ROOT, args.seed, args.seconds, bool(args.trace), env)
    t0 = time.perf_counter()
    try:
        workloads.WORKLOADS[args.workload](ctx)
    finally:
        ctx.stop_children()
    elapsed = time.perf_counter() - t0
    out = ctx.outcomes
    ctx.e2e["success_ratio"] = 1.0 - out.error_rate
    ctx.e2e["error_rate"] = out.error_rate
    lines = _fingerprint(ctx, unset)
    lines.append(f"workload {args.workload}, seed {args.seed}, {args.seconds} s measured, "
                 f"trace {args.trace}, {elapsed:.1f} s total")
    lines.extend(ctx.lines)
    lines.append(f"operations {out.attempted}, failed {out.failed}, "
                 f"error_rate {out.error_rate:.6f}")
    lines.extend(f"  failure: {m}" for m in out.messages)
    e2e_list, layer_list = _metric_lists()
    chosen = layer_list if args.trace else e2e_list
    source = ctx.layers if args.trace else ctx.e2e
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in chosen
    }
    if not args.trace:
        lines.append("end-to-end (gated):")
        lines.extend(f"  {k:<16s} {v['value']:14.6f} {v['unit']}" for k, v in metrics.items())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"e2e": ctx.e2e, "layers": ctx.layers}, fh)
    print("\n".join(lines))
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": metrics,
    }))


def run_all(args):
    """Run every workload in its own process; print the end-to-end table."""
    _prepare_environment()
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    reports, ok = {}, True
    for workload in ("build", "serve", "sweep"):
        path = os.path.join(work, f"report-{workload}-{os.getpid()}.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--report", path],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        print()
        if proc.returncode != 0:
            ok = False
            reports[workload] = {}
            continue
        ok = ok and json.loads(lines[-1])["correct"]
        with open(path) as fh:
            report = json.load(fh)
        os.remove(path)
        reports[workload] = {**report["e2e"], **report["layers"]}
    print(f"{'metric':<20s} {'unit':<6s} {'build':>12s} {'serve':>12s} {'sweep':>12s}")
    for name, unit, sources in NAMED_METRICS:
        cells = {
            w: f"{reports[w][key] * scale:12.4f}" if key in reports[w] else f"{'n/a':>12s}"
            for w, key, scale in sources
        }
        print(f"{name:<20s} {unit:<6s} " + " ".join(
            cells.get(w, f"{'-':>12s}") for w in ("build", "serve", "sweep")))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "serve", "sweep", "all"))
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
