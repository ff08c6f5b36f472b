"""Benchmark command: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload tax_bulk --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout (``src/`` must hold the program).  With
``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the same workload runs with every layer's entry points
wrapped (see ``layers.py``) and the result carries the per-layer
metrics, while the traced end-to-end numbers and their difference from
the last untraced run of the same workload and seed (the tracing
overhead) are printed above it.  The last line of standard output is
always the result object; everything else is for people.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space and recorded results, inside the checkout.
WORK = ROOT / ".bench_build" / "perfbench"

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "llm_tokens": "count",
    "llm_requests": "count",
    "f1": "1",
    "heldout_f1": "1",
    "rows_per_s": "1/s",
    "lat_p50_ms.small": "ms",
    "lat_p50_ms.large": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"core.{stage}_s": "s" for stage in (
        "stats", "correlation", "criteria", "features", "sampling",
        "guidelines", "labeling", "training_data", "train_detector",
        "verify_busy", "assemble_busy")},
    **{f"core.{fn}_calls": "count" for fn in (
        "sampling", "guidelines", "labeling", "verify", "assemble")},
    "core.labels_kept": "1",
    "llm.calls": "count",
    "llm.busy_s": "s",
    "llm.input_tokens": "count",
    "llm.output_tokens": "count",
    "llm.attempts_per_call": "1",
    "ml.mlp_fit_s": "s",
    "ml.mlp_fit_calls": "count",
    "ml.mlp_predict_s": "s",
    "parallel.attr_map_wall_s": "s",
    "parallel.attr_map_busy_s": "s",
    "data.generate_s": "s",
    "data.csv_write_s": "s",
    "data.csv_read_s": "s",
    "artifact.save_s": "s",
    "artifact.load_s": "s",
    "artifact.bytes": "B",
    "scorer.featurize_s": "s",
    "scorer.predict_s": "s",
    "scorer.calls": "count",
    "scorer.rows_per_call": "rows",
    "streaming.shards": "count",
    "streaming.shard_p50_s": "s",
    **{f"service.{name}.{size}": unit for size in ("small", "large") for name, unit in (
        ("batch_score_ms", "ms"), ("rows_per_batch", "rows"),
        ("front_ms", "ms"), ("rtt_p99_ms", "ms"))},
    "workers.batches": "count",
    "workers.dispatch_ms": "ms",
    "registry.hits": "count",
    "registry.misses": "count",
    "registry.loads": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Make ``src/`` and this directory importable; fail if ``src`` is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _result_path(workload: str, seed: int) -> Path:
    return WORK / "results" / f"{workload}-seed{seed}.json"


def _print_overhead(workload: str, seed: int, traced: dict) -> None:
    path = _result_path(workload, seed)
    if not path.is_file():
        print(f"tracing overhead: no untraced run of {workload} seed {seed} "
              f"recorded; run it with --trace 0 first")
        return
    untraced = json.loads(path.read_text())["metrics"]
    if any(traced[n] != untraced[n]["value"] for n in ("llm_tokens", "f1")):
        print(f"tracing overhead: the recorded untraced run of {workload} seed {seed} "
              f"fitted differently (other code or sizes); run it again with --trace 0")
        return
    print("tracing overhead (traced - untraced):")
    for name, unit in END_TO_END.items():
        a, b = traced[name], untraced[name]["value"]
        share = (a - b) / b if b else float("nan")
        print(f"  {name:20s} {a:14.4f} - {b:14.4f} = {a - b:+12.4f} {unit} ({share:+.1%})")


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so child servers get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _import_program()
    import envinfo
    from checks import CheckFailed
    from layers import Probe, instrument
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env_start = envinfo.snapshot()
    t0 = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    run = Run(seed=args.seed, seconds=args.seconds, traced=bool(args.trace), tmp=tmp)
    try:
        if run.traced:
            run.probe = Probe()
            with instrument(run.probe) as tracer:
                run.tracer = tracer
                outcome = WORKLOADS[args.workload](run)
        else:
            outcome = WORKLOADS[args.workload](run)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env_end = envinfo.snapshot()
    env = {
        **envinfo.static_info(),
        "start": env_start,
        "end": env_end,
        "steal_share": envinfo.steal_share(env_start, env_end),
        "wall_s": time.perf_counter() - t0,
    }
    for line in run.log:
        print(line)
    print("env: " + json.dumps(env))
    e2e = {name: outcome.metrics[name] for name in END_TO_END}
    if run.traced:
        print("end-to-end (traced):")
        for name, unit in END_TO_END.items():
            print(f"  {name:28s} {e2e[name]:16.4f} {unit}")
        _print_overhead(args.workload, args.seed, e2e)
        print("per-layer:")
        for name, unit in PER_LAYER.items():
            print(f"  {name:28s} {outcome.layers.get(name, 0):16.4f} {unit}")
        chosen = {n: (outcome.layers.get(n, 0), u) for n, u in PER_LAYER.items()}
    else:
        chosen = {n: (e2e[n], u) for n, u in END_TO_END.items()}
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }
    if not run.traced:
        path = _result_path(args.workload, args.seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**result, "env": env}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
