"""Run the benchmark over several seeds and judge how steady it is.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads tax_bulk,...]
                               [--out sweep.json] [--compare earlier.json]

For each workload it runs ``run.py`` once per seed (untraced), then
prints, per end-to-end metric, the median, the quartiles and their
distance as a share of the median (the spread), against the metric's
bound in ``BENCHMARK.json``; a spread at or above a third of the bound
is marked.  ``--compare`` also checks that every median is no worse
than an earlier sweep's by more than the bound, and that the share of
failed operations is the same.

The determinism guard runs on every sweep: a workload's fit is the same
on every seed, so ``llm_tokens``, ``llm_requests`` and ``f1`` must be
identical across all its runs, and ``heldout_f1`` across runs with the
same seed.  Any difference is printed with the values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from checks import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIT_DETERMINED = ("llm_tokens", "llm_requests", "f1")
SEED_DETERMINED = ("heldout_f1",)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["notes"] = lines[:-1]
    return result


def determinism(runs: list[dict]) -> list[str]:
    """Differences in values that must repeat exactly."""
    problems = []
    for name in FIT_DETERMINED:
        values = {r["metrics"][name]["value"] for r in runs}
        if len(values) > 1:
            problems.append(f"{name} differs across runs: {sorted(values)}")
    by_seed = defaultdict(list)
    for r in runs:
        by_seed[r["seed"]].append(r)
    for seed, group in by_seed.items():
        for name in SEED_DETERMINED:
            values = {r["metrics"][name]["value"] for r in group}
            if len(values) > 1:
                problems.append(f"{name} differs across runs of seed {seed}: {sorted(values)}")
    return problems


def summarize(spec: dict, runs: list[dict]) -> dict:
    out = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
           "metrics": {}}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out["metrics"][m["name"]] = {
            "values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread(values), "bound": m["bound"], "better": m["better"],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--compare", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    summary, ok = {}, True
    for workload in names:
        runs = [run_once(spec["command"], workload, s, spec["run_seconds"])
                for s in _seeds(args.seeds)]
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"{workload}: a run reported correct=false")
        s = summary[workload] = summarize(spec, runs)
        print(f"{workload}: {len(runs)} runs, failed share {s['failed_share']}")
        for name, m in s["metrics"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- spread >= bound/3"
            if name != "setup_s" and m["spread"] > m["bound"]:
                ok, flag = False, "  <-- spread > bound"
            print(f"  {name:20s} median {m['median']:14.4f}  q1 {m['q1']:14.4f}  "
                  f"q3 {m['q3']:14.4f}  spread {m['spread']:.4f} / bound {m['bound']}{flag}")
        for problem in determinism(runs):
            ok = False
            print(f"  determinism: {problem}")
        if workload in earlier:
            before = earlier[workload]
            if before["failed_share"] != s["failed_share"]:
                ok = False
                print(f"  failed share {s['failed_share']} != earlier {before['failed_share']}")
            for name, m in s["metrics"].items():
                old = before["metrics"][name]["median"]
                worse = (old - m["median"]) if m["better"] == "higher" else (m["median"] - old)
                share = worse / abs(old) if old else 0.0
                verdict = "ok" if share <= m["bound"] else "WORSE THAN BOUND"
                ok &= share <= m["bound"]
                print(f"  vs earlier {name:20s} {old:14.4f} -> {m['median']:14.4f} "
                      f"({share:+.2%} worse) {verdict}")
        for r in runs:
            env = next((n for n in r["notes"] if n.startswith("env: ")), None)
            if env:
                e = json.loads(env[5:])
                print(f"  seed {r['seed']}: load {e['start']['loadavg'][0]:.2f}->"
                      f"{e['end']['loadavg'][0]:.2f}, steal {e['steal_share']}, "
                      f"wall {e['wall_s']:.1f}s")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
