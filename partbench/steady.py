"""Steadiness and determinism check for the partition benchmark.

    python3 partbench/steady.py --seeds 1-10 --repeat 2 --out set1.json
    python3 partbench/steady.py --seeds 1-10 --compare set1.json

Runs `run.py` once per workload and seed (one process at a time, from the
checkout root), then reports, for every end-to-end metric in
`BENCHMARK.json`, the median and the quartile spread
(`statistics.quantiles(values, n=4)`, Q3 - Q1 over the median).  It fails
when a spread exceeds the metric's bound, when any run
is not correct, when the share of failed calls differs between runs of a
workload, or when two runs with the same seed wrote different `.sol` or
report bytes.  `--repeat K` runs the first K seeds a second time for that
last check; `--compare` applies the bound to the medians and the hash and
failure checks against an earlier `--out` file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["hashes"] = sorted(line for line in lines if line.startswith("sha256 "))
    result["notes"] = [line for line in lines[:-1] if not line.startswith("sha256 ")]
    result["seed"] = seed
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--repeat", type=int, default=0, help="rerun the first K seeds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write every run's result here")
    ap.add_argument("--compare", default=None, help="an earlier --out file")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if c == "python3" else c for c in bench["command"]]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    ok = True
    results: dict[str, list[dict]] = {}
    for workload in workloads:
        runs = []
        for seed in seeds + seeds[: args.repeat]:
            r = run_once(command, workload, seed, bench["run_seconds"], args.trace)
            runs.append(r)
            print(f"{workload} seed={seed} attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())),
                  flush=True)
        results[workload] = runs
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        shares |= {Fraction(r["failed"], r["attempted"]) for r in earlier.get(workload, [])}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"  FAIL {workload}: failed shares {sorted(map(str, shares))}, "
                  f"correct {[r['correct'] for r in runs]}")
        by_seed: dict[int, set] = {}
        for r in runs + earlier.get(workload, []):
            by_seed.setdefault(r["seed"], set()).add(tuple(r["hashes"]))
        differing = sorted(s for s, h in by_seed.items() if len(h) != 1)
        repeated = sorted(s for s in by_seed
                          if sum(r["seed"] == s for r in runs + earlier.get(workload, [])) > 1)
        print(f"  hashes: {len(repeated)} seeds run more than once, {len(differing)} differ")
        if differing:
            ok = False
            print(f"  FAIL {workload}: output bytes differ for seeds {differing}")
        first = {r["seed"]: r for r in runs}.values()
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in first]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            line = f"  {m['name']:<28} median {med:.6g} {m['unit']}  spread {spread:.3f}"
            bound = m.get("bound")
            if bound is not None:
                line += f"  bound {bound}"
                if spread > bound:
                    ok = False
                    line += "  FAIL spread"
                if workload in earlier:
                    before = statistics.median(
                        r["metrics"][m["name"]]["value"]
                        for r in {r["seed"]: r for r in earlier[workload]}.values())
                    worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
                    line += f"  vs earlier {worse:+.3f}"
                    if worse > bound:
                        ok = False
                        line += "  FAIL median"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    print("steady: ok" if ok else "steady: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
