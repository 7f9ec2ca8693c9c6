"""Run two sets of benchmark runs of one checkout and compare them.

    python3 bench/compare.py                      # 2 sets x 10 runs, every workload
    python3 bench/compare.py --workloads analyze_exact --runs 5

Each run lasts BENCHMARK.json's run_seconds.  Set k uses seeds
seed_base + k*runs .. seed_base + (k+1)*runs - 1; runs of the two sets
alternate.  For every workload and end-to-end metric it prints each set's
median and quartiles, the spread (q3 - q1) / median, and whether the
figures stay within the bounds of BENCHMARK.json:

  spread   every spread is within the bound, except setup_s's: set-up is
           one cold sample per process, which more work in a run cannot
           steady, so setup_s is held only to the agree rule;
  agree    the second set's median is not worse than the first's by more
           than the bound;
  failed   the share of failed operations is the same in both sets, and
           every run reported correct.

The summary is also written to bench/runs/compare-<time>.json.  Exit
code 0 when everything holds, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def run_once(command, workload, seed, seconds, trace=0):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(first, second, better):
    """Relative change of the second median in the worse direction."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    ok = True
    summary = {"runs": args.runs, "sets": SETS, "seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(SETS)]
        for i in range(args.runs):
            for k in range(SETS):
                seed = args.seed_base + k * args.runs + i
                res = run_once(spec["command"], workload, seed, seconds)
                sets[k].append(res)
                print(f"{workload} set {k} seed {seed}: wall {res['wall_s']:.1f}s "
                      + " ".join(f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()),
                      flush=True)
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        shares_ok = all(share == shares[0] for share in shares)
        per_share = [sorted({r["failed"] / r["attempted"] for r in s}) for s in sets]
        rows = {}
        print(f"\n{workload}: failed share per set {per_share}, all correct: {correct}")
        print(f"  {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  bound")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
            spread_ok = name == "setup_s" or all(st["spread"] <= bound for st in stats)
            drift = worse_by(stats[0]["median"], stats[1]["median"], metric["better"])
            agree = drift <= bound
            for k, st in enumerate(stats):
                print(f"  {name:<14} {k:>3} {st['median']:>12.6g} {st['q1']:>12.6g} "
                      f"{st['q3']:>12.6g} {st['spread']:>7.3f}  {bound}")
            print(f"  {name:<14} spread {'ok' if spread_ok else 'OVER BOUND'}"
                  f"{' (not gated)' if name == 'setup_s' else ''}, second set "
                  f"worse by {drift:+.3f}: {'ok' if agree else 'OVER BOUND'}")
            rows[name] = {"sets": stats, "spread_ok": spread_ok, "worse_by": drift, "agree": agree}
            ok &= spread_ok and agree
        ok &= shares_ok and correct
        summary["workloads"][workload] = {
            "metrics": rows, "failed_share": shares, "failed_share_ok": shares_ok,
            "correct": correct, "wall_s": [r["wall_s"] for s in sets for r in s],
        }
        print()
    out = BENCH / "runs" / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"{'all within bounds' if ok else 'NOT within bounds'}; summary -> {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
