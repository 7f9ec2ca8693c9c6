"""rhglab benchmark: one named workload per process, timed end to end and,
in a separate traced run, per layer.

    python3 bench/run.py --workload sweep_cell --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  The run repeats whole rounds of the workload's fixed
operations for about `--seconds` (it stops at the round boundary nearest
to that), then checks the first round's outputs against independent
computations (bench/checks.py) and every later round's outputs against
the first.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1).

Workloads (README.md has the cells, seeds and query picks):
  sweep_cell      `rhg sweep`, one cell per operation: n = 2^16, C = 0,
                  alpha 0.75
  analyze_exact   `rhg analyze` plus six `rhg expose` queries on files
                  written in set-up, one operation per graph: 4 graphs of
                  n = 6000, alpha 0.75
  boundary_audit  sample n = 2^15, keep the shell r > R - 1, build it and
                  run `boundary_path_audit`
  measure_check   `rhg measure-check` at n = 1000, C = 0 for alpha 0.6,
                  0.75, 0.9, plus the README's `--C 16.2` call
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

WORKLOADS = ("sweep_cell", "analyze_exact", "boundary_audit", "measure_check")

SWEEP_N = 2 ** 16
# the trend cells of criteria 7-9; one alpha keeps the operations alike,
# so the median does not hinge on which cell's time lands in the middle
SWEEP_ALPHA = 0.75
ANALYZE_N = 6000
ANALYZE_ALPHA = 0.75
ANALYZE_INSTANCES = 4
EXPOSE_QUERIES = 3          # reachable and unreachable each, per instance
AUDIT_N = 2 ** 15
AUDIT_ALPHA = 0.75
AUDIT_XI = 1.0
MEASURE_N = 1000
MEASURE_ALPHAS = (0.6, 0.75, 0.9)
MEASURE_SAMPLES = 4_000_000
# the README's own call; fails on every seed (zero-width Monte-Carlo
# interval on two ball-intersection rows), counted in `failed`
MEASURE_FAULT_ARGV = ["measure-check", "--alpha", "0.75", "--n", "1000", "--C", "16.2"]
NEIGHBOR_PICKS = 256


def process_age():
    """Seconds since this process started, from /proc when available."""
    since_t0 = time.perf_counter() - _T0
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return since_t0
    # jiffy resolution; never report less than what this script saw
    return age if since_t0 <= age < since_t0 + 60.0 else since_t0


def import_program():
    if not (SRC / "rhglab" / "__init__.py").is_file():
        raise SystemExit(f"error: no rhglab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rhglab
    from rhglab import analysis, cli, explorer, graphs, measure, sampler
    from rhglab.geometry import ModelParams
    if Path(rhglab.__file__).resolve().parent != SRC / "rhglab":
        raise SystemExit(f"error: imported rhglab from {rhglab.__file__}, not {SRC}")
    modules = {"sampler": sampler, "graphs": graphs, "analysis": analysis,
               "explorer": explorer, "measure": measure, "cli": cli}
    return modules, ModelParams


class Discard(io.TextIOBase):
    """Write-only text sink for the program's console output."""

    def write(self, text):
        return len(text)


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def strip_timings(report):
    return {k: v for k, v in report.items() if k != "timings"}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, a fixed list of operations, and checks of their outputs.

    `ops()` returns (name, callable) pairs; each callable is one timed
    operation.  `settle(i, raw)` runs untimed right after operation i and
    returns (ok, points, digest); round-one material it needs for the
    checks is kept on the instance.  `check()` returns problem strings.
    Operation i must fail exactly when i is in `expected_failures`.
    """

    expected_failures = frozenset()

    def __init__(self, mods, ModelParams, seed, workdir):
        self.m = mods
        self.ModelParams = ModelParams
        self.seed = seed
        self.workdir = workdir
        self.first = {}

    def setup(self):
        pass

    def keep(self, i, value):
        self.first.setdefault(i, value)


class SweepCell(Workload):
    def setup(self):
        os.environ["RHG_THREADS"] = "1"
        self.out_dir = self.workdir / "sweep"

    def ops(self):
        cli = self.m["cli"]
        argv = ["sweep", "--alpha", repr(SWEEP_ALPHA), "--C", "0", "--n-grid", str(SWEEP_N),
                "--reps", "1", "--seed-base", str(self.seed), "--out-dir", str(self.out_dir)]
        return [(f"sweep alpha={SWEEP_ALPHA}", lambda: cli.main(argv))]

    def settle(self, i, rc):
        d = self.out_dir
        files = sorted(d.glob("cell-*.json")) if d.is_dir() else []
        report = json.loads(files[0].read_text()) if len(files) == 1 else None
        shutil.rmtree(d, ignore_errors=True)   # the next round re-runs the cell
        ok = rc == 0 and report is not None
        if ok:
            self.keep(i, report)
        return ok, SWEEP_N, digest(strip_timings(report)) if report else None

    def check(self, rng):
        report = self.first.get(0)
        if report is None:
            return ["sweep: no cell report to check"]
        params = self.ModelParams(alpha=SWEEP_ALPHA, C=0.0, n=SWEEP_N)
        g = self.m["graphs"].build_fast(self.m["sampler"].sample_uniform_model(params, self.seed))
        problems = []
        if (report["params"]["n"], report["seed"]) != (SWEEP_N, self.seed):
            problems.append("sweep: report is for another cell")
        picks = rng.choice(SWEEP_N, NEIGHBOR_PICKS, replace=False)
        found, ref = checks.check_report(report, g.indptr, g.indices, g.sample.r,
                                         g.sample.theta, params.R, picks)
        problems += [f"sweep: {p}" for p in found]
        print(f"  sweep alpha={SWEEP_ALPHA}: giant {ref['giant']} "
              f"({'above' if ref['giant'] > 30_000 else 'at or below'} the 30,000 cap), "
              f"D={ref['diameter']}, reported {report['giant_diameter']}", file=sys.stderr)
        return problems


class AnalyzeExact(Workload):
    """One operation per graph instance; instance j of seed s is sampled
    with seed ANALYZE_INSTANCES * s + j."""

    def setup(self):
        sampler, graphs = self.m["sampler"], self.m["graphs"]
        params = self.ModelParams(alpha=ANALYZE_ALPHA, C=0.0, n=ANALYZE_N)
        self.params = params
        self.instances = []
        for j in range(ANALYZE_INSTANCES):
            seed = ANALYZE_INSTANCES * self.seed + j
            g = graphs.build_fast(sampler.sample_uniform_model(params, seed))
            prefix = self.workdir / f"graph-{j}"
            graphs.save_graph(g, prefix)
            # queries: shell vertices (r > R - 1) that can and cannot reach
            # the center clique, by an independent BFS, drawn by the seed
            r = g.sample.r
            reach = checks.bfs(g.indptr, g.indices, np.flatnonzero(r <= params.R / 2.0))
            shell = r > params.R - 1.0
            rng = np.random.default_rng([seed, 1])
            queries = []
            for pool in (np.flatnonzero(shell & (reach >= 0)), np.flatnonzero(shell & (reach < 0))):
                k = min(EXPOSE_QUERIES, len(pool))
                queries += sorted(int(q) for q in rng.choice(pool, k, replace=False))
            self.instances.append({"seed": seed, "g": g, "reach": reach, "queries": queries,
                                   "points": f"{prefix}.points.tsv",
                                   "edges": f"{prefix}.edges.tsv"})

    def ops(self):
        cli = self.m["cli"]

        def session(inst, j):
            src = ["--points", inst["points"], "--edges", inst["edges"]]
            report = str(self.workdir / f"report-{j}.json")
            expose = [str(self.workdir / f"expose-{j}-{q}.json") for q in inst["queries"]]
            rcs = [cli.main(["analyze", *src, "--out", report])]
            for q, out in zip(inst["queries"], expose):
                rcs.append(cli.main(["expose", *src, "--query", str(q), "--out", out]))
            return rcs, report, expose
        return [(f"analyze+expose seed={inst['seed']}",
                 lambda inst=inst, j=j: session(inst, j))
                for j, inst in enumerate(self.instances)]

    def settle(self, i, raw):
        rcs, report_path, expose_paths = raw
        ok = all(rc == 0 for rc in rcs)
        out = None
        if ok:
            out = {"report": json.loads(Path(report_path).read_text()),
                   "expose": [json.loads(Path(p).read_text()) for p in expose_paths]}
            self.keep(i, out)
        for p in [report_path, *expose_paths]:
            Path(p).unlink(missing_ok=True)
        key = {"report": strip_timings(out["report"]), "expose": out["expose"]} if out else None
        return ok, ANALYZE_N, digest(key) if key else None

    def check(self, rng):
        problems = []
        R = self.params.R
        for i, inst in enumerate(self.instances):
            g, tag = inst["g"], f"seed={inst['seed']}"
            out = self.first.get(i)
            if out is None:
                problems.append(f"{tag}: no analyze or expose output to check")
                continue
            r, theta = g.sample.r, g.sample.theta
            on_disk = np.loadtxt(inst["edges"], comments="#", dtype=np.int64, ndmin=2)
            src = np.repeat(np.arange(g.n_vertices), np.diff(g.indptr))
            keep = src < g.indices
            if not np.array_equal(on_disk, np.column_stack([src[keep], g.indices[keep]])):
                problems.append(f"{tag}: edge file does not hold the built graph's edges")
            picks = rng.choice(ANALYZE_N, NEIGHBOR_PICKS, replace=False)
            found, ref = checks.check_report(out["report"], g.indptr, g.indices, r, theta, R, picks)
            for q, payload in zip(inst["queries"], out["expose"]):
                found += checks.check_expose(payload, q, g.indptr, g.indices, r, theta, R,
                                             inst["reach"])
            problems += [f"{tag}: {p}" for p in found]
            verdicts = [p["verdict"] for p in out["expose"]]
            print(f"  analyze {tag}: giant {ref['giant']}, D={ref['diameter']} "
                  f"({ref['bfs']} BFS), queries {inst['queries']} -> {verdicts}", file=sys.stderr)
        return problems


class BoundaryAudit(Workload):
    def setup(self):
        self.params = self.ModelParams(alpha=AUDIT_ALPHA, C=0.0, n=AUDIT_N)

    def ops(self):
        sampler, graphs, explorer = self.m["sampler"], self.m["graphs"], self.m["explorer"]
        params = self.params

        def audit():
            s = sampler.sample_uniform_model(params, self.seed)
            mask = s.r > params.R - AUDIT_XI
            shell = sampler.SampleSet(r=s.r[mask], theta=s.theta[mask], params=params,
                                      seed=self.seed, model="manual")
            g = graphs.build_fast(shell)
            return g, explorer.boundary_path_audit(g, xi=AUDIT_XI)
        return [("shell audit", audit)]

    def settle(self, i, raw):
        g, rep = raw
        self.keep(i, (g, rep))
        key = [rep.components, rep.max_length, rep.max_spread,
               rep.length_violations, rep.spread_violations]
        return True, AUDIT_N, digest(key)

    def check(self, rng):
        if 0 not in self.first:
            return ["audit: no audit report to check"]
        g, rep = self.first[0]
        n = g.n_vertices
        picks = rng.choice(n, min(NEIGHBOR_PICKS, n), replace=False)
        problems = checks.check_neighbors(g.indptr, g.indices, g.sample.r, g.sample.theta,
                                          self.params.R, picks)
        problems += checks.check_audit(rep, g.indptr, g.indices, n)
        print(f"  audit: shell {n} vertices, {len(rep.components)} components, "
              f"longest {rep.max_length}", file=sys.stderr)
        return problems


class MeasureCheck(Workload):
    expected_failures = frozenset({len(MEASURE_ALPHAS)})   # the README call, last

    def setup(self):
        parser = self.m["cli"].build_parser()
        self.calls = []
        for alpha in MEASURE_ALPHAS:
            argv = ["measure-check", "--alpha", repr(alpha), "--n", str(MEASURE_N), "--C", "0",
                    "--samples", str(MEASURE_SAMPLES), "--seed", str(self.seed)]
            self.calls.append((f"measure alpha={alpha}", argv))
        self.calls.append(("measure README --C 16.2", MEASURE_FAULT_ARGV))
        self.outs = [str(self.workdir / f"measure-{i}.csv") for i in range(len(self.calls))]
        self.args = [parser.parse_args(argv) for _, argv in self.calls]

    def ops(self):
        cli = self.m["cli"]
        return [(name, lambda argv=argv, out=out: cli.main([*argv, "--out", out]))
                for (name, argv), out in zip(self.calls, self.outs)]

    def settle(self, i, rc):
        path = Path(self.outs[i])
        text = path.read_text() if path.is_file() else ""
        path.unlink(missing_ok=True)
        rows = list(csv.DictReader(text.splitlines()))
        self.keep(i, (rc, rows))
        return rc == 0, len(rows) * self.args[i].samples, digest([rc, text])

    def check(self, rng):
        problems = []
        for i in range(len(self.calls)):
            if i not in self.first:
                problems.append(f"{self.calls[i][0]}: no output to check")
                continue
            rc, rows = self.first[i]
            a = self.args[i]
            params = self.ModelParams(alpha=a.alpha, C=a.C, n=a.n)
            found = checks.check_measure_rows(rows, a.alpha, params.R, a.samples)
            problems += [f"{self.calls[i][0]}: {p}" for p in found]
            failing = [row for row in rows if row["pass"] != "True"]
            if rc != 0:
                zero = all(float(row["mc_halfwidth"]) == 0.0 for row in failing)
                print(f"  {self.calls[i][0]}: exit {rc}, failing rows "
                      f"{[row['region_id'] for row in failing]}"
                      f"{' (all with a zero-width interval)' if zero else ''}", file=sys.stderr)
                if not failing:
                    problems.append(f"{self.calls[i][0]}: exit {rc} with no failing row")
            elif failing:
                problems.append(f"{self.calls[i][0]}: exit 0 with failing rows")
        return problems


CLASSES = {"sweep_cell": SweepCell, "analyze_exact": AnalyzeExact,
           "boundary_audit": BoundaryAudit, "measure_check": MeasureCheck}


# ---------------------------------------------------------------------------
# run loop and entry point


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def measure_rounds(work, seconds, tracer):
    """Whole rounds of the operations, stopping at the round boundary
    nearest to `seconds` (at least one round).

    With a tracer, rounds alternate untraced / traced, at least three,
    so the tracing overhead is measured in the same process against an
    untraced round other than the first, which also warms up.
    Returns one record per operation attempted.
    """
    ops = work.ops()
    records, first_digest, drift = [], {}, []
    begin = time.perf_counter()
    rnd = 0
    sink = Discard()
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        for i, (name, fn) in enumerate(ops):
            if tracer is not None:
                tracer.phase = f"op{len(records)}"
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    raw = fn()
                err = None
            except Exception:  # an operation that raises counts as failed
                raw, err = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            if err is None:
                ok, points, key = work.settle(i, raw)
            else:
                ok, points, key = False, 0, None
                print(f"operation {name} raised:\n{err}", file=sys.stderr)
            if key is not None:
                if first_digest.setdefault(i, key) != key:
                    drift.append(f"{name}: round {rnd} output differs from round 0")
            records.append({"round": rnd, "op": i, "name": name, "seconds": dt,
                            "ok": ok, "points": points, "traced": traced})
        if traced:
            tracer.uninstall()
        rnd += 1
        # stop at the round boundary nearest to `seconds`
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / rnd / 2.0 >= seconds and (tracer is None or rnd >= 3):
            return records, drift


def unexpected_outcomes(records, expected_failures):
    """One problem per operation that failed, or succeeded, against
    expectation in any round."""
    wrong = {}
    for r in records:
        if r["ok"] == (r["op"] in expected_failures):
            wrong.setdefault(r["op"], [r["name"], r["ok"], 0])[2] += 1
    rounds = max(r["round"] for r in records) + 1
    return [f"{name}: {'succeeded, but should fail' if ok else 'failed'} in {k} of {rounds} rounds"
            for name, ok, k in wrong.values()]


def end_to_end(records, setup_s, peak_mb):
    plain = [r for r in records if not r["traced"]]
    total = sum(r["seconds"] for r in plain)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_s": {"value": statistics.median(r["seconds"] for r in plain), "unit": "s"},
        "points_per_s": {"value": sum(r["points"] for r in plain) / total, "unit": "points/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    modules, ModelParams = import_program()
    from scipy.sparse import csgraph

    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    tracer = Tracer(modules, csgraph) if args.trace else None
    try:
        work = CLASSES[args.workload](modules, ModelParams, args.seed, workdir)
        if tracer is not None:
            tracer.install()
        work.setup()
        if tracer is not None:
            tracer.uninstall()
        setup_s = process_age()

        records, drift = measure_rounds(work, args.seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        rng = np.random.default_rng([args.seed, 2])
        problems = drift + unexpected_outcomes(records, work.expected_failures)
        problems += work.check(rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"] and r["round"] > 0]
        n_ops = len(work.ops())
        per_round_traced = sum(r["seconds"] for r in traced) / (len(traced) / n_ops)
        per_round_plain = sum(r["seconds"] for r in plain) / (len(plain) / n_ops)
        overhead = 100.0 * (per_round_traced / per_round_plain - 1.0)
        values, bases = layer_metrics(tracer, len(traced), overhead, src_lines())
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "records": records, "metrics": metrics, "bases": bases})
        print(f"bases (per traced operation, set-up once): {bases}; spans -> {trace_path}")
    else:
        metrics = end_to_end(records, setup_s, peak_mb)
    rounds = max(r["round"] for r in records) + 1
    print(f"{args.workload} seed={args.seed}: {attempted} operations in {rounds} rounds, "
          f"{failed} failed, {len(problems)} check problems")
    for name in dict.fromkeys(r["name"] for r in records):
        times = [r["seconds"] for r in records if r["name"] == name and not r["traced"]]
        print(f"  operation {name}: median {statistics.median(times):.4f} s over {len(times)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
