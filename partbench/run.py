"""Partition benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 partbench/run.py --workload lean-assign --seed 3 --seconds 45 --trace 0

Run from the root of a checkout; `mfspart` is imported from `src/`.  A run
generates the workload's instances from `--seed`, writes them as
`.hg`/`.topo` files under `partbench/_work/`, and partitions each one
in-process through `mfspart.cli.main(["partition", ...])`, once each.  The
workloads are sized so that these calls take about `--seconds` on a 2-CPU
machine; the run makes them all whatever `--seconds` says, so that every
run does the same work.  Every output is checked against `check.py`, which
recomputes the report without `mfspart`, and against
`mfspart.metrics.validate`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` makes every call
twice, untraced and then traced by `layertrace.py`, requires byte-identical
outputs from the two, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = HERE.parent / "BENCHMARK.json"

# gen_instance settings shared by every workload
K_FPGAS = 8
RESOURCE_TYPES = 2
SPARE = 0.4
LEAN_FLAGS = ("--seeds", "1", "--assign-max-nodes", "2000")
# set-up is repeated this many times before each instance's calls, so that
# its samples are spread over the whole run, not taken in one burst
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Deadline:
    """One partition call on a fixed instance with a binding --time-limit.

    `run_pipeline` checks the limit only between refinement levels, so the
    call overruns by whatever is left of the level in progress.  It counts
    as failed when its wall time exceeds `limit_s` by more than `slack_s`.
    Its time, THD and hashes stay out of the metrics and the determinism
    check, since a binding limit makes the output timing-dependent.
    """

    gen_seed: int
    vertices: int
    nets: int
    limit_s: float
    slack_s: float


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int
    nets: int
    instances: int
    flags: tuple[str, ...] = ()
    deadline: Deadline | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("default-flags", 150, 180, 13),
        Workload(
            "lean-assign", 600, 720, 10, LEAN_FLAGS,
            deadline=Deadline(gen_seed=6, vertices=600, nets=720, limit_s=0.3, slack_s=0.3),
        ),
    )
}


@dataclass
class Job:
    """One instance of a workload and the reference data to check it by."""

    name: str
    hg: Path
    topo: Path
    flags: tuple[str, ...]
    deadline: Deadline | None = None


@dataclass
class Outcome:
    job: Job
    wall_s: float
    cpu_s: float
    report: dict = field(default_factory=dict)  # recomputed by check.py
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def generate(workload: Workload, seed: int, work: Path) -> list[Job]:
    """Write every instance of the workload; the same seed gives the same files."""
    from mfspart import gen_instance, write_hypergraph, write_topology

    specs = [
        (f"i{i}", 1000 * seed + i, workload.vertices, workload.nets, None)
        for i in range(workload.instances)
    ]
    if workload.deadline is not None:
        d = workload.deadline
        specs.append(("deadline", d.gen_seed, d.vertices, d.nets, d))
    jobs = []
    for name, gen_seed, n, m, deadline in specs:
        bundle = gen_instance(gen_seed, n, m, K_FPGAS, RESOURCE_TYPES, spare=SPARE)
        hg, topo = work / f"{name}.hg", work / f"{name}.topo"
        hg.write_text(write_hypergraph(bundle.hypergraph))
        topo.write_text(write_topology(bundle.topology))
        flags = workload.flags
        if deadline is not None:
            flags = flags + ("--time-limit", str(deadline.limit_s))
        jobs.append(Job(name, hg, topo, flags, deadline))
    return jobs


def partition(job: Job, out: Path, tracer=None) -> tuple[int, float, float, bytes, bytes]:
    """One in-process `mfspart partition` call: exit code, wall time, CPU
    time of this process, and the bytes written."""
    import mfspart.cli as cli

    sol, rep = out.with_suffix(".sol"), out.with_suffix(".report")
    for path in (sol, rep):
        path.unlink(missing_ok=True)
    argv = ["partition", str(job.hg), str(job.topo), "-o", str(sol), "--report", str(rep),
            *job.flags]
    t0, c0 = time.perf_counter(), time.process_time()
    if tracer is None:
        code = cli.main(argv)
    else:
        with tracer.installed():
            code = cli.main(argv)
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    return code, wall, cpu, *(p.read_bytes() if p.exists() else b"" for p in (sol, rep))


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.setup_times: list[float] = []
        self.jobs = self.setup()
        self.hashes: dict[str, tuple[str, str]] = {}  # first outputs seen, per instance

    def call(self, job: Job, mode: str) -> Outcome:
        import mfspart.io as mio
        from mfspart.metrics import validate

        import check
        from layertrace import LayerTrace

        tracer = LayerTrace() if mode == "traced" else None
        code, wall, cpu, sol, rep = partition(job, self.work / f"{job.name}.{mode}", tracer)
        res = Outcome(job, wall, cpu)
        if code != 0:
            res.problems.append(f"exit code {code}")
            return res
        # the instance is read again here, after the call, so that nothing
        # the checks need is resident while the partitioner runs
        hg_text, topo_text = job.hg.read_text(), job.topo.read_text()
        try:
            ref = check.read_instance(hg_text, topo_text)
            res.report, res.problems = check.check_result(ref, sol.decode(), rep.decode())
            placement = mio.parse_solution(sol.decode())
        except (ValueError, IndexError, KeyError) as exc:  # includes ParseError, bad JSON
            res.problems.append(f"unreadable output: {exc}")
            return res
        parsed = (mio.parse_hypergraph(hg_text), mio.parse_topology(topo_text))
        t0 = time.perf_counter()
        violations = validate(*parsed, placement)
        validate_s = time.perf_counter() - t0
        res.problems += [f"validate: {v.kind} at {v.index}" for v in violations]
        if job.deadline is not None:
            if wall > job.deadline.limit_s + job.deadline.slack_s:
                res.problems.append(
                    f"deadline overrun: {wall:.2f} s against --time-limit "
                    f"{job.deadline.limit_s} s plus {job.deadline.slack_s} s slack"
                )
            return res
        digest = (hashlib.sha256(sol).hexdigest(), hashlib.sha256(rep).hexdigest())
        first = self.hashes.setdefault(job.name, digest)
        if digest != first:
            res.problems.append(f"{mode} output bytes differ from the first run of {job.name}")
        if tracer is not None:
            tracer.finish()
            res.layers = dict(tracer.values, **{"metrics.validate_s": validate_s})
            thd = res.report.get("total_hop_distance")
            if tracer.assign_thd is None or thd is None or thd > tracer.assign_thd:
                res.problems.append(f"final THD {thd} above assignment THD {tracer.assign_thd}")
        return res

    def setup(self) -> list[Job]:
        """Generate and write the instances, timed in CPU seconds."""
        t0 = time.process_time()
        jobs = generate(self.workload, self.seed, self.work)
        self.setup_times.append(time.process_time() - t0)
        return jobs

    def calls(self, modes: tuple[str, ...]) -> dict[str, list[Outcome]]:
        """One call per instance and mode; the modes of an instance run back
        to back, so a traced call and its untraced twin see the same machine.
        Before each instance the set-up is repeated (same seed, same bytes)."""
        out: dict[str, list[Outcome]] = {mode: [] for mode in modes}
        for job in self.jobs:
            for _ in range(SETUP_REPEATS):
                self.setup()
            for mode in modes:
                out[mode].append(self.call(job, mode))
        return out


def is_expected(o: Outcome) -> bool:
    """The deadline call's overrun is a known fault, not a wrong output."""
    return o.job.deadline is not None and all(p.startswith("deadline overrun") for p in o.problems)


def layer_metrics(untraced: list[Outcome], traced: list[Outcome]) -> dict[str, float]:
    """Per-layer sums over the traced calls, ratios, and tracing overhead."""
    from layertrace import RECORDED, TOP_LEVEL

    timed = [o for o in traced if o.job.deadline is None]
    v: dict[str, float] = dict.fromkeys(RECORDED + ("metrics.validate_s",), 0)
    for o in timed:
        for name, amount in o.layers.items():
            v[name] = v.get(name, 0) + amount
    v["assign.budget_bound"] /= len(timed)
    v["assign.nodes_per_s"] = v["assign.nodes"] / max(v["assign.s"], 1e-9)
    v["refine.loop_s_per_op"] = v["refine.loop_s"] / max(v["refine.ops"], 1)
    v["refine.applied_per_attempt"] = v["refine.ops"] / max(v["refine.attempts"], 1)
    traced_s = sum(o.wall_s for o in timed)
    untraced_s = sum(o.wall_s for o in untraced if o.job.deadline is None)
    v["trace.partition_s"] = traced_s
    v["trace.overhead_s"] = traced_s - untraced_s
    v["trace.span_share"] = sum(v[name] for name in TOP_LEVEL) / traced_s
    return v


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length the workloads are sized for; every run makes all its calls")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mfspart" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: no {SRC / 'mfspart'} or {BENCHMARK}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        runner = Runner(workload, args.seed, work)
        rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calls = runner.calls(("untraced", "traced") if args.trace else ("untraced",))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    outcomes = [o for mode in calls.values() for o in mode]
    failed = [o for o in outcomes if o.problems]
    for name, (sol_sha, rep_sha) in sorted(runner.hashes.items()):
        print(f"sha256 {workload.name} seed={args.seed} {name} sol={sol_sha} report={rep_sha}")
    print(f"rss_before_calls_mb={rss_before_mb:.1f}")
    for o in calls["untraced"]:
        if o.report:
            print(f"result {o.job.name} wall_s={o.wall_s:.3f} cpu_s={o.cpu_s:.3f} thd={o.report['total_hop_distance']} "
                  f"max_fpga_io={max(o.report['fpga_io'])} max_hop_used={o.report['max_hop_used']}")
    for o in failed:
        tag = "expected-failure" if is_expected(o) else "FAILED"
        print(f"{tag} {o.job.name}: " + "; ".join(o.problems))
    timed = [o for o in calls["untraced"] if o.job.deadline is None]
    if args.trace:
        values = layer_metrics(calls["untraced"], calls["traced"])
    else:
        values = {
            "partition_s": sum(o.cpu_s for o in timed),
            "thd": sum(o.report.get("total_hop_distance", 0) for o in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(runner.setup_times),
        }
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": all(is_expected(o) for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
