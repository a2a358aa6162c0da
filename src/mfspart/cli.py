"""Command-line entry point.

Subcommands: partition, evaluate, validate, gen, oracle, bench.  All
randomness derives from one --seed via the splitmix expansion in
`mfspart.seeds`, so identical flags and seeds reproduce identical solution
and report files byte for byte (as long as no wall-clock limit binds).

A flag of `run_pipeline` or `gen_instance` is passed under the keyword it
feeds, and only when given: every flag left out takes the library's
default.  The CLI's own defaults are --seed, gen's size flags and bench's
suite and budget flags.

Exit codes: 0 success, 2 parse/usage error, 3 proven infeasible (by a
search of the uncoarsened graph), 4 budget exhausted without a feasible
placement, 5 constraint violations.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import io as mio
from .assign import SearchBudget, parallel_assign
from .coarsen import CoarseningConfig, build_hierarchy
from .metrics import MetricsReport, validate
from .metrics import report as metrics_report
# unused here, but bound so that a tracer wrapping it from outside (as
# partbench/layertrace.py does) still finds it
from .metrics import total_hop_distance  # noqa: F401
from .model import Hypergraph, Placement
from .oracle import exhaustive_partition
from .refine import ALL_OPS, op_kinds, project_to_finer, refine_level
from .seeds import TAG_ASSIGN, TAG_COARSEN, TAG_GEN, sub_seed
from .topology import MfsTopology, compute_hop_matrix

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_VIOLATIONS = 5


def parse_ops(text: str) -> tuple[str, ...]:
    """The op kinds of an --ops or --arms text: comma-separated names,
    'none' or nothing for no ops; `refine.op_kinds` resolves and checks
    the names."""
    if text.strip().lower() in ("none", ""):
        return ()
    return op_kinds(tok.strip().lower() for tok in text.split(","))


@dataclass
class PipelineResult:
    placement: Placement | None
    status: str  # "ok" | "infeasible" | "budget"
    report: MetricsReport | None = None  # the placement's, when there is one

    @property
    def thd(self) -> int | None:
        return None if self.report is None else self.report.total_hop_distance


def run_pipeline(
    h: Hypergraph,
    t: MfsTopology,
    *,
    seed: int = 1,
    alpha0: float = CoarseningConfig.alpha0,
    dalpha: float = CoarseningConfig.dalpha,
    n_final: int | None = CoarseningConfig.n_final,
    min_reduction: float = CoarseningConfig.min_reduction,
    n_seeds: int = 1,
    assign_budget: int | None = SearchBudget.max_solutions,
    assign_max_nodes: int | None = SearchBudget.max_nodes,
    stall_delta: float = SearchBudget.stall_delta,
    rho: float = SearchBudget.rho,
    ops: tuple[str, ...] = ALL_OPS,
    max_replicas: int | None = None,
    allow_zero_gain: bool = False,
    time_limit: float | None = None,
    refine_observer=None,
) -> PipelineResult:
    """Coarsen, assign, then project-and-refine back to the original graph.

    `refine_observer`, when given, is called once per refinement pass with
    that pass's hypergraph and must return a per-op callback (or None);
    test instrumentation hooks in through it.  The pipeline itself keeps
    no coarse hypergraph past its pass.

    `time_limit` (wall-clock seconds, finite and non-negative) fixes one
    deadline at the call.  The hop matrix and coarsening run to
    completion; assignment stops at the deadline but gets at least 0.1 s;
    refinement stops at the first entry-build step or op that would start
    past it, keeping the placement valid.

    Status "infeasible" means the search exhausted the uncoarsened graph's
    space; a search on a coarsened graph proves nothing about the input,
    so its failure is "budget".

    The assignment defaults, `n_seeds` searches of at most
    `SearchBudget.max_nodes` DFS nodes each, are the cheapest of a sweep
    of 1, 2 or 4 searches of 20k, 50k or 200k nodes over nine instance
    families (150 to 3,000 vertices; spare 0.1 to 0.6; hub nets; binding
    I/O and hop bounds) whose summed final THD was no higher than that of
    4 searches of 200k nodes, the defaults before.  More nodes lower the
    coarsest graph's THD a little; refinement evens most of that out.

    The numeric arguments and the op kinds are checked before the hop
    matrix is built.  Each call builds one hop matrix, one read-only
    array that every phase and the report read in place.  From assignment to the end the placement is held
    as originals and host mask, projected and refined in that form; then
    one `Placement` is built and one report (`metrics.report`), which the
    result carries and its `thd` reads.
    """
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit >= 0):
        raise ValueError("time_limit must be finite and non-negative")
    if max_replicas is not None and max_replicas < 0:
        raise ValueError("max_replicas must be non-negative")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    op_kinds(ops)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    # both configurations check their fields here, before any phase runs
    cfg = CoarseningConfig(
        alpha0=alpha0,
        dalpha=dalpha,
        n_final=n_final,
        min_reduction=min_reduction,
        seed=sub_seed(seed, TAG_COARSEN),
    )
    budget = SearchBudget(
        max_solutions=assign_budget,
        stall_delta=stall_delta,
        rho=rho,
        max_nodes=assign_max_nodes,
    )
    hm = compute_hop_matrix(t)
    levels = build_hierarchy(h, t, cfg)
    coarsest = levels[-1].hypergraph if levels else h

    seeds = [sub_seed(seed, TAG_ASSIGN, i) for i in range(n_seeds)]
    floor = None if deadline is None else max(deadline, time.monotonic() + 0.1)
    res = parallel_assign(coarsest, t, hm, budget, seeds, deadline=floor)
    if res.placement is None:
        proven = res.status == "complete" and not levels
        return PipelineResult(None, "infeasible" if proven else "budget")

    # refine the coarsest graph, then project onto each finer one and refine;
    # the placement is held as originals and host mask throughout, and each
    # coarse level is dropped once its placement is projected
    placed = np.array(res.placement.original, np.intp), res.placement.host_mask(t.k_fpgas)
    del coarsest, res
    for i in range(len(levels), -1, -1):
        if i < len(levels):
            placed = project_to_finer(levels.pop(), *placed)
        level_h = levels[i - 1].hypergraph if i > 0 else h
        placed = refine_level(
            level_h, placed, t, hm, ops=ops, max_replicas=max_replicas,
            allow_zero_gain=allow_zero_gain,
            observer=refine_observer(level_h) if refine_observer else None,
            deadline=deadline,
        )
    p = Placement.from_mask(*placed)
    return PipelineResult(p, "ok", metrics_report(h, t, p, hm))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_instance(args) -> tuple[Hypergraph, MfsTopology]:
    h = mio.parse_hypergraph(_read(args.hypergraph))
    t = mio.parse_topology(_read(args.topology))
    mio.InstanceBundle(h, t)  # k agreement check
    return h, t


def _load_solved(args) -> tuple[Hypergraph, MfsTopology, Placement]:
    """The instance and a solution that covers each of its vertices once."""
    h, t = _load_instance(args)
    p = mio.parse_solution(_read(args.solution))
    if p.num_vertices != h.num_vertices:
        raise ValueError(
            f"solution covers {p.num_vertices} vertices, instance has {h.num_vertices}"
        )
    return h, t, p


def _keywords(fn) -> dict[str, object]:
    """The keyword-only parameters of `fn`, with their defaults."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


PIPELINE_KEYWORDS = _keywords(run_pipeline)
GEN_KEYWORDS = _keywords(mio.gen_instance)


def _given(args, keywords: dict[str, object]) -> dict:
    """The parsed flags that name one of `keywords`: the given ones, and
    those with a default of the CLI's own."""
    return {k: v for k, v in vars(args).items() if k in keywords}


def _add_gen_flags(sp: argparse.ArgumentParser) -> None:
    """The shape flags of `gen_instance`, each stored under its keyword."""
    sp.add_argument("--spare", type=float)
    sp.add_argument("--max-fanout", type=int)
    sp.add_argument("--hub-fraction", type=float)
    sp.add_argument("--hub-fanout", type=int)
    sp.add_argument("--driver-fraction", type=float)
    sp.add_argument("--locality", type=int)
    sp.add_argument("--extra-links", type=int)
    sp.add_argument("--max-vertex-weight", type=int)
    sp.add_argument("--max-edge-weight", type=int)
    sp.add_argument("--io-limit", type=int)
    sp.add_argument("--hop-max", type=int)


def _add_pipeline_flags(sp: argparse.ArgumentParser, ops: bool = True, **defaults) -> None:
    """The flags of `run_pipeline`, each stored under its keyword;
    `ops=False` leaves out `--ops`, for a command that chooses the ops
    itself, and `defaults` are the command's own, in place of the
    library's."""
    default = {**PIPELINE_KEYWORDS, **defaults}
    sp.add_argument("--seed", type=int, default=1, help="master seed (all RNG derives from it)")
    sp.add_argument("--alpha0", type=float)
    sp.add_argument("--dalpha", type=float)
    sp.add_argument("--nfinal", type=int, dest="n_final", metavar="NFINAL",
                    help="coarsest size target (default max(128, 16K))")
    sp.add_argument("--min-reduction", type=float)
    sp.add_argument("--seeds", type=int, dest="n_seeds", metavar="SEEDS",
                    help="number of perturbed assignment searches, run one after another "
                         f"(default {default['n_seeds']})")
    sp.add_argument("--assign-budget", type=int,
                    help=f"max solutions per search (default {default['assign_budget']})")
    sp.add_argument("--assign-max-nodes", type=int,
                    help=f"max DFS nodes per search (default {default['assign_max_nodes']})")
    sp.add_argument("--stall-delta", type=float)
    sp.add_argument("--rho", type=float)
    if ops:
        sp.add_argument("--ops", help="refinement ops subset, or 'none'")
    sp.add_argument("--max-replicas", type=int, help="cap on replicates per level")
    sp.add_argument("--allow-zero-gain", action="store_true")
    sp.add_argument("--time-limit", type=float, help="seconds; may break reproducibility")
    sp.set_defaults(**defaults)


def cmd_partition(args) -> int:
    h, t = _load_instance(args)
    if h.num_vertices == 0:
        print("error: hypergraph has no vertices to partition", file=sys.stderr)
        return EXIT_PARSE
    kwargs = _given(args, PIPELINE_KEYWORDS)
    if "ops" in kwargs:
        kwargs["ops"] = parse_ops(kwargs["ops"])
    result = run_pipeline(h, t, **kwargs)
    if result.placement is None:
        if result.status == "infeasible":
            print("no solution: assignment search space exhausted", file=sys.stderr)
            return EXIT_INFEASIBLE
        print("no solution within budget", file=sys.stderr)
        return EXIT_BUDGET
    _write(args.output, mio.write_solution(result.placement))
    _write(args.report, result.report.to_text())
    return EXIT_OK


def cmd_evaluate(args) -> int:
    h, t, p = _load_solved(args)
    hm = compute_hop_matrix(t)
    bad = validate(h, t, p, hm)
    for vio in bad:
        print(f"violation: {vio.kind} at {vio.index}: {vio.observed} > {vio.limit} {vio.detail}",
              file=sys.stderr)
    # a placement violation (an FPGA id out of range, say) leaves nothing to report
    if not any(vio.kind == "placement" for vio in bad):
        _write(args.report, metrics_report(h, t, p, hm).to_text())
    return EXIT_VIOLATIONS if bad else EXIT_OK


def cmd_validate(args) -> int:
    h, t, p = _load_solved(args)
    bad = validate(h, t, p)
    for vio in bad:
        print(f"violation: {vio.kind} at {vio.index}: {vio.observed} > {vio.limit} {vio.detail}")
    return EXIT_VIOLATIONS if bad else EXIT_OK


def cmd_gen(args) -> int:
    bundle = mio.gen_instance(
        sub_seed(args.seed, TAG_GEN), args.vertices, args.edges, args.fpgas, args.types,
        **_given(args, GEN_KEYWORDS),
    )
    _write(args.prefix + ".hg", mio.write_hypergraph(bundle.hypergraph))
    _write(args.prefix + ".topo", mio.write_topology(bundle.topology))
    return EXIT_OK


def cmd_oracle(args) -> int:
    h, t = _load_instance(args)
    p, thd = exhaustive_partition(h, t)
    if p is None:
        print("no solution")
        return EXIT_INFEASIBLE
    print(f"thd {thd}")
    sys.stdout.write(mio.write_solution(p))
    return EXIT_OK


def cmd_bench(args) -> int:
    arms = [a.strip() for a in args.arms.split(";") if a.strip()]
    if not arms:
        raise ValueError(f"--arms {args.arms!r} names no arm")
    arm_ops = [parse_ops(arm) for arm in arms]
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    suite = _given(args, GEN_KEYWORDS)
    pipeline = _given(args, PIPELINE_KEYWORDS)
    rows = []
    for idx in range(args.count):
        gen_seed = sub_seed(args.seed, TAG_GEN, idx)
        bundle = mio.gen_instance(
            gen_seed, args.vertices, args.edges, args.fpgas, args.types, **suite
        )
        for arm, ops in zip(arms, arm_ops):
            t0 = time.monotonic()
            res = run_pipeline(bundle.hypergraph, bundle.topology, ops=ops, **pipeline)
            dt = time.monotonic() - t0
            row = (f"gen{idx:03d}", args.seed, arm)
            if res.placement is None:
                rows.append((*row, "", "", "", f"{dt:.3f}"))
                continue
            rep = res.report
            rows.append((*row, rep.total_hop_distance, rep.cut_size, rep.replica_count,
                         f"{dt:.3f}"))
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["instance", "seed", "arm", "thd", "cut", "replicas", "runtime_s"])
        writer.writerows(rows)
        # summary: per arm, mean THD and the mean of per-instance ratios
        # against the first arm (rows without a finite baseline are skipped)
        by_arm: dict[str, dict[str, int]] = {arm: {} for arm in arms}
        for r in rows:
            if r[3] != "":
                by_arm[r[2]][r[0]] = r[3]
        base = by_arm[arms[0]]
        writer.writerow([])
        writer.writerow(["arm", "mean_thd", "mean_ratio_vs_first"])
        for arm in arms:
            vals = list(by_arm[arm].values())
            mean_thd = sum(vals) / len(vals) if vals else float("nan")
            ratios = [
                by_arm[arm][inst] / base[inst]
                for inst in by_arm[arm]
                if base.get(inst, 0) > 0
            ]
            mean_ratio = sum(ratios) / len(ratios) if ratios else float("nan")
            writer.writerow([arm, f"{mean_thd:.2f}", f"{mean_ratio:.4f}"])
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every `main` call reads its own flags only."""
    ap = argparse.ArgumentParser(prog="mfspart", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    # partition, gen and bench leave a flag without a default below unset
    # unless it is given, so that the library's default applies
    unset = argparse.SUPPRESS

    sp = sub.add_parser("partition", help="partition an instance end to end",
                        argument_default=unset)
    sp.add_argument("hypergraph")
    sp.add_argument("topology")
    sp.add_argument("-o", "--output", default="-", help="solution file ('-' = stdout)")
    sp.add_argument("--report", default="-", help="metrics report file ('-' = stdout)")
    _add_pipeline_flags(sp)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("evaluate", help="score a solution and print the metrics report")
    sp.add_argument("hypergraph")
    sp.add_argument("topology")
    sp.add_argument("solution")
    sp.add_argument("--report", default="-")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("validate", help="list constraint violations of a solution")
    sp.add_argument("hypergraph")
    sp.add_argument("topology")
    sp.add_argument("solution")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("gen", help="generate a random instance", argument_default=unset)
    sp.add_argument("prefix", help="output path prefix (.hg and .topo are appended)")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--vertices", type=int, default=100)
    sp.add_argument("--edges", type=int, default=200)
    sp.add_argument("--fpgas", type=int, default=4)
    sp.add_argument("--types", type=int, default=2)
    _add_gen_flags(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("oracle", help="exhaustive optimum for tiny instances")
    sp.add_argument("hypergraph")
    sp.add_argument("topology")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("bench", help="run ops-subset arms over a generated suite, emit CSV",
                        argument_default=unset)
    sp.add_argument("--out", default="-")
    sp.add_argument("--arms", default="none;mv,ex;mv,ex,rep,del")
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--vertices", type=int, default=200)
    sp.add_argument("--edges", type=int, default=400)
    sp.add_argument("--fpgas", type=int, default=4)
    sp.add_argument("--types", type=int, default=2)
    _add_gen_flags(sp)
    # --seed also seeds the generated suite; --arms chooses the ops
    _add_pipeline_flags(sp, ops=False, n_seeds=2, assign_budget=16)
    sp.set_defaults(func=cmd_bench, spare=0.3, hub_fraction=0.15, hub_fanout=12)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ValueError includes mio.ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
