"""Per-layer spans and counts, recorded from outside the package.

`LayerTrace.installed()` wraps, for the duration of a `with` block, the
public functions that `mfspart.cli` calls (parsers, hop matrix,
coarsening, assignment, refinement, projection, report, THD) and the two
that `refine.refine_level` calls (`RefineState` and `run_refine_loop`),
plus `RefineState.try_apply`.  Every wrapper calls the original with the
same arguments and returns its result unchanged; the originals are put back
when the block ends.  Nothing in `src/mfspart` is edited.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import mfspart.cli as cli
import mfspart.io as mio
import mfspart.refine as refine

# spans that `cli.main` enters directly; nested spans are left out so the
# sum of these is the traced share of a partition call's wall time
TOP_LEVEL = (
    "io.parse_s",
    "io.write_s",
    "topology.hop_matrix_s",
    "coarsen.s",
    "assign.s",
    "refine.s",
    "refine.project_s",
    "metrics.report_s",
    "metrics.thd_s",
)

# every name a call records, so a traced run always reports all of them
RECORDED = TOP_LEVEL + (
    "coarsen.levels",
    "coarsen.coarsest_n",
    "assign.nodes",
    "assign.solutions",
    "assign.budget_bound",
    "assign.thd",
    "refine.levels",
    "refine.bank_build_s",
    "refine.loop_s",
    "refine.ops",
    *(f"refine.ops.{kind}" for kind in refine.ALL_OPS),
    "refine.attempts",
    "refine.rejected",
    "refine.finest_loop_s",
    "refine.finest_attempts",
    "refine.finest_rejected",
)


class LayerTrace:
    """Times (seconds) and counts of one partition call made while
    installed."""

    def __init__(self) -> None:
        self.values: Counter = Counter()
        self.last_loop: dict[str, float] = {}
        self.assign_thd: int | None = None

    def _add(self, name: str, amount) -> None:
        self.values[name] += amount

    def _timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self._add(name, time.perf_counter() - t0)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_coarsen(self, args, levels) -> None:
        self._add("coarsen.levels", len(levels))
        coarsest = levels[-1].hypergraph if levels else args[0]
        self._add("coarsen.coarsest_n", coarsest.num_vertices)

    def _after_assign(self, args, res) -> None:
        self._add("assign.nodes", res.nodes)
        self._add("assign.solutions", res.solutions)
        self._add("assign.budget_bound", int(res.status == "budget"))
        self.assign_thd = res.thd
        if res.thd is not None:
            self._add("assign.thd", res.thd)

    def _after_refine_level(self, args, result) -> None:
        self._add("refine.levels", 1)

    def _after_loop(self, args, applied) -> None:
        state = args[0]
        kinds = Counter(op.kind for op in state.applied)
        self._add("refine.ops", applied)
        for kind in refine.ALL_OPS:
            self._add(f"refine.ops.{kind}", kinds[kind])

    def finish(self) -> None:
        """The last refinement loop of a finished call is its finest level."""
        for name in ("loop_s", "attempts", "rejected"):
            self._add(f"refine.finest_{name}", self.last_loop.get(name, 0))

    @contextmanager
    def installed(self):
        state_cls = refine.RefineState
        original_try_apply = state_cls.try_apply

        def try_apply(state, kind, v, dest):
            op = original_try_apply(state, kind, v, dest)
            self._add("refine.attempts", 1)
            self._add("refine.rejected", int(op is None))
            return op

        loop = self._timed("refine.loop_s", refine.run_refine_loop, self._after_loop)

        def run_refine_loop(*args, **kwargs):
            names = ("loop_s", "attempts", "rejected")
            before = {name: self.values[f"refine.{name}"] for name in names}
            result = loop(*args, **kwargs)
            self.last_loop = {name: self.values[f"refine.{name}"] - before[name] for name in names}
            return result

        patches = [
            (mio, "parse_hypergraph", self._timed("io.parse_s", mio.parse_hypergraph)),
            (mio, "parse_topology", self._timed("io.parse_s", mio.parse_topology)),
            (mio, "write_solution", self._timed("io.write_s", mio.write_solution)),
            (cli, "compute_hop_matrix",
             self._timed("topology.hop_matrix_s", cli.compute_hop_matrix)),
            (cli, "build_hierarchy",
             self._timed("coarsen.s", cli.build_hierarchy, self._after_coarsen)),
            (cli, "parallel_assign",
             self._timed("assign.s", cli.parallel_assign, self._after_assign)),
            (cli, "refine_level",
             self._timed("refine.s", cli.refine_level, self._after_refine_level)),
            (cli, "project_to_finer", self._timed("refine.project_s", cli.project_to_finer)),
            (cli, "metrics_report", self._timed("metrics.report_s", cli.metrics_report)),
            (cli, "total_hop_distance", self._timed("metrics.thd_s", cli.total_hop_distance)),
            (refine, "RefineState", self._timed("refine.bank_build_s", state_cls)),
            (refine, "run_refine_loop", run_refine_loop),
            (state_cls, "try_apply", try_apply),
        ]
        saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
        try:
            for obj, name, fn in patches:
                setattr(obj, name, fn)
            yield self
        finally:
            for obj, name, fn in saved:
                setattr(obj, name, fn)
