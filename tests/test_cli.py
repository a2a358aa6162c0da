import csv
import gc
import hashlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from mfspart.cli import main, run_pipeline
from mfspart.io import (
    gen_instance,
    parse_hypergraph,
    parse_solution,
    parse_topology,
    write_hypergraph,
    write_solution,
    write_topology,
)
from mfspart.metrics import report, validate
from mfspart.model import Hyperedge, Hypergraph, ResourceVector, Vertex
from mfspart.oracle import exhaustive_partition
from mfspart.seeds import TAG_GEN, sub_seed


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def instance(tmp_path):
    assert run(["gen", tmp_path / "case", "--seed", 9, "--vertices", 24,
                "--edges", 40, "--fpgas", 3, "--types", 2]) == 0
    return tmp_path / "case.hg", tmp_path / "case.topo"


def test_gen_writes_parseable_files(instance):
    hg, topo = instance
    h = parse_hypergraph(hg.read_text())
    t = parse_topology(topo.read_text())
    assert h.num_vertices == 24
    assert t.k_fpgas == 3


def test_gen_deterministic_files(tmp_path):
    for name in ("a", "b"):
        assert run(["gen", tmp_path / name, "--seed", 5, "--vertices", 12,
                    "--edges", 18, "--fpgas", 2]) == 0
    assert (tmp_path / "a.hg").read_bytes() == (tmp_path / "b.hg").read_bytes()
    assert (tmp_path / "a.topo").read_bytes() == (tmp_path / "b.topo").read_bytes()


@pytest.mark.parametrize("spare", ["inf", "nan"])
@pytest.mark.parametrize("command", ["gen", "bench"])
def test_non_finite_spare_exit_code(tmp_path, capsys, command, spare):
    # an infinite spare used to die in an OverflowError traceback (exit 1)
    out = tmp_path / "x"
    argv = [command, out] if command == "gen" else [command, "--out", out, "--count", 1]
    assert run([*argv, "--spare", spare]) == 2
    assert capsys.readouterr().err == "error: spare fraction must be finite and non-negative\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--hub-fanout", 1, "hub_fanout must be at least 2, got 1"),
        ("--max-vertex-weight", 0, "max_vertex_weight must be at least 1, got 0"),
        ("--max-fanout", 0, "max_fanout must be at least 1, got 0"),
        ("--hub-fraction", "nan", "hub_fraction must be a fraction in [0, 1], got nan"),
        ("--locality", 0, "locality must be at least 1, got 0"),
        ("--locality", -5, "locality must be at least 1, got -5"),
        ("--extra-links", -1, "extra_links must be at least 0, got -1"),
        ("--edges", -3, "n_edges must be at least 0, got -3"),
    ],
    ids=["hub-fanout", "max-vertex-weight", "max-fanout", "hub-fraction",
         "locality-zero", "locality-negative", "extra-links", "edges"],
)
def test_gen_shape_flag_exit_code(tmp_path, capsys, flag, value, message):
    assert run(["gen", tmp_path / "x", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_adds_no_defaults_of_its_own(tmp_path):
    # a flag left out takes gen_instance's default; only the size flags
    # and --seed have defaults in the CLI
    assert run(["gen", tmp_path / "g", "--seed", 4]) == 0
    b = gen_instance(sub_seed(4, TAG_GEN), 100, 200, 4, 2)
    assert (tmp_path / "g.hg").read_text() == write_hypergraph(b.hypergraph)
    assert (tmp_path / "g.topo").read_text() == write_topology(b.topology)


# sha256 of the .hg and .topo files that `gen` wrote for these flags
# before its flags were passed to gen_instance only when given
PINNED_GEN = [
    ("defaults", [],
     "93031fa6c31250dc1b9f92dd2b13ba7b983c0d4e8e24133680b8a2feedb55364",
     "b462d7a17a9fabb1217267a9dfaebee1d841b7d2464e812bca157c7a5f3a504b"),
    ("hub", ["--vertices", 150, "--edges", 180, "--fpgas", 8, "--hub-fanout", 64,
             "--io-limit", 155, "--hop-max", 3],
     "8a1884a003066135a8e038716018403f1e9a0fe421853690b465e9f789300c08",
     "23763a6dbc2008dfa2fceba60ffa402f6133d09b6d3c9c4cf8c35eb326df05f2"),
]


@pytest.mark.parametrize(
    "flags, hg_sha, topo_sha", [case[1:] for case in PINNED_GEN], ids=[c[0] for c in PINNED_GEN]
)
def test_pinned_gen_bytes(tmp_path, flags, hg_sha, topo_sha):
    assert run(["gen", tmp_path / "g", *flags]) == 0
    assert hashlib.sha256((tmp_path / "g.hg").read_bytes()).hexdigest() == hg_sha
    assert hashlib.sha256((tmp_path / "g.topo").read_bytes()).hexdigest() == topo_sha


def test_partition_adds_no_defaults_of_its_own(tmp_path):
    # with no flags, partition writes what run_pipeline's defaults give
    b = gen_instance(11, 40, 60, 3, 2)
    hg, topo = tmp_path / "i.hg", tmp_path / "i.topo"
    hg.write_text(write_hypergraph(b.hypergraph))
    topo.write_text(write_topology(b.topology))
    sol, rep = tmp_path / "o.sol", tmp_path / "o.report"
    assert run(["partition", hg, topo, "-o", sol, "--report", rep]) == 0
    res = run_pipeline(b.hypergraph, b.topology)
    assert sol.read_text() == write_solution(res.placement)
    assert rep.read_text() == report(b.hypergraph, b.topology, res.placement).to_text()


def test_consecutive_calls_parse_independently(tmp_path):
    # the parser is built once per process; no flag of one call may reach
    # the next, whichever subcommands the two run
    import mfspart.cli as cli

    assert cli.build_parser() is cli.build_parser()
    assert run(["gen", tmp_path / "a", "--seed", 4, "--vertices", 30, "--edges", 45,
                "--fpgas", 3, "--spare", 0.9, "--hub-fanout", 6]) == 0
    hg, topo = tmp_path / "a.hg", tmp_path / "a.topo"
    sol, rep = tmp_path / "a.sol", tmp_path / "a.report"
    assert run(["partition", hg, topo, "-o", sol, "--report", rep, "--seeds", 2,
                "--ops", "mv", "--max-replicas", 0, "--allow-zero-gain"]) == 0
    assert run(["evaluate", hg, topo, sol, "--report", tmp_path / "eval.report"]) == 0
    assert (tmp_path / "eval.report").read_bytes() == rep.read_bytes()
    assert run(["gen", tmp_path / "g", "--seed", 4]) == 0
    b = gen_instance(sub_seed(4, TAG_GEN), 100, 200, 4, 2)
    assert (tmp_path / "g.hg").read_text() == write_hypergraph(b.hypergraph)
    assert (tmp_path / "g.topo").read_text() == write_topology(b.topology)
    assert run(["partition", hg, topo, "-o", sol, "--report", rep]) == 0
    h, t = parse_hypergraph(hg.read_text()), parse_topology(topo.read_text())
    assert sol.read_text() == write_solution(run_pipeline(h, t).placement)


def test_partition_evaluate_validate_round_trip(tmp_path, instance):
    hg, topo = instance
    sol = tmp_path / "out.sol"
    rep = tmp_path / "out.report"
    assert run(["partition", hg, topo, "-o", sol, "--report", rep, "--seed", 3,
                "--assign-max-nodes", 4000]) == 0
    h = parse_hypergraph(hg.read_text())
    t = parse_topology(topo.read_text())
    p = parse_solution(sol.read_text())
    assert validate(h, t, p) == []
    assert rep.read_text().startswith("{")
    assert run(["evaluate", hg, topo, sol, "--report", tmp_path / "eval.report"]) == 0
    assert run(["validate", hg, topo, sol]) == 0


def test_partition_deterministic_outputs(tmp_path, instance):
    hg, topo = instance
    outs = []
    for tag in ("1", "2"):
        sol = tmp_path / f"s{tag}.sol"
        rep = tmp_path / f"r{tag}.report"
        assert run(["partition", hg, topo, "-o", sol, "--report", rep, "--seed", 42,
                    "--assign-max-nodes", 4000]) == 0
        outs.append((sol.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


def test_partition_ops_subsets(tmp_path, instance):
    hg, topo = instance
    for ops in ("none", "mv,ex", "mv,ex,rep,del"):
        sol = tmp_path / f"{ops.replace(',', '_')}.sol"
        assert run(["partition", hg, topo, "-o", sol, "--report",
                    tmp_path / "rep.tmp", "--ops", ops, "--seed", 2,
                    "--assign-max-nodes", 4000]) == 0


def test_partition_parse_error_exit_code(tmp_path, instance):
    hg, topo = instance
    bad = tmp_path / "bad.hg"
    bad.write_text("not a header\n")
    assert run(["partition", bad, topo, "-o", tmp_path / "x.sol"]) == 2
    assert run(["partition", tmp_path / "missing.hg", topo]) == 2


def test_unwritable_output_exit_code(tmp_path, instance, capsys):
    # an output path in a missing directory is an OSError, reported like a
    # parse error rather than as a traceback
    hg, topo = instance
    missing = tmp_path / "no-such-dir"
    assert run(["partition", hg, topo, "-o", missing / "x.sol",
                "--assign-max-nodes", 4000]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert run(["gen", missing / "case", "--vertices", 12, "--edges", 18]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert not missing.exists()


def test_partition_empty_hypergraph_exit_code(tmp_path, capsys):
    (tmp_path / "h.hg").write_text("0 0 2\n")
    (tmp_path / "t.topo").write_text("2 1 2\n5 5\n5 5\n0 1\n")
    sol = tmp_path / "x.sol"
    assert run(["partition", tmp_path / "h.hg", tmp_path / "t.topo", "-o", sol]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not sol.exists()


def test_partition_infeasible_exit_code(tmp_path):
    (tmp_path / "h.hg").write_text("1 0 1\n9\n")
    (tmp_path / "t.topo").write_text("2 1 1\n5\n5\n0 1\n")
    assert run(["partition", tmp_path / "h.hg", tmp_path / "t.topo",
                "-o", tmp_path / "x.sol"]) == 3


def test_evaluate_flags_violations(tmp_path):
    (tmp_path / "h.hg").write_text("2 1 1\n3\n3\n2 0 1\n")
    (tmp_path / "t.topo").write_text("2 1 1\n4\n4\n0 1\n")
    # both vertices on FPGA 0: resource violation (6 > 4)
    (tmp_path / "bad.sol").write_text("0\n0\n")
    assert run(["evaluate", tmp_path / "h.hg", tmp_path / "t.topo",
                tmp_path / "bad.sol", "--report", tmp_path / "r.report"]) == 5
    assert run(["validate", tmp_path / "h.hg", tmp_path / "t.topo",
                tmp_path / "bad.sol"]) == 5


def test_evaluate_size_mismatch(tmp_path, instance):
    hg, topo = instance
    (tmp_path / "short.sol").write_text("0\n")
    assert run(["evaluate", hg, topo, tmp_path / "short.sol"]) == 2


def test_validate_truncated_solution_exit_code(tmp_path, instance, capsys):
    hg, topo = instance
    (tmp_path / "short.sol").write_text("0\n")
    assert run(["validate", hg, topo, tmp_path / "short.sol"]) == 2
    assert capsys.readouterr().err == "error: solution covers 1 vertices, instance has 24\n"


def test_validate_extra_lines_exit_code(tmp_path, instance, capsys):
    hg, topo = instance
    (tmp_path / "long.sol").write_text("0\n" * 25)
    assert run(["validate", hg, topo, tmp_path / "long.sol"]) == 2
    assert capsys.readouterr().err == "error: solution covers 25 vertices, instance has 24\n"


def test_evaluate_fpga_out_of_range_exit_code(tmp_path, capsys):
    # FPGA 2 does not exist on a 2-FPGA topology: the violation is
    # printed and no report is written
    (tmp_path / "h.hg").write_text("2 1 1\n1\n1\n1 0 1\n")
    (tmp_path / "t.topo").write_text("2 1 1\n5\n5\n0 1\n")
    (tmp_path / "bad.sol").write_text("0\n2\n")
    rep = tmp_path / "r.report"
    assert run(["evaluate", tmp_path / "h.hg", tmp_path / "t.topo",
                tmp_path / "bad.sol", "--report", rep]) == 5
    assert capsys.readouterr().err.startswith("violation: placement at 1:")
    assert not rep.exists()


@pytest.mark.parametrize("n_final", [0, -5])
def test_partition_nfinal_below_one_exit_code(tmp_path, instance, capsys, n_final):
    hg, topo = instance
    assert run(["partition", hg, topo, "-o", tmp_path / "x.sol", "--nfinal", n_final]) == 2
    assert capsys.readouterr().err == "error: n_final must be at least 1\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--time-limit", "nan", "time_limit must be finite and non-negative"),
        ("--alpha0", "nan", "alpha0 must be finite and positive"),
        ("--dalpha", "nan", "dalpha must be finite and non-negative"),
        ("--dalpha", "inf", "dalpha must be finite and non-negative"),
    ],
    ids=["time-limit-nan", "alpha0-nan", "dalpha-nan", "dalpha-inf"],
)
def test_partition_non_finite_flag_exit_code(tmp_path, instance, capsys, flag, value, message):
    # a NaN deadline never trips, and an infinite dalpha makes the level-0
    # alpha inf * 0 = NaN: each is a usage error, not a run
    hg, topo = instance
    assert run(["partition", hg, topo, "-o", tmp_path / "x.sol", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.sol").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--assign-max-nodes", 0, "max_nodes must be at least 1"),
        ("--assign-max-nodes", -5, "max_nodes must be at least 1"),
        ("--assign-budget", 0, "max_solutions must be at least 1"),
    ],
    ids=["max-nodes-0", "max-nodes-negative", "assign-budget-0"],
)
def test_partition_assign_budget_below_one_exit_code(tmp_path, instance, capsys, flag, value,
                                                     message):
    # a search with no node or no solution to spend is a usage error, not
    # a budget exit (4) or a run with a budget of one
    hg, topo = instance
    assert run(["partition", hg, topo, "-o", tmp_path / "x.sol", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.sol").exists()


@pytest.mark.parametrize("value", [-1, -5])
def test_partition_negative_max_replicas_exit_code(tmp_path, instance, capsys, value):
    # a negative cap used to read as a cap of 0: no replicate was applied
    # and the run exited 0
    hg, topo = instance
    assert run(["partition", hg, topo, "-o", tmp_path / "x.sol", "--max-replicas", value]) == 2
    assert capsys.readouterr().err == "error: max_replicas must be non-negative\n"
    assert not (tmp_path / "x.sol").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seeds", 0, "n_seeds must be at least 1, got 0"),
        ("--seeds", -2, "n_seeds must be at least 1, got -2"),
        ("--assign-max-nodes", 0, "max_nodes must be at least 1"),
        ("--rho", 2, "rho must be in (0, 1)"),
        ("--alpha0", "nan", "alpha0 must be finite and positive"),
    ],
    ids=["seeds-0", "seeds-negative", "max-nodes-0", "rho-2", "alpha0-nan"],
)
def test_partition_bad_flag_refused_before_any_phase(tmp_path, instance, capsys, monkeypatch,
                                                     flag, value, message):
    # these were refused only after the hop matrix (and, but for alpha0,
    # the coarsening) had run, and --seeds 0 named no flag
    import mfspart.cli as cli

    ran = []
    for name in ("compute_hop_matrix", "build_hierarchy"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _n=name, _f=real: ran.append(_n) or _f(*a))
    hg, topo = instance
    assert run(["partition", hg, topo, "-o", tmp_path / "x.sol", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert ran == []
    assert not (tmp_path / "x.sol").exists()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"ops": ("bogus",)}, "unknown op kinds: ['bogus']"),
        ({"ops": ("mv", "swap")}, "unknown op kinds: ['swap']"),
    ],
    ids=["op", "op-after-alias"],
)
def test_run_pipeline_bad_name_refused_before_any_phase(monkeypatch, kwargs, message):
    # an unknown op was refused only once coarsening and assignment had
    # run; the library call refuses it first
    import mfspart.cli as cli

    ran = []
    for name in ("compute_hop_matrix", "build_hierarchy"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _n=name, _f=real: ran.append(_n) or _f(*a))
    b = gen_instance(9, 24, 40, 3, 2)
    with pytest.raises(ValueError) as err:
        run_pipeline(b.hypergraph, b.topology, **kwargs)
    assert str(err.value) == message
    assert ran == []
    # no ops at all is a valid request: the assigned placement, unrefined
    res = run_pipeline(b.hypergraph, b.topology, ops=())
    assert res.status == "ok" and ran == ["compute_hop_matrix", "build_hierarchy"]


@pytest.mark.parametrize(
    "argv, out",
    [
        (["partition", "{hg}", "{topo}", "-o", "{dir}/x.sol", "--ops", "mv,bogus"], "x.sol"),
        (["bench", "--out", "{dir}/b.csv", "--count", 1, "--arms", "none;bogus"], "b.csv"),
    ],
    ids=["partition-ops", "bench-arms"],
)
def test_cli_unknown_op_refused_with_the_library_message(tmp_path, instance, capsys, argv, out):
    # --ops and --arms names are resolved and checked by the library's one
    # rule, so the CLI and run_pipeline refuse an unknown name alike
    hg, topo = instance
    args = [str(a).format(hg=hg, topo=topo, dir=tmp_path) for a in argv]
    assert run(args) == 2
    assert capsys.readouterr().err == "error: unknown op kinds: ['bogus']\n"
    assert not (tmp_path / out).exists()


def test_coarsened_search_failure_is_budget_not_infeasible():
    # the search exhausts the coarsest graph of this instance, but the
    # input has a placement: only an uncoarsened search proves anything
    b = gen_instance(0, 8, 12, 3, 1, spare=0.1)
    res = run_pipeline(b.hypergraph, b.topology, n_final=2)
    assert (res.placement, res.status) == (None, "budget")
    p, thd = exhaustive_partition(b.hypergraph, b.topology)
    assert p is not None and thd == 15


def test_oracle_subcommand(tmp_path, capsys):
    (tmp_path / "h.hg").write_text("2 1 1\n1\n1\n1 0 1\n")
    (tmp_path / "t.topo").write_text("2 1 1\n5\n5\n0 1\n")
    assert run(["oracle", tmp_path / "h.hg", tmp_path / "t.topo"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "thd 0"


def test_bench_without_arms_exit_code(tmp_path, capsys):
    assert run(["bench", "--out", tmp_path / "b.csv", "--count", 1, "--arms", ";"]) == 2
    assert capsys.readouterr().err.startswith("error: --arms ';' names no arm")


@pytest.mark.parametrize("count", [0, -1])
def test_bench_without_instances_exit_code(tmp_path, capsys, count):
    out = tmp_path / "b.csv"
    assert run(["bench", "--out", out, "--count", count]) == 2
    assert capsys.readouterr().err.startswith("error: --count must be at least 1")
    assert not out.exists()


def test_bench_emits_rows_and_summary(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--out", out, "--count", 2, "--vertices", 20,
                "--edges", 30, "--fpgas", 3, "--seed", 4,
                "--arms", "none;mv,ex;mv,ex,rep,del",
                "--assign-max-nodes", 3000]) == 0
    rows = list(csv.reader(out.open()))
    header = rows[0]
    assert header == ["instance", "seed", "arm", "thd", "cut", "replicas", "runtime_s"]
    data = [r for r in rows[1:] if r and r[0].startswith("gen")]
    assert len(data) == 6  # 2 instances x 3 arms
    arms = {r[2] for r in data}
    assert arms == {"none", "mv,ex", "mv,ex,rep,del"}
    # spreadsheet check: the summary column must equal the mean of the
    # per-instance thd ratios against the first arm
    summary = {r[0]: float(r[2]) for r in rows[-3:]}
    base = {r[0]: int(r[3]) for r in data if r[2] == "none"}
    for arm in ("none", "mv,ex", "mv,ex,rep,del"):
        ratios = [int(r[3]) / base[r[0]] for r in data if r[2] == arm and base[r[0]] > 0]
        assert summary[arm] == pytest.approx(sum(ratios) / len(ratios), abs=1e-4)


# rows of a default `mfspart bench --count 1`, runtime left out, recorded
# before bench took its pipeline flags from the ones `partition` has
PINNED_BENCH_ROWS = [
    ["gen000", "1", "none", "518", "281", "0"],
    ["gen000", "1", "mv,ex", "313", "189", "0"],
    ["gen000", "1", "mv,ex,rep,del", "259", "188", "15"],
]


def test_bench_keeps_its_defaults_and_passes_pipeline_flags(tmp_path, monkeypatch, capsys):
    import mfspart.cli as cli

    out = tmp_path / "bench.csv"
    assert run(["bench", "--out", out, "--count", 1]) == 0
    rows = [r for r in csv.reader(out.open()) if r and r[0].startswith("gen")]
    assert [r[:6] for r in rows] == PINNED_BENCH_ROWS
    # every pipeline flag reaches run_pipeline, except that --arms, not
    # --ops, chooses the ops
    seen = []
    real = cli.run_pipeline

    def spy(h, t, **kwargs):
        seen.append(kwargs)
        return real(h, t, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", spy)
    assert run(["bench", "--out", out, "--count", 1, "--vertices", 30, "--edges", 45,
                "--arms", "mv,ex", "--rho", 0.45, "--nfinal", 40,
                "--max-replicas", 2]) == 0
    assert len(seen) == 1
    kwargs = seen[0]
    assert (kwargs["rho"], kwargs["n_final"], kwargs["max_replicas"]) == (0.45, 40, 2)
    assert kwargs["ops"] == ("move", "exchange")
    assert (kwargs["n_seeds"], kwargs["assign_budget"]) == (2, 16)
    # bench's node budget is the library's own default, which --help shows
    assert "assign_max_nodes" not in kwargs
    with pytest.raises(SystemExit):
        run(["bench", "--help"])
    assert "max DFS nodes per search (default 20000)" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit):
        run(["bench", "--out", out, "--count", 1, "--ops", "mv"])


def test_bench_takes_every_generator_flag(tmp_path, monkeypatch):
    # bench builds its suite from the shape flags gen has, so a sweep can
    # run bounded or suite30-like instances; its own suite defaults stay
    import mfspart.cli as cli

    seen = []
    real = cli.mio.gen_instance

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.mio, "gen_instance", spy)
    flags = {"--io-limit": 155, "--hop-max": 3, "--driver-fraction": 0.03,
             "--max-vertex-weight": 6, "--locality": 5, "--extra-links": 1}
    argv = [a for kv in flags.items() for a in kv]
    assert run(["bench", "--out", tmp_path / "b.csv", "--count", 1, "--vertices", 30,
                "--edges", 45, "--arms", "none", *argv]) == 0
    assert seen == [{"spare": 0.3, "hub_fraction": 0.15, "hub_fanout": 12, "io_limit": 155,
                     "hop_max": 3, "driver_fraction": 0.03, "max_vertex_weight": 6,
                     "locality": 5, "extra_links": 1}]


def test_partition_budget_exhausted_exit_code(tmp_path):
    # two heavy vertices on two unit FPGAs: feasible split exists, but one
    # search node cannot reach it
    (tmp_path / "h.hg").write_text("2 1 1\n1\n1\n1 0 1\n")
    (tmp_path / "t.topo").write_text("2 1 1\n1\n1\n0 1\n")
    assert run(["partition", tmp_path / "h.hg", tmp_path / "t.topo",
                "-o", tmp_path / "x.sol", "--assign-max-nodes", 1,
                "--seeds", 1]) == 4


def _python(*argv):
    """A fresh interpreter's run of `argv`, with this tree's package first
    on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_python_dash_m_runs_the_cli():
    # both the package and its cli module run as `python -m`, silently
    for module in ("mfspart", "mfspart.cli"):
        proc = _python("-m", module, "--help")
        assert proc.returncode == 0, (module, proc.stderr)
        assert proc.stdout.startswith("usage: mfspart"), module
        assert "RuntimeWarning" not in proc.stderr, module


@pytest.mark.parametrize("module", ["numpy.random", "numpy.ma"])
def test_partition_leaves_numpy_module_unloaded(tmp_path, module):
    # a partition call leaves these numpy modules unloaded, and their MiB
    # out of the peak RSS: the assignment jitter is drawn in Python ints,
    # and values are deduplicated by sorting, not by np.unique, which
    # imports numpy.ma on numpy 2
    probe = _python("-c", f"import sys, numpy; print({module!r} in sys.modules)")
    if probe.stdout.strip() != "False":
        pytest.skip(f"importing numpy loads {module} on this numpy")
    b = gen_instance(3000, 600, 720, 8, 2, spare=0.4)
    hg, topo = tmp_path / "inst.hg", tmp_path / "inst.topo"
    hg.write_text(write_hypergraph(b.hypergraph))
    topo.write_text(write_topology(b.topology))
    code = ("import sys\n"
            "from mfspart.cli import main\n"
            f"print(main(sys.argv[1:]), {module!r} in sys.modules)")
    proc = _python("-c", code, "partition", hg, topo, "-o", tmp_path / "out.sol",
                   "--report", tmp_path / "out.report", "--seeds", 1, "--assign-max-nodes", 2000)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_coarse_levels_are_freed_once_projected():
    # run_pipeline drops each coarse level once its placement is projected
    # onto the finer graph, so no coarse hypergraph is alive at the finest pass
    b = gen_instance(3000, 600, 720, 8, 2, spare=0.4)
    refs, alive = [], []

    def observer(level_h):
        if level_h is b.hypergraph:
            gc.collect()
            alive.append(sum(r() is not None for r in refs))
        else:
            refs.append(weakref.ref(level_h))
        return None

    res = run_pipeline(b.hypergraph, b.topology, assign_max_nodes=2000,
                       refine_observer=observer)
    assert res.status == "ok"
    assert len(refs) == 3
    assert alive == [0]


def test_each_level_state_is_freed_before_the_next_is_built(monkeypatch):
    # a level's refinement state, its exchange table with it, is gone by
    # the time the next level's is built, even without the cycle collector
    import mfspart.refine as refine

    refs, alive = [], []

    class Tracked(refine.RefineState):
        def __init__(self, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(refine, "RefineState", Tracked)
    b = gen_instance(5, 600, 720, 8, 2, spare=0.4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        res = run_pipeline(b.hypergraph, b.topology, n_seeds=1, assign_max_nodes=2000)
    finally:
        if enabled:
            gc.enable()
    assert res.status == "ok"
    assert alive == [0, 0, 0, 0]


def test_a_partition_run_builds_no_vertex_or_hyperedge(monkeypatch):
    # coarsening, assignment and refinement read only a hypergraph's
    # arrays, so a run over three coarse levels constructs no object view
    b = gen_instance(3000, 600, 720, 8, 2, spare=0.4)
    made, graphs = [], []
    for cls in (Vertex, Hyperedge):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    Vertex(0, ResourceVector([1]))
    assert made == ["Vertex"]
    made.clear()
    res = run_pipeline(b.hypergraph, b.topology, n_seeds=1, assign_max_nodes=2000,
                       refine_observer=lambda g: graphs.append(g))
    assert res.status == "ok"
    assert len(graphs) == 4
    assert made == []


# sha256 of the solution and report files that `partition` wrote for these
# instances before refinement skipped the work an op does not change; the
# lean case refines on several coarse levels, the other runs default flags.
# The bounded case (pinned later, before net terms came from one kernel)
# runs hub nets under binding I/O and hop bounds, so refinement rejects
# some ops on hop grounds.  The default-flag cases were recorded when the
# defaults became one search of 20k nodes (from 4 of 200k): default-150
# again, and the bounded instance under default flags, whose search finds
# its two solutions within the first 2k nodes.
PINNED_PARTITIONS = [
    ("lean-600", (3000, 600, 720, 8, 2), {"spare": 0.4},
     ["--seeds", "1", "--assign-max-nodes", "2000"],
     "dec04b2716629a12fa08cf3fa4ba1578b362ba8eea1a865dcd19f627f2e36535",
     "06ad8755eb58e7c406ced8ec767623eb6efc9b7721bdba905e0311108e3d1fa3"),
    ("default-150", (7, 150, 180, 8, 2), {"spare": 0.4}, [],
     "6305b3769a867e9e58b2b358c3afd0b1d9aa231a7bcfbf533f5bf138355fe3c6",
     "6f65319cfaebd2979b6be5b5aa000b2844107dc91cf14046a7dc47c87b77f916"),
    ("bounded-150", (4, 150, 180, 8, 2),
     {"spare": 0.4, "hub_fanout": 64, "io_limit": 155, "hop_max": 3},
     ["--seeds", "1", "--assign-max-nodes", "2000"],
     "9b61a102ace74faa19d99e2473f357c9ea0c0fdf92d03062c54f17239461bede",
     "87833f31d54089a8b13a2044f2162c0bd1ea5f1320a758750ed1ecd08d58d0a9"),
    ("default-bounded-150", (4, 150, 180, 8, 2),
     {"spare": 0.4, "hub_fanout": 64, "io_limit": 155, "hop_max": 3}, [],
     "9b61a102ace74faa19d99e2473f357c9ea0c0fdf92d03062c54f17239461bede",
     "87833f31d54089a8b13a2044f2162c0bd1ea5f1320a758750ed1ecd08d58d0a9"),
    ("zero-gain-capped-600", (3, 600, 720, 8, 2), {"spare": 0.4},
     ["--seeds", "1", "--assign-max-nodes", "2000", "--allow-zero-gain",
      "--max-replicas", "2"],
     "276ebc9f7769251ab0f0153ed0a7da17f91cb0d464fe0efe4959dbcb9ab0f135",
     "5d814227abc310be1c35032821f9ae4530c83a670b9fb596e364e69b00b8444d"),
    ("hub-600", (5, 600, 720, 8, 2),
     {"spare": 0.4, "hub_fraction": 0.2, "hub_fanout": 64},
     ["--seeds", "1", "--assign-max-nodes", "2000"],
     "f9907b735070f3e4b9fd5f8c8700313b3b4f1de394e11c5f444066cb49921e10",
     "1f9d7d46a6c9ce0518329a3d6e71de44027721bdb9fa9cae5efa3fcdc175a1f1"),
    # the 3k rung of the instance ladder under lean flags: refinement's
    # selection scans about 72k gain slots per op at the finest level
    ("lean-3k", (5, 3000, 3600, 8, 2), {"spare": 0.4},
     ["--seeds", "1", "--assign-max-nodes", "2000"],
     "c9a468fc235ba4ab88116272953a46df030ce15ca63eee9b923f392b1269417f",
     "af8f8c0e292e1f3b72001a6cdb20d0eff3d63c0280124aa5fd875b6b4b4e5f31"),
]


@pytest.mark.parametrize(
    "gen_args, gen_kwargs, flags, sol_sha, report_sha",
    [case[1:] for case in PINNED_PARTITIONS],
    ids=[case[0] for case in PINNED_PARTITIONS],
)
def test_pinned_partition_bytes(tmp_path, gen_args, gen_kwargs, flags, sol_sha, report_sha):
    b = gen_instance(*gen_args, **gen_kwargs)
    hg, topo = tmp_path / "inst.hg", tmp_path / "inst.topo"
    hg.write_text(write_hypergraph(b.hypergraph))
    topo.write_text(write_topology(b.topology))
    sol, rep = tmp_path / "out.sol", tmp_path / "out.report"
    assert run(["partition", hg, topo, "-o", sol, "--report", rep, *flags]) == 0
    assert hashlib.sha256(sol.read_bytes()).hexdigest() == sol_sha
    assert hashlib.sha256(rep.read_bytes()).hexdigest() == report_sha


def test_pinned_wide_net_partition_bytes(tmp_path):
    # one weight-1 net sourced at vertex 0 drains every other vertex: every
    # vertex is then a neighbour of every other, and each op touches a
    # member of that net, so every commit marks every vertex's exchange
    # best stale (`ExchangeTable.commit`), and this is where the rule for
    # which stale bests are scored again on demand decides the cost.
    # Recorded before the exchange pairs moved into one array table
    b = gen_instance(11, 300, 360, 8, 2, spare=0.4)
    h = b.hypergraph
    wide = Hyperedge(h.num_edges, 1, 0, range(1, h.num_vertices))
    hg, topo = tmp_path / "wide.hg", tmp_path / "wide.topo"
    hg.write_text(write_hypergraph(Hypergraph(h.vertices, [*h.edges, wide])))
    topo.write_text(write_topology(b.topology))
    sol, rep = tmp_path / "out.sol", tmp_path / "out.report"
    assert run(["partition", hg, topo, "-o", sol, "--report", rep,
                "--seeds", "1", "--assign-max-nodes", "2000"]) == 0
    assert (hashlib.sha256(sol.read_bytes()).hexdigest()
            == "dce58cad4ac60f14ea504371029f744ec878aab9de27693dfeccb0267ac12b81")
    assert (hashlib.sha256(rep.read_bytes()).hexdigest()
            == "59c3a5b815fcb62029adcae8c2d2b04d038014c681a7fab5dbf5990fb782bc1a")
