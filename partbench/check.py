"""Independent check of one partition result.

Reads the `.hg`, `.topo`, `.sol` and report files as text and recomputes
every report value with its own parsers and its own BFS over the topology
links.  Nothing here imports `mfspart`, so a fault shared by the
partitioner and its own metrics module cannot hide itself.

I/O follows the importer/exporter rule documented for
`mfspart.metrics.net_io_contrib_hosts`: a net adds its weight to every FPGA
that hosts a drain copy but no source copy (an importer), and once more to
every source copy that is the nearest one to at least one importer (an
exporter; ties go to the lowest FPGA id).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass


def _int_lines(text: str) -> list[list[int]]:
    """Content lines as int lists; `#` starts a comment."""
    out = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            out.append([int(x) for x in tokens])
    return out


@dataclass(frozen=True)
class Instance:
    weights: list[list[int]]  # per vertex, per resource type
    nets: list[tuple[int, int, list[int]]]  # (weight, source, drains)
    capacities: list[list[int]]  # per FPGA, per resource type
    io_limits: list[int | None]
    hop_max: int | None
    dist: list[list[int]]  # hop distances, by BFS over the links


def hop_distances(k: int, links: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    dist = []
    for src in range(k):
        row = [-1] * k
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        if min(row) < 0:
            raise ValueError(f"topology is disconnected at FPGA {src}")
        dist.append(row)
    return dist


def read_instance(hg_text: str, topo_text: str) -> Instance:
    hg = _int_lines(hg_text)
    n, m, kr = hg[0]
    weights = hg[1 : 1 + n]
    nets = [(row[0], row[1], row[2:]) for row in hg[1 + n : 1 + n + m]]
    if len(hg) != 1 + n + m or any(len(w) != kr for w in weights):
        raise ValueError("malformed hypergraph file")
    topo = _int_lines(topo_text)
    k, n_links, kt = topo[0][:3]
    hop_max = topo[0][3] if len(topo[0]) == 4 else None
    rows = topo[1 : 1 + k]
    capacities = [row[:kt] for row in rows]
    io_limits = [row[kt] if len(row) == kt + 1 else None for row in rows]
    links = [(a, b) for a, b in topo[1 + k : 1 + k + n_links]]
    if kt != kr:
        raise ValueError("hypergraph and topology disagree on resource types")
    return Instance(weights, nets, capacities, io_limits, hop_max, hop_distances(k, links))


def read_solution(text: str, inst: Instance) -> tuple[list[list[int]], list[str]]:
    """Host lists (original first) and the placement rule breaches found."""
    k = len(inst.capacities)
    rows = _int_lines(text)
    problems = []
    if len(rows) != len(inst.weights):
        problems.append(f"solution has {len(rows)} lines for {len(inst.weights)} vertices")
    for v, row in enumerate(rows):
        if any(not (0 <= f < k) for f in row):
            problems.append(f"vertex {v}: FPGA id out of range in {row}")
        if row[0] in row[1:]:
            problems.append(f"vertex {v}: replica on its original FPGA {row[0]}")
        if len(set(row)) != len(row):
            problems.append(f"vertex {v}: repeated FPGA in {row}")
    return rows, problems


def recompute(inst: Instance, hosts: list[list[int]]) -> dict:
    """Every report value, from the placement and the instance alone."""
    k = len(inst.capacities)
    dist = inst.dist
    kr = len(inst.capacities[0])
    usage = [[0] * kr for _ in range(k)]
    for v, fs in enumerate(hosts):
        for f in fs:
            for i in range(kr):
                usage[f][i] += inst.weights[v][i]
    io = [0] * k
    thd = cut = max_hop = 0
    for w, src, drains in inst.nets:
        src_hosts = hosts[src]
        drain_fpgas = {f for d in drains for f in hosts[d]}
        units = 0
        net_worst = 0
        exporters = set()
        for f in sorted(drain_fpgas):
            hop, server = min((dist[s][f], s) for s in src_hosts)
            units += hop
            net_worst = max(net_worst, hop)
            if f not in src_hosts:
                io[f] += w
                exporters.add(server)
        for s in exporters:
            io[s] += w
        thd += w * units
        max_hop = max(max_hop, net_worst)
        common = set(src_hosts)
        for d in drains:
            common &= set(hosts[d])
        if not common:
            cut += 1
    return {
        "total_hop_distance": thd,
        "cut_size": cut,
        "fpga_usage": usage,
        "fpga_io": io,
        "max_hop_used": max_hop,
        "replica_count": sum(len(fs) - 1 for fs in hosts),
    }


def check_result(inst: Instance, sol_text: str, report_text: str) -> tuple[dict, list[str]]:
    """(recomputed report, problems); no problems means the written report
    matches the placement and the placement meets every constraint."""
    hosts, problems = read_solution(sol_text, inst)
    if problems:
        return {}, problems
    got = recompute(inst, hosts)
    written = json.loads(report_text)
    if set(written) != set(got):
        problems.append(f"report keys {sorted(written)} differ from {sorted(got)}")
    for key, value in got.items():
        if written.get(key) != value:
            problems.append(f"report {key} = {written.get(key)}, recomputed {value}")
    for f, cap in enumerate(inst.capacities):
        for i, c in enumerate(cap):
            if got["fpga_usage"][f][i] > c:
                problems.append(f"FPGA {f} type {i}: usage {got['fpga_usage'][f][i]} > {c}")
        lim = inst.io_limits[f]
        if lim is not None and got["fpga_io"][f] > lim:
            problems.append(f"FPGA {f}: I/O {got['fpga_io'][f]} > {lim}")
    if inst.hop_max is not None and got["max_hop_used"] > inst.hop_max:
        problems.append(f"hop {got['max_hop_used']} > bound {inst.hop_max}")
    return got, problems
