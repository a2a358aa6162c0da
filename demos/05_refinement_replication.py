"""The four-operator refinement loop on a real instance.

Watch refinement apply moves, exchanges, replicates, and deletes in pure
highest-gain order, and compare against a moves-only run.
"""

from collections import Counter

from mfspart import compute_hop_matrix, gen_instance, refine_level
from mfspart.cli import run_pipeline
from mfspart.metrics import total_hop_distance

bundle = gen_instance(21, 200, 350, 6, 2, spare=0.6,
                      hub_fraction=0.25, hub_fanout=12, driver_fraction=0.04)
h, topo = bundle.hypergraph, bundle.topology
hm = compute_hop_matrix(topo)

# assignment only, as the common starting point
start = run_pipeline(h, topo, seed=1, ops=(), n_seeds=1,
                     assign_max_nodes=4000).placement
print("assignment THD:", total_hop_distance(h, start, hm))

for ops in [("move", "exchange"), ("move", "exchange", "replicate", "delete")]:
    seen = Counter()
    out = refine_level(h, start, topo, hm, ops=ops,
                       observer=lambda op, p, thd: seen.update([op.kind]))
    print(f"{'+'.join(o[:3] for o in ops):24s} "
          f"THD {total_hop_distance(h, out, hm):5d}  ops applied: {dict(seen)}")
