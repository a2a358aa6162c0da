"""The multilevel hierarchy and the adaptive penalty exponent.

Each vertex merges with its `best_partner`: merges that cost no balance
penalty first, by connectivity, then the rest by connectivity over
penalty.  The penalty exponent ramps up level by level, so early merges
chase heavy edges and late merges keep hypernodes assignable.
"""

from mfspart import CoarseningConfig, alpha_at_level, build_hierarchy, gen_instance

bundle = gen_instance(11, 400, 700, 4, 2, spare=0.5)
h, topo = bundle.hypergraph, bundle.topology

cfg = CoarseningConfig(alpha0=0.5, dalpha=3.0, n_final=32, seed=3)
levels = build_hierarchy(h, topo, cfg)

print(f"original: {h.num_vertices} vertices / {h.num_edges} nets")
for lv in levels:
    alpha = alpha_at_level(cfg, h.num_vertices, lv.index, n_final=32)
    ch = lv.hypergraph
    print(f"level {lv.index}: alpha={alpha:.2f} -> "
          f"{ch.num_vertices} hypernodes / {ch.num_edges} nets")

total = h.total_weight().values
print("total weight per type preserved at every level:",
      all(lv.hypergraph.total_weight().values == total for lv in levels))
