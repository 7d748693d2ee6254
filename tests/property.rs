//! Property-based tests (proptest) for the core invariants.

use cod_graph::FxHashMap;
use pcod::cod::compressed::incremental_top_k;
use pcod::cod::recluster::build_hierarchy;
use pcod::influence::RrPool;
use pcod::prelude::*;
use proptest::prelude::*;
use rand::prelude::*;

/// A random connected graph from a seed and size.
fn random_graph(n: usize, extra_edges: usize, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Random spanning tree for connectivity.
    for v in 1..n as NodeId {
        let u = rng.random_range(0..v);
        b.add_edge(u, v);
    }
    for _ in 0..extra_edges {
        let u = rng.random_range(0..n as NodeId);
        let v = rng.random_range(0..n as NodeId);
        b.add_edge(u, v);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dendrogram structural invariants on random connected graphs.
    #[test]
    fn dendrogram_invariants(n in 2usize..40, extra in 0usize..60, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let d = build_hierarchy(&g, Linkage::Average);
        prop_assert_eq!(d.num_leaves(), n);
        prop_assert_eq!(d.num_vertices(), 2 * n - 1);
        prop_assert_eq!(d.size(d.root()), n);
        // Children partition their parent.
        for v in n as u32..d.num_vertices() as u32 {
            let [a, b] = d.children(v);
            prop_assert_eq!(d.size(a) + d.size(b), d.size(v));
            prop_assert_eq!(d.depth(a), d.depth(v) + 1);
            let ma = d.members_sorted(a);
            let mb = d.members_sorted(b);
            let mut union: Vec<_> = ma.iter().chain(mb.iter()).copied().collect();
            union.sort_unstable();
            prop_assert_eq!(union, d.members_sorted(v));
        }
        // contains() agrees with membership lists.
        for v in 0..d.num_vertices() as u32 {
            let members = d.members_sorted(v);
            for u in 0..n as NodeId {
                prop_assert_eq!(d.contains(v, u), members.binary_search(&u).is_ok());
            }
        }
    }

    /// LCA index agrees with parent-pointer chasing.
    #[test]
    fn lca_matches_naive(n in 2usize..30, extra in 0usize..40, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let d = build_hierarchy(&g, Linkage::Average);
        let lca = LcaIndex::new(&d);
        let naive = |a: u32, b: u32| -> u32 {
            let mut anc = vec![a];
            let mut v = a;
            while d.parent(v) != pcod::hierarchy::NO_VERTEX {
                v = d.parent(v);
                anc.push(v);
            }
            let mut v = b;
            loop {
                if anc.contains(&v) {
                    return v;
                }
                v = d.parent(v);
            }
        };
        let nv = d.num_vertices() as u32;
        for a in (0..nv).step_by(3) {
            for b in (0..nv).step_by(4) {
                prop_assert_eq!(lca.lca(a, b), naive(a, b));
            }
        }
    }

    /// Every RR-graph node is reachable from the source, and induced
    /// restriction only keeps members.
    #[test]
    fn rr_graph_reachability(n in 2usize..30, extra in 0usize..50, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let mut sampler = RrSampler::new(&g, Model::WeightedCascade);
        for _ in 0..10 {
            let rr = sampler.sample_uniform(&mut rng);
            let mut all = rr.reachable_within(|_| true);
            all.sort_unstable();
            let mut nodes = rr.nodes().to_vec();
            nodes.sort_unstable();
            prop_assert_eq!(all, nodes);
            // Restriction to even nodes only yields even nodes (or nothing).
            let within = rr.reachable_within(|v| v % 2 == 0);
            prop_assert!(within.iter().all(|&v| v % 2 == 0));
            if rr.source().is_multiple_of(2) {
                prop_assert!(within.contains(&rr.source()));
            } else {
                prop_assert!(within.is_empty());
            }
        }
    }

    /// The incremental top-k scan (Theorem 3's pool rule) is *exactly*
    /// equivalent to brute-force re-ranking of accumulated counts.
    #[test]
    fn incremental_top_k_is_exact(
        levels in 1usize..8,
        k in 1usize..6,
        seed in 0u64..5000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe: u32 = 30;
        // Random nested buckets: level h can contain any node id; counts
        // small so ties are frequent (stressing the tie-inclusive pool).
        let mut buckets: Vec<FxHashMap<NodeId, u32>> = Vec::new();
        for _ in 0..levels {
            let mut m = FxHashMap::default();
            for v in 0..universe {
                if rng.random_bool(0.4) {
                    m.insert(v, rng.random_range(1..5u32));
                }
            }
            buckets.push(m);
        }
        let q: NodeId = rng.random_range(0..universe);
        let out = incremental_top_k(&buckets, q, k, 100, universe as usize);

        // Brute force: accumulate counts level by level; q is top-k iff
        // fewer than k nodes have a strictly larger count.
        let mut acc: Vec<u32> = vec![0; universe as usize];
        let mut best = None;
        for (h, b) in buckets.iter().enumerate() {
            for (&v, &c) in b {
                acc[v as usize] += c;
            }
            let tq = acc[q as usize];
            let higher = acc.iter().filter(|&&c| c > tq).count();
            let is_top = higher < k;
            prop_assert_eq!(
                out.ranks[h] <= k,
                is_top,
                "level {}: incremental rank {} vs brute higher {}",
                h, out.ranks[h], higher
            );
            if is_top {
                best = Some(h);
            }
        }
        prop_assert_eq!(out.best_level, best);
    }

    /// k-core members all have >= k neighbors inside the community.
    #[test]
    fn kcore_degree_invariant(n in 4usize..40, extra in 5usize..80, seed in 0u64..1000, k in 1u32..5) {
        let g = random_graph(n, extra, seed);
        if let Some(c) = cod_search::kcore::kcore_component(&g, 0, k, |_| true) {
            prop_assert!(c.binary_search(&0).is_ok());
            for &v in &c {
                let internal = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| c.binary_search(&u).is_ok())
                    .count();
                prop_assert!(internal >= k as usize, "node {} has {} < {}", v, internal, k);
            }
        }
    }

    /// Triangle-connected truss community invariants: every community edge
    /// has trussness >= k, shares a triangle with the community, and the
    /// query node is an endpoint of at least one community edge.
    #[test]
    fn truss_community_invariants(n in 4usize..25, extra in 10usize..60, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let t = cod_search::truss::TrussDecomposition::new(&g);
        let q = 0;
        if let Some(kq) = t.max_trussness_at(&g, q) {
            if kq >= 3 {
                let edges = t.triangle_connected_edges(&g, q, kq).unwrap();
                prop_assert!(!edges.is_empty());
                prop_assert!(
                    edges.iter().any(|&(u, v)| u == q || v == q),
                    "q touches the community"
                );
                let edge_set: std::collections::BTreeSet<(NodeId, NodeId)> =
                    edges.iter().copied().collect();
                for &(u, v) in &edges {
                    prop_assert!(t.edge_trussness(u, v).unwrap() >= kq);
                    // Some triangle through (u, v) lies fully inside the
                    // community (triangle connectivity).
                    let has_tri = g.neighbors(u).iter().any(|&w| {
                        g.has_edge(v, w)
                            && edge_set.contains(&(u.min(w), u.max(w)))
                            && edge_set.contains(&(v.min(w), v.max(w)))
                    });
                    prop_assert!(has_tri, "edge ({u},{v}) has no in-community triangle");
                }
                // Node list agrees with the edge endpoints.
                let c = t.triangle_connected_community(&g, q, kq).unwrap();
                let mut endpoints: Vec<NodeId> =
                    edges.iter().flat_map(|&(u, v)| [u, v]).collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                prop_assert_eq!(c, endpoints);
            }
        }
    }

    /// `SeedSequence::seed_for` is injective over any index window: the
    /// derivation composes two bijections, so distinct sample indices can
    /// never collide regardless of the master seed.
    #[test]
    fn seed_derivation_is_injective(master in 0u64..u64::MAX, start in 0u64..1_000_000, span in 1usize..512) {
        let seq = SeedSequence::new(master);
        let seeds: Vec<u64> = (start..start + span as u64).map(|i| seq.seed_for(i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seeds.len(), "seed collision within index window");
    }

    /// Child streams never collide with each other or with the parent's
    /// per-index seeds (the adaptive sampler relies on round `r` drawing a
    /// fresh, disjoint stream).
    #[test]
    fn child_streams_are_distinct(master in 0u64..u64::MAX, a in 0u64..1000, b in 0u64..1000) {
        let seq = SeedSequence::new(master);
        if a != b {
            prop_assert_ne!(seq.child(a).master(), seq.child(b).master());
        }
        prop_assert_ne!(seq.child(a).master(), seq.master());
    }

    /// Replaying the same `(master, index)` pair reproduces the RR graph
    /// bit for bit: same source, same node order, same adjacency.
    #[test]
    fn same_master_and_index_replays_same_rr_graph(
        n in 2usize..30,
        extra in 0usize..50,
        gseed in 0u64..1000,
        master in 0u64..u64::MAX,
        index in 0u64..10_000,
    ) {
        let g = random_graph(n, extra, gseed);
        let seq = SeedSequence::new(master);
        let mut s1 = RrSampler::new(&g, Model::WeightedCascade);
        let mut s2 = RrSampler::new(&g, Model::WeightedCascade);
        let rr1 = s1.sample_uniform(&mut seq.rng_for(index));
        let rr2 = s2.sample_uniform(&mut seq.rng_for(index));
        prop_assert_eq!(rr1.source(), rr2.source());
        prop_assert_eq!(rr1.nodes(), rr2.nodes());
        for l in 0..rr1.len() as u32 {
            prop_assert_eq!(rr1.out_neighbors(l), rr2.out_neighbors(l));
        }
    }

    /// Under deterministic worlds (`UniformIc(1.0)`, every coin live) the
    /// restricted sample equals reachability-within-the-restriction on the
    /// unrestricted sample — Theorem 2's possible-world coupling, checkable
    /// exactly because no randomness is left.
    #[test]
    fn deterministic_restricted_sample_is_reachability_restriction(
        n in 2usize..30,
        extra in 0usize..50,
        gseed in 0u64..1000,
        master in 0u64..u64::MAX,
    ) {
        let g = random_graph(n, extra, gseed);
        let seq = SeedSequence::new(master);
        let keep = |v: NodeId| v.is_multiple_of(2);
        let source: NodeId = 0; // even, so keep(source) holds
        let mut s1 = RrSampler::new(&g, Model::UniformIc(1.0));
        let mut s2 = RrSampler::new(&g, Model::UniformIc(1.0));
        let restricted = s1.sample_restricted(source, &mut seq.rng_for(0), keep);
        let full = s2.sample_from(source, &mut seq.rng_for(0));
        let mut got = restricted.nodes().to_vec();
        got.sort_unstable();
        let mut want = full.reachable_within(keep);
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The shared RR pool is invariant under *any* thread count, not just
    /// the fixed 1/2/8 grid of the seed-replay suite.
    #[test]
    fn rr_pool_is_invariant_under_any_thread_count(
        n in 2usize..30,
        extra in 0usize..40,
        gseed in 0u64..500,
        master in 0u64..u64::MAX,
        threads in 2usize..12,
    ) {
        let g = random_graph(n, extra, gseed);
        let seq = SeedSequence::new(master);
        let theta = 64;
        let serial = RrPool::sample(
            &g, Model::WeightedCascade, theta, seq, None, Parallelism::Threads(1),
        );
        let parallel = RrPool::sample(
            &g, Model::WeightedCascade, theta, seq, None, Parallelism::Threads(threads),
        );
        for i in 0..theta {
            prop_assert_eq!(serial.set(i), parallel.set(i), "set {} diverged", i);
        }
    }

    /// `partition_components` is a cover that never splits a component:
    /// on arbitrary (often disconnected) graphs, every node lands in
    /// exactly one shard, shard ids stay dense, sizes add up, and no edge
    /// — hence no connected component — straddles a shard boundary. This
    /// is the invariant the multi-shard engine's routing correctness
    /// rests on.
    #[test]
    fn partition_is_a_cover_and_component_closed(
        n in 1usize..60,
        edges in 0usize..80,
        seed in 0u64..1000,
        shards in 1usize..9,
    ) {
        use pcod::graph::components::connected_components;
        use pcod::graph::partition::partition_components;
        // No spanning tree: disconnected graphs are the interesting case.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for _ in 0..edges {
            let u = rng.random_range(0..n as NodeId);
            let v = rng.random_range(0..n as NodeId);
            b.add_edge(u, v);
        }
        let g = b.build();
        let p = partition_components(&g, shards);
        prop_assert_eq!(p.num_nodes(), n);
        prop_assert_eq!(p.num_shards(), shards);
        // Cover: every node has exactly one in-range shard, and the
        // per-shard node lists tile the node set without overlap.
        let mut seen = vec![0usize; n];
        for s in 0..shards as u32 {
            for v in p.nodes_of_shard(s) {
                prop_assert_eq!(p.shard_of(v), s);
                prop_assert_eq!(p.shard_of_checked(v), Some(s));
                seen[v as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "a node is missing or doubled");
        prop_assert_eq!(p.shard_sizes().iter().sum::<usize>(), n);
        prop_assert_eq!(p.shard_sizes().len(), shards);
        prop_assert!(p.shard_of_checked(n as NodeId).is_none());
        // Component-closed: same component ⇒ same shard.
        let (_, comp) = connected_components(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(p.shard_of(u), p.shard_of(v), "edge ({}, {}) split", u, v);
        }
        let mut shard_of_comp: Vec<Option<u32>> = vec![None; n];
        for v in 0..n as NodeId {
            let c = comp[v as usize] as usize;
            match shard_of_comp[c] {
                None => shard_of_comp[c] = Some(p.shard_of(v)),
                Some(s) => prop_assert_eq!(p.shard_of(v), s, "component {} split", c),
            }
        }
    }

    /// Graph measures stay in bounds on arbitrary member subsets.
    #[test]
    fn measures_are_bounded(n in 3usize..30, extra in 0usize..50, seed in 0u64..1000) {
        let g = random_graph(n, extra, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x77);
        let members: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.random_bool(0.5)).collect();
        let rho = pcod::graph::measures::topology_density(&g, &members);
        prop_assert!((0.0..=1.0).contains(&rho));
        let cond = pcod::graph::measures::conductance(&g, &members);
        prop_assert!(cond >= 0.0);
    }
}

/// Partition degenerate inputs: the empty graph and a single isolated
/// node survive every shard count without panicking, and the cover
/// invariant holds vacuously / trivially.
#[test]
fn partition_handles_empty_and_singleton_graphs() {
    use pcod::graph::partition::{partition_components, Partition};
    for shards in [1usize, 2, 8] {
        let empty = partition_components(&GraphBuilder::new(0).build(), shards);
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_shards(), shards);
        assert_eq!(empty.shard_sizes().iter().sum::<usize>(), 0);
        assert!(empty.shard_of_checked(0).is_none());

        let singleton = partition_components(&GraphBuilder::new(1).build(), shards);
        assert_eq!(singleton.num_nodes(), 1);
        assert_eq!(singleton.shard_of(0), 0);
        assert_eq!(singleton.nodes_of_shard(0), vec![0]);
        assert_eq!(singleton.shard_sizes().iter().sum::<usize>(), 1);
    }
    // `num_shards = 0` clamps to 1 rather than dividing by zero.
    let clamped = partition_components(&GraphBuilder::new(3).build(), 0);
    assert_eq!(clamped.num_shards(), 1);
    assert_eq!(clamped.num_nodes(), 3);
    let trivial = Partition::single(3);
    assert_eq!(trivial.assignment(), &[0, 0, 0]);
}
