//! The HIMOR index (§IV-B): precomputed influence ranks of every node in
//! every community of the non-attributed hierarchy `T`.
//!
//! **Compressed construction** extends Algorithm 1 in two ways: HFS runs
//! over the *tree-structured* buckets of `T` (one bucket per community,
//! tagged via O(1) `lca`), and the second stage computes *all* node ranks
//! per community instead of a top-k. Buckets are folded bottom-up: child
//! counts accumulate into an ancestor accumulator, each bucket is sorted
//! once, and child rank lists are merge-sorted with updated entries
//! replacing stale ones (Example 7). Cost
//! `O(Θ·ω + |R|·log|V| + Σ_v dep(v))` (Theorem 6).
//!
//! **Queries** (Algorithm 3): for a query `q` and LORE's choice `C_ℓ`, the
//! largest ancestor of `C_ℓ` on `q`'s root path where `q`'s stored rank is
//! `≤ k` is returned directly; only if none exists does CODL fall back to
//! compressed evaluation inside the reclustered `C_ℓ`.

use cod_graph::{Csr, FxHashMap, NodeId, Segment};
use cod_hierarchy::{Dendrogram, LcaIndex, TreeDiff, VertexId};
use cod_influence::{
    par_ranges, CancelToken, Model, Parallelism, RrArena, RrRef, RrSampler, SampleStats,
    SeedSequence,
};
use rand::Rng;

use crate::failpoint::{self, Site};

/// Draws between governance checkpoints of the HFS stage (matches
/// the compressed-evaluation cadence).
const CHECK_EVERY: usize = 64;

/// Flattened per-node rank rows in CSR-like storage: `of(v)` is node `v`'s
/// rank vector, aligned with its root path (index 0 = deepest community).
///
/// Stored in [`Segment`]s so a memory-mapped CODX v3 artifact can back the
/// table zero-copy; in-RAM builds own their vectors as before.
#[derive(Clone, Debug, Default)]
pub struct RankTable {
    offsets: Segment<usize>,
    values: Segment<u32>,
}

impl RankTable {
    /// Flattens per-node rank rows (the merge stage's output shape).
    pub fn from_nested(rows: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut values = Vec::new();
        offsets.push(0);
        for row in &rows {
            values.extend_from_slice(row);
            offsets.push(values.len());
        }
        Self {
            offsets: offsets.into(),
            values: values.into(),
        }
    }

    /// Assembles a table over pre-validated storage (owned or mapped).
    /// `offsets` must have length `n + 1`, start at 0, end at
    /// `values.len()`, and be non-decreasing.
    pub fn from_segments(offsets: Segment<usize>, values: Segment<u32>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(values.len()));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets, values }
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The rank row of node `v`.
    #[inline]
    pub fn of(&self, v: NodeId) -> &[u32] {
        let v = v as usize;
        &self.values[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The raw offset array (`n + 1` entries), for persistence.
    #[inline]
    pub fn raw_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated rank array, for persistence.
    #[inline]
    pub fn raw_values(&self) -> &[u32] {
        &self.values
    }
}

/// Influence ranks of every node along its root path in `T`.
#[derive(Clone, Debug)]
pub struct HimorIndex {
    /// `ranks.of(v)[j]` = 1-based estimated influence rank of node `v` in
    /// its `j`-th root-path community (0 = the deepest, its leaf's parent).
    ranks: RankTable,
    /// Total RR graphs used.
    theta: usize,
    /// Construction-effort counters recorded while building.
    build_stats: BuildStats,
}

/// Effort counters of one HIMOR construction, mirroring Theorem 6's cost
/// terms: `Θ·ω` (graphs × edges sampled) plus one bucket merge per internal
/// vertex of `T`. All zero for an index reloaded from disk
/// ([`HimorIndex::from_raw`]) — persistence stores ranks, not provenance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// RR graphs generated during stage 1.
    pub rr_graphs: u64,
    /// Activated edges recorded across those RR graphs.
    pub rr_edges: u64,
    /// Bottom-up bucket merges performed in stage 2 (one per internal
    /// vertex).
    pub bucket_merges: u64,
}

/// Per-vertex appearance counts: `buckets[c][v]` is how many RR graphs
/// tag node `v` with community `c`.
type Buckets = Vec<FxHashMap<NodeId, u32>>;

/// What the HFS stage hands back: per-vertex buckets, the drawn RR
/// graphs and their tag stream (both empty unless retention was
/// requested), and effort counters.
type HfsStageOutput = (Buckets, RrArena, Vec<VertexId>, SampleStats);

/// Marks a node the HFS has not reached yet (no vertex has this id).
const UNSEEN: VertexId = VertexId::MAX;

/// Detached inputs of one vertex's bucket merge (stage 2).
struct MergeItem<'a> {
    vertex: VertexId,
    bucket: &'a FxHashMap<NodeId, u32>,
    left: Vec<(u32, NodeId)>,
    right: Vec<(u32, NodeId)>,
}

/// The deferred effects of one vertex's bucket merge: applied by the caller
/// in post-order once the whole wave is computed.
struct MergeOutput {
    /// Sorted count list (count desc, id asc) of the merged community.
    merged: Vec<(u32, NodeId)>,
    /// `(node, new accumulated count)` — assignments, not deltas.
    acc_updates: Vec<(NodeId, u32)>,
    /// `(node, root-path index, rank)` assignments.
    rank_updates: Vec<(NodeId, u32, u32)>,
}

impl HimorIndex {
    /// Builds the index with `Θ = θ·|V|` RR graphs (compressed
    /// construction) using per-index seed derivation: sample `i` is drawn
    /// entirely from the RNG [`SeedSequence::rng_for`] derives for index
    /// `i`, so the index is a pure function of `(g, model, T, θ, seed)` —
    /// bit-identical for every thread count and across repeated runs. Both
    /// the sampling/HFS stage and the bottom-up bucket merge (parallelized
    /// over same-depth tree waves, whose vertices have disjoint member
    /// sets) run on `par`.
    ///
    /// Under `cancel` the HFS stage polls the token every `CHECK_EVERY`
    /// draws (charging traversed RR edges against its cap) and the merge
    /// stage polls it once per depth wave. A fired token aborts the build
    /// and returns `None` — a half-built index is never observable.
    /// Checkpoints never touch the RNG, so a token that does not fire
    /// leaves the index bit-identical; with `cancel: None` the result is
    /// always `Some`.
    #[allow(clippy::too_many_arguments)] // the build signature plus the token
    pub fn build(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta_per_node: usize,
        seed: u64,
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> Option<Self> {
        let built = Self::build_inner(
            g,
            model,
            dendro,
            lca,
            theta_per_node,
            seed,
            par,
            cancel,
            false,
        );
        built.map(|(index, _)| index)
    }

    /// [`HimorIndex::build`] that additionally retains the drawn RR graphs,
    /// their HFS tags and the master per-vertex buckets, so later graph
    /// mutations can *patch* the index via [`HimorPatchState::patch`]
    /// instead of resampling all `Θ` graphs. The index is the one
    /// [`HimorIndex::build`] returns for the same inputs.
    #[allow(clippy::too_many_arguments)] // the build signature plus the token
    pub fn build_patchable(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta_per_node: usize,
        seed: u64,
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> Option<(Self, HimorPatchState)> {
        let built = Self::build_inner(
            g,
            model,
            dendro,
            lca,
            theta_per_node,
            seed,
            par,
            cancel,
            true,
        );
        let (index, state) = built?;
        Some((index, state?))
    }

    /// The body both builders share; `keep_state` retains the patch state.
    #[allow(clippy::too_many_arguments)] // the build signature plus the token and the flag
    fn build_inner(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta_per_node: usize,
        seed: u64,
        par: Parallelism,
        cancel: Option<&CancelToken>,
        keep_state: bool,
    ) -> Option<(Self, Option<HimorPatchState>)> {
        let n = dendro.num_leaves();
        assert_eq!(g.num_nodes(), n);
        let theta = theta_per_node.max(1) * n;
        let threads = par.thread_count();
        let seeds = SeedSequence::new(seed);
        let (buckets, samples, tags, sampled) = Self::sample_stage(
            g, model, dendro, lca, theta, seeds, threads, cancel, keep_state,
        )?;
        let view: Vec<&FxHashMap<NodeId, u32>> = buckets.iter().collect();
        let ranks = Self::merge_stage(dendro, &view, threads, cancel)?;
        let index = Self {
            ranks: RankTable::from_nested(ranks),
            theta,
            build_stats: BuildStats {
                rr_graphs: sampled.graphs,
                rr_edges: sampled.edges,
                bucket_merges: (dendro.num_vertices() - n) as u64,
            },
        };
        let state = keep_state.then(|| HimorPatchState {
            seeds,
            theta,
            theta_per_node: theta_per_node.max(1),
            samples,
            tags,
            buckets,
        });
        Some((index, state))
    }

    /// Stage 1: HFS over the community tree, producing one bucket of
    /// appearance counts per internal vertex, with per-index seed
    /// derivation, sharded over `threads` contiguous index ranges. Bucket
    /// counts are merged by addition, which commutes, so chunking cannot
    /// affect the result. Returns `None` when `cancel` fired: a partially
    /// sampled bucket set must not rank anyone.
    ///
    /// Each draw takes its source with `random_range(0..n)` before the walk,
    /// as [`RrSampler::sample_uniform`] does, but writes into the sampler's
    /// scratch arena instead of allocating an owned graph. With
    /// `keep_samples` set, the draws are appended to one [`RrArena`] with
    /// their tag stream instead, in index order (shard ranges are contiguous
    /// and ascending), so a [`HimorPatchState`] can later re-tag and redraw
    /// individual samples.
    #[allow(clippy::too_many_arguments)] // internal stage: build inputs plus the token
    fn sample_stage(
        g: &Csr,
        model: Model,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        theta: usize,
        seeds: SeedSequence,
        threads: usize,
        cancel: Option<&CancelToken>,
        keep_samples: bool,
    ) -> Option<HfsStageOutput> {
        let nv = dendro.num_vertices();
        let n = g.num_nodes();
        let shards = par_ranges(theta, threads, |range| {
            let mut sampler = RrSampler::new(g, model);
            let mut queues = hfs_queues(dendro);
            let mut buckets: Buckets = vec![FxHashMap::default(); nv];
            let mut kept = RrArena::new();
            let mut tags: Vec<VertexId> = Vec::new();
            let mut charged = sampler.stats();
            for (off, i) in range.enumerate() {
                if off % CHECK_EVERY == 0
                    && checkpoint(Site::SampleBatch, cancel, &sampler, &mut charged)
                {
                    break;
                }
                let mut rng = seeds.rng_for(i as u64);
                let source = rng.random_range(0..n) as NodeId;
                let rr = if keep_samples {
                    sampler.sample_into(&mut kept, source, &mut rng, |_| true);
                    kept.get(kept.len() - 1)
                } else {
                    tags.clear();
                    sampler.sample_view(source, &mut rng, |_| true)
                };
                let base = tags.len();
                Self::hfs_tags(dendro, lca, rr, &mut queues, &mut tags);
                count_tags(&mut buckets, rr, &tags[base..]);
            }
            if !keep_samples {
                tags = Vec::new();
            }
            (buckets, kept, tags, sampler.stats())
        });
        let mut sampled = SampleStats::default();
        let mut merged: Buckets = vec![FxHashMap::default(); nv];
        let (graphs, nodes, edges) = shards.iter().fold((0, 0, 0), |(g, n, e), (_, kept, ..)| {
            (g + kept.len(), n + kept.num_nodes(), e + kept.num_edges())
        });
        let mut samples = RrArena::new();
        samples.reserve(graphs, nodes, edges);
        let mut tags: Vec<VertexId> = Vec::with_capacity(nodes);
        for (shard, kept, shard_tags, stats) in shards {
            sampled = sampled.merged(stats);
            for (slot, bucket) in merged.iter_mut().zip(shard) {
                for (v, c) in bucket {
                    *slot.entry(v).or_insert(0) += c;
                }
            }
            samples.extend_from(&kept);
            tags.extend_from_slice(&shard_tags);
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        Some((merged, samples, tags, sampled))
    }

    /// Appends the HFS tag of every node of `rr` to `tags`, in local order:
    /// the smallest community containing a path from the source to the
    /// node (tagged via O(1) `lca`), found by draining per-depth queues
    /// deepest-first. Every RR node is reachable from its source, so every
    /// node gets a tag. Leaves `queues` empty for reuse.
    fn hfs_tags(
        dendro: &Dendrogram,
        lca: &LcaIndex,
        rr: RrRef<'_>,
        queues: &mut [Vec<(u32, VertexId)>],
        tags: &mut Vec<VertexId>,
    ) {
        let base = tags.len();
        let s_leaf = dendro.leaf(rr.source());
        if s_leaf == dendro.root() {
            // A one-node hierarchy: nothing is ranked, the leaf tags itself.
            tags.resize(base + rr.len(), s_leaf);
            return;
        }
        tags.resize(base + rr.len(), UNSEEN);
        let tag_of = &mut tags[base..];
        let tag0 = dendro.parent(s_leaf);
        let d0 = dendro.depth(tag0) as usize;
        queues[d0].push((0, tag0));
        for d in (1..=d0).rev() {
            while let Some((v, tag)) = queues[d].pop() {
                if tag_of[v as usize] != UNSEEN {
                    continue;
                }
                tag_of[v as usize] = tag;
                for &u in rr.out_neighbors(v) {
                    if tag_of[u as usize] != UNSEEN {
                        continue;
                    }
                    // Smallest community containing a path from s to u:
                    // the lca of u's leaf with the current tag.
                    let tu = lca.lca(dendro.leaf(rr.node(u)), tag);
                    queues[dendro.depth(tu) as usize].push((u, tu));
                }
            }
        }
        debug_assert!(!tag_of.contains(&UNSEEN), "an RR node was not reached");
    }

    /// Stage 2: bottom-up bucket merge producing per-node rank vectors.
    ///
    /// With `threads > 1`, each equal-depth wave of the post-order is
    /// processed in parallel: same-depth vertices root disjoint subtrees,
    /// so their buckets, child lists, and rank rows never overlap, and
    /// every worker reads the accumulator state frozen before its wave —
    /// exactly what the serial order would have shown it. Results are
    /// applied in the fixed post-order, so the output is identical for
    /// every thread count.
    ///
    /// The buckets are borrowed (`buckets[c]` for every vertex `c`), so a
    /// patch can merge over its rewritten buckets and the retained ones
    /// without copying either. Polls `cancel` once per depth wave; a fired
    /// token abandons the half-merged state and returns `None`.
    fn merge_stage(
        dendro: &Dendrogram,
        buckets: &[&FxHashMap<NodeId, u32>],
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<Vec<u32>>> {
        let n = dendro.num_leaves();
        let nv = dendro.num_vertices();
        // acc[v] = accumulated count of v over the already-folded buckets on
        // its root path (exact count within the vertex being processed).
        let mut acc = vec![0u32; n];
        let mut ranks: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|v| vec![0; dendro.root_path(v).len()])
            .collect();
        // Sorted count lists (count desc, id asc), one per live vertex.
        let mut lists: Vec<Option<Vec<(u32, NodeId)>>> = (0..nv).map(|_| None).collect();
        for (v, slot) in lists.iter_mut().enumerate().take(n) {
            *slot = Some(vec![(0, v as NodeId)]);
        }

        // Post-order over internal vertices: children have smaller subtree
        // intervals and strictly larger depth; process by depth descending,
        // ties broken arbitrarily (children always deeper than parents).
        let mut order: Vec<VertexId> = (n as VertexId..nv as VertexId).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(dendro.depth(v)));

        let mut wave_start = 0;
        while wave_start < order.len() {
            failpoint::hit(Site::MergeWave, cancel);
            if let Some(tok) = cancel {
                if tok.should_stop() {
                    return None;
                }
            }
            let depth = dendro.depth(order[wave_start]);
            let mut wave_end = wave_start + 1;
            while wave_end < order.len() && dendro.depth(order[wave_end]) == depth {
                wave_end += 1;
            }
            let wave = &order[wave_start..wave_end];
            // Detach each wave vertex's inputs (bucket + child lists) ...
            let items: Vec<MergeItem> = wave
                .iter()
                .map(|&i| {
                    let bucket = buckets[i as usize];
                    let [a, b] = dendro.children(i);
                    let (Some(left), Some(right)) =
                        (lists[a as usize].take(), lists[b as usize].take())
                    else {
                        unreachable!("children are processed before parents in depth order")
                    };
                    MergeItem {
                        vertex: i,
                        bucket,
                        left,
                        right,
                    }
                })
                .collect();
            // ... compute every merge of the wave against the pre-wave
            // accumulator (same-depth subtrees are disjoint, so no item can
            // observe another's updates even serially) ...
            let outputs = par_ranges(items.len(), threads, |range| {
                range
                    .map(|idx| Self::merge_one(dendro, &items[idx], &acc))
                    .collect::<Vec<MergeOutput>>()
            });
            // ... and apply the results in the fixed post-order.
            for (item, out) in items.iter().zip(outputs.into_iter().flatten()) {
                for &(v, c) in &out.acc_updates {
                    acc[v as usize] = c;
                }
                for &(v, j, r) in &out.rank_updates {
                    ranks[v as usize][j as usize] = r;
                }
                lists[item.vertex as usize] = Some(out.merged);
            }
            wave_start = wave_end;
        }
        Some(ranks)
    }

    /// Folds one internal vertex's bucket into its children's sorted count
    /// lists, returning the merged list plus the accumulator and rank
    /// assignments to apply. Pure in `acc` — the caller applies updates
    /// after the whole wave is computed.
    fn merge_one(dendro: &Dendrogram, item: &MergeItem, acc: &[u32]) -> MergeOutput {
        let bucket = item.bucket;
        // New accumulated counts for nodes recorded in this bucket.
        let mut acc_updates: Vec<(NodeId, u32)> = bucket
            .iter()
            .map(|(&v, &c)| (v, acc[v as usize] + c))
            .collect();
        acc_updates.sort_unstable_by_key(|&(v, _)| v);
        let mut updated: Vec<(u32, NodeId)> = acc_updates.iter().map(|&(v, c)| (c, v)).collect();
        updated.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        // Three-way merge, skipping stale child entries.
        let mut merged = Vec::with_capacity(item.left.len() + item.right.len());
        let stale = |v: NodeId| bucket.contains_key(&v);
        let mut ia = item.left.iter().filter(|e| !stale(e.1)).peekable();
        let mut ib = item.right.iter().filter(|e| !stale(e.1)).peekable();
        let mut iu = updated.iter().peekable();
        loop {
            // Pick the largest head among the three runs.
            let best = [ia.peek().copied(), ib.peek().copied(), iu.peek().copied()]
                .into_iter()
                .enumerate()
                .filter_map(|(idx, e)| e.map(|e| (idx, *e)))
                .max_by(|(_, x), (_, y)| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
            match best {
                None => break,
                Some((0, e)) => {
                    ia.next();
                    merged.push(e);
                }
                Some((1, e)) => {
                    ib.next();
                    merged.push(e);
                }
                Some((_, e)) => {
                    iu.next();
                    merged.push(e);
                }
            }
        }
        // Assign ranks: ties share the rank of their first position.
        let depth_i = dendro.depth(item.vertex);
        let mut rank_updates = Vec::with_capacity(merged.len());
        let mut rank_of_count = 1u32;
        let mut prev_count = u32::MAX;
        for (pos, &(c, v)) in merged.iter().enumerate() {
            if c != prev_count {
                rank_of_count = pos as u32 + 1;
                prev_count = c;
            }
            let j = dendro.depth(dendro.leaf(v)) - 1 - depth_i;
            rank_updates.push((v, j, rank_of_count));
        }
        MergeOutput {
            merged,
            acc_updates,
            rank_updates,
        }
    }

    /// Reassembles an index from stored parts (see [`crate::persist`]).
    /// `ranks[v]` must align with the root path of `v` in the hierarchy the
    /// index will be queried against.
    pub fn from_raw(ranks: Vec<Vec<u32>>, theta: usize) -> Self {
        Self::from_table(RankTable::from_nested(ranks), theta)
    }

    /// Reassembles an index from a prebuilt (possibly memory-mapped) rank
    /// table — the CODX v3 zero-copy load path.
    pub fn from_table(ranks: RankTable, theta: usize) -> Self {
        Self {
            ranks,
            theta,
            build_stats: BuildStats::default(),
        }
    }

    /// The rank table (for persistence).
    pub fn rank_table(&self) -> &RankTable {
        &self.ranks
    }

    /// Construction-effort counters ([`BuildStats`]); all zero for an index
    /// reloaded via [`HimorIndex::from_raw`].
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Number of indexed nodes.
    pub fn num_nodes(&self) -> usize {
        self.ranks.num_nodes()
    }

    /// Number of RR graphs used for construction.
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// The stored rank vector of `v`, aligned with
    /// [`Dendrogram::root_path`] (index 0 = deepest community).
    pub fn ranks_of(&self, v: NodeId) -> &[u32] {
        self.ranks.of(v)
    }

    /// Algorithm 3, lines 1–2: the *largest* community on `q`'s root path
    /// that contains `floor` (an ancestor-or-self of `floor`) in which `q`
    /// ranks top-k. `floor = None` scans the whole path.
    pub fn largest_top_k(
        &self,
        dendro: &Dendrogram,
        q: NodeId,
        floor: Option<VertexId>,
        k: usize,
    ) -> Option<VertexId> {
        let path = dendro.root_path(q);
        let ranks = self.ranks_of(q);
        debug_assert_eq!(path.len(), ranks.len());
        for j in (0..path.len()).rev() {
            // Stop below the floor community.
            if let Some(f) = floor {
                if !dendro.is_descendant(f, path[j]) {
                    return None;
                }
            }
            if ranks[j] as usize <= k {
                return Some(path[j]);
            }
        }
        None
    }

    /// Approximate index memory in bytes (rank entries only) — the
    /// Table II "index size" metric.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.ranks.raw_values())
            + std::mem::size_of_val(self.ranks.raw_offsets())
    }
}

/// Per-depth HFS queues sized for `dendro`'s deepest leaf.
fn hfs_queues(dendro: &Dendrogram) -> Vec<Vec<(u32, VertexId)>> {
    let max_depth = (0..dendro.num_leaves() as NodeId)
        .map(|v| dendro.depth(dendro.leaf(v)))
        .max()
        .unwrap_or(1) as usize;
    vec![Vec::new(); max_depth + 1]
}

/// Counts one RR graph into the buckets: node `rr.node(l)` under `tags[l]`.
fn count_tags(buckets: &mut [FxHashMap<NodeId, u32>], rr: RrRef<'_>, tags: &[VertexId]) {
    for (&v, &tag) in rr.nodes().iter().zip(tags) {
        *buckets[tag as usize].entry(v).or_insert(0) += 1;
    }
}

/// A governance checkpoint: hits failpoint `site`, charges the RR edges
/// `sampler` traversed since the last checkpoint to `cancel`, and says
/// whether the token asks to stop.
fn checkpoint(
    site: Site,
    cancel: Option<&CancelToken>,
    sampler: &RrSampler<'_>,
    charged: &mut SampleStats,
) -> bool {
    failpoint::hit(site, cancel);
    let Some(tok) = cancel else {
        return false;
    };
    let now = sampler.stats();
    tok.charge_rr_edges(now.delta_since(*charged).edges);
    *charged = now;
    tok.should_stop()
}

/// Appends `old` tags re-keyed into the new tree's vertex space; `false`
/// when one names a community the new tree lost.
fn rekey(tags: &mut Vec<VertexId>, old: &[VertexId], old_to_new: &[Option<VertexId>]) -> bool {
    let mut matched = true;
    tags.extend(old.iter().map(|&t| {
        let w = old_to_new[t as usize];
        matched &= w.is_some();
        w.unwrap_or(UNSEEN)
    }));
    matched
}

/// Effort counters of one incremental HIMOR patch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// RR samples re-recorded under the repaired tree: every sample whose
    /// node set touched the footprint (disturbed leaves ∪ edited nodes),
    /// whether it was resampled or only re-tagged.
    pub samples_redrawn: u64,
    /// The part of `samples_redrawn` drawn afresh on the new topology:
    /// samples whose node set holds an edited node. The rest kept their
    /// stored RR graph and only had their HFS tags recomputed.
    pub samples_resampled: u64,
    /// Total retained samples (`Θ`): the denominator of the redraw rate.
    pub samples_total: u64,
    /// Old-tree buckets carried onto surviving communities unchanged.
    pub buckets_rekeyed: u64,
}

/// Retained construction state of a [`HimorIndex::build_patchable`]
/// build, keyed to the hierarchy the index was last built against:
///
/// * the `Θ` drawn RR graphs, in index order, in one [`RrArena`];
/// * a tag stream aligned with the arena's node stream: the HFS community
///   each RR node was counted under;
/// * the master per-vertex buckets those tags add up to.
///
/// After a graph mutation repairs the dendrogram, [`HimorPatchState::patch`]
/// produces the index a full [`HimorIndex::build`] on the new graph would
/// produce — bit-identically, because sample `i` is a pure function of
/// `(graph, model, seed, i)` and a draw can only change if it expands an
/// edited node. Samples holding an edited node are resampled; samples
/// that merely hold a node under a changed community keep their RR graph
/// and are re-tagged against the repaired tree; every other sample keeps
/// its graph and has its tags re-keyed through the old→new community
/// matching of [`cod_hierarchy::repair::match_vertices`].
#[derive(Clone, Debug)]
pub struct HimorPatchState {
    seeds: SeedSequence,
    theta: usize,
    theta_per_node: usize,
    /// Sample `i` as last drawn (index-aligned with the seed sequence).
    samples: RrArena,
    /// `tags[k]`: the community node `k` of the arena's node stream is
    /// counted under (vertex id space of the current tree).
    tags: Vec<VertexId>,
    /// Master buckets of the current tree (vertex id space of the
    /// hierarchy the last build/patch ran against).
    buckets: Buckets,
}

impl HimorPatchState {
    /// Total retained RR graphs (`Θ`).
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// The per-node sampling density the state was built with.
    pub fn theta_per_node(&self) -> usize {
        self.theta_per_node
    }

    /// Heap bytes retained by the sample arena, its tag stream and the
    /// master buckets — what keeping the index patchable costs over a plain
    /// build.
    pub fn memory_bytes(&self) -> usize {
        let buckets: usize = self
            .buckets
            .iter()
            .map(|b| b.capacity() * (size_of::<NodeId>() + size_of::<u32>()))
            .sum();
        self.samples.memory_bytes() + self.tags.capacity() * size_of::<VertexId>() + buckets
    }

    /// Patches the retained state across a mutation: `g` is the new
    /// topology, `new_*` the repaired hierarchy, `diff` the matching of
    /// the hierarchy the state is keyed to against it, and `edited` the
    /// nodes whose adjacency changed. Returns the index a fresh
    /// [`HimorIndex::build`] on `(g, new_dendro)` with the same seed
    /// would return, bit for bit, plus patch-effort counters.
    ///
    /// Each sample is handled by what the mutation did to it:
    ///
    /// * it holds an edited node: its old tags are subtracted from the
    ///   buckets and it is redrawn from its per-index seed;
    /// * it holds a disturbed node: its stored graph is re-tagged against
    ///   the new tree, and only nodes whose tag moved touch a bucket;
    /// * otherwise its tags are re-keyed through `diff.old_to_new`.
    ///
    /// The resamples are drawn first, so a fresh arena and tag stream of
    /// exact size can then be written in index order. Both loops poll
    /// `cancel` (and the `himor_patch` failpoint) every `CHECK_EVERY`
    /// samples they handle. Bucket edits go to copies of the touched
    /// buckets, and the rank merge borrows them next to the untouched ones.
    /// On cancellation — or on an internal inconsistency — the state is left
    /// **unmodified** and `None` is returned, so the caller can retry or
    /// fall back to a full rebuild.
    #[allow(clippy::too_many_arguments)] // the new hierarchy plus the token
    pub fn patch(
        &mut self,
        g: &Csr,
        model: Model,
        new_dendro: &Dendrogram,
        new_lca: &LcaIndex,
        diff: &TreeDiff,
        edited: &[NodeId],
        par: Parallelism,
        cancel: Option<&CancelToken>,
    ) -> Option<(HimorIndex, PatchStats)> {
        let n = new_dendro.num_leaves();
        assert_eq!(g.num_nodes(), n, "patch cannot grow nodes");
        assert_eq!(diff.old_to_new.len(), self.buckets.len());
        // What the mutation did to each node; a sample is handled by the
        // worst of its nodes.
        const KEPT: u8 = 0;
        const DISTURBED: u8 = 1;
        const EDITED: u8 = 2;
        let mut touch: Vec<u8> = diff.disturbed.iter().map(|&d| u8::from(d)).collect();
        for &v in edited {
            touch[v as usize] = EDITED;
        }
        let worst: Vec<u8> = self
            .samples
            .iter()
            .map(|rr| rr.nodes().iter().map(|&u| touch[u as usize]).max())
            .map(|w| w.unwrap_or(KEPT))
            .collect();

        // Redraw the samples holding an edited node first, so the new
        // streams are sized exactly before anything is copied.
        let mut sampler = RrSampler::new(g, model);
        let mut charged = sampler.stats();
        let mut fresh = RrArena::new();
        let (mut gone_nodes, mut gone_edges) = (0, 0);
        for (i, _) in worst.iter().enumerate().filter(|(_, &w)| w == EDITED) {
            if fresh.len() % CHECK_EVERY == 0
                && checkpoint(Site::HimorPatch, cancel, &sampler, &mut charged)
            {
                return None;
            }
            let old = self.samples.get(i);
            gone_nodes += old.len();
            gone_edges += old.num_edges();
            let mut rng = self.seeds.rng_for(i as u64);
            let source = rng.random_range(0..n) as NodeId;
            sampler.sample_into(&mut fresh, source, &mut rng, |_| true);
        }
        let nodes = self.samples.num_nodes() - gone_nodes + fresh.num_nodes();
        let edges = self.samples.num_edges() - gone_edges + fresh.num_edges();
        let mut samples = RrArena::new();
        samples.reserve(self.theta, nodes, edges);
        let mut tags: Vec<VertexId> = Vec::with_capacity(nodes);

        // Re-record in index order. Runs still to copy: kept graphs from
        // `kept_from` (ended by a resample), old tags from `rekey_from`
        // (ended by any re-record).
        let mut edits = BucketEdits::new(&self.buckets, diff, new_dendro.num_vertices());
        let mut queues = hfs_queues(new_dendro);
        let mut rerecorded = 0u64;
        let (mut kept_from, mut rekey_from, mut drawn) = (0, 0, 0);
        let mut pos = 0;
        for (i, rr) in self.samples.iter().enumerate() {
            let at = pos;
            pos += rr.len();
            if worst[i] == KEPT {
                continue;
            }
            if !rekey(&mut tags, &self.tags[rekey_from..at], &diff.old_to_new) {
                debug_assert!(false, "a kept sample is tagged with a vanished community");
                return None;
            }
            rekey_from = pos;
            if rerecorded % CHECK_EVERY as u64 == 0
                && checkpoint(Site::HimorPatch, cancel, &sampler, &mut charged)
            {
                return None;
            }
            rerecorded += 1;
            let old = &self.tags[at..pos];
            let base = tags.len();
            if worst[i] == EDITED {
                for (&u, &t) in rr.nodes().iter().zip(old) {
                    edits.sub(t, u);
                }
                samples.extend_from_range(&self.samples, kept_from..i);
                samples.extend_from_range(&fresh, drawn..drawn + 1);
                kept_from = i + 1;
                let redrawn = fresh.get(drawn);
                drawn += 1;
                HimorIndex::hfs_tags(new_dendro, new_lca, redrawn, &mut queues, &mut tags);
                for (&u, &t) in redrawn.nodes().iter().zip(&tags[base..]) {
                    edits.add(t, u);
                }
            } else {
                debug_assert_eq!(worst[i], DISTURBED);
                HimorIndex::hfs_tags(new_dendro, new_lca, rr, &mut queues, &mut tags);
                for ((&u, &was), &now) in rr.nodes().iter().zip(old).zip(&tags[base..]) {
                    if diff.old_to_new[was as usize] != Some(now) {
                        edits.sub(was, u);
                        edits.add(now, u);
                    }
                }
            }
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        samples.extend_from_range(&self.samples, kept_from..self.samples.len());
        if !rekey(&mut tags, &self.tags[rekey_from..], &diff.old_to_new) {
            debug_assert!(false, "a kept sample is tagged with a vanished community");
            return None;
        }
        debug_assert_eq!((samples.num_nodes(), tags.len()), (nodes, nodes));
        if !edits.consistent() {
            debug_assert!(
                false,
                "patch subtraction out of sync with the retained state"
            );
            return None;
        }

        // Rank merge over the rewritten buckets and the retained ones.
        // Commit only once the whole pipeline succeeded.
        let view = edits.view();
        let ranks = HimorIndex::merge_stage(new_dendro, &view, par.thread_count(), cancel)?;
        let BucketEdits {
            rewritten,
            new_to_old,
            ..
        } = edits;
        let mut old = std::mem::take(&mut self.buckets);
        let mut rekeyed = 0u64;
        self.buckets = rewritten
            .into_iter()
            .zip(new_to_old)
            .map(|(bucket, from)| match (bucket, from) {
                (Some(bucket), _) => bucket,
                (None, Some(v)) => {
                    let bucket = std::mem::take(&mut old[v as usize]);
                    rekeyed += u64::from(!bucket.is_empty());
                    bucket
                }
                (None, None) => FxHashMap::default(),
            })
            .collect();
        self.samples = samples;
        self.tags = tags;
        let stats = PatchStats {
            samples_redrawn: rerecorded,
            samples_resampled: fresh.len() as u64,
            samples_total: self.theta as u64,
            buckets_rekeyed: rekeyed,
        };
        let sampled = sampler.stats();
        let index = HimorIndex {
            ranks: RankTable::from_nested(ranks),
            theta: self.theta,
            build_stats: BuildStats {
                rr_graphs: sampled.graphs,
                rr_edges: sampled.edges,
                bucket_merges: (new_dendro.num_vertices() - n) as u64,
            },
        };
        Some((index, stats))
    }
}

/// The bucket edits of one patch, written to copies of the touched buckets
/// so the retained state stays as it was until the patch commits.
/// Subtractions name old-tree vertices, additions new-tree ones; a
/// matched old vertex is edited through its new match.
struct BucketEdits<'a> {
    old: &'a [FxHashMap<NodeId, u32>],
    old_to_new: &'a [Option<VertexId>],
    /// The old vertex each new vertex matches, if any.
    new_to_old: Vec<Option<VertexId>>,
    /// Rewritten buckets, by new vertex.
    rewritten: Vec<Option<FxHashMap<NodeId, u32>>>,
    /// Rewritten buckets of old vertices without a match, by old vertex:
    /// the subtractions must empty them.
    vanished: Vec<Option<FxHashMap<NodeId, u32>>>,
    /// A subtraction found no count to take.
    underflow: bool,
    empty: FxHashMap<NodeId, u32>,
}

impl<'a> BucketEdits<'a> {
    fn new(old: &'a [FxHashMap<NodeId, u32>], diff: &'a TreeDiff, new_vertices: usize) -> Self {
        let mut new_to_old = vec![None; new_vertices];
        for (v, w) in diff.old_to_new.iter().enumerate() {
            if let Some(w) = w {
                new_to_old[*w as usize] = Some(v as VertexId);
            }
        }
        Self {
            old,
            old_to_new: &diff.old_to_new,
            new_to_old,
            rewritten: vec![None; new_vertices],
            vanished: vec![None; old.len()],
            underflow: false,
            empty: FxHashMap::default(),
        }
    }

    /// Takes one count of `node` from old vertex `v`'s bucket.
    fn sub(&mut self, v: VertexId, node: NodeId) {
        let base = &self.old[v as usize];
        let bucket = match self.old_to_new[v as usize] {
            Some(w) => self.rewritten[w as usize].get_or_insert_with(|| base.clone()),
            None => self.vanished[v as usize].get_or_insert_with(|| base.clone()),
        };
        match bucket.get_mut(&node) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                bucket.remove(&node);
            }
            None => self.underflow = true,
        }
    }

    /// Adds one count of `node` to new vertex `w`'s bucket.
    fn add(&mut self, w: VertexId, node: NodeId) {
        let (old, from) = (self.old, self.new_to_old[w as usize]);
        let bucket = self.rewritten[w as usize].get_or_insert_with(|| {
            from.map_or_else(FxHashMap::default, |v| old[v as usize].clone())
        });
        *bucket.entry(node).or_insert(0) += 1;
    }

    /// Whether every subtraction found its count and every old vertex
    /// without a match ended empty (a sample tagging it holds a node under
    /// it, which the footprint marks disturbed).
    fn consistent(&self) -> bool {
        !self.underflow
            && self.old_to_new.iter().enumerate().all(|(v, w)| {
                w.is_some() || self.vanished[v].as_ref().unwrap_or(&self.old[v]).is_empty()
            })
    }

    /// The new tree's buckets: rewritten where edited, else the matched
    /// old bucket, else empty.
    fn view(&self) -> Vec<&FxHashMap<NodeId, u32>> {
        self.rewritten
            .iter()
            .zip(&self.new_to_old)
            .map(|(bucket, from)| match (bucket, from) {
                (Some(bucket), _) => bucket,
                (None, Some(v)) => &self.old[*v as usize],
                (None, None) => &self.empty,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_graph::GraphBuilder;
    use cod_hierarchy::{cluster_unweighted, Linkage};
    use cod_influence::InfluenceEstimate;
    use rand::prelude::*;

    fn two_stars() -> Csr {
        let mut b = GraphBuilder::new(10);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        for v in 7..10 {
            b.add_edge(6, v);
        }
        b.add_edge(5, 6);
        b.build()
    }

    fn build_on(
        g: &Csr,
        d: &Dendrogram,
        lca: &LcaIndex,
        theta: usize,
        seed: u64,
        par: Parallelism,
    ) -> HimorIndex {
        HimorIndex::build(g, Model::WeightedCascade, d, lca, theta, seed, par, None).unwrap()
    }

    fn build(g: &Csr, d: &Dendrogram, lca: &LcaIndex, theta: usize, seed: u64) -> HimorIndex {
        build_on(g, d, lca, theta, seed, Parallelism::Threads(1))
    }

    fn setup(g: &Csr) -> (Dendrogram, LcaIndex) {
        let merges = cluster_unweighted(g, Linkage::Average);
        let d = Dendrogram::from_merges(g.num_nodes(), &merges);
        let lca = LcaIndex::new(&d);
        (d, lca)
    }

    #[test]
    fn hub_ranks_first_everywhere() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let idx = build(&g, &d, &lca, 300, 21);
        // Node 0 (big hub) must rank 1 in every community on its path.
        for &r in idx.ranks_of(0) {
            assert_eq!(r, 1);
        }
        assert_eq!(
            idx.largest_top_k(&d, 0, None, 1),
            Some(*d.root_path(0).last().unwrap())
        );
    }

    #[test]
    fn ranks_agree_with_direct_community_estimation() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let idx = build(&g, &d, &lca, 800, 22);
        // For every node and every path community, the indexed rank must
        // match an independent high-θ estimate up to tie noise; check the
        // unambiguous hub/leaf relations instead of exact equality.
        let est_seeds = SeedSequence::new(23);
        let mut stream = 0u64;
        for q in [0u32, 6, 9] {
            let path = d.root_path(q);
            for (j, &c) in path.iter().enumerate() {
                let members = d.members_sorted(c);
                stream += 1;
                let est = InfluenceEstimate::on_community(
                    &g,
                    Model::WeightedCascade,
                    &members,
                    400 * members.len(),
                    est_seeds.child(stream),
                    Parallelism::Threads(1),
                );
                let direct = est.rank(q, &members);
                let stored = idx.ranks_of(q)[j] as usize;
                assert!(
                    stored.abs_diff(direct) <= 1,
                    "q={q} level {j}: stored {stored} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn floor_limits_the_scan() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let idx = build(&g, &d, &lca, 300, 24);
        // Query node 9 (a periphery leaf of the small star): with floor at
        // the root, only the root is scanned, and node 9 is not top-1 there.
        let root = d.root();
        assert_eq!(idx.largest_top_k(&d, 9, Some(root), 1), None);
        // With a generous k the root itself qualifies.
        assert_eq!(idx.largest_top_k(&d, 9, Some(root), 10), Some(root));
    }

    #[test]
    fn parallel_build_is_deterministic_and_consistent() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let a = build_on(&g, &d, &lca, 200, 77, Parallelism::Threads(4));
        let b = build_on(&g, &d, &lca, 200, 77, Parallelism::Threads(4));
        for v in 0..10u32 {
            assert_eq!(a.ranks_of(v), b.ranks_of(v), "same seed => same index");
        }
        // Structural agreement: the hub must rank first everywhere.
        for &r in a.ranks_of(0) {
            assert_eq!(r, 1);
        }
        assert_eq!(a.theta(), 200 * 10);
    }

    #[test]
    fn seeded_build_is_thread_count_invariant() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let base = build(&g, &d, &lca, 150, 1234);
        for t in [2usize, 3, 8] {
            let idx = build_on(&g, &d, &lca, 150, 1234, Parallelism::Threads(t));
            for v in 0..10u32 {
                assert_eq!(base.ranks_of(v), idx.ranks_of(v), "threads {t}, node {v}");
            }
            assert_eq!(base.theta(), idx.theta());
        }
    }

    #[test]
    fn parallel_build_with_one_thread_works() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let a = build(&g, &d, &lca, 50, 5);
        assert_eq!(a.num_nodes(), 10);
    }

    #[test]
    fn build_stats_reflect_construction_effort() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let idx = build(&g, &d, &lca, 10, 31);
        let s = idx.build_stats();
        // Every one of the Θ = θ·|V| uniform draws generates an RR graph,
        // and stage 2 merges one bucket per internal vertex.
        assert_eq!(s.rr_graphs, 100);
        assert!(s.rr_edges > 0);
        assert_eq!(s.bucket_merges, (d.num_vertices() - 10) as u64);
        let seeded = build_on(&g, &d, &lca, 10, 9, Parallelism::Threads(4));
        assert_eq!(seeded.build_stats().rr_graphs, 100);
        assert_eq!(seeded.build_stats().bucket_merges, s.bucket_merges);
        // A reloaded index carries no provenance.
        let raw = HimorIndex::from_raw(vec![vec![1]], 5);
        assert_eq!(raw.build_stats(), BuildStats::default());
    }

    #[test]
    fn patchable_build_matches_plain_seeded_build() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let plain = build_on(&g, &d, &lca, 100, 42, Parallelism::Threads(3));
        let (patchable, state) = HimorIndex::build_patchable(
            &g,
            Model::WeightedCascade,
            &d,
            &lca,
            100,
            42,
            Parallelism::Threads(3),
            None,
        )
        .unwrap();
        for v in 0..10u32 {
            assert_eq!(plain.ranks_of(v), patchable.ranks_of(v), "node {v}");
        }
        assert_eq!(state.theta(), plain.theta());
        assert!(state.memory_bytes() > 0);
    }

    #[test]
    fn patch_reproduces_a_from_scratch_rebuild() {
        use cod_hierarchy::{match_vertices, repair_merges};

        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..12 {
            // Random sparse graph, then flip one random edge.
            let n = 12usize;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    if rng.random_bool(0.28) {
                        edges.push((u, v));
                    }
                }
            }
            edges.push((0, 1));
            edges.sort_unstable();
            edges.dedup();
            let mut b = GraphBuilder::new(n);
            for &(u, v) in &edges {
                b.add_edge(u, v);
            }
            let g0 = b.build();
            let (d0, lca0) = setup(&g0);
            let (_, mut state) = HimorIndex::build_patchable(
                &g0,
                Model::WeightedCascade,
                &d0,
                &lca0,
                20,
                7 + trial,
                Parallelism::Threads(2),
                None,
            )
            .unwrap();

            let u = rng.random_range(0..n as u32);
            let v = (u + 1 + rng.random_range(0..(n as u32 - 1))) % n as u32;
            let (u, v) = (u.min(v), u.max(v));
            let mut e1: Vec<_> = edges.iter().copied().filter(|&e| e != (u, v)).collect();
            if e1.len() == edges.len() {
                e1.push((u, v));
                e1.sort_unstable();
            }
            if e1.is_empty() {
                continue;
            }
            let mut b1 = GraphBuilder::new(n);
            for &(x, y) in &e1 {
                b1.add_edge(x, y);
            }
            let g1 = b1.build();
            let repair = repair_merges(&d0, &g1, &[u, v], Linkage::Average, true);
            let d1 = Dendrogram::from_merges(n, &repair.merges);
            let lca1 = LcaIndex::new(&d1);
            let diff = match_vertices(&d0, &d1);
            let (patched, stats) = state
                .patch(
                    &g1,
                    Model::WeightedCascade,
                    &d1,
                    &lca1,
                    &diff,
                    &[u, v],
                    Parallelism::Threads(2),
                    None,
                )
                .unwrap();
            let scratch = build_on(&g1, &d1, &lca1, 20, 7 + trial, Parallelism::Threads(2));
            for q in 0..n as u32 {
                assert_eq!(
                    patched.ranks_of(q),
                    scratch.ranks_of(q),
                    "trial {trial} node {q}: patched index must equal scratch build"
                );
            }
            assert!(stats.samples_redrawn <= stats.samples_total);
        }
    }

    #[test]
    fn patched_state_equals_a_fresh_patchable_build() {
        use cod_hierarchy::{match_vertices, repair_merges, RepairOutcome};

        let n = 14u32;
        let mut rng = SmallRng::seed_from_u64(2024);
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        for _ in 0..10 {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            if u != v {
                edges.push((u.min(v), u.max(v)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let graph = |edges: &[(u32, u32)]| {
            let mut b = GraphBuilder::new(n as usize);
            for &(u, v) in edges {
                b.add_edge(u, v);
            }
            b.build()
        };
        let patchable = |g: &Csr, d: &Dendrogram, lca: &LcaIndex, threads: usize| {
            HimorIndex::build_patchable(
                g,
                Model::WeightedCascade,
                d,
                lca,
                12,
                31,
                Parallelism::Threads(threads),
                None,
            )
            .unwrap()
        };
        let g = graph(&edges);
        let (mut d, lca) = setup(&g);
        let (_, mut state) = patchable(&g, &d, &lca, 2);
        let (mut recomputed, mut retagged) = (0, 0);
        for step in 0..24 {
            // Flip one random edge, keeping the path spine so the graph
            // stays connected.
            let u = rng.random_range(0..n - 2);
            let v = rng.random_range(u + 2..n);
            match edges.binary_search(&(u, v)) {
                Ok(at) => {
                    edges.remove(at);
                }
                Err(at) => edges.insert(at, (u, v)),
            }
            let g1 = graph(&edges);
            let repair = repair_merges(&d, &g1, &[u, v], Linkage::Average, true);
            recomputed += usize::from(repair.outcome == RepairOutcome::Recomputed);
            let d1 = Dendrogram::from_merges(n as usize, &repair.merges);
            let lca1 = LcaIndex::new(&d1);
            let diff = match_vertices(&d, &d1);
            let touching = state
                .samples
                .iter()
                .filter(|rr| rr.nodes().iter().any(|&w| w == u || w == v))
                .count() as u64;
            let (patched, stats) = state
                .patch(
                    &g1,
                    Model::WeightedCascade,
                    &d1,
                    &lca1,
                    &diff,
                    &[u, v],
                    Parallelism::Threads(1 + step % 3),
                    None,
                )
                .unwrap();
            let (fresh, fresh_state) = patchable(&g1, &d1, &lca1, 1 + step % 2);
            for q in 0..n {
                assert_eq!(
                    patched.ranks_of(q),
                    fresh.ranks_of(q),
                    "step {step} node {q}"
                );
            }
            assert_eq!(state.samples, fresh_state.samples, "step {step}: arena");
            assert_eq!(state.tags, fresh_state.tags, "step {step}: tags");
            assert_eq!(state.buckets, fresh_state.buckets, "step {step}: buckets");
            assert_eq!(stats.samples_resampled, touching, "step {step}");
            assert!(stats.samples_resampled <= stats.samples_redrawn);
            retagged += stats.samples_redrawn - stats.samples_resampled;
            d = d1;
        }
        assert!(recomputed > 0, "no repair recomputed the tree");
        assert!(retagged > 0, "no sample was re-tagged without a redraw");
    }

    #[test]
    fn memory_reflects_total_depth() {
        let g = two_stars();
        let (d, lca) = setup(&g);
        let idx = build(&g, &d, &lca, 10, 25);
        let entries: usize = (0..10u32).map(|v| d.root_path(v).len()).sum();
        assert!(idx.memory_bytes() >= entries * 4);
    }
}
