//! Algorithm 2 (`QueryAttrRelated`): the LORE reclustering score (§IV-A).
//!
//! For each community `C_i(q)` on the query node's root path, the
//! reclustering score is
//!
//! ```text
//! r(C_i) · |C_i| = Σ_{j = 1..i} Δ(C_j) · dep(C_j)          (Eq. 3/4)
//! ```
//!
//! where `Δ(C)` counts the query-attributed edges whose lowest common
//! ancestor is exactly `C` (the edges `C` "divides" into different
//! children). LORE reclusters the community with the maximum score;
//! on ties the deepest maximum wins (Algorithm 2 keeps the first strict
//! improvement).
//!
//! `Δ` depends on the graph, `T` and the attribute, never on `q`, so it is
//! kept as one sorted row of `(vertex, Δ)` pairs per attribute
//! ([`DeltaRow`]): one pass over the edges builds it, and a selection
//! then costs `O(|H(q)| log |row|)` — one binary search per community on
//! the root path. [`LoreTable`] holds the rows of every attribute of one
//! `(graph, T)` pair and builds each on first use.

use std::sync::OnceLock;

use cod_graph::{AttrId, AttributedGraph, NodeId};
use cod_hierarchy::{Dendrogram, LcaIndex, VertexId, NO_VERTEX};

/// The community LORE chose for reclustering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReclusterChoice {
    /// The chosen community `C_ℓ` as a vertex of the non-attributed
    /// hierarchy `T`.
    pub vertex: VertexId,
    /// Its index on the query node's root path (0 = deepest).
    pub chain_index: usize,
    /// Its reclustering score `r(C_ℓ)`.
    pub score: f64,
}

/// `Δ(C)` of one attribute for every vertex `C` of `T`: the number of
/// attributed edges whose lca is exactly `C`, stored as `(C, Δ(C))` pairs
/// sorted by vertex (vertices with `Δ = 0` are left out), so a row costs
/// 8 bytes per distinct lca.
#[derive(Clone, Debug, Default)]
pub struct DeltaRow {
    entries: Vec<(VertexId, u32)>,
}

/// The row of an attribute no node carries.
static EMPTY_ROW: DeltaRow = DeltaRow {
    entries: Vec::new(),
};

impl DeltaRow {
    /// One pass over the edges of `g`: one lca query per edge whose
    /// endpoints both carry `attr`.
    pub fn build(g: &AttributedGraph, dendro: &Dendrogram, lca: &LcaIndex, attr: AttrId) -> Self {
        let mut lcas = Vec::new();
        for u in 0..g.num_nodes() as NodeId {
            if !g.has_attr(u, attr) {
                continue;
            }
            for &v in g.neighbors(u) {
                if u < v && g.has_attr(v, attr) {
                    lcas.push(lca.lca(dendro.leaf(u), dendro.leaf(v)));
                }
            }
        }
        lcas.sort_unstable();
        let entries = lcas
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u32))
            .collect();
        Self { entries }
    }

    /// `Δ(c)`.
    fn delta(&self, c: VertexId) -> u64 {
        match self.entries.binary_search_by_key(&c, |&(v, _)| v) {
            Ok(i) => u64::from(self.entries[i].1),
            Err(_) => 0,
        }
    }

    /// Walks `q`'s root path deepest first and hands each community's
    /// reclustering score to `visit(i, C_i, r(C_i))`: prefix sums of
    /// `Δ(C_j)·dep(C_j)` over `j = 1..i`, divided by `|C_i|`, with
    /// `r(C_0) = 0` (no chain descendant can divide an edge).
    fn walk(&self, dendro: &Dendrogram, q: NodeId, mut visit: impl FnMut(usize, VertexId, f64)) {
        let leaf = dendro.leaf(q);
        // depth(C_i) = base - i.
        let base = dendro.depth(leaf) - 1;
        let mut s = 0u64;
        let mut v = dendro.parent(leaf);
        let mut i = 0usize;
        while v != NO_VERTEX {
            let score = if i == 0 {
                0.0
            } else {
                s += self.delta(v) * u64::from(base - i as u32);
                s as f64 / dendro.size(v) as f64
            };
            visit(i, v, score);
            v = dendro.parent(v);
            i += 1;
        }
    }

    /// The reclustering score maximizer on `q`'s root path (Algorithm 2):
    /// the first strict improvement wins, so on ties the deepest maximum
    /// does. `None` when every score is zero.
    pub fn select(&self, dendro: &Dendrogram, q: NodeId) -> Option<ReclusterChoice> {
        let mut best: Option<ReclusterChoice> = None;
        self.walk(dendro, q, |chain_index, vertex, score| {
            let improves = match best {
                None => score > 0.0,
                Some(b) => score > b.score,
            };
            if improves {
                best = Some(ReclusterChoice {
                    vertex,
                    chain_index,
                    score,
                });
            }
        });
        best
    }

    /// The scores `r(C_i(q))` of every community on `q`'s root path
    /// (index 0 = deepest); `None` for an empty path.
    pub fn scores(&self, dendro: &Dendrogram, q: NodeId) -> Option<Vec<f64>> {
        let mut scores = Vec::new();
        self.walk(dendro, q, |_, _, score| scores.push(score));
        (!scores.is_empty()).then_some(scores)
    }
}

/// The [`DeltaRow`]s of every attribute of one graph over one hierarchy
/// `T`, each built the first time a query names its attribute.
///
/// The table does not own the graph or the hierarchy: every call must pass
/// the same `(g, dendro, lca)` the table was made for, and an owner that
/// replaces any of them (a new attribute table, a repaired `T`) replaces
/// the table too. Each slot is a [`OnceLock`], so concurrent first queries
/// of one attribute build its row once.
#[derive(Debug)]
pub struct LoreTable {
    rows: Box<[OnceLock<DeltaRow>]>,
}

impl LoreTable {
    /// An empty table for the attributes of `g`.
    pub fn new(g: &AttributedGraph) -> Self {
        Self {
            rows: (0..g.num_attrs()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `attr`'s row, built on first use; the flag is true when this call
    /// built it. An attribute beyond [`AttributedGraph::num_attrs`] is
    /// carried by no node, so its row is empty.
    pub fn row(
        &self,
        g: &AttributedGraph,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        attr: AttrId,
    ) -> (&DeltaRow, bool) {
        let Some(slot) = self.rows.get(attr as usize) else {
            return (&EMPTY_ROW, false);
        };
        let mut built = false;
        let row = slot.get_or_init(|| {
            built = true;
            DeltaRow::build(g, dendro, lca, attr)
        });
        (row, built)
    }

    /// LORE's choice for `(q, attr)` ([`DeltaRow::select`] on `attr`'s row).
    pub fn select(
        &self,
        g: &AttributedGraph,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        q: NodeId,
        attr: AttrId,
    ) -> Option<ReclusterChoice> {
        self.row(g, dendro, lca, attr).0.select(dendro, q)
    }
}

/// Computes the reclustering scores of all communities on `q`'s root path
/// and returns the maximizer (Algorithm 2, `QueryAttrRelated`).
///
/// Returns `None` when no query-attributed edge is split on the path (all
/// scores zero) — CODL then skips reclustering and answers from the
/// non-attributed hierarchy alone. A one-shot call builds `attr`'s whole
/// row; callers with many queries keep a [`LoreTable`].
pub fn select_recluster_community(
    g: &AttributedGraph,
    dendro: &Dendrogram,
    lca: &LcaIndex,
    q: NodeId,
    attr: AttrId,
) -> Option<ReclusterChoice> {
    DeltaRow::build(g, dendro, lca, attr).select(dendro, q)
}

/// The raw reclustering scores `r(C_i(q))` for every community on `q`'s
/// root path (index 0 = deepest). `r(C_0) = 0` by definition (no chain
/// descendant can divide an edge). Returns `None` for an empty path.
pub fn recluster_scores(
    g: &AttributedGraph,
    dendro: &Dendrogram,
    lca: &LcaIndex,
    q: NodeId,
    attr: AttrId,
) -> Option<Vec<f64>> {
    DeltaRow::build(g, dendro, lca, attr).scores(dendro, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recluster::build_hierarchy;
    use cod_graph::{AttrInterner, AttrTable, GraphBuilder};
    use cod_hierarchy::{Linkage, Merge};
    use proptest::prelude::*;
    use rand::prelude::*;

    /// The per-query edge scan LORE's rows replaced, kept as the oracle:
    /// `Δ` along `q`'s path from one lca query per attributed edge.
    fn scan_scores(
        g: &AttributedGraph,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        q: NodeId,
        attr: AttrId,
    ) -> Option<Vec<f64>> {
        let path = dendro.root_path(q);
        if path.is_empty() {
            return None;
        }
        let m = path.len();
        let base = dendro.depth(dendro.leaf(q)) - 1;
        let mut delta = vec![0u64; m];
        for (u, v) in g.edges() {
            if !g.edge_is_attributed(u, v, attr) {
                continue;
            }
            let c = lca.lca(dendro.leaf(u), dendro.leaf(v));
            if !dendro.contains(c, q) {
                continue;
            }
            delta[(base - dendro.depth(c)) as usize] += 1;
        }
        let mut scores = vec![0.0; m];
        let mut s = 0u64;
        for i in 1..m {
            s += delta[i] * u64::from(base - i as u32);
            scores[i] = s as f64 / dendro.size(path[i]) as f64;
        }
        Some(scores)
    }

    /// Algorithm 2's strict-improvement loop over the oracle's scores.
    fn scan_select(
        g: &AttributedGraph,
        dendro: &Dendrogram,
        lca: &LcaIndex,
        q: NodeId,
        attr: AttrId,
    ) -> Option<ReclusterChoice> {
        let scores = scan_scores(g, dendro, lca, q, attr)?;
        let path = dendro.root_path(q);
        let mut best: Option<ReclusterChoice> = None;
        for (i, &score) in scores.iter().enumerate() {
            let improves = match best {
                None => score > 0.0,
                Some(b) => score > b.score,
            };
            if improves {
                best = Some(ReclusterChoice {
                    vertex: path[i],
                    chain_index: i,
                    score,
                });
            }
        }
        best
    }

    /// A random attributed graph: a random forest (some nodes start a new
    /// component) plus extra edges; each node carries a random subset of
    /// `used` attributes (possibly none, possibly several). One more
    /// attribute is interned that no node carries.
    fn random_attributed(n: usize, extra: usize, used: u32, seed: u64) -> AttributedGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 1..n as NodeId {
            if rng.random_range(0..5u32) > 0 {
                b.add_edge(rng.random_range(0..v), v);
            }
        }
        for _ in 0..extra {
            b.add_edge(
                rng.random_range(0..n as NodeId),
                rng.random_range(0..n as NodeId),
            );
        }
        let mut interner = AttrInterner::new();
        for a in 0..=used {
            interner.intern(&format!("a{a}"));
        }
        let lists = (0..n)
            .map(|_| {
                (0..used)
                    .filter(|_| rng.random_range(0..2u32) == 1)
                    .collect()
            })
            .collect();
        AttributedGraph::from_parts(b.build(), AttrTable::from_lists(lists), interner)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table's scores and choice equal the per-query scan bit for
        /// bit, for every query node and attribute — including the
        /// interned attribute no node carries and an id past every
        /// interned one.
        #[test]
        fn table_matches_the_scan_oracle(
            n in 1usize..40,
            extra in 0usize..50,
            used in 1u32..4,
            seed in 0u64..1_000_000,
        ) {
            let g = random_attributed(n, extra, used, seed);
            let d = build_hierarchy(g.csr(), Linkage::Average);
            let lca = LcaIndex::new(&d);
            let table = LoreTable::new(&g);
            for attr in 0..used + 2 {
                for q in 0..n as NodeId {
                    let (row, _) = table.row(&g, &d, &lca, attr);
                    let bits = |s: Option<Vec<f64>>| {
                        s.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    };
                    let want = scan_scores(&g, &d, &lca, q, attr);
                    prop_assert_eq!(bits(row.scores(&d, q)), bits(want.clone()));
                    prop_assert_eq!(bits(recluster_scores(&g, &d, &lca, q, attr)), bits(want));
                    let want = scan_select(&g, &d, &lca, q, attr);
                    let got = table.select(&g, &d, &lca, q, attr);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(got.map(|c| c.score.to_bits()), want.map(|c| c.score.to_bits()));
                    prop_assert_eq!(select_recluster_community(&g, &d, &lca, q, attr), want);
                }
            }
        }
    }

    #[test]
    fn rows_build_once_per_attribute() {
        let (g, d, lca) = paper_example();
        let table = LoreTable::new(&g);
        assert!(
            table.row(&g, &d, &lca, 0).1,
            "the first query builds the row"
        );
        assert!(!table.row(&g, &d, &lca, 0).1, "a repeat query reuses it");
        assert!(table.row(&g, &d, &lca, 1).1);
        // Past every attribute: no node carries it, nothing to build.
        let (row, built) = table.row(&g, &d, &lca, 99);
        assert!(!built);
        assert!(row.select(&d, 0).is_none());
    }

    /// The paper's running example: Fig. 2 graph + Fig. 5 attributes.
    ///
    /// Hierarchy: C_0 = {0,1,2,3}, C_1 = {4,5}, C_2 = {6,7},
    /// C_3 = C_0 ∪ C_2, C_4 = C_3 ∪ C_1, C_5 = {8,9}, C_6 = root.
    /// Edges (Fig. 2): within C_0: (0,1),(0,2),(0,3),(1,2),(2,3);
    /// (2,4),(3,5),(4,5),(3,7),(3,6),(6,7),(5,6),(6,8),(8,9),(6,9).
    /// DB attribute (Fig. 5) on: v0, v2, v3, v4, v5, v7 — chosen so that
    /// δ(v0, C_4) = {(2,4),(3,5),(3,7)} as in Example 5.
    fn paper_example() -> (AttributedGraph, Dendrogram, LcaIndex) {
        let mut b = GraphBuilder::new(10);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (2, 3),
            (2, 4),
            (3, 5),
            (4, 5),
            (3, 7),
            (3, 6),
            (6, 7),
            (5, 6),
            (6, 8),
            (8, 9),
            (6, 9),
        ] {
            b.add_edge(u, v);
        }
        let csr = b.build();
        let mut interner = AttrInterner::new();
        let db = interner.intern("DB");
        assert_eq!(db, 0);
        let ml = interner.intern("ML");
        let attr_of = |v: NodeId| -> Vec<AttrId> {
            match v {
                0 | 2 | 3 | 4 | 5 | 7 => vec![db],
                _ => vec![ml],
            }
        };
        let attrs = AttrTable::from_lists((0..10).map(attr_of).collect());
        let g = AttributedGraph::from_parts(csr, attrs, interner);

        let merges = vec![
            Merge { a: 0, b: 1 },   // 10
            Merge { a: 10, b: 2 },  // 11
            Merge { a: 11, b: 3 },  // 12 = C_0
            Merge { a: 4, b: 5 },   // 13 = C_1
            Merge { a: 6, b: 7 },   // 14 = C_2
            Merge { a: 12, b: 14 }, // 15 = C_3
            Merge { a: 15, b: 13 }, // 16 = C_4
            Merge { a: 8, b: 9 },   // 17 = C_5
            Merge { a: 16, b: 17 }, // 18 = C_6 (root)
        ];
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        (g, d, lca)
    }

    /// Hand-computed scores on the *binary* refinement of the paper's tree.
    ///
    /// The path of `v_0` is `[10, 11, 12=C_0, 15=C_3, 16=C_4, 18=C_6]` with
    /// depths `6..1`. Query-attributed (DB) edge lcas on the path:
    /// `(0,2)→11`, `(0,3),(2,3)→12`, `(3,7)→15`, `(2,4),(3,5)→16`
    /// (`(4,5)→13` is off-path and ignored, as in Example 5). Hence
    /// `Δ = [0, 1, 2, 1, 2, 0]` and the Eq.-3 prefix recursion gives
    /// `r = [0, 5/3, 13/4, 16/6, 20/8, 20/10]`.
    ///
    /// Note the paper's own Example 6 numbers (`r(C_3) = 1/2`,
    /// `r(C_4) = 7/8`) assume the illustrated 4-ary tree where `C_0` has no
    /// internal structure; with `C_0` refined, its internal DB edges count
    /// toward every ancestor, exactly as Definition 4 prescribes.
    #[test]
    fn scores_follow_eq3_recursion_on_binary_fig2() {
        let (g, d, lca) = paper_example();
        let scores = recluster_scores(&g, &d, &lca, 0, 0).unwrap();
        let expect = [0.0, 5.0 / 3.0, 13.0 / 4.0, 16.0 / 6.0, 20.0 / 8.0, 2.0];
        assert_eq!(scores.len(), expect.len());
        for (i, (&got, &want)) in scores.iter().zip(expect.iter()).enumerate() {
            assert!((got - want).abs() < 1e-12, "i={i}: {got} vs {want}");
        }
    }

    #[test]
    fn selects_the_score_maximizer() {
        let (g, d, lca) = paper_example();
        let choice = select_recluster_community(&g, &d, &lca, 0, 0).unwrap();
        assert_eq!(
            choice.vertex, 12,
            "C_0 maximizes the score on the binary tree"
        );
        assert_eq!(choice.chain_index, 2);
        assert!((choice.score - 13.0 / 4.0).abs() < 1e-12);
    }

    /// The exact Example 5/6 arithmetic, checked on the sub-expression the
    /// paper isolates: the contributions of the edges divided *above* C_0.
    #[test]
    fn example_6_arithmetic_above_c0() {
        let (g, d, lca) = paper_example();
        let path = d.root_path(0);
        let base = d.depth(d.leaf(0)) - 1;
        // Δ(C_3)·dep(C_3) = 1·3 and Δ(C_4)·dep(C_4) = 2·2, as in Example 6.
        let mut above_c0 = std::collections::BTreeMap::new();
        for (u, v) in g.edges() {
            if !g.edge_is_attributed(u, v, 0) {
                continue;
            }
            let c = lca.lca(d.leaf(u), d.leaf(v));
            if d.contains(c, 0) && d.depth(c) <= 3 {
                *above_c0.entry(c).or_insert(0u64) += 1;
            }
        }
        assert_eq!(above_c0.get(&15), Some(&1)); // C_3 divides (3,7)
        assert_eq!(above_c0.get(&16), Some(&2)); // C_4 divides (2,4),(3,5)
                                                 // Reconstruct the paper's r(C_3), r(C_4) over the named communities:
        let r_c3: f64 = 3.0 / 6.0;
        let r_c4 = (3 + 2 * 2) as f64 / 8.0;
        assert!((r_c3 - 0.5).abs() < 1e-12);
        assert!((r_c4 - 7.0 / 8.0).abs() < 1e-12);
        let _ = (path, base);
    }

    #[test]
    fn deepest_community_scores_zero() {
        let (g, d, lca) = paper_example();
        let scores = recluster_scores(&g, &d, &lca, 0, 0).unwrap();
        assert_eq!(scores[0], 0.0);
    }

    #[test]
    fn no_attributed_edges_yields_none() {
        let (g, d, lca) = paper_example();
        // Attribute id 1 = ML: only v1, v6, v8, v9 carry it; the edges
        // among them on v0's path: (6,8),(6,9),(8,9) have lcas C_6/C_6/C_5.
        // C_5 does not contain v0, so only Δ(root) grows — root score is
        // positive. Use a fresh attribute id with no nodes instead.
        assert!(select_recluster_community(&g, &d, &lca, 0, 99).is_none());
    }

    #[test]
    fn ml_edges_divided_only_at_root_give_root_score() {
        let (g, d, lca) = paper_example();
        let scores = recluster_scores(&g, &d, &lca, 0, 1).unwrap();
        let path = d.root_path(0);
        let root_idx = path.len() - 1;
        // (6,8) and (6,9) have lca = root (depth 1): r(root) = 2·1/10.
        assert!((scores[root_idx] - 0.2).abs() < 1e-12, "{scores:?}");
        let choice = select_recluster_community(&g, &d, &lca, 0, 1).unwrap();
        assert_eq!(choice.chain_index, root_idx);
    }
}
