//! Reverse-reachable graphs (paper Definitions 2 and 3).
//!
//! RR graphs live in two shapes that share one read interface,
//! [`RrRef`]:
//!
//! * [`RrArena`] — many RR graphs in four flat streams, the storage the
//!   sampler writes into and the shared pool keeps;
//! * [`RrGraph`] — one owned RR graph, for callers that keep individual
//!   samples around.

use std::ops::Range;

use cod_graph::NodeId;

/// A borrowed view of one RR graph: an RR set together with the edges
/// activated while generating it (Definition 2). Nodes carry local indices
/// `0..len`, node `0` being the source; out-neighbors are *directed*
/// traversal edges `v ⇒ u` (meaning `u` reverse-activated from `v`, i.e.
/// influence flows `u → v`).
///
/// Restricting traversal to a community yields the induced RR graph of
/// Definition 3; by Theorem 2 the probability that a node is reachable from
/// the source inside the restriction estimates its influence in that
/// community.
#[derive(Clone, Copy, Debug)]
pub struct RrRef<'a> {
    /// Global node ids, in exploration (BFS) order.
    nodes: &'a [NodeId],
    /// `len + 1` CSR offsets into `targets`, per local node. Offsets are
    /// positions in the backing stream, so they need not start at zero.
    offsets: &'a [u32],
    /// The backing target stream (local indices).
    targets: &'a [u32],
}

impl<'a> RrRef<'a> {
    /// The source node (global id).
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Number of nodes in the RR set.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the RR graph holds only the source (it never holds zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of activated (directed traversal) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        (self.offsets[self.nodes.len()] - self.offsets[0]) as usize
    }

    /// Global ids of the RR set, in exploration order.
    #[inline]
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Global id of local node `l`.
    #[inline]
    pub fn node(&self, l: u32) -> NodeId {
        self.nodes[l as usize]
    }

    /// Out-neighbors (local indices) of local node `l`.
    #[inline]
    pub fn out_neighbors(&self, l: u32) -> &'a [u32] {
        let l = l as usize;
        &self.targets[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Nodes reachable from the source when traversal is restricted to
    /// nodes satisfying `keep` — the reachable set of the induced RR graph
    /// `R_g(C)` of Definition 3. Returns global ids; empty if the source
    /// itself is excluded.
    pub fn reachable_within(&self, keep: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        if !keep(self.source()) {
            return Vec::new();
        }
        let mut seen = vec![false; self.len()];
        seen[0] = true;
        let mut stack = vec![0u32];
        let mut out = vec![self.source()];
        while let Some(v) = stack.pop() {
            for &u in self.out_neighbors(v) {
                if !seen[u as usize] && keep(self.nodes[u as usize]) {
                    seen[u as usize] = true;
                    stack.push(u);
                    out.push(self.nodes[u as usize]);
                }
            }
        }
        out
    }

    /// An owned copy with exact-capacity arrays.
    pub fn to_graph(&self) -> RrGraph {
        let base = self.offsets[0];
        let end = self.offsets[self.nodes.len()];
        RrGraph {
            nodes: self.nodes.to_vec(),
            offsets: self.offsets.iter().map(|&o| o - base).collect(),
            targets: self.targets[base as usize..end as usize].to_vec(),
        }
    }
}

/// Two views are equal when they hold the same nodes in the same order and
/// the same out-neighbor lists — wherever their streams live.
impl PartialEq for RrRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && (0..self.len() as u32).all(|l| self.out_neighbors(l) == other.out_neighbors(l))
    }
}

impl Eq for RrRef<'_> {}

/// Many RR graphs in four flat streams.
///
/// Graph `i` owns nodes `starts[i]..starts[i + 1]` of `nodes`; node `k`
/// (an arena-wide position) owns targets `offsets[k]..offsets[k + 1]`,
/// which hold *local* indices into its graph. Both index streams carry a
/// leading `0`, so an arena of `G` graphs, `N` nodes and `E` edges holds
/// `4·(G + 1) + 8·N + 4·(E + 1)` bytes of payload and no per-graph heap
/// allocation.
///
/// [`crate::RrSampler::sample_into`] appends to an arena in place: the
/// sampler's BFS emits each node's activated edges together, in node
/// order, so every offset is final the moment its node is expanded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RrArena {
    starts: Vec<u32>,
    nodes: Vec<NodeId>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Default for RrArena {
    fn default() -> Self {
        Self::new()
    }
}

impl RrArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self {
            starts: vec![0],
            nodes: Vec::new(),
            offsets: vec![0],
            targets: Vec::new(),
        }
    }

    /// Number of RR graphs held.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether the arena holds no RR graph.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// RR graph `i`.
    #[inline]
    pub fn get(&self, i: usize) -> RrRef<'_> {
        let (s, e) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        RrRef {
            nodes: &self.nodes[s..e],
            offsets: &self.offsets[s..=e],
            targets: &self.targets,
        }
    }

    /// The RR graphs in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RrRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Nodes across every held RR graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Activated edges across every held RR graph.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Drops every RR graph, keeping the stream capacity.
    pub fn clear(&mut self) {
        self.starts.truncate(1);
        self.nodes.clear();
        self.offsets.truncate(1);
        self.targets.clear();
    }

    /// Releases spare stream capacity, so [`RrArena::memory_bytes`] is the
    /// payload size. Called on arenas that are kept, never on scratch.
    pub fn shrink_to_fit(&mut self) {
        self.starts.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.targets.shrink_to_fit();
    }

    /// Heap bytes held by the four streams (capacity, not length).
    pub fn memory_bytes(&self) -> usize {
        (self.starts.capacity() + self.offsets.capacity() + self.targets.capacity())
            * size_of::<u32>()
            + self.nodes.capacity() * size_of::<NodeId>()
    }

    /// Reserves exact stream capacity for `graphs` more graphs holding
    /// `nodes` nodes and `edges` edges, so filling the arena to that size
    /// never reallocates.
    pub fn reserve(&mut self, graphs: usize, nodes: usize, edges: usize) {
        self.starts.reserve_exact(graphs);
        self.nodes.reserve_exact(nodes);
        self.offsets.reserve_exact(nodes);
        self.targets.reserve_exact(edges);
    }

    /// Appends every RR graph of `other`, rebasing its index streams.
    pub fn extend_from(&mut self, other: &RrArena) {
        self.extend_from_range(other, 0..other.len());
    }

    /// Appends RR graphs `graphs` of `other`, rebasing their index
    /// streams: one bulk copy per stream, however many graphs.
    pub fn extend_from_range(&mut self, other: &RrArena, graphs: Range<usize>) {
        let (n0, n1) = (other.starts[graphs.start], other.starts[graphs.end]);
        let (e0, e1) = (other.offsets[n0 as usize], other.offsets[n1 as usize]);
        let node_base = stream_pos(self.nodes.len());
        let edge_base = stream_pos(self.targets.len());
        self.starts.extend(
            other.starts[graphs.start + 1..=graphs.end]
                .iter()
                .map(|&s| s - n0 + node_base),
        );
        self.nodes
            .extend_from_slice(&other.nodes[n0 as usize..n1 as usize]);
        self.offsets.extend(
            other.offsets[n0 as usize + 1..=n1 as usize]
                .iter()
                .map(|&o| o - e0 + edge_base),
        );
        self.targets
            .extend_from_slice(&other.targets[e0 as usize..e1 as usize]);
    }

    // --- The sampler's append protocol ---------------------------------
    // `begin_graph(source)` → for each node in order: `push_node` for
    // newly reached nodes, `push_target` per activated edge, then
    // `end_node` → `end_graph`.

    /// Arena position of the next node to be pushed.
    #[inline]
    pub(crate) fn next_node(&self) -> usize {
        self.nodes.len()
    }

    /// Global id of the node at arena position `k`.
    #[inline]
    pub(crate) fn node_at(&self, k: usize) -> NodeId {
        self.nodes[k]
    }

    #[inline]
    pub(crate) fn push_node(&mut self, v: NodeId) {
        self.nodes.push(v);
    }

    #[inline]
    pub(crate) fn push_target(&mut self, local: u32) {
        self.targets.push(local);
    }

    /// Closes the out-edge list of the oldest node not yet closed.
    #[inline]
    pub(crate) fn end_node(&mut self) {
        self.offsets.push(stream_pos(self.targets.len()));
    }

    /// Closes the graph whose nodes were pushed since the last call.
    #[inline]
    pub(crate) fn end_graph(&mut self) {
        debug_assert_eq!(self.offsets.len(), self.nodes.len() + 1);
        self.starts.push(stream_pos(self.nodes.len()));
    }
}

/// A stream length as a `u32` index; arenas are capped at `u32::MAX`
/// nodes and edges.
#[inline]
fn stream_pos(len: usize) -> u32 {
    u32::try_from(len).expect("RR arena stream exceeds u32::MAX entries")
}

/// One owned RR graph (see [`RrRef`] for the structure). Nodes are stored
/// with local indices `0..len`, node `0` being the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RrGraph {
    /// Global node ids, in exploration (BFS) order; `nodes[0]` is the source.
    nodes: Vec<NodeId>,
    /// CSR offsets into `targets`, per local node.
    offsets: Vec<u32>,
    /// Out-neighbors (local indices) following activated edges away from the
    /// source.
    targets: Vec<u32>,
}

impl RrGraph {
    /// Assembles an RR graph from an exploration's `(from, to)` local edge
    /// list by counting sort — the sampler's former builder, kept as the
    /// reference the in-place arena writer is tested against.
    #[cfg(test)]
    pub(crate) fn from_parts(nodes: Vec<NodeId>, edges: &[(u32, u32)]) -> Self {
        let n = nodes.len();
        let mut counts = vec![0u32; n + 1];
        for &(f, _) in edges {
            counts[f as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; edges.len()];
        for &(f, t) in edges {
            debug_assert!((t as usize) < n);
            targets[cursor[f as usize] as usize] = t;
            cursor[f as usize] += 1;
        }
        Self {
            nodes,
            offsets,
            targets,
        }
    }

    /// The borrowed view every reader goes through.
    #[inline]
    pub fn view(&self) -> RrRef<'_> {
        RrRef {
            nodes: &self.nodes,
            offsets: &self.offsets,
            targets: &self.targets,
        }
    }

    /// The source node (global id).
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Number of nodes in the RR set.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the RR graph holds only the source (it never holds zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of activated (directed traversal) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Global ids of the RR set, in exploration order.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Global id of local node `l`.
    #[inline]
    pub fn node(&self, l: u32) -> NodeId {
        self.nodes[l as usize]
    }

    /// Heap bytes held by this RR graph's three arrays.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<NodeId>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.targets.capacity() * size_of::<u32>()
    }

    /// Out-neighbors (local indices) of local node `l`.
    #[inline]
    pub fn out_neighbors(&self, l: u32) -> &[u32] {
        self.view().out_neighbors(l)
    }

    /// See [`RrRef::reachable_within`].
    pub fn reachable_within(&self, keep: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        self.view().reachable_within(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// source 7 ⇒ 3 ⇒ 5, and 7 ⇒ 9 (local: 0⇒1⇒2, 0⇒3).
    fn sample() -> RrGraph {
        RrGraph::from_parts(vec![7, 3, 5, 9], &[(0, 1), (1, 2), (0, 3)])
    }

    /// Writes `g` into `arena` through the sampler's append protocol.
    fn append(arena: &mut RrArena, g: &RrGraph) {
        for &v in g.nodes() {
            arena.push_node(v);
        }
        for l in 0..g.len() as u32 {
            for &t in g.out_neighbors(l) {
                arena.push_target(t);
            }
            arena.end_node();
        }
        arena.end_graph();
    }

    #[test]
    fn structure_round_trip() {
        let r = sample();
        assert_eq!(r.source(), 7);
        assert_eq!(r.len(), 4);
        assert_eq!(r.num_edges(), 3);
        assert_eq!(r.out_neighbors(0), &[1, 3]);
        assert_eq!(r.out_neighbors(1), &[2]);
        assert_eq!(r.out_neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn unrestricted_reachability_is_everything() {
        let r = sample();
        let mut got = r.reachable_within(|_| true);
        got.sort_unstable();
        assert_eq!(got, vec![3, 5, 7, 9]);
    }

    #[test]
    fn restriction_cuts_paths() {
        let r = sample();
        // Without node 3, node 5 is unreachable.
        let mut got = r.reachable_within(|v| v != 3);
        got.sort_unstable();
        assert_eq!(got, vec![7, 9]);
    }

    #[test]
    fn excluded_source_gives_empty_induced_set() {
        let r = sample();
        assert!(r.reachable_within(|v| v != 7).is_empty());
    }

    #[test]
    fn arena_views_match_owned_graphs() {
        let a = sample();
        let b = RrGraph::from_parts(vec![4], &[]);
        let c = RrGraph::from_parts(vec![1, 2], &[(0, 1), (1, 0)]);
        let mut arena = RrArena::new();
        for g in [&a, &b, &c] {
            append(&mut arena, g);
        }
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.num_edges(), 5);
        for (view, g) in arena.iter().zip([&a, &b, &c]) {
            assert_eq!(view, g.view());
            assert_eq!(view.num_edges(), g.num_edges());
            assert_eq!(&view.to_graph(), g);
        }
        assert_eq!(arena.get(2).out_neighbors(1), &[0]);
    }

    #[test]
    fn extend_from_equals_appending_in_one_arena() {
        let graphs = [
            sample(),
            RrGraph::from_parts(vec![4], &[]),
            RrGraph::from_parts(vec![1, 2], &[(0, 1), (1, 0)]),
        ];
        let mut whole = RrArena::new();
        let (mut head, mut tail) = (RrArena::new(), RrArena::new());
        for (i, g) in graphs.iter().enumerate() {
            append(&mut whole, g);
            append(if i < 2 { &mut head } else { &mut tail }, g);
        }
        head.extend_from(&tail);
        assert_eq!(head, whole);
        // Copying it back in uneven ranges rebuilds it exactly.
        let mut copied = RrArena::new();
        copied.reserve(whole.len(), whole.num_nodes(), whole.num_edges());
        let bytes = copied.memory_bytes();
        for range in [0..1, 1..1, 1..3] {
            copied.extend_from_range(&whole, range);
        }
        assert_eq!(copied, whole);
        assert_eq!(copied.memory_bytes(), bytes, "the reservation was exact");
    }

    #[test]
    fn shrunk_arena_bytes_are_the_payload() {
        let mut arena = RrArena::new();
        append(&mut arena, &sample());
        arena.shrink_to_fit();
        // 2 starts + 4 nodes + 5 offsets + 3 targets, four bytes each.
        assert_eq!(arena.memory_bytes(), 4 * (2 + 4 + 5 + 3));
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.num_edges(), 0);
    }
}
