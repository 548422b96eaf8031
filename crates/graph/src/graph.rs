//! Directed multigraph with per-edge capacity.
//!
//! Physical interconnects in TopoOpt are *degree constrained*: each server has
//! `d` transmit interfaces and `d` receive interfaces. A direct-connect
//! topology is therefore a directed multigraph where out-degree and in-degree
//! of every node are bounded by `d`, and parallel edges between the same pair
//! of servers are meaningful (they add capacity).

use serde::{Deserialize, Serialize};

/// Index of a node (server / ToR switch) in a [`Graph`].
pub type NodeId = usize;

/// Index of an edge (fiber / interface pairing) in a [`Graph`].
pub type EdgeId = usize;

/// A single directed edge with a capacity in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity in bits per second.
    pub capacity_bps: f64,
    /// True if the edge has been logically removed.
    pub removed: bool,
}

/// A directed multigraph with per-edge capacities.
///
/// Edges are never physically deleted (so `EdgeId`s stay stable); they are
/// tombstoned instead. Adjacency is maintained incrementally, each node's
/// list sorted by neighbour then edge id, so sorted neighbour iteration
/// needs no allocation or sort and pair lookups are a binary search.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// Per node, its out-edges (tombstoned included) sorted by `dst`, then id.
    out_adj: Vec<Vec<EdgeId>>,
    /// Per node, its in-edges sorted by `src`, then id.
    in_adj: Vec<Vec<EdgeId>>,
}

/// Insert edge `id` into an adjacency list sorted by the neighbour `key`
/// reads off each edge, then by id. Ids grow with every insertion, so the
/// new edge goes after every earlier edge to the same neighbour.
fn insert_sorted(list: &mut Vec<EdgeId>, edges: &[Edge], id: EdgeId, key: fn(&Edge) -> NodeId) {
    let v = key(&edges[id]);
    let at = list.partition_point(|&e| key(&edges[e]) <= v);
    list.insert(at, id);
}

/// The distinct values of an ascending sequence.
fn distinct(ascending: impl Iterator<Item = NodeId>) -> impl Iterator<Item = NodeId> {
    let mut last = None;
    ascending.filter(move |&v| last.replace(v) != Some(v))
}

impl Graph {
    /// Create an empty graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph { n, edges: Vec::new(), out_adj: vec![Vec::new(); n], in_adj: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of live (non-removed) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().filter(|e| !e.removed).count()
    }

    /// Add a directed edge and return its id.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range or capacity is not positive.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, capacity_bps: f64) -> EdgeId {
        assert!(src < self.n && dst < self.n, "node id out of range");
        assert!(capacity_bps > 0.0, "capacity must be positive");
        let id = self.edges.len();
        self.edges.push(Edge { src, dst, capacity_bps, removed: false });
        insert_sorted(&mut self.out_adj[src], &self.edges, id, |e| e.dst);
        insert_sorted(&mut self.in_adj[dst], &self.edges, id, |e| e.src);
        id
    }

    /// Add a bidirectional link (two directed edges) and return both ids.
    pub fn add_bidi_edge(&mut self, a: NodeId, b: NodeId, capacity_bps: f64) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, capacity_bps), self.add_edge(b, a, capacity_bps))
    }

    /// Tombstone an edge. The id remains valid but the edge no longer
    /// participates in adjacency queries.
    pub fn remove_edge(&mut self, id: EdgeId) {
        self.edges[id].removed = true;
    }

    /// Access an edge by id (including removed edges).
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    /// Mutable access to an edge by id. Its endpoints must not change: the
    /// adjacency lists are sorted by them.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id]
    }

    /// Iterate over live edges as `(EdgeId, &Edge)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().filter(|(_, e)| !e.removed)
    }

    /// Live out-edges of `node`, by destination, then id.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.out_adj[node].iter().map(move |&id| (id, &self.edges[id])).filter(|(_, e)| !e.removed)
    }

    /// Live in-edges of `node`, by source, then id.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.in_adj[node].iter().map(move |&id| (id, &self.edges[id])).filter(|(_, e)| !e.removed)
    }

    /// Out-degree of `node` (counting parallel edges).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges(node).count()
    }

    /// In-degree of `node` (counting parallel edges).
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges(node).count()
    }

    /// Distinct out-neighbours of `node`, ascending: a walk of its sorted
    /// adjacency, with no allocation and no sort.
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        distinct(self.out_edges(node).map(|(_, e)| e.dst))
    }

    /// Distinct in-neighbours of `node`, ascending.
    pub fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        distinct(self.in_edges(node).map(|(_, e)| e.src))
    }

    /// Live parallel edges from `src` to `dst`, in id order: a binary search
    /// of `src`'s sorted adjacency instead of a scan.
    fn edges_between(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        let list = &self.out_adj[src];
        let from = list.partition_point(|&id| self.edges[id].dst < dst);
        list[from..]
            .iter()
            .map(|&id| &self.edges[id])
            .take_while(move |e| e.dst == dst)
            .filter(|e| !e.removed)
    }

    /// Number of parallel live edges from `src` to `dst`.
    pub fn multiplicity(&self, src: NodeId, dst: NodeId) -> usize {
        self.edges_between(src, dst).count()
    }

    /// Total capacity (bps) of all parallel live edges from `src` to `dst`,
    /// summed in edge id order.
    pub fn capacity_between(&self, src: NodeId, dst: NodeId) -> f64 {
        self.edges_between(src, dst).map(|e| e.capacity_bps).sum()
    }

    /// True if there is at least one live edge from `src` to `dst`.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.edges_between(src, dst).next().is_some()
    }

    /// Total live capacity leaving `node`, in bps, summed in
    /// [`out_edges`](Self::out_edges) order.
    pub fn total_out_capacity(&self, node: NodeId) -> f64 {
        self.out_edges(node).map(|(_, e)| e.capacity_bps).sum()
    }

    /// Total network capacity (sum over all live edges), in bps.
    pub fn total_capacity(&self) -> f64 {
        self.edges().map(|(_, e)| e.capacity_bps).sum()
    }

    /// True if every node can reach every other node over live edges
    /// (strong connectivity).
    pub fn is_strongly_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.reachable_from(0).len() == self.n && self.reverse().reachable_from(0).len() == self.n
    }

    /// Set of nodes reachable from `start` over live edges (including
    /// `start` itself), as a sorted vector.
    pub fn reachable_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.n];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            for (_, e) in self.out_edges(u) {
                if !seen[e.dst] {
                    seen[e.dst] = true;
                    stack.push(e.dst);
                }
            }
        }
        (0..self.n).filter(|&i| seen[i]).collect()
    }

    /// The graph with every edge reversed.
    pub fn reverse(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for (_, e) in self.edges() {
            g.add_edge(e.dst, e.src, e.capacity_bps);
        }
        g
    }

    /// Maximum out-degree over all nodes.
    pub fn max_out_degree(&self) -> usize {
        (0..self.n).map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// Check the degree constraint of a TopoOpt direct-connect fabric:
    /// every node has out-degree ≤ `d` and in-degree ≤ `d`.
    pub fn respects_degree(&self, d: usize) -> bool {
        (0..self.n).all(|v| self.out_degree(v) <= d && self.in_degree(v) <= d)
    }

    /// Adjacency matrix of total capacities (bps), `n x n`, row = src.
    pub fn capacity_matrix(&self) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; self.n]; self.n];
        for (_, e) in self.edges() {
            m[e.src][e.dst] += e.capacity_bps;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::new(4);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
        assert!(g.respects_degree(0));
    }

    #[test]
    fn add_edge_updates_adjacency_and_degree() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 100.0);
        g.add_edge(0, 2, 100.0);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.out_neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn parallel_edges_add_capacity_and_multiplicity() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 25.0e9);
        g.add_edge(0, 1, 25.0e9);
        assert_eq!(g.multiplicity(0, 1), 2);
        assert!((g.capacity_between(0, 1) - 50.0e9).abs() < 1e-3);
    }

    #[test]
    fn remove_edge_tombstones() {
        let mut g = Graph::new(2);
        let e = g.add_edge(0, 1, 1.0);
        assert_eq!(g.num_edges(), 1);
        g.remove_edge(e);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(0), 0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn bidi_edge_creates_two_edges() {
        let mut g = Graph::new(2);
        g.add_bidi_edge(0, 1, 1.0);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn strong_connectivity_of_ring() {
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5, 1.0);
        }
        assert!(g.is_strongly_connected());
        // A path is not strongly connected.
        let mut p = Graph::new(3);
        p.add_edge(0, 1, 1.0);
        p.add_edge(1, 2, 1.0);
        assert!(!p.is_strongly_connected());
    }

    #[test]
    fn reverse_flips_direction() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 3.0);
        let r = g.reverse();
        assert!(r.has_edge(1, 0));
        assert!(!r.has_edge(0, 1));
    }

    #[test]
    fn degree_constraint_check() {
        let mut g = Graph::new(4);
        for j in 1..4 {
            g.add_edge(0, j, 1.0);
        }
        assert!(g.respects_degree(3));
        assert!(!g.respects_degree(2));
    }

    #[test]
    fn capacity_matrix_sums_parallel_links() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 10.0);
        g.add_edge(0, 1, 15.0);
        let m = g.capacity_matrix();
        assert!((m[0][1] - 25.0).abs() < 1e-9);
        assert_eq!(m[1][0], 0.0);
    }

    #[test]
    #[should_panic]
    fn add_edge_rejects_out_of_range() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5, 1.0);
    }
}
