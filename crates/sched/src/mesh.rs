//! The interconnect mesh the scheduler routes over.
//!
//! The QLA's channels form a grid between logical-qubit tiles (Figure 1). For
//! EPR-pair distribution the relevant resource is *bandwidth*: "We define the
//! bandwidth of QLA's communication channels as the number of physical
//! channels in each direction" (Section 5) — one channel carries created
//! pairs outward and one returns used pairs, and pairs are pipelined within a
//! channel. The scheduler's job is to deliver every requested pair within one
//! level-2 error-correction window so that communication fully overlaps
//! computation.

use qla_layout::{Floorplan, LogicalQubitId};
use serde::{Deserialize, Serialize};

/// A node of the routing mesh: one logical-qubit site of the floorplan.
pub type Node = usize;

/// An undirected edge between two orthogonally adjacent logical-qubit sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Lower node id.
    pub a: Node,
    /// Higher node id.
    pub b: Node,
}

impl Edge {
    /// Canonical (sorted) edge between two nodes.
    #[must_use]
    pub fn new(a: Node, b: Node) -> Self {
        if a <= b {
            Edge { a, b }
        } else {
            Edge { a: b, b: a }
        }
    }
}

/// The channel mesh: grid adjacency plus per-edge bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mesh {
    columns: usize,
    rows: usize,
    /// Physical channels per direction on every edge (the paper's
    /// "bandwidth").
    pub bandwidth: usize,
    /// EPR pairs one pipelined channel can deliver within one scheduling
    /// window. One level-2 error-correction window (43 ms) divided by the
    /// per-pair purification/transport service time (~0.6 ms) gives ~70;
    /// the default of 1 keeps capacities in raw channel units for unit tests
    /// and ablations.
    pub pairs_per_window: usize,
}

impl Mesh {
    /// Build the mesh for a floorplan with the given channel bandwidth.
    #[must_use]
    pub fn from_floorplan(plan: &Floorplan, bandwidth: usize) -> Self {
        Mesh {
            columns: plan.columns,
            rows: plan.rows,
            bandwidth,
            pairs_per_window: 1,
        }
    }

    /// Build a mesh directly from grid dimensions.
    #[must_use]
    pub fn new(columns: usize, rows: usize, bandwidth: usize) -> Self {
        Mesh {
            columns,
            rows,
            bandwidth,
            pairs_per_window: 1,
        }
    }

    /// Set how many EPR pairs one pipelined channel delivers per scheduling
    /// window (the level-2 error-correction window of the waiting qubits).
    #[must_use]
    pub fn with_pairs_per_window(mut self, pairs_per_window: usize) -> Self {
        self.pairs_per_window = pairs_per_window.max(1);
        self
    }

    /// Capacity of one edge per scheduling window, both directions combined.
    #[must_use]
    pub fn edge_capacity_per_window(&self) -> usize {
        self.bandwidth * 2 * self.pairs_per_window
    }

    /// Number of columns.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.columns * self.rows
    }

    /// The node id of a logical qubit.
    #[must_use]
    pub fn node_of(&self, q: LogicalQubitId) -> Node {
        q.0
    }

    /// The (column, row) of a node.
    #[must_use]
    pub fn coords(&self, n: Node) -> (usize, usize) {
        (n % self.columns, n / self.columns)
    }

    /// Orthogonal neighbours of a node, in the fixed left/right/up/down
    /// order every router relies on.
    #[must_use]
    pub fn neighbours(&self, n: Node) -> Vec<Node> {
        self.links(n).map(|(next, _)| next).collect()
    }

    /// The orthogonal neighbours of `n` in left/right/up/down order, each
    /// with the [`Mesh::edge_index`] of the edge leading to it, without
    /// allocating: [`PathSearch`] expands nodes through this.
    fn links(&self, n: Node) -> impl Iterator<Item = (Node, usize)> {
        let (c, r) = self.coords(n);
        let own = self.first_edge_of(c, r);
        let has_right = c + 1 < self.columns;
        let has_down = r + 1 < self.rows;
        // Node n - 1 shares n's row, so it owns as many edges as n: its
        // right edge sits that many positions before n's first.
        let left = (c > 0).then(|| (n - 1, own - 1 - usize::from(has_down)));
        let right = has_right.then_some((n + 1, own));
        let up = (r > 0).then(|| {
            (
                n - self.columns,
                self.first_edge_of(c, r - 1) + usize::from(has_right),
            )
        });
        let down = has_down.then_some((n + self.columns, own + usize::from(has_right)));
        [left, right, up, down].into_iter().flatten()
    }

    /// Position in [`Mesh::edges`] of the first edge node `(c, r)` owns:
    /// every full row before it owns `2 * columns - 1` edges, and every
    /// node before it in its own row one rightward edge plus, off the last
    /// row, one downward edge.
    fn first_edge_of(&self, c: usize, r: usize) -> usize {
        let per_node = if r + 1 < self.rows { 2 } else { 1 };
        r * (2 * self.columns - 1) + c * per_node
    }

    /// The position of edge `{a, b}` in [`Mesh::edges`] order, or `None`
    /// when the two nodes are not orthogonally adjacent sites of the mesh.
    fn find_edge(&self, a: Node, b: Node) -> Option<usize> {
        let (lo, hi) = (a.min(b), a.max(b));
        if hi >= self.node_count() {
            return None;
        }
        let (c, r) = self.coords(lo);
        let own = self.first_edge_of(c, r);
        let has_right = c + 1 < self.columns;
        // On a one-column mesh `lo + 1 == lo + columns`: that edge is the
        // vertical one, because `lo` has no right neighbour.
        if has_right && hi == lo + 1 {
            Some(own)
        } else if hi == lo + self.columns {
            Some(own + usize::from(has_right))
        } else {
            None
        }
    }

    /// The position of edge `{a, b}` in [`Mesh::edges`] order: the dense
    /// index routers keep per-edge state under.
    ///
    /// # Panics
    /// Panics when `a` and `b` are not orthogonally adjacent sites of the
    /// mesh.
    #[must_use]
    pub fn edge_index(&self, a: Node, b: Node) -> usize {
        self.find_edge(a, b).unwrap_or_else(|| {
            panic!(
                "({a}, {b}) is not an edge of the {}x{} mesh",
                self.columns, self.rows
            )
        })
    }

    /// True when `edge` joins two orthogonally adjacent sites of the mesh.
    #[must_use]
    pub fn contains_edge(&self, edge: Edge) -> bool {
        self.find_edge(edge.a, edge.b).is_some()
    }

    /// Number of edges, `edges().len()` without building the list.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.columns.saturating_sub(1) * self.rows + self.columns * self.rows.saturating_sub(1)
    }

    /// All edges of the mesh.
    #[must_use]
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for n in 0..self.node_count() {
            let (c, r) = self.coords(n);
            if c + 1 < self.columns {
                out.push(Edge::new(n, n + 1));
            }
            if r + 1 < self.rows {
                out.push(Edge::new(n, n + self.columns));
            }
        }
        out
    }

    /// Total edge capacity available per scheduling window (both directions
    /// of every edge).
    #[must_use]
    pub fn total_capacity_per_window(&self) -> usize {
        self.edge_count() * self.edge_capacity_per_window()
    }

    /// Manhattan hop distance between two nodes.
    #[must_use]
    pub fn hop_distance(&self, a: Node, b: Node) -> usize {
        let (ca, ra) = self.coords(a);
        let (cb, rb) = self.coords(b);
        ca.abs_diff(cb) + ra.abs_diff(rb)
    }

    /// `count` distinct node ids spread evenly over the grid in row-major
    /// order — the deterministic placement used when pinning a logical
    /// register onto the fabric. Spacing qubits out (rather than packing
    /// them into a corner) keeps the placement's traffic from collapsing
    /// onto a handful of edges.
    ///
    /// # Panics
    /// Panics when the mesh has fewer sites than `count` — a silent
    /// double-assignment would alias two logical qubits onto one tile.
    #[must_use]
    pub fn spread_nodes(&self, count: usize) -> Vec<Node> {
        assert!(
            count <= self.node_count(),
            "cannot place {count} logical qubits on a {}x{} mesh ({} sites)",
            self.columns,
            self.rows,
            self.node_count()
        );
        if count == 0 {
            return Vec::new();
        }
        let stride = self.node_count() / count;
        (0..count).map(|i| i * stride).collect()
    }
}

/// One route found by [`PathSearch`]: the node sequence and, hop by hop,
/// the [`Mesh::edge_index`] of each edge taken (`edges.len() + 1 ==
/// nodes.len()`).
#[derive(Debug, Clone, Copy)]
pub struct Route<'a> {
    /// Nodes from source to destination.
    pub nodes: &'a [Node],
    /// Dense index of each hop's edge.
    pub edges: &'a [usize],
}

/// Breadth-first shortest paths over a [`Mesh`] — the one router the
/// greedy scheduler and the simulator share. Its buffers (predecessors, a
/// visit stamp per node, the queue, the route) are reused across searches,
/// so a search costs only the nodes it visits.
#[derive(Debug, Default)]
pub struct PathSearch {
    /// Predecessor node and the edge from it, valid where `seen == epoch`.
    prev: Vec<(Node, usize)>,
    seen: Vec<u32>,
    epoch: u32,
    queue: Vec<Node>,
    nodes: Vec<Node>,
    edges: Vec<usize>,
}

impl PathSearch {
    /// An empty search; buffers grow to the mesh on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The shortest path from `from` to `to` over edges whose index
    /// `usable` accepts, expanding neighbours in the mesh's fixed
    /// left/right/up/down order (so routes never depend on hash order).
    ///
    /// Co-located endpoints take a two-node route out to the first
    /// neighbour over a usable edge: the pair still has to leave the
    /// tile. `None` when no such route exists, or when an endpoint lies
    /// outside the mesh.
    pub fn shortest_path(
        &mut self,
        mesh: &Mesh,
        from: Node,
        to: Node,
        mut usable: impl FnMut(usize) -> bool,
    ) -> Option<Route<'_>> {
        let node_count = mesh.node_count();
        if from >= node_count || to >= node_count {
            return None;
        }
        self.nodes.clear();
        self.edges.clear();
        if from == to {
            let (next, edge) = mesh.links(from).find(|&(_, edge)| usable(edge))?;
            self.nodes.extend([from, next]);
            self.edges.push(edge);
            return Some(self.route());
        }
        self.start(node_count);
        let epoch = self.epoch;
        self.seen[from] = epoch;
        self.queue.clear();
        self.queue.push(from);
        let mut head = 0;
        let mut found = false;
        // Stopping when `to` is discovered rather than popped yields the
        // same predecessor chain: a node's predecessor is fixed on
        // discovery.
        'search: while let Some(&node) = self.queue.get(head) {
            head += 1;
            for (next, edge) in mesh.links(node) {
                if self.seen[next] == epoch || !usable(edge) {
                    continue;
                }
                self.seen[next] = epoch;
                self.prev[next] = (node, edge);
                if next == to {
                    found = true;
                    break 'search;
                }
                self.queue.push(next);
            }
        }
        if !found {
            return None;
        }
        let mut cursor = to;
        self.nodes.push(to);
        while cursor != from {
            let (back, edge) = self.prev[cursor];
            self.nodes.push(back);
            self.edges.push(edge);
            cursor = back;
        }
        self.nodes.reverse();
        self.edges.reverse();
        Some(self.route())
    }

    /// Open a new search over `node_count` nodes: bump the visit stamp,
    /// clearing the stamps only when the buffers are resized or the stamp
    /// wraps.
    fn start(&mut self, node_count: usize) {
        if self.seen.len() != node_count {
            self.seen.clear();
            self.seen.resize(node_count, 0);
            self.prev.resize(node_count, (0, 0));
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
    }

    fn route(&self) -> Route<'_> {
        Route {
            nodes: &self.nodes,
            edges: &self.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_adjacency() {
        let m = Mesh::new(3, 3, 2);
        assert_eq!(m.node_count(), 9);
        assert_eq!(m.neighbours(4).len(), 4); // centre
        assert_eq!(m.neighbours(0).len(), 2); // corner
        assert_eq!(m.neighbours(1).len(), 3); // edge
        assert_eq!(m.edges().len(), 12);
        assert_eq!(m.total_capacity_per_window(), 12 * 2 * 2);
        let pipelined = Mesh::new(3, 3, 2).with_pairs_per_window(64);
        assert_eq!(pipelined.edge_capacity_per_window(), 2 * 2 * 64);
        assert_eq!(pipelined.total_capacity_per_window(), 12 * 2 * 2 * 64);
    }

    #[test]
    fn spread_nodes_is_distinct_and_even() {
        let m = Mesh::new(4, 4, 1);
        assert_eq!(m.spread_nodes(0), Vec::<Node>::new());
        assert_eq!(m.spread_nodes(4), vec![0, 4, 8, 12]);
        let full = m.spread_nodes(16);
        assert_eq!(full, (0..16).collect::<Vec<_>>());
        // Never aliases two qubits onto one node, at any occupancy.
        for count in 1..=16 {
            let nodes = m.spread_nodes(count);
            let mut deduped = nodes.clone();
            deduped.dedup();
            assert_eq!(nodes.len(), count);
            assert_eq!(deduped.len(), count);
        }
    }

    #[test]
    #[should_panic(expected = "cannot place 17 logical qubits")]
    fn spread_nodes_rejects_overfull_mesh() {
        let _ = Mesh::new(4, 4, 1).spread_nodes(17);
    }

    #[test]
    fn coords_and_distance() {
        let m = Mesh::new(5, 4, 1);
        assert_eq!(m.coords(7), (2, 1));
        assert_eq!(m.hop_distance(0, 7), 3);
        assert_eq!(m.hop_distance(7, 7), 0);
    }

    #[test]
    fn floorplan_conversion_preserves_shape() {
        let plan = Floorplan::new(6, 4);
        let m = Mesh::from_floorplan(&plan, 2);
        assert_eq!(m.columns(), 6);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.node_of(LogicalQubitId(13)), 13);
    }

    #[test]
    fn edge_index_is_the_position_in_edges_order() {
        for columns in 1..=7 {
            for rows in 1..=7 {
                let m = Mesh::new(columns, rows, 1);
                let edges = m.edges();
                assert_eq!(m.edge_count(), edges.len(), "{columns}x{rows}");
                for (i, e) in edges.iter().enumerate() {
                    assert_eq!(m.edge_index(e.a, e.b), i, "{columns}x{rows} {e:?}");
                    assert_eq!(m.edge_index(e.b, e.a), i, "{columns}x{rows} {e:?}");
                    assert!(m.contains_edge(*e));
                }
                for n in 0..m.node_count() {
                    // Left, right, up, down: the order every route and
                    // golden depends on.
                    let (c, r) = m.coords(n);
                    let expected: Vec<(Node, usize)> = [
                        (c > 0).then(|| n - 1),
                        (c + 1 < columns).then_some(n + 1),
                        (r > 0).then(|| n - columns),
                        (r + 1 < rows).then_some(n + columns),
                    ]
                    .into_iter()
                    .flatten()
                    .map(|next| {
                        let edge = edges.iter().position(|&e| e == Edge::new(n, next));
                        (next, edge.unwrap())
                    })
                    .collect();
                    let links: Vec<(Node, usize)> = m.links(n).collect();
                    assert_eq!(links, expected, "{columns}x{rows} node {n}");
                }
            }
        }
    }

    #[test]
    fn one_column_meshes_index_their_vertical_edges() {
        // On one column `a + 1 == a + columns`: every edge is vertical.
        let m = Mesh::new(1, 4, 1);
        assert_eq!(m.edge_index(0, 1), 0);
        assert_eq!(m.edge_index(2, 3), 2);
        assert!(!m.contains_edge(Edge::new(0, 2)));
        // On two columns node 1 has no right neighbour: {1, 2} wraps.
        let m = Mesh::new(2, 2, 1);
        assert!(!m.contains_edge(Edge::new(1, 2)));
        assert!(!m.contains_edge(Edge::new(3, 4)));
        assert!(!m.contains_edge(Edge::new(2, 2)));
    }

    #[test]
    #[should_panic(expected = "(1, 2) is not an edge of the 2x2 mesh")]
    fn edge_index_rejects_non_adjacent_nodes() {
        let _ = Mesh::new(2, 2, 1).edge_index(1, 2);
    }

    #[test]
    fn path_search_finds_shortest_routes_and_reuses_its_buffers() {
        let m = Mesh::new(5, 4, 1);
        let mut search = PathSearch::new();
        for from in 0..m.node_count() {
            for to in 0..m.node_count() {
                let route = search.shortest_path(&m, from, to, |_| true).unwrap();
                assert_eq!(route.nodes.len(), route.edges.len() + 1);
                assert_eq!(route.edges.len(), m.hop_distance(from, to).max(1));
                assert_eq!(route.nodes[0], from);
                for (pair, &edge) in route.nodes.windows(2).zip(route.edges) {
                    assert_eq!(m.edge_index(pair[0], pair[1]), edge);
                }
            }
        }
        // Co-located endpoints leave through the first usable neighbour.
        let route = search
            .shortest_path(&m, 6, 6, |e| e != m.edge_index(5, 6))
            .unwrap();
        assert_eq!(route.nodes, &[6, 7]);
        // Cutting column 2 off leaves no route across it.
        let cut: Vec<usize> = (0..4).map(|r| m.edge_index(r * 5 + 1, r * 5 + 2)).collect();
        assert!(search
            .shortest_path(&m, 0, 4, |e| !cut.contains(&e))
            .is_none());
        assert!(search.shortest_path(&m, 0, 20, |_| true).is_none());
        assert!(search
            .shortest_path(&Mesh::new(1, 1, 1), 0, 0, |_| true)
            .is_none());
    }

    #[test]
    fn edge_is_canonicalised() {
        assert_eq!(Edge::new(5, 2), Edge::new(2, 5));
    }
}
