//! Coupling topology of a NISQ device.
//!
//! A topology is an undirected graph whose nodes are physical qubits and
//! whose edges are coupling links: a two-qubit gate can only be applied
//! across an edge (paper §2.4).

use std::fmt;
use std::sync::{Arc, OnceLock};

use petgraph::graph::{NodeIndex, UnGraph};
use quva_circuit::PhysQubit;

/// An undirected coupling link between two physical qubits, stored with
/// the smaller index first so that `(a, b)` and `(b, a)` compare equal.
///
/// # Examples
///
/// ```
/// use quva_device::Link;
/// use quva_circuit::PhysQubit;
///
/// assert_eq!(Link::new(PhysQubit(3), PhysQubit(1)), Link::new(PhysQubit(1), PhysQubit(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link {
    a: PhysQubit,
    b: PhysQubit,
}

impl Link {
    /// Creates a normalized link.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are not physical couplings).
    pub fn new(a: PhysQubit, b: PhysQubit) -> Self {
        assert!(a != b, "coupling link endpoints must differ");
        if a < b {
            Link { a, b }
        } else {
            Link { a: b, b: a }
        }
    }

    /// The endpoint with the smaller index.
    pub fn low(self) -> PhysQubit {
        self.a
    }

    /// The endpoint with the larger index.
    pub fn high(self) -> PhysQubit {
        self.b
    }

    /// Both endpoints, low first.
    pub fn endpoints(self) -> (PhysQubit, PhysQubit) {
        (self.a, self.b)
    }

    /// Whether `q` is one of the endpoints.
    pub fn touches(self, q: PhysQubit) -> bool {
        self.a == q || self.b == q
    }

    /// Given one endpoint, returns the other; `None` if `q` is not an
    /// endpoint.
    pub fn other(self, q: PhysQubit) -> Option<PhysQubit> {
        if q == self.a {
            Some(self.b)
        } else if q == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}–{}", self.a, self.b)
    }
}

/// The largest topology [`Topology::from_links`] accepts. The dense
/// link-id table costs `4·n²` bytes, 64 MiB at this size.
pub const MAX_QUBITS: usize = 4096;

/// The coupling graph of a device.
///
/// A topology owns its adjacency: the link list, a compressed list of
/// `(neighbor, link id)` pairs per qubit sorted by neighbor, and a
/// dense `n × n` link-id table for O(1) [`Topology::link_id`]. All of
/// it is immutable and shared behind one [`Arc`], so cloning a
/// topology (and every [`Device`](crate::Device) built on it) is O(1).
///
/// # Examples
///
/// ```
/// use quva_device::Topology;
/// use quva_circuit::PhysQubit;
///
/// let t = Topology::linear(3);
/// assert_eq!(t.num_qubits(), 3);
/// assert!(t.has_link(PhysQubit(0), PhysQubit(1)));
/// assert!(!t.has_link(PhysQubit(0), PhysQubit(2)));
/// ```
#[derive(Clone)]
pub struct Topology {
    adj: Arc<Adjacency>,
}

struct Adjacency {
    name: String,
    num_qubits: usize,
    links: Vec<Link>,
    /// `incident[offsets[q]..offsets[q + 1]]` holds `q`'s
    /// `(neighbor, link id)` pairs, ascending by neighbor.
    offsets: Vec<usize>,
    incident: Vec<(PhysQubit, usize)>,
    /// `ids[a·n + b]` is the id of link `a`–`b` plus one; 0 = uncoupled.
    ids: Vec<u32>,
    /// Built on first use of [`Topology::graph`].
    graph: OnceLock<UnGraph<PhysQubit, ()>>,
}

impl Topology {
    /// Builds a topology from an explicit link list.
    ///
    /// Duplicate links are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds [`MAX_QUBITS`], if a link
    /// references a qubit `>= num_qubits`, or if a link is a self-loop.
    pub fn from_links(
        name: impl Into<String>,
        num_qubits: usize,
        link_pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let n = num_qubits;
        assert!(
            n <= MAX_QUBITS,
            "{n} qubits exceed the {MAX_QUBITS}-qubit topology limit"
        );
        let mut ids = vec![0u32; n * n];
        let mut links = Vec::new();
        let mut offsets = vec![0usize; n + 1];
        for (a, b) in link_pairs {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "link ({a},{b}) out of range"
            );
            let link = Link::new(PhysQubit(a), PhysQubit(b));
            let (a, b) = (a as usize, b as usize);
            if ids[a * n + b] != 0 {
                continue;
            }
            links.push(link);
            let id = links.len() as u32; // stored plus one
            ids[a * n + b] = id;
            ids[b * n + a] = id;
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for q in 0..n {
            offsets[q + 1] += offsets[q];
        }
        let mut fill = offsets.clone();
        let mut incident = vec![(PhysQubit(0), 0); 2 * links.len()];
        for (id, link) in links.iter().enumerate() {
            let (a, b) = link.endpoints();
            incident[fill[a.index()]] = (b, id);
            fill[a.index()] += 1;
            incident[fill[b.index()]] = (a, id);
            fill[b.index()] += 1;
        }
        for q in 0..n {
            incident[offsets[q]..offsets[q + 1]].sort_unstable_by_key(|&(nb, _)| nb);
        }
        Topology {
            adj: Arc::new(Adjacency {
                name: name.into(),
                num_qubits: n,
                links,
                offsets,
                incident,
                ids,
                graph: OnceLock::new(),
            }),
        }
    }

    /// A human-readable name ("ibm-q20-tokyo", "linear-5", ...).
    pub fn name(&self) -> &str {
        &self.adj.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.adj.num_qubits
    }

    /// Number of undirected coupling links.
    pub fn num_links(&self) -> usize {
        self.adj.links.len()
    }

    /// All links, in insertion order. The position of a link in this
    /// slice is its *link id*, used by calibration data.
    pub fn links(&self) -> &[Link] {
        &self.adj.links
    }

    /// The id of a link (its index into [`Topology::links`]), if
    /// present. `None` for `a == b` and for out-of-range qubits.
    pub fn link_id(&self, a: PhysQubit, b: PhysQubit) -> Option<usize> {
        let n = self.num_qubits();
        if a.index() >= n || b.index() >= n {
            return None;
        }
        // the diagonal is never written, so `a == b` reads 0 = absent
        self.adj.ids[a.index() * n + b.index()]
            .checked_sub(1)
            .map(|id| id as usize)
    }

    /// Whether qubits `a` and `b` are directly coupled.
    pub fn has_link(&self, a: PhysQubit, b: PhysQubit) -> bool {
        self.link_id(a, b).is_some()
    }

    /// The `(neighbor, link id)` pairs of `q`, ascending by neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn incident(&self, q: PhysQubit) -> &[(PhysQubit, usize)] {
        assert!(q.index() < self.num_qubits(), "{q} out of range");
        let adj = &*self.adj;
        &adj.incident[adj.offsets[q.index()]..adj.offsets[q.index() + 1]]
    }

    /// The neighbors of `q`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbors(&self, q: PhysQubit) -> Vec<PhysQubit> {
        self.incident(q).iter().map(|&(nb, _)| nb).collect()
    }

    /// The coupling degree of `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn degree(&self, q: PhysQubit) -> usize {
        self.incident(q).len()
    }

    /// Whether every qubit can reach every other via coupling links.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits() == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_qubits()];
        let mut stack = vec![PhysQubit(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(nb, _) in self.incident(v) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == self.num_qubits()
    }

    /// Iterates over all physical qubits.
    pub fn qubits(&self) -> impl Iterator<Item = PhysQubit> + '_ {
        (0..self.num_qubits()).map(|i| PhysQubit(i as u32))
    }

    /// The coupling graph as a petgraph graph (read-only), for callers
    /// that need custom traversals: one node per qubit, one edge per
    /// link in link-id order. Built on first call and kept.
    pub fn graph(&self) -> &UnGraph<PhysQubit, ()> {
        self.adj.graph.get_or_init(|| {
            let mut graph = UnGraph::new_undirected();
            let nodes: Vec<NodeIndex> = self.qubits().map(|q| graph.add_node(q)).collect();
            for link in self.links() {
                graph.add_edge(nodes[link.low().index()], nodes[link.high().index()], ());
            }
            graph
        })
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("name", &self.adj.name)
            .field("num_qubits", &self.adj.num_qubits)
            .field("links", &self.adj.links)
            .finish()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} links)",
            self.name(),
            self.num_qubits(),
            self.num_links()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_normalizes_order() {
        let l = Link::new(PhysQubit(5), PhysQubit(2));
        assert_eq!(l.low(), PhysQubit(2));
        assert_eq!(l.high(), PhysQubit(5));
        assert_eq!(l.endpoints(), (PhysQubit(2), PhysQubit(5)));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn link_rejects_self_loop() {
        Link::new(PhysQubit(1), PhysQubit(1));
    }

    #[test]
    fn link_other_endpoint() {
        let l = Link::new(PhysQubit(0), PhysQubit(1));
        assert_eq!(l.other(PhysQubit(0)), Some(PhysQubit(1)));
        assert_eq!(l.other(PhysQubit(1)), Some(PhysQubit(0)));
        assert_eq!(l.other(PhysQubit(2)), None);
        assert!(l.touches(PhysQubit(0)));
        assert!(!l.touches(PhysQubit(2)));
    }

    #[test]
    fn from_links_collapses_duplicates() {
        let t = Topology::from_links("t", 3, [(0, 1), (1, 0), (1, 2)]);
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_links_rejects_bad_qubit() {
        Topology::from_links("t", 2, [(0, 2)]);
    }

    #[test]
    fn link_ids_are_stable() {
        let t = Topology::from_links("t", 4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.link_id(PhysQubit(1), PhysQubit(2)), Some(1));
        assert_eq!(t.link_id(PhysQubit(2), PhysQubit(1)), Some(1));
        assert_eq!(t.link_id(PhysQubit(0), PhysQubit(3)), None);
        assert_eq!(t.link_id(PhysQubit(0), PhysQubit(0)), None);
    }

    #[test]
    fn neighbors_sorted() {
        let t = Topology::from_links("t", 4, [(2, 1), (2, 3), (2, 0)]);
        assert_eq!(
            t.neighbors(PhysQubit(2)),
            vec![PhysQubit(0), PhysQubit(1), PhysQubit(3)]
        );
        assert_eq!(t.degree(PhysQubit(2)), 3);
        assert_eq!(t.degree(PhysQubit(0)), 1);
    }

    #[test]
    fn connectivity_detection() {
        let connected = Topology::from_links("c", 3, [(0, 1), (1, 2)]);
        assert!(connected.is_connected());
        let disconnected = Topology::from_links("d", 4, [(0, 1), (2, 3)]);
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn display_includes_counts() {
        let t = Topology::from_links("demo", 3, [(0, 1)]);
        assert_eq!(t.to_string(), "demo (3 qubits, 1 links)");
    }
}
