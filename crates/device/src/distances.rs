//! All-pairs distance matrices over the coupling graph.
//!
//! Two metrics matter to the policies:
//!
//! * **hop distance** — minimum number of links between two qubits
//!   (baseline SWAP-count metric, §4.5 step 2);
//! * **reliability distance** — minimum accumulated failure weight
//!   `−ln(p_success)` between two qubits (VQM metric, Algorithm 1
//!   step 1), computed with Dijkstra's algorithm.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use quva_circuit::PhysQubit;

use crate::device::Device;
use crate::topology::Topology;

/// Dense all-pairs matrix of minimum hop counts.
///
/// # Examples
///
/// ```
/// use quva_device::{HopMatrix, Topology};
/// use quva_circuit::PhysQubit;
///
/// let t = Topology::linear(4);
/// let hops = HopMatrix::of(&t);
/// assert_eq!(hops.get(PhysQubit(0), PhysQubit(3)), 3);
/// assert_eq!(hops.get(PhysQubit(2), PhysQubit(2)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopMatrix {
    n: usize,
    dist: Vec<u32>,
}

/// Marker for an unreachable pair in a [`HopMatrix`].
pub const UNREACHABLE_HOPS: u32 = u32::MAX;

impl HopMatrix {
    /// Builds the matrix with one BFS per qubit.
    pub fn of(topology: &Topology) -> Self {
        Self::of_filtered(topology, |_| true)
    }

    /// Builds the matrix over the *active* coupling graph of a device:
    /// disabled links are treated as absent, so pairs separated by dead
    /// links report [`UNREACHABLE_HOPS`].
    pub fn of_active(device: &Device) -> Self {
        Self::of_filtered(device.topology(), |id| device.link_enabled(id))
    }

    fn of_filtered(topology: &Topology, enabled: impl Fn(usize) -> bool) -> Self {
        let n = topology.num_qubits();
        let mut dist = vec![UNREACHABLE_HOPS; n * n];
        let mut queue = VecDeque::new();
        for s in 0..n {
            dist[s * n + s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                let dv = dist[s * n + v];
                for &(u, id) in topology.incident(PhysQubit(v as u32)) {
                    if !enabled(id) {
                        continue;
                    }
                    let ui = u.index();
                    if dist[s * n + ui] == UNREACHABLE_HOPS {
                        dist[s * n + ui] = dv + 1;
                        queue.push_back(ui);
                    }
                }
            }
        }
        HopMatrix { n, dist }
    }

    /// Hop distance between two qubits, [`UNREACHABLE_HOPS`] if
    /// disconnected.
    pub fn get(&self, a: PhysQubit, b: PhysQubit) -> u32 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// The minimum number of SWAPs needed to make `a` and `b` adjacent
    /// (hop distance − 1; zero when already adjacent or identical).
    pub fn swaps_needed(&self, a: PhysQubit, b: PhysQubit) -> u32 {
        self.get(a, b).saturating_sub(1)
    }

    /// The graph diameter (maximum finite pairwise distance).
    pub fn diameter(&self) -> u32 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE_HOPS)
            .max()
            .unwrap_or(0)
    }
}

/// Dense all-pairs matrix of reliability distances with next-hop
/// reconstruction.
///
/// The weight of traversing link `e` is `cost(e) >= 0`, supplied by the
/// caller (VQM uses `−ln((1 − e2q)³)`, the failure weight of a SWAP).
/// Entry `(a, b)` is the minimum total weight over all paths.
///
/// # Examples
///
/// ```
/// use quva_device::{ReliabilityMatrix, Topology};
/// use quva_circuit::PhysQubit;
///
/// let t = Topology::ring(4);
/// // all links equally good: reliability path == shortest path
/// let m = ReliabilityMatrix::of(&t, |_| 1.0);
/// assert_eq!(m.get(PhysQubit(0), PhysQubit(2)), 2.0);
/// let path = m.path(PhysQubit(0), PhysQubit(2)).unwrap();
/// assert_eq!(path.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ReliabilityMatrix {
    n: usize,
    dist: Vec<f64>,
    /// next[s*n + v] = the neighbor of s on a best s→v path.
    next: Vec<u32>,
}

const NO_NEXT: u32 = u32::MAX;

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on cost; ties by node for determinism
        other.cost.total_cmp(&self.cost).then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl ReliabilityMatrix {
    /// Builds the matrix with one Dijkstra pass per qubit.
    ///
    /// `link_cost` maps a link id to its non-negative traversal weight.
    ///
    /// # Panics
    ///
    /// Panics if `link_cost` returns a negative or non-finite weight.
    pub fn of(topology: &Topology, link_cost: impl Fn(usize) -> f64) -> Self {
        Self::of_filtered(topology, |_| true, link_cost)
    }

    /// Builds the matrix over the *active* coupling graph of a device:
    /// disabled links are never traversed and `link_cost` is only
    /// evaluated for enabled link ids.
    ///
    /// # Panics
    ///
    /// Panics if `link_cost` returns a negative or non-finite weight for
    /// an enabled link.
    pub fn of_active(device: &Device, link_cost: impl Fn(usize) -> f64) -> Self {
        Self::of_filtered(device.topology(), |id| device.link_enabled(id), link_cost)
    }

    fn of_filtered(
        topology: &Topology,
        enabled: impl Fn(usize) -> bool,
        link_cost: impl Fn(usize) -> f64,
    ) -> Self {
        let n = topology.num_qubits();
        // Disabled links carry infinite cost, which Dijkstra never relaxes
        // over, so they behave exactly like absent links.
        let costs: Vec<f64> = (0..topology.num_links())
            .map(|id| {
                if !enabled(id) {
                    return f64::INFINITY;
                }
                let c = link_cost(id);
                assert!(c.is_finite() && c >= 0.0, "link {id} has invalid cost {c}");
                c
            })
            .collect();
        let mut dist = vec![f64::INFINITY; n * n];
        let mut next = vec![NO_NEXT; n * n];
        for s in 0..n {
            dist[s * n + s] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(HeapEntry { cost: 0.0, node: s });
            while let Some(HeapEntry { cost, node }) = heap.pop() {
                if cost > dist[s * n + node] {
                    continue;
                }
                for &(nb, id) in topology.incident(PhysQubit(node as u32)) {
                    let nd = cost + costs[id];
                    let ni = nb.index();
                    if nd < dist[s * n + ni] {
                        dist[s * n + ni] = nd;
                        next[s * n + ni] = if node == s { ni as u32 } else { next[s * n + node] };
                        heap.push(HeapEntry { cost: nd, node: ni });
                    }
                }
            }
        }
        ReliabilityMatrix { n, dist, next }
    }

    /// Minimum accumulated weight between two qubits; `f64::INFINITY` if
    /// disconnected.
    pub fn get(&self, a: PhysQubit, b: PhysQubit) -> f64 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// A minimum-weight path from `a` to `b` inclusive of both
    /// endpoints, or `None` if disconnected.
    pub fn path(&self, a: PhysQubit, b: PhysQubit) -> Option<Vec<PhysQubit>> {
        if a == b {
            return Some(vec![a]);
        }
        if self.dist[a.index() * self.n + b.index()].is_infinite() {
            return None;
        }
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            // next[cur][b] is the first hop of a best cur→b path; walking
            // hop by hop reconstructs the full path.
            let step = self.next_hop(cur, b)?;
            path.push(step);
            cur = step;
            assert!(path.len() <= self.n + 1, "path reconstruction cycled");
        }
        Some(path)
    }

    /// The first hop of a best path from `a` towards `b`, or `None` when
    /// unreachable or `a == b`.
    pub fn next_hop(&self, a: PhysQubit, b: PhysQubit) -> Option<PhysQubit> {
        if a == b {
            return None;
        }
        let v = self.next[a.index() * self.n + b.index()];
        if v == NO_NEXT {
            None
        } else {
            Some(PhysQubit(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_matrix_on_line() {
        let t = Topology::linear(5);
        let m = HopMatrix::of(&t);
        assert_eq!(m.get(PhysQubit(0), PhysQubit(4)), 4);
        assert_eq!(m.swaps_needed(PhysQubit(0), PhysQubit(4)), 3);
        assert_eq!(m.swaps_needed(PhysQubit(0), PhysQubit(1)), 0);
        assert_eq!(m.diameter(), 4);
    }

    #[test]
    fn hop_matrix_is_symmetric() {
        let t = Topology::ibm_q20_tokyo();
        let m = HopMatrix::of(&t);
        for a in t.qubits() {
            for b in t.qubits() {
                assert_eq!(m.get(a, b), m.get(b, a));
            }
        }
    }

    #[test]
    fn hop_matrix_marks_unreachable() {
        let t = Topology::from_links("split", 4, [(0, 1), (2, 3)]);
        let m = HopMatrix::of(&t);
        assert_eq!(m.get(PhysQubit(0), PhysQubit(3)), UNREACHABLE_HOPS);
    }

    #[test]
    fn tokyo_diameter_is_small() {
        let m = HopMatrix::of(&Topology::ibm_q20_tokyo());
        assert!(m.diameter() <= 7);
        assert!(m.diameter() >= 4);
    }

    #[test]
    fn reliability_prefers_cheap_detour() {
        // square 0-1-2 / 0-3-2 where 0-1 is terrible
        let t = Topology::from_links("sq", 4, [(0, 1), (1, 2), (0, 3), (3, 2)]);
        let cost = |id: usize| -> f64 {
            match id {
                0 => 10.0, // 0-1
                _ => 1.0,
            }
        };
        let m = ReliabilityMatrix::of(&t, cost);
        assert_eq!(m.get(PhysQubit(0), PhysQubit(2)), 2.0);
        let p = m.path(PhysQubit(0), PhysQubit(2)).unwrap();
        assert_eq!(p, vec![PhysQubit(0), PhysQubit(3), PhysQubit(2)]);
    }

    #[test]
    fn reliability_path_endpoints() {
        let t = Topology::linear(4);
        let m = ReliabilityMatrix::of(&t, |_| 1.0);
        let p = m.path(PhysQubit(0), PhysQubit(3)).unwrap();
        assert_eq!(p.first(), Some(&PhysQubit(0)));
        assert_eq!(p.last(), Some(&PhysQubit(3)));
        assert_eq!(p.len(), 4);
        assert_eq!(m.path(PhysQubit(2), PhysQubit(2)), Some(vec![PhysQubit(2)]));
    }

    #[test]
    fn reliability_unreachable_is_none() {
        let t = Topology::from_links("split", 4, [(0, 1), (2, 3)]);
        let m = ReliabilityMatrix::of(&t, |_| 1.0);
        assert!(m.path(PhysQubit(0), PhysQubit(2)).is_none());
        assert!(m.get(PhysQubit(0), PhysQubit(2)).is_infinite());
        assert_eq!(m.next_hop(PhysQubit(0), PhysQubit(2)), None);
    }

    #[test]
    fn reliability_matches_hops_under_uniform_cost() {
        let t = Topology::ibm_q20_tokyo();
        let hops = HopMatrix::of(&t);
        let rel = ReliabilityMatrix::of(&t, |_| 1.0);
        for a in t.qubits() {
            for b in t.qubits() {
                assert_eq!(rel.get(a, b) as u32, hops.get(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn active_matrices_skip_disabled_links() {
        use crate::calibration::Calibration;
        // ring 0-1-2-3-0; killing 1-2 forces the long way round
        let t = Topology::ring(4);
        let dev = Device::new(t, |t| Calibration::uniform(t, 0.1, 0.0, 0.0))
            .with_disabled_links([(PhysQubit(1), PhysQubit(2))]);
        let hops = HopMatrix::of_active(&dev);
        assert_eq!(hops.get(PhysQubit(1), PhysQubit(2)), 3);
        let rel = ReliabilityMatrix::of_active(&dev, |_| 1.0);
        assert_eq!(rel.get(PhysQubit(1), PhysQubit(2)), 3.0);
        assert_eq!(
            rel.path(PhysQubit(1), PhysQubit(2)).unwrap(),
            vec![PhysQubit(1), PhysQubit(0), PhysQubit(3), PhysQubit(2)]
        );
    }

    #[test]
    fn active_matrices_report_split_as_unreachable() {
        use crate::calibration::Calibration;
        let t = Topology::linear(4);
        let dev = Device::new(t, |t| Calibration::uniform(t, 0.1, 0.0, 0.0))
            .with_disabled_links([(PhysQubit(1), PhysQubit(2))]);
        let hops = HopMatrix::of_active(&dev);
        assert_eq!(hops.get(PhysQubit(0), PhysQubit(3)), UNREACHABLE_HOPS);
        // cost closure never consulted for the dead link
        let rel = ReliabilityMatrix::of_active(&dev, |id| {
            assert!(dev.link_enabled(id), "cost asked for disabled link {id}");
            1.0
        });
        assert!(rel.get(PhysQubit(0), PhysQubit(3)).is_infinite());
        assert!(rel.path(PhysQubit(0), PhysQubit(3)).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid cost")]
    fn negative_cost_rejected() {
        let t = Topology::linear(2);
        ReliabilityMatrix::of(&t, |_| -1.0);
    }

    #[test]
    fn path_weight_equals_distance() {
        let t = Topology::ibm_q20_tokyo();
        // pseudo-random but deterministic costs
        let m = ReliabilityMatrix::of(&t, |id| 0.5 + ((id * 7919) % 13) as f64 / 5.0);
        let costs: Vec<f64> = (0..t.num_links())
            .map(|id| 0.5 + ((id * 7919) % 13) as f64 / 5.0)
            .collect();
        for a in t.qubits() {
            for b in t.qubits() {
                let p = m.path(a, b).unwrap();
                let total: f64 = p
                    .windows(2)
                    .map(|w| costs[t.link_id(w[0], w[1]).expect("path uses links")])
                    .sum();
                assert!(
                    (total - m.get(a, b)).abs() < 1e-9,
                    "{a}->{b} path weight mismatch"
                );
            }
        }
    }
}
