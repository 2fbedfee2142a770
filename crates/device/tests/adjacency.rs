//! The flat adjacency of `Topology` and `Device` against the plain link
//! list, over every layout family and random dead-link masks.
//!
//! Every query here has an obvious reference built from
//! `Topology::links()` alone; the tables must agree with it exactly,
//! and the id-based failure weights must be bit-identical to the pair
//! forms the policies used before them.

use quva_circuit::PhysQubit;
use quva_device::{CalibrationGenerator, Device, Link, Topology, VariationProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn layouts() -> Vec<Topology> {
    vec![
        Topology::linear(1),
        Topology::linear(7),
        Topology::ring(9),
        Topology::grid(4, 5),
        Topology::grid(1, 6),
        Topology::ibm_q20_tokyo(),
        Topology::ibm_q5_tenerife(),
        Topology::fully_connected(6),
        Topology::from_links(
            "shuffled",
            6,
            [(5, 0), (3, 1), (0, 3), (4, 2), (1, 5), (2, 0), (0, 5)],
        ),
    ]
}

/// Devices over every layout: no dead link, then three random masks
/// (each link dead with probability 0.3).
fn devices() -> Vec<Device> {
    let mut rng = StdRng::seed_from_u64(13);
    let mut out = Vec::new();
    for (i, topo) in layouts().into_iter().enumerate() {
        let cal = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), i as u64).snapshot(&topo);
        let dev = Device::from_parts(topo, cal).unwrap_or_else(|e| panic!("{e}"));
        for _ in 0..3 {
            let dead: Vec<(PhysQubit, PhysQubit)> = dev
                .topology()
                .links()
                .iter()
                .filter(|_| rng.random::<f64>() < 0.3)
                .map(|l| l.endpoints())
                .collect();
            out.push(dev.clone().with_disabled_links(dead));
        }
        out.push(dev);
    }
    out
}

/// The reference link id: the position of the pair in `links()`.
fn scan_link_id(t: &Topology, a: PhysQubit, b: PhysQubit) -> Option<usize> {
    let n = t.num_qubits();
    if a == b || a.index() >= n || b.index() >= n {
        return None;
    }
    let want = Link::new(a, b);
    t.links().iter().position(|&l| l == want)
}

#[test]
fn link_id_agrees_with_the_link_list_for_every_ordered_pair() {
    for t in layouts() {
        let n = t.num_qubits() as u32;
        // two past the end covers out-of-range qubits on both sides
        for a in 0..n + 2 {
            for b in 0..n + 2 {
                let (a, b) = (PhysQubit(a), PhysQubit(b));
                let expect = scan_link_id(&t, a, b);
                assert_eq!(t.link_id(a, b), expect, "{t}: link_id({a}, {b})");
                assert_eq!(t.has_link(a, b), expect.is_some(), "{t}: has_link({a}, {b})");
            }
        }
    }
}

#[test]
fn incident_is_ascending_and_matches_neighbors_and_links() {
    for t in layouts() {
        let mut seen = 0;
        for q in t.qubits() {
            let inc = t.incident(q);
            assert!(inc.windows(2).all(|w| w[0].0 < w[1].0), "{t}: {q} not ascending");
            let nbs: Vec<PhysQubit> = inc.iter().map(|&(nb, _)| nb).collect();
            assert_eq!(nbs, t.neighbors(q), "{t}: {q}");
            assert_eq!(inc.len(), t.degree(q));
            for &(nb, id) in inc {
                assert_eq!(t.links()[id], Link::new(q, nb), "{t}: {q}–{nb} carries id {id}");
            }
            // the reference neighbour set, straight from the link list
            let mut expect: Vec<PhysQubit> = t.links().iter().filter_map(|l| l.other(q)).collect();
            expect.sort_unstable();
            assert_eq!(nbs, expect, "{t}: {q}");
            seen += inc.len();
        }
        assert_eq!(seen, 2 * t.num_links(), "{t}: every link listed from both ends");
    }
}

#[test]
fn active_incident_matches_active_neighbors() {
    for dev in devices() {
        for q in dev.topology().qubits() {
            let active: Vec<(PhysQubit, usize)> = dev.active_incident(q).collect();
            let nbs: Vec<PhysQubit> = active.iter().map(|&(nb, _)| nb).collect();
            assert_eq!(nbs, dev.active_neighbors(q), "{dev}: {q}");
            let expect: Vec<(PhysQubit, usize)> = dev
                .topology()
                .incident(q)
                .iter()
                .copied()
                .filter(|&(nb, _)| dev.has_active_link(q, nb))
                .collect();
            assert_eq!(active, expect, "{dev}: {q}");
        }
    }
}

#[test]
fn failure_weights_by_id_are_bit_identical_to_pair_forms() {
    let bits = |w: Option<f64>| w.map(f64::to_bits);
    for dev in devices() {
        for (id, link) in dev.topology().links().iter().enumerate() {
            let (a, b) = link.endpoints();
            for (u, v) in [(a, b), (b, a)] {
                assert_eq!(
                    bits(dev.cnot_failure_weight_of(id)),
                    bits(dev.cnot_failure_weight(u, v))
                );
                assert_eq!(
                    bits(dev.swap_failure_weight_of(id)),
                    bits(dev.swap_failure_weight(u, v))
                );
                // and both equal −ln of the success probabilities
                let ln = |s: f64| -s.max(f64::MIN_POSITIVE).ln();
                assert_eq!(
                    bits(dev.cnot_failure_weight_of(id)),
                    bits(dev.cnot_success(u, v).map(ln))
                );
                assert_eq!(
                    bits(dev.swap_failure_weight_of(id)),
                    bits(dev.swap_success(u, v).map(ln))
                );
            }
            assert_eq!(dev.swap_failure_weight_of(id).is_some(), dev.link_enabled(id));
        }
    }
}

#[test]
fn clones_share_one_adjacency() {
    let t = Topology::ibm_q20_tokyo();
    let dev = Device::ibm_q20();
    let q = PhysQubit(7);
    assert!(std::ptr::eq(t.clone().incident(q), t.incident(q)));
    assert!(std::ptr::eq(
        dev.clone().topology().incident(q),
        dev.topology().incident(q)
    ));
}

#[test]
fn petgraph_view_has_one_edge_per_link() {
    for t in layouts() {
        let g = t.graph();
        assert_eq!(g.node_count(), t.num_qubits());
        assert_eq!(g.edge_count(), t.num_links());
        for q in t.qubits() {
            let mut nbs: Vec<PhysQubit> = g
                .neighbors(petgraph::graph::NodeIndex::new(q.index()))
                .map(|n| g[n])
                .collect();
            nbs.sort_unstable();
            assert_eq!(nbs, t.neighbors(q), "{t}: {q}");
        }
    }
}

#[test]
fn oversized_topologies_are_refused() {
    let refused = std::panic::catch_unwind(|| Topology::linear(quva_device::MAX_QUBITS + 1));
    assert!(refused.is_err());
}
