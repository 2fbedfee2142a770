//! Initial qubit allocation policies (paper §6).
//!
//! * [`AllocationStrategy::GreedyInteraction`] — the baseline: place
//!   heavily-interacting program qubits close together, oblivious to
//!   link quality (§4.5);
//! * [`AllocationStrategy::StrongestSubgraph`] — VQA (Algorithm 2):
//!   confine the program to the connected region with the highest
//!   aggregate node strength and give the most *active* program qubits
//!   the strongest physical homes;
//! * [`AllocationStrategy::Random`] — the IBM-native-compiler stand-in:
//!   a seeded random placement (§6.4 evaluates 32 of these).

use quva_circuit::{qubit_activity, Circuit, InteractionGraph, PhysQubit, Qubit};
use quva_device::{node_strengths, try_strongest_subgraph, Device, HopMatrix, ReliabilityMatrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::mapping::Mapping;

/// How the initial program-qubit → physical-qubit mapping is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Interaction-aware greedy placement minimizing hop distance
    /// between communicating qubits (variation-unaware baseline).
    GreedyInteraction,
    /// VQA: allocate inside the strongest k-subgraph, most active
    /// program qubits on the strongest physical qubits. `activity_window`
    /// is the number of leading layers inspected (the paper's *first-t*
    /// parameter); `usize::MAX` inspects the whole program.
    StrongestSubgraph {
        /// Leading layers whose CNOTs define qubit activity.
        activity_window: usize,
        /// Extension beyond the paper: also pull *measured* program
        /// qubits towards physical qubits with low readout error —
        /// "steer operations towards strong qubits" applied to the
        /// measurement operation itself.
        readout_aware: bool,
    },
    /// Uniformly random placement from the given seed (IBM-native
    /// comparator).
    Random {
        /// RNG seed; §6.4 averages 32 different seeds.
        seed: u64,
    },
}

impl AllocationStrategy {
    /// VQA with the whole program as the activity window.
    pub fn vqa() -> Self {
        AllocationStrategy::StrongestSubgraph {
            activity_window: usize::MAX,
            readout_aware: false,
        }
    }

    /// VQA extended with readout awareness (see
    /// [`AllocationStrategy::StrongestSubgraph::readout_aware`]).
    pub fn vqa_readout_aware() -> Self {
        AllocationStrategy::StrongestSubgraph {
            activity_window: usize::MAX,
            readout_aware: true,
        }
    }

    /// Computes the initial mapping of `circuit` onto `device`.
    ///
    /// # Errors
    ///
    /// Returns a message if the circuit needs more qubits than the
    /// device has, or (for `StrongestSubgraph`) if no connected region
    /// of active links is large enough to host the program — e.g. a
    /// disconnected device, or one whose dead links split it into
    /// components smaller than the program.
    pub fn allocate(&self, circuit: &Circuit, device: &Device) -> Result<Mapping, String> {
        let k = circuit.num_qubits();
        let n = device.num_qubits();
        if k > n {
            return Err(format!("circuit needs {k} qubits, device has {n}"));
        }
        match *self {
            AllocationStrategy::GreedyInteraction => Ok(greedy_interaction(circuit, device, None)),
            AllocationStrategy::StrongestSubgraph {
                activity_window,
                readout_aware,
            } => vqa_allocate(circuit, device, activity_window, readout_aware),
            AllocationStrategy::Random { seed } => Ok(random_allocate(k, n, seed)),
        }
    }
}

/// Greedy interaction placement, optionally restricted to a candidate
/// region. Program qubits are placed in descending interaction-degree
/// order; each lands on the free candidate qubit minimizing the
/// interaction-weighted distance to its already-placed partners (hop
/// distance for the baseline, reliability distance when `weighted`
/// carries a reliability matrix).
fn greedy_interaction(circuit: &Circuit, device: &Device, region: Option<&[PhysQubit]>) -> Mapping {
    let ig = InteractionGraph::of(circuit);
    let hops = HopMatrix::of_active(device);
    let k = circuit.num_qubits();
    let n = device.num_qubits();

    let candidates: Vec<PhysQubit> = match region {
        Some(r) => r.to_vec(),
        None => device.topology().qubits().collect(),
    };

    // placement order: start from the heaviest program qubit, then
    // repeatedly take the unplaced qubit most connected to the placed
    // set — each new qubit then has partners to be placed next to,
    // which embeds chain- and star-shaped programs compactly
    let order = connectivity_order(&ig, k);

    let mut assigned: Vec<Option<PhysQubit>> = vec![None; k];
    let mut used = vec![false; n];
    for &q in &order {
        let q = Qubit(q);
        let mut best: Option<(f64, PhysQubit)> = None;
        for &p in &candidates {
            if used[p.index()] {
                continue;
            }
            // distance to already-placed partners, weighted by CNOT count;
            // unplaced partners contribute nothing yet
            let mut cost = 0.0;
            for (other, slot) in assigned.iter().enumerate() {
                if let Some(loc) = slot {
                    let w = ig.count(q, Qubit(other as u32)) as f64;
                    if w > 0.0 {
                        cost += w * hops.get(p, *loc) as f64;
                    }
                }
            }
            // prefer central qubits when unconstrained by partners
            let centrality: f64 = candidates.iter().map(|&o| hops.get(p, o) as f64).sum();
            let score = cost * 1e6 + centrality;
            if best.is_none_or(|(b, bp)| score < b || (score == b && p < bp)) {
                best = Some((score, p));
            }
        }
        let (_, p) = best.unwrap_or_else(|| unreachable!("k <= n guarantees a free candidate"));
        assigned[q.index()] = Some(p);
        used[p.index()] = true;
    }

    let mut positions: Vec<PhysQubit> = assigned
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("all qubits placed")))
        .collect();
    refine_by_exchange(&mut positions, &mut used, &candidates, &ig, |a, b| {
        hops.get(a, b) as f64
    });
    Mapping::from_assignment(k, n, |q| positions[q.index()])
        .unwrap_or_else(|e| unreachable!("refined placement cannot collide: {e}"))
}

/// Iterated local search over placements: repeatedly try swapping two
/// program qubits' homes, or relocating one qubit to a free candidate
/// slot, keeping any move that lowers the interaction-weighted distance
/// Σ w(i,j)·D(π(i), π(j)). Greedy construction is myopic; this pass
/// removes its worst misplacements deterministically. `occupied[p]`
/// marks the physical qubits `positions` holds, and is kept in step.
fn refine_by_exchange(
    positions: &mut [PhysQubit],
    occupied: &mut [bool],
    candidates: &[PhysQubit],
    ig: &InteractionGraph,
    dist: impl Fn(PhysQubit, PhysQubit) -> f64,
) {
    let k = positions.len();
    // the cost contribution of program qubit q at location `at`, given
    // every other qubit's current position
    let cost_of = |positions: &[PhysQubit], q: usize, at: PhysQubit| -> f64 {
        (0..k)
            .filter(|&o| o != q)
            .map(|o| {
                let w = ig.count(Qubit(q as u32), Qubit(o as u32)) as f64;
                if w > 0.0 {
                    w * dist(at, positions[o])
                } else {
                    0.0
                }
            })
            .sum()
    };

    for _pass in 0..20 {
        quva_obs::counter("alloc.refine_passes", 1);
        let mut improved = false;
        // relocations to free slots
        for q in 0..k {
            let here = positions[q];
            let current = cost_of(positions, q, here);
            let mut best: Option<(f64, PhysQubit)> = None;
            for &slot in candidates {
                if occupied[slot.index()] {
                    continue;
                }
                let c = cost_of(positions, q, slot);
                if c < current - 1e-12 && best.is_none_or(|(b, _)| c < b) {
                    best = Some((c, slot));
                }
            }
            if let Some((_, slot)) = best {
                positions[q] = slot;
                occupied[here.index()] = false;
                occupied[slot.index()] = true;
                improved = true;
            }
        }
        // pairwise exchanges
        for q in 0..k {
            for o in (q + 1)..k {
                let (pq, po) = (positions[q], positions[o]);
                let before = cost_of(positions, q, pq) + cost_of(positions, o, po);
                positions[q] = po;
                positions[o] = pq;
                let after = cost_of(positions, q, po) + cost_of(positions, o, pq);
                if after < before - 1e-12 {
                    improved = true;
                } else {
                    positions[q] = pq;
                    positions[o] = po;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// Placement order over program qubits: heaviest interaction degree
/// first, then greedily the qubit with the most CNOT traffic to the
/// already-ordered set (ties by degree, then index). Qubits in other
/// interaction components follow by the same rule.
fn connectivity_order(ig: &InteractionGraph, k: usize) -> Vec<u32> {
    let mut order: Vec<u32> = Vec::with_capacity(k);
    let mut placed = vec![false; k];
    for _ in 0..k {
        let next = (0..k)
            .filter(|&q| !placed[q])
            .max_by(|&a, &b| {
                let traffic =
                    |q: usize| -> u32 { order.iter().map(|&p| ig.count(Qubit(q as u32), Qubit(p))).sum() };
                traffic(a)
                    .cmp(&traffic(b))
                    .then(ig.degree(Qubit(a as u32)).cmp(&ig.degree(Qubit(b as u32))))
                    .then(b.cmp(&a)) // prefer the smaller index on full ties
            })
            .unwrap_or_else(|| unreachable!("k iterations over k qubits"));
        placed[next] = true;
        order.push(next as u32);
    }
    order
}

/// VQA allocation (Algorithm 2): strongest k-subgraph + activity-ordered
/// placement with reliability-weighted distances.
fn vqa_allocate(
    circuit: &Circuit,
    device: &Device,
    activity_window: usize,
    readout_aware: bool,
) -> Result<Mapping, String> {
    // which program qubits end in a measurement
    let measured: Vec<bool> = {
        let mut m = vec![false; circuit.num_qubits()];
        for g in circuit.iter() {
            if let quva_circuit::Gate::Measure { qubit, .. } = g {
                m[qubit.index()] = true;
            }
        }
        m
    };
    let k = circuit.num_qubits();
    let n = device.num_qubits();
    let region = try_strongest_subgraph(device, k)
        .ok_or_else(|| format!("no connected region of {k} qubits over active links on {n}-qubit device"))?;
    quva_obs::observe("alloc.region_size", region.len() as f64);

    let strengths = node_strengths(device);
    let rel = ReliabilityMatrix::of_active(device, |id| {
        -(1.0 - device.calibration().two_qubit_error(id))
            .max(f64::MIN_POSITIVE)
            .ln()
    });
    let ig = InteractionGraph::of(circuit);
    let activity = qubit_activity(circuit, activity_window);

    // placement sequence: connectivity order (as the baseline), so each
    // qubit is placed next to already-placed partners; the *activity*
    // ranking decides how strongly a qubit is pulled towards
    // high-strength homes (Algorithm 2's "top active qubits onto the
    // strongest qubits")
    let order = connectivity_order(&ig, k);
    let max_activity = activity.iter().copied().max().unwrap_or(0).max(1) as f64;

    let mut assigned: Vec<Option<PhysQubit>> = vec![None; k];
    let mut used = vec![false; n];
    for &q in &order {
        let q = Qubit(q);
        let mut best: Option<(f64, PhysQubit)> = None;
        for &p in &region {
            if used[p.index()] {
                continue;
            }
            let mut cost = 0.0;
            for (other, slot) in assigned.iter().enumerate() {
                if let Some(loc) = slot {
                    let w = ig.count(q, Qubit(other as u32)) as f64;
                    if w > 0.0 {
                        cost += w * rel.get(p, *loc);
                    }
                }
            }
            // prefer strong physical homes, proportionally to how
            // active the program qubit is
            let pull = activity[q.index()] as f64 / max_activity;
            let mut score = cost * 1e6 - pull * strengths[p.index()] - 1e-3 * strengths[p.index()];
            if readout_aware && measured[q.index()] {
                // measured qubits are also pulled towards reliable
                // readout resonators
                score -= 1.0 - device.calibration().readout_error(p.index());
            }
            if best.is_none_or(|(b, bp)| score < b || (score == b && p < bp)) {
                best = Some((score, p));
            }
        }
        let (_, p) = best.unwrap_or_else(|| unreachable!("region has k free slots"));
        assigned[q.index()] = Some(p);
        used[p.index()] = true;
    }

    let mut positions: Vec<PhysQubit> = assigned
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("all qubits placed")))
        .collect();
    // refine under the reliability metric, still confined to the region
    refine_by_exchange(&mut positions, &mut used, &region, &ig, |a, b| rel.get(a, b));
    Mapping::from_assignment(k, n, |q| positions[q.index()]).map_err(|e| e.to_string())
}

/// Seeded uniformly-random placement.
fn random_allocate(k: usize, n: usize, seed: u64) -> Mapping {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slots: Vec<u32> = (0..n as u32).collect();
    slots.shuffle(&mut rng);
    Mapping::from_assignment(k, n, |q| PhysQubit(slots[q.index()]))
        .unwrap_or_else(|e| unreachable!("shuffled slots cannot collide: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_device::{Calibration, Topology};

    fn uniform(topo: Topology, e: f64) -> Device {
        Device::new(topo, |t| Calibration::uniform(t, e, 0.0, 0.0))
    }

    fn chain_circuit(k: usize) -> Circuit {
        let mut c = Circuit::new(k);
        for i in 0..(k - 1) as u32 {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        c
    }

    #[test]
    fn greedy_places_all_qubits_distinctly() {
        let dev = uniform(Topology::ibm_q20_tokyo(), 0.05);
        let c = chain_circuit(10);
        let m = AllocationStrategy::GreedyInteraction.allocate(&c, &dev).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (_, p) in m.iter() {
            assert!(seen.insert(p), "location {p} reused");
        }
    }

    #[test]
    fn greedy_keeps_partners_adjacent_on_easy_device() {
        let dev = uniform(Topology::linear(5), 0.05);
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        let m = AllocationStrategy::GreedyInteraction.allocate(&c, &dev).unwrap();
        let hops = HopMatrix::of(dev.topology());
        assert_eq!(hops.get(m.phys_of(Qubit(0)), m.phys_of(Qubit(1))), 1);
    }

    #[test]
    fn vqa_prefers_strong_region() {
        // line of 6 with a weak left half: VQA must allocate on the right
        let dev = Device::new(Topology::linear(6), |t| {
            let mut cal = Calibration::uniform(t, 0.02, 0.0, 0.0);
            cal.set_two_qubit_error(0, 0.3);
            cal.set_two_qubit_error(1, 0.3);
            cal
        });
        let c = chain_circuit(3);
        let m = AllocationStrategy::vqa().allocate(&c, &dev).unwrap();
        for (_, p) in m.iter() {
            assert!(p.index() >= 2, "VQA placed a qubit on the weak side: {p}");
        }
    }

    #[test]
    fn vqa_gives_most_active_qubit_the_strongest_home() {
        // star program: q0 talks to everyone
        let mut c = Circuit::new(3);
        c.cnot(Qubit(1), Qubit(0));
        c.cnot(Qubit(2), Qubit(0));
        c.cnot(Qubit(1), Qubit(0));
        c.cnot(Qubit(2), Qubit(0));
        // device: path 0-1-2-3 where middle links are strongest
        let dev = Device::new(Topology::linear(4), |t| {
            let mut cal = Calibration::uniform(t, 0.08, 0.0, 0.0);
            cal.set_two_qubit_error(1, 0.01); // 1-2 strongest
            cal
        });
        let m = AllocationStrategy::vqa().allocate(&c, &dev).unwrap();
        let p0 = m.phys_of(Qubit(0));
        let strengths = node_strengths(&dev);
        // q0 should sit on one of the two strongest physical qubits
        let mut ranked: Vec<usize> = (0..4).collect();
        ranked.sort_by(|&a, &b| strengths[b].total_cmp(&strengths[a]));
        assert!(
            ranked[..2].contains(&p0.index()),
            "hub q0 placed on {p0}, strengths {strengths:?}"
        );
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let a = random_allocate(5, 20, 1);
        let b = random_allocate(5, 20, 1);
        let c = random_allocate(5, 20, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_allocations_are_valid() {
        for seed in 0..32 {
            let m = random_allocate(10, 20, seed);
            let mut seen = std::collections::HashSet::new();
            for (_, p) in m.iter() {
                assert!(p.index() < 20);
                assert!(seen.insert(p));
            }
        }
    }

    #[test]
    fn readout_aware_vqa_avoids_bad_readout_for_measured_qubits() {
        // uniform links, but node 0 has terrible readout: the aware
        // variant must keep measured qubits off it when slack exists
        let dev = Device::new(Topology::linear(4), |t| {
            let cal = Calibration::uniform(t, 0.05, 0.0, 0.02);
            // rebuild with a distinct readout profile on node 0
            let ro: Vec<f64> = vec![0.4, 0.02, 0.02, 0.02];
            quva_device::Calibration::new(
                t,
                cal.t1_table().to_vec(),
                cal.t2_table().to_vec(),
                cal.one_qubit_errors().to_vec(),
                ro,
                cal.two_qubit_errors().to_vec(),
                cal.durations(),
            )
            .unwrap()
        });
        // only q0 is measured: with symmetric chain ends, the aware
        // variant must give q0 the good-readout end
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(1), Qubit(2));
        c.measure(Qubit(0), quva_circuit::Cbit(0));
        let aware = AllocationStrategy::vqa_readout_aware()
            .allocate(&c, &dev)
            .unwrap();
        assert_ne!(
            aware.phys_of(Qubit(0)).index(),
            0,
            "measured qubit q0 placed on the bad-readout node"
        );
    }

    #[test]
    fn oversized_circuit_rejected() {
        let dev = uniform(Topology::linear(3), 0.05);
        let c = chain_circuit(5);
        for strat in [
            AllocationStrategy::GreedyInteraction,
            AllocationStrategy::vqa(),
            AllocationStrategy::Random { seed: 0 },
        ] {
            assert!(
                strat.allocate(&c, &dev).is_err(),
                "{strat:?} accepted oversized circuit"
            );
        }
    }

    #[test]
    fn vqa_errors_when_dead_links_shrink_components() {
        // line of 6 split 3|3 by a dead middle link: a 4-qubit program
        // no longer fits any connected active region
        let dev = uniform(Topology::linear(6), 0.05).with_disabled_links([(PhysQubit(2), PhysQubit(3))]);
        let err = AllocationStrategy::vqa()
            .allocate(&chain_circuit(4), &dev)
            .unwrap_err();
        assert!(err.contains("no connected region"), "{err}");
        // a 3-qubit program still fits inside one half
        let m = AllocationStrategy::vqa()
            .allocate(&chain_circuit(3), &dev)
            .unwrap();
        let side = m.phys_of(Qubit(0)).index() < 3;
        for (_, p) in m.iter() {
            assert_eq!(p.index() < 3, side, "allocation straddles the dead link");
        }
    }

    #[test]
    fn full_device_allocation_works() {
        let dev = uniform(Topology::ibm_q20_tokyo(), 0.05);
        let c = chain_circuit(20);
        for strat in [AllocationStrategy::GreedyInteraction, AllocationStrategy::vqa()] {
            let m = strat.allocate(&c, &dev).unwrap();
            assert_eq!(m.num_prog(), 20);
        }
    }
}
