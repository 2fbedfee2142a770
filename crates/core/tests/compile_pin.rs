//! Cross-commit pin of compile output beyond the average q20 calibration.
//!
//! The CLI goldens (`crates/cli/tests/golden/compile/`) cover one device:
//! IBM-Q20 Tokyo with its average error map. This test pins the table-1
//! suite × the four paper policies on devices those goldens never see:
//!
//! * eight seeded `daily_series` Tokyo calibrations (paper §6.5);
//! * the first of those days with two dead couplers;
//! * a seeded 4×5 grid.
//!
//! A fifth policy, VQM with meeting-edge optimization, covers the
//! router's landing-edge branch, which none of the four paper policies
//! takes.
//!
//! Each case records a 64-bit FNV-1a digest of the compiled QASM plus
//! the router's `router.dijkstra_pops` and `route.candidates` counters,
//! so a change that keeps the output but alters the search is caught
//! too. The test owns the process-global `quva-obs` recorder, which is
//! why it is its own integration-test binary with a single test.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p quva --test compile_pin
//! ```

use std::fmt::Write as _;

use quva::{AllocationStrategy, MappingPolicy, Pipeline, RoutingMetric};
use quva_benchmarks::table1_suite;
use quva_circuit::PhysQubit;
use quva_device::{CalibrationGenerator, Device, Topology, VariationProfile};

const GOLDEN: &str = "tests/golden/compile_pin.tsv";

fn policies() -> [(&'static str, MappingPolicy); 5] {
    [
        ("baseline", MappingPolicy::baseline()),
        ("vqm", MappingPolicy::vqm()),
        ("vqm-mah:4", MappingPolicy::vqm_hop_limited()),
        ("vqa-vqm", MappingPolicy::vqa_vqm()),
        (
            "vqm-meet",
            MappingPolicy {
                allocation: AllocationStrategy::GreedyInteraction,
                routing: RoutingMetric::reliability_with_meeting_edge(),
            },
        ),
    ]
}

/// The pinned devices, labelled.
fn devices() -> Vec<(String, Device)> {
    let tokyo = Topology::ibm_q20_tokyo();
    let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), 2019);
    let days: Vec<Device> = generator
        .daily_series(&tokyo, 8)
        .into_iter()
        .map(|cal| Device::from_parts(tokyo.clone(), cal).unwrap_or_else(|e| panic!("day calibration: {e}")))
        .collect();
    let mut out: Vec<(String, Device)> = days
        .iter()
        .enumerate()
        .map(|(d, dev)| (format!("tokyo-day{d}"), dev.clone()))
        .collect();
    let dead = days[0]
        .clone()
        .with_disabled_links([(PhysQubit(1), PhysQubit(2)), (PhysQubit(11), PhysQubit(17))]);
    assert_eq!(dead.disabled_link_count(), 2);
    out.push(("tokyo-day0-dead2".into(), dead));
    let grid = Topology::grid(4, 5);
    let cal = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), 1).snapshot(&grid);
    out.push((
        "grid-4x5".into(),
        Device::from_parts(grid, cal).unwrap_or_else(|e| panic!("grid calibration: {e}")),
    ));
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per case: device, policy, benchmark, QASM digest, swaps,
/// Dijkstra pops, routing candidates.
fn census() -> String {
    let suite = table1_suite();
    let mut out = String::from("device\tpolicy\tbench\tqasm_fnv1a\tswaps\tdijkstra_pops\troute_candidates\n");
    for (label, device) in devices() {
        for (name, policy) in policies() {
            let pipeline = Pipeline::for_policy(&policy)
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            for bench in &suite {
                quva_obs::reset();
                quva_obs::enable();
                let compiled = pipeline.run(bench.circuit(), &device);
                let report = quva_obs::drain();
                quva_obs::disable();
                let compiled = compiled.unwrap_or_else(|e| panic!("{label} {name} {}: {e}", bench.name()));
                let count = |k: &str| report.counters.get(k).copied().unwrap_or(0);
                let qasm = quva_circuit::qasm::to_qasm(compiled.physical());
                writeln!(
                    out,
                    "{label}\t{name}\t{}\t{:016x}\t{}\t{}\t{}",
                    bench.name(),
                    fnv1a(qasm.as_bytes()),
                    compiled.inserted_swaps(),
                    count("router.dijkstra_pops"),
                    count("route.candidates"),
                )
                .unwrap_or_else(|_| unreachable!("writing to a String"));
            }
        }
    }
    out
}

#[test]
fn compile_output_and_search_effort_are_pinned() {
    let actual = census();
    let path = format!("{}/{GOLDEN}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "compile output or search effort drifted");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "case count changed"
    );
}
