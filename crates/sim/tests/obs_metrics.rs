//! Observability determinism contract of the Monte-Carlo engine.
//!
//! These tests own the process-global `quva-obs` recorder, so they live
//! in their own integration-test binary (one process) and serialize on
//! a local mutex; `reset()` gives each test a clean recorder.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use quva_circuit::{Circuit, PhysQubit};
use quva_device::{Calibration, Device, Topology};
use quva_sim::{CoherenceModel, FailureProfile, McEngine, McEstimate, McKernel};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn profile() -> FailureProfile {
    let dev = Device::new(Topology::linear(4), |t| {
        Calibration::uniform(t, 0.08, 0.002, 0.02)
    });
    let mut c: Circuit<PhysQubit> = Circuit::new(4);
    for _ in 0..5 {
        c.cnot(PhysQubit(0), PhysQubit(1));
        c.h(PhysQubit(2));
        c.swap(PhysQubit(2), PhysQubit(3));
    }
    c.measure_all();
    FailureProfile::new(&dev, &c, CoherenceModel::Disabled).unwrap()
}

/// Runs `trials` under the recorder and returns (estimate, counters).
fn traced_run(threads: usize, trials: u64, seed: u64) -> (quva_sim::McEstimate, BTreeMap<String, u64>) {
    let p = profile();
    quva_obs::reset();
    quva_obs::enable();
    let est = McEngine::new(threads)
        .with_chunk_trials(1_000)
        .run(&p, trials, seed);
    let report = quva_obs::drain();
    quva_obs::disable();
    (est, report.counters)
}

#[test]
fn traced_counters_are_identical_across_runs() {
    let _g = guard();
    let (est_a, counters_a) = traced_run(8, 50_000, 11);
    let (est_b, counters_b) = traced_run(8, 50_000, 11);
    assert_eq!(est_a, est_b);
    assert_eq!(
        counters_a, counters_b,
        "same seed + threads must drain identical counters"
    );
}

#[test]
fn traced_counters_are_identical_across_thread_counts() {
    let _g = guard();
    let (est_seq, mut seq) = traced_run(1, 50_000, 7);
    let (est_par, mut par) = traced_run(8, 50_000, 7);
    assert_eq!(est_seq, est_par);
    // the worker count is configuration, not measurement: it is the
    // one counter allowed to differ between schedules
    assert_eq!(seq.remove("sim.workers"), Some(1));
    assert_eq!(par.remove("sim.workers"), Some(8));
    assert_eq!(seq, par, "counters must be schedule-independent");
}

#[test]
fn tracing_does_not_perturb_the_estimate() {
    let _g = guard();
    let p = profile();
    let engine = McEngine::new(4).with_chunk_trials(1_000);
    quva_obs::reset();
    let baseline = engine.run(&p, 30_000, 3); // recorder off → reference path
    quva_obs::enable();
    let traced = engine.run(&p, 30_000, 3);
    quva_obs::drain();
    quva_obs::disable();
    let reference = engine.run_reference(&p, 30_000, 3);
    assert_eq!(baseline, reference);
    assert_eq!(traced, reference, "traced path must draw the same RNG stream");
}

#[test]
fn abort_classes_account_for_every_failed_trial() {
    let _g = guard();
    let (est, counters) = traced_run(4, 40_000, 5);
    let aborted: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("sim.abort."))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(aborted, est.trials - est.successes);
    assert_eq!(counters["sim.trials"], 40_000);
    assert_eq!(counters["sim.chunks"], 40);
    // this profile exposes cnot, swap, one-qubit, and readout faults;
    // at 40k trials each class fires
    for class in ["cnot", "swap", "one_qubit", "readout"] {
        assert!(
            counters.contains_key(&format!("sim.abort.{class}")),
            "missing abort class {class}: {counters:?}"
        );
    }
}

#[test]
fn disabled_recorder_stays_empty_through_a_run() {
    let _g = guard();
    let p = profile();
    quva_obs::reset();
    McEngine::new(4).run(&p, 10_000, 1);
    let report = quva_obs::drain();
    assert!(report.is_empty(), "disabled run must record nothing");
}

/// A profile with one complement-form (`p > 1/2`) event, so the
/// bit-parallel kernel's inverted-row sweep is pinned too.
fn complement_profile() -> FailureProfile {
    let dev = Device::new(Topology::linear(2), |t| {
        Calibration::uniform(t, 0.55, 0.002, 0.02)
    });
    let mut c: Circuit<PhysQubit> = Circuit::new(2);
    c.h(PhysQubit(0));
    c.cnot(PhysQubit(0), PhysQubit(1));
    c.h(PhysQubit(1));
    c.measure_all();
    FailureProfile::new(&dev, &c, CoherenceModel::Disabled).unwrap()
}

/// One pinned sample: a `(profile, kernel, chunk)` input and the
/// successes plus drained counters (`sim.workers` excluded) it must
/// produce. Thread count and recorder state must not change either.
struct Pin {
    complement: bool,
    kernel: McKernel,
    chunk: Option<u64>,
    successes: u64,
    counters: &'static str,
}

/// Trials for the pinned samples: not a multiple of 64, of 63, or of
/// any chunk size below, so every run ends in a partial word and chunk.
const PIN_TRIALS: u64 = 50_001;

const PINS: &[Pin] = &[
    Pin {
        complement: false,
        kernel: McKernel::Scalar,
        chunk: None,
        successes: 8563,
        counters: "sim.abort.cnot=11403 sim.abort.one_qubit=255 sim.abort.readout=765 sim.abort.swap=29015 sim.chunks=4 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: false,
        kernel: McKernel::Scalar,
        chunk: Some(1_000),
        successes: 8740,
        counters: "sim.abort.cnot=11314 sim.abort.one_qubit=260 sim.abort.readout=700 sim.abort.swap=28987 sim.chunks=51 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: false,
        kernel: McKernel::Scalar,
        chunk: Some(63),
        successes: 8648,
        counters: "sim.abort.cnot=11467 sim.abort.one_qubit=273 sim.abort.readout=750 sim.abort.swap=28863 sim.chunks=794 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: false,
        kernel: McKernel::BitParallel,
        chunk: None,
        successes: 8708,
        counters: "sim.abort.cnot=11389 sim.abort.one_qubit=259 sim.abort.readout=754 sim.abort.swap=28891 sim.bitparallel.fires=9062 sim.bitparallel.runs=1 sim.bitparallel.words=782 sim.chunks=4 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: false,
        kernel: McKernel::BitParallel,
        chunk: Some(1_000),
        successes: 8708,
        counters: "sim.abort.cnot=11389 sim.abort.one_qubit=259 sim.abort.readout=754 sim.abort.swap=28891 sim.bitparallel.fires=9573 sim.bitparallel.runs=1 sim.bitparallel.words=826 sim.chunks=51 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: false,
        kernel: McKernel::BitParallel,
        chunk: Some(63),
        successes: 8708,
        counters: "sim.abort.cnot=11389 sim.abort.one_qubit=259 sim.abort.readout=754 sim.abort.swap=28891 sim.bitparallel.fires=18113 sim.bitparallel.runs=1 sim.bitparallel.words=1563 sim.chunks=794 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: true,
        kernel: McKernel::Scalar,
        chunk: None,
        successes: 21828,
        counters: "sim.abort.cnot=27156 sim.abort.one_qubit=136 sim.abort.readout=881 sim.chunks=4 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: true,
        kernel: McKernel::Scalar,
        chunk: Some(1_000),
        successes: 21583,
        counters: "sim.abort.cnot=27383 sim.abort.one_qubit=134 sim.abort.readout=901 sim.chunks=51 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: true,
        kernel: McKernel::Scalar,
        chunk: Some(63),
        successes: 21517,
        counters: "sim.abort.cnot=27443 sim.abort.one_qubit=155 sim.abort.readout=886 sim.chunks=794 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: true,
        kernel: McKernel::BitParallel,
        chunk: None,
        successes: 21475,
        counters: "sim.abort.cnot=27460 sim.abort.one_qubit=127 sim.abort.readout=939 sim.bitparallel.fires=1690 sim.bitparallel.runs=1 sim.bitparallel.words=782 sim.chunks=4 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: true,
        kernel: McKernel::BitParallel,
        chunk: Some(1_000),
        successes: 21475,
        counters: "sim.abort.cnot=27460 sim.abort.one_qubit=127 sim.abort.readout=939 sim.bitparallel.fires=1786 sim.bitparallel.runs=1 sim.bitparallel.words=826 sim.chunks=51 sim.runs=1 sim.trials=50001",
    },
    Pin {
        complement: true,
        kernel: McKernel::BitParallel,
        chunk: Some(63),
        successes: 21475,
        counters: "sim.abort.cnot=27460 sim.abort.one_qubit=127 sim.abort.readout=939 sim.bitparallel.fires=3379 sim.bitparallel.runs=1 sim.bitparallel.words=1563 sim.chunks=794 sim.runs=1 sim.trials=50001",
    },
];

fn render(counters: &BTreeMap<String, u64>) -> String {
    counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn monte_carlo_sample_is_pinned() {
    let _g = guard();
    let profiles = [profile(), complement_profile()];
    let mut actual = Vec::new();
    let mut ok = true;
    for pin in PINS {
        let p = &profiles[usize::from(pin.complement)];
        for traced in [false, true] {
            for threads in [1usize, 3] {
                let mut engine = McEngine::new(threads).with_kernel(pin.kernel);
                if let Some(chunk) = pin.chunk {
                    engine = engine.with_chunk_trials(chunk);
                }
                quva_obs::reset();
                if traced {
                    quva_obs::enable();
                }
                let est = engine.run(p, PIN_TRIALS, 29);
                let mut counters = quva_obs::drain().counters;
                quva_obs::disable();
                let what = format!(
                    "complement={} {} chunk={:?} traced={traced} threads={threads}",
                    pin.complement, pin.kernel, pin.chunk
                );
                assert_eq!(est, McEstimate::from_counts(est.successes, PIN_TRIALS), "{what}");
                if traced {
                    assert_eq!(counters.remove("sim.workers"), Some(threads as u64), "{what}");
                    ok &= render(&counters) == pin.counters;
                } else {
                    assert!(counters.is_empty(), "{what}: recorder off must record nothing");
                }
                ok &= est.successes == pin.successes;
                actual.push(format!(
                    "{what}: successes {} counters {}",
                    est.successes,
                    render(&counters)
                ));
            }
        }
    }
    assert!(ok, "pinned Monte-Carlo samples moved:\n{}", actual.join("\n"));
}
