//! The paper's case matrix (table-1 suite × the four policies) and the
//! compile paths the workloads drive: the checked pipeline as users run
//! it, and the same passes driven one by one for the traced run.

use quva::pipeline::{AllocatePass, RoutePass, SelectAlternativePass};
use quva::{
    AllocationStrategy, CheckedPipeline, CompilePass, CompiledCircuit, MappingPolicy, PassContext, Pipeline,
};
use quva_benchmarks::Benchmark;
use quva_circuit::Circuit;
use quva_device::{CalibrationGenerator, Device, Topology, VariationProfile};
use quva_sim::{analytic_pst, CoherenceModel, FailureProfile, McEngine};

use crate::trace::Tracer;
use crate::util::{mix, timed};
use crate::Outcome;

/// The four paper policies, as `quvad` spells them.
pub const POLICIES: [&str; 4] = ["baseline", "vqm", "vqm-mah:4", "vqa-vqm"];

/// `quva_benchmarks::table1_suite()` as `quvad` benchmark specs, in
/// suite order.
pub const TABLE1: [&str; 7] = [
    "alu",
    "bv:16",
    "bv:20",
    "qft:12",
    "qft:14",
    "rnd-sd:20:80",
    "rnd-ld:20:80",
];

/// The suite the committed compile goldens were generated from.
pub const GOLDEN_SUITE: [&str; 7] = [
    "bv:16",
    "qft:12",
    "ghz:20",
    "alu",
    "triswap",
    "rnd-sd:16:32",
    "rnd-ld:16:32",
];

/// Where the compile goldens live, relative to the repository root.
pub const GOLDEN_DIR: &str = "crates/cli/tests/golden/compile";

/// A paper policy with its contract-checked pipeline.
pub struct Policy {
    pub spec: &'static str,
    pub policy: MappingPolicy,
    pub pipeline: CheckedPipeline<'static>,
}

/// Builds and validates the four policy pipelines; returns them with
/// the mean validation time in microseconds.
pub fn policies() -> Result<(Vec<Policy>, f64), String> {
    let mut out = Vec::new();
    let mut validate_us = 0.0;
    for spec in POLICIES {
        let policy = quva_serve::parse_policy(spec).map_err(|e| e.to_string())?;
        let (checked, t) = timed(|| Pipeline::for_policy(&policy).validate());
        validate_us += crate::util::us(t);
        out.push(Policy {
            spec,
            policy,
            pipeline: checked.map_err(|e| format!("{spec}: {e}"))?,
        });
    }
    Ok((out, validate_us / POLICIES.len() as f64))
}

/// Compiles and scores one case the way a user does: the checked
/// pipeline, then analytic PST. Fails on a compile error or a PST
/// outside `(0, 1]`.
pub fn compile_and_score(
    policy: &Policy,
    circuit: &Circuit,
    device: &Device,
) -> Result<(CompiledCircuit, f64), String> {
    let compiled = policy.pipeline.run(circuit, device).map_err(|e| e.to_string())?;
    let pst = analytic_pst(device, compiled.physical(), CoherenceModel::Disabled)
        .map_err(|e| e.to_string())?
        .pst;
    if !(pst > 0.0 && pst <= 1.0) {
        return Err(format!("analytic PST {pst} outside (0, 1]"));
    }
    Ok((compiled, pst))
}

/// Runs the passes `Pipeline::for_policy` registers, one span per
/// pass, over a `PassContext` the benchmark builds.
pub fn compile_by_pass(
    tr: &mut Tracer,
    policy: &MappingPolicy,
    circuit: &Circuit,
    device: &Device,
) -> Result<CompiledCircuit, String> {
    let mut cx = PassContext {
        source: circuit,
        device,
        work: None,
        mapping: None,
        compiled: None,
        esp_point: None,
        pass_index: 0,
    };
    let allocate = AllocatePass {
        strategy: policy.allocation,
    };
    tr.span("compile.allocate", |_| allocate.run(&mut cx))
        .map_err(|e| e.to_string())?;
    cx.pass_index = 1;
    let route = RoutePass {
        metric: policy.routing,
    };
    tr.span("compile.route", |_| route.run(&mut cx))
        .map_err(|e| e.to_string())?;
    if matches!(policy.allocation, AllocationStrategy::StrongestSubgraph { .. }) {
        cx.pass_index = 2;
        let select = SelectAlternativePass {
            alternative: MappingPolicy {
                allocation: AllocationStrategy::GreedyInteraction,
                routing: policy.routing,
            },
        };
        tr.span("compile.select", |_| select.run(&mut cx))
            .map_err(|e| e.to_string())?;
    }
    cx.compiled
        .take()
        .ok_or_else(|| "pass pipeline produced no circuit".to_string())
}

/// Whether two compiles produced the same program.
pub fn same_output(a: &CompiledCircuit, b: &CompiledCircuit) -> bool {
    a.inserted_swaps() == b.inserted_swaps()
        && quva_circuit::qasm::to_qasm(a.physical()) == quva_circuit::qasm::to_qasm(b.physical())
}

/// Byte-compares the 28 `q20` compile cases against the committed
/// goldens. Returns (checked, mismatched).
pub fn check_goldens(policies: &[Policy]) -> (u64, u64) {
    let device = Device::ibm_q20();
    let mut checked = 0;
    let mut bad = 0;
    for policy in policies {
        for spec in GOLDEN_SUITE {
            checked += 1;
            let name = format!(
                "{}__{}.qasm",
                policy.spec.replace(':', "-"),
                spec.replace(':', "-")
            );
            let path = format!("{GOLDEN_DIR}/{name}");
            let ok = match (std::fs::read_to_string(&path), quva_serve::parse_benchmark(spec)) {
                (Ok(expected), Ok(bench)) => policy
                    .pipeline
                    .run(bench.circuit(), &device)
                    .is_ok_and(|c| quva_circuit::qasm::to_qasm(c.physical()) == expected),
                _ => false,
            };
            if !ok {
                eprintln!("perfbench: golden mismatch or unreadable: {path}");
                bad += 1;
            }
        }
    }
    (checked, bad)
}

/// Costs the compile, sampler and audit layers on `cases`. The router's
/// own counters are read from an untimed pass-by-pass compile with the
/// `quva-obs` recorder on. Each case is then compiled pass by pass again
/// with the recorder off (spans into `tr`) and must match the checked
/// pipeline's output; then its failure profile is built, `trials`
/// Monte-Carlo trials are run, analytic PST is taken and it is audited.
/// Sets every per-layer metric of those layers; a workload whose own
/// path measures one of them sets it again afterwards.
pub fn layer_census(
    tr: &mut Tracer,
    cases: &[(&Benchmark, &Device, &Policy)],
    trials: u64,
    seed: u64,
    out: &mut Outcome,
) {
    quva_obs::reset();
    quva_obs::enable();
    for (bench, device, policy) in cases {
        let _ = compile_by_pass(&mut Tracer::default(), &policy.policy, bench.circuit(), device);
    }
    let counters = quva_obs::drain().counters;
    quva_obs::reset();
    let compiled: Vec<Option<CompiledCircuit>> = cases
        .iter()
        .map(|(bench, device, policy)| compile_by_pass(tr, &policy.policy, bench.circuit(), device).ok())
        .collect();
    let engine = McEngine::sequential();
    let (mut n, mut swaps, mut gates, mut events) = (0.0, 0.0, 0.0, 0.0);
    for (i, ((bench, device, policy), c)) in cases.iter().zip(&compiled).enumerate() {
        out.attempted += 1;
        let reference = policy.pipeline.run(bench.circuit(), device);
        let Some(c) = c.as_ref().filter(|c| reference.is_ok_and(|r| same_output(c, &r))) else {
            eprintln!(
                "perfbench: pass-by-pass compile differs for {} {}",
                policy.spec,
                bench.name()
            );
            out.failed += 1;
            continue;
        };
        let profile = tr.span("sim.profile", |_| {
            FailureProfile::new(device, c.physical(), CoherenceModel::Disabled)
        });
        let Ok(profile) = profile else {
            out.failed += 1;
            continue;
        };
        std::hint::black_box(tr.span("sim.run", |_| engine.run(&profile, trials, seed ^ i as u64)));
        let _ = tr.span("sim.analytic", |_| {
            analytic_pst(device, c.physical(), CoherenceModel::Disabled)
        });
        std::hint::black_box(tr.span("analysis.audit", |_| {
            quva_analysis::audit_compiled(bench.circuit(), device, c)
        }));
        n += 1.0;
        swaps += c.inserted_swaps() as f64;
        gates += c.physical().len() as f64;
        events += profile.active_events().len() as f64;
    }
    let n: f64 = f64::max(n, 1.0);
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64 / n;
    let run = tr.agg("sim.run");
    out.set("compile.allocate_us", tr.agg("compile.allocate").mean_us());
    out.set("compile.route_us", tr.agg("compile.route").mean_us());
    out.set("compile.select_us", tr.agg("compile.select").mean_us());
    out.set("compile.swaps", swaps / n);
    out.set("compile.gates_out", gates / n);
    out.set("router.dijkstra_pops", counter("router.dijkstra_pops"));
    out.set("route.candidates", counter("route.candidates"));
    out.set("sim.profile_us", tr.agg("sim.profile").mean_us());
    out.set(
        "sim.run_ns_per_trial",
        run.total_ns as f64 / (run.calls.max(1) * trials) as f64,
    );
    out.set("sim.analytic_us", tr.agg("sim.analytic").mean_us());
    out.set("sim.active_events", events / n);
    out.set("analysis.audit_us", tr.agg("analysis.audit").mean_us());
}

/// Mean time of one seeded calibration snapshot of `topology` and of
/// building a device from it, in microseconds.
pub fn calgen_census(topology: &Topology, seed: u64) -> (f64, f64) {
    let mut tr = Tracer::default();
    for i in 0..32 {
        let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), mix(seed, i));
        let cal = tr.span("device.calgen", |_| generator.snapshot(topology));
        let _ = tr.span("device.build", |_| Device::from_parts(topology.clone(), cal));
    }
    (
        tr.agg("device.calgen").mean_us(),
        tr.agg("device.build").mean_us(),
    )
}
