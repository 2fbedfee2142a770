//! `mc-sweep`: PST by fault injection (Fig. 10). The 28 table-1 ×
//! policy cases are compiled on `q20` in set-up; each is then estimated
//! with `monte_carlo_pst_with` on the sequential engine. Every sweep
//! repeats the same (case, seed) pairs, so each estimate must also be
//! bit-identical across sweeps.

use std::time::{Duration, Instant};

use quva::CompiledCircuit;
use quva_benchmarks::{table1_suite, Benchmark};
use quva_device::{Device, Topology};
use quva_sim::{monte_carlo_pst_with, CoherenceModel, FailureProfile, McEngine, McEstimate};

use crate::cases;
use crate::trace::Tracer;
use crate::util::{
    block_quantiles, cpu_timed, median, mix, quantile, thread_cpu_s, timed, us, Obj, Yardstick, SLOW_QUARTILE,
};
use crate::{serve, Args, Host, Outcome};

/// Trials per case estimate.
const TRIALS: u64 = 400_000;
/// Set-ups before the measured loop; an untraced run sets up once more
/// after every sweep, so its set-up times span the whole run.
const SETUP_REPS: usize = 5;
/// Sweeps per block of estimates for the per-case quantiles.
const BLOCK_SWEEPS: usize = 4;
/// Binomial standard errors an estimate may sit from analytic PST.
const SE_LIMIT: f64 = 4.0;

struct Case {
    bench: Benchmark,
    policy: &'static str,
    compiled: CompiledCircuit,
    analytic: f64,
    seed: u64,
}

struct Setup {
    device: Device,
    cases: Vec<Case>,
    generate_us: f64,
    build_us: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let (device, t_build) = timed(Device::ibm_q20);
    let (suite, t_gen) = timed(table1_suite);
    let generate_us = us(t_gen) / suite.len() as f64;
    let (policies, _) = cases::policies()?;
    let mut out = Vec::new();
    for bench in suite {
        for policy in &policies {
            let (compiled, analytic) = cases::compile_and_score(policy, bench.circuit(), &device)
                .map_err(|e| format!("{} {}: {e}", policy.spec, bench.name()))?;
            out.push(Case {
                bench: bench.clone(),
                policy: policy.spec,
                compiled,
                analytic,
                seed: mix(seed, out.len() as u64),
            });
        }
    }
    Ok(Setup {
        device,
        cases: out,
        generate_us,
        build_us: us(t_build),
    })
}

fn estimate(s: &Setup, case: &Case, engine: McEngine) -> Result<McEstimate, String> {
    monte_carlo_pst_with(
        &s.device,
        case.compiled.physical(),
        TRIALS,
        case.seed,
        CoherenceModel::Disabled,
        engine,
    )
    .map_err(|e| e.to_string())
}

/// Drops the current set-up, then sets up again; pushes the CPU time.
/// Samples the set-up yardstick after.
fn setup_again(
    seed: u64,
    slot: &mut Option<Setup>,
    times: &mut Vec<f64>,
    yard: &mut Yardstick,
) -> Result<(), String> {
    drop(slot.take());
    let (s, cpu, _) = cpu_timed(|| setup(seed));
    times.push(cpu);
    *slot = Some(s?);
    yard.sample();
    Ok(())
}

pub fn run(args: &Args, host: Host) -> Outcome {
    let mut out = Outcome::default();
    let mut slot = None;
    let mut times = Vec::new();
    if let Err(e) =
        (0..SETUP_REPS).try_for_each(|_| setup_again(args.seed, &mut slot, &mut times, &mut out.setup_yard))
    {
        out.invalid = Some(format!("set-up failed: {e}"));
        return out;
    }
    let budget = if args.trace {
        args.seconds * 0.35
    } else {
        args.seconds
    };
    // only the untraced run reports set-up time, so only it sets up again
    let resetup = (!args.trace).then_some(args.seed);
    let (first, sweep_ns) = match sweeps(&mut slot, resetup, &mut times, budget, &mut out) {
        Ok(v) => v,
        Err(e) => {
            out.invalid = Some(format!("set-up failed: {e}"));
            return out;
        }
    };
    let Some(s) = slot else {
        out.invalid = Some("no set-up ran".into());
        return out;
    };
    let setup_s = median(&times);
    out.set("setup_s", setup_s);
    out.report
        .num("setup_s", setup_s)
        .int("setups", times.len() as u64)
        .int("trials_per_case", TRIALS);
    check_estimates(&s, &first, &mut out);
    if args.trace {
        traced(args, host, &s, &first, &sweep_ns, &mut out);
    }
    out
}

/// Repeats full sweeps until `budget` seconds have passed, sampling the
/// yardstick after every estimate and, given `resetup`'s seed, setting
/// up afresh after every sweep (same seed, same cases, so every sweep
/// must still reproduce the first). Returns the first sweep's estimates
/// and the time of every sweep.
fn sweeps(
    slot: &mut Option<Setup>,
    resetup: Option<u64>,
    setup_times: &mut Vec<f64>,
    budget: f64,
    out: &mut Outcome,
) -> Result<(Vec<Option<McEstimate>>, Vec<f64>), String> {
    let (mut case_us, mut case_cpu_us) = (Vec::new(), Vec::new());
    let mut first: Vec<Option<McEstimate>> = Vec::new();
    let mut sweep_s = Vec::new();
    let mut sweep_cpu_s = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(budget);
    while start.elapsed() < budget {
        let s = slot.as_ref().ok_or("no set-up ran")?;
        let (mut one_sweep_s, mut one_sweep_cpu_s) = (0.0, 0.0);
        for (i, case) in s.cases.iter().enumerate() {
            let (t, c) = (Instant::now(), thread_cpu_s());
            let est = estimate(s, case, McEngine::sequential());
            let (case_s, case_cpu_s) = (t.elapsed().as_secs_f64(), thread_cpu_s() - c);
            out.yard.sample();
            one_sweep_s += case_s;
            one_sweep_cpu_s += case_cpu_s;
            case_cpu_us.push(case_cpu_s * 1e6);
            case_us.push(case_s * 1e6);
            out.attempted += 1;
            match (est, first.len() > i) {
                (Ok(e), false) => first.push(Some(e)),
                (Ok(e), true) => {
                    if first[i] != Some(e) {
                        eprintln!(
                            "perfbench: {} {} estimate changed between sweeps",
                            case.policy,
                            case.bench.name()
                        );
                        out.failed += 1;
                    }
                }
                (Err(e), repeat) => {
                    eprintln!("perfbench: {} {}: {e}", case.policy, case.bench.name());
                    out.failed += 1;
                    if !repeat {
                        first.push(None);
                    }
                }
            }
        }
        sweep_s.push(one_sweep_s);
        sweep_cpu_s.push(one_sweep_cpu_s);
        if let Some(seed) = resetup {
            setup_again(seed, slot, setup_times, &mut out.setup_yard)?;
        }
    }
    // slow quartile of the sweeps (and of 4-sweep blocks of estimates):
    // a burst of host noise moves one sweep, not the figure
    let ncases = slot.as_ref().map_or(0, |s| s.cases.len());
    let sweep_trials = ncases as f64 * TRIALS as f64;
    let ns_per_trial = quantile(&sweep_s, SLOW_QUARTILE) * 1e9 / sweep_trials;
    let cpu_ns_per_trial = quantile(&sweep_cpu_s, SLOW_QUARTILE) * 1e9 / sweep_trials;
    let block = BLOCK_SWEEPS * ncases;
    let (p50, p99) = block_quantiles(&case_us, block);
    let (cpu_p50, cpu_p99) = block_quantiles(&case_cpu_us, block);
    out.set("throughput_per_cpu_s", 1e9 / cpu_ns_per_trial.max(1e-9));
    out.set("cpu_p50_us", cpu_p50);
    out.set("cpu_p99_us", cpu_p99);
    out.report
        .int("sweeps", sweep_s.len() as u64)
        .int("estimates", case_us.len() as u64)
        .num("mc.ns_per_trial", ns_per_trial)
        .num("mc.cpu_ns_per_trial", cpu_ns_per_trial)
        .num("mc.case_p50_us", p50)
        .num("mc.case_p99_us", p99)
        .num("mc.case_cpu_p50_us", cpu_p50)
        .num("mc.case_cpu_p99_us", cpu_p99);
    Ok((first, sweep_s))
}

/// Two-sided tail probability of a normal deviate beyond ±4.
const TAIL_4SE: f64 = 6.334e-5;

/// How far `successes` of `n` trials sit from analytic `p`, in binomial
/// standard errors, and whether that is outside ±4 SE. Where fewer than
/// ~25 counts are expected on the rarer side the normal band is
/// meaningless (at n·p = 0.03 a single success is 5 SE out), so the test
/// there is the exact Poisson tail at the same 6.3e-5 level.
fn deviation(successes: u64, n: u64, p: f64) -> (f64, bool) {
    let var = n as f64 * p * (1.0 - p);
    let z = (successes as f64 - n as f64 * p).abs() / var.sqrt().max(f64::MIN_POSITIVE);
    if var >= 25.0 {
        return (z, z > SE_LIMIT);
    }
    let (k, lambda) = if p <= 0.5 {
        (successes, n as f64 * p)
    } else {
        (n - successes, n as f64 * (1.0 - p))
    };
    // P(X <= k) and P(X >= k) for X ~ Poisson(lambda)
    let mut term = (-lambda).exp();
    let mut below = 0.0;
    for i in 0..k {
        below += term;
        term *= lambda / (i + 1) as f64;
    }
    let at_most = below + term;
    let at_least = 1.0 - below;
    (z, 2.0 * at_most.min(at_least) < TAIL_4SE)
}

/// Each estimate within ±4 binomial SE of analytic PST; successes
/// identical on a 1-thread and a 2-thread engine for one case.
fn check_estimates(s: &Setup, first: &[Option<McEstimate>], out: &mut Outcome) {
    let mut worst: f64 = 0.0;
    for (case, est) in s.cases.iter().zip(first) {
        let Some(est) = est else { continue };
        out.attempted += 1;
        let (z, outside) = deviation(est.successes, TRIALS, case.analytic);
        worst = worst.max(z);
        if outside {
            eprintln!(
                "perfbench: {} {} estimate {} is {z:.2} SE from analytic {}",
                case.policy,
                case.bench.name(),
                est.pst,
                case.analytic
            );
            out.failed += 1;
        }
    }
    out.attempted += 1;
    let case = &s.cases[(s.cases[0].seed % s.cases.len() as u64) as usize];
    let one = estimate(s, case, McEngine::new(1));
    let two = estimate(s, case, McEngine::new(2));
    let same = matches!((&one, &two), (Ok(a), Ok(b)) if a.successes == b.successes);
    if !same {
        eprintln!(
            "perfbench: 1-thread and 2-thread engines disagree on {} {}",
            case.policy,
            case.bench.name()
        );
        out.failed += 1;
    }
    out.report
        .num("worst_se", worst)
        .boolean("threads_identical", same);
}

fn traced(
    args: &Args,
    host: Host,
    s: &Setup,
    first: &[Option<McEstimate>],
    sweep_s: &[f64],
    out: &mut Outcome,
) {
    let mut tr = Tracer::default();
    let engine = McEngine::sequential();
    let start = Instant::now();
    tr.span("mc-sweep", |tr| {
        for _ in 0..sweep_s.len() {
            for (i, case) in s.cases.iter().enumerate() {
                tr.span("case", |tr| {
                    let profile = tr.span("sim.profile", |_| {
                        FailureProfile::new(&s.device, case.compiled.physical(), CoherenceModel::Disabled)
                    });
                    out.attempted += 1;
                    let same = profile.is_ok_and(|p| {
                        let est = tr.span("sim.run", |_| engine.run(&p, TRIALS, case.seed));
                        first.get(i).copied().flatten() == Some(est)
                    });
                    if !same {
                        out.failed += 1;
                    }
                });
            }
        }
    });
    let wall_traced = start.elapsed().as_secs_f64();
    let untraced_total: f64 = sweep_s.iter().sum();
    crate::self_times(&tr, out);

    // compile-side layers of the set-up and the off-path layers on the
    // same 28 cases; the path's own figures are set after, so they are
    // the ones kept
    let (policies, validate_us) = match cases::policies() {
        Ok(v) => v,
        Err(e) => {
            out.invalid = Some(e);
            return;
        }
    };
    let census: Vec<_> = s
        .cases
        .iter()
        .filter_map(|c| {
            policies
                .iter()
                .find(|p| p.spec == c.policy)
                .map(|p| (&c.bench, &s.device, p))
        })
        .collect();
    cases::layer_census(&mut Tracer::default(), &census, 20_000, args.seed, out);
    let root = tr.agg("mc-sweep");
    let run = tr.agg("sim.run");
    out.set("trace.wall_s", root.total_ns as f64 / 1e9);
    out.set(
        "trace.unattributed_s",
        (root.self_ns + tr.agg("case").self_ns) as f64 / 1e9,
    );
    out.set("trace.overhead_s", wall_traced - untraced_total);
    out.set(
        "sim.run_ns_per_trial",
        run.total_ns as f64 / (run.calls as f64 * TRIALS as f64),
    );
    out.set("sim.profile_us", tr.agg("sim.profile").mean_us());
    out.set("compile.validate_us", validate_us);
    let (calgen_us, _) = cases::calgen_census(&Topology::ibm_q20_tokyo(), args.seed);
    out.set("device.calgen_us", calgen_us);
    out.set("device.build_us", s.build_us);
    out.set("benchmarks.generate_us", s.generate_us);
    serve::census(args, host, out);
    crate::write_trace(args, &tr);
    let mut detail = Obj::default();
    detail
        .int("traced_sweeps", sweep_s.len() as u64)
        .num("wall_untraced_s", untraced_total)
        .num("wall_traced_s", wall_traced);
    out.report.obj("trace", &detail);
}
