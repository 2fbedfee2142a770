//! `recompile-days`: the paper's per-calibration recompile (§6.5,
//! Fig. 14). Every table-1 × policy case is compiled with the checked
//! pipeline and scored with analytic PST against a fresh daily IBM-Q20
//! Tokyo calibration, so no memo or cache can help.

use std::time::{Duration, Instant};

use quva_benchmarks::{table1_suite, Benchmark};
use quva_device::{CalibrationGenerator, Device, Topology, VariationProfile};
use quva_sim::{analytic_pst, CoherenceModel};

use crate::cases::{self, Policy};
use crate::trace::Tracer;
use crate::util::{
    block_quantiles, cpu_timed, median, mix, process_cpu_s, slow_rate, thread_cpu_s, timed, us, Obj,
    Yardstick,
};
use crate::{serve, Args, Host, Outcome};

/// Daily calibrations generated in set-up. A run wraps around only if
/// it compiles more than this many days' worth of cases.
const DAYS: usize = 1024;
/// Set-ups before the measured loop; an untraced run sets up once more
/// after every block, so its set-up times span the whole run.
const SETUP_REPS: usize = 5;
/// Days whose cases the traced run's census compiles.
const COUNT_DAYS: usize = 4;

struct Setup {
    devices: Vec<Device>,
    suite: Vec<Benchmark>,
    policies: Vec<Policy>,
    calgen_us: f64,
    build_us: f64,
    generate_us: f64,
    validate_us: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let topology = Topology::ibm_q20_tokyo();
    let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), mix(seed, 14));
    let (series, t_cal) = timed(|| generator.daily_series(&topology, DAYS));
    let (devices, t_build) = timed(|| {
        series
            .into_iter()
            .map(|cal| Device::from_parts(topology.clone(), cal).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()
    });
    let (suite, t_gen) = timed(table1_suite);
    let (policies, validate_us) = cases::policies()?;
    Ok(Setup {
        devices: devices?,
        calgen_us: us(t_cal) / DAYS as f64,
        build_us: us(t_build) / DAYS as f64,
        generate_us: us(t_gen) / suite.len() as f64,
        suite,
        policies,
        validate_us,
    })
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

/// Compiles every case of one day; pushes each case's wall and thread
/// CPU time in microseconds.
fn one_day(s: &Setup, day: usize, times: &mut Vec<f64>, cpu: &mut Vec<f64>) -> u64 {
    let device = &s.devices[day % DAYS];
    let mut failed = 0;
    for bench in &s.suite {
        for policy in &s.policies {
            let (t, c) = (Instant::now(), thread_cpu_s());
            let r = cases::compile_and_score(policy, bench.circuit(), device);
            cpu.push((thread_cpu_s() - c) * 1e6);
            times.push(us(t.elapsed()));
            if let Err(e) = r {
                eprintln!("perfbench: day {day} {} {}: {e}", policy.spec, bench.name());
                failed += 1;
            }
        }
    }
    failed
}

pub fn run(args: &Args, host: Host) -> Outcome {
    let mut out = Outcome::default();
    let mut slot = None;
    let mut setup_times = Vec::new();
    let mut result = (0..SETUP_REPS)
        .try_for_each(|_| setup_again(args.seed, &mut slot, &mut setup_times, &mut out.setup_yard));
    if let (Ok(()), Some(s)) = (&result, &slot) {
        if args.trace {
            traced(args, host, s, &mut out);
        } else {
            result = untraced(args, &mut slot, &mut setup_times, &mut out);
        }
    }
    let s = match (result, slot) {
        (Ok(()), Some(s)) => s,
        (Err(e), _) => {
            out.invalid = Some(format!("set-up failed: {e}"));
            return out;
        }
        (Ok(()), None) => {
            out.invalid = Some("no set-up ran".into());
            return out;
        }
    };
    let setup_s = median(&setup_times);
    out.set("setup_s", setup_s);
    out.report
        .num("setup_s", setup_s)
        .int("setups", setup_times.len() as u64)
        .int("days_generated", DAYS as u64);
    let (checked, bad) = cases::check_goldens(&s.policies);
    out.attempted += checked;
    out.failed += bad;
    out.report
        .int("golden_checked", checked)
        .int("golden_mismatched", bad);
    out
}

/// Days per throughput block.
const BLOCK_DAYS: usize = 16;
/// Cases per latency block (p99 keeps ten samples beyond it).
const BLOCK_CASES: usize = 1000;

/// The measured loop: blocks of days, the yardstick sampled after every
/// day and a fresh set-up (same seed, same devices) after every block.
fn untraced(
    args: &Args,
    slot: &mut Option<Setup>,
    setup_times: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut times, mut cpu_times) = (Vec::new(), Vec::new());
    let (mut wall_rates, mut cpu_rates) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut day = 0;
    while start.elapsed() < budget {
        let s = slot.as_ref().ok_or("no set-up ran")?;
        let (mut block_s, mut block_cpu_s) = (0.0, 0.0);
        let before = times.len();
        for _ in 0..BLOCK_DAYS {
            let (t, cpu) = (Instant::now(), process_cpu_s());
            out.failed += one_day(s, day, &mut times, &mut cpu_times);
            block_cpu_s += process_cpu_s() - cpu;
            block_s += t.elapsed().as_secs_f64();
            out.yard.sample();
            day += 1;
        }
        let cases = (times.len() - before) as f64;
        wall_rates.push(cases / block_s.max(1e-9));
        cpu_rates.push(cases / block_cpu_s.max(1e-9));
        setup_again(args.seed, slot, setup_times, &mut out.setup_yard)?;
    }
    out.attempted += times.len() as u64;
    let rate = slow_rate(&wall_rates);
    let (p50, p99) = block_quantiles(&times, BLOCK_CASES);
    let (cpu_p50, cpu_p99) = block_quantiles(&cpu_times, BLOCK_CASES);
    out.set("throughput_per_cpu_s", slow_rate(&cpu_rates));
    out.set("cpu_p50_us", cpu_p50);
    out.set("cpu_p99_us", cpu_p99);
    out.report
        .int("days", day as u64)
        .int("wrapped", u64::from(day > DAYS))
        .int("cases", times.len() as u64)
        .num("recompile.cases_per_s", rate)
        .num("recompile.cases_per_cpu_s", slow_rate(&cpu_rates))
        .num("recompile.case_p50_us", p50)
        .num("recompile.case_p99_us", p99)
        .num("recompile.case_cpu_p50_us", cpu_p50)
        .num("recompile.case_cpu_p99_us", cpu_p99);
    Ok(())
}

fn traced(args: &Args, host: Host, s: &Setup, out: &mut Outcome) {
    // untraced reference over a fixed share of the budget
    let (mut times, mut cpu_times) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds * 0.35);
    let mut days = 0;
    while start.elapsed() < budget {
        out.failed += one_day(s, days, &mut times, &mut cpu_times);
        days += 1;
    }
    let wall_untraced = start.elapsed().as_secs_f64();
    out.attempted += times.len() as u64;

    // the same days again, one span per layer call
    let mut tr = Tracer::default();
    let start = Instant::now();
    tr.span("recompile", |tr| {
        for day in 0..days {
            let device = &s.devices[day % DAYS];
            for bench in &s.suite {
                for policy in &s.policies {
                    tr.span("case", |tr| {
                        let r = cases::compile_by_pass(tr, &policy.policy, bench.circuit(), device).and_then(
                            |c| {
                                tr.span("sim.analytic", |_| {
                                    analytic_pst(device, c.physical(), CoherenceModel::Disabled)
                                        .map_err(|e| e.to_string())
                                })
                            },
                        );
                        if r.is_err() {
                            out.failed += 1;
                        }
                    });
                    out.attempted += 1;
                }
            }
        }
    });
    let wall_traced = start.elapsed().as_secs_f64();
    let root = tr.agg("recompile");
    let glue = root.self_ns + tr.agg("case").self_ns;
    crate::self_times(&tr, out);

    // off-path layers and program counters on the first days' cases;
    // the path's own figures are set after, so they are the ones kept
    let cases: Vec<_> = s.devices[..COUNT_DAYS]
        .iter()
        .flat_map(|d| {
            s.suite
                .iter()
                .flat_map(move |b| s.policies.iter().map(move |p| (b, d, p)))
        })
        .collect();
    cases::layer_census(&mut Tracer::default(), &cases, 20_000, args.seed, out);
    out.set("trace.wall_s", root.total_ns as f64 / 1e9);
    out.set("trace.unattributed_s", glue as f64 / 1e9);
    out.set("trace.overhead_s", wall_traced - wall_untraced);
    out.set("compile.allocate_us", tr.agg("compile.allocate").mean_us());
    out.set("compile.route_us", tr.agg("compile.route").mean_us());
    out.set("compile.select_us", tr.agg("compile.select").mean_us());
    out.set("sim.analytic_us", tr.agg("sim.analytic").mean_us());
    out.set("compile.validate_us", s.validate_us);
    out.set("device.calgen_us", s.calgen_us);
    out.set("device.build_us", s.build_us);
    out.set("benchmarks.generate_us", s.generate_us);
    serve::census(args, host, out);
    crate::write_trace(args, &tr);
    let mut detail = Obj::default();
    detail
        .int("traced_days", days as u64)
        .num("wall_untraced_s", wall_untraced)
        .num("wall_traced_s", wall_traced);
    out.report.obj("trace", &detail);
}
