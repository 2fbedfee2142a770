//! quva benchmark: three workloads that each load one layer of the
//! stack, measured end to end (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <recompile-days|mc-sweep|quvad-mix> --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-manifest BENCHMARK.json
//! ```
//!
//! Run from the repository root (the compile goldens are read from
//! there). Every input is generated from `--seed`. The last line of
//! standard output is the result object; the line before it is a
//! report with the host record, the named metrics, health figures and
//! check details. See `perfbench/README.md` for the workloads, the
//! metrics and which layer metric moves which end-to-end metric.

mod cases;
mod mcsweep;
mod recompile;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::time::Instant;

use quva_sim::{CoherenceModel, FailureProfile, McEngine};
use util::{nproc, Obj, Yardstick};

/// End-to-end metrics: (name, unit, better, bound).
/// Times are process or thread CPU time: on a shared host the CPU share
/// a run gets varies by 2x between runs, which wall-clock figures
/// inherit and CPU-time figures do not. They are brought to the
/// reference host speed by the run's yardstick (`SCALED`). Wall-clock
/// and unscaled figures are in the report line.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_cpu_s", "1/s", "higher", 0.25),
    ("cpu_p50_us", "us", "lower", 0.25),
    ("cpu_p99_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// End-to-end metrics that are CPU times (`true`) or rates per CPU
/// second (`false`), scaled to the reference host speed by the run's
/// yardstick; `setup_s` is scaled by the set-up yardstick.
const SCALED: &[(&str, bool)] = &[
    ("throughput_per_cpu_s", false),
    ("cpu_p50_us", true),
    ("cpu_p99_us", true),
];

/// Per-layer metrics: (name, unit, better). Names reuse the program's
/// `quva-obs` span and counter names where the layer has one.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("compile.validate_us", "us", "lower"),
    ("compile.allocate_us", "us", "lower"),
    ("compile.route_us", "us", "lower"),
    ("compile.select_us", "us", "lower"),
    ("compile.swaps", "count", "lower"),
    ("compile.gates_out", "count", "lower"),
    ("router.dijkstra_pops", "count", "lower"),
    ("route.candidates", "count", "lower"),
    ("sim.run_ns_per_trial", "ns", "lower"),
    ("sim.profile_us", "us", "lower"),
    ("sim.analytic_us", "us", "lower"),
    ("sim.active_events", "count", "lower"),
    ("analysis.audit_us", "us", "lower"),
    ("serve.parse_us", "us", "lower"),
    ("serve.resolve_hit_us", "us", "lower"),
    ("serve.resolve_miss_us", "us", "lower"),
    ("serve.cache_get_ns", "ns", "lower"),
    ("serve.cache_insert_ns", "ns", "lower"),
    ("serve.execute.compile_us", "us", "lower"),
    ("serve.execute.simulate_us", "us", "lower"),
    ("serve.execute.audit_us", "us", "lower"),
    ("serve.render_us", "us", "lower"),
    ("serve.hit.client_us", "us", "lower"),
    ("serve.miss.client_us", "us", "lower"),
    ("serve.hit.unattributed_us", "us", "lower"),
    ("serve.miss.unattributed_us", "us", "lower"),
    ("serve.unattributed_us", "us", "lower"),
    ("serve.cache_hit_rate", "frac", "higher"),
    ("serve.daemon.compile.p50_us", "us", "lower"),
    ("serve.daemon.compile.p99_us", "us", "lower"),
    ("serve.daemon.simulate.p50_us", "us", "lower"),
    ("serve.daemon.simulate.p99_us", "us", "lower"),
    ("serve.daemon.audit.p50_us", "us", "lower"),
    ("serve.daemon.audit.p99_us", "us", "lower"),
    ("serve.offered_rps", "1/s", "higher"),
    ("serve.lateness_p99_us", "us", "lower"),
    ("obs.note_ns", "ns", "lower"),
    ("obs.events_per_request", "count", "lower"),
    ("obs.recorder_share", "frac", "lower"),
    ("device.calgen_us", "us", "lower"),
    ("device.build_us", "us", "lower"),
    ("benchmarks.generate_us", "us", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Workloads: (name, why). The why lines go into `BENCHMARK.json`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "recompile-days",
        "table-1 x 4 policies recompiled per fresh daily q20 calibration (paper 6.5): quva core passes dominate, \
         no cache can help; MC and serve idle",
    ),
    (
        "mc-sweep",
        "28 table-1 x policy cases compiled in set-up, each estimated by sequential Monte-Carlo fault injection: \
         quva-sim kernel dominates; compile, serve idle",
    ),
    (
        "quvad-mix",
        "seeded compile/simulate/audit jobs to in-process quvad, hot repeats + fresh misses cycling its cache: \
         parse/resolve/cache/audit/workers dominate",
    ),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The host record every run carries.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub nproc: usize,
    pub effective_cores: f64,
    /// Threads sized from the measurement, never above `nproc`.
    pub threads: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run must not be reported (e.g. the generator fell
    /// behind its schedule).
    pub invalid: Option<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sampled between the measured steps of an untraced run.
    pub yard: Yardstick,
    /// Sampled after each set-up; scales `setup_s`.
    pub setup_yard: Yardstick,
    /// Workload-specific and wall-clock figures, health and check details.
    pub report: Obj,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--write-manifest" => {
                let path = value()?;
                std::fs::write(&path, manifest()).map_err(|e| format!("writing {path}: {e}"))?;
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `BENCHMARK.json`, generated from the metric lists above.
fn manifest() -> String {
    let q = |s: &str| format!("\"{}\"", quva_serve::protocol::json_escape(s));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", q(n), q(why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                q(n),
                q(u),
                q(b)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(n),
                q(u),
                q(b)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \
         \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Seconds one run measures, as recorded in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 30;

/// Measures the host's real parallel capacity: `nproc` concurrent
/// copies of the single-thread Monte-Carlo kernel against one copy.
fn probe_host() -> Host {
    let n = nproc();
    let device = quva_device::Device::ibm_q20();
    let bench = quva_benchmarks::Benchmark::bv(16);
    let compiled = quva::MappingPolicy::baseline()
        .compile(bench.circuit(), &device)
        .unwrap_or_else(|e| die(&format!("host probe compile failed: {e}")));
    let profile = FailureProfile::new(&device, compiled.physical(), CoherenceModel::Disabled)
        .unwrap_or_else(|e| die(&format!("host probe profile failed: {e}")));
    let kernel = |seed: u64| McEngine::sequential().run(&profile, 2_000_000, seed);
    std::hint::black_box(kernel(0)); // warm caches
    let t = Instant::now();
    std::hint::black_box(kernel(1));
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for i in 0..n {
            s.spawn(move || std::hint::black_box(kernel(2 + i as u64)));
        }
    });
    let all = t.elapsed().as_secs_f64();
    let effective_cores = (n as f64 * one / all).max(0.0);
    Host {
        nproc: n,
        effective_cores,
        threads: (effective_cores.round() as usize).clamp(1, n),
    }
}

fn run_one(args: &Args, host: Host) {
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "recompile-days" => recompile::run(args, host),
        "mc-sweep" => mcsweep::run(args, host),
        "quvad-mix" => serve::run(args, host),
        other => die(&format!(
            "unknown workload `{other}` (recompile-days, mc-sweep, quvad-mix)"
        )),
    };
    // a workload whose checks hold more than its measured path reads
    // the peak before them
    out.metrics.entry("peak_rss_mb").or_insert_with(util::peak_rss_mb);
    if !args.trace {
        scale_to_reference(&mut out);
    }
    let list: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
    };
    let mut metrics = Obj::default();
    for (name, unit) in list {
        // only a run that failed part-way leaves a metric unmeasured
        let value = out.metrics.get(name).copied().unwrap_or_else(|| {
            out.invalid
                .get_or_insert_with(|| format!("metric {name} was not measured"));
            0.0
        });
        let mut m = Obj::default();
        m.num("value", value).text("unit", unit);
        metrics.obj(name, &m);
    }
    let mut host_obj = Obj::default();
    host_obj
        .int("nproc", host.nproc as u64)
        .num("effective_cores", host.effective_cores)
        .int("threads", host.threads as u64);
    let mut report = Obj::default();
    report
        .text("workload", &args.workload)
        .int("seed", args.seed)
        .boolean("trace", args.trace)
        .obj("host", &host_obj)
        .boolean("valid", out.invalid.is_none())
        .text("invalid_reason", out.invalid.as_deref().unwrap_or(""))
        .num("failed_frac", out.failed as f64 / out.attempted.max(1) as f64)
        .num("run_s", started.elapsed().as_secs_f64())
        .obj("detail", &out.report);
    println!("{}", report.render());
    let correct = out.failed == 0 && out.invalid.is_none() && out.attempted > 0;
    let mut result = Obj::default();
    result
        .boolean("correct", correct)
        .int("attempted", out.attempted.max(1))
        .int("failed", out.failed)
        .obj("metrics", &metrics);
    println!("{}", result.render());
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(&e));
    if args.workload.is_empty() {
        die("--workload is required");
    }
    // the compile goldens are read relative to the repository root
    if !std::path::Path::new(cases::GOLDEN_DIR).is_dir() {
        die(&format!(
            "{} not found: run from the repository root",
            cases::GOLDEN_DIR
        ));
    }
    // one workload per process, so the peak RSS is that workload's own
    run_one(&args, probe_host());
}

/// Brings the CPU-time metrics to the reference host speed; the
/// measured values, the yardstick and the factor go to the report.
fn scale_to_reference(out: &mut Outcome) {
    let (scale, setup_scale) = (out.yard.scale(), out.setup_yard.scale());
    let mut raw = Obj::default();
    raw.int("yard_samples", out.yard.samples() as u64)
        .num("yard_us", out.yard.median_us())
        .num("scale", scale)
        .int("setup_yard_samples", out.setup_yard.samples() as u64)
        .num("setup_yard_us", out.setup_yard.median_us())
        .num("setup_scale", setup_scale);
    for &(name, is_time) in SCALED {
        if let Some(v) = out.metrics.get_mut(name) {
            raw.num(name, *v);
            *v = if is_time { *v * scale } else { *v / scale };
        }
    }
    if let Some(v) = out.metrics.get_mut("setup_s") {
        raw.num("setup_s", *v);
        *v *= setup_scale;
    }
    if !out.yard.usable() || !out.setup_yard.usable() {
        out.invalid
            .get_or_insert_with(|| "the yardstick was not sampled, or a round trip failed".into());
    }
    out.report.obj("unscaled", &raw);
}

/// Reports each span's self time. Every span of a traced path sits
/// under one root and a self time is a duration minus its children's,
/// so the self times add up to the root's duration by construction:
/// this is the path's wall time broken down by layer, not a check.
pub fn self_times(tr: &trace::Tracer, out: &mut Outcome) {
    let mut layers = Obj::default();
    for (name, agg) in tr.aggs() {
        layers.num(name, agg.self_ns as f64 / 1e9);
    }
    out.report.obj("self_s", &layers);
}

/// Writes the traced run's spans as Chrome trace JSON under
/// `.bench_trace/` (best effort).
pub fn write_trace(args: &Args, tr: &trace::Tracer) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json())) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
