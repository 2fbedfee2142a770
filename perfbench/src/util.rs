//! Small shared helpers: seeded RNG, quantiles, JSON output, host
//! facts.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so every
/// input is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Mixes two values into one seed.
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.rotate_left(32)).next_u64()
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Quantile of block figures the benchmark reports: the slow quartile.
/// On a host shared with another tenant the contended state is the
/// common one and quiet spells come and go within a run; the slower
/// quarter of a run's blocks sits in the contended state in every run,
/// so it varies far less between runs than the median or the best
/// blocks (README, "Sizing and spread").
pub const SLOW_QUARTILE: f64 = 0.75;

/// The slow quartile of per-block throughputs (their 25th percentile).
pub fn slow_rate(rates: &[f64]) -> f64 {
    quantile(rates, 1.0 - SLOW_QUARTILE)
}

/// p50 and p99 of consecutive blocks of `block` samples (a trailing
/// partial block joins the one before it), each reduced to its slow
/// quartile across blocks, so a burst of host noise moves one block,
/// not the figure. Fewer than two blocks fall back to the pooled
/// quantiles.
pub fn block_quantiles(samples: &[f64], block: usize) -> (f64, f64) {
    let n = samples.len() / block.max(1);
    if n < 2 {
        return (quantile(samples, 0.5), quantile(samples, 0.99));
    }
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for k in 0..n {
        let end = if k + 1 == n {
            samples.len()
        } else {
            (k + 1) * block
        };
        let b = &samples[k * block..end];
        p50.push(quantile(b, 0.5));
        p99.push(quantile(b, 0.99));
    }
    (quantile(&p50, SLOW_QUARTILE), quantile(&p99, SLOW_QUARTILE))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// A JSON object built in insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let text = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.0.push((key.to_string(), text));
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn boolean(&mut self, key: &str, v: bool) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.push((
            key.to_string(),
            format!("\"{}\"", quva_serve::protocol::json_escape(v)),
        ));
        self
    }

    pub fn obj(&mut self, key: &str, v: &Obj) -> &mut Self {
        self.0.push((key.to_string(), v.render()));
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": {v}");
        }
        out.push('}');
        out
    }
}

#[repr(C)]
pub struct Timespec {
    pub tv_sec: i64,
    pub tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid-out `struct timespec` the
    // call writes into; callers pass a valid Linux CPU-time clock id.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed by this process, all threads, in seconds. CPU time
/// leaves out the time the host's other tenants held the CPU, which on
/// a shared machine varies far more between runs than the program does.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Runs `f`; returns its output with the process CPU seconds and wall
/// seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (cpu, wall) = (process_cpu_s(), Instant::now());
    let out = f();
    (out, process_cpu_s() - cpu, wall.elapsed().as_secs_f64())
}

/// Number of CPUs the scheduler offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time, in microseconds, one sample of each kind of yardstick
/// takes at the reference host speed (about its median on a 2-vCPU Xeon
/// host shared with another tenant). CPU-time metrics are reported at
/// this speed.
const COMPUTE_REF_US: f64 = 200.0;
const HANDOFF_REF_US: f64 = 320.0;
/// Loopback round trips in one handoff sample.
const ROUND_TRIPS: usize = 4;
const ECHO_LINE: &[u8; 64] = b"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcde\n";

/// Host-speed yardstick. On a host shared with other tenants the CPU
/// time a fixed piece of work takes moves by up to 1.7x within a run
/// and between runs: the tenants share the cores' caches and execution
/// units even when they take no CPU time from this process. Each sample
/// times the same fixed work, the benchmark's own code, right after a
/// measured step, so it starts from caches the step has filled with its
/// own data, as the program's steps start from caches the one before
/// filled. Workloads sample it all through a run; the run's median
/// sample gives the factor that brings its CPU times to the reference
/// speed. The program never runs it.
///
/// The compute yardstick (hash-map inserts and lookups and a sort, like
/// the program's inner loops, in thread CPU time) serves the batch
/// workloads. A `quvad` request also hands a line to another thread
/// over a socket and back, which the other tenant slows more than it
/// slows compute, so the handoff yardstick adds loopback round trips.
/// Over ten `quvad-mix` runs the spread of `cpu_p50_us`,
/// `cpu_p99_us` and `throughput_per_cpu_s` was 14%, 8.3% and 8.3%
/// unscaled, 7.0%, 3.9% and 4.2% scaled by the compute yardstick, and
/// 5.5%, 3.2% and 5.4% scaled by the handoff yardstick.
#[derive(Debug)]
pub struct Yardstick {
    samples: Vec<f64>,
    reference_us: f64,
    echo: Option<Echo>,
    /// A round trip failed; the run cannot be scaled.
    failed: bool,
}

/// The client end of a loopback connection to the yardstick's echo
/// thread.
#[derive(Debug)]
struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            samples: Vec::new(),
            reference_us: COMPUTE_REF_US,
            echo: None,
            failed: false,
        }
    }
}

impl Yardstick {
    /// The compute work plus `ROUND_TRIPS` round trips of a 64-byte line
    /// to an echo thread of the benchmark's own over loopback TCP, timed
    /// in process CPU time so that both ends count.
    pub fn with_handoff() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        // connected before the echo thread accepts, so it never waits
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let thread = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut line = [0u8; ECHO_LINE.len()];
            while peer.read_exact(&mut line).is_ok() && peer.write_all(&line).is_ok() {}
        });
        Ok(Yardstick {
            reference_us: HANDOFF_REF_US,
            echo: Some(Echo {
                stream,
                thread: Some(thread),
            }),
            ..Yardstick::default()
        })
    }

    pub fn sample(&mut self) {
        let Some(echo) = &mut self.echo else {
            let cpu = thread_cpu_s();
            std::hint::black_box(yard_work());
            self.samples.push((thread_cpu_s() - cpu) * 1e6);
            return;
        };
        let cpu = process_cpu_s();
        std::hint::black_box(yard_work());
        let mut line = [0u8; ECHO_LINE.len()];
        for _ in 0..ROUND_TRIPS {
            if echo
                .stream
                .write_all(ECHO_LINE)
                .and_then(|()| echo.stream.read_exact(&mut line))
                .is_err()
            {
                self.failed = true;
                return;
            }
        }
        self.samples.push((process_cpu_s() - cpu) * 1e6);
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Whether the run's figures can be scaled: sampled, and no round
    /// trip failed.
    pub fn usable(&self) -> bool {
        !self.samples.is_empty() && !self.failed
    }

    /// The run's median sample, in microseconds.
    pub fn median_us(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor that brings a CPU time measured in this run to the
    /// reference speed (1 when nothing was sampled).
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            self.reference_us / self.median_us().max(1e-9)
        }
    }
}

impl Drop for Echo {
    /// Closes the connection and waits for the echo thread.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The yardstick's fixed work: the same inputs every time.
fn yard_work() -> u64 {
    let mut map = std::collections::HashMap::with_capacity(1024);
    let mut keys = Vec::with_capacity(1000);
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for i in 0..1000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, i);
        keys.push((x >> 11) as f64);
    }
    keys.sort_by(f64::total_cmp);
    let hits: u64 = (0..4096u64).filter_map(|k| map.get(&k)).sum();
    hits + keys[500] as u64
}
