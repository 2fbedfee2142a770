//! `quvad-mix`: seeded compile/simulate/audit traffic sent to an
//! in-process `quvad` over TCP. A fixed share of requests repeats a hot
//! set of jobs; the rest carry a fresh calibration seed (`grid:4x5@S`)
//! or Monte-Carlo seed, so the daemon's FIFO result cache both serves
//! hits and keeps evicting. Open-loop requests are timed from their due
//! time, not from when they were sent.
//!
//! The traced run replays the same requests in-process through
//! `parse_request → resolve → ResultCache::get/insert → exec::execute →
//! Response::render`; client latency minus that sum is the
//! unattributed remainder (socket, queue wait, thread handoff).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use quva_obs::parse_json;
use quva_serve::exec::{execute, resolve};
use quva_serve::protocol::{parse_request, JobSpec, RequestKind, Response};
use quva_serve::{ResultCache, Server, ServerConfig, ServerHandle};
use quva_sim::McEngine;

use crate::cases::{self, POLICIES, TABLE1};
use crate::trace::Tracer;
use crate::util::{
    block_quantiles, cpu_timed, mean, median, mix, peak_rss_mb, process_cpu_s, quantile, timed, us, Obj, Rng,
    Timespec, Yardstick,
};
use crate::{Args, Host, Outcome};

/// Offered rates, about 30% and 75% of the highest rate at which p99
/// stayed within 20 ms on a 2-vCPU host with one to two effective cores
/// (1,100-1,900/s; README).
const NOMINAL_RPS: f64 = 400.0;
const PEAK_RPS: f64 = 1000.0;
/// Rounds of nominal, peak, CPU and saturation slices, and each phase's
/// share of the run. The host's speed changes within seconds, so every
/// phase is cut into slices spread over the whole run rather than
/// measured in one stretch of it. Every slice sends a fixed number of
/// requests, its share of the run times its rate, so every run of a
/// seed sends the same requests however fast the host runs them: the
/// daemon's heap grows with the requests it has served, and a run cut
/// by time had `peak_rss_mb` follow the host's speed.
const ROUNDS: usize = 8;
const NOMINAL_SHARE: f64 = 0.15;
const PEAK_SHARE: f64 = 0.1;
const CPU_SHARE: f64 = 0.4;
const SATURATION_SHARE: f64 = 0.2;
/// Requests each connection keeps in flight in the saturation phase.
const SATURATION_DEPTH: usize = 4;
/// Median generator lateness above which a phase (or, for the
/// untraced run's rounds, all rounds of one rate together) is invalid.
const LATE_LIMIT_US: f64 = 1_000.0;
/// Share of the scheduled rate the generator must actually send.
const MIN_OFFERED: f64 = 0.97;
/// Share of requests that repeat a hot job.
const HOT_SHARE: f64 = 0.7;
/// One engine chunk (`quva_sim::DEFAULT_CHUNK_TRIALS`), so the
/// daemon's engine thread count cannot change the work a job does.
const SIM_TRIALS: u64 = 16_384;
const CONNS: usize = 2;
const SETUP_REPS: usize = 11;
/// CPU-slice requests per yardstick sample.
const YARD_EVERY: usize = 16;
/// Rates that size the closed-loop slices: the median rates measured on
/// a 2-vCPU host shared with another tenant (one request in flight, and
/// saturation).
const CPU_RPS: f64 = 1_200.0;
const SATURATION_RPS: f64 = 2_700.0;
/// Requests per block of the CPU phase's quantiles (p99 keeps ten
/// samples beyond it).
const CPU_BLOCK: usize = 1000;
/// Rate of the off-path serve probe the batch workloads' traced runs
/// send.
const CENSUS_RPS: f64 = 100.0;

/// One job of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Job {
    kind: &'static str,
    policy: &'static str,
    bench: &'static str,
    /// On a `grid:4x5@seed` device rather than `q20`.
    on_grid: bool,
    /// The calibration seed on the grid; the Monte-Carlo seed of a
    /// simulate job.
    seed: u64,
}

impl Job {
    /// A job whose fresh part is `seed`: the calibration seed of its
    /// `grid:4x5` device, or the Monte-Carlo seed of a simulate job on
    /// `q20`.
    fn new(kind: &'static str, bench: &'static str, policy: &'static str, seed: u64) -> Job {
        Job {
            kind,
            policy,
            bench,
            on_grid: kind != "simulate",
            seed,
        }
    }

    fn device(&self) -> String {
        if self.on_grid {
            format!("grid:4x5@{}", self.seed)
        } else {
            "q20".to_string()
        }
    }

    fn line(&self, id: &str) -> String {
        let sim = if self.kind == "simulate" {
            format!(",\"trials\":{SIM_TRIALS},\"seed\":{}", self.seed)
        } else {
            String::new()
        };
        format!(
            "{{\"id\":\"{id}\",\"kind\":\"{}\",\"device\":\"{}\",\"policy\":\"{}\",\"benchmark\":\"{}\"{sim}}}",
            self.kind,
            self.device(),
            self.policy,
            self.bench
        )
    }
}

/// A reply line reduced to what the checks compare.
fn digest(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}

/// Job source: repeats of a fixed hot set and fresh misses. Every
/// table-1 benchmark × policy pair is hot once; fresh jobs deal the 84
/// (kind, benchmark, policy) combinations from a seeded shuffled deck,
/// so every seed offers the same mix and only order and calibration /
/// Monte-Carlo seeds differ. The `n`-th job drawn is a function of the
/// seed alone, so the reply check draws the jobs again instead of the
/// generator keeping them.
struct Mix {
    rng: Rng,
    next_seed: u64,
    hot: Vec<Job>,
    deck: Vec<(&'static str, &'static str, &'static str)>,
    /// Jobs drawn so far, in all and of each of `KINDS`.
    drawn: usize,
    kinds: [u64; 3],
}

const KINDS: [&str; 3] = ["compile", "simulate", "audit"];

impl Mix {
    fn new(seed: u64) -> Self {
        let mut hot = Vec::new();
        for (b, bench) in TABLE1.iter().enumerate() {
            for (p, policy) in POLICIES.iter().enumerate() {
                let i = (b * POLICIES.len() + p) as u64;
                hot.push(Job::new(KINDS[(b + p) % 3], bench, policy, i + 1));
            }
        }
        Mix {
            rng: Rng::new(mix(seed, 0x5e7e)),
            next_seed: 1_000 + (mix(seed, 1) % 1_000_000) * 1_000_000,
            hot,
            deck: Vec::new(),
            drawn: 0,
            kinds: [0; 3],
        }
    }

    fn fresh(&mut self) -> Job {
        if self.deck.is_empty() {
            for kind in KINDS {
                for bench in TABLE1 {
                    for policy in POLICIES {
                        self.deck.push((kind, bench, policy));
                    }
                }
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        let (kind, bench, policy) = self.deck.pop().expect("deck refilled above");
        self.next_seed += 1;
        Job::new(kind, bench, policy, self.next_seed)
    }

    fn next(&mut self) -> Job {
        let job = if self.rng.unit() < HOT_SHARE {
            self.hot[self.rng.below(self.hot.len())]
        } else {
            self.fresh()
        };
        self.drawn += 1;
        self.kinds[KINDS.iter().position(|k| *k == job.kind).unwrap_or(0)] += 1;
        job
    }

    fn take(&mut self, n: usize) -> Vec<Job> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// Poisson arrival offsets (ns from phase start) at `rate` per second.
fn arrivals(rng: &mut Rng, n: usize, rate: f64) -> Vec<u64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// One client connection with a line buffer.
struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.stream.write_all(&framed).map_err(|e| format!("send: {e}"))
    }

    /// Waits up to `wait` for data; returns every complete line.
    fn poll(&mut self, wait: Duration) -> Result<Vec<String>, String> {
        if wait_readable(&self.stream, wait).map_err(|e| format!("poll: {e}"))? {
            let mut buf = [0u8; 64 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        let mut lines = Vec::new();
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = self.pending.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned());
        }
        Ok(lines)
    }

    /// Closed-loop round trip (set-up and control frames).
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(reply) = self.poll(Duration::from_millis(50))?.into_iter().next() {
                return Ok(reply);
            }
            if Instant::now() > deadline {
                return Err("no reply within 60 s".into());
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` has data or `wait` has passed. `ppoll` takes a
/// nanosecond timeout; a socket read timeout is rounded up to the
/// kernel tick, which would make the generator milliseconds late.
fn wait_readable(stream: &TcpStream, wait: Duration) -> std::io::Result<bool> {
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out `struct
    // pollfd` / `struct timespec` values for the duration of the call;
    // nfds is 1, matching the single `fd`; a null sigmask leaves the
    // signal mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// A running daemon with the generator's connections.
struct Daemon {
    handle: ServerHandle,
    conns: Vec<Conn>,
}

impl Daemon {
    fn start(host: Host) -> Result<Daemon, String> {
        let config = ServerConfig {
            engine_threads: host.threads,
            ..ServerConfig::default()
        };
        let handle = Server::spawn(config).map_err(|e| format!("spawn quvad: {e}"))?;
        let addr = handle.local_addr().ok_or("quvad has no TCP address")?.to_string();
        let conns = (0..CONNS.min(host.nproc).max(1))
            .map(|_| Conn::open(&addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Daemon { handle, conns })
    }

    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
        let _ = self.handle.join();
    }

    /// The daemon's `stats` counters.
    fn stats(&mut self) -> Result<HashMap<String, f64>, String> {
        let reply = self.conns[0].call("{\"id\":\"stats\",\"kind\":\"stats\"}")?;
        let doc = parse_json(&reply).map_err(|e| e.to_string())?;
        let result = doc.get("result").ok_or("stats reply has no result")?;
        let mut out = HashMap::new();
        for key in [
            "cache_hits",
            "cache_misses",
            "ok",
            "errors",
            "overloaded",
            "deadline_exceeded",
        ] {
            out.insert(
                key.to_string(),
                result.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0),
            );
        }
        Ok(out)
    }

    /// Daemon-side per-verb latency quantiles from the `metrics`
    /// exposition: `(verb, quantile label) -> us`.
    fn latency_quantiles(&mut self) -> Result<HashMap<(String, String), f64>, String> {
        let reply = self.conns[0].call("{\"id\":\"metrics\",\"kind\":\"metrics\"}")?;
        let doc = parse_json(&reply).map_err(|e| e.to_string())?;
        let text = doc
            .get("result")
            .and_then(|r| r.get("exposition"))
            .and_then(|v| v.as_str())
            .ok_or("metrics reply has no exposition")?
            .to_string();
        let mut out = HashMap::new();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("quvad_latency_us{verb=\"") else {
                continue;
            };
            let Some((verb, rest)) = rest.split_once("\",quantile=\"") else {
                continue;
            };
            let Some((q, value)) = rest.split_once("\"} ") else {
                continue;
            };
            if let Ok(v) = value.trim().parse::<f64>() {
                out.insert((verb.to_string(), q.to_string()), v);
            }
        }
        Ok(out)
    }
}

/// One answered request: its timing and the reply's digest. This is all
/// the generator keeps per request.
#[derive(Debug, Clone, Copy)]
struct Reply {
    idx: usize,
    latency_us: f64,
    late_us: f64,
    ok: bool,
    hash: u64,
}

impl Reply {
    fn new(idx: usize, latency_us: f64, late_us: f64, line: &str) -> Reply {
        Reply {
            idx,
            latency_us,
            late_us,
            ok: line.contains("\"status\":\"ok\""),
            hash: digest(line),
        }
    }
}

/// What one phase measured. Request `idx` carried the id
/// `{prefix}{idx}` and the job drawn `base + idx`-th from the mix.
#[derive(Debug)]
struct Phase {
    prefix: String,
    base: usize,
    target_rps: f64,
    /// The rate the seeded arrival times work out to.
    scheduled_rps: f64,
    replies: Vec<Reply>,
    /// Requests per second actually sent.
    offered_rps: f64,
    /// Responses per second over the phase.
    completed_rps: f64,
    p50_us: f64,
    p99_us: f64,
    late_p99_us: f64,
    late_p50_us: f64,
    not_ok: u64,
}

/// Whether a generator kept its schedule: median lateness within
/// `LATE_LIMIT_US` and at least `MIN_OFFERED` of the scheduled rate sent.
fn kept_schedule(late_p50_us: f64, offered_rps: f64, scheduled_rps: f64) -> bool {
    late_p50_us <= LATE_LIMIT_US && offered_rps >= MIN_OFFERED * scheduled_rps
}

fn count_not_ok(replies: &[Reply]) -> u64 {
    replies.iter().filter(|r| !r.ok).count() as u64
}

impl Phase {
    /// A closed-loop phase: no schedule, so no lateness or offered rate
    /// beyond what completed.
    fn closed_loop(prefix: &str, base: usize, replies: Vec<Reply>, seconds: f64) -> Phase {
        let lat: Vec<f64> = replies.iter().map(|r| r.latency_us).collect();
        let rate = replies.len() as f64 / seconds;
        Phase {
            prefix: prefix.to_string(),
            base,
            target_rps: 0.0,
            scheduled_rps: 0.0,
            offered_rps: rate,
            completed_rps: rate,
            p50_us: quantile(&lat, 0.5),
            p99_us: quantile(&lat, 0.99),
            late_p99_us: 0.0,
            late_p50_us: 0.0,
            not_ok: count_not_ok(&replies),
            replies,
        }
    }

    /// Whether the generator kept its schedule.
    fn valid(&self) -> bool {
        kept_schedule(self.late_p50_us, self.offered_rps, self.scheduled_rps)
    }

    fn report(&self) -> Obj {
        let mut o = Obj::default();
        o.num("target_rps", self.target_rps)
            .num("scheduled_rps", self.scheduled_rps)
            .int("requests", self.replies.len() as u64)
            .num("offered_rps", self.offered_rps)
            .num("completed_rps", self.completed_rps)
            .num("p50_us", self.p50_us)
            .num("p99_us", self.p99_us)
            .num("lateness_p99_us", self.late_p99_us)
            .int("not_ok", self.not_ok);
        o
    }
}

/// Sends `jobs`, drawn from `base` on, open-loop at `rate` over the
/// daemon's connections (request `i` on connection `i % conns`) and
/// collects every reply.
fn run_phase(
    d: &mut Daemon,
    prefix: &str,
    base: usize,
    jobs: &[Job],
    rate: f64,
    rng: &mut Rng,
) -> Result<Phase, String> {
    let lines = request_lines(prefix, jobs);
    let offsets = arrivals(rng, lines.len(), rate);
    let start = Instant::now() + Duration::from_millis(2);
    let results = per_connection(d, |conn, c, nconn| drive(conn, &lines, &offsets, c, nconn, start))?;
    let mut replies = Vec::with_capacity(lines.len());
    let mut last_sent = start;
    for (mut rs, sent) in results {
        replies.append(&mut rs);
        last_sent = last_sent.max(sent);
    }
    replies.sort_by_key(|r| r.idx);
    let scheduled_s = offsets.last().copied().unwrap_or(0) as f64 / 1e9;
    let lat: Vec<f64> = replies.iter().map(|r| r.latency_us).collect();
    let late: Vec<f64> = replies.iter().map(|r| r.late_us).collect();
    let span_s = (last_sent - start).as_secs_f64().max(1e-9);
    let done_s = replies
        .iter()
        .map(|r| offsets[r.idx] as f64 / 1e9 + r.latency_us / 1e6)
        .fold(0.0, f64::max);
    let not_ok = count_not_ok(&replies);
    Ok(Phase {
        prefix: prefix.to_string(),
        base,
        target_rps: rate,
        scheduled_rps: lines.len() as f64 / scheduled_s.max(1e-9),
        offered_rps: lines.len() as f64 / span_s,
        completed_rps: replies.len() as f64 / done_s.max(1e-9),
        p50_us: quantile(&lat, 0.5),
        p99_us: quantile(&lat, 0.99),
        late_p99_us: quantile(&late, 0.99),
        late_p50_us: quantile(&late, 0.5),
        not_ok,
        replies,
    })
}

/// Runs `f(connection, index, connections)` on one generator thread per
/// connection and collects the results in connection order.
fn per_connection<T: Send>(
    d: &mut Daemon,
    f: impl Fn(&mut Conn, usize, usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let nconn = d.conns.len();
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = d
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || f(conn, c, nconn)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    })
}

/// One generator thread: sends its requests at their due times and
/// reads replies in between.
fn drive(
    conn: &mut Conn,
    lines: &[String],
    offsets: &[u64],
    c: usize,
    nconn: usize,
    start: Instant,
) -> Result<(Vec<Reply>, Instant), String> {
    let mine: Vec<usize> = (c..lines.len()).step_by(nconn).collect();
    let mut inflight: VecDeque<(usize, Instant, f64)> = VecDeque::new();
    let mut replies = Vec::with_capacity(mine.len());
    let mut next = 0;
    let mut last_sent = start;
    let mut drain_deadline = None;
    loop {
        let now = Instant::now();
        while next < mine.len() {
            let i = mine[next];
            let due = start + Duration::from_nanos(offsets[i]);
            // a wait this short costs more to sleep than to send early
            if due > now + Duration::from_micros(30) {
                break;
            }
            conn.send(&lines[i])?;
            let sent = Instant::now();
            last_sent = sent;
            inflight.push_back((i, due, us(sent.saturating_duration_since(due))));
            next += 1;
        }
        if next == mine.len() {
            if inflight.is_empty() {
                return Ok((replies, last_sent));
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(60));
            if Instant::now() > deadline {
                return Err(format!("{} replies missing after 60 s", inflight.len()));
            }
        }
        let wait = if next < mine.len() {
            (start + Duration::from_nanos(offsets[mine[next]])).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(20)
        };
        for line in conn.poll(wait)? {
            let at = Instant::now();
            let Some((idx, due, late_us)) = inflight.pop_front() else {
                return Err(format!("unexpected reply: {line}"));
            };
            let latency_us = us(at.saturating_duration_since(due));
            replies.push(Reply::new(idx, latency_us, late_us, &line));
        }
    }
}

/// The request lines of `jobs`, request `i` with the id `{prefix}{i}`.
fn request_lines(prefix: &str, jobs: &[Job]) -> Vec<String> {
    jobs.iter()
        .enumerate()
        .map(|(i, j)| j.line(&format!("{prefix}{i}")))
        .collect()
}

/// Set-up: spawn the daemon, connect, and prime the hot set.
fn setup(host: Host, hot: &[Job]) -> Result<Daemon, String> {
    let mut d = Daemon::start(host)?;
    for (i, job) in hot.iter().enumerate() {
        let reply = d.conns[0].call(&job.line(&format!("prime{i}")))?;
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("priming failed: {reply}"));
        }
    }
    Ok(d)
}

/// Set-up, repeated; returns the last daemon and pushes each set-up's
/// CPU time. Samples the set-up yardstick after each.
fn setup_reps(host: Host, hot: &[Job], times: &mut Vec<f64>, out: &mut Outcome) -> Result<Daemon, String> {
    let mut last: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = last.take() {
            d.stop();
        }
        let (d, cpu, _) = cpu_timed(|| setup(host, hot));
        times.push(cpu);
        last = Some(d?);
        out.setup_yard.sample();
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Checks every reply against the in-process `exec::execute` of the
/// same spec: `ok` replies must match byte for byte (compared by
/// digest). The requests are rebuilt by drawing the seed's mix again.
/// The expected results of distinct specs are computed on `threads`
/// threads. Returns the number of replies checked and of mismatches.
fn check_replies(seed: u64, phases: &[Phase], engine: McEngine, threads: usize) -> (u64, u64) {
    let drawn = phases
        .iter()
        .flat_map(|p| p.replies.iter().map(move |r| p.base + r.idx + 1))
        .max()
        .unwrap_or(0);
    let jobs = Mix::new(seed).take(drawn);
    let mut pairs = Vec::new();
    let mut distinct: HashMap<JobSpec, usize> = HashMap::new();
    let mut specs = Vec::new();
    for phase in phases {
        for r in &phase.replies {
            let line = jobs[phase.base + r.idx].line(&format!("{}{}", phase.prefix, r.idx));
            let parsed = parse_request(&line).ok().and_then(|req| match req.kind {
                RequestKind::Job(spec) => {
                    let n = distinct.len();
                    let k = *distinct.entry(spec.clone()).or_insert(n);
                    if k == n {
                        specs.push(spec);
                    }
                    Some((req.id, k))
                }
                _ => None,
            });
            pairs.push((parsed, line, r.hash));
        }
    }
    let threads = threads.max(1);
    let mut expected: Vec<Option<String>> = vec![None; specs.len()];
    std::thread::scope(|s| {
        for (t, slots) in expected
            .chunks_mut(specs.len().div_ceil(threads).max(1))
            .enumerate()
        {
            let specs = &specs;
            s.spawn(move || {
                let base = t * specs.len().div_ceil(threads).max(1);
                for (k, slot) in slots.iter_mut().enumerate() {
                    *slot = resolve(&specs[base + k])
                        .and_then(|job| execute(&job, engine))
                        .ok();
                }
            });
        }
    });
    let mut bad = 0;
    for (parsed, request, hash) in &pairs {
        let ok = parsed.as_ref().is_some_and(|(id, k)| {
            expected[*k].as_ref().is_some_and(|result| {
                digest(
                    &Response::Ok {
                        id: id.clone(),
                        result: result.clone(),
                    }
                    .render(),
                ) == *hash
            })
        });
        if !ok {
            if bad < 5 {
                eprintln!("perfbench: reply differs from in-process execute for {request}");
            }
            bad += 1;
        }
    }
    (pairs.len() as u64, bad)
}

pub fn run(args: &Args, host: Host) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(args, host, &mut out) {
        eprintln!("perfbench: quvad-mix: {e}");
        out.invalid = Some(e);
    }
    out
}

fn run_inner(args: &Args, host: Host, out: &mut Outcome) -> Result<(), String> {
    let mut source = Mix::new(args.seed);
    let mut rng = Rng::new(mix(args.seed, 0xa77));
    // requests hand lines between threads over sockets, so their
    // yardsticks do too
    out.yard = Yardstick::with_handoff().map_err(|e| format!("yardstick: {e}"))?;
    out.setup_yard = Yardstick::with_handoff().map_err(|e| format!("yardstick: {e}"))?;
    let mut setup_times = Vec::new();
    let mut d = setup_reps(host, &source.hot.clone(), &mut setup_times, out)?;
    let setup_s = median(&setup_times);
    out.set("setup_s", setup_s);
    out.report.num("setup_s", setup_s);
    let engine = McEngine::new(host.threads);
    if args.trace {
        let result = traced(args, &mut d, &mut source, &mut rng, engine, out);
        d.stop();
        return result;
    }

    // every phase sliced and the slices interleaved, so the host's
    // changing speed touches all of them alike; medians over rounds
    // drop a bad window
    let first = d.stats()?;
    let mut phases: Vec<Phase> = Vec::new();
    let (mut nominal, mut peak) = (Rounds::default(), Rounds::default());
    let slice_n = |rate: f64, share: f64| ((rate * args.seconds * share / ROUNDS as f64) as usize).max(100);
    let (cpu_n, sat_n) = (
        slice_n(CPU_RPS, CPU_SHARE),
        slice_n(SATURATION_RPS, SATURATION_SHARE),
    );
    // sized up front, so no reallocation copy sets the peak RSS
    let mut cpu_us = Vec::with_capacity(ROUNDS * cpu_n);
    let mut sat = Saturation {
        latencies: Vec::with_capacity(ROUNDS * sat_n),
        ..Saturation::default()
    };
    for round in 0..ROUNDS {
        for (rate, share, rounds) in [
            (NOMINAL_RPS, NOMINAL_SHARE, &mut nominal),
            (PEAK_RPS, PEAK_SHARE, &mut peak),
        ] {
            let (p, hit_frac) = open_loop_phase(&mut d, &mut source, &mut rng, rate, slice_n(rate, share))?;
            rounds.add(&p, hit_frac);
            phases.push(p);
        }
        phases.push(cpu_slice(&mut d, &mut source, round, cpu_n, &mut cpu_us, out)?);
        phases.push(saturation_slice(&mut d, &mut source, round, sat_n, &mut sat)?);
    }
    let (cpu_p50, cpu_p99) = block_quantiles(&cpu_us, CPU_BLOCK);
    let per_cpu_s = sat.per_cpu_s();
    out.report
        .obj("cpu", &cpu_report(&phases, &cpu_us))
        .obj("saturation", &sat.report());
    let last = d.stats()?;
    d.stop();
    // before the reply check, which holds every distinct spec's
    // expected result: the figure is the daemon's peak under traffic
    // plus the generator's per-request records
    out.set("peak_rss_mb", peak_rss_mb());

    out.report
        .obj("nominal", &nominal.report(NOMINAL_RPS))
        .obj("peak", &peak.report(PEAK_RPS));
    for (name, rounds) in [("nominal", &nominal), ("peak", &peak)] {
        if let Some(why) = rounds.invalid() {
            out.invalid = Some(format!("{name}: {why}"));
        }
    }
    let max_rps = sat.completed_rps();
    let nominal_p99 = nominal.pooled_p99();
    out.set("throughput_per_cpu_s", per_cpu_s);
    out.set("cpu_p50_us", cpu_p50);
    out.set("cpu_p99_us", cpu_p99);
    let hits = last["cache_hits"] - first["cache_hits"];
    let misses = last["cache_misses"] - first["cache_misses"];
    out.report
        .num("serve.nominal.p50_us", median(&nominal.p50))
        .num("serve.nominal.p99_us", nominal_p99)
        .num("serve.peak.p50_us", median(&peak.p50))
        .num("serve.peak.p99_us", peak.pooled_p99())
        .num("serve.request_cpu_p50_us", cpu_p50)
        .num("serve.request_cpu_p99_us", cpu_p99)
        .num("serve.max_rps", max_rps)
        .num("serve.max_rps_per_cpu_s", per_cpu_s)
        .num("serve.hit_frac", hits / (hits + misses).max(1.0))
        .obj("kind_share", &kind_share(&source))
        .num("generator_records_mb", generator_records_mb(&phases));

    let (checked, bad) = check_replies(args.seed, &phases, engine, host.nproc);
    out.attempted += checked;
    out.failed += bad;
    out.report
        .int("replies_checked", checked)
        .int("replies_mismatched", bad);
    Ok(())
}

/// The generator's own share of `peak_rss_mb`: one `Reply` per request
/// answered, in MiB.
fn generator_records_mb(phases: &[Phase]) -> f64 {
    let n: usize = phases.iter().map(|p| p.replies.len()).sum();
    (n * std::mem::size_of::<Reply>()) as f64 / (1024.0 * 1024.0)
}

/// Share of each job kind among all requests sent.
fn kind_share(source: &Mix) -> Obj {
    let mut o = Obj::default();
    for (kind, n) in KINDS.iter().zip(source.kinds) {
        o.num(kind, n as f64 / source.drawn.max(1) as f64);
    }
    o
}

/// Per-round figures of one offered rate.
#[derive(Debug, Default)]
struct Rounds {
    p50: Vec<f64>,
    /// Every latency and every lateness of every round.
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    late_p99: Vec<f64>,
    offered: Vec<f64>,
    hit_frac: Vec<f64>,
    requests: u64,
    /// Seconds spent sending, and seconds the schedules spanned.
    sent_s: f64,
    scheduled_s: f64,
    not_ok: u64,
}

impl Rounds {
    fn add(&mut self, p: &Phase, hit_frac: f64) {
        let n = p.replies.len() as f64;
        self.p50.push(p.p50_us);
        self.latencies.extend(p.replies.iter().map(|r| r.latency_us));
        self.lateness.extend(p.replies.iter().map(|r| r.late_us));
        self.late_p99.push(p.late_p99_us);
        self.offered.push(p.offered_rps);
        self.hit_frac.push(hit_frac);
        self.requests += p.replies.len() as u64;
        self.sent_s += n / p.offered_rps.max(1e-9);
        self.scheduled_s += n / p.scheduled_rps.max(1e-9);
        self.not_ok += p.not_ok;
    }

    /// Why the rounds together did not keep their schedule. A round is
    /// a fraction of a second, so one host stall can put a single
    /// round's median lateness past the limit; the rule is applied to
    /// all rounds of the rate together.
    fn invalid(&self) -> Option<String> {
        let late_p50 = quantile(&self.lateness, 0.5);
        let offered = self.requests as f64 / self.sent_s.max(1e-9);
        let scheduled = self.requests as f64 / self.scheduled_s.max(1e-9);
        (!kept_schedule(late_p50, offered, scheduled)).then(|| {
            format!(
                "generator fell behind (offered {offered:.0}/s of {scheduled:.0}/s scheduled, lateness p50 {late_p50:.0} us)"
            )
        })
    }

    /// p99 over all rounds together: a round alone has fewer than ten
    /// samples beyond its p99 at the nominal rate.
    fn pooled_p99(&self) -> f64 {
        quantile(&self.latencies, 0.99)
    }

    fn report(&self, rate: f64) -> Obj {
        let mut o = Obj::default();
        o.num("target_rps", rate)
            .int("rounds", self.p50.len() as u64)
            .int("requests", self.requests)
            .num("offered_rps", median(&self.offered))
            .num("p50_us", median(&self.p50))
            .num("p99_us", self.pooled_p99())
            .num("lateness_p50_us", quantile(&self.lateness, 0.5))
            .num("lateness_p99_us", median(&self.late_p99))
            .num("hit_frac", mean(&self.hit_frac))
            .int("not_ok", self.not_ok);
        o
    }
}

/// Runs one open-loop phase of `n` fresh requests; returns it with
/// the daemon's achieved hit share.
fn open_loop_phase(
    d: &mut Daemon,
    source: &mut Mix,
    rng: &mut Rng,
    rate: f64,
    n: usize,
) -> Result<(Phase, f64), String> {
    let prefix = format!("r{rate}-{}-", rng.next_u64() % 1_000_000);
    let base = source.drawn;
    let jobs = source.take(n);
    let before = d.stats()?;
    let p = run_phase(d, &prefix, base, &jobs, rate, rng)?;
    let after = d.stats()?;
    let hits = after["cache_hits"] - before["cache_hits"];
    let misses = after["cache_misses"] - before["cache_misses"];
    Ok((p, hits / (hits + misses).max(1.0)))
}

/// Closed loop, `n` requests one at a time on one connection: the process CPU
/// time each request costs end to end (socket, daemon threads, parse,
/// resolve, cache, execute, render, reply), without the time the host's
/// other tenants held the CPU. Appends each request's CPU time to
/// `cpu_us`; samples the yardstick between requests.
fn cpu_slice(
    d: &mut Daemon,
    source: &mut Mix,
    round: usize,
    n: usize,
    cpu_us: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let prefix = format!("cpu{round}-");
    let mut replies = Vec::with_capacity(n);
    let base = source.drawn;
    let start = Instant::now();
    for idx in 0..n {
        let job = source.next();
        let line = job.line(&format!("{prefix}{idx}"));
        let (sent, cpu) = (Instant::now(), process_cpu_s());
        let reply = d.conns[0].call(&line)?;
        cpu_us.push((process_cpu_s() - cpu) * 1e6);
        replies.push(Reply::new(idx, us(sent.elapsed()), 0.0, &reply));
        if idx % YARD_EVERY == 0 {
            out.yard.sample();
        }
    }
    Ok(Phase::closed_loop(
        &prefix,
        base,
        replies,
        start.elapsed().as_secs_f64(),
    ))
}

/// The CPU slices' figures for the report line.
fn cpu_report(phases: &[Phase], cpu_us: &[f64]) -> Obj {
    let slices: Vec<&Phase> = phases.iter().filter(|p| p.prefix.starts_with("cpu")).collect();
    let wall: Vec<f64> = slices
        .iter()
        .flat_map(|p| p.replies.iter().map(|r| r.latency_us))
        .collect();
    let (p50, p99) = block_quantiles(cpu_us, CPU_BLOCK);
    let mut o = Obj::default();
    o.int("slices", slices.len() as u64)
        .int("requests", cpu_us.len() as u64)
        .int("not_ok", slices.iter().map(|p| p.not_ok).sum())
        .num("p50_us", quantile(&wall, 0.5))
        .num("p99_us", quantile(&wall, 0.99))
        .num("cpu_p50_us", p50)
        .num("cpu_p99_us", p99);
    o
}

/// The saturation slices' totals.
#[derive(Debug, Default)]
struct Saturation {
    slices: u64,
    completed: u64,
    seconds: f64,
    cpu_s: f64,
    /// Every latency of every slice.
    latencies: Vec<f64>,
    not_ok: u64,
}

impl Saturation {
    /// Requests completed per second of process CPU time.
    fn per_cpu_s(&self) -> f64 {
        self.completed as f64 / self.cpu_s.max(1e-9)
    }

    /// Requests completed per second of wall time.
    fn completed_rps(&self) -> f64 {
        self.completed as f64 / self.seconds.max(1e-9)
    }

    fn report(&self) -> Obj {
        let mut o = Obj::default();
        o.int("slices", self.slices)
            .int("requests", self.completed)
            .int("depth_per_connection", SATURATION_DEPTH as u64)
            .num("completed_rps", self.completed_rps())
            .num("p50_us", quantile(&self.latencies, 0.5))
            .num("p99_us", quantile(&self.latencies, 0.99))
            .num("cpu_s", self.cpu_s)
            .num("completed_per_cpu_s", self.per_cpu_s())
            .int("not_ok", self.not_ok);
        o
    }
}

/// Closed loop at saturation: each connection keeps
/// `SATURATION_DEPTH` requests in flight until `n` have been sent; the
/// completion rate is the highest rate the daemon sustains without a
/// growing backlog. Jobs are drawn as they are sent. Adds the slice to
/// `sat`.
fn saturation_slice(
    d: &mut Daemon,
    source: &mut Mix,
    round: usize,
    n: usize,
    sat: &mut Saturation,
) -> Result<Phase, String> {
    let prefix = format!("saturation{round}-");
    let base = source.drawn;
    let shared = Mutex::new(source);
    let (cpu, start) = (process_cpu_s(), Instant::now());
    let results = per_connection(d, |conn, _, _| saturate(conn, &shared, &prefix, base, n))?;
    let seconds = start.elapsed().as_secs_f64();
    sat.cpu_s += process_cpu_s() - cpu;
    let mut replies: Vec<Reply> = results.into_iter().flatten().collect();
    replies.sort_by_key(|r| r.idx);
    sat.slices += 1;
    sat.completed += replies.len() as u64;
    sat.seconds += seconds;
    sat.latencies.extend(replies.iter().map(|r| r.latency_us));
    sat.not_ok += count_not_ok(&replies);
    Ok(Phase::closed_loop(&prefix, base, replies, seconds))
}

/// One saturation thread: refills its connection to the depth on every
/// reply until the connections together have sent `n` requests, then
/// drains. Latency is timed from the send. Jobs are drawn from the
/// shared mix as they are sent; request `i` is the one drawn
/// `base + i`-th.
fn saturate(
    conn: &mut Conn,
    source: &Mutex<&mut Mix>,
    prefix: &str,
    base: usize,
    n: usize,
) -> Result<Vec<Reply>, String> {
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut replies = Vec::with_capacity(n);
    loop {
        while inflight.len() < SATURATION_DEPTH {
            let next = {
                let mut mix = source.lock().unwrap_or_else(PoisonError::into_inner);
                let i = mix.drawn - base;
                (i < n).then(|| (i, mix.next()))
            };
            let Some((i, job)) = next else { break };
            conn.send(&job.line(&format!("{prefix}{i}")))?;
            inflight.push_back((i, Instant::now()));
        }
        if inflight.is_empty() {
            return Ok(replies);
        }
        for line in conn.poll(Duration::from_millis(50))? {
            let at = Instant::now();
            let (idx, sent) = inflight
                .pop_front()
                .ok_or_else(|| format!("unexpected reply: {line}"))?;
            replies.push(Reply::new(
                idx,
                us(at.saturating_duration_since(sent)),
                0.0,
                &line,
            ));
        }
    }
}

/// Per-request layer times from an in-process replay.
struct Replayed {
    hit: bool,
    request_ns: u64,
    hash: u64,
}

/// Replays request lines through the daemon's public layers with one
/// span per layer. A fresh cache sized like the daemon's.
fn replay(
    tr: &mut Tracer,
    lines: &[String],
    engine: McEngine,
    resolve_ns: &mut [Vec<f64>; 2],
) -> Vec<Replayed> {
    let cache = ResultCache::new(
        ServerConfig::default().cache_shards,
        ServerConfig::default().cache_capacity_per_shard,
    );
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let mut hit = false;
        let rendered = tr.span("serve.request", |tr| {
            let req = tr
                .span("serve.parse", |_| parse_request(line))
                .map_err(|e| e.message)?;
            let RequestKind::Job(spec) = req.kind else {
                return Err("not a job".to_string());
            };
            let job = tr.span("serve.resolve", |_| resolve(&spec))?;
            let resolved_ns = tr.last_ns as f64;
            let result = match tr.span("serve.cache_get", |_| cache.get(&job.key)) {
                Some(r) => {
                    hit = true;
                    r.to_string()
                }
                None => {
                    let name = match spec.kind.name() {
                        "compile" => "serve.execute.compile",
                        "simulate" => "serve.execute.simulate",
                        _ => "serve.execute.audit",
                    };
                    let text = tr.span(name, |_| execute(&job, engine))?;
                    tr.span("serve.cache_insert", |_| {
                        cache.insert(job.key.clone(), Arc::from(text.as_str()))
                    });
                    text
                }
            };
            resolve_ns[usize::from(hit)].push(resolved_ns);
            Ok(tr.span("serve.render", |_| Response::Ok { id: req.id, result }.render()))
        });
        out.push(Replayed {
            hit,
            request_ns: tr.last_ns,
            hash: digest(&rendered.unwrap_or_default()),
        });
    }
    out
}

/// The same replay with no spans: the untraced reference wall time.
fn replay_plain(lines: &[String], engine: McEngine) -> f64 {
    let cache = ResultCache::new(
        ServerConfig::default().cache_shards,
        ServerConfig::default().cache_capacity_per_shard,
    );
    let t = Instant::now();
    for line in lines {
        let Ok(req) = parse_request(line) else { continue };
        let RequestKind::Job(spec) = req.kind else {
            continue;
        };
        let Ok(job) = resolve(&spec) else { continue };
        let result = match cache.get(&job.key) {
            Some(r) => r.to_string(),
            None => {
                let Ok(text) = execute(&job, engine) else { continue };
                cache.insert(job.key.clone(), Arc::from(text.as_str()));
                text
            }
        };
        std::hint::black_box(Response::Ok { id: req.id, result }.render());
    }
    t.elapsed().as_secs_f64()
}

/// Open-loop phase plus replay: fills every `serve.*` and `obs.*`
/// per-layer metric. Returns the replay's tracer and the tracing
/// overhead (traced minus plain replay wall, seconds).
fn serve_layers(
    d: &mut Daemon,
    prefix: &str,
    jobs: &[Job],
    rate: f64,
    rng: &mut Rng,
    engine: McEngine,
    out: &mut Outcome,
) -> Result<(Tracer, f64), String> {
    let before = d.stats()?;
    let seq_before = quva_obs::flight::snapshot().events.last().map_or(0, |e| e.seq);
    let phase = run_phase(d, prefix, 0, jobs, rate, rng)?;
    let seq_after = quva_obs::flight::snapshot().events.last().map_or(0, |e| e.seq);
    let after = d.stats()?;
    let quantiles = d.latency_quantiles()?;
    let hits = after["cache_hits"] - before["cache_hits"];
    let misses = after["cache_misses"] - before["cache_misses"];

    // flight::note cost, measured while the daemon's ring is armed
    const NOTES: u32 = 20_000;
    let t = Instant::now();
    for i in 0..NOTES {
        quva_obs::flight::note("perfbench", if i % 2 == 0 { "probe a" } else { "probe b" });
    }
    let note_ns = t.elapsed().as_nanos() as f64 / f64::from(NOTES);

    // untraced replays on either side of the traced one, so warm-up and
    // drift do not land on one side of the overhead
    let lines = request_lines(prefix, jobs);
    let plain_before = replay_plain(&lines, engine);
    let mut tr = Tracer::default();
    let mut resolve_ns: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let t = Instant::now();
    let replayed = tr.span("serve.replay", |tr| replay(tr, &lines, engine, &mut resolve_ns));
    let wall_traced = t.elapsed().as_secs_f64();
    let wall_plain = (plain_before + replay_plain(&lines, engine)) / 2.0;

    // client latency minus the replayed layers, per class
    let mut client = [Vec::new(), Vec::new()];
    let mut unattributed = [Vec::new(), Vec::new()];
    let mut misses_by_kind = Obj::default();
    for kind in KINDS {
        let n = phase
            .replies
            .iter()
            .zip(&replayed)
            .filter(|(r, rep)| !rep.hit && jobs[r.idx].kind == kind)
            .count();
        misses_by_kind.int(kind, n as u64);
    }
    for (r, rep) in phase.replies.iter().zip(&replayed) {
        out.attempted += 1;
        if rep.hash != r.hash {
            if out.failed < 5 {
                eprintln!(
                    "perfbench: replay differs from daemon reply to {}{}",
                    prefix, r.idx
                );
            }
            out.failed += 1;
        }
        let class = usize::from(rep.hit);
        client[class].push(r.latency_us);
        unattributed[class].push(r.latency_us - rep.request_ns as f64 / 1e3);
    }
    let all_unattributed: Vec<f64> = unattributed.concat();
    let service_us = mean(
        &replayed
            .iter()
            .map(|r| r.request_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let events_per_request = (seq_after.saturating_sub(seq_before)) as f64 / lines.len().max(1) as f64;
    let q = |verb: &str, label: &str| {
        quantiles
            .get(&(verb.to_string(), label.to_string()))
            .copied()
            .unwrap_or(0.0)
    };

    out.set("serve.parse_us", tr.agg("serve.parse").mean_us());
    out.set("serve.resolve_hit_us", mean(&resolve_ns[1]) / 1e3);
    out.set("serve.resolve_miss_us", mean(&resolve_ns[0]) / 1e3);
    out.set("serve.cache_get_ns", tr.agg("serve.cache_get").mean_us() * 1e3);
    out.set(
        "serve.cache_insert_ns",
        tr.agg("serve.cache_insert").mean_us() * 1e3,
    );
    out.set(
        "serve.execute.compile_us",
        tr.agg("serve.execute.compile").mean_us(),
    );
    out.set(
        "serve.execute.simulate_us",
        tr.agg("serve.execute.simulate").mean_us(),
    );
    out.set("serve.execute.audit_us", tr.agg("serve.execute.audit").mean_us());
    out.set("serve.render_us", tr.agg("serve.render").mean_us());
    out.set("serve.hit.client_us", mean(&client[1]));
    out.set("serve.miss.client_us", mean(&client[0]));
    out.set("serve.hit.unattributed_us", mean(&unattributed[1]));
    out.set("serve.miss.unattributed_us", mean(&unattributed[0]));
    out.set("serve.unattributed_us", mean(&all_unattributed));
    out.set("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
    for verb in ["compile", "simulate", "audit"] {
        let (p50, p99): (&'static str, &'static str) = match verb {
            "compile" => ("serve.daemon.compile.p50_us", "serve.daemon.compile.p99_us"),
            "simulate" => ("serve.daemon.simulate.p50_us", "serve.daemon.simulate.p99_us"),
            _ => ("serve.daemon.audit.p50_us", "serve.daemon.audit.p99_us"),
        };
        out.set(p50, q(verb, "0.5"));
        out.set(p99, q(verb, "0.99"));
    }
    out.set("serve.offered_rps", phase.offered_rps);
    out.set("serve.lateness_p99_us", phase.late_p99_us);
    out.set("obs.note_ns", note_ns);
    out.set("obs.events_per_request", events_per_request);
    out.set(
        "obs.recorder_share",
        note_ns * events_per_request / (service_us * 1e3).max(1.0),
    );

    let mut rep = phase.report();
    rep.num("hit_frac", hits / (hits + misses).max(1.0))
        .int("replay_hits", client[1].len() as u64)
        .int("replay_misses", client[0].len() as u64)
        .obj("replay_misses_by_kind", &misses_by_kind)
        .num("replay_plain_s", wall_plain)
        .num("replay_traced_s", wall_traced)
        .num(
            "client_latency_sum_s",
            phase.replies.iter().map(|r| r.latency_us).sum::<f64>() / 1e6,
        )
        .num(
            "replayed_layers_sum_s",
            replayed.iter().map(|r| r.request_ns as f64).sum::<f64>() / 1e9,
        )
        .num("unattributed_sum_s", all_unattributed.iter().sum::<f64>() / 1e6);
    out.report.obj("serve_trace", &rep);
    if !phase.valid() {
        out.invalid = Some(format!(
            "traced phase: generator fell behind (offered {:.0}/s of {:.0}/s scheduled, lateness p50 {:.0} us)",
            phase.offered_rps, phase.scheduled_rps, phase.late_p50_us
        ));
    }
    Ok((tr, wall_traced - wall_plain))
}

fn traced(
    args: &Args,
    d: &mut Daemon,
    source: &mut Mix,
    rng: &mut Rng,
    engine: McEngine,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = ((NOMINAL_RPS * args.seconds * 0.35) as usize).max(50);
    let jobs = source.take(n);
    let (tr, overhead_s) = serve_layers(d, "traced-", &jobs, NOMINAL_RPS, rng, engine, out)?;
    out.set("trace.overhead_s", overhead_s);
    // the replay's wall time and the part no layer span covers
    let root = tr.agg("serve.replay");
    out.set("trace.wall_s", root.total_ns as f64 / 1e9);
    out.set(
        "trace.unattributed_s",
        (root.self_ns + tr.agg("serve.request").self_ns) as f64 / 1e9,
    );
    crate::self_times(&tr, out);
    crate::write_trace(args, &tr);

    // layers inside execute and resolve, costed on the stream's jobs
    let mut distinct: Vec<&Job> = Vec::new();
    for j in &jobs {
        if distinct.len() < 48 && !distinct.contains(&j) {
            distinct.push(j);
        }
    }
    let (policies, validate_us) = cases::policies()?;
    let mut resolved = Vec::new();
    for j in &distinct {
        let device = quva_serve::parse_device(&j.device()).map_err(|e| e.to_string())?;
        let bench = quva_serve::parse_benchmark(j.bench).map_err(|e| e.to_string())?;
        resolved.push((bench, device, j.policy));
    }
    let census: Vec<_> = resolved
        .iter()
        .filter_map(|(bench, device, spec)| {
            policies
                .iter()
                .find(|p| p.spec == *spec)
                .map(|p| (bench, device, p))
        })
        .collect();
    cases::layer_census(&mut Tracer::default(), &census, SIM_TRIALS, args.seed, out);
    out.set("compile.validate_us", validate_us);
    let (calgen_us, build_us) = cases::calgen_census(&quva_device::Topology::grid(4, 5), args.seed);
    out.set("device.calgen_us", calgen_us);
    out.set("device.build_us", build_us);
    let (_, t_gen) = timed(|| TABLE1.map(quva_serve::parse_benchmark));
    out.set("benchmarks.generate_us", us(t_gen) / TABLE1.len() as f64);
    Ok(())
}

/// The serve layers costed for a batch workload's traced run: the
/// table-1 × policy cases on `q20` as compile, simulate and audit jobs,
/// each sent twice (a miss, then a hit) at a low open-loop rate.
pub fn census(args: &Args, host: Host, out: &mut Outcome) {
    let mut jobs = Vec::new();
    for bench in TABLE1 {
        for policy in POLICIES {
            for kind in ["compile", "simulate", "audit"] {
                jobs.push(Job {
                    kind,
                    policy,
                    bench,
                    on_grid: false,
                    seed: if kind == "simulate" { args.seed } else { 0 },
                });
            }
        }
    }
    let twice: Vec<Job> = jobs.iter().chain(jobs.iter()).copied().collect();
    let mut rng = Rng::new(mix(args.seed, 0xce));
    let result = Daemon::start(host).and_then(|mut d| {
        let r = serve_layers(
            &mut d,
            "census-",
            &twice,
            CENSUS_RPS,
            &mut rng,
            McEngine::new(host.threads),
            out,
        );
        d.stop();
        r
    });
    if let Err(e) = result {
        eprintln!("perfbench: serve census failed: {e}");
        out.failed += 1;
    }
}
