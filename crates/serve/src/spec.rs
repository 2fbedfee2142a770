//! Textual specifications for devices, policies, and workloads — the
//! shared vocabulary of the `quva` CLI and the `quvad` wire protocol.
//!
//! This module is the canonical parser; `quva-cli::spec` delegates
//! here. Every function returns a typed [`SpecError`] — spec strings
//! arrive over the network, so nothing in this module may panic.

use std::error::Error;
use std::fmt;

use quva::{AllocationStrategy, MappingPolicy, RoutingMetric};
use quva_benchmarks::Benchmark;
use quva_device::{CalibrationGenerator, Device, Topology, VariationProfile, MAX_QUBITS};

/// A device, policy, or benchmark spec string could not be understood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for SpecError {}

/// Builds a device from a spec string.
///
/// Supported specs:
/// * `q20` — IBM-Q20 Tokyo with the paper's average error map;
/// * `q5` — IBM-Q5 Tenerife with the §7 error map;
/// * `melbourne` — IBM-Q16 with a seeded synthetic calibration;
/// * `linear:N`, `ring:N`, `grid:RxC`, `heavyhex:RxC`, `full:N` —
///   generic layouts with a seeded synthetic calibration (append
///   `@SEED` to change the seed, e.g. `grid:4x5@7`). Each dimension
///   is at most 1000, and a layout at most [`MAX_QUBITS`] qubits.
///
/// # Errors
///
/// Fails on unknown names, malformed dimensions or oversized layouts.
pub fn parse_device(spec: &str) -> Result<Device, SpecError> {
    match spec {
        "q20" | "ibm-q20" => return Ok(Device::ibm_q20()),
        "q5" | "ibm-q5" => return Ok(Device::ibm_q5()),
        "melbourne" | "ibm-q16" => {
            let topo = Topology::ibm_q16_melbourne();
            let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), 1);
            let cal = generator.snapshot(&topo);
            return Device::from_parts(topo, cal).map_err(|e| SpecError::new(e.to_string()));
        }
        _ => {}
    }
    let (shape, seed) = match spec.split_once('@') {
        Some((s, seed)) => {
            let seed: u64 = seed
                .parse()
                .map_err(|_| SpecError::new(format!("bad calibration seed in device spec '{spec}'")))?;
            (s, seed)
        }
        None => (spec, 1),
    };
    let (kind, dims) = shape.split_once(':').ok_or_else(|| {
        SpecError::new(format!(
            "unknown device '{spec}' (try q20, q5, linear:N, grid:RxC)"
        ))
    })?;
    let topology = match kind {
        "linear" => Topology::linear(parse_dim(spec, dims)?),
        "ring" => Topology::ring(parse_dim(spec, dims)?),
        "full" => Topology::fully_connected(parse_dim(spec, dims)?),
        "grid" => {
            let (r, c) = parse_rows_cols(spec, dims, "grid")?;
            Topology::grid(r, c)
        }
        "heavyhex" => {
            let (r, c) = parse_rows_cols(spec, dims, "heavyhex")?;
            Topology::heavy_hex(r, c)
        }
        _ => {
            return Err(SpecError::new(format!(
                "unknown device kind '{kind}' in '{spec}'"
            )))
        }
    };
    let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), seed);
    let calibration = generator.snapshot(&topology);
    Device::from_parts(topology, calibration).map_err(|e| SpecError::new(e.to_string()))
}

fn parse_dim(spec: &str, text: &str) -> Result<usize, SpecError> {
    let d: usize = text
        .parse()
        .map_err(|_| SpecError::new(format!("bad dimension '{text}' in device spec '{spec}'")))?;
    if d == 0 || d > 1000 {
        return Err(SpecError::new(format!("dimension {d} out of range in '{spec}'")));
    }
    Ok(d)
}

/// Parses the `RxC` of a 2-D layout spec; the product must fit a
/// [`Topology`] ([`MAX_QUBITS`]).
fn parse_rows_cols(spec: &str, dims: &str, kind: &str) -> Result<(usize, usize), SpecError> {
    let (r, c) = dims
        .split_once('x')
        .ok_or_else(|| SpecError::new(format!("{kind} spec needs RxC, got '{spec}'")))?;
    let (r, c) = (parse_dim(spec, r)?, parse_dim(spec, c)?);
    if r * c > MAX_QUBITS {
        return Err(SpecError::new(format!(
            "{} qubits exceed the {MAX_QUBITS}-qubit device limit in '{spec}'",
            r * c
        )));
    }
    Ok((r, c))
}

/// Builds a mapping policy from a spec string: `baseline`, `vqm`,
/// `vqm-mah:K`, `vqa-vqm`, `vqa`, `native:SEED`.
///
/// # Errors
///
/// Fails on unknown names or malformed parameters.
pub fn parse_policy(spec: &str) -> Result<MappingPolicy, SpecError> {
    Ok(match spec {
        "baseline" => MappingPolicy::baseline(),
        "vqm" => MappingPolicy::vqm(),
        "vqm-mah4" => MappingPolicy::vqm_hop_limited(),
        "vqa-vqm" | "vqa+vqm" => MappingPolicy::vqa_vqm(),
        "vqa-ro-vqm" => MappingPolicy {
            allocation: AllocationStrategy::vqa_readout_aware(),
            routing: RoutingMetric::reliability(),
        },
        "vqa" => MappingPolicy {
            allocation: AllocationStrategy::vqa(),
            routing: RoutingMetric::Hops,
        },
        _ => {
            if let Some(k) = spec.strip_prefix("vqm-mah:") {
                let mah: u32 = k
                    .parse()
                    .map_err(|_| SpecError::new(format!("bad MAH value in policy '{spec}'")))?;
                MappingPolicy {
                    allocation: AllocationStrategy::GreedyInteraction,
                    routing: RoutingMetric::Reliability {
                        max_additional_hops: Some(mah),
                        optimize_meeting_edge: false,
                    },
                }
            } else if let Some(seed) = spec.strip_prefix("native:") {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| SpecError::new(format!("bad seed in policy '{spec}'")))?;
                MappingPolicy::native(seed)
            } else {
                return Err(SpecError::new(format!(
                    "unknown policy '{spec}' (try baseline, vqm, vqm-mah:K, vqa-vqm, native:SEED)"
                )));
            }
        }
    })
}

/// Builds a named benchmark workload: `bv:N`, `qft:N`, `ghz:N`, `alu`,
/// `triswap`, `w:N`, `grover2:N`, `mirror:N:DEPTH`, `rnd-sd:N:CNOTS`,
/// `rnd-ld:N:CNOTS`.
///
/// # Errors
///
/// Fails on unknown names or malformed parameters.
pub fn parse_benchmark(spec: &str) -> Result<Benchmark, SpecError> {
    let bad = |what: &str| SpecError::new(format!("bad {what} in benchmark '{spec}'"));
    if spec == "alu" {
        return Ok(Benchmark::alu());
    }
    if spec == "triswap" {
        return Ok(Benchmark::triswap());
    }
    if let Some((kind, rest)) = spec.split_once(':') {
        return match kind {
            "bv" => Ok(Benchmark::bv(rest.parse().map_err(|_| bad("size"))?)),
            "w" => Ok(Benchmark::w_state(rest.parse().map_err(|_| bad("size"))?)),
            "grover2" => Ok(Benchmark::grover2(rest.parse().map_err(|_| bad("marked item"))?)),
            "mirror" => {
                let (n, depth) = rest.split_once(':').ok_or_else(|| bad("shape (want N:DEPTH)"))?;
                Ok(Benchmark::mirror(
                    n.parse().map_err(|_| bad("size"))?,
                    depth.parse().map_err(|_| bad("depth"))?,
                    1,
                ))
            }
            "qft" => Ok(Benchmark::qft(rest.parse().map_err(|_| bad("size"))?)),
            "ghz" => Ok(Benchmark::ghz(rest.parse().map_err(|_| bad("size"))?)),
            "rnd-sd" | "rnd-ld" => {
                let (n, cnots) = rest.split_once(':').ok_or_else(|| bad("shape (want N:CNOTS)"))?;
                let n = n.parse().map_err(|_| bad("size"))?;
                let cnots = cnots.parse().map_err(|_| bad("cnot count"))?;
                Ok(if kind == "rnd-sd" {
                    Benchmark::rnd_sd(n, cnots, 1)
                } else {
                    Benchmark::rnd_ld(n, cnots, 2)
                })
            }
            _ => Err(SpecError::new(format!("unknown benchmark '{spec}'"))),
        };
    }
    Err(SpecError::new(format!(
        "unknown benchmark '{spec}' (try bv:16, qft:12, ghz:3, alu, triswap)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_devices() {
        assert_eq!(parse_device("q20").unwrap().num_qubits(), 20);
        assert_eq!(parse_device("q5").unwrap().num_qubits(), 5);
        assert_eq!(parse_device("melbourne").unwrap().num_qubits(), 14);
    }

    #[test]
    fn parametric_devices_and_seeds() {
        assert_eq!(parse_device("linear:7").unwrap().num_qubits(), 7);
        assert_eq!(parse_device("grid:3x4").unwrap().num_qubits(), 12);
        let a = parse_device("grid:3x4@1").unwrap();
        let b = parse_device("grid:3x4@2").unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), parse_device("grid:3x4@1").unwrap().fingerprint());
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        assert!(parse_device("mesh").is_err());
        assert!(parse_device("grid:3").is_err());
        assert!(parse_device("linear:0").is_err());
        // past the dense link table's size limit: refused before any
        // table is allocated
        let err = parse_device("grid:1000x1000").unwrap_err().to_string();
        assert!(err.contains("qubit device limit"), "{err}");
        assert!(parse_device("heavyhex:100x41").is_err());
        assert!(parse_policy("qiskit").is_err());
        assert!(parse_policy("vqm-mah:x").is_err());
        assert!(parse_benchmark("shor:2048").is_err());
        assert!(parse_benchmark("bv").is_err());
    }

    #[test]
    fn policies_and_benchmarks_parse() {
        assert_eq!(parse_policy("baseline").unwrap(), MappingPolicy::baseline());
        assert_eq!(parse_policy("native:7").unwrap(), MappingPolicy::native(7));
        assert_eq!(parse_benchmark("bv:16").unwrap().name(), "bv-16");
        assert_eq!(parse_benchmark("ghz:4").unwrap().name(), "GHZ-4");
    }
}
