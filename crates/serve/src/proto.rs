//! The `amosd` wire protocol: newline-delimited flat JSON objects.
//!
//! One request line in, one response line out, any number of exchanges per
//! connection. Requests carry an `"op"` discriminant; responses carry a
//! `"status"` discriminant. Response lines are rendered once per
//! exploration and shared verbatim with every deduplicated waiter, so two
//! clients that joined the same flight can compare raw lines for bit
//! identity (`cycles_bits` carries the exact `f64` bit pattern — a decimal
//! rendering would not survive a round-trip).

use crate::json::{parse_object, ObjectBuilder, Value};
use std::collections::BTreeMap;

/// The longest request line `amosd` reads, newline excluded. A longer one is
/// answered like a malformed request, and its connection is closed.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// A request accepted by `amosd`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Service + cache counters.
    Stats,
    /// Graceful shutdown: stop admitting, finish in-flight work, reply
    /// `drained`, exit.
    Drain,
    /// One exploration (the workhorse).
    Explore(ExploreRequest),
}

/// The exploration request body.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreRequest {
    /// Operator spec in the CLI grammar (`family:dims`, e.g.
    /// `gmm:512x512x256`).
    pub spec: String,
    /// Accelerator name from the server's registry; `None` uses the
    /// server's default.
    pub accel: Option<String>,
    /// Exploration seed; `None` uses the server's default. Part of the
    /// dedup key: different seeds are different explorations.
    pub seed: Option<u64>,
    /// Per-request SLA: wall-clock budget for the search, mapped onto
    /// [`amos_core::Budget::deadline_ms`]. `None` uses the server default.
    pub deadline_ms: Option<u64>,
    /// Per-request SLA: cap on screened candidate evaluations.
    pub max_evaluations: Option<u64>,
    /// Per-request SLA: cap on ground-truth measurements.
    pub max_measurements: Option<u64>,
}

impl Request {
    /// Renders the request as one canonical protocol line (no newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Ping => ObjectBuilder::new().str("op", "ping").finish(),
            Request::Stats => ObjectBuilder::new().str("op", "stats").finish(),
            Request::Drain => ObjectBuilder::new().str("op", "drain").finish(),
            Request::Explore(e) => {
                let mut b = ObjectBuilder::new()
                    .str("op", "explore")
                    .str("spec", &e.spec);
                if let Some(accel) = &e.accel {
                    b = b.str("accel", accel);
                }
                if let Some(seed) = e.seed {
                    b = b.u64("seed", seed);
                }
                if let Some(ms) = e.deadline_ms {
                    b = b.u64("deadline_ms", ms);
                }
                if let Some(n) = e.max_evaluations {
                    b = b.u64("max_evaluations", n);
                }
                if let Some(n) = e.max_measurements {
                    b = b.u64("max_measurements", n);
                }
                b.finish()
            }
        }
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field; unknown `"op"` values are
    /// rejected (not ignored) so protocol drift fails loudly.
    pub fn decode(line: &str) -> Result<Request, String> {
        let map = parse_object(line)?;
        let op = str_field(&map, "op")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "drain" => Ok(Request::Drain),
            "explore" => Ok(Request::Explore(ExploreRequest {
                spec: str_field(&map, "spec")?.to_string(),
                accel: map.get("accel").and_then(|v| v.as_str()).map(String::from),
                seed: opt_u64(&map, "seed")?,
                deadline_ms: opt_u64(&map, "deadline_ms")?,
                max_evaluations: opt_u64(&map, "max_evaluations")?,
                max_measurements: opt_u64(&map, "max_measurements")?,
            })),
            other => Err(format!("unknown request op `{other}`")),
        }
    }
}

/// A response emitted by `amosd`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed exploration (possibly degraded — see
    /// [`ExploreReply::completion`]).
    Ok(ExploreReply),
    /// Admission control shed the request; retry no sooner than
    /// `retry_after_ms` from receipt.
    Overloaded {
        /// Server back-off hint in milliseconds.
        retry_after_ms: u64,
    },
    /// The server is draining and admits no new work.
    Draining,
    /// The per-request `deadline + grace` bound expired before the joined
    /// exploration produced an answer; the work continues server-side and a
    /// repeat will be served from cache.
    Timeout {
        /// Milliseconds this request waited before giving up.
        waited_ms: u64,
    },
    /// The request failed (parse error, unknown accelerator, exploration
    /// error, quarantined panic).
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Reply to [`Request::Ping`].
    Pong {
        /// `true` once a drain has started.
        draining: bool,
    },
    /// Reply to [`Request::Stats`].
    Stats(ServerStats),
    /// Reply to [`Request::Drain`] once in-flight work finished.
    Drained,
}

/// The result body of a successful exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReply {
    /// Echo of the request spec.
    pub spec: String,
    /// Accelerator explored.
    pub accel: String,
    /// Seed explored under.
    pub seed: u64,
    /// Best measured cycles.
    pub cycles: f64,
    /// Exact bit pattern of `cycles` (hex `u64`), the bit-identity anchor.
    pub cycles_bits: u64,
    /// [`amos_core::Completion`] rendered as its display string
    /// (`finished`, `degraded (N quarantined)`, `deadline exceeded`, ...).
    pub completion: String,
    /// Generation-loop iterations completed.
    pub generations: u64,
    /// Ground-truth evaluation count.
    pub evaluations: u64,
    /// Size of the enumerated mapping space.
    pub mappings: u64,
}

/// Service and cache counters reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests received (all ops).
    pub received: u64,
    /// Explorations actually run (dedup and cache hits excluded).
    pub explored: u64,
    /// Explore requests that joined an in-flight exploration.
    pub dedup_joined: u64,
    /// Explore requests shed by admission control.
    pub shed: u64,
    /// Explore requests that hit their `deadline + grace` wait bound.
    pub timeouts: u64,
    /// Explore requests that failed.
    pub errors: u64,
    /// Engine L1 (in-memory) cache hits.
    pub l1_hits: u64,
    /// Engine L2 (on-disk) cache hits.
    pub l2_hits: u64,
    /// Engine cold misses (explorations run from scratch).
    pub cold_misses: u64,
}

impl Response {
    /// Renders the response as one canonical protocol line (no newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Ok(r) => ObjectBuilder::new()
                .str("status", "ok")
                .str("spec", &r.spec)
                .str("accel", &r.accel)
                .u64("seed", r.seed)
                .f64("cycles", r.cycles)
                .str("cycles_bits", &format!("{:#018x}", r.cycles_bits))
                .str("completion", &r.completion)
                .u64("generations", r.generations)
                .u64("evaluations", r.evaluations)
                .u64("mappings", r.mappings)
                .finish(),
            Response::Overloaded { retry_after_ms } => ObjectBuilder::new()
                .str("status", "overloaded")
                .u64("retry_after_ms", *retry_after_ms)
                .finish(),
            Response::Draining => ObjectBuilder::new().str("status", "draining").finish(),
            Response::Timeout { waited_ms } => ObjectBuilder::new()
                .str("status", "timeout")
                .u64("waited_ms", *waited_ms)
                .finish(),
            Response::Error { message } => ObjectBuilder::new()
                .str("status", "error")
                .str("message", message)
                .finish(),
            Response::Pong { draining } => ObjectBuilder::new()
                .str("status", "pong")
                .bool("draining", *draining)
                .finish(),
            Response::Stats(s) => ObjectBuilder::new()
                .str("status", "stats")
                .u64("received", s.received)
                .u64("explored", s.explored)
                .u64("dedup_joined", s.dedup_joined)
                .u64("shed", s.shed)
                .u64("timeouts", s.timeouts)
                .u64("errors", s.errors)
                .u64("l1_hits", s.l1_hits)
                .u64("l2_hits", s.l2_hits)
                .u64("cold_misses", s.cold_misses)
                .finish(),
            Response::Drained => ObjectBuilder::new().str("status", "drained").finish(),
        }
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field or unknown `"status"`.
    pub fn decode(line: &str) -> Result<Response, String> {
        let map = parse_object(line)?;
        let status = str_field(&map, "status")?;
        match status {
            "ok" => {
                let bits_hex = str_field(&map, "cycles_bits")?;
                let bits = u64::from_str_radix(bits_hex.trim_start_matches("0x"), 16)
                    .map_err(|_| format!("malformed cycles_bits `{bits_hex}`"))?;
                Ok(Response::Ok(ExploreReply {
                    spec: str_field(&map, "spec")?.to_string(),
                    accel: str_field(&map, "accel")?.to_string(),
                    seed: u64_field(&map, "seed")?,
                    cycles: f64::from_bits(bits),
                    cycles_bits: bits,
                    completion: str_field(&map, "completion")?.to_string(),
                    generations: u64_field(&map, "generations")?,
                    evaluations: u64_field(&map, "evaluations")?,
                    mappings: u64_field(&map, "mappings")?,
                }))
            }
            "overloaded" => Ok(Response::Overloaded {
                retry_after_ms: u64_field(&map, "retry_after_ms")?,
            }),
            "draining" => Ok(Response::Draining),
            "timeout" => Ok(Response::Timeout {
                waited_ms: u64_field(&map, "waited_ms")?,
            }),
            "error" => Ok(Response::Error {
                message: str_field(&map, "message")?.to_string(),
            }),
            "pong" => Ok(Response::Pong {
                draining: matches!(map.get("draining"), Some(Value::Bool(true))),
            }),
            "stats" => Ok(Response::Stats(ServerStats {
                received: u64_field(&map, "received")?,
                explored: u64_field(&map, "explored")?,
                dedup_joined: u64_field(&map, "dedup_joined")?,
                shed: u64_field(&map, "shed")?,
                timeouts: u64_field(&map, "timeouts")?,
                errors: u64_field(&map, "errors")?,
                l1_hits: u64_field(&map, "l1_hits")?,
                l2_hits: u64_field(&map, "l2_hits")?,
                cold_misses: u64_field(&map, "cold_misses")?,
            })),
            "drained" => Ok(Response::Drained),
            other => Err(format!("unknown response status `{other}`")),
        }
    }
}

fn str_field<'m>(map: &'m BTreeMap<String, Value>, key: &str) -> Result<&'m str, String> {
    map.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn u64_field(map: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    map.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn opt_u64(map: &BTreeMap<String, Value>, key: &str) -> Result<Option<u64>, String> {
    match map.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Drain,
            Request::Explore(ExploreRequest {
                spec: "gmm:64x64x64".into(),
                accel: Some("v100".into()),
                seed: Some(7),
                deadline_ms: Some(500),
                max_evaluations: None,
                max_measurements: Some(32),
            }),
            Request::Explore(ExploreRequest {
                spec: "c2d:n1,c8,k8,p7".into(),
                accel: None,
                seed: None,
                deadline_ms: None,
                max_evaluations: None,
                max_measurements: None,
            }),
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        // Integers past 2^53 survive exactly: a rounded seed would explore,
        // echo and share a dedup flight with its neighbour.
        for n in [(1 << 53) + 1, u64::MAX] {
            let req = Request::Explore(ExploreRequest {
                spec: "gmm:64x64x64".into(),
                accel: None,
                seed: Some(n),
                deadline_ms: Some(n),
                max_evaluations: Some(n),
                max_measurements: Some(n),
            });
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip_bit_exactly() {
        let cycles = 12345.6789f64;
        let resps = [
            Response::Ok(ExploreReply {
                spec: "gmm:64x64x64".into(),
                accel: "v100".into(),
                seed: 7,
                cycles,
                cycles_bits: cycles.to_bits(),
                completion: "degraded (2 quarantined)".into(),
                generations: 8,
                evaluations: 96,
                mappings: 1,
            }),
            Response::Overloaded {
                retry_after_ms: 200,
            },
            Response::Draining,
            Response::Timeout { waited_ms: 512 },
            Response::Error {
                message: "unknown accelerator `tpu9`".into(),
            },
            Response::Pong { draining: true },
            Response::Stats(ServerStats {
                received: 10,
                explored: 3,
                dedup_joined: 4,
                shed: 2,
                timeouts: 1,
                errors: 0,
                l1_hits: 5,
                l2_hits: 1,
                cold_misses: 3,
            }),
            Response::Drained,
        ];
        for resp in resps {
            let line = resp.encode();
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
        for n in [(1 << 53) + 1, u64::MAX] {
            let resp = Response::Ok(ExploreReply {
                spec: "gmm:64x64x64".into(),
                accel: "v100".into(),
                seed: n,
                cycles,
                cycles_bits: cycles.to_bits(),
                completion: "finished".into(),
                generations: n,
                evaluations: n,
                mappings: n,
            });
            let line = resp.encode();
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
        // The bit pattern survives even when the decimal rendering would not.
        let exact = f64::from_bits(0x4028_0000_0000_0001);
        let line = Response::Ok(ExploreReply {
            spec: "s".into(),
            accel: "a".into(),
            seed: 0,
            cycles: exact,
            cycles_bits: exact.to_bits(),
            completion: "finished".into(),
            generations: 1,
            evaluations: 1,
            mappings: 1,
        })
        .encode();
        match Response::decode(&line).unwrap() {
            Response::Ok(r) => assert_eq!(r.cycles.to_bits(), exact.to_bits()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_ops_fail_loudly() {
        assert!(Request::decode("{\"op\":\"compile\"}").is_err());
        assert!(Response::decode("{\"status\":\"partial\"}").is_err());
        assert!(Request::decode("{\"op\":\"explore\"}").is_err(), "no spec");
    }
}
