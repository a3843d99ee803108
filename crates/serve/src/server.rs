//! The `amosd` daemon: a crash-only compilation service around one
//! [`Engine`].
//!
//! One thread per connection, newline-delimited JSON (see
//! [`crate::proto`]), and three robustness mechanisms in front of the
//! engine:
//!
//! * **admission control** — at most [`ServeConfig::workers`] explorations
//!   run concurrently and at most [`ServeConfig::queue`] wait behind them;
//!   anything beyond that is shed *immediately* with a typed
//!   [`Response::Overloaded`] carrying a retry hint, never queued
//!   unboundedly;
//! * **in-flight dedup** — explore requests are keyed by
//!   `(structural shape fingerprint, accelerator, seed)`; requests for a
//!   key with a running exploration join its *flight* and every member
//!   receives the same rendered response line, byte for byte — except that
//!   a budget-truncated answer goes only to joiners with the owner's
//!   counter limits and a deadline no longer, and any other joiner runs
//!   its own search;
//! * **per-request SLAs** — the client's `deadline_ms` /
//!   `max_evaluations` map onto the engine's cooperative
//!   [`amos_core::Budget`], so a deadline hit returns the best-so-far
//!   answer with its `Completion` status; the server-side
//!   [`ServeConfig::grace_ms`] hard-bounds the *wait* at
//!   `deadline + grace`, after which the request gets a typed
//!   [`Response::Timeout`] while the exploration finishes in the
//!   background and lands in the cache for the retry.
//!
//! Crash-only operation falls out of the PR 7 design: every clean result
//! flows through the atomic L2 disk cache, so `kill -9` loses at most
//! in-flight work and a restarted daemon answers repeats from disk.
//! [`Request::Drain`] is the graceful path: stop admitting, finish
//! in-flight flights, reply `drained`, exit.

use crate::proto::{
    ExploreReply, ExploreRequest, Request, Response, ServerStats, MAX_REQUEST_BYTES,
};
use amos_core::{load_registry, shape_fingerprint, Budget, CacheConfig, Engine, ExplorerConfig};
use amos_hw::AcceleratorSpec;
use amos_ir::ComputeDef;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of one `amosd` instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the Unix domain socket to listen on.
    pub socket: PathBuf,
    /// Concurrent explorations (the worker budget).
    pub workers: usize,
    /// Admitted-but-waiting explorations beyond the workers; anything more
    /// is shed.
    pub queue: usize,
    /// Straggler bound: a request waits at most `deadline + grace_ms`
    /// before receiving [`Response::Timeout`].
    pub grace_ms: u64,
    /// Deadline applied to explore requests that carry none.
    pub default_deadline_ms: u64,
    /// Back-off hint attached to [`Response::Overloaded`].
    pub retry_after_ms: u64,
    /// Accelerator used by explore requests that name none.
    pub default_accel: String,
    /// Default exploration seed (part of the dedup key).
    pub seed: u64,
    /// Base search shape (population, generations, jobs, ...); per-request
    /// SLAs override only `budget` and `seed`.
    pub base: ExplorerConfig,
    /// Persistent L2 cache directory — the crash-recovery store. `None`
    /// keeps the daemon memory-only (repeats survive only until restart).
    pub cache_dir: Option<PathBuf>,
    /// Extra accelerator-description directory merged over the builtin
    /// catalog.
    pub accel_dir: Option<PathBuf>,
    /// Serve-layer fault injection (deterministic; inert by default):
    /// faults drawn in phase `"serve"` delay or kill whole request
    /// handlers, on top of any per-candidate plan in `base.faults`.
    #[cfg(feature = "fault-injection")]
    pub serve_faults: amos_core::faultplan::FaultPlan,
}

impl ServeConfig {
    /// A default configuration listening on `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            workers: 2,
            queue: 4,
            grace_ms: 2_000,
            default_deadline_ms: 10_000,
            retry_after_ms: 200,
            default_accel: "v100".to_string(),
            seed: 0x5eed,
            base: ExplorerConfig::default(),
            cache_dir: None,
            accel_dir: None,
            #[cfg(feature = "fault-injection")]
            serve_faults: amos_core::faultplan::FaultPlan::default(),
        }
    }
}

/// One in-flight exploration, shared by every deduplicated waiter its
/// answer serves. The rendered response line is stored exactly once and
/// handed to those waiters verbatim — bit identity by construction.
#[derive(Debug)]
struct Flight {
    /// The budget of the request that started the flight.
    terms: Terms,
    answer: Mutex<Option<Answer>>,
    cv: Condvar,
}

/// A request's budget: its counter limits and its deadline.
#[derive(Debug, Clone, Copy)]
struct Terms {
    max_evaluations: Option<u64>,
    max_measurements: Option<u64>,
    deadline_ms: u64,
}

impl Terms {
    /// Whether a search the `owner` terms truncated answers this request
    /// too: the same counter limits and a deadline no longer, so identical
    /// requests share even a truncated answer. An answer that was not
    /// truncated serves every budget, as the engine's cache serves it.
    fn covered_by(&self, owner: &Terms) -> bool {
        self.max_evaluations == owner.max_evaluations
            && self.max_measurements == owner.max_measurements
            && self.deadline_ms <= owner.deadline_ms
    }
}

/// A flight's rendered response line, and whether a budget limit cut its
/// search short.
#[derive(Debug, Clone)]
struct Answer {
    line: String,
    truncated: bool,
}

impl Flight {
    fn new(terms: Terms) -> Self {
        Flight {
            terms,
            answer: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, answer: Answer) {
        let mut slot = self
            .answer
            .lock()
            .expect("no waiter panics holding a flight");
        *slot = Some(answer);
        self.cv.notify_all();
    }

    /// Waits until the flight resolves or `until` passes.
    fn wait_until(&self, until: Instant) -> Option<Answer> {
        let mut slot = self
            .answer
            .lock()
            .expect("no waiter panics holding a flight");
        loop {
            if let Some(answer) = slot.as_ref() {
                return Some(answer.clone());
            }
            let now = Instant::now();
            if now >= until {
                return None;
            }
            let (next, _) = self.cv.wait_timeout(slot, until - now).unwrap();
            slot = next;
        }
    }
}

#[derive(Debug, Default)]
struct AdmissionState {
    running: usize,
    queued: usize,
}

/// The bounded worker/queue gate.
#[derive(Debug, Default)]
struct Admission {
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

enum Ticket {
    /// A worker slot is held; the caller must [`Admission::release`].
    Admitted,
    /// Queue full (or the queue wait outlived the request deadline).
    Shed,
}

impl Admission {
    fn acquire(&self, workers: usize, queue: usize, until: Instant) -> Ticket {
        let mut state = self.state.lock().unwrap();
        if state.running < workers {
            state.running += 1;
            return Ticket::Admitted;
        }
        if state.queued >= queue {
            return Ticket::Shed;
        }
        state.queued += 1;
        loop {
            if state.running < workers {
                state.queued -= 1;
                state.running += 1;
                return Ticket::Admitted;
            }
            let now = Instant::now();
            if now >= until {
                state.queued -= 1;
                return Ticket::Shed;
            }
            let (next, _) = self.cv.wait_timeout(state, until - now).unwrap();
            state = next;
        }
    }

    fn release(&self) {
        let mut state = self.state.lock().unwrap();
        state.running -= 1;
        drop(state);
        self.cv.notify_all();
    }

    /// Waits until no exploration is running or queued, or `timeout`
    /// passes; returns `true` when idle.
    fn wait_idle(&self, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        loop {
            if state.running == 0 && state.queued == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= until {
                return false;
            }
            let (next, _) = self.cv.wait_timeout(state, until - now).unwrap();
            state = next;
        }
    }
}

/// Shared daemon state: the engine, the flight table, the admission gate
/// and the counters.
#[derive(Debug)]
struct Core {
    engine: Engine,
    config: ServeConfig,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    admission: Admission,
    draining: AtomicBool,
    shutdown: AtomicBool,
    conns: Mutex<usize>,
    conns_cv: Condvar,
    received: AtomicU64,
    explored: AtomicU64,
    dedup_joined: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
}

/// A bound-but-not-yet-running `amosd` instance.
#[derive(Debug)]
pub struct Server {
    core: Arc<Core>,
    listener: UnixListener,
}

impl Server {
    /// Builds the engine and binds the socket. A stale socket file left by
    /// a crashed daemon (nothing accepts on it) is removed and re-bound —
    /// the crash-only restart path; a *live* socket is an error.
    ///
    /// # Errors
    ///
    /// Registry loading failures and socket errors (including
    /// `AddrInUse` when another daemon is accepting on the path).
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let registry = load_registry(config.accel_dir.as_deref()).map_err(|e| e.to_string())?;
        let engine = Engine::with_cache(
            config.base.clone(),
            CacheConfig {
                cache_dir: config.cache_dir.clone(),
            },
        )
        .with_registry(registry);
        if config.socket.exists() {
            if UnixStream::connect(&config.socket).is_ok() {
                return Err(format!(
                    "socket `{}` already has a live daemon",
                    config.socket.display()
                ));
            }
            // Stale file from a killed daemon: crash-only restart.
            let _ = std::fs::remove_file(&config.socket);
        }
        let listener = UnixListener::bind(&config.socket)
            .map_err(|e| format!("bind `{}`: {e}", config.socket.display()))?;
        Ok(Server {
            core: Arc::new(Core {
                engine,
                config,
                flights: Mutex::new(HashMap::new()),
                admission: Admission::default(),
                draining: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
                conns: Mutex::new(0),
                conns_cv: Condvar::new(),
                received: AtomicU64::new(0),
                explored: AtomicU64::new(0),
                dedup_joined: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
            listener,
        })
    }

    /// The socket path this server is listening on.
    pub fn socket(&self) -> &std::path::Path {
        &self.core.config.socket
    }

    /// Serves until drained: accepts connections, one handler thread each,
    /// and returns after a [`Request::Drain`] completed (socket file
    /// removed).
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures.
    pub fn run(self) -> Result<(), String> {
        loop {
            let (stream, _) = self.listener.accept().map_err(|e| format!("accept: {e}"))?;
            if self.core.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let core = Arc::clone(&self.core);
            {
                let mut conns = core.conns.lock().unwrap();
                *conns += 1;
            }
            std::thread::spawn(move || {
                handle_connection(&core, stream);
                let mut conns = core.conns.lock().unwrap();
                *conns -= 1;
                drop(conns);
                core.conns_cv.notify_all();
            });
        }
        // Give handler threads a moment to flush their final responses.
        let until = Instant::now() + Duration::from_secs(10);
        let mut conns = self.core.conns.lock().unwrap();
        while *conns > 0 && Instant::now() < until {
            let (next, _) = self
                .core
                .conns_cv
                .wait_timeout(conns, Duration::from_millis(50))
                .unwrap();
            conns = next;
        }
        drop(conns);
        let _ = std::fs::remove_file(&self.core.config.socket);
        Ok(())
    }
}

fn handle_connection(core: &Arc<Core>, stream: UnixStream) {
    // The read timeout bounds how long an idle connection can stall a
    // drain; it does not bound response waits (those happen after the
    // request line arrived).
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut bytes = Vec::new();
    // One byte past the bound tells an over-long line from a full one.
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    loop {
        bytes.clear();
        match reader.by_ref().take(limit).read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let too_long = bytes.len() as u64 == limit && bytes.last() != Some(&b'\n');
        let decoded = if too_long {
            Err(format!("line exceeds {MAX_REQUEST_BYTES} bytes"))
        } else {
            let Ok(line) = std::str::from_utf8(&bytes) else {
                return;
            };
            if line.trim().is_empty() {
                continue;
            }
            Request::decode(line).map_err(|e| e.to_string())
        };
        let receipt = Instant::now();
        core.received.fetch_add(1, Ordering::SeqCst);
        let (reply, drain_after) = match decoded {
            Err(e) => (
                Response::Error {
                    message: format!("malformed request: {e}"),
                }
                .encode(),
                false,
            ),
            Ok(Request::Ping) => (
                Response::Pong {
                    draining: core.draining.load(Ordering::SeqCst),
                }
                .encode(),
                false,
            ),
            Ok(Request::Stats) => (stats_line(core), false),
            Ok(Request::Drain) => (drain(core), true),
            Ok(Request::Explore(req)) => (explore(core, req, receipt), false),
        };
        if writer.write_all(reply.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            return;
        }
        // The rest of an over-long line is not read: nothing after it can
        // be told from its tail.
        if too_long {
            return;
        }
        if drain_after {
            core.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so `run()` can observe the shutdown.
            let _ = UnixStream::connect(&core.config.socket);
            return;
        }
    }
}

fn stats_line(core: &Arc<Core>) -> String {
    let cache = core.engine.cache_stats();
    Response::Stats(ServerStats {
        received: core.received.load(Ordering::SeqCst),
        explored: core.explored.load(Ordering::SeqCst),
        dedup_joined: core.dedup_joined.load(Ordering::SeqCst),
        shed: core.shed.load(Ordering::SeqCst),
        timeouts: core.timeouts.load(Ordering::SeqCst),
        errors: core.errors.load(Ordering::SeqCst),
        l1_hits: cache.hits as u64,
        l2_hits: cache.l2_hits as u64,
        cold_misses: cache.misses as u64,
    })
    .encode()
}

/// Graceful shutdown: stop admitting, let in-flight flights finish (with a
/// hard bound so a wedged worker cannot block the drain forever), then
/// acknowledge.
fn drain(core: &Arc<Core>) -> String {
    core.draining.store(true, Ordering::SeqCst);
    core.admission.wait_idle(Duration::from_secs(60));
    Response::Drained.encode()
}

fn error_line(core: &Arc<Core>, message: String) -> String {
    core.errors.fetch_add(1, Ordering::SeqCst);
    Response::Error { message }.encode()
}

fn explore(core: &Arc<Core>, req: ExploreRequest, receipt: Instant) -> String {
    if core.draining.load(Ordering::SeqCst) {
        return Response::Draining.encode();
    }
    let def = match amos_workloads::spec::parse_spec(&req.spec) {
        Ok(def) => def,
        Err(e) => return error_line(core, format!("bad spec `{}`: {e}", req.spec)),
    };
    let accel_name = req.accel.as_deref().unwrap_or(&core.config.default_accel);
    let accel = match core.engine.accelerator(accel_name) {
        Ok(a) => a,
        Err(e) => return error_line(core, e.to_string()),
    };
    let seed = req.seed.unwrap_or(core.config.seed);
    let deadline_ms = req.deadline_ms.unwrap_or(core.config.default_deadline_ms);
    let mut budget = Budget {
        deadline_ms: Some(deadline_ms),
        max_evaluations: req.max_evaluations.map(|n| n as usize),
        max_measurements: req.max_measurements.map(|n| n as usize),
    };
    let terms = Terms {
        max_evaluations: req.max_evaluations,
        max_measurements: req.max_measurements,
        deadline_ms,
    };
    let deadline = receipt + Duration::from_millis(deadline_ms);
    // The dedup key is the structural cache identity, budget excluded (the
    // same exclusion the L1/L2 fingerprint makes): a finished answer
    // serves every budget, and [`Terms::covered_by`] decides who a
    // truncated one serves. It leads with the shape fingerprint, rendered
    // here once and handed on to the engine, whose cache key starts from
    // the same text.
    let shape = shape_fingerprint(&def);
    let key = format!("{shape}|{}|{seed}", accel.name);
    let job = Arc::new((req, def, shape, accel));
    // Owner and joiners wait identically: `deadline + grace` from *their
    // own* receipt, then a typed timeout — the no-hang guarantee.
    let bound = receipt + Duration::from_millis(deadline_ms + core.config.grace_ms);

    loop {
        let (flight, owner) = {
            let mut flights = core
                .flights
                .lock()
                .expect("no request panics holding the flight table");
            match flights.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::new(terms));
                    flights.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if owner {
            // Queue waiting is bounded by the request's own deadline: a slot
            // that frees later than that can only produce a late answer.
            let ticket = core
                .admission
                .acquire(core.config.workers, core.config.queue, deadline);
            match ticket {
                Ticket::Shed => {
                    core.shed.fetch_add(1, Ordering::SeqCst);
                    let line = Response::Overloaded {
                        retry_after_ms: core.config.retry_after_ms,
                    }
                    .encode();
                    let answer = Answer {
                        line: line.clone(),
                        truncated: false,
                    };
                    resolve_and_remove(core, &key, &flight, answer);
                    return line;
                }
                Ticket::Admitted => {
                    let core = Arc::clone(core);
                    let key = key.clone();
                    let flight = Arc::clone(&flight);
                    let job = Arc::clone(&job);
                    std::thread::spawn(move || {
                        let (req, def, shape, accel) = &*job;
                        run_exploration(&core, &key, &flight, req, def, shape, accel, seed, budget);
                        core.admission.release();
                    });
                }
            }
        } else {
            core.dedup_joined.fetch_add(1, Ordering::SeqCst);
        }

        match flight.wait_until(bound) {
            Some(answer) if owner || !answer.truncated || terms.covered_by(&flight.terms) => {
                return answer.line
            }
            // Another budget cut that search short; this request's own
            // search gets the time left to its deadline.
            Some(_) => {
                let left = deadline.saturating_duration_since(Instant::now());
                budget.deadline_ms = Some(left.as_millis() as u64);
            }
            None => {
                core.timeouts.fetch_add(1, Ordering::SeqCst);
                return Response::Timeout {
                    waited_ms: receipt.elapsed().as_millis() as u64,
                }
                .encode();
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_exploration(
    core: &Arc<Core>,
    key: &str,
    flight: &Arc<Flight>,
    req: &ExploreRequest,
    def: &ComputeDef,
    shape: &str,
    accel: &AcceleratorSpec,
    seed: u64,
    budget: Budget,
) {
    #[cfg(feature = "fault-injection")]
    let injected_panic = {
        use amos_core::faultplan::Fault;
        match core
            .config
            .serve_faults
            .draw("serve", seed, 0, amos_core::fnv1a(key))
        {
            Some(Fault::Delay) => {
                std::thread::sleep(Duration::from_micros(core.config.serve_faults.delay_micros));
                false
            }
            Some(Fault::SimError) => {
                let line = error_line(core, "injected serve fault: sim error".to_string());
                let answer = Answer {
                    line,
                    truncated: false,
                };
                resolve_and_remove(core, key, flight, answer);
                return;
            }
            Some(Fault::Panic) => true,
            None => false,
        }
    };
    let mut config = core.config.base.clone();
    config.seed = seed;
    config.budget = budget;
    core.explored.fetch_add(1, Ordering::SeqCst);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        if injected_panic {
            panic!("injected serve fault: handler panic");
        }
        core.engine
            .explore_op_shaped(config, def, accel, Some(shape))
    }));
    let truncated = matches!(&outcome, Ok(Ok(result)) if result.completion.is_truncated());
    let line = match outcome {
        Ok(Ok(result)) => Response::Ok(ExploreReply {
            spec: req.spec.clone(),
            accel: accel.name.clone(),
            seed,
            cycles: result.cycles(),
            cycles_bits: result.cycles().to_bits(),
            completion: result.completion.to_string(),
            generations: result.generations_completed as u64,
            evaluations: result.evaluations.len() as u64,
            mappings: result.num_mappings as u64,
        })
        .encode(),
        Ok(Err(e)) => error_line(core, e.to_string()),
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            error_line(core, format!("exploration panicked: {text}"))
        }
    };
    resolve_and_remove(core, key, flight, Answer { line, truncated });
}

/// Retires the flight, so later requests for the key start fresh (and hit
/// the engine cache), then publishes the answer to every waiter. Retired
/// first, a waiter the answer does not serve never finds the flight again.
fn resolve_and_remove(core: &Arc<Core>, key: &str, flight: &Arc<Flight>, answer: Answer) {
    core.flights
        .lock()
        .expect("no request panics holding the flight table")
        .remove(key);
    flight.resolve(answer);
}
