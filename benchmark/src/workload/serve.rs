//! `serve_mixed`: the only workload through `serve::{json, proto, server,
//! client}`. An in-process `amosd` is driven over its Unix socket by one
//! generator thread per core with a seeded mix of never-seen, duplicate,
//! memory-cached and disk-cached requests: admission, flight join,
//! thread-per-connection and both cache tiers under concurrency.
//!
//! A pass is a freshly started daemon on the directory set-up populated.
//! Its closed phase (next request on reply) gives the throughput; its open
//! phase (a fixed arrival rate, timed from each request's due time) gives
//! the latencies.

use super::{Gate, Pass, Timed, Workload};
use crate::gen::{Gen, Req};
use crate::openloop::{due_ns, issue, Sample, WallClock};
use crate::stats::{median, percentile, sorted};
use crate::trace::Trace;
use amos_core::{Engine, ExplorerConfig};
use amos_serve::proto::{ExploreReply, ExploreRequest, Request, Response, ServerStats};
use amos_serve::{client, RetryPolicy, ServeConfig, Server};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Distinct requests kept hot in the daemon's memory tier.
const L1_SET: usize = 64;

/// Slots of each class in a phase; a duplicate slot is two requests.
#[derive(Debug, Clone, Copy)]
struct Mix {
    cold: usize,
    dup: usize,
    l1: usize,
    l2: usize,
}

impl Mix {
    const fn requests(self) -> usize {
        self.cold + 2 * self.dup + self.l1 + self.l2
    }
}

/// The closed phase: 1400 requests, of which 25% are never seen, 10%
/// duplicates, 45% L1 repeats and 20% first touches of a disk entry.
const CLOSED: Mix = Mix {
    cold: 350,
    dup: 70,
    l1: 630,
    l2: 280,
};

/// Closed-phase slots per open-phase slot.
const CLOSED_PER_OPEN: usize = 7;

/// The open phase: the same mix, a seventh as many. At its fixed rate it
/// takes as long as the closed phase; kept short, a run fits in more passes,
/// and the median over passes holds still where single passes do not.
const OPEN: Mix = Mix {
    cold: CLOSED.cold / CLOSED_PER_OPEN,
    dup: CLOSED.dup / CLOSED_PER_OPEN,
    l1: CLOSED.l1 / CLOSED_PER_OPEN,
    l2: CLOSED.l2 / CLOSED_PER_OPEN,
};

/// Arrival rate of the open phase, in slots per second: about a sixth of
/// what the closed phase sustained on the 2-core reference box when
/// recorded. At half of it, as first tried, the generators are busy half
/// the time, the median request waits in line, and the wait multiplies
/// every wobble of the service time: `lat_p50_ms` moved by a quarter from
/// run to run. At a sixth it reads the service time.
pub const RATE_PER_S: f64 = 300.0;

/// Replies of the gate pass compared against a direct `Engine` call.
const DIRECT_SAMPLE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Dup,
    L2,
    L1,
}

impl Class {
    const ALL: [Class; 4] = [Class::Cold, Class::Dup, Class::L1, Class::L2];

    fn span(self) -> &'static str {
        match self {
            Class::Cold => "serve.submit.cold",
            Class::Dup => "serve.submit.dup",
            Class::L1 => "serve.submit.l1",
            Class::L2 => "serve.submit.l2",
        }
    }

    fn latency_layer(self) -> &'static str {
        match self {
            Class::Cold => "serve.lat_cold_ms",
            Class::Dup => "serve.lat_dup_ms",
            Class::L1 => "serve.lat_l1_ms",
            Class::L2 => "serve.lat_l2_ms",
        }
    }
}

/// One planned request. Both halves of a duplicate share a slot, and so a
/// due time.
#[derive(Debug, Clone)]
struct Planned {
    req: Req,
    class: Class,
    slot: usize,
}

/// What came back for one planned request.
#[derive(Debug)]
struct Outcome {
    sample: Sample,
    raw: String,
    reply: Option<ExploreReply>,
}

pub struct ServeMixed {
    threads: usize,
    l1_set: Vec<Req>,
    /// The closed phase's requests, then the open phase's.
    plan: Vec<Planned>,
    socket: PathBuf,
    cache_dir: PathBuf,
    /// Entry files set-up wrote; whatever a pass adds is removed before the
    /// next, so its never-seen requests stay never seen.
    pristine: HashSet<OsString>,
    daemon: Option<JoinHandle<Result<(), String>>>,
}

fn one_shot() -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        ..RetryPolicy::default()
    }
}

fn explore_request(req: &Req) -> Request {
    Request::Explore(ExploreRequest {
        spec: req.spec.clone(),
        accel: Some(req.accel.to_string()),
        seed: Some(req.seed),
        deadline_ms: None,
        max_evaluations: None,
        max_measurements: None,
    })
}

fn finished(reply: &ExploreReply) -> bool {
    reply.completion == "finished"
}

/// Both phases' requests and the L2 set they touch. Class counts are exact
/// and each class's specs are one stretch of the generator's sequence, dealt
/// seven to the closed phase and one to the open phase in turn, so every
/// phase of every seed holds the same mix of families and accelerators; the
/// seed orders them.
fn plan(gen: &mut Gen, l1_set: &[Req]) -> (Vec<Planned>, Vec<Req>) {
    let cold = gen.take(CLOSED.cold + OPEN.cold);
    let dup = gen.take(CLOSED.dup + OPEN.dup);
    let l2_set = gen.take(CLOSED.l2 + OPEN.l2);
    let mut plan = Vec::with_capacity(CLOSED.requests() + OPEN.requests());
    for (mix, open) in [(CLOSED, false), (OPEN, true)] {
        let mut fresh = [&cold, &dup, &l2_set].map(|block| {
            block
                .iter()
                .enumerate()
                .filter(move |(i, _)| (i % (CLOSED_PER_OPEN + 1) == CLOSED_PER_OPEN) == open)
                .map(|(_, req)| req)
        });
        let mut classes = Vec::with_capacity(mix.requests());
        for (class, slots) in [
            (Class::Cold, mix.cold),
            (Class::Dup, mix.dup),
            (Class::L2, mix.l2),
            (Class::L1, mix.l1),
        ] {
            classes.extend(std::iter::repeat_n(class, slots));
        }
        gen.shuffle(&mut classes);
        for (slot, class) in classes.into_iter().enumerate() {
            let req = match class {
                Class::L1 => l1_set[gen.below(l1_set.len())].clone(),
                fresh_class => fresh[fresh_class as usize]
                    .next()
                    .expect("a block holds both phases' slots")
                    .clone(),
            };
            if class == Class::Dup {
                plan.push(Planned {
                    req: req.clone(),
                    class,
                    slot,
                });
            }
            plan.push(Planned { req, class, slot });
        }
    }
    (plan, l2_set)
}

impl ServeMixed {
    pub fn new(seed: u64, work: &Path) -> ServeMixed {
        let mut gen = Gen::new(seed, "serve_mixed");
        let l1_set = gen.take(L1_SET);
        let (plan, l2_set) = plan(&mut gen, &l1_set);

        let cache_dir = work.join("serve-l2");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut w = ServeMixed {
            threads: crate::sys::nproc(),
            l1_set,
            plan,
            // Relative, so the path fits a socket address however deep the
            // checkout is; the runner has made `work` the current directory.
            socket: PathBuf::from("amosd.sock"),
            cache_dir,
            pristine: HashSet::new(),
            daemon: None,
        };
        // Daemon A explores what later daemons must find on disk, and is
        // drained: the crash-only restart path of a real deployment.
        w.start_daemon();
        let populate: Vec<&Req> = w.l1_set.iter().chain(&l2_set).collect();
        let failed = w.submit_all(&populate);
        assert_eq!(
            failed, 0,
            "populating the disk tier failed {failed} requests"
        );
        w.stop_daemon();
        w.pristine = w.entry_files();
        // Daemon B: the restart, primed with the L1 set.
        w.restart();
        w
    }

    fn entry_files(&self) -> HashSet<OsString> {
        std::fs::read_dir(&self.cache_dir)
            .map(|dir| dir.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default()
    }

    fn start_daemon(&mut self) {
        let mut config = ServeConfig::new(&self.socket);
        config.workers = self.threads;
        config.queue = 4;
        config.cache_dir = Some(self.cache_dir.clone());
        config.base = ExplorerConfig {
            jobs: 1,
            ..ExplorerConfig::default()
        };
        let server = Server::bind(config).expect("bind amosd");
        self.daemon = Some(std::thread::spawn(move || server.run()));
    }

    fn stop_daemon(&mut self) {
        if let Some(handle) = self.daemon.take() {
            let drained = client::submit(&self.socket, &Request::Drain, &one_shot());
            assert!(
                matches!(drained, Ok((Response::Drained, _))),
                "drain: {drained:?}"
            );
            handle
                .join()
                .expect("daemon thread")
                .expect("daemon exits cleanly");
        }
    }

    /// Stops the daemon, restores the directory to what set-up wrote, and
    /// starts a daemon with the L1 set in memory.
    fn restart(&mut self) {
        self.stop_daemon();
        for name in self.entry_files().difference(&self.pristine) {
            let _ = std::fs::remove_file(self.cache_dir.join(name));
        }
        self.start_daemon();
        let prime: Vec<&Req> = self.l1_set.iter().collect();
        let failed = self.submit_all(&prime);
        assert_eq!(failed, 0, "priming the L1 set failed {failed} requests");
    }

    /// Sends `reqs` from every generator thread; returns how many were not
    /// answered with a finished exploration.
    fn submit_all(&self, reqs: &[&Req]) -> usize {
        let next = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    match client::submit(&self.socket, &explore_request(req), &one_shot()) {
                        Ok((Response::Ok(reply), _)) if finished(&reply) => {}
                        _ => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        failed.into_inner()
    }

    fn server_stats(&self) -> ServerStats {
        match client::submit(&self.socket, &Request::Stats, &one_shot()) {
            Ok((Response::Stats(stats), _)) => stats,
            other => panic!("stats request: {other:?}"),
        }
    }

    /// Runs `plan[range]` from every generator thread: closed loop when
    /// `rate_per_s` is `None`, else open loop at that slot rate.
    fn phase(
        &self,
        range: std::ops::Range<usize>,
        rate_per_s: Option<f64>,
        trace: &mut Trace,
    ) -> Vec<Outcome> {
        let origin = Instant::now();
        let clock = WallClock { origin };
        // The first due time leaves the generator threads time to start.
        let start_ns = 2_000_000;
        let first_slot = self.plan[range.start].slot;
        let next = AtomicUsize::new(range.start);
        let enabled = trace.enabled();
        let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(range.len());
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut trace = Trace::new(enabled, origin);
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= range.end {
                                break;
                            }
                            let planned = &self.plan[i];
                            let due = rate_per_s
                                .map(|rate| due_ns(start_ns, planned.slot - first_slot, rate));
                            let request = explore_request(&planned.req);
                            let (result, sample) = issue(&clock, due, || {
                                trace.span(planned.class.span(), i as u64, |_| {
                                    client::submit(&self.socket, &request, &one_shot())
                                })
                            });
                            let (reply, raw) = match result {
                                Ok((Response::Ok(reply), raw)) => (Some(reply), raw),
                                Ok((_, raw)) => (None, raw),
                                Err(e) => (None, e.to_string()),
                            };
                            mine.push((i, Outcome { sample, raw, reply }));
                        }
                        (mine, trace)
                    })
                })
                .collect();
            for worker in workers {
                let (mine, thread_trace) = worker.join().expect("generator thread");
                outcomes.extend(mine);
                trace.absorb(thread_trace);
            }
        });
        outcomes.sort_by_key(|(i, _)| *i);
        outcomes.into_iter().map(|(_, o)| o).collect()
    }

    /// One pass, returning every outcome in plan order beside the figures.
    fn run(&mut self, trace: &mut Trace) -> (Pass, Vec<Outcome>) {
        self.restart();
        let mut pass = Pass {
            attempted: self.plan.len(),
            ..Pass::default()
        };
        if trace.enabled() {
            // The transport, codec and thread floor: no engine work at all.
            let trips: Vec<f64> = (0..200)
                .map(|_| {
                    let started = Instant::now();
                    self.server_stats();
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            pass.add("serve.client.stats_roundtrip_us", median(&trips));
        }
        let before = self.server_stats();

        let clock = Timed::start();
        let closed = self.phase(0..CLOSED.requests(), None, trace);
        clock.stop(&mut pass);
        pass.ops = closed
            .iter()
            .filter(|o| o.reply.as_ref().is_some_and(finished))
            .count();

        let cpu_before = crate::sys::cpu_ms();
        let open = self.phase(CLOSED.requests()..self.plan.len(), Some(RATE_PER_S), trace);
        pass.cpu_ms += crate::sys::cpu_ms() - cpu_before;
        let after = self.server_stats();

        let mut late_ms = Vec::with_capacity(open.len());
        let mut by_class: [Vec<f64>; 4] = Default::default();
        for (planned, outcome) in self.plan[CLOSED.requests()..].iter().zip(&open) {
            if outcome.reply.as_ref().is_some_and(finished) {
                let ms = outcome.sample.latency_ns as f64 * 1e-6;
                pass.lat_ms.push(ms);
                by_class[planned.class as usize].push(ms);
            }
            late_ms.push(outcome.sample.late_ns as f64 * 1e-6);
        }
        for class in Class::ALL {
            let samples = &by_class[class as usize];
            if !samples.is_empty() {
                pass.add(class.latency_layer(), median(samples));
            }
        }
        pass.add("serve.gen_late_p99_ms", percentile(&sorted(&late_ms), 0.99));

        let mut outcomes = closed;
        outcomes.extend(open);
        // Winners count once per distinct request; a repeat must reply the
        // cycles its first occurrence did, whichever tier answered.
        let mut first_reply: HashMap<&str, u64> = HashMap::new();
        for (planned, outcome) in self.plan.iter().zip(&outcomes) {
            match &outcome.reply {
                Some(reply) if finished(reply) => {
                    pass.answered += 1;
                    match first_reply.entry(&planned.req.spec) {
                        Entry::Vacant(slot) => {
                            slot.insert(reply.cycles_bits);
                            pass.cycles.push(reply.cycles);
                        }
                        Entry::Occupied(first) if *first.get() != reply.cycles_bits => {
                            pass.failed += 1;
                        }
                        Entry::Occupied(_) => {}
                    }
                    if planned.class == Class::Cold {
                        pass.add("core.generate.mappings", reply.mappings as f64);
                        pass.add("core.explore.measurements", reply.evaluations as f64);
                        pass.add("core.explore.generations", reply.generations as f64);
                    }
                }
                _ => pass.failed += 1,
            }
        }
        pass.failed += self.count_mismatches(&mut pass, &before, &after);
        (pass, outcomes)
    }

    /// Records the daemon's counters over a pass and returns how far they
    /// are from what the plan implies.
    fn count_mismatches(
        &self,
        pass: &mut Pass,
        before: &ServerStats,
        after: &ServerStats,
    ) -> usize {
        let delta = |f: fn(&ServerStats) -> u64| (f(after) - f(before)) as f64;
        let joined = delta(|s| s.dedup_joined);
        let l1_hits = delta(|s| s.l1_hits);
        let l2_hits = delta(|s| s.l2_hits);
        let cold_misses = delta(|s| s.cold_misses);
        let faults = delta(|s| s.shed) + delta(|s| s.timeouts) + delta(|s| s.errors);
        // Less the second `stats` request itself.
        pass.add("serve.received", delta(|s| s.received) - 1.0);
        pass.add("serve.explored", delta(|s| s.explored));
        pass.add("serve.dedup_joined", joined);
        pass.add(
            "serve.dedup_join_ratio",
            joined / (CLOSED.dup + OPEN.dup) as f64,
        );
        pass.add("serve.shed", delta(|s| s.shed));
        pass.add("serve.timeouts", delta(|s| s.timeouts));
        pass.add("serve.errors", delta(|s| s.errors));
        pass.add("serve.l1_hits", l1_hits);
        pass.add("serve.l2_hits", l2_hits);
        pass.add("serve.cold_misses", cold_misses);
        pass.add("core.cache.l1_hits", l1_hits);
        pass.add("core.cache.l2_hits", l2_hits);
        pass.add("core.cache.cold_misses", cold_misses);
        // A duplicate's second half either joins the flight or, arriving
        // after it landed, hits L1; everything else is fixed by the plan.
        let planned = |f: fn(Mix) -> usize| (f(CLOSED) + f(OPEN)) as f64;
        let expected = [
            (cold_misses, planned(|m| m.cold + m.dup)),
            (l2_hits, planned(|m| m.l2)),
            (l1_hits + joined, planned(|m| m.l1 + m.dup)),
            (faults, 0.0),
        ];
        expected
            .iter()
            .map(|(got, want)| (got - want).abs() as usize)
            .sum()
    }
}

impl Workload for ServeMixed {
    fn tail(&self) -> f64 {
        // Three requests in ten explore, so p90 sits in the body of the
        // exploring classes; p99 is their tail plus queueing, and moves by
        // 6% from run to run on two cores.
        0.90
    }

    fn pass(&mut self, trace: &mut Trace) -> Pass {
        self.run(trace).0
    }

    fn gate(&mut self, gate: &mut Gate) -> Pass {
        let (pass, outcomes) = self.run(&mut Trace::new(false, Instant::now()));
        for (i, pair) in self.plan.windows(2).enumerate() {
            if pair[0].class == Class::Dup && pair[0].slot == pair[1].slot {
                gate.check(outcomes[i].raw == outcomes[i + 1].raw, || {
                    format!(
                        "duplicates of {} differ: `{}` vs `{}`",
                        pair[0].req.spec,
                        outcomes[i].raw,
                        outcomes[i + 1].raw
                    )
                });
            }
        }
        let registry = amos_hw::Registry::builtin();
        let stride = self.plan.len() / DIRECT_SAMPLE;
        for (planned, outcome) in self.plan.iter().zip(&outcomes).step_by(stride) {
            let req = &planned.req;
            let def = amos_workloads::spec::parse_spec(&req.spec).expect("generated spec parses");
            let accel = registry.build(req.accel).expect("catalog accelerator");
            let direct = Engine::with_config(ExplorerConfig {
                seed: req.seed,
                jobs: 1,
                ..ExplorerConfig::default()
            })
            .explore_op(&def, &accel)
            .map(|r| r.cycles().to_bits());
            let served = outcome.reply.as_ref().map(|r| r.cycles_bits);
            gate.check(direct.as_ref().ok() == served.as_ref(), || {
                format!(
                    "{} on {}: daemon replied {served:?}, a direct engine {direct:?}",
                    req.spec, req.accel
                )
            });
            gate.check(
                outcome.reply.as_ref().is_some_and(|r| {
                    r.spec == req.spec && r.accel == req.accel && r.seed == req.seed
                }),
                || format!("{}: the reply echoes another request", req.spec),
            );
        }
        pass
    }

    fn cache_dir(&self) -> Option<&Path> {
        Some(&self.cache_dir)
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        if let Some(handle) = self.daemon.take() {
            let _ = client::submit(&self.socket, &Request::Drain, &one_shot());
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(seed: u64) -> (Vec<Planned>, Vec<Req>) {
        let mut gen = Gen::new(seed, "serve_mixed");
        let l1_set = gen.take(L1_SET);
        plan(&mut gen, &l1_set)
    }

    #[test]
    fn the_plan_holds_the_stated_mix_in_both_phases() {
        let (plan, l2_set) = planned(9);
        assert_eq!(plan.len(), CLOSED.requests() + OPEN.requests());
        assert_eq!(l2_set.len(), CLOSED.l2 + OPEN.l2);
        let (closed, open) = plan.split_at(CLOSED.requests());
        for (phase, mix) in [(closed, CLOSED), (open, OPEN)] {
            let count = |class| phase.iter().filter(|p| p.class == class).count();
            assert_eq!(count(Class::Cold), mix.cold);
            assert_eq!(count(Class::Dup), 2 * mix.dup);
            assert_eq!(count(Class::L1), mix.l1);
            assert_eq!(count(Class::L2), mix.l2);
            assert_eq!(count(Class::Cold) * 4, phase.len());
        }
    }

    #[test]
    fn duplicates_are_adjacent_and_due_together() {
        let (plan, _) = planned(9);
        let mut i = 0;
        while i < plan.len() {
            if plan[i].class == Class::Dup {
                assert_eq!(plan[i].req, plan[i + 1].req);
                assert_eq!(plan[i].slot, plan[i + 1].slot);
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    /// The winners' geomean holds still from seed to seed only because
    /// nearly every lattice point is explored whatever the seed.
    #[test]
    fn the_plan_explores_nearly_the_whole_lattice() {
        let (plan, _) = planned(9);
        let distinct: HashSet<&str> = plan.iter().map(|p| p.req.spec.as_str()).collect();
        let lattice = crate::gen::all_specs(false).len();
        assert!(
            distinct.len() * 100 >= lattice * 95,
            "{} of {lattice}",
            distinct.len()
        );
    }
}
