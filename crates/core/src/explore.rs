//! Joint exploration of mappings and schedules (paper §5.3).
//!
//! AMOS enumerates every valid mapping, then runs a genetic search over the
//! combined (mapping × schedule) space: candidates are screened with the
//! analytic performance model, and the most promising ones are measured on
//! the ground truth — real hardware in the paper, the timing simulator here.

use crate::generate::{MappingGenerator, MaskedMappings};
use crate::mapping::Mapping;
use crate::parallel::parallel_map;
use crate::perf_model::{self, predict_batch_with, predict_with, PerfBreakdown};
use amos_hw::AcceleratorSpec;
use amos_ir::ComputeDef;
use amos_sim::{
    AxisKind, BatchTables, GeneChange, MappedProgram, Schedule, ScreeningContext, SimError,
    TimingReport, BATCH_LANES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exploration failure modes.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ExploreError {
    /// No valid software-hardware mapping exists for the computation on the
    /// accelerator's intrinsic; callers typically fall back to scalar units.
    NoValidMapping {
        computation: String,
        intrinsic: String,
    },
    /// A simulator error escaped candidate repair.
    Sim(SimError),
    /// The [`ExplorerConfig`] cannot drive a search (e.g. an empty
    /// population or no survivors); rejected up front instead of panicking
    /// or looping forever mid-search.
    InvalidConfig { detail: String },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::NoValidMapping {
                computation,
                intrinsic,
            } => write!(f, "no valid mapping of `{computation}` onto `{intrinsic}`"),
            ExploreError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExploreError::InvalidConfig { detail } => {
                write!(f, "invalid explorer configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<SimError> for ExploreError {
    fn from(e: SimError) -> Self {
        ExploreError::Sim(e)
    }
}

/// Resource limits for one exploration run. All limits default to `None`
/// (unlimited); a violated limit stops the search **cooperatively at
/// generation boundaries**, returning the best candidate measured so far
/// instead of an error.
///
/// Counter-based limits (`max_measurements`, `max_evaluations`) truncate
/// deterministically: the stop generation is a pure function of the config,
/// so a truncated run is bit-identical to the prefix of the unlimited run.
/// `deadline_ms` is wall-clock and therefore stops at a machine-dependent
/// generation, but the result is still bit-deterministic *given* the stop
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit in milliseconds, measured from search entry.
    pub deadline_ms: Option<u64>,
    /// Maximum ground-truth measurements (timing simulations).
    pub max_measurements: Option<usize>,
    /// Maximum candidate evaluations (analytically screened slots).
    pub max_evaluations: Option<usize>,
}

impl Budget {
    /// `true` when no limit is set — the default.
    pub fn is_unlimited(&self) -> bool {
        self.deadline_ms.is_none()
            && self.max_measurements.is_none()
            && self.max_evaluations.is_none()
    }
}

/// A shared cooperative cancellation flag, checked at the same
/// phase/generation boundaries as the [`Budget`] limits.
///
/// Cloning the token shares the flag: any holder can [`CancelToken::cancel`]
/// and every exploration carrying a clone (via
/// [`ExplorerConfig::cancel`]) stops at its next boundary with
/// [`Completion::Cancelled`] and its best-so-far answer. This is the
/// Ctrl-C path of the CLI and the per-request abort path of `amosd`:
/// cancellation is always cooperative, so a cancelled run is a bit-identical
/// prefix of the uncancelled run, exactly like a deadline stop.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; safe from any thread (and from a signal
    /// watcher — it is a single atomic store).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Tokens compare by *identity* (two clones of one flag are equal, two
/// independent flags are not), so deriving `PartialEq` on configs that carry
/// one stays meaningful.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// How an exploration run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The full search ran with no quarantined candidates.
    Finished,
    /// The full search ran, but `quarantined` candidate evaluations
    /// panicked and were isolated; the result covers the survivors only.
    Degraded {
        /// Number of quarantined candidate evaluations.
        quarantined: usize,
    },
    /// A counter limit of the [`Budget`] was hit; the result is the best
    /// candidate measured before the stop generation.
    BudgetExhausted,
    /// The wall-clock deadline passed; the result is the best candidate
    /// measured before the stop generation.
    DeadlineExceeded,
    /// A [`CancelToken`] was raised (Ctrl-C, a withdrawn service request);
    /// the result is the best candidate measured before the stop generation.
    Cancelled,
}

impl Completion {
    /// `true` only for a full, fault-free run.
    pub fn is_finished(&self) -> bool {
        matches!(self, Completion::Finished)
    }

    /// `true` when the search stopped early on a [`Budget`] limit or a
    /// raised [`CancelToken`].
    pub fn is_truncated(&self) -> bool {
        matches!(
            self,
            Completion::BudgetExhausted | Completion::DeadlineExceeded | Completion::Cancelled
        )
    }

    /// Merge order: a truncation outranks degradation outranks a clean
    /// finish, the deadline outranks counters, and an explicit cancellation
    /// (the hardest stop) outranks everything.
    fn severity(&self) -> u8 {
        match self {
            Completion::Finished => 0,
            Completion::Degraded { .. } => 1,
            Completion::BudgetExhausted => 2,
            Completion::DeadlineExceeded => 3,
            Completion::Cancelled => 4,
        }
    }

    fn merge(self, other: Completion) -> Completion {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completion::Finished => write!(f, "finished"),
            Completion::Degraded { quarantined } => {
                write!(f, "degraded ({quarantined} quarantined)")
            }
            Completion::BudgetExhausted => write!(f, "budget exhausted"),
            Completion::DeadlineExceeded => write!(f, "deadline exceeded"),
            Completion::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// One quarantined candidate evaluation: enough identity to replay it
/// (`stream_rng(seed, generation, slot)` in `phase`) plus the panic payload
/// text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Evaluation phase (`"seed"`, `"screen"`, `"breed"`, `"measure"`,
    /// `"fallback"`).
    pub phase: &'static str,
    /// Generation the candidate belonged to.
    pub generation: u64,
    /// Candidate slot within the phase.
    pub slot: u64,
    /// The RNG seed of the run (refinement rounds derive their own).
    pub seed: u64,
    /// Panic payload text.
    pub detail: String,
}

impl fmt::Display for QuarantineRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} g{} s{} (seed {:#x}): {}",
            self.phase, self.generation, self.slot, self.seed, self.detail
        )
    }
}

/// Every candidate evaluation quarantined during one exploration run, in
/// deterministic (reduction) order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuarantineReport {
    /// The quarantined evaluations.
    pub records: Vec<QuarantineRecord>,
}

impl QuarantineReport {
    /// `true` when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of quarantined evaluations.
    pub fn len(&self) -> usize {
        self.records.len()
    }
}

/// Tuning knobs of the genetic explorer.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorerConfig {
    /// Candidates alive per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Candidates surviving selection each generation.
    pub survivors: usize,
    /// Top predicted candidates measured on the ground truth per generation.
    pub measure_top: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Worker threads for the refinement rounds, the independent searches
    /// inside one exploration; `0` means one per available CPU. A
    /// generation itself always runs on the calling thread (its candidates
    /// are microsecond tasks, below the cost of a pool hand-off). The search
    /// is bit-identical for every value of `jobs`: each candidate slot
    /// draws from its own RNG stream derived from `(seed, generation,
    /// slot)`, each round from its own seed, and rounds are merged in round
    /// order. A counter limit in [`ExplorerConfig::budget`] keeps the rounds
    /// sequential, so truncated runs stay prefixes of the unlimited run.
    pub jobs: usize,
    /// Resource limits; the default is unlimited. Like `jobs`, the budget
    /// never changes *which* candidates a generation evaluates — it only
    /// decides how many generations run.
    pub budget: Budget,
    /// Cooperative cancellation flag, consulted at the same boundaries as
    /// the [`Budget`]. `None` (the default) makes the run uninterruptible.
    /// Like the budget, the token is excluded from cache fingerprints: it
    /// never changes which candidates a generation evaluates, only whether
    /// a later generation runs.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault-injection plan (test harness; inert by default).
    #[cfg(feature = "fault-injection")]
    pub faults: crate::faultplan::FaultPlan,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            population: 32,
            generations: 8,
            survivors: 8,
            measure_top: 4,
            seed: 0x5eed,
            jobs: 0,
            budget: Budget::default(),
            cancel: None,
            #[cfg(feature = "fault-injection")]
            faults: crate::faultplan::FaultPlan::default(),
        }
    }
}

impl ExplorerConfig {
    /// The worker-thread count after resolving `jobs == 0` to
    /// [`crate::default_jobs`] (the `AMOS_JOBS` override, else the machine's
    /// available parallelism).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            crate::parallel::default_jobs()
        } else {
            self.jobs
        }
    }

    /// Rejects configurations that cannot drive a search. Run automatically
    /// at every exploration entry point.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidConfig`] when `population` or `survivors`
    /// is zero.
    pub fn validate(&self) -> Result<(), ExploreError> {
        if self.population == 0 {
            return Err(ExploreError::InvalidConfig {
                detail: "population must be at least 1".into(),
            });
        }
        if self.survivors == 0 {
            return Err(ExploreError::InvalidConfig {
                detail: "survivors must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Counters of the analytic screening pipeline for one exploration run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScreeningStats {
    /// Candidates ranked by a model prediction, computed over the
    /// precomputed [`ScreeningContext`] tables or inherited from a parent the
    /// model cannot tell the child from, summed over refinement rounds.
    pub screened: usize,
    /// Survivor predictions carried into the next generation's ranking
    /// without re-screening (the cross-generation memo).
    pub survivor_memo_hits: usize,
    /// Top-ranked candidates whose ground-truth measurement was answered by
    /// the measured-candidate memo (already simulated earlier, or duplicated
    /// within one measurement batch).
    pub measured_memo_hits: usize,
    /// Wall-clock seconds spent in the screening phases (population fill and
    /// breeding). The one non-deterministic field — excluded from the
    /// bit-identity guarantees.
    pub screen_seconds: f64,
}

impl ScreeningStats {
    /// Screened candidates per second; `0.0` when no time was recorded.
    pub fn throughput(&self) -> f64 {
        if self.screen_seconds > 0.0 {
            self.screened as f64 / self.screen_seconds
        } else {
            0.0
        }
    }

    fn absorb(&mut self, other: &ScreeningStats) {
        self.screened += other.screened;
        self.survivor_memo_hits += other.survivor_memo_hits;
        self.measured_memo_hits += other.measured_memo_hits;
        self.screen_seconds += other.screen_seconds;
    }
}

/// Flat SoA arena holding the genetic population: parallel arrays indexed by
/// slot, `live` marking the populated prefix. Slots beyond `live` keep their
/// `Schedule` buffers allocated so breeding fills them in place; compaction
/// swaps rejected slots' buffers toward the tail instead of dropping them.
#[derive(Default)]
struct PopulationArena {
    mapping_idx: Vec<usize>,
    predicted: Vec<f64>,
    schedules: Vec<Schedule>,
    live: usize,
    /// Ranking scratch: `(prediction's order key, source slot)` sorted, then
    /// which source slot each position holds and where each source slot is
    /// while the leading ranks are placed.
    order: Vec<(u64, usize)>,
    at: Vec<usize>,
    pos: Vec<usize>,
}

impl PopulationArena {
    /// Grows the arrays to at least `n` slots; placeholder schedules are
    /// empty and get filled by `reset_naive`/`clone_from`.
    fn ensure_slots(&mut self, n: usize) {
        while self.schedules.len() < n {
            self.schedules.push(Schedule::empty());
            self.mapping_idx.push(0);
            self.predicted.push(f64::INFINITY);
        }
    }

    /// Ranks the live prefix by predicted cycles and moves the first `keep`
    /// ranks into slots `0..keep`, in all three arrays: exactly the head of a
    /// stable sort over the insertion order. That much is load-bearing:
    /// predicted ties are common (the model ignores the toggle genes), the
    /// measured reduction walks rank order and parents are drawn by position.
    /// The caller passes the deepest rank it reads; the slots behind `keep`
    /// hold the remaining candidates in no particular order, each still with
    /// its own `Schedule` buffer, and are only ever overwritten by breeding.
    fn sort_live_by_predicted(&mut self, keep: usize) {
        let n = self.live;
        // Ties broken by slot: the stable order, from a sort over plain
        // integers that needs no scratch allocation.
        self.order.clear();
        let keyed = self.predicted[..n].iter().map(|&p| total_order_key(p));
        self.order.extend(keyed.zip(0..n));
        self.order.sort_unstable();
        // One swap per placed rank; `at`/`pos` track what each swap evicted.
        self.at.clear();
        self.at.extend(0..n);
        self.pos.clear();
        self.pos.extend(0..n);
        for rank in 0..keep.min(n) {
            let src = self.order[rank].1;
            let from = self.pos[src];
            if from != rank {
                self.mapping_idx.swap(rank, from);
                self.predicted.swap(rank, from);
                self.schedules.swap(rank, from);
                self.pos.swap(src, self.at[rank]);
                self.at.swap(rank, from);
            }
        }
    }

    /// Folds breeding metadata `(mapping_idx, predicted, accepted)` for the
    /// slots starting at `start` into the live prefix: accepted slots are
    /// compacted forward in slot order (swapping `Schedule` buffers, so
    /// rejected slots keep theirs for reuse) and `live` is updated.
    fn compact_accepted(&mut self, start: usize, metas: &[(usize, f64, bool)]) {
        let mut w = start;
        for (k, &(mapping_idx, predicted, accepted)) in metas.iter().enumerate() {
            if !accepted {
                continue;
            }
            let r = start + k;
            if w != r {
                self.schedules.swap(w, r);
            }
            self.mapping_idx[w] = mapping_idx;
            self.predicted[w] = predicted;
            w += 1;
        }
        self.live = w;
    }
}

/// The working set of one search: the population arena, the screening
/// scratch, one batch's sampling outcomes and metadata, the measured memo
/// and the heuristic seeds' schedule. A search overwrites every slot before
/// it reads it and clears the memo on entry, so a set keeps only capacity
/// from one search to the next, never anything that reaches an answer.
struct SearchBuffers {
    arena: PopulationArena,
    scratch: ScreenScratch,
    sampled: Vec<Sampled>,
    metas: Vec<(usize, f64, bool)>,
    measured: MeasuredSet,
    seed_schedule: Schedule,
}

thread_local! {
    /// The idle buffer sets of this thread. A search takes one for its
    /// duration, so a refinement round run on the thread of the search that
    /// started it takes another: a thread keeps one set per nesting level
    /// it has run, each as large as the largest search that used it.
    static SEARCH_BUFFERS: RefCell<Vec<SearchBuffers>> = const { RefCell::new(Vec::new()) };
}

impl SearchBuffers {
    /// Runs `f` over an idle set of this thread (a new one when none is
    /// idle) and gives the set back afterwards.
    fn with<R>(f: impl FnOnce(&mut SearchBuffers) -> R) -> R {
        let idle = SEARCH_BUFFERS.with(|sets| sets.borrow_mut().pop());
        let mut bufs = idle.unwrap_or_else(|| SearchBuffers {
            arena: PopulationArena::default(),
            scratch: ScreenScratch::default(),
            sampled: Vec::new(),
            metas: Vec::new(),
            measured: MeasuredSet::default(),
            seed_schedule: Schedule::empty(),
        });
        bufs.arena.live = 0;
        bufs.measured.clear();
        let out = f(&mut bufs);
        SEARCH_BUFFERS.with(|sets| sets.borrow_mut().push(bufs));
        out
    }
}

/// The integer whose unsigned order is [`f64::total_cmp`]'s order of `x`.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

/// The measured-candidate memo: the `(mapping, schedule)` pairs already sent
/// to the timing engine. Every measurement rank probes it by reference; a
/// schedule is copied only when its candidate is new, which is exactly when
/// it is simulated, and into a stored buffer an earlier search left behind
/// when there is one. Open addressing over a power-of-two table of indices
/// into `keys`, with an in-tree multiply-rotate hash (the keys come from the
/// search itself, never from outside the program) and exact equality on
/// every probe, so a hash collision can cost a step but never an answer.
#[derive(Default)]
struct MeasuredSet {
    /// The pairs, in insertion order; entries past `len` are buffers kept
    /// from before the last [`MeasuredSet::clear`].
    keys: Vec<(usize, Schedule)>,
    len: usize,
    /// `index + 1` into `keys`; `0` marks an empty slot.
    table: Vec<u32>,
}

impl MeasuredSet {
    fn hash(mapping_idx: usize, s: &Schedule) -> u64 {
        let toggles = s.double_buffer as u64 | (s.unroll as u64) << 1 | (s.vectorize as u64) << 2;
        let mut h = (mapping_idx as u64) << 3 | toggles;
        for genes in [&s.grid, &s.split_k, &s.subcore, &s.stage, &s.warp] {
            for &g in genes {
                h = (h.rotate_left(5) ^ g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
        }
        h >> 32
    }

    /// Empties the set, keeping every buffer.
    fn clear(&mut self) {
        self.len = 0;
        self.table.clear();
    }

    /// Adds the pair; `false` when it was already present.
    fn insert(&mut self, mapping_idx: usize, s: &Schedule) -> bool {
        if (self.len + 1) * 2 > self.table.len() {
            let size = (self.table.len() * 2).max(64);
            self.table.clear();
            self.table.resize(size, 0);
            for k in 0..self.len {
                let (m, stored) = &self.keys[k];
                let at = self.slot_of(*m, stored);
                self.table[at] = k as u32 + 1;
            }
        }
        let at = self.slot_of(mapping_idx, s);
        if self.table[at] != 0 {
            return false;
        }
        match self.keys.get_mut(self.len) {
            Some((m, stored)) => {
                *m = mapping_idx;
                stored.clone_from(s);
            }
            None => self.keys.push((mapping_idx, s.clone())),
        }
        self.len += 1;
        self.table[at] = self.len as u32;
        true
    }

    /// The table slot holding the pair, or the empty slot it belongs in.
    fn slot_of(&self, mapping_idx: usize, s: &Schedule) -> usize {
        let mask = self.table.len() - 1;
        let mut at = Self::hash(mapping_idx, s) as usize & mask;
        while let Some(k) = (self.table[at] as usize).checked_sub(1) {
            if self.keys[k].0 == mapping_idx && self.keys[k].1 == *s {
                break;
            }
            at = (at + 1) & mask;
        }
        at
    }
}

/// Result of one exploration run.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// The winning mapping.
    pub best_mapping: Mapping,
    /// The winning mapping, lowered.
    pub best_program: MappedProgram,
    /// The winning schedule.
    pub best_schedule: Schedule,
    /// Ground-truth report of the winner.
    pub best_report: TimingReport,
    /// Every (predicted, measured) pair evaluated on the ground truth, in
    /// evaluation order — the raw data behind Figure 5.
    pub evaluations: Vec<(f64, f64)>,
    /// Size of the enumerated mapping space.
    pub num_mappings: usize,
    /// Ground-truth simulations that failed (infeasible schedules poisoned
    /// to `f64::INFINITY`, failed heuristic seeds and fallback attempts),
    /// summed over refinement rounds. Deterministic for a given seed.
    pub sim_failures: usize,
    /// Screening-pipeline counters (candidates screened, memo hits, screen
    /// time), summed over refinement rounds. All fields except
    /// `screen_seconds` are deterministic for a given seed.
    pub screening: ScreeningStats,
    /// How the run ended: complete, degraded by quarantined candidates, or
    /// truncated by a [`Budget`] limit.
    pub completion: Completion,
    /// Generation-loop iterations fully completed before the run ended,
    /// summed over refinement rounds and (for multi-intrinsic accelerators)
    /// units.
    pub generations_completed: usize,
    /// Candidate evaluations that panicked and were isolated.
    pub quarantine: QuarantineReport,
}

impl ExplorationResult {
    /// Best measured cycles.
    pub fn cycles(&self) -> f64 {
        self.best_report.cycles
    }
}

/// Run-wide budget state shared by every phase of one top-level exploration
/// (including refinement sub-runs and multi-intrinsic units): the clock,
/// cancellation flag and counters consulted at generation boundaries.
/// Quarantine records travel in each run's own result instead, so
/// concurrent refinement rounds never interleave theirs.
struct Supervisor {
    deadline: Option<Instant>,
    max_measurements: Option<usize>,
    max_evaluations: Option<usize>,
    cancel: Option<CancelToken>,
    measurements: AtomicUsize,
    evaluations: AtomicUsize,
}

impl Supervisor {
    fn new(config: &ExplorerConfig) -> Self {
        let budget = &config.budget;
        Supervisor {
            deadline: budget
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            max_measurements: budget.max_measurements,
            max_evaluations: budget.max_evaluations,
            cancel: config.cancel.clone(),
            measurements: AtomicUsize::new(0),
            evaluations: AtomicUsize::new(0),
        }
    }

    /// Records `n` ground-truth measurements. Called with per-phase batch
    /// sizes, which are deterministic, so counter-based truncation stops at
    /// the same generation on every machine and thread count.
    fn note_measurements(&self, n: usize) {
        self.measurements.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` candidate evaluations (screened slots).
    fn note_evaluations(&self, n: usize) {
        self.evaluations.fetch_add(n, Ordering::Relaxed);
    }

    /// The cooperative cancellation point: `Some` once a budget limit is
    /// violated. Only consulted at phase/generation boundaries.
    fn check(&self) -> Option<Completion> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Some(Completion::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Completion::DeadlineExceeded);
            }
        }
        if let Some(max) = self.max_measurements {
            if self.measurements.load(Ordering::Relaxed) >= max {
                return Some(Completion::BudgetExhausted);
            }
        }
        if let Some(max) = self.max_evaluations {
            if self.evaluations.load(Ordering::Relaxed) >= max {
                return Some(Completion::BudgetExhausted);
            }
        }
        None
    }

    /// `true` when a counter limit is set. Counter truncation promises a
    /// bit-identical prefix of the unlimited run, which holds only while
    /// refinement rounds draw on the shared counters one after another.
    fn has_counter_limit(&self) -> bool {
        self.max_measurements.is_some() || self.max_evaluations.is_some()
    }
}

/// Top-level finalisation: a clean finish with a non-empty quarantine log
/// becomes [`Completion::Degraded`].
fn finalize(mut result: ExplorationResult) -> ExplorationResult {
    if result.completion == Completion::Finished && !result.quarantine.is_empty() {
        result.completion = Completion::Degraded {
            quarantined: result.quarantine.len(),
        };
    }
    result
}

/// One per-intrinsic exploration unit of a (possibly heterogeneous)
/// accelerator: the hierarchy re-targeted at a single intrinsic, with its
/// mapping set enumerated as masks and its first program lowered. Produced
/// stage-by-stage by the [`crate::Engine`] pipeline and consumed by
/// [`Explorer::explore_units`].
#[derive(Debug, Clone)]
pub(crate) struct LoweredUnit {
    /// The accelerator re-targeted at this unit's intrinsic.
    pub(crate) accel: AcceleratorSpec,
    /// The unit's programs; `None` when its intrinsic admits no mapping.
    pub(crate) programs: Option<UnitPrograms>,
}

/// The programs of one exploration unit, one per mapping, as a search reads
/// them through [`LazyContexts`]: program 0 lowered, every other one lowered
/// from its masks on first read as a [`MappedProgram::sibling`] of program
/// 0. The masks always lower: an enumeration admits only definitions that
/// fit a program's 64 loop axes, and [`Explorer::mask_mappings`] checks a
/// caller's list.
#[derive(Debug, Clone)]
pub(crate) struct UnitPrograms {
    first: MappedProgram,
    set: MaskedMappings,
}

impl UnitPrograms {
    /// Number of programs, lowered or not.
    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }
}

/// The genetic mapping-and-schedule explorer.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    config: ExplorerConfig,
    generator: MappingGenerator,
}

impl Explorer {
    /// Explorer with default configuration and policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Explorer with a custom configuration.
    pub fn with_config(config: ExplorerConfig) -> Self {
        Explorer {
            config,
            generator: MappingGenerator::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ExplorerConfig {
        &self.config
    }

    /// Explores the joint space for `def` on `accel` and returns the best
    /// measured candidate.
    ///
    /// # Errors
    ///
    /// [`ExploreError::NoValidMapping`] when the enumeration is empty.
    pub fn explore(
        &self,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Result<ExplorationResult, ExploreError> {
        self.explore_mappings(def, accel, None)
    }

    /// Explores across *every* intrinsic of a heterogeneous accelerator
    /// (e.g. an Ascend-style NPU with both cube and vector units) and keeps
    /// the best mapping over all of them. This is the composition of the
    /// staged [`crate::Engine`] pipeline: decompose into units, enumerate,
    /// lower, then run the merge loop.
    ///
    /// # Errors
    ///
    /// [`ExploreError::NoValidMapping`] when no intrinsic admits a mapping.
    pub fn explore_multi(
        &self,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Result<ExplorationResult, ExploreError> {
        let units = self
            .unit_accelerators(accel)
            .into_iter()
            .map(|unit| {
                let programs = self.lower_unit(def, &unit, self.enumerate_unit(def, &unit))?;
                Ok(LoweredUnit {
                    accel: unit,
                    programs,
                })
            })
            .collect::<Result<Vec<_>, ExploreError>>()?;
        self.explore_units(def, accel, &units)
    }

    /// Decomposes a (possibly heterogeneous) accelerator into per-intrinsic
    /// exploration units: the same hierarchy re-targeted at each intrinsic
    /// in turn, with the extra intrinsics cleared.
    pub(crate) fn unit_accelerators(&self, accel: &AcceleratorSpec) -> Vec<AcceleratorSpec> {
        accel
            .all_intrinsics()
            .map(|intrinsic| {
                let mut unit = accel.clone();
                unit.intrinsic = intrinsic.clone();
                unit.extra_intrinsics.clear();
                unit
            })
            .collect()
    }

    /// Enumerates the valid-mapping set of one unit's intrinsic.
    pub(crate) fn enumerate_unit(
        &self,
        def: &ComputeDef,
        unit: &AcceleratorSpec,
    ) -> MaskedMappings {
        self.generator.enumerate_masks(def, &unit.intrinsic)
    }

    /// Lowers the first mapping of a unit's set, which derives what its
    /// programs share; the search lowers the others the first time it reads
    /// them ([`UnitPrograms`]). `None` for an empty set.
    pub(crate) fn lower_unit(
        &self,
        def: &ComputeDef,
        unit: &AcceleratorSpec,
        set: MaskedMappings,
    ) -> Result<Option<UnitPrograms>, ExploreError> {
        if set.is_empty() {
            return Ok(None);
        }
        let (groups, corr) = (set.groups(0), set.correspondence(0).to_vec());
        let first = MappedProgram::new(def.clone(), unit.intrinsic.clone(), groups, corr)?;
        Ok(Some(UnitPrograms { first, set }))
    }

    /// A caller's mapping list as the masks an enumeration yields, so every
    /// group lists its iterations in declaration order. Each mapping is
    /// first checked as a [`MappedProgram::sibling`] of the first one's
    /// [`MappedProgram::new`] (then dropped), in list order: the first that
    /// cannot lower fails with lowering's typed error.
    fn mask_mappings(
        &self,
        def: &ComputeDef,
        unit: &AcceleratorSpec,
        mappings: &[Mapping],
    ) -> Result<MaskedMappings, ExploreError> {
        let mut set = MaskedMappings::default();
        let Some(head) = mappings.first() else {
            return Ok(set);
        };
        let (groups, corr) = (head.groups.clone(), head.correspondence.clone());
        let first = MappedProgram::new(def.clone(), unit.intrinsic.clone(), groups, corr)?;
        let iters = def.iters().len();
        for m in mappings {
            first.sibling(m.groups.clone(), m.correspondence.clone())?;
            let masks = m
                .group_masks(iters)
                .ok_or_else(|| SimError::MalformedMapping {
                    detail: format!("{iters} iterations exceed the 64-bit mapping masks"),
                })?;
            set.push(&masks, &m.correspondence);
        }
        Ok(set)
    }

    /// The multi-unit merge loop over pre-lowered units: explores each unit
    /// that admits at least one mapping, keeps the best measured winner and
    /// merges the evaluation/screening counters across units. Shared by
    /// [`Explorer::explore_multi`] and the staged [`crate::Engine`] pipeline,
    /// so both produce bit-identical results.
    pub(crate) fn explore_units(
        &self,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
        units: &[LoweredUnit],
    ) -> Result<ExplorationResult, ExploreError> {
        self.config.validate()?;
        let sup = Supervisor::new(&self.config);
        let mut best: Option<ExplorationResult> = None;
        let mut evaluations = Vec::new();
        let mut num_mappings = 0usize;
        let mut sim_failures = 0usize;
        let mut screening = ScreeningStats::default();
        let mut completion = Completion::Finished;
        let mut generations_completed = 0usize;
        let mut quarantine = QuarantineReport::default();
        for unit in units {
            // A unit whose intrinsic admits no mapping simply contributes
            // nothing, exactly like the per-unit `NoValidMapping` of the
            // unstaged path.
            let Some(programs) = &unit.programs else {
                continue;
            };
            let ctxs = LazyContexts::new(programs, &unit.accel);
            let mut result = self.explore_programs(&unit.accel, &ctxs, self.config.seed, &sup)?;
            quarantine.records.append(&mut result.quarantine.records);
            evaluations.extend(result.evaluations.iter().copied());
            num_mappings += result.num_mappings;
            sim_failures += result.sim_failures;
            screening.absorb(&result.screening);
            completion = completion.merge(result.completion);
            generations_completed += result.generations_completed;
            let better = best
                .as_ref()
                .map(|b| result.cycles() < b.cycles())
                .unwrap_or(true);
            if better {
                best = Some(result);
            }
            // The budget covers the whole multi-unit search: once a unit
            // truncates, later units must not start.
            if completion.is_truncated() {
                break;
            }
        }
        let mut best = best.ok_or_else(|| ExploreError::NoValidMapping {
            computation: def.name().to_string(),
            intrinsic: accel
                .all_intrinsics()
                .map(|i| i.name.clone())
                .collect::<Vec<_>>()
                .join("|"),
        })?;
        best.evaluations = evaluations;
        best.num_mappings = num_mappings;
        best.sim_failures = sim_failures;
        best.screening = screening;
        best.completion = completion;
        best.generations_completed = generations_completed;
        best.quarantine = quarantine;
        Ok(finalize(best))
    }

    /// Explores with a fixed mapping set (used by the fixed-mapping baseline
    /// ablations of paper §7.6, which keep AMOS's schedule tuner but freeze
    /// the mapping), or with the enumerated set when `fixed` is `None`.
    ///
    /// A fused group is a set (Def 4.3): the search reads a caller's
    /// mappings as per-axis masks, so every group, the winner's included,
    /// comes back in declaration order; that order changes no predicted,
    /// simulated or executed result.
    ///
    /// Lowering and the generation loop (sampling, screening, simulation,
    /// breeding) run on the calling thread; with more than one mapping, the
    /// up-to-three refinement rounds that follow run as one wave on
    /// [`ExplorerConfig::jobs`] worker threads. The search is deterministic
    /// for a given seed: every candidate slot draws from its own RNG stream
    /// keyed by `(seed, generation, slot)`, every round from its own seed,
    /// and rounds are merged in round order, so the winner is bit-identical
    /// for any thread count.
    ///
    /// # Errors
    ///
    /// [`ExploreError::NoValidMapping`] for an empty set; before the search
    /// starts, [`ExploreError::Sim`] for the first listed mapping that cannot
    /// lower or has more than 64 iterations.
    pub fn explore_mappings(
        &self,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
        fixed: Option<Vec<Mapping>>,
    ) -> Result<ExplorationResult, ExploreError> {
        self.config.validate()?;
        let sup = Supervisor::new(&self.config);
        let set = match fixed {
            Some(mappings) => self.mask_mappings(def, accel, &mappings)?,
            None => self.enumerate_unit(def, accel),
        };
        let Some(programs) = self.lower_unit(def, accel, set)? else {
            return Err(ExploreError::NoValidMapping {
                computation: def.name().to_string(),
                intrinsic: accel.intrinsic.name.clone(),
            });
        };
        let ctxs = LazyContexts::new(&programs, accel);
        let result = self.explore_programs(accel, &ctxs, self.config.seed, &sup)?;
        Ok(finalize(result))
    }

    /// The generation loop over one unit's programs, each lowered and
    /// screened the first time the loop reads it. Every phase of a
    /// generation (sampling, screening, measurement, breeding) runs on the
    /// calling thread: a generation is microseconds of work, less than one
    /// pool hand-off. The one parallel step is the refinement wave at the
    /// end, which re-enters this function on a one-program unit holding the
    /// shortlisted program as the search built it (so it is never re-lowered
    /// and no `Explorer`/`ExplorerConfig` clones are made), one long task
    /// per round.
    ///
    /// Fault tolerance: every candidate evaluation runs inside
    /// [`amos_sim::isolate::run_isolated`], so a panicking candidate is
    /// logged in the result's quarantine report instead of unwinding the
    /// search; the budget in `sup` is checked cooperatively at phase and
    /// generation boundaries.
    ///
    /// The search's buffers come from the calling thread's idle sets
    /// ([`SearchBuffers`]), so a thread that searches again allocates only
    /// for what the new search adds.
    fn explore_programs(
        &self,
        accel: &AcceleratorSpec,
        ctxs: &LazyContexts<'_>,
        seed: u64,
        sup: &Supervisor,
    ) -> Result<ExplorationResult, ExploreError> {
        SearchBuffers::with(|bufs| self.search(accel, ctxs, seed, sup, bufs))
    }

    /// [`Explorer::explore_programs`] over one buffer set.
    fn search(
        &self,
        accel: &AcceleratorSpec,
        ctxs: &LazyContexts<'_>,
        seed: u64,
        sup: &Supervisor,
        bufs: &mut SearchBuffers,
    ) -> Result<ExplorationResult, ExploreError> {
        let SearchBuffers {
            arena,
            scratch,
            sampled,
            metas,
            measured,
            seed_schedule,
        } = bufs;
        // `Some` once a budget limit fires: later phases are skipped and the
        // best-so-far is returned with the truncation status.
        let mut truncated: Option<Completion> = sup.check();
        // No context can be built without hierarchy levels: refused before
        // any candidate asks for one.
        ScreeningContext::require_levels(accel)?;
        let num_mappings = ctxs.len();
        let mut screened = 0usize;
        let mut survivor_memo_hits = 0usize;
        let mut measured_memo_hits = 0usize;
        let mut screen_seconds = 0f64;
        // Isolated panics of this run, in evaluation order.
        let mut quarantine: Vec<QuarantineRecord> = Vec::new();
        let mut log_panic = |phase, generation: u64, slot: u64, detail| {
            quarantine.push(QuarantineRecord {
                phase,
                generation,
                slot,
                seed,
                detail,
            })
        };

        let mut evaluations: Vec<(f64, f64)> = Vec::new();
        let mut sim_failures = 0usize;
        let mut best: Option<(usize, Schedule, TimingReport)> = None;
        // Best measured cycles per mapping, for refinement shortlisting.
        let mut best_per_mapping: BTreeMap<usize, f64> = BTreeMap::new();

        // ---- heuristic seeds ------------------------------------------------
        // Measure the balanced heuristic schedule for a spread of mappings up
        // front. This anchors the search at the quality a hand-tuned library
        // ships (the library's fixed mapping is in our space), so exploration
        // can only improve on it.
        if truncated.is_none() {
            let seed_count = num_mappings.min(64);
            let stride = (num_mappings / seed_count.max(1)).max(1);
            let mut seeds = 0usize;
            for (i, idx) in (0..num_mappings)
                .step_by(stride)
                .take(seed_count)
                .enumerate()
            {
                seeds += 1;
                let slot = i as u64;
                match self.measure_balanced("seed", seed, slot, ctxs, idx, seed_schedule) {
                    Err(detail) => log_panic("seed", 0, slot, detail),
                    Ok(None) => sim_failures += 1,
                    Ok(Some((predicted, report))) => {
                        screened += 1;
                        evaluations.push((predicted, report.cycles));
                        let e = best_per_mapping.entry(idx).or_insert(f64::INFINITY);
                        *e = e.min(report.cycles);
                        if best
                            .as_ref()
                            .is_none_or(|(_, _, b)| report.cycles < b.cycles)
                        {
                            best = Some((idx, seed_schedule.clone(), report));
                        }
                    }
                }
            }
            sup.note_measurements(seeds);
            sup.note_evaluations(seeds);
            truncated = sup.check();
        }

        // ---- initial population --------------------------------------------
        // Sampling: one RNG stream per slot, each slot *sampled* into a
        // reusable `Schedule` buffer of a flat arena — so the population
        // depends on `(seed, slot)` only, never on evaluation order.
        // [`screen_sampled`] then ranks every sampled slot through the
        // batched model, bit-identical to per-candidate `predict_with`.
        arena.ensure_slots(self.config.population);
        sampled.clear();
        if truncated.is_none() {
            let screen_start = Instant::now();
            for (slot, sched) in arena.schedules[..self.config.population]
                .iter_mut()
                .enumerate()
            {
                let outcome = amos_sim::isolate::run_isolated(|| -> Result<Sampled, SimError> {
                    self.injected_fault("screen", seed, 0, slot as u64)?;
                    let mut rng = stream_rng(seed, 0, slot as u64);
                    let mapping_idx = rng.gen_range(0..num_mappings);
                    random_schedule_into(ctxs.get(mapping_idx), sched, &mut rng, true);
                    Ok(Sampled::Fresh(mapping_idx))
                });
                sampled.push(match outcome {
                    Ok(Ok(sampled)) => sampled,
                    // An injected `SimError` concedes the slot.
                    Ok(Err(_)) => Sampled::Conceded,
                    Err(detail) => {
                        log_panic("screen", 0, slot as u64, detail);
                        Sampled::Conceded
                    }
                });
            }
            screen_sampled(
                ctxs,
                &arena.schedules,
                0,
                sampled,
                &mut screened,
                scratch,
                metas,
            );
            sup.note_evaluations(self.config.population);
            arena.compact_accepted(0, metas);
            screen_seconds += screen_start.elapsed().as_secs_f64();
        }

        let mut generations_completed = 0usize;
        for generation in 0..self.config.generations {
            if truncated.is_none() {
                truncated = sup.check();
            }
            if truncated.is_some() {
                break;
            }
            // Stable order: ties keep slot order, which is deterministic.
            // Ranks are read as deep as measurement and selection below go.
            arena.sort_live_by_predicted(self.config.survivors.max(self.config.measure_top));

            // Measure the most promising unmeasured candidates on the ground
            // truth, in rank order. Every outcome lands in `measured` at
            // once, so a duplicate further down the same batch is a memo hit
            // like one from an earlier generation.
            let mut measurements = 0usize;
            for rank in 0..arena.live.min(self.config.measure_top) {
                let (idx, schedule) = (arena.mapping_idx[rank], &arena.schedules[rank]);
                // Whatever the outcome below, the candidate is never
                // measured again.
                if !measured.insert(idx, schedule) {
                    measured_memo_hits += 1;
                    continue;
                }
                measurements += 1;
                let outcome = amos_sim::isolate::run_isolated(|| {
                    self.injected_fault("measure", seed, generation as u64, rank as u64)
                        .ok()?;
                    ctxs.get(idx).simulate(schedule)
                });
                match outcome {
                    // Quarantined (not a sim failure): logged.
                    Err(detail) => log_panic("measure", generation as u64, rank as u64, detail),
                    // Infeasible on hardware.
                    Ok(None) => sim_failures += 1,
                    Ok(Some(report)) => {
                        let cycles = report.cycles;
                        evaluations.push((arena.predicted[rank], cycles));
                        let e = best_per_mapping.entry(idx).or_insert(f64::INFINITY);
                        *e = e.min(cycles);
                        if best.as_ref().is_none_or(|(_, _, b)| cycles < b.cycles) {
                            best = Some((idx, schedule.clone(), report));
                        }
                    }
                }
            }
            sup.note_measurements(measurements);

            // Selection + mutation. Survivors keep their slots *and* their
            // predictions (the cross-generation memo: they are never
            // re-screened); children are bred into the tail slots, each on
            // its own (seed, generation, slot) stream. A child of its
            // parent's mapping pays for what its mutation changed
            // ([`mutate_child`]); one that jumped mappings is sampled afresh.
            arena.live = arena.live.min(self.config.survivors.max(1));
            if arena.live == 0 {
                generations_completed = generation + 1;
                continue;
            }
            if generation + 1 < self.config.generations {
                survivor_memo_hits += arena.live;
            }
            let survivors = arena.live;
            let wanted = self.config.population.saturating_sub(survivors);
            arena.ensure_slots(survivors + wanted);
            let screen_start = Instant::now();
            let bred = generation as u64 + 1;
            let (parents, rest) = arena.schedules.split_at_mut(survivors);
            let parent_maps = &arena.mapping_idx[..survivors];
            let parent_predicted = &arena.predicted[..survivors];
            sampled.clear();
            for (slot, sched) in rest[..wanted].iter_mut().enumerate() {
                let outcome = amos_sim::isolate::run_isolated(|| -> Result<Sampled, SimError> {
                    self.injected_fault("breed", seed, bred, slot as u64)?;
                    let mut rng = stream_rng(seed, bred, slot as u64);
                    let p = rng.gen_range(0..parents.len());
                    let mut mapping_idx = parent_maps[p];
                    // Occasionally jump to a different mapping entirely.
                    if rng.gen_bool(0.2) {
                        mapping_idx = rng.gen_range(0..num_mappings);
                    }
                    let ctx = ctxs.get(mapping_idx);
                    if mapping_idx == parent_maps[p] {
                        sched.clone_from(&parents[p]);
                        let inherited = parent_predicted[p];
                        return Ok(mutate_child(ctx, mapping_idx, sched, &mut rng, inherited));
                    }
                    random_schedule_into(ctx, sched, &mut rng, true);
                    mutate_schedule_ctx(ctx, sched, &mut rng);
                    Ok(Sampled::Fresh(mapping_idx))
                });
                sampled.push(match outcome {
                    Ok(Ok(sampled)) => sampled,
                    Ok(Err(_)) => Sampled::Conceded,
                    Err(detail) => {
                        log_panic("breed", bred, slot as u64, detail);
                        Sampled::Conceded
                    }
                });
            }
            screen_sampled(
                ctxs,
                &arena.schedules,
                survivors,
                sampled,
                &mut screened,
                scratch,
                metas,
            );
            sup.note_evaluations(wanted);
            arena.compact_accepted(survivors, metas);
            screen_seconds += screen_start.elapsed().as_secs_f64();
            generations_completed = generation + 1;
        }

        // Guarantee at least one measured candidate: fall back to the
        // balanced schedule of every mapping in turn and keep the best
        // attempt. On a truncated run the sweep stops at the first mapping
        // that simulates (bounded work past the deadline, still
        // deterministic in mapping order).
        if best.is_none() {
            let mut attempts = 0usize;
            for idx in 0..num_mappings {
                attempts += 1;
                let slot = idx as u64;
                match self.measure_balanced("fallback", seed, slot, ctxs, idx, seed_schedule) {
                    Err(detail) => log_panic("fallback", 0, slot, detail),
                    Ok(None) => sim_failures += 1,
                    Ok(Some((predicted, report))) => {
                        screened += 1;
                        evaluations.push((predicted, report.cycles));
                        if best
                            .as_ref()
                            .is_none_or(|(_, _, b)| report.cycles < b.cycles)
                        {
                            best = Some((idx, seed_schedule.clone(), report));
                        }
                        if truncated.is_some() {
                            break;
                        }
                    }
                }
            }
            sup.note_measurements(attempts);
        }

        let (mut idx, mut schedule, mut report) =
            best.ok_or(ExploreError::Sim(SimError::InvalidSchedule {
                detail: "no candidate could be simulated".into(),
            }))?;

        // ---- refinement phase ------------------------------------------------
        // The joint search spreads its budget across the whole mapping space
        // and may misrank mappings at shallow tuning depth. Shortlist the
        // three best-measured mappings and dedicate a full-depth pass to
        // each, so the eventual winner's schedule is tuned at least as
        // deeply as a frozen-mapping baseline would tune it. This keeps
        // AMOS's search a strict superset of the fixed-mapping ablations
        // (paper §7.6).
        let mut screening = ScreeningStats {
            screened,
            survivor_memo_hits,
            measured_memo_hits,
            screen_seconds,
        };

        if num_mappings > 1 && truncated.is_none() {
            let mut shortlist: Vec<(usize, f64)> =
                best_per_mapping.iter().map(|(&i, &c)| (i, c)).collect();
            shortlist.sort_by(|a, b| a.1.total_cmp(&b.1));
            shortlist.truncate(3);
            // Every shortlisted mapping was measured, so its program is built.
            let shortlisted: Vec<&MappedProgram> =
                shortlist.iter().map(|&(i, _)| ctxs.program(i)).collect();
            // The rounds are independently seeded full-depth searches —
            // milliseconds each, the only tasks in a search worth a pool
            // hand-off — so they run as one wave and merge in round order
            // below. A counter limit keeps them on this thread: which
            // generation it fires in depends on the rounds drawing on the
            // shared counters one after another.
            let jobs = if sup.has_counter_limit() {
                1
            } else {
                self.config.effective_jobs()
            };
            let rounds = parallel_map(jobs, shortlist.len(), |round| {
                if let Some(stop) = sup.check() {
                    return Err(stop);
                }
                // Re-enter the generation loop on a one-program unit: the
                // program (and its screening context) is reused as-is.
                let refine_seed = seed.wrapping_add(round as u64) ^ 0x9e3779b97f4a7c15;
                let ctxs = LazyContexts::over(shortlisted[round], None, accel);
                Ok(self.explore_programs(accel, &ctxs, refine_seed, sup))
            });
            for (&(ridx, _), outcome) in shortlist.iter().zip(rounds) {
                // A round the shared budget stopped — before it started
                // (`Err`) or part-way — carries the truncation status up.
                let stop = match outcome {
                    Err(stop) => Some(stop),
                    Ok(Err(_)) => None,
                    Ok(Ok(mut refined)) => {
                        evaluations.extend(refined.evaluations.iter().copied());
                        sim_failures += refined.sim_failures;
                        screening.absorb(&refined.screening);
                        generations_completed += refined.generations_completed;
                        quarantine.append(&mut refined.quarantine.records);
                        if refined.best_report.cycles < report.cycles {
                            schedule = refined.best_schedule;
                            report = refined.best_report;
                            idx = ridx;
                        }
                        Some(refined.completion).filter(Completion::is_truncated)
                    }
                };
                if let Some(stop) = stop {
                    truncated = Some(truncated.map_or(stop, |t| t.merge(stop)));
                }
            }
        }

        let best_program = ctxs.program(idx);
        Ok(ExplorationResult {
            best_mapping: Mapping::of_program(best_program),
            best_program: best_program.clone(),
            best_schedule: schedule,
            best_report: report,
            evaluations,
            num_mappings,
            sim_failures,
            screening,
            completion: truncated.unwrap_or(Completion::Finished),
            generations_completed,
            quarantine: QuarantineReport {
                records: quarantine,
            },
        })
    }

    /// Measures the balanced heuristic schedule of program `idx`, written
    /// into `schedule`, on the ground truth (the heuristic seeds and the
    /// fallback sweep), isolated like every other candidate evaluation, the
    /// context fetch included: `Err` carries a panic payload, `None` an
    /// infeasible schedule or an injected error.
    fn measure_balanced(
        &self,
        phase: &'static str,
        seed: u64,
        slot: u64,
        ctxs: &LazyContexts<'_>,
        idx: usize,
        schedule: &mut Schedule,
    ) -> Result<Option<(f64, TimingReport)>, String> {
        amos_sim::isolate::run_isolated(|| {
            self.injected_fault(phase, seed, 0, slot).ok()?;
            let ctx = ctxs.get(idx);
            Schedule::balanced_into(ctx, schedule);
            let report = ctx.simulate(schedule)?;
            let predicted = predict_with(ctx, schedule)
                .map(|b| b.cycles)
                .unwrap_or(report.cycles);
            Some((predicted, report))
        })
    }

    /// Consults the configured [`crate::faultplan::FaultPlan`] for the
    /// candidate identified by `(phase, seed, generation, slot)`: may panic
    /// (caught by the surrounding isolation boundary), sleep, or return an
    /// injected error. Compiled to a no-op without the `fault-injection`
    /// feature.
    #[cfg(feature = "fault-injection")]
    fn injected_fault(
        &self,
        phase: &'static str,
        seed: u64,
        generation: u64,
        slot: u64,
    ) -> Result<(), SimError> {
        use crate::faultplan::Fault;
        match self.config.faults.draw(phase, seed, generation, slot) {
            None => Ok(()),
            Some(Fault::Panic) => {
                panic!("injected fault: {phase} g{generation} s{slot}")
            }
            Some(Fault::SimError) => Err(SimError::InvalidSchedule {
                detail: format!("injected fault: {phase} g{generation} s{slot}"),
            }),
            Some(Fault::Delay) => {
                std::thread::sleep(Duration::from_micros(self.config.faults.delay_micros));
                Ok(())
            }
        }
    }

    #[cfg(not(feature = "fault-injection"))]
    #[inline(always)]
    fn injected_fault(
        &self,
        _phase: &'static str,
        _seed: u64,
        _generation: u64,
        _slot: u64,
    ) -> Result<(), SimError> {
        Ok(())
    }
}

/// One run's programs and their screening contexts, each program lowered
/// from its masks (all but program 0) and screened the first time the run
/// samples, seeds or measures that mapping. All per-candidate model queries
/// and feasibility probes run over these precomputed tables, with no
/// allocation on the hot path. A default-depth search touches a few hundred
/// of a mapping space that can hold thousands, and a program and its context
/// are pure functions of `(mapping, accelerator)`, so building them on demand
/// changes no result.
struct LazyContexts<'a> {
    /// Program 0, lowered before the run.
    first: &'a MappedProgram,
    /// The unit's mappings, each but the first lowered on its first read as
    /// a sibling of `first`; `None` for a refinement round's one program.
    masks: Option<&'a MaskedMappings>,
    accel: &'a AcceleratorSpec,
    cells: Vec<OnceCell<Touched<'a>>>,
}

/// A program the run has read, and its context.
struct Touched<'a> {
    program: Cow<'a, MappedProgram>,
    ctx: Arc<ScreeningContext>,
}

impl<'a> LazyContexts<'a> {
    fn new(programs: &'a UnitPrograms, accel: &'a AcceleratorSpec) -> Self {
        Self::over(&programs.first, Some(&programs.set), accel)
    }

    fn over(
        first: &'a MappedProgram,
        masks: Option<&'a MaskedMappings>,
        accel: &'a AcceleratorSpec,
    ) -> Self {
        let len = masks.map_or(1, MaskedMappings::len);
        LazyContexts {
            first,
            masks,
            accel,
            cells: (0..len).map(|_| OnceCell::new()).collect(),
        }
    }

    /// Number of programs, touched or not.
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn touch(&self, idx: usize) -> &Touched<'a> {
        self.cells[idx].get_or_init(|| {
            let program = match self.masks {
                Some(set) if idx > 0 => Cow::Owned(
                    self.first
                        .sibling(set.groups(idx), set.correspondence(idx).to_vec())
                        .expect("a unit's masks lower"),
                ),
                _ => Cow::Borrowed(self.first),
            };
            let ctx = program.screening_context(self.accel);
            Touched { program, ctx }
        })
    }

    /// The context of program `idx`.
    fn get(&self, idx: usize) -> &ScreeningContext {
        &self.touch(idx).ctx
    }

    /// Program `idx`.
    fn program(&self, idx: usize) -> &MappedProgram {
        &self.touch(idx).program
    }
}

/// Reusable buffers for [`screen_sampled`]: the mapping-grouped slot order,
/// the batched integer tables and the per-chunk prediction outputs. One
/// instance lives across every generation of a run, so screening allocates
/// nothing after the first batch.
#[derive(Default)]
struct ScreenScratch {
    /// `(mapping_idx, slot)` pairs of the fresh slots, sorted so equal
    /// mappings are adjacent (chunks share one context).
    order: Vec<(usize, usize)>,
    tables: BatchTables,
    out: Vec<Result<PerfBreakdown, SimError>>,
}

/// What sampling left in one slot of a screening batch.
#[derive(Clone, Copy)]
enum Sampled {
    /// Given up to an injected fault or a quarantined panic: never ranked.
    Conceded,
    /// A schedule of this mapping the model has yet to see.
    Fresh(usize),
    /// A schedule of this mapping that the model cannot tell from the one it
    /// was copied from, with that one's prediction.
    Inherited(usize, f64),
}

/// Ranks one batch of sampled slots (`schedules[start..]`, one entry of
/// `sampled` each) and rebuilds `metas` in slot order for
/// [`PopulationArena::compact_accepted`]. An inherited slot is accepted
/// with the prediction it carries. The fresh ones go through
/// [`predict_batch_with`], grouped by mapping so each [`BATCH_LANES`]-wide
/// chunk shares one [`ScreeningContext`]; they are always structurally
/// valid for their context (the sampler resets to the context's axes, a bred
/// child copies a parent of the same mapping), so every lane predicts. A
/// conceded slot is left out of the ranking. `screened` counts the ranked
/// slots of both kinds.
#[allow(clippy::too_many_arguments)] // internal: mirrors the phase state
fn screen_sampled(
    ctxs: &LazyContexts<'_>,
    schedules: &[Schedule],
    start: usize,
    sampled: &[Sampled],
    screened: &mut usize,
    scratch: &mut ScreenScratch,
    metas: &mut Vec<(usize, f64, bool)>,
) {
    metas.clear();
    scratch.order.clear();
    for (k, &slot) in sampled.iter().enumerate() {
        metas.push(match slot {
            Sampled::Conceded => (0, f64::INFINITY, false),
            Sampled::Inherited(m, predicted) => {
                *screened += 1;
                (m, predicted, true)
            }
            Sampled::Fresh(m) => {
                *screened += 1;
                scratch.order.push((m, k));
                (m, f64::INFINITY, false)
            }
        });
    }
    scratch.order.sort_unstable();
    let mut pos = 0;
    while pos < scratch.order.len() {
        let mapping = scratch.order[pos].0;
        let mut end = pos + 1;
        while end < scratch.order.len() && scratch.order[end].0 == mapping {
            end += 1;
        }
        let ctx = ctxs.get(mapping);
        for group in scratch.order[pos..end].chunks(BATCH_LANES) {
            let mut lanes = [&schedules[start + group[0].1]; BATCH_LANES];
            for (j, &(_, k)) in group.iter().enumerate() {
                lanes[j] = &schedules[start + k];
            }
            scratch.out.clear();
            predict_batch_with(
                ctx,
                &lanes[..group.len()],
                &mut scratch.tables,
                &mut scratch.out,
            );
            for (j, &(_, k)) in group.iter().enumerate() {
                if let Ok(b) = &scratch.out[j] {
                    metas[k].1 = b.cycles;
                    metas[k].2 = true;
                }
            }
        }
        pos = end;
    }
}

/// An independent RNG stream for candidate slot `slot` of `generation`.
///
/// SplitMix64-style finalisation over the mixed key; distinct
/// `(generation, slot)` pairs land in distinct streams because `slot` is
/// always far smaller than the odd multiplier applied to `generation`.
fn stream_rng(seed: u64, generation: u64, slot: u64) -> StdRng {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let key = mix(seed ^ 0x9e37_79b9_7f4a_7c15)
        .wrapping_add(generation.wrapping_mul(0xd134_2543_de82_ef95))
        .wrapping_add(slot);
    StdRng::seed_from_u64(mix(key))
}

/// Samples a random legal schedule for a program.
pub fn random_schedule(
    prog: &MappedProgram,
    accel: &AcceleratorSpec,
    rng: &mut impl Rng,
) -> Schedule {
    random_schedule_with(prog, accel, rng, true)
}

/// Samples a random legal schedule, optionally excluding split-K factors
/// (used by the split-K ablation bench).
pub fn random_schedule_with(
    prog: &MappedProgram,
    accel: &AcceleratorSpec,
    rng: &mut impl Rng,
    allow_split_k: bool,
) -> Schedule {
    let ctx = prog.screening_context(accel);
    let mut s = Schedule::empty();
    random_schedule_into(&ctx, &mut s, rng, allow_split_k);
    s
}

/// Samples a random legal schedule straight into `s`, reusing its buffers —
/// the allocation-free form of [`random_schedule_with`] the explorer's slot
/// workers use.
pub fn random_schedule_into(
    ctx: &ScreeningContext,
    s: &mut Schedule,
    rng: &mut impl Rng,
    allow_split_k: bool,
) {
    let axes = &ctx.axes[..];
    s.reset_naive(axes.len());
    for (i, a) in axes.iter().enumerate() {
        match a.kind {
            AxisKind::TileSpatial(_) | AxisKind::OuterSpatial(_) => {
                s.grid[i] = random_pow2_at_most(a.extent, rng);
            }
            AxisKind::TileReduction(_) => {
                s.stage[i] = pick_124(rng).min(a.extent);
                if allow_split_k && rng.gen_bool(0.25) {
                    s.split_k[i] = random_pow2_at_most(a.extent.min(8), rng);
                }
            }
            AxisKind::OuterReduction(_) => {
                if allow_split_k && rng.gen_bool(0.1) {
                    s.split_k[i] = random_pow2_at_most(a.extent.min(8), rng);
                }
            }
        }
        if matches!(a.kind, AxisKind::TileSpatial(_)) {
            s.warp[i] = pick_124(rng);
            s.warp[i] = s.warp[i].min(s.subcore_chunk(axes, i)).max(1);
        }
    }
    // Sub-core split on one random spatial axis.
    if let Some(i) = choose_bit(ctx.spatial_mask, rng) {
        let chunk = s.block_chunk(axes, i);
        s.subcore[i] = random_pow2_at_most(ctx.subcores.min(chunk), rng);
    }
    s.double_buffer = rng.gen_bool(0.5);
    s.unroll = rng.gen_bool(0.5);
    s.vectorize = rng.gen_bool(0.5);
    repair_schedule_ctx(ctx, s);
}

/// Mutates one schedule gene in place, then repairs feasibility.
pub fn mutate_schedule(
    s: &mut Schedule,
    prog: &MappedProgram,
    accel: &AcceleratorSpec,
    rng: &mut impl Rng,
) {
    let ctx = prog.screening_context(accel);
    mutate_schedule_ctx(&ctx, s, rng);
}

/// [`mutate_schedule`] over a precomputed context: no per-call axis
/// filtering and no allocation.
pub fn mutate_schedule_ctx(ctx: &ScreeningContext, s: &mut Schedule, rng: &mut impl Rng) {
    draw_mutation(ctx, s, rng);
    repair_schedule_ctx(ctx, s);
}

/// Mutates `sched`, a copy of a schedule of mapping `mapping_idx` that
/// passed `ctx`'s feasibility rule and that the model predicted at
/// `predicted`, and reports what the child still has to pay for. When the
/// draw changed nothing the model reads ([`crate::perf_model::reads`]) and
/// the rule still holds ([`ScreeningContext::stays_feasible`]), repair would
/// return the child as it is and the model would answer `predicted` again:
/// the child inherits it. Otherwise it is repaired and left for the model.
/// Draws exactly what [`mutate_schedule_ctx`] draws.
fn mutate_child(
    ctx: &ScreeningContext,
    mapping_idx: usize,
    sched: &mut Schedule,
    rng: &mut impl Rng,
    predicted: f64,
) -> Sampled {
    let change = draw_mutation(ctx, sched, rng);
    if perf_model::reads(change) || !ctx.stays_feasible(sched, change) {
        repair_schedule_ctx(ctx, sched);
        return Sampled::Fresh(mapping_idx);
    }
    // Debug builds (tier-1 among them) re-derive every inherited value.
    debug_assert!(
        ctx.schedule_feasible(sched),
        "a child that skips repair must pass the rule as it is ({change:?})"
    );
    debug_assert_eq!(
        predict_with(ctx, sched).map(|b| b.cycles.to_bits()).ok(),
        Some(predicted.to_bits()),
        "an inherited prediction must be the model's own ({change:?})"
    );
    Sampled::Inherited(mapping_idx, predicted)
}

/// The gene draw of a mutation: changes one gene of `s` in place and reports
/// what changed, without repairing feasibility.
fn draw_mutation(ctx: &ScreeningContext, s: &mut Schedule, rng: &mut impl Rng) -> GeneChange {
    // A numeric draw that lands on the old value (a split halved at 1 or
    // doubled at the extent, the same warp or stage value drawn again) has
    // changed nothing.
    fn set(gene: &mut i64, value: i64) -> GeneChange {
        let change = if *gene == value {
            GeneChange::Nothing
        } else {
            GeneChange::Numeric
        };
        *gene = value;
        change
    }
    let axes = &ctx.axes[..];
    let gene = rng.gen_range(0..7);
    match gene {
        6 => match choose_bit(ctx.nonspatial_mask, rng) {
            Some(i) => {
                let value = if rng.gen_bool(0.5) {
                    (s.split_k[i] * 2).min(axes[i].extent)
                } else {
                    (s.split_k[i] / 2).max(1)
                };
                set(&mut s.split_k[i], value)
            }
            None => GeneChange::Nothing,
        },
        // Grow or shrink a grid split.
        0 => match choose_bit(ctx.spatial_mask, rng) {
            Some(i) => {
                let value = if rng.gen_bool(0.5) {
                    (s.grid[i] * 2).min(axes[i].extent)
                } else {
                    (s.grid[i] / 2).max(1)
                };
                set(&mut s.grid[i], value)
            }
            None => GeneChange::Nothing,
        },
        1 => match choose_bit(ctx.tile_spatial_mask, rng) {
            Some(i) => set(&mut s.warp[i], pick_124(rng)),
            None => GeneChange::Nothing,
        },
        2 => match choose_bit(ctx.tile_reduction_mask, rng) {
            Some(i) => set(&mut s.stage[i], pick_124(rng).min(axes[i].extent)),
            None => GeneChange::Nothing,
        },
        3 => {
            s.double_buffer = !s.double_buffer;
            GeneChange::DoubleBuffer
        }
        4 => {
            s.unroll = !s.unroll;
            GeneChange::Unroll
        }
        _ => {
            s.vectorize = !s.vectorize;
            GeneChange::Vectorize
        }
    }
}

/// Shrinks footprint-heavy genes until the schedule passes the context's
/// allocation-free feasibility check (agrees with `Schedule::validate` —
/// asserted by the sim crate's tests). A schedule that already passes is
/// left as it is, which is why [`mutate_child`] can skip the call.
fn repair_schedule_ctx(ctx: &ScreeningContext, s: &mut Schedule) {
    for _ in 0..16 {
        if ctx.schedule_feasible(s) {
            return;
        }
        let shrunk_split = s.split_k.iter().any(|&k| k > 1);
        for k in &mut s.split_k {
            *k = (*k / 2).max(1);
        }
        if shrunk_split {
            continue;
        }
        let shrunk_warp = s.warp.iter().any(|&w| w > 1);
        for w in &mut s.warp {
            *w = (*w / 2).max(1);
        }
        if !shrunk_warp {
            let shrunk_stage = s.stage.iter().any(|&x| x > 1);
            for x in &mut s.stage {
                *x = (*x / 2).max(1);
            }
            if !shrunk_stage {
                if s.double_buffer {
                    s.double_buffer = false;
                } else {
                    // Last resort: fall back to the naive schedule.
                    s.reset_naive(ctx.axes.len());
                    return;
                }
            }
        }
    }
}

/// Uniform draw from the set bits of `mask`, `None` when it has none: one
/// `next_u64` modulo their count indexes the ascending list of them, which
/// is what `choose` over that list draws. The list is laid out on the stack
/// rather than found by clearing a random number of low bits, a loop whose
/// exit the branch predictor misses on nearly every draw.
fn choose_bit(mask: u64, rng: &mut impl Rng) -> Option<usize> {
    if mask == 0 {
        return None;
    }
    let mut bits = [0u8; 64];
    let mut len = 0;
    for bit in amos_sim::set_bits(mask) {
        bits[len] = bit as u8;
        len += 1;
    }
    Some(usize::from(bits[rng.next_u64() as usize % len]))
}

/// Uniform draw from `{1, 2, 4}` — the warp/stage gene alphabet. Total (the
/// slice can never be empty, so no `expect` on a user-reachable path) and
/// draw-for-draw identical to `[1, 2, 4].choose(rng)`, which consumes one
/// `next_u64` and indexes modulo the length.
fn pick_124(rng: &mut impl Rng) -> i64 {
    [1i64, 2, 4][(rng.next_u64() as usize) % 3]
}

fn random_pow2_at_most(max: i64, rng: &mut impl Rng) -> i64 {
    if max <= 1 {
        return 1;
    }
    let max_exp = 63 - (max as u64).leading_zeros();
    1i64 << rng.gen_range(0..=max_exp)
}

// ---- model-quality metrics (Figure 5) --------------------------------------

/// Pairwise ranking accuracy between predicted and measured scores: the
/// fraction of candidate pairs the model orders the same way the ground truth
/// does (1.0 = perfect ranking).
pub fn pairwise_accuracy(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            let dp = pairs[i].0 - pairs[j].0;
            let dm = pairs[i].1 - pairs[j].1;
            if dm == 0.0 {
                continue;
            }
            total += 1;
            if dp == 0.0 || (dp > 0.0) == (dm > 0.0) {
                agree += if dp == 0.0 { 0 } else { 1 };
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        agree as f64 / total as f64
    }
}

/// Recall of the measured top fraction within the predicted top fraction:
/// how many of the truly best `rate` of candidates the model also ranks in
/// its best `rate` (paper reports 91.4% at rate 0.4).
pub fn top_rate_recall(pairs: &[(f64, f64)], rate: f64) -> f64 {
    let n = pairs.len();
    if n == 0 {
        return 1.0;
    }
    let k = ((n as f64 * rate).ceil() as usize).clamp(1, n);
    let mut by_pred: Vec<usize> = (0..n).collect();
    by_pred.sort_by(|&a, &b| pairs[a].0.total_cmp(&pairs[b].0));
    let mut by_meas: Vec<usize> = (0..n).collect();
    by_meas.sort_by(|&a, &b| pairs[a].1.total_cmp(&pairs[b].1));
    let pred_top: std::collections::BTreeSet<usize> = by_pred[..k].iter().copied().collect();
    let hits = by_meas[..k].iter().filter(|i| pred_top.contains(i)).count();
    hits as f64 / k as f64
}

/// Screening regret of an evaluation trace: how many `(predicted, measured)`
/// pairs the model ranked strictly ahead of the measured best. Among pairs
/// tied at the best measured cycles, the one the model ranked first is the
/// best. `0` when the model's first choice measured best, or the trace is
/// empty. A pure function of the trace, so every cache tier agrees on it.
pub fn screening_regret(pairs: &[(f64, f64)]) -> usize {
    let best = pairs
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.total_cmp(&b.0)));
    best.map_or(0, |best| {
        pairs
            .iter()
            .filter(|p| p.0.total_cmp(&best.0).is_lt())
            .count()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};
    use amos_sim::simulate;

    fn conv2d_small() -> ComputeDef {
        let mut b = ComputeBuilder::new("c2d");
        let n = b.spatial("n", 8);
        let k = b.spatial("k", 64);
        let p = b.spatial("p", 14);
        let q = b.spatial("q", 14);
        let c = b.reduce("c", 64);
        let r = b.reduce("r", 3);
        let s = b.reduce("s", 3);
        let img = b.input("image", &[8, 64, 16, 16], DType::F16);
        let wt = b.input("weight", &[64, 64, 3, 3], DType::F16);
        let out = b.output("out", &[8, 64, 14, 14], DType::F32);
        b.mul_acc(
            out.at([n.ex(), k.ex(), p.ex(), q.ex()]),
            img.at([n.ex(), c.ex(), p.ex() + r.ex(), q.ex() + s.ex()]),
            wt.at([k.ex(), c.ex(), r.ex(), s.ex()]),
        );
        b.finish().unwrap()
    }

    #[test]
    fn explorer_finds_a_mapping_and_beats_naive() {
        let def = conv2d_small();
        let accel = catalog::v100();
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 16,
            generations: 4,
            survivors: 4,
            measure_top: 3,
            seed: 7,
            jobs: 2,
            ..Default::default()
        });
        let result = explorer.explore(&def, &accel).unwrap();
        assert_eq!(result.num_mappings, 35);
        assert!(!result.evaluations.is_empty());

        // The winner must beat the naive schedule of its own mapping.
        let naive = Schedule::naive(&result.best_program);
        let naive_cycles = simulate(&result.best_program, &naive, &accel)
            .unwrap()
            .cycles;
        assert!(result.cycles() <= naive_cycles);
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let def = conv2d_small();
        let accel = catalog::v100();
        let e = Explorer::with_config(ExplorerConfig {
            population: 8,
            generations: 2,
            survivors: 3,
            measure_top: 2,
            seed: 99,
            jobs: 1,
            ..Default::default()
        });
        let a = e.explore(&def, &accel).unwrap();
        let b = e.explore(&def, &accel).unwrap();
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn heterogeneous_accelerator_picks_the_better_unit() {
        use amos_hw::catalog;
        let npu = catalog::ascend_npu();
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 12,
            generations: 3,
            survivors: 4,
            measure_top: 3,
            seed: 77,
            jobs: 2,
            ..Default::default()
        });

        // A large square GEMM belongs on the cube unit.
        let gemm = {
            let mut b = ComputeBuilder::new("gemm");
            let i = b.spatial("i", 1024);
            let j = b.spatial("j", 1024);
            let k = b.reduce("k", 1024);
            let a = b.input("a", &[1024, 1024], DType::F16);
            let w = b.input("b", &[1024, 1024], DType::F16);
            let c = b.output("c", &[1024, 1024], DType::F32);
            b.mul_acc(c.at([i, j]), a.at([i, k]), w.at([k, j]));
            b.finish().unwrap()
        };
        let r = explorer.explore_multi(&gemm, &npu).unwrap();
        assert_eq!(r.best_program.intrinsic().name, "cube_mma");

        // A matrix-vector product cannot fill the cube's second spatial
        // axis; the vector unit wins.
        let gemv = {
            let mut b = ComputeBuilder::new("gemv");
            let i = b.spatial("i", 4096);
            let k = b.reduce("k", 4096);
            let a = b.input("a", &[4096, 4096], DType::F16);
            let x = b.input("x", &[4096], DType::F16);
            let o = b.output("o", &[4096], DType::F32);
            b.mul_acc(o.at([i]), a.at([i, k]), x.at([k]));
            b.finish().unwrap()
        };
        let r = explorer.explore_multi(&gemv, &npu).unwrap();
        assert_eq!(r.best_program.intrinsic().name, "vec_mac");
    }

    #[test]
    fn explore_multi_errors_when_no_unit_maps() {
        use amos_hw::catalog;
        let mut b = ComputeBuilder::new("sum");
        let i = b.spatial("i", 4);
        let k = b.reduce("k", 4);
        let a = b.input("a", &[4, 4], DType::F32);
        let o = b.output("o", &[4], DType::F32);
        b.add_acc(o.at([i]), a.at([i, k]));
        let def = b.finish().unwrap();
        let e = Explorer::new();
        assert!(matches!(
            e.explore_multi(&def, &catalog::ascend_npu()),
            Err(ExploreError::NoValidMapping { .. })
        ));
    }

    #[test]
    fn no_mapping_is_an_error() {
        let mut b = ComputeBuilder::new("sum");
        let i = b.spatial("i", 4);
        let k = b.reduce("k", 4);
        let a = b.input("a", &[4, 4], DType::F32);
        let o = b.output("o", &[4], DType::F32);
        b.add_acc(o.at([i]), a.at([i, k]));
        let def = b.finish().unwrap();
        let e = Explorer::new();
        assert!(matches!(
            e.explore(&def, &catalog::v100()),
            Err(ExploreError::NoValidMapping { .. })
        ));
    }

    #[test]
    fn random_schedules_always_validate() {
        let def = conv2d_small();
        let accel = catalog::v100();
        let gen = MappingGenerator::new();
        let mapping = &gen.enumerate(&def, &accel.intrinsic)[0];
        let prog = mapping.lower(&def, &accel.intrinsic).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = random_schedule(&prog, &accel, &mut rng);
            s.validate(&prog, &accel).unwrap();
        }
    }

    #[test]
    fn mutation_keeps_schedules_valid() {
        let def = conv2d_small();
        let accel = catalog::v100();
        let gen = MappingGenerator::new();
        let mapping = &gen.enumerate(&def, &accel.intrinsic)[0];
        let prog = mapping.lower(&def, &accel.intrinsic).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = random_schedule(&prog, &accel, &mut rng);
        for _ in 0..100 {
            mutate_schedule(&mut s, &prog, &accel, &mut rng);
            s.validate(&prog, &accel).unwrap();
        }
    }

    #[test]
    fn pairwise_accuracy_extremes() {
        let perfect = vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)];
        assert_eq!(pairwise_accuracy(&perfect), 1.0);
        let inverted = vec![(3.0, 10.0), (2.0, 20.0), (1.0, 30.0)];
        assert_eq!(pairwise_accuracy(&inverted), 0.0);
        assert_eq!(pairwise_accuracy(&[]), 1.0);
    }

    #[test]
    fn top_rate_recall_behaviour() {
        let pairs = vec![(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)];
        assert_eq!(top_rate_recall(&pairs, 0.5), 1.0);
        let scrambled = vec![(4.0, 1.0), (3.0, 2.0), (2.0, 3.0), (1.0, 4.0)];
        assert_eq!(top_rate_recall(&scrambled, 0.5), 0.0);
        assert_eq!(top_rate_recall(&[], 0.4), 1.0);
    }

    #[test]
    fn screening_regret_counts_model_ranks_ahead_of_the_measured_best() {
        assert_eq!(screening_regret(&[]), 0);
        // The model's first choice measured best.
        assert_eq!(screening_regret(&[(1.0, 10.0), (2.0, 20.0)]), 0);
        // The best measured candidate is the model's third.
        let trace = [(3.0, 5.0), (1.0, 30.0), (2.0, 20.0), (4.0, 40.0)];
        assert_eq!(screening_regret(&trace), 2);
        // A tie in measured cycles takes the lowest rank among the tied.
        let tied = [(5.0, 7.0), (1.0, 9.0), (2.0, 7.0), (3.0, 8.0)];
        assert_eq!(screening_regret(&tied), 1);
        // A tie in prediction with the best is not ranked ahead of it.
        assert_eq!(screening_regret(&[(2.0, 9.0), (2.0, 3.0)]), 0);
    }

    #[test]
    fn choose_bit_draws_as_choose_over_the_ascending_bits() {
        use rand::seq::SliceRandom;
        use rand::RngCore;
        let mut masks = StdRng::seed_from_u64(17);
        for _ in 0..2_000 {
            let mask = masks.next_u64() >> masks.gen_range(0..64u32);
            let list: Vec<usize> = amos_sim::set_bits(mask).collect();
            let seed = masks.next_u64();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert_eq!(choose_bit(mask, &mut a), list.choose(&mut b).copied());
            assert_eq!(a.next_u64(), b.next_u64(), "one draw each");
        }
        assert_eq!(choose_bit(0, &mut masks), None);
    }

    #[test]
    fn ranking_places_the_head_of_the_stable_sort_by_total_cmp() {
        let values = [
            3.5,
            f64::INFINITY,
            -0.0,
            1.0,
            f64::NAN,
            0.0,
            1.0,
            f64::NEG_INFINITY,
            -2.0,
            3.5,
            f64::INFINITY,
            1.0,
        ];
        let n = values.len();
        let mut expected: Vec<usize> = (0..n).collect();
        expected.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        // 1, a typical `survivors`, and every rank.
        for keep in [1, 4, n] {
            let mut arena = PopulationArena::default();
            arena.ensure_slots(n);
            arena.predicted.copy_from_slice(&values);
            for (slot, m) in arena.mapping_idx.iter_mut().enumerate() {
                *m = slot;
            }
            // Tag every `Schedule` buffer with the slot it starts in.
            for (slot, s) in arena.schedules.iter_mut().enumerate() {
                s.grid.push(slot as i64);
            }
            arena.live = n;
            arena.sort_live_by_predicted(keep);
            assert_eq!(arena.mapping_idx[..keep], expected[..keep], "keep {keep}");
            // The tail holds the other slots, each exactly once.
            let mut tail = arena.mapping_idx[keep..].to_vec();
            tail.sort_unstable();
            let mut rest = expected[keep..].to_vec();
            rest.sort_unstable();
            assert_eq!(tail, rest, "keep {keep}");
            // Prediction and buffer travelled with their slot.
            for (at, &slot) in arena.mapping_idx.iter().enumerate() {
                assert_eq!(arena.predicted[at].to_bits(), values[slot].to_bits());
                assert_eq!(arena.schedules[at].grid, [slot as i64]);
            }
        }
    }

    #[test]
    fn measured_set_answers_by_exact_equality_through_growth() {
        let prog = {
            let def = conv2d_small();
            let accel = catalog::v100();
            let mapping = MappingGenerator::new()
                .enumerate(&def, &accel.intrinsic)
                .swap_remove(0);
            mapping.lower(&def, &accel.intrinsic).unwrap()
        };
        let accel = catalog::v100();
        let mut rng = StdRng::seed_from_u64(5);
        let mut set = MeasuredSet::default();
        // The second round runs over the first's buffers, as a thread's next
        // search does, with other mappings so no stored pair is a hit.
        for round in 0..2 {
            let mut reference = std::collections::HashSet::new();
            for k in 0..600 {
                let s = random_schedule(&prog, &accel, &mut rng);
                let mapping_idx = k % 3 + 3 * round;
                let fresh = reference.insert((mapping_idx, s.clone()));
                assert_eq!(set.insert(mapping_idx, &s), fresh);
                assert!(!set.insert(mapping_idx, &s), "a second probe is a hit");
            }
            assert_eq!(set.len, reference.len());
            set.clear();
        }
    }

    /// A program a search read: its index, the program and its context.
    type Read = (usize, MappedProgram, Arc<ScreeningContext>);

    /// Runs `explorer`'s search over the enumerated mappings of `def` on
    /// `unit` as `explore_mappings` does, and hands back the unit's size,
    /// the result and every program the search read, as it built them.
    fn search_reads(
        explorer: &Explorer,
        def: &ComputeDef,
        unit: &AcceleratorSpec,
    ) -> (usize, ExplorationResult, Vec<Read>) {
        let programs = explorer
            .lower_unit(def, unit, explorer.enumerate_unit(def, unit))
            .expect("enumerated mappings lower")
            .expect("a non-empty set");
        let ctxs = LazyContexts::new(&programs, unit);
        let sup = Supervisor::new(explorer.config());
        let result = explorer
            .explore_programs(unit, &ctxs, explorer.config().seed, &sup)
            .expect("explores");
        let read = ctxs.cells.iter().enumerate().filter_map(|(i, cell)| {
            let touched = cell.get()?;
            Some((
                i,
                touched.program.clone().into_owned(),
                Arc::clone(&touched.ctx),
            ))
        });
        (programs.len(), result, read.collect())
    }

    #[test]
    fn a_default_compile_lowers_only_the_programs_its_search_reads() {
        // CAP has the largest mapping set of the v100 operators.
        let def = amos_workloads::ops::cap(1, 8, 16, 6, 6, 3, 3, 4);
        let accel = catalog::v100();
        let explorer = Explorer::with_config(ExplorerConfig {
            jobs: 1,
            ..Default::default()
        });
        let (programs, result, read) = search_reads(&explorer, &def, &accel);
        assert_eq!(programs, 585);
        assert_eq!(read.len(), 126, "programs a default search reads");
        // The same search as the public path, winner materialized from the
        // program it won with.
        let public = explorer.explore(&def, &accel).expect("explores");
        assert_eq!(public.cycles().to_bits(), result.cycles().to_bits());
        assert_eq!(public.best_mapping, result.best_mapping);
        let mappings = explorer.generator.enumerate(&def, &accel.intrinsic);
        assert!(mappings.contains(&result.best_mapping));
    }

    #[test]
    fn programs_lowered_on_first_touch_equal_eagerly_lowered_ones() {
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 12,
            generations: 2,
            survivors: 4,
            measure_top: 2,
            seed: 31,
            jobs: 1,
            ..Default::default()
        });
        let registry = amos_hw::Registry::builtin();
        let configs = amos_workloads::configs::operator_configs();
        let mut checked = 0usize;
        for name in registry.names() {
            let accel = registry.build(name).expect("listed machine builds");
            for unit in explorer.unit_accelerators(&accel) {
                for c in &configs {
                    let intr = &unit.intrinsic;
                    let mappings = explorer.generator.enumerate(&c.def, intr);
                    assert_eq!(explorer.generator.count(&c.def, intr), mappings.len());
                    if mappings.is_empty() {
                        continue;
                    }
                    let (programs, result, read) = search_reads(&explorer, &c.def, &unit);
                    assert_eq!(programs, mappings.len());
                    assert_eq!(result.num_mappings, mappings.len());
                    assert!(mappings.contains(&result.best_mapping));
                    for (idx, lazy, ctx) in read {
                        let eager = mappings[idx].lower(&c.def, intr).expect("lowers");
                        let at = || format!("{name}/{} mapping {idx}", c.label);
                        assert_eq!(lazy, eager, "{}", at());
                        assert_eq!(lazy.axes(), eager.axes(), "{}", at());
                        assert_eq!(Mapping::of_program(&lazy), mappings[idx], "{}", at());
                        assert_eq!(*ctx, ScreeningContext::build(&eager, &unit), "{}", at());
                        assert!(Arc::ptr_eq(&ctx, &lazy.screening_context(&unit)));
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 5_000, "{checked} programs checked");
    }

    #[test]
    fn random_pow2_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let v = random_pow2_at_most(48, &mut rng);
            assert!((1..=48).contains(&v));
            assert_eq!(v.count_ones(), 1);
        }
        assert_eq!(random_pow2_at_most(1, &mut rng), 1);
    }
}
