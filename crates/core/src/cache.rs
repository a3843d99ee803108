//! Cross-layer memoisation of exploration results.
//!
//! Real networks repeat layer shapes heavily (most ResNet residual blocks
//! share a handful of distinct convolution shapes), and the explorer is a
//! deterministic function of `(workload shape, accelerator, config)` — so a
//! network-level sweep only needs to pay the search cost once per distinct
//! shape and can replay the winner everywhere else.
//!
//! The cache is keyed by a *structural* fingerprint: the computation's
//! iteration space, tensor shapes, access patterns, operator and predicates
//! (but not its name, so `conv3` and `conv7` with identical shapes share an
//! entry), the full accelerator description, and every explorer knob except
//! [`ExplorerConfig::jobs`] — results are bit-identical for every thread
//! count, so `jobs` must not split entries.

use crate::disk::{CacheConfig, DiskCache};
use crate::explore::{Completion, ExplorationResult, ExploreError, Explorer, ExplorerConfig};
use amos_hw::AcceleratorSpec;
use amos_ir::{Access, ComputeDef, DType, Expr, IterKind, OpKind, TensorRole};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hit/miss counters of the engine's structural exploration cache. The three
/// fields partition top-level lookups: every lookup is exactly one of an
/// in-memory (L1) hit, an on-disk (L2) hit or a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the in-memory L1 (exact structural key match).
    pub hits: usize,
    /// Lookups answered from the persistent on-disk L2 (validated entry
    /// written by an earlier process; always 0 without a
    /// [`CacheConfig::cache_dir`]).
    pub l2_hits: usize,
    /// Lookups that ran the explorer.
    pub misses: usize,
}

/// A thread-safe memo table of top-level exploration requests.
///
/// Failed explorations (`Err`) are cached too: a shape with no valid mapping
/// stays unmappable, and network sweeps probe such shapes repeatedly.
#[derive(Debug, Default)]
pub struct ExplorationCache {
    entries: Mutex<HashMap<String, Result<ExplorationResult, ExploreError>>>,
    // The persistent L2 behind the in-memory map, when configured. Probed
    // after an L1 miss; clean `Finished` misses write through to it.
    disk: Option<DiskCache>,
    hits: AtomicUsize,
    l2_hits: AtomicUsize,
    misses: AtomicUsize,
    // Every distinct machine value a request named.
    machines: Mutex<Vec<Arc<Machine>>>,
}

/// One interned machine, and the two things keys call it.
#[derive(Debug)]
struct Machine {
    spec: AcceleratorSpec,
    /// `#{position in the table}`: its name in this cache's in-memory keys.
    id: String,
    /// FNV-1a of the spec's derived `Debug`, and the text: its name on disk,
    /// where ids mean nothing. Rendered by the first disk key that asks.
    text: OnceLock<(u64, String)>,
}

impl Machine {
    fn text(&self) -> &(u64, String) {
        self.text.get_or_init(|| {
            let text = format!("{:?}", self.spec);
            (fnv1a(&text), text)
        })
    }
}

/// The tag of the joint search over every intrinsic of a machine, shared by
/// [`ExplorationCache::explore_multi`] and the staged [`crate::Engine`]
/// pipeline so the two answer each other's requests.
pub(crate) const MULTI: &str = "multi";

impl ExplorationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty L1 over the configured persistent L2 (when
    /// [`CacheConfig::cache_dir`] is set). Construction is infallible: an
    /// unusable directory degrades every lookup to a cold miss and every
    /// store to a no-op.
    pub(crate) fn with_disk(config: &CacheConfig) -> Self {
        let mut cache = Self::new();
        cache.disk = config.cache_dir.clone().map(DiskCache::new);
        cache
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            l2_hits: self.l2_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct requests stored: one per (tag, shape, accelerator,
    /// config) answered cleanly or with an error.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// Interns `accel` **by value**: two specs are one machine exactly when
    /// they compare equal, never because a hash said so.
    fn intern(&self, accel: &AcceleratorSpec) -> Arc<Machine> {
        let mut machines = self.machines.lock().expect("machine table lock");
        if let Some(known) = machines.iter().find(|m| m.spec == *accel) {
            return Arc::clone(known);
        }
        let machine = Machine {
            spec: accel.clone(),
            id: format!("#{}", machines.len()),
            text: OnceLock::new(),
        };
        // A spec with a NaN field is not `==` to itself: it is one machine by
        // its text, which covers every field. Only such specs render here.
        #[allow(clippy::eq_op)]
        if accel != accel {
            let text = &machine.text().1;
            let rendered = |m: &&Arc<Machine>| m.text.get().is_some_and(|(_, t)| t == text);
            if let Some(known) = machines.iter().find(rendered) {
                return Arc::clone(known);
            }
        }
        let machine = Arc::new(machine);
        machines.push(Arc::clone(&machine));
        machine
    }

    /// [`Explorer::explore_multi`] with memoisation.
    pub fn explore_multi(
        &self,
        explorer: &Explorer,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Result<ExplorationResult, ExploreError> {
        self.explore_multi_shaped(explorer, def, accel, None)
    }

    /// [`ExplorationCache::explore_multi`] with a precomputed
    /// [`shape_fingerprint`] of `def`, so callers that already derived one
    /// (e.g. for per-shape seeds) don't pay for it twice. `shape` **must**
    /// equal `shape_fingerprint(def)`.
    pub(crate) fn explore_multi_shaped(
        &self,
        explorer: &Explorer,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
        shape: Option<&str>,
    ) -> Result<ExplorationResult, ExploreError> {
        self.explore_tagged_shaped(MULTI, explorer, def, accel, shape, || {
            explorer.explore_multi(def, accel)
        })
    }

    /// Probes L1 for `key`, counting a hit.
    fn probe_l1(&self, key: &str) -> Option<Result<ExplorationResult, ExploreError>> {
        let cached = self.entries.lock().expect("cache lock").get(key)?.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(cached)
    }

    /// Probes L2 for `stem`'s request, counting a hit and promoting it into
    /// L1 under `key` so later lookups skip re-validation. Only here, past an
    /// L1 miss, is the request's full text assembled.
    fn probe_l2(
        &self,
        key: &str,
        stem: &KeyStem,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Option<ExplorationResult> {
        let disk = self.disk.as_ref()?;
        let loaded = disk.load(stem.file_hash(), &stem.disk_key(), def, accel)?;
        self.l2_hits.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("cache lock")
            .insert(key.to_string(), Ok(loaded.clone()));
        Some(loaded)
    }

    /// Stores a cacheable result in L1 and writes a clean `Finished` one
    /// through to L2 (`Err` entries stay in-memory: "this shape has no valid
    /// mapping" is cheap to rediscover and not worth trusting across code
    /// versions).
    fn insert(
        &self,
        key: String,
        stem: &KeyStem,
        result: &Result<ExplorationResult, ExploreError>,
    ) {
        if !cacheable(result) {
            return;
        }
        if let (Some(disk), Ok(r)) = (&self.disk, result) {
            disk.store(stem.file_hash(), &stem.disk_key(), r);
        }
        self.entries
            .lock()
            .expect("cache lock")
            .insert(key, result.clone());
    }

    /// The lookup of every exploration flavour, named by `tag` ([`MULTI`]
    /// for the joint search, a fixed-mapping baseline's template name, …):
    /// render the call's [`KeyStem`], probe L1 then the persistent L2
    /// (promoting a hit), else `run` the search and store its result. The
    /// tag keeps different flavours over the same shape from colliding.
    /// `shape`, when given, must equal `shape_fingerprint(def)`.
    pub(crate) fn explore_tagged_shaped(
        &self,
        tag: &str,
        explorer: &Explorer,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
        shape: Option<&str>,
        run: impl FnOnce() -> Result<ExplorationResult, ExploreError>,
    ) -> Result<ExplorationResult, ExploreError> {
        let stem = KeyStem::new(tag, explorer.config(), def, self.intern(accel), shape);
        let key = stem.key();
        if let Some(hit) = self.probe_l1(&key) {
            return hit;
        }
        if let Some(loaded) = self.probe_l2(&key, &stem, def, accel) {
            return Ok(loaded);
        }
        // The lock is NOT held while exploring: a search can take seconds and
        // other layers (other threads) must be able to probe the cache. Two
        // threads racing on the same key both run the (deterministic) search
        // and store identical results — wasteful but correct.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = run();
        self.insert(key, &stem, &result);
        result
    }
}

/// Whether one exploration outcome may populate the cache.
///
/// `Err` results are cached (a shape with no valid mapping stays
/// unmappable), and so are clean [`Completion::Finished`] runs — which are
/// budget-invariant, because cancellation only fires at generation
/// boundaries: a budget loose enough to finish never changed any candidate.
/// Truncated and degraded runs are **not** stored: replaying a
/// deadline-clipped best-so-far as if it were the converged winner would
/// poison every later lookup of the same shape.
fn cacheable(result: &Result<ExplorationResult, ExploreError>) -> bool {
    match result {
        Err(_) => true,
        // The explorer folds a quarantine log into `Degraded` before it
        // answers; the log is checked as well, so a run that isolated a
        // panic is never stored whatever its completion says.
        Ok(r) => r.completion == Completion::Finished && r.quarantine.is_empty(),
    }
}

/// Structural identity of one exploration request: the tag that names the
/// flavour of search, the configuration and the shape fingerprint, written
/// once per call as one prefix, beside the interned machine. The request's
/// keys are that prefix followed by the machine: its id in memory,
/// `accel:{text}` on disk.
///
/// Deliberately *excludes* the computation's name (same-shape layers must
/// share an entry) and `config.jobs` (results are thread-count-invariant).
/// The [`crate::explore::Budget`] is excluded for the same reason the
/// policy above is safe: only `Finished` results are stored, and those are
/// identical under every budget.
#[derive(Debug)]
struct KeyStem {
    /// `{tag};cfg:…;{shape};[faults:…;]`.
    body: String,
    machine: Arc<Machine>,
}

impl KeyStem {
    /// Callers may pass `def`'s shape fingerprint when they already computed
    /// one (network evaluation derives per-shape seeds from it), saving the
    /// rebuild; it is the caller's contract that the two match.
    fn new(
        tag: &str,
        config: &ExplorerConfig,
        def: &ComputeDef,
        machine: Arc<Machine>,
        shape: Option<&str>,
    ) -> Self {
        if let Some(fp) = shape {
            debug_assert_eq!(fp, shape_fingerprint(def), "stale shape fingerprint");
        }
        let shape = shape.map_or_else(|| Cow::Owned(shape_fingerprint(def)), Cow::Borrowed);
        let mut body = String::with_capacity(tag.len() + shape.len() + 96);
        body.push_str(tag);
        body.push_str(";cfg:");
        for knob in [
            config.population,
            config.generations,
            config.survivors,
            config.measure_top,
        ] {
            push_uint(&mut body, knob as u64);
            body.push('/');
        }
        push_uint(&mut body, config.seed);
        // Schema-2 key text: the slot of a retired knob, frozen so stored
        // entries keep their names. Dropping it renames every L2 entry.
        body.push_str("/w0;");
        body.push_str(&shape);
        body.push(';');
        // An active fault plan changes which candidates survive, so it must
        // split cache entries (test-harness builds only).
        #[cfg(feature = "fault-injection")]
        {
            use std::fmt::Write as _;
            let _ = write!(body, "faults:{};", config.faults);
        }
        KeyStem { body, machine }
    }

    /// The in-memory cache key of this request.
    fn key(&self) -> String {
        [self.body.as_str(), &self.machine.id].concat()
    }

    /// The request in full, as the disk tier stores and compares it.
    fn disk_key(&self) -> String {
        [&self.body, "accel:", &self.machine.text().1].concat()
    }

    /// What the disk tier names the entry of [`KeyStem::disk_key`] by:
    /// FNV-1a over the prefix, continued over the machine text's own hash
    /// instead of the text.
    fn file_hash(&self) -> u64 {
        let h = rand::fnv1a_64(self.body.as_bytes());
        rand::fnv1a_64_extend(h, &self.machine.text().0.to_le_bytes())
    }
}

/// FNV-1a over a string, 64-bit variant — the workspace's one seed/label
/// hash (per-shape exploration seeds, bench labels, on-disk cache file
/// names, the proptest stand-in's per-test streams). Delegates to the
/// single shared loop in the `rand` stand-in so every layer hashes
/// identically.
pub fn fnv1a(key: &str) -> u64 {
    rand::fnv1a_64(key.as_bytes())
}

/// Structural identity of a computation alone: iteration space, tensor
/// shapes, access patterns, operator and predicates — but not the
/// computation's name, so same-shape layers of a network share it. Callers
/// that need shape-keyed bookkeeping of their own (e.g. deriving one seed per
/// distinct layer shape) can reuse it.
///
/// The text is seed material as well as key material (network evaluation
/// seeds each search from its hash), so a byte changed here changes winners.
/// This writer is its specification (DESIGN.md §5h has it as a table): the
/// text is what `format!` made of the parts' derived `Debug`, written
/// without `fmt`.
pub fn shape_fingerprint(def: &ComputeDef) -> String {
    let mut s = String::with_capacity(512);
    for it in def.iters() {
        s.push_str("i:");
        s.push_str(&it.name);
        s.push(':');
        push_int(&mut s, it.extent);
        s.push(':');
        s.push_str(match it.kind {
            IterKind::Spatial => "Spatial;",
            IterKind::Reduction => "Reduction;",
        });
    }
    for t in def.tensors() {
        s.push_str("t:");
        push_list(&mut s, &t.shape, |s, &dim| push_int(s, dim));
        s.push(':');
        s.push_str(match t.dtype {
            DType::F16 => "F16:",
            DType::F32 => "F32:",
            DType::I8 => "I8:",
            DType::I32 => "I32:",
        });
        s.push_str(match t.role {
            TensorRole::Input => "Input;",
            TensorRole::Output => "Output;",
            TensorRole::Constant => "Constant;",
        });
    }
    s.push_str("out:");
    push_access(&mut s, def.output());
    for access in def.inputs() {
        s.push_str(";in:");
        push_access(&mut s, access);
    }
    s.push_str(match def.op() {
        OpKind::MulAcc => ";op:MulAcc",
        OpKind::AddAcc => ";op:AddAcc",
        OpKind::MaxAcc => ";op:MaxAcc",
    });
    s.push_str(";preds:");
    push_list(&mut s, def.predicates(), push_expr);
    s
}

fn push_access(s: &mut String, access: &Access) {
    s.push_str("Access { tensor: TensorId(");
    push_uint(s, access.tensor.0.into());
    s.push_str("), indices: ");
    push_list(s, &access.indices, push_expr);
    s.push_str(" }");
}

/// `[a, b, …]`, as a slice's `Debug` lays it out.
fn push_list<T>(s: &mut String, items: &[T], push: impl Fn(&mut String, &T)) {
    s.push('[');
    for (n, item) in items.iter().enumerate() {
        if n > 0 {
            s.push_str(", ");
        }
        push(s, item);
    }
    s.push(']');
}

fn push_expr(s: &mut String, e: &Expr) {
    let (node, lhs, rhs) = match e {
        Expr::Var(id) => {
            s.push_str("Var(IterId(");
            push_uint(s, id.0.into());
            s.push_str("))");
            return;
        }
        Expr::Const(c) => {
            s.push_str("Const(");
            push_int(s, *c);
            s.push(')');
            return;
        }
        Expr::Add(lhs, rhs) => ("Add(", lhs, rhs),
        Expr::Sub(lhs, rhs) => ("Sub(", lhs, rhs),
        Expr::Mul(lhs, rhs) => ("Mul(", lhs, rhs),
        Expr::FloorDiv(lhs, rhs) => ("FloorDiv(", lhs, rhs),
        Expr::Mod(lhs, rhs) => ("Mod(", lhs, rhs),
    };
    s.push_str(node);
    push_expr(s, lhs);
    s.push_str(", ");
    push_expr(s, rhs);
    s.push(')');
}

fn push_int(s: &mut String, v: i64) {
    if v < 0 {
        s.push('-');
    }
    push_uint(s, v.unsigned_abs());
}

/// `v` in decimal, as `{}` prints it.
fn push_uint(s: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};

    fn gemm(name: &str, m: i64, n: i64, k: i64) -> ComputeDef {
        let mut b = ComputeBuilder::new(name);
        let i = b.spatial("i", m);
        let j = b.spatial("j", n);
        let r = b.reduce("k", k);
        let a = b.input("a", &[m, k], DType::F16);
        let w = b.input("b", &[k, n], DType::F16);
        let c = b.output("c", &[m, n], DType::F32);
        b.mul_acc(c.at([i, j]), a.at([i, r]), w.at([r, j]));
        b.finish().unwrap()
    }

    fn small_explorer(seed: u64) -> Explorer {
        Explorer::with_config(ExplorerConfig {
            population: 8,
            generations: 2,
            survivors: 3,
            measure_top: 2,
            seed,
            jobs: 1,
            ..Default::default()
        })
    }

    #[test]
    fn repeated_shape_hits_regardless_of_name() {
        let cache = ExplorationCache::new();
        let e = small_explorer(11);
        let accel = catalog::v100();
        let cold = cache
            .explore_multi(&e, &gemm("g_one", 64, 64, 64), &accel)
            .unwrap();
        let warm = cache
            .explore_multi(&e, &gemm("g_two", 64, 64, 64), &accel)
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                l2_hits: 0,
                misses: 1
            }
        );
        assert_eq!(cold.cycles(), warm.cycles());
        assert_eq!(cold.best_schedule, warm.best_schedule);
    }

    #[test]
    fn distinct_shapes_seeds_and_accels_miss() {
        let cache = ExplorationCache::new();
        let e = small_explorer(11);
        cache
            .explore_multi(&e, &gemm("g", 64, 64, 64), &catalog::v100())
            .unwrap();
        // Different extent.
        cache
            .explore_multi(&e, &gemm("g", 128, 64, 64), &catalog::v100())
            .unwrap();
        // Different machine.
        cache
            .explore_multi(&e, &gemm("g", 64, 64, 64), &catalog::a100())
            .unwrap();
        // Different seed.
        cache
            .explore_multi(
                &small_explorer(12),
                &gemm("g", 64, 64, 64),
                &catalog::v100(),
            )
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                l2_hits: 0,
                misses: 4
            }
        );
    }

    #[test]
    fn jobs_does_not_split_entries() {
        let cache = ExplorationCache::new();
        let mut cfg = small_explorer(5).config().clone();
        let accel = catalog::v100();
        cfg.jobs = 1;
        cache
            .explore_multi(
                &Explorer::with_config(cfg.clone()),
                &gemm("g", 64, 64, 64),
                &accel,
            )
            .unwrap();
        cfg.jobs = 4;
        cache
            .explore_multi(&Explorer::with_config(cfg), &gemm("g", 64, 64, 64), &accel)
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                l2_hits: 0,
                misses: 1
            }
        );
    }

    #[test]
    fn truncated_runs_do_not_populate_the_cache() {
        use crate::explore::{Budget, Completion};
        let cache = ExplorationCache::new();
        let mut cfg = small_explorer(21).config().clone();
        cfg.budget = Budget {
            max_measurements: Some(1),
            ..Budget::default()
        };
        let accel = catalog::v100();
        let def = gemm("g", 64, 64, 64);
        let truncated = cache
            .explore_multi(&Explorer::with_config(cfg.clone()), &def, &accel)
            .unwrap();
        assert_eq!(truncated.completion, Completion::BudgetExhausted);
        assert_eq!(cache.len(), 0, "a truncated best-so-far must not be stored");
        // The same shape under the same config misses again (and is still
        // counted as a miss, not an error).
        cache
            .explore_multi(&Explorer::with_config(cfg), &def, &accel)
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                l2_hits: 0,
                misses: 2
            }
        );
    }

    #[test]
    fn a_finished_answer_also_answers_a_tighter_budget() {
        use crate::explore::{Budget, Completion};
        let accel = catalog::v100();
        let def = gemm("g", 64, 64, 64);
        let mut tight = small_explorer(21).config().clone();
        tight.budget = Budget {
            max_measurements: Some(1),
            ..Budget::default()
        };
        let tight = Explorer::with_config(tight);
        let alone = ExplorationCache::new()
            .explore_multi(&tight, &def, &accel)
            .unwrap();
        assert_eq!(alone.completion, Completion::BudgetExhausted);
        // After an unlimited run of the request, the key (which leaves the
        // budget out) answers the tighter one with the finished result.
        let cache = ExplorationCache::new();
        let finished = cache
            .explore_multi(&small_explorer(21), &def, &accel)
            .unwrap();
        let answered = cache.explore_multi(&tight, &def, &accel).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(answered.completion, Completion::Finished);
        assert_eq!(answered.cycles().to_bits(), finished.cycles().to_bits());
        assert_eq!(answered.evaluations, finished.evaluations);
    }

    #[test]
    fn failed_explorations_are_cached() {
        // A pure reduction has no valid Tensor Core mapping.
        let mut b = ComputeBuilder::new("sum");
        let i = b.spatial("i", 4);
        let k = b.reduce("k", 4);
        let a = b.input("a", &[4, 4], DType::F32);
        let o = b.output("o", &[4], DType::F32);
        b.add_acc(o.at([i]), a.at([i, k]));
        let def = b.finish().unwrap();

        let cache = ExplorationCache::new();
        let e = small_explorer(1);
        let accel = catalog::v100();
        assert!(cache.explore_multi(&e, &def, &accel).is_err());
        assert!(cache.explore_multi(&e, &def, &accel).is_err());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                l2_hits: 0,
                misses: 1
            }
        );
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        // The FNV-1a 64-bit reference values; every copy of the hash in the
        // workspace was unified onto this implementation, so pin it.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn machines_are_interned_by_value_and_rendered_once() {
        let cache = ExplorationCache::new();
        let v100 = catalog::v100();
        let first = cache.intern(&v100);
        let again = cache.intern(&catalog::v100());
        assert!(Arc::ptr_eq(&first, &again), "one machine");
        assert_eq!(first.id, "#0");
        // A memory-only lookup, miss and hit, never names the machine on
        // disk, so its text is never rendered.
        let e = small_explorer(5);
        let g = gemm("g", 64, 64, 64);
        for _ in 0..2 {
            cache.explore_multi(&e, &g, &v100).expect("explores");
        }
        assert_eq!(cache.stats().hits, 1);
        let machines = cache.machines.lock().unwrap().clone();
        assert!(
            machines.iter().all(|m| m.text.get().is_none()),
            "nothing rendered"
        );
        // The first disk key renders it, once.
        let stem = KeyStem::new("multi", e.config(), &g, Arc::clone(&first), None);
        let key = stem.disk_key();
        let (hash, text) = first.text.get().expect("rendered by the disk key");
        assert_eq!(*text, format!("{v100:?}"));
        assert_eq!(*hash, fnv1a(text));
        assert!(key.ends_with(text.as_str()));
        stem.file_hash();
        assert!(std::ptr::eq(first.text(), first.text.get().unwrap()));
        let mut faster = v100.clone();
        faster.clock_ghz += 0.25;
        assert_ne!(cache.intern(&faster).id, first.id);
        // A value that is not equal to itself is still one machine: the one
        // spec that is rendered to be interned.
        let mut nan = v100;
        nan.clock_ghz = f64::NAN;
        let (a, b) = (cache.intern(&nan), cache.intern(&nan.clone()));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.text.get().is_some());
        assert_eq!(cache.machines.lock().unwrap().len(), 3);
    }

    // ---- the persistent L2 tier --------------------------------------------

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("amos-l2-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn disk_cache(dir: &std::path::Path) -> ExplorationCache {
        ExplorationCache::with_disk(&CacheConfig {
            cache_dir: Some(dir.to_path_buf()),
        })
    }

    /// The single `.amosc` entry file in `dir`.
    fn entry_path(dir: &std::path::Path) -> std::path::PathBuf {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("cache dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "amosc"))
            .collect();
        assert_eq!(entries.len(), 1, "expected one entry: {entries:?}");
        entries.pop().expect("one entry")
    }

    #[test]
    fn screening_regret_is_the_same_cold_from_l1_and_from_l2() {
        let dir = tmp_dir("regret");
        let accel = catalog::v100();
        // Many mappings, so the trace spans seeds, generations and rounds.
        let def = amos_workloads::ops::cap(1, 8, 16, 6, 6, 3, 3, 4);
        let regret = |cache: &ExplorationCache| {
            let result = cache
                .explore_multi(&small_explorer(5), &def, &accel)
                .unwrap();
            crate::MappingReport::from_result(&result, &accel).screening_regret
        };
        let first = disk_cache(&dir);
        let cold = regret(&first);
        let l1 = regret(&first);
        let second = disk_cache(&dir);
        let l2 = regret(&second);
        assert_eq!((first.stats().misses, first.stats().hits), (1, 1));
        assert_eq!(second.stats().l2_hits, 1);
        assert_eq!((l1, l2), (cold, cold));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn l2_answers_a_fresh_process_bit_identically() {
        let dir = tmp_dir("roundtrip");
        let accel = catalog::v100();
        let def = gemm("g", 64, 64, 64);
        let first = disk_cache(&dir);
        let cold = first
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        assert_eq!(
            first.stats(),
            CacheStats {
                hits: 0,
                l2_hits: 0,
                misses: 1
            }
        );
        // A second cache over the same directory models a fresh process: the
        // lookup is answered from disk, with zero explorations run.
        let second = disk_cache(&dir);
        let warm = second
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        assert_eq!(
            second.stats(),
            CacheStats {
                hits: 0,
                l2_hits: 1,
                misses: 0
            }
        );
        assert_eq!(cold.cycles().to_bits(), warm.cycles().to_bits());
        assert_eq!(cold.best_schedule, warm.best_schedule);
        assert_eq!(cold.best_mapping.groups, warm.best_mapping.groups);
        assert_eq!(cold.evaluations, warm.evaluations);
        assert_eq!(cold.num_mappings, warm.num_mappings);
        assert_eq!(cold.sim_failures, warm.sim_failures);
        assert_eq!(cold.completion, warm.completion);
        // The L2 hit was promoted into L1: repeating the lookup is an L1 hit.
        second
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        assert_eq!(second.stats().hits, 1);
        assert_eq!(second.stats().l2_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Entries for `small_explorer(11)` on the 64-cubed GEMM on v100: the
    /// one the last schema-1 commit (4704759) wrote, and the one this schema
    /// writes. The second goes stale, and is to be rewritten by the commit
    /// that does it, when the version salt, the entry layout, the key
    /// layout, the file naming or `data/accels/v100.toml` changes on
    /// purpose.
    #[cfg(not(feature = "fault-injection"))]
    const SCHEMA_1_ENTRY: (&str, &str) = (
        "79b7a158852dee99.amosc",
        include_str!("../tests/fixtures/79b7a158852dee99.amosc"),
    );
    #[cfg(not(feature = "fault-injection"))]
    const SCHEMA_2_ENTRY: (&str, &str) = (
        "83d21f019876c0d8.amosc",
        include_str!("../tests/fixtures/83d21f019876c0d8.amosc"),
    );

    #[test]
    #[cfg(not(feature = "fault-injection"))]
    fn a_schema_1_entry_is_a_silent_cold_miss_and_is_rewritten() {
        let dir = tmp_dir("schema-1-entry");
        std::fs::create_dir_all(&dir).expect("cache dir");
        // Under its own name no lookup opens it; under the name this schema
        // looks for, its first line rejects it.
        for name in [SCHEMA_1_ENTRY.0, SCHEMA_2_ENTRY.0] {
            std::fs::write(dir.join(name), SCHEMA_1_ENTRY.1).expect("fixture copy");
        }
        let accel = catalog::v100();
        let def = gemm("g", 64, 64, 64);
        let cold = disk_cache(&dir);
        let explored = cold
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        assert_eq!(
            cold.stats(),
            CacheStats {
                hits: 0,
                l2_hits: 0,
                misses: 1
            }
        );
        let rewritten = std::fs::read_to_string(dir.join(SCHEMA_2_ENTRY.0)).expect("entry");
        assert!(rewritten.starts_with(crate::disk::header()), "{rewritten}");
        let warm = disk_cache(&dir);
        let read = warm
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        assert_eq!(warm.stats().l2_hits, 1, "{:?}", warm.stats());
        assert_eq!(explored.cycles().to_bits(), read.cycles().to_bits());
        assert_eq!(
            crate::disk::cache_dir_stats(&dir).unwrap().stale,
            1,
            "the leftover under its schema-1 name is what `cache clear` reclaims"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(not(feature = "fault-injection"))]
    fn a_committed_schema_2_entry_answers_bit_identically() {
        let dir = tmp_dir("schema-2-entry");
        std::fs::create_dir_all(&dir).expect("cache dir");
        std::fs::write(dir.join(SCHEMA_2_ENTRY.0), SCHEMA_2_ENTRY.1).expect("fixture copy");
        let accel = catalog::v100();
        let def = gemm("g", 64, 64, 64);
        let cache = disk_cache(&dir);
        let warm = cache
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                l2_hits: 1,
                misses: 0
            },
            "the committed key content, file name and entry format must still be accepted"
        );
        let cold = ExplorationCache::new()
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        assert_eq!(cold.cycles().to_bits(), warm.cycles().to_bits());
        assert_eq!(cold.best_report, warm.best_report);
        assert_eq!(cold.best_schedule, warm.best_schedule);
        assert_eq!(cold.best_mapping.groups, warm.best_mapping.groups);
        assert_eq!(cold.evaluations, warm.evaluations);
        assert_eq!(cold.num_mappings, warm.num_mappings);
        assert_eq!(cold.sim_failures, warm.sim_failures);
        assert_eq!(cold.screening.screened, warm.screening.screened);
        assert_eq!(
            cold.screening.measured_memo_hits,
            warm.screening.measured_memo_hits
        );
        assert_eq!(
            cold.screening.survivor_memo_hits,
            warm.screening.survivor_memo_hits
        );
        assert_eq!(cold.generations_completed, warm.generations_completed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn derived_keys_keep_the_layout_of_one_fingerprint_per_key() {
        let accel = catalog::v100();
        let def = gemm("g", 64, 64, 64);
        let config = small_explorer(11).config().clone();
        let shape = shape_fingerprint(&def);
        #[cfg(not(feature = "fault-injection"))]
        let faults = String::new();
        #[cfg(feature = "fault-injection")]
        let faults = format!("faults:{};", config.faults);
        let body = format!("cfg:8/2/3/2/11/w0;{shape};{faults}");
        let cache = ExplorationCache::new();
        let stem = KeyStem::new("multi", &config, &def, cache.intern(&accel), None);
        // In memory the machine is its id, the first interned being 0...
        assert_eq!(stem.key(), format!("multi;{body}#0"));
        // ...on disk it is spelled out, and the file is named by the hash
        // of everything before it continued over the hash of the spelling.
        assert_eq!(stem.disk_key(), format!("multi;{body}accel:{accel:?}"));
        assert_eq!(
            stem.file_hash(),
            rand::fnv1a_64_extend(
                fnv1a(&format!("multi;{body}")),
                &fnv1a(&format!("{accel:?}")).to_le_bytes()
            )
        );
        let fixed =
            |shape| KeyStem::new("fixed:im2col", &config, &def, cache.intern(&accel), shape);
        assert_eq!(fixed(Some(&shape)).key(), fixed(None).key());
        // Byte for byte the key both committed entries store, under the
        // name this schema gives it.
        #[cfg(not(feature = "fault-injection"))]
        for entry in [SCHEMA_1_ENTRY.1, SCHEMA_2_ENTRY.1] {
            assert!(entry.contains(&format!("\n{}\n", stem.disk_key())));
        }
        #[cfg(not(feature = "fault-injection"))]
        assert_eq!(format!("{:016x}.amosc", stem.file_hash()), SCHEMA_2_ENTRY.0);
    }

    #[test]
    fn corrupted_truncated_and_stale_entries_degrade_to_cold_misses() {
        let dir = tmp_dir("degrade");
        let accel = catalog::v100();
        let def = gemm("g", 64, 64, 64);
        let reference = disk_cache(&dir)
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        let path = entry_path(&dir);
        let good = std::fs::read(&path).expect("entry bytes");

        let tamper = |bytes: &[u8]| std::fs::write(&path, bytes).expect("tamper");
        let mut scenarios: Vec<(&str, Vec<u8>)> = vec![
            ("garbage", b"not a cache entry at all".to_vec()),
            ("truncated", good[..good.len() / 2].to_vec()),
            ("empty", Vec::new()),
        ];
        // Version mismatch: an otherwise-perfect entry from a different
        // schema/code version.
        let stale = String::from_utf8_lossy(&good)
            .replacen("amos-l2 schema", "amos-l2 schema999x", 1)
            .into_bytes();
        scenarios.push(("stale-salt", stale));
        // A lying report: flip one digit of the stored cycles bits. The
        // entry parses, but re-simulation cannot reproduce it.
        let text = String::from_utf8_lossy(&good).to_string();
        let report_at = text.find("\nreport ").expect("report line") + "\nreport ".len();
        let mut lying = text.into_bytes();
        lying[report_at] = if lying[report_at] == b'0' { b'1' } else { b'0' };
        scenarios.push(("lying-report", lying));
        // Two requests whose file names collide: the file is where this
        // request looks, and stores another request's (another seed's) key.
        let text = String::from_utf8_lossy(&good).to_string();
        assert!(text.contains("\nmulti;cfg:8/2/3/2/11/w0;"));
        let collided = text.replacen(
            "\nmulti;cfg:8/2/3/2/11/w0;",
            "\nmulti;cfg:8/2/3/2/12/w0;",
            1,
        );
        scenarios.push(("name-collision", collided.into_bytes()));
        // An entry past the size bound that would otherwise be accepted:
        // the evaluation trace is the one part nothing re-derives.
        let padded = |evals: usize| {
            let (head, _) = text.split_once("\nevals ").expect("evals line");
            let mut s = format!("{head}\nevals {evals}\n");
            for _ in 0..evals {
                s.push_str("e 0000000000000000 0000000000000000\n");
            }
            s.push_str("end\n");
            s.into_bytes()
        };
        let oversize = padded(500_000);
        assert!(oversize.len() > 16 * 1024 * 1024);
        scenarios.push(("oversize", oversize));

        for (name, bytes) in scenarios {
            tamper(&bytes);
            let cache = disk_cache(&dir);
            let got = cache
                .explore_multi(&small_explorer(11), &def, &accel)
                .unwrap();
            assert_eq!(
                cache.stats(),
                CacheStats {
                    hits: 0,
                    l2_hits: 0,
                    misses: 1
                },
                "scenario `{name}` must be a cold miss"
            );
            assert_eq!(
                got.cycles().to_bits(),
                reference.cycles().to_bits(),
                "scenario `{name}` must still return the right answer"
            );
            assert_eq!(got.best_schedule, reference.best_schedule, "{name}");
        }
        // The same padding under the bound is read: it is the bound that
        // turned the oversized entry away.
        tamper(&padded(1_000));
        let cache = disk_cache(&dir);
        let got = cache
            .explore_multi(&small_explorer(11), &def, &accel)
            .unwrap();
        assert_eq!(cache.stats().l2_hits, 1, "{:?}", cache.stats());
        assert_eq!(got.evaluations.len(), 1_000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_dir_degrades_to_memory_only() {
        // Place the "directory" under a plain file so it can never be
        // created: every store fails, every load misses, nothing panics.
        let blocker = std::env::temp_dir().join(format!("amos-l2-blocker-{}", std::process::id()));
        std::fs::write(&blocker, "not a directory").expect("blocker file");
        let dir = blocker.join("sub");
        let accel = catalog::v100();
        let def = gemm("g", 64, 64, 64);
        let a = disk_cache(&dir);
        let first = a.explore_multi(&small_explorer(11), &def, &accel).unwrap();
        // Nothing persisted: a fresh cache misses again.
        let b = disk_cache(&dir);
        let second = b.explore_multi(&small_explorer(11), &def, &accel).unwrap();
        assert_eq!(a.stats().misses, 1);
        assert_eq!(b.stats().misses, 1);
        assert_eq!(b.stats().l2_hits, 0);
        assert_eq!(first.cycles().to_bits(), second.cycles().to_bits());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn truncated_and_failed_runs_stay_off_disk() {
        use crate::explore::Budget;
        let dir = tmp_dir("finished-only");
        let accel = catalog::v100();
        // A budget-truncated run must not be persisted...
        let mut cfg = small_explorer(21).config().clone();
        cfg.budget = Budget {
            max_measurements: Some(1),
            ..Budget::default()
        };
        let cache = disk_cache(&dir);
        cache
            .explore_multi(&Explorer::with_config(cfg), &gemm("g", 64, 64, 64), &accel)
            .unwrap();
        // ...and neither is a failed exploration (`Err` entries are L1-only).
        let mut b = ComputeBuilder::new("sum");
        let i = b.spatial("i", 4);
        let k = b.reduce("k", 4);
        let a = b.input("a", &[4, 4], DType::F32);
        let o = b.output("o", &[4], DType::F32);
        b.add_acc(o.at([i]), a.at([i, k]));
        assert!(cache
            .explore_multi(&small_explorer(1), &b.finish().unwrap(), &accel)
            .is_err());
        let written = std::fs::read_dir(&dir).map(|rd| rd.count()).unwrap_or(0);
        assert_eq!(written, 0, "only clean Finished results are persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
