//! The staged compilation engine.
//!
//! [`Engine`] is the one front door to the AMOS stack. It owns every cache in
//! one place — the structural exploration cache (and, transitively, the
//! loop-nest shapes, screening contexts and lane programs that live on the
//! lowered programs it stores) — plus a seeded base [`ExplorerConfig`], so batch and
//! network compilation reuse work across calls without callers plumbing
//! caches by hand.
//!
//! Compilation is a typed pipeline; each stage is a named step whose output
//! is the next stage's input:
//!
//! ```text
//! analyze → Analyzed → generate → MappingSet → lower → Lowered
//!         → explore → Explored → emit → Artifact
//! ```
//!
//! [`Engine::compile`] runs the whole pipeline with a single cache lookup
//! (so repeated shapes skip even enumeration and lowering), and the
//! staged methods let callers stop mid-way — e.g. `generate` alone
//! reproduces the paper's Table 6 mapping counts. Staged and one-shot runs
//! share cache entries: exploring the same shape either way is one miss and
//! then hits.
//!
//! All failures are reported as [`AmosError`] values carrying the stage,
//! operator and accelerator context.

use crate::cache::{CacheStats, ExplorationCache, MULTI};
use crate::disk::CacheConfig;
use crate::error::{AmosError, Stage};
use crate::explore::{ExplorationResult, ExploreError, Explorer, ExplorerConfig, LoweredUnit};
use crate::generate::MaskedMappings;
use crate::mapping::Mapping;
use crate::report::MappingReport;
use amos_hw::{AcceleratorSpec, Registry};
use amos_ir::nodes::Stmt;
use amos_ir::ComputeDef;
use std::path::Path;
use std::sync::OnceLock;

/// An operator bound to an accelerator and decomposed into per-intrinsic
/// exploration units. Output of [`Engine::analyze`].
#[derive(Debug, Clone)]
pub struct Analyzed {
    def: ComputeDef,
    accel: AcceleratorSpec,
    config: ExplorerConfig,
    units: Vec<AcceleratorSpec>,
}

impl Analyzed {
    /// The operator under compilation.
    pub fn def(&self) -> &ComputeDef {
        &self.def
    }

    /// The target accelerator.
    pub fn accelerator(&self) -> &AcceleratorSpec {
        &self.accel
    }

    /// The exploration configuration this pipeline run carries.
    pub fn config(&self) -> &ExplorerConfig {
        &self.config
    }

    /// Number of per-intrinsic units the accelerator decomposed into
    /// (one for homogeneous devices, more for e.g. an Ascend-style NPU).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }
}

/// The enumerated valid-mapping sets, one per unit (paper §5.1, Table 6).
/// Output of [`Engine::generate`]. Each mapping is held as the enumerator
/// found it, one software-iteration bit mask per intrinsic axis plus its
/// operand correspondence; none is a [`Mapping`] value.
#[derive(Debug, Clone)]
pub struct MappingSet {
    def: ComputeDef,
    accel: AcceleratorSpec,
    config: ExplorerConfig,
    units: Vec<(AcceleratorSpec, MaskedMappings)>,
}

impl MappingSet {
    /// The operator under compilation.
    pub fn def(&self) -> &ComputeDef {
        &self.def
    }

    /// The target accelerator.
    pub fn accelerator(&self) -> &AcceleratorSpec {
        &self.accel
    }

    /// Total number of valid mappings across all units — the Table 6 count.
    pub fn total_mappings(&self) -> usize {
        self.units.iter().map(|(_, m)| m.len()).sum()
    }

    /// Mapping counts per unit, in unit order.
    pub fn per_unit_counts(&self) -> Vec<usize> {
        self.units.iter().map(|(_, m)| m.len()).collect()
    }
}

/// Mapped programs, one per mapping per unit (§6 lowering). Output of
/// [`Engine::lower`]. Each unit holds its first program, lowered, and its
/// whole mapping set as the enumerator's masks. A unit's programs share one
/// copy of the operator, the intrinsic and the facts derived from the pair
/// alone, which lowering derives with the first program. Every other program
/// is lowered from its masks the first time the search reads it, then
/// screened, and a search reads only a few hundred of a space that can hold
/// thousands. [`Engine::explore_fixed`] takes a caller's list through the
/// same form.
#[derive(Debug, Clone)]
pub struct Lowered {
    def: ComputeDef,
    accel: AcceleratorSpec,
    config: ExplorerConfig,
    units: Vec<LoweredUnit>,
}

impl Lowered {
    /// The operator under compilation.
    pub fn def(&self) -> &ComputeDef {
        &self.def
    }

    /// The target accelerator.
    pub fn accelerator(&self) -> &AcceleratorSpec {
        &self.accel
    }

    /// Total number of programs across all units, one per mapping, lowered
    /// or still to be lowered on first read.
    pub fn total_programs(&self) -> usize {
        let units = self.units.iter().filter_map(|u| u.programs.as_ref());
        units.map(|p| p.len()).sum()
    }
}

/// The best measured (mapping, schedule) pair with the full evaluation
/// trace, plus the operator/accelerator it was found for. Output of
/// [`Engine::explore`] and [`Engine::compile`].
#[derive(Debug, Clone)]
pub struct Explored {
    def: ComputeDef,
    accel: AcceleratorSpec,
    result: ExplorationResult,
}

impl Explored {
    /// The operator that was compiled.
    pub fn def(&self) -> &ComputeDef {
        &self.def
    }

    /// The target accelerator.
    pub fn accelerator(&self) -> &AcceleratorSpec {
        &self.accel
    }

    /// The underlying exploration result.
    pub fn result(&self) -> &ExplorationResult {
        &self.result
    }

    /// Consumes the stage and returns the underlying result.
    pub fn into_result(self) -> ExplorationResult {
        self.result
    }

    /// Best measured cycles.
    pub fn cycles(&self) -> f64 {
        self.result.cycles()
    }
}

/// Everything the stack can emit for a compiled operator: the Table-5-style
/// mapping report, the Table-4 `Compute`/`Memory` IR and CUDA-like source.
/// Output of [`Engine::emit`].
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Table-5-style mapping report for the winner.
    pub report: MappingReport,
    /// The winner lowered to the Table 4 `Compute`/`Memory` IR.
    pub ir: Vec<Stmt>,
    /// CUDA-like source for the winner.
    pub cuda: String,
}

/// The shared compilation engine: a seeded base configuration plus every
/// cache the stack uses, behind one front door.
///
/// Entry points (CLI, baselines, benches, network evaluation) construct one
/// `Engine` and compile through it; none of them constructs or threads an
/// exploration cache by hand. Repeated requests — same shape, accelerator
/// and configuration — are answered from cache, across the staged and
/// one-shot APIs alike.
#[derive(Debug)]
pub struct Engine {
    base: ExplorerConfig,
    cache: ExplorationCache,
    cache_config: CacheConfig,
    registry: OnceLock<Registry>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::with_cache(ExplorerConfig::default(), CacheConfig::default())
    }
}

impl Engine {
    /// An engine with the default exploration budget.
    pub fn new() -> Self {
        Engine::default()
    }

    /// An engine with a custom base configuration.
    pub fn with_config(base: ExplorerConfig) -> Self {
        Engine::with_cache(base, CacheConfig::default())
    }

    /// An engine whose exploration cache is backed by the persistent
    /// on-disk tier of [`CacheConfig::cache_dir`] (when set): clean
    /// finished explorations are written through to disk and answer
    /// lookups in later processes. Infallible — an unusable directory
    /// degrades to a memory-only engine.
    pub fn with_cache(base: ExplorerConfig, cache_config: CacheConfig) -> Self {
        Engine {
            base,
            cache: ExplorationCache::with_disk(&cache_config),
            cache_config,
            registry: OnceLock::new(),
        }
    }

    /// Replaces the accelerator registry this engine resolves names
    /// against — the `--accel-dir` path: build the registry with
    /// [`load_registry`] and every verb sees the file-loaded machines.
    #[must_use]
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.registry = OnceLock::from(registry);
        self
    }

    /// The accelerator registry this engine resolves names against, built on
    /// first use (a compile never asks): the built-in catalog unless
    /// [`Engine::with_registry`] gave another.
    pub fn registry(&self) -> &Registry {
        self.registry.get_or_init(Registry::builtin)
    }

    /// Builds the named accelerator from the engine's registry.
    ///
    /// # Errors
    ///
    /// A usage error listing the known machines when `name` is not
    /// registered.
    pub fn accelerator(&self, name: &str) -> Result<AcceleratorSpec, AmosError> {
        let registry = self.registry();
        registry.build(name).ok_or_else(|| {
            AmosError::usage(format!(
                "unknown accelerator `{name}` (known: {})",
                registry.names().join(", ")
            ))
            .on_accelerator(name)
        })
    }

    /// The cache placement this engine was built with.
    pub fn cache_config(&self) -> &CacheConfig {
        &self.cache_config
    }

    /// The base configuration used when no per-call override is given.
    pub fn config(&self) -> &ExplorerConfig {
        &self.base
    }

    /// The base configuration with a different seed — the idiom for
    /// per-layer seeds in network compilation.
    pub fn config_with_seed(&self, seed: u64) -> ExplorerConfig {
        ExplorerConfig {
            seed,
            ..self.base.clone()
        }
    }

    /// Top-level cache counters (hits, misses).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Counters of the persistent worker pool this engine's parallel
    /// explorations run on (threads spawned, waves submitted, tasks and
    /// chunks claimed). The pool is process-wide — workers are spawned
    /// lazily on the first parallel wave and reused by every engine and
    /// every exploration thereafter — so these counters are cumulative for
    /// the process, not per-engine.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        crate::pool::pool_stats()
    }

    /// Number of distinct requests cached: one per (tag, shape,
    /// accelerator, config) answered cleanly or with an error.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    // ---- staged pipeline ---------------------------------------------------

    /// Stage 1: binds an operator to an accelerator under the base
    /// configuration and decomposes the device into per-intrinsic units.
    pub fn analyze(&self, def: &ComputeDef, accel: &AcceleratorSpec) -> Analyzed {
        self.analyze_with(self.base.clone(), def, accel)
    }

    /// [`Engine::analyze`] with a per-call configuration override (used by
    /// baselines that carry their own budget and seed).
    pub fn analyze_with(
        &self,
        config: ExplorerConfig,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Analyzed {
        let explorer = Explorer::with_config(config.clone());
        Analyzed {
            units: explorer.unit_accelerators(accel),
            def: def.clone(),
            accel: accel.clone(),
            config,
        }
    }

    /// Stage 2: enumerates the valid software–hardware mappings of every
    /// unit (§5.1), keeping each as the enumerator's bit masks.
    ///
    /// # Errors
    ///
    /// [`Stage::Generate`] / no valid mapping when every unit's enumeration
    /// is empty.
    pub fn generate(&self, analyzed: Analyzed) -> Result<MappingSet, AmosError> {
        let Analyzed {
            def,
            accel,
            config,
            units,
        } = analyzed;
        let explorer = Explorer::with_config(config.clone());
        let units: Vec<(AcceleratorSpec, MaskedMappings)> = units
            .into_iter()
            .map(|unit| {
                let mappings = explorer.enumerate_unit(&def, &unit);
                (unit, mappings)
            })
            .collect();
        if units.iter().all(|(_, m)| m.is_empty()) {
            return Err(AmosError::from(ExploreError::NoValidMapping {
                computation: def.name().to_string(),
                intrinsic: accel
                    .all_intrinsics()
                    .map(|i| i.name.clone())
                    .collect::<Vec<_>>()
                    .join("|"),
            })
            .at_stage(Stage::Generate)
            .for_operator(def.name())
            .on_accelerator(&accel.name));
        }
        Ok(MappingSet {
            def,
            accel,
            config,
            units,
        })
    }

    /// Stage 3: lowers each unit's mappings to mapped programs (§6): the
    /// first one now, with the facts every program of the unit shares; each
    /// other one the first time [`Engine::explore`] reads it.
    ///
    /// # Errors
    ///
    /// [`Stage::Lower`] wrapping the simulator error of a unit's first
    /// mapping when it fails to lower. The others lower whenever it does:
    /// enumeration admits only definitions whose iterations plus intrinsic
    /// axes fit a program's 64 loop axes.
    pub fn lower(&self, set: MappingSet) -> Result<Lowered, AmosError> {
        let MappingSet {
            def,
            accel,
            config,
            units,
        } = set;
        let explorer = Explorer::with_config(config.clone());
        let units = units
            .into_iter()
            .map(|(unit, mappings)| {
                let programs = explorer.lower_unit(&def, &unit, mappings).map_err(|e| {
                    AmosError::from(e)
                        .at_stage(Stage::Lower)
                        .for_operator(def.name())
                        .on_accelerator(&accel.name)
                })?;
                Ok(LoweredUnit {
                    accel: unit,
                    programs,
                })
            })
            .collect::<Result<Vec<_>, AmosError>>()?;
        Ok(Lowered {
            def,
            accel,
            config,
            units,
        })
    }

    /// Stage 4: the joint mapping × schedule search over the lowered units
    /// (§5.3), memoised in the engine's cache under the same key as
    /// [`Engine::compile`] — so staged and one-shot runs share entries.
    ///
    /// # Errors
    ///
    /// [`Stage::Explore`] wrapping the exploration failure.
    pub fn explore(&self, lowered: Lowered) -> Result<Explored, AmosError> {
        let Lowered {
            def,
            accel,
            config,
            units,
        } = lowered;
        let explorer = Explorer::with_config(config);
        // Same key as the one-shot `explore_multi` path, so staged and
        // one-shot lookups share entries.
        let result = self
            .cache
            .explore_tagged_shaped(MULTI, &explorer, &def, &accel, None, || {
                explorer.explore_units(&def, &accel, &units)
            })
            .map_err(|e| {
                AmosError::from(e)
                    .at_stage(Stage::Explore)
                    .for_operator(def.name())
                    .on_accelerator(&accel.name)
            })?;
        Ok(Explored { def, accel, result })
    }

    /// Stage 5: emits the mapping report, Table-4 IR and CUDA-like source
    /// for an exploration winner.
    pub fn emit(&self, explored: &Explored) -> Artifact {
        let result = &explored.result;
        Artifact {
            report: MappingReport::from_result(result, &explored.accel),
            ir: crate::codegen::emit_ir(&result.best_program, &result.best_schedule),
            cuda: crate::cuda_like::emit_cuda_like(&result.best_program, &result.best_schedule),
        }
    }

    // ---- one-shot entry points ---------------------------------------------

    /// Runs the whole pipeline under the base configuration with a single
    /// cache lookup: a repeated structure skips enumeration and lowering
    /// entirely and returns the cached winner.
    ///
    /// # Errors
    ///
    /// The underlying stage failure, with context attached.
    pub fn compile(
        &self,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Result<Explored, AmosError> {
        self.compile_with(self.base.clone(), def, accel)
    }

    /// [`Engine::compile`] with a per-call configuration override.
    ///
    /// # Errors
    ///
    /// The underlying stage failure, with context attached.
    pub fn compile_with(
        &self,
        config: ExplorerConfig,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Result<Explored, AmosError> {
        let result = self.explore_op_with(config, def, accel)?;
        Ok(Explored {
            def: def.clone(),
            accel: accel.clone(),
            result,
        })
    }

    /// Explores `def` on `accel` under the base configuration, searching
    /// across every intrinsic of a heterogeneous device, memoised in the
    /// engine's cache.
    ///
    /// # Errors
    ///
    /// [`Stage::Explore`] wrapping the exploration failure.
    pub fn explore_op(
        &self,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Result<ExplorationResult, AmosError> {
        self.explore_op_with(self.base.clone(), def, accel)
    }

    /// [`Engine::explore_op`] with a per-call configuration override.
    ///
    /// # Errors
    ///
    /// [`Stage::Explore`] wrapping the exploration failure.
    pub fn explore_op_with(
        &self,
        config: ExplorerConfig,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Result<ExplorationResult, AmosError> {
        let explorer = Explorer::with_config(config);
        self.cache
            .explore_multi(&explorer, def, accel)
            .map_err(|e| {
                AmosError::from(e)
                    .at_stage(Stage::Explore)
                    .for_operator(def.name())
                    .on_accelerator(&accel.name)
            })
    }

    /// [`Engine::explore_op_with`] for callers that already computed
    /// [`crate::shape_fingerprint`]`(def)` — network evaluation derives
    /// per-shape seeds from it — so the cache key reuses it instead of
    /// rebuilding it. `shape`, when given, **must** equal
    /// `shape_fingerprint(def)` (debug builds assert this).
    ///
    /// # Errors
    ///
    /// [`Stage::Explore`] wrapping the exploration failure.
    pub fn explore_op_shaped(
        &self,
        config: ExplorerConfig,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
        shape: Option<&str>,
    ) -> Result<ExplorationResult, AmosError> {
        let explorer = Explorer::with_config(config);
        self.cache
            .explore_multi_shaped(&explorer, def, accel, shape)
            .map_err(|e| {
                AmosError::from(e)
                    .at_stage(Stage::Explore)
                    .for_operator(def.name())
                    .on_accelerator(&accel.name)
            })
    }

    /// Explores with a *fixed* mapping set under `tag` (the §7.6
    /// fixed-mapping baselines: AMOS's schedule tuner with the mapping
    /// frozen). The tag keeps different mapping flavours over the same
    /// shape from colliding in the cache.
    ///
    /// The list enters the search as the enumerator's per-axis iteration
    /// masks, so each fused group, the winner's included, comes back in
    /// declaration order whatever order the caller listed (see
    /// [`Explorer::explore_mappings`]).
    ///
    /// # Errors
    ///
    /// [`Stage::Explore`] wrapping the exploration failure; a listed mapping
    /// that cannot lower fails there as [`ExploreError::Sim`] before the
    /// search starts.
    pub fn explore_fixed(
        &self,
        tag: &str,
        config: ExplorerConfig,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
        mappings: Vec<Mapping>,
    ) -> Result<ExplorationResult, AmosError> {
        self.explore_fixed_shaped(tag, config, def, accel, mappings, None)
    }

    /// [`Engine::explore_fixed`] with a precomputed
    /// [`crate::shape_fingerprint`]`(def)` (same contract as
    /// [`Engine::explore_op_shaped`]).
    ///
    /// # Errors
    ///
    /// [`Stage::Explore`] wrapping the exploration failure.
    pub fn explore_fixed_shaped(
        &self,
        tag: &str,
        config: ExplorerConfig,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
        mappings: Vec<Mapping>,
        shape: Option<&str>,
    ) -> Result<ExplorationResult, AmosError> {
        let explorer = Explorer::with_config(config);
        self.cache
            .explore_tagged_shaped(tag, &explorer, def, accel, shape, || {
                explorer.explore_mappings(def, accel, Some(mappings))
            })
            .map_err(|e| {
                AmosError::from(e)
                    .at_stage(Stage::Explore)
                    .for_operator(def.name())
                    .on_accelerator(&accel.name)
            })
    }
}

/// The registry an `--accel-dir` invocation runs against: the built-in
/// catalog, layered with every accelerator file in `accel_dir` when one is
/// given (same-name file wins; ISA-kind files are run through the
/// derivation pass).
///
/// # Errors
///
/// `AmosErrorKind::Accel` wrapping the file/line diagnostic of the first
/// unreadable or invalid file.
pub fn load_registry(accel_dir: Option<&Path>) -> Result<Registry, AmosError> {
    match accel_dir {
        None => Ok(Registry::builtin()),
        Some(dir) => Registry::load_dir(dir).map_err(AmosError::from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::AmosErrorKind;
    use crate::MappingGenerator;
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};

    fn small_gemm() -> ComputeDef {
        let mut b = ComputeBuilder::new("gemm");
        let i = b.spatial("i", 64);
        let j = b.spatial("j", 64);
        let k = b.reduce("k", 64);
        let a = b.input("a", &[64, 64], DType::F16);
        let w = b.input("b", &[64, 64], DType::F16);
        let c = b.output("c", &[64, 64], DType::F32);
        b.mul_acc(c.at([i, j]), a.at([i, k]), w.at([k, j]));
        b.finish().expect("valid gemm")
    }

    fn tiny_config(seed: u64) -> ExplorerConfig {
        ExplorerConfig {
            population: 8,
            generations: 2,
            survivors: 3,
            measure_top: 2,
            seed,
            jobs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn staged_pipeline_matches_one_shot_compile() {
        let def = small_gemm();
        let accel = catalog::v100();

        let staged_engine = Engine::with_config(tiny_config(7));
        let analyzed = staged_engine.analyze(&def, &accel);
        assert_eq!(analyzed.num_units(), 1);
        let mappings = staged_engine.generate(analyzed).expect("mappings");
        assert_eq!(mappings.total_mappings(), 1);
        let lowered = staged_engine.lower(mappings).expect("lowered");
        assert_eq!(lowered.total_programs(), 1);
        let staged = staged_engine.explore(lowered).expect("explored");

        let oneshot_engine = Engine::with_config(tiny_config(7));
        let oneshot = oneshot_engine.compile(&def, &accel).expect("compiled");

        assert_eq!(
            staged.cycles().to_bits(),
            oneshot.cycles().to_bits(),
            "staged and one-shot pipelines must agree bit-for-bit"
        );
        assert_eq!(
            staged.result().best_schedule,
            oneshot.result().best_schedule
        );
    }

    #[test]
    fn staged_and_one_shot_share_cache_entries() {
        let def = small_gemm();
        let accel = catalog::v100();
        let engine = Engine::with_config(tiny_config(3));

        let analyzed = engine.analyze(&def, &accel);
        let lowered = engine.lower(engine.generate(analyzed).unwrap()).unwrap();
        let staged = engine.explore(lowered).expect("staged");
        assert_eq!(engine.cache_stats().misses, 1);

        // The one-shot path over the same structure must be a pure hit.
        let oneshot = engine.compile(&def, &accel).expect("one-shot");
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 1);
        assert_eq!(staged.cycles().to_bits(), oneshot.cycles().to_bits());
    }

    #[test]
    fn heterogeneous_device_decomposes_into_units() {
        let engine = Engine::with_config(tiny_config(1));
        let analyzed = engine.analyze(&small_gemm(), &catalog::ascend_npu());
        assert_eq!(analyzed.num_units(), 2, "cube + vector units");
    }

    #[test]
    fn emit_produces_report_ir_and_source() {
        let engine = Engine::with_config(tiny_config(11));
        let explored = engine
            .compile(&small_gemm(), &catalog::v100())
            .expect("compiled");
        let artifact = engine.emit(&explored);
        assert!(!artifact.ir.is_empty());
        assert!(!artifact.cuda.is_empty());
        assert_eq!(artifact.report.intrinsic, "mma_sync");
    }

    #[test]
    fn errors_carry_stage_and_context() {
        let engine = Engine::with_config(tiny_config(1));
        // A pure elementwise op admits no tensor-core mapping.
        let mut b = ComputeBuilder::new("relu-ish");
        let i = b.spatial("i", 64);
        let x = b.input("x", &[64], DType::F16);
        let y = b.output("y", &[64], DType::F32);
        b.mul_acc(y.at([i]), x.at([i]), x.at([i]));
        let def = b.finish().expect("valid def");

        let accel = catalog::v100();
        let analyzed = engine.analyze(&def, &accel);
        let err = match engine.generate(analyzed) {
            Err(e) => e,
            Ok(set) => panic!("expected no mappings, got {}", set.total_mappings()),
        };
        assert_eq!(err.stage, Some(Stage::Generate));
        assert_eq!(err.operator.as_deref(), Some("relu-ish"));
        assert_eq!(err.accelerator.as_deref(), Some("v100"));
        assert!(matches!(err.kind, AmosErrorKind::Explore(_)));
        assert!(err.to_string().contains("[generate]"));
    }

    #[test]
    fn an_accelerator_without_levels_is_a_typed_error_not_a_panic() {
        let def = small_gemm();
        let mut accel = catalog::v100();
        accel.levels.clear();
        let engine = Engine::with_config(tiny_config(1));
        let no_levels = |err: &AmosError| {
            assert_eq!(err.stage, Some(Stage::Explore));
            assert_eq!(err.accelerator.as_deref(), Some("v100"));
            assert!(
                matches!(
                    &err.kind,
                    AmosErrorKind::Explore(ExploreError::Sim(
                        amos_sim::SimError::InvalidSchedule { detail }
                    )) if detail.contains("no memory hierarchy levels")
                ),
                "{err}"
            );
        };
        no_levels(&engine.compile(&def, &accel).expect_err("no levels"));
        // A second seed, so the staged run is not answered by the cached error.
        let engine = Engine::with_config(tiny_config(2));
        let lowered = engine
            .lower(engine.generate(engine.analyze(&def, &accel)).expect("maps"))
            .expect("lowers");
        no_levels(&engine.explore(lowered).expect_err("no levels"));
    }

    #[test]
    fn an_operator_too_wide_for_the_masks_is_a_typed_error_not_a_panic() {
        // `o[i] += a[i, k0 + … + k63] * w[k0 + … + k63]`: 65 iterations, one
        // more than the iteration and axis bitmasks hold.
        let mut b = ComputeBuilder::new("wide");
        let i = b.spatial("i", 16);
        let ks: Vec<_> = (0..64).map(|j| b.reduce(format!("k{j}"), 2)).collect();
        let sum = ks.iter().map(|k| k.ex()).reduce(|x, y| x + y).unwrap();
        let a = b.input("a", &[16, 65], DType::F16);
        let w = b.input("w", &[65], DType::F16);
        let o = b.output("o", &[16], DType::F32);
        b.mul_acc(o.at([i.ex()]), a.at([i.ex(), sum.clone()]), w.at([sum]));
        let def = b.finish().expect("valid def");
        let accel = catalog::v100();
        let engine = Engine::with_config(tiny_config(1));

        // Enumeration declines the definition, so the one-shot call reports
        // that no mapping exists and the staged pipeline stops at `generate`.
        let err = engine.compile(&def, &accel).expect_err("no mapping");
        assert!(matches!(
            err.kind,
            AmosErrorKind::Explore(ExploreError::NoValidMapping { .. })
        ));
        let err = engine
            .generate(engine.analyze(&def, &accel))
            .expect_err("no mapping");
        assert_eq!(err.stage, Some(Stage::Generate));

        // A hand-written mapping of it is rejected where programs are born:
        // 64 outer loops plus three tile loops do not fit the axis masks.
        let mapping = Mapping {
            groups: vec![
                amos_sim::FusedGroup::of(vec![i.id()]),
                amos_sim::FusedGroup::empty(),
                amos_sim::FusedGroup::of(vec![ks[0].id()]),
            ],
            correspondence: vec![0, 1],
        };
        assert!(!crate::validate::validate_mapping(
            &def,
            &accel.intrinsic,
            &mapping
        ));
        assert!(matches!(
            mapping.lower(&def, &accel.intrinsic),
            Err(amos_sim::SimError::MalformedMapping { .. })
        ));
        let err = engine
            .explore_fixed("wide", tiny_config(1), &def, &accel, vec![mapping])
            .expect_err("cannot lower");
        assert!(matches!(
            err.kind,
            AmosErrorKind::Explore(ExploreError::Sim(
                amos_sim::SimError::MalformedMapping { .. }
            ))
        ));
    }

    #[test]
    fn a_malformed_mapping_in_a_caller_list_is_a_typed_error_before_the_search() {
        let def = small_gemm();
        let accel = catalog::v100();
        let valid = MappingGenerator::new()
            .enumerate(&def, &accel.intrinsic)
            .swap_remove(0);
        let mut doubled = valid.clone();
        doubled.groups[1].iters.push(valid.groups[0].iters[0]);
        let mut aliased = valid.clone();
        aliased.correspondence = vec![0, 0];
        let engine = Engine::with_config(tiny_config(1));
        for (tag, malformed) in [("doubled", doubled), ("aliased", aliased)] {
            let list = vec![valid.clone(), malformed];
            let err = engine
                .explore_fixed(tag, tiny_config(1), &def, &accel, list)
                .expect_err("cannot lower");
            assert_eq!(err.stage, Some(Stage::Explore), "{tag}");
            assert!(
                matches!(
                    err.kind,
                    AmosErrorKind::Explore(ExploreError::Sim(
                        amos_sim::SimError::MalformedMapping { .. }
                    ))
                ),
                "{tag}: {err}"
            );
        }
        // The valid mapping alone explores.
        engine
            .explore_fixed("valid", tiny_config(1), &def, &accel, vec![valid])
            .expect("explores");
    }

    #[test]
    fn a_reordered_fused_group_explores_as_its_declaration_order() {
        let def = amos_workloads::ops::c2d(amos_workloads::ops::ConvShape {
            n: 2,
            c: 8,
            k: 16,
            p: 8,
            q: 8,
            r: 3,
            s: 3,
            stride: 1,
        });
        let accel = catalog::v100();
        let im2col = MappingGenerator::new()
            .enumerate(&def, &accel.intrinsic)
            .into_iter()
            .max_by_key(Mapping::num_mapped)
            .expect("c2d maps");
        assert_eq!(
            im2col.describe(&def, &accel.intrinsic),
            "i1 <- {n, p, q}, i2 <- {k}, r1 <- {c, r, s}"
        );
        let mut reversed = im2col.clone();
        reversed.groups[2].iters.reverse();
        // A fresh engine each, so neither run is answered from the cache.
        let run = |mapping| {
            Engine::with_config(tiny_config(5))
                .explore_fixed("im2col", tiny_config(5), &def, &accel, vec![mapping])
                .expect("explores")
        };
        let (declared, reordered) = (run(im2col.clone()), run(reversed));
        assert_eq!(reordered.cycles().to_bits(), declared.cycles().to_bits());
        assert_eq!(reordered.best_schedule, declared.best_schedule);
        assert_eq!(reordered.best_mapping, im2col);
    }

    #[test]
    fn engine_resolves_accelerators_from_its_registry() {
        let engine = Engine::with_config(tiny_config(1));
        // A compile takes its machine by value: the catalog is built on the
        // first name lookup, not before.
        engine
            .compile(&small_gemm(), &catalog::v100())
            .expect("compiles");
        assert!(engine.registry.get().is_none(), "no lookup, no registry");
        assert_eq!(engine.accelerator("v100").unwrap(), catalog::v100());
        let err = engine.accelerator("z9000").unwrap_err();
        assert!(matches!(err.kind, AmosErrorKind::Usage(_)));
        assert_eq!(err.accelerator.as_deref(), Some("z9000"));
        assert!(err.to_string().contains("v100"), "{err}");

        // A custom registry changes what the engine sees.
        let mut registry = amos_hw::Registry::builtin();
        let mut custom = registry.get("mini").unwrap().clone();
        custom.name = "my-npu".into();
        registry.register(custom);
        let engine = Engine::with_config(tiny_config(1)).with_registry(registry);
        assert!(engine.accelerator("my-npu").is_ok());

        // So does a file-loaded one, the `--accel-dir` path.
        let dir = std::env::temp_dir().join(format!("amos-engine-files-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mini = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/accels/mini.toml");
        let text = std::fs::read_to_string(mini).unwrap();
        let text = text.replace("name = \"mini\"", "name = \"file-npu\"");
        std::fs::write(dir.join("file-npu.toml"), text).unwrap();
        let registry = load_registry(Some(&dir)).expect("loads");
        std::fs::remove_dir_all(&dir).unwrap();
        let engine = Engine::with_config(tiny_config(1)).with_registry(registry);
        let file_npu = engine.accelerator("file-npu").expect("file-loaded machine");
        assert_eq!(file_npu.levels, catalog::mini_accel().levels);
        assert_eq!(engine.accelerator("v100").unwrap(), catalog::v100());
    }

    #[test]
    fn load_registry_surfaces_accel_errors() {
        assert_eq!(
            load_registry(None).unwrap().names(),
            amos_hw::Registry::builtin().names()
        );
        let dir = std::env::temp_dir().join(format!("amos-engine-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.toml"), "format = 1\nwhat = 3\n").unwrap();
        let err = load_registry(Some(&dir)).unwrap_err();
        assert!(matches!(err.kind, AmosErrorKind::Accel(_)));
        assert!(err.to_string().contains("bad.toml"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
