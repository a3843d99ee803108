//! # amos-core — automatic mapping of tensor computations onto spatial
//! accelerators
//!
//! The primary contribution of the AMOS paper (ISCA 2022), rebuilt in Rust:
//!
//! * [`Mapping`] — software–hardware mappings (Def 4.3) with matching
//!   matrices,
//! * [`validate`] — Algorithm 1 (binary-matrix mapping validation, §5.2),
//! * [`MappingGenerator`] — exhaustive valid-mapping enumeration (§5.1,
//!   Table 6),
//! * [`memory_map`] — virtual and physical memory mappings (Fig 3 e–h),
//! * [`perf_model`] — the hierarchical analytic performance model (§5.3),
//! * [`Explorer`] — the genetic (mapping × schedule) search combining model
//!   screening with ground-truth measurement (§5.3),
//! * [`codegen`] — lowering to the `Compute`/`Memory` IR of Table 4 (§6),
//! * [`Engine`] — the staged front door (`Analyzed → MappingSet → Lowered →
//!   Explored → Artifact`) that owns the caches and reports failures as one
//!   [`AmosError`] hierarchy.
//!
//! ## Quickstart
//!
//! ```
//! use amos_core::{Engine, ExplorerConfig};
//! use amos_hw::Registry;
//! use amos_ir::{ComputeBuilder, DType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // GEMM: out[i, j] += a[i, k] * b[k, j]
//! let mut b = ComputeBuilder::new("gemm");
//! let i = b.spatial("i", 256);
//! let j = b.spatial("j", 256);
//! let k = b.reduce("k", 256);
//! let a = b.input("a", &[256, 256], DType::F16);
//! let w = b.input("b", &[256, 256], DType::F16);
//! let c = b.output("c", &[256, 256], DType::F32);
//! b.mul_acc(c.at([i, j]), a.at([i, k]), w.at([k, j]));
//! let gemm = b.finish()?;
//!
//! // Targets come from the declarative registry by name.
//! let v100 = Registry::builtin().build("v100").expect("catalog accelerator");
//!
//! // One Engine owns the exploration budget and every cache; compilation
//! // is a typed pipeline of named stages.
//! let engine = Engine::with_config(ExplorerConfig {
//!     population: 8,
//!     generations: 2,
//!     survivors: 3,
//!     measure_top: 2,
//!     seed: 1,
//!     jobs: 1,
//!     ..ExplorerConfig::default()
//! });
//! let analyzed = engine.analyze(&gemm, &v100);
//! let mappings = engine.generate(analyzed)?;
//! // GEMM has exactly one valid mapping onto Tensor Core (paper Table 6).
//! assert_eq!(mappings.total_mappings(), 1);
//! let lowered = engine.lower(mappings)?;
//! let best = engine.explore(lowered)?;
//! assert!(best.cycles() > 0.0);
//!
//! // Emit the Table-5 report, Table-4 IR and CUDA-like source.
//! let artifact = engine.emit(&best);
//! assert!(!artifact.cuda.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod disk;
mod engine;
mod error;
mod explore;
#[cfg(feature = "fault-injection")]
pub mod faultplan;
mod generate;
mod mapping;
mod parallel;
mod pool;

pub mod codegen;
pub mod cuda_like;
pub mod memory_map;
pub mod perf_model;
pub mod report;
pub mod validate;

pub use cache::{fnv1a, shape_fingerprint, CacheStats};
pub use disk::{cache_dir_stats, cache_salt, clear_cache_dir, CacheConfig, DiskDirStats};
pub use engine::{load_registry, Analyzed, Artifact, Engine, Explored, Lowered, MappingSet};
pub use error::{AmosError, AmosErrorKind, Stage};
pub use explore::{
    mutate_schedule, mutate_schedule_ctx, pairwise_accuracy, random_schedule, random_schedule_into,
    random_schedule_with, screening_regret, top_rate_recall, Budget, CancelToken, Completion,
    ExplorationResult, ExploreError, Explorer, ExplorerConfig, QuarantineRecord, QuarantineReport,
    ScreeningStats,
};
pub use generate::{MappingGenerator, MappingPolicy};
pub use mapping::Mapping;
pub use parallel::{amos_jobs_override, default_jobs, parallel_map, parse_jobs_value};
pub use pool::{pool_stats, PoolStats};
pub use report::MappingReport;

/// `true` when this build of `amos-core` was compiled with the
/// `fault-injection` feature (the deterministic fault harness). The feature
/// is off by default; CI asserts that release builds report `false`.
pub fn fault_injection_enabled() -> bool {
    cfg!(feature = "fault-injection")
}
