//! # amos-sim — functional and timing simulation of spatial accelerators
//!
//! The AMOS paper evaluates on real Tensor Core GPUs, AVX-512 CPUs and Mali
//! GPUs; this crate is the substitute substrate (DESIGN.md §2): it executes
//! *mapped programs* — tensor computations bound to an intrinsic through a
//! compute mapping — both functionally (exact numerics through explicit
//! register-fragment staging) and temporally (a hierarchical cycle model that
//! serves as ground truth for mapping exploration).
//!
//! * [`MappedProgram`] — the tiled physical form of paper §5.1,
//! * [`functional::execute_mapped`] — numerics; compared bit-for-bit against
//!   the reference interpreter in tests,
//! * [`Schedule`] — the optimisation schedule space of paper Table 3a,
//! * [`timing::simulate`] — cycle-level ground truth with wave quantisation,
//!   pipeline fill and launch overhead,
//! * [`timing::scalar_fallback_cycles`] — the general-purpose-unit fallback
//!   used by baseline compilers when mapping fails.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compiled;
mod error;
mod program;
mod schedule;
mod screening;

pub mod functional;
pub mod isolate;
pub mod timing;

pub use error::SimError;
pub use functional::{
    execute_mapped, execute_mapped_isolated, execute_mapped_reference, execute_mapped_with_stats,
    ExecStats,
};
pub use program::{div_ceil, Axis, AxisKind, FusedGroup, MappedProgram};
pub use schedule::{subcores_per_core, GeneChange, Schedule};
pub use screening::{set_bits, BatchTables, ScreeningContext, BATCH_LANES};
pub use timing::{scalar_fallback_cycles, simulate, simulate_isolated, TimingReport};

// The explorer shares programs, schedules and reports across worker threads
// by reference; these compile-time assertions keep the types thread-safe.
// (MappedProgram's compiled cache is a OnceLock — interior mutability, but
// write-once and Sync by construction.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MappedProgram>();
    assert_send_sync::<ScreeningContext>();
    assert_send_sync::<Schedule>();
    assert_send_sync::<TimingReport>();
    assert_send_sync::<SimError>();
};
