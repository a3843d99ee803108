//! # amos-hw — hardware abstraction for spatial accelerators
//!
//! The hardware side of the AMOS mapping problem (paper §4): intrinsics are
//! rewritten into analysable scalar form.
//!
//! * [`ComputeAbstraction`] — `Dst[ĩ] = F(Src1[j̃₁], ...)` with iteration
//!   ranges (Def 4.1), constraint matrices and the access matrix `Z`,
//! * [`MemoryAbstraction`] — scoped fragment transfers (Def 4.2),
//! * [`Intrinsic`] — the two abstractions plus latency and dtypes,
//! * [`AcceleratorSpec`] — the hierarchical machine of paper Fig 1a,
//! * [`desc`] — declarative plain-data descriptions ([`AcceleratorDesc`],
//!   [`IntrinsicDesc`]) that lower to the spec types,
//! * [`Registry`] — name → description lookup, pre-populated from the
//!   catalog, extensible with new accelerators (§7.5) and layerable with
//!   on-disk machines via [`Registry::load_dir`],
//! * [`text`] — the versioned on-disk text format (`to_text`/`from_text`
//!   with line-numbered diagnostics) the machine files are written in,
//! * [`isa`] — primitive intrinsic-ISA descriptions and
//!   [`derive_abstraction`], which computes iteration kinds (Algorithm-1
//!   constraint-matrix inputs) and memory stride/fragment parameters
//!   automatically,
//! * [`catalog`] — the built-in machines: Tensor Core (V100/A100/T4),
//!   AVX-512 VNNI, Mali `arm_dot`, the Figure-3 mini accelerator,
//!   TPU/Gemmini/Ascend-style devices, and the §7.5 virtual AXPY/GEMV/CONV
//!   accelerators. Each is defined by one `data/accels/<name>.toml`,
//!   embedded at compile time; the module's functions are lookups.
//!
//! ## Example
//!
//! ```
//! use amos_hw::catalog;
//!
//! let wmma = catalog::wmma_16x16x16();
//! assert_eq!(
//!     wmma.compute.statement_string(),
//!     "Dst[i1, i2] = multiply-add(Src1[i1, r1], Src2[r1, i2])"
//! );
//! assert_eq!(wmma.compute.problem_size(), vec![16, 16, 16]);
//!
//! let v100 = catalog::v100();
//! assert_eq!(v100.total_pe_arrays(), 320); // 80 SMs x 4 sub-cores
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod abstraction;
mod accelerator;
mod intrinsic;
mod memory;
mod registry;

pub mod catalog;
pub mod desc;
pub mod isa;
pub mod text;

pub use abstraction::{ComputeAbstraction, IntrinsicIter, OperandRef, OperandSpec};
pub use accelerator::{AcceleratorSpec, Level, MemorySpec};
pub use desc::{AcceleratorDesc, IntrinsicDesc, IterDesc, LevelDesc, MemoryDesc, OperandDesc};
pub use intrinsic::Intrinsic;
pub use isa::{derive_abstraction, DeriveError, IsaDesc, IsaIntrinsic, IsaLoop, IsaTransfer};
pub use memory::{MemStatement, MemoryAbstraction, TransferDir};
pub use registry::Registry;
pub use text::{AccelError, FileError, SourceKind, TextError, TextErrorKind, TEXT_FORMAT_VERSION};

/// Version of the hardware abstraction's *semantics*, as seen by persisted
/// exploration results. The structural cache fingerprint already captures
/// every field of an [`AcceleratorSpec`] via its `Debug` output, but a
/// change to what those fields *mean* (a new timing term, a reinterpreted
/// constraint matrix) leaves the fingerprint unchanged while invalidating
/// stored winners. Bump this constant on any such change: it is folded into
/// the on-disk cache salt, so stale entries degrade to cold misses instead
/// of replaying results the current model would never produce.
pub const ABSTRACTION_VERSION: u32 = 1;

// Accelerator descriptions are shared by reference across explorer worker
// threads; keep them free of interior mutability.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AcceleratorSpec>();
    assert_send_sync::<Intrinsic>();
};
