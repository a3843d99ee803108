//! # amos-baselines — the systems AMOS is compared against
//!
//! Modeled baselines reproducing the comparison points of the AMOS
//! evaluation (§7): the XLA-style [`TemplateMatcher`] behind Table 2, the
//! fixed-mapping strategies of the §7.6 ablation ([`fixed_mapping`]), and
//! the per-system cost models ([`systems::evaluate`]) for
//! PyTorch/cuDNN/AutoTVM/Ansor/UNIT/TVM/AKG.
//!
//! See DESIGN.md §2 for what each baseline substitutes and why the
//! substitution preserves the paper's comparisons.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fixed;
mod matcher;

pub mod network;
pub mod systems;

pub use fixed::{fixed_mapping, FixedKind};
pub use matcher::TemplateMatcher;
pub use network::{NetworkCost, NetworkEvaluator};
pub use systems::{
    akg_supported, evaluate, evaluate_opts, evaluate_with, geomean, library_tensor_supported,
    EvalOpts, System, SystemCost, SCALAR_OP_CYCLES,
};
