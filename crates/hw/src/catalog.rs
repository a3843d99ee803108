//! The built-in machine catalog: the twelve `data/accels/*.toml` files,
//! embedded at compile time.
//!
//! The files are the source. This module `include_str!`s them in catalog
//! order, parses them once per process into one immutable table, and answers
//! every query from it: [`descriptors`] (what [`crate::Registry::builtin`] is
//! populated from), [`all_accelerators`], and the named accessors, one-line
//! lookups for callers that want a specific machine or intrinsic without a
//! registry. To see or change what `v100` is, open `data/accels/v100.toml`;
//! the provenance of each number is in the comments there (public
//! whitepapers for the commercial parts, Jia et al., "Dissecting the NVIDIA
//! Volta GPU Architecture" for the WMMA latencies, paper §7.5 for the three
//! virtual AXPY/GEMV/CONV accelerators).
//!
//! All figures drive a simulator, not silicon; see DESIGN.md §2 for the
//! substitution rationale.

use std::sync::OnceLock;

use crate::accelerator::AcceleratorSpec;
use crate::desc::AcceleratorDesc;
use crate::intrinsic::Intrinsic;
use crate::text::{AccelError, FileError};

/// `(repository path, contents)` of each named file under `data/accels/`.
macro_rules! embed {
    ($($file:literal),* $(,)?) => {
        [$((
            concat!("data/accels/", $file),
            include_str!(concat!("../../../data/accels/", $file)),
        )),*]
    };
}

/// The committed machine files, in catalog order — the order
/// `--list-accels` prints and the registry tests pin.
const FILES: [(&str, &str); 12] = embed![
    "v100.toml",
    "a100.toml",
    "t4.toml",
    "xeon-avx512.toml",
    "mali-g76.toml",
    "mini.toml",
    "ascend-npu.toml",
    "tpu-like.toml",
    "gemmini-like.toml",
    "virtual-axpy.toml",
    "virtual-gemv.toml",
    "virtual-conv.toml",
];

/// Parses one embedded file; the error names the file and line.
fn parse_embedded(file: &str, text: &str) -> Result<AcceleratorDesc, FileError> {
    AcceleratorDesc::from_text(text).map_err(|e| FileError {
        file: file.into(),
        error: AccelError::Text(e),
    })
}

/// The parsed catalog. The text is a compile-time constant, so this is a
/// lazily built constant: written once, never invalidated. Panics only if
/// the binary was built from an invalid committed catalog, which the
/// `every_embedded_file_parses_and_builds` test reports by file and line.
fn table() -> &'static [AcceleratorDesc] {
    static TABLE: OnceLock<Vec<AcceleratorDesc>> = OnceLock::new();
    TABLE.get_or_init(|| {
        FILES
            .iter()
            .map(|(file, text)| {
                parse_embedded(file, text)
                    .unwrap_or_else(|e| panic!("invalid committed catalog: {e}"))
            })
            .collect()
    })
}

fn machine(name: &str) -> &'static AcceleratorDesc {
    table()
        .iter()
        .find(|desc| desc.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in the embedded catalog"))
}

/// The primary intrinsic of the named machine.
fn unit(name: &str) -> Intrinsic {
    machine(name).intrinsics[0].build()
}

/// Every accelerator description in the catalog, in catalog order — the
/// data the builtin [`crate::Registry`] is populated from.
pub fn descriptors() -> Vec<AcceleratorDesc> {
    table().to_vec()
}

/// Every accelerator in the catalog, for sweep-style tests and benches.
pub fn all_accelerators() -> Vec<AcceleratorSpec> {
    table().iter().map(AcceleratorDesc::build).collect()
}

/// `v100`'s unit: the 16x16x16 f16 `mma_sync` WMMA intrinsic with explicit
/// `load_matrix_sync`/`store_matrix_sync` memory intrinsics.
pub fn wmma_16x16x16() -> Intrinsic {
    unit("v100")
}

/// `mini`'s unit: the simplified 2x2x2 Tensor Core of the paper's Figure 3.
pub fn mini_mma_2x2x2() -> Intrinsic {
    unit("mini")
}

/// `xeon-avx512`'s unit: `_mm512_dpbusds_epi32` used as the paper does
/// (§7.5), a 16x4 matrix-vector multiply-accumulate.
pub fn avx512_vnni() -> Intrinsic {
    unit("xeon-avx512")
}

/// `mali-g76`'s unit: `arm_dot`, a 4-element i8 dot product into a scalar.
pub fn arm_dot4() -> Intrinsic {
    unit("mali-g76")
}

/// `virtual-axpy`'s unit (§7.5): `Dst[i1] += Src1[] * Src2[i1]`, 32 lanes.
pub fn axpy_unit() -> Intrinsic {
    unit("virtual-axpy")
}

/// `virtual-gemv`'s unit (§7.5): `Dst[i1] += Src1[i1, r1] * Src2[r1]`.
pub fn gemv_unit() -> Intrinsic {
    unit("virtual-gemv")
}

/// `virtual-conv`'s unit (§7.5): a 1D convolution engine
/// `Dst[i1, i2] += Src1[r1, i2 + r2] * Src2[i1, r1, r2]`.
pub fn conv_unit() -> Intrinsic {
    unit("virtual-conv")
}

/// NVIDIA V100 (Volta), `data/accels/v100.toml`.
pub fn v100() -> AcceleratorSpec {
    machine("v100").build()
}

/// NVIDIA A100 (Ampere), `data/accels/a100.toml`.
pub fn a100() -> AcceleratorSpec {
    machine("a100").build()
}

/// Intel Xeon with AVX-512 VNNI, `data/accels/xeon-avx512.toml`.
pub fn xeon_avx512() -> AcceleratorSpec {
    machine("xeon-avx512").build()
}

/// ARM Mali G76 (Bifrost), `data/accels/mali-g76.toml`.
pub fn mali_g76() -> AcceleratorSpec {
    machine("mali-g76").build()
}

/// The tiny accelerator of the Figure 3 running example,
/// `data/accels/mini.toml`.
pub fn mini_accel() -> AcceleratorSpec {
    machine("mini").build()
}

/// An Ascend-910-style NPU with *heterogeneous* units (cube matrix engine
/// plus vector MAC unit), `data/accels/ascend-npu.toml`.
pub fn ascend_npu() -> AcceleratorSpec {
    machine("ascend-npu").build()
}

/// §7.5 virtual accelerator around the AXPY unit,
/// `data/accels/virtual-axpy.toml`.
pub fn virtual_axpy() -> AcceleratorSpec {
    machine("virtual-axpy").build()
}

/// §7.5 virtual accelerator around the GEMV unit,
/// `data/accels/virtual-gemv.toml`.
pub fn virtual_gemv() -> AcceleratorSpec {
    machine("virtual-gemv").build()
}

/// §7.5 virtual accelerator around the CONV unit,
/// `data/accels/virtual-conv.toml`.
pub fn virtual_conv() -> AcceleratorSpec {
    machine("virtual-conv").build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::OperandRef;
    use crate::Registry;
    use amos_ir::BinMatrix;

    fn builtin(name: &str) -> AcceleratorSpec {
        Registry::builtin()
            .build(name)
            .unwrap_or_else(|| panic!("registry must know `{name}`"))
    }

    /// The one place a bad edit to a `.toml` shows up by name: every other
    /// test reaches the catalog through [`table`], which can only panic.
    #[test]
    fn every_embedded_file_parses_and_builds() {
        for (file, text) in FILES {
            let desc = parse_embedded(file, text).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(
                file,
                format!("data/accels/{}.toml", desc.name),
                "a machine file is named after its machine"
            );
            assert_eq!(desc.build().name, desc.name);
        }
    }

    #[test]
    fn vnni_access_matrix() {
        let z = avx512_vnni().compute.access_matrix();
        // Rows Src1, Src2, Dst; cols i1, r1 (Src2 is the broadcast vector).
        assert_eq!(z, BinMatrix::from_rows(&[&[1, 1], &[0, 1], &[1, 0]]));
    }

    #[test]
    fn arm_dot_is_scalar_output() {
        let d = arm_dot4();
        assert_eq!(d.compute.fragment_len(OperandRef::Dst), 1);
        assert_eq!(d.scalar_ops(), 4);
        assert!(d.memory.statements().iter().all(|s| s.intrinsic.is_none()));
    }

    #[test]
    fn conv_unit_has_window_fragment() {
        let c = conv_unit();
        // Src1 line buffer holds i2 + r2 - 1 = 10 positions per channel.
        assert_eq!(c.compute.fragment_shape(OperandRef::Src(0)), vec![8, 10]);
        assert_eq!(c.scalar_ops(), 8 * 8 * 8 * 3);
    }

    #[test]
    fn gemv_and_axpy_shapes() {
        assert_eq!(gemv_unit().scalar_ops(), 256);
        assert_eq!(axpy_unit().scalar_ops(), 32);
        assert_eq!(
            axpy_unit().compute.fragment_len(OperandRef::Src(0)),
            1,
            "axpy scalar operand"
        );
    }

    #[test]
    fn catalog_accelerators_are_well_formed() {
        for acc in all_accelerators() {
            assert!(acc.num_levels() >= 3, "{} too shallow", acc.name);
            assert!(acc.total_pe_arrays() >= 1);
            assert!(acc.clock_ghz > 0.0);
            // Fragments must fit the innermost memory.
            assert!(
                acc.intrinsic.total_fragment_bytes() <= acc.levels[0].memory.capacity_bytes,
                "{}: fragments do not fit register capacity",
                acc.name
            );
            // Shared staging must exist and be larger than a fragment set.
            let shared = acc.shared_level();
            assert!(
                acc.levels[shared].memory.capacity_bytes >= acc.intrinsic.total_fragment_bytes(),
                "{}: shared level too small",
                acc.name
            );
        }
    }

    #[test]
    fn catalog_order_is_pinned() {
        let names: Vec<String> = all_accelerators().into_iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec![
                "v100",
                "a100",
                "t4",
                "xeon-avx512",
                "mali-g76",
                "mini",
                "ascend-npu",
                "tpu-like",
                "gemmini-like",
                "virtual-axpy",
                "virtual-gemv",
                "virtual-conv",
            ]
        );
    }

    #[test]
    fn tpu_mxu_dwarfs_the_tensor_core_tile() {
        let tpu = builtin("tpu-like");
        assert_eq!(tpu.intrinsic.compute.problem_size(), vec![128, 128, 128]);
        assert_eq!(tpu.intrinsic.scalar_ops(), 128 * 128 * 128);
        // i8 fragments fit the MXU-side memory.
        assert!(tpu.intrinsic.total_fragment_bytes() <= tpu.levels[0].memory.capacity_bytes);
    }

    #[test]
    fn t4_sits_between_nothing_and_v100() {
        let (t4, v) = (builtin("t4"), v100());
        assert!(t4.total_pe_arrays() < v.total_pe_arrays());
        assert!(t4.peak_tensor_ops_per_cycle() < v.peak_tensor_ops_per_cycle());
    }

    #[test]
    fn gemmini_is_a_single_core_device() {
        let g = builtin("gemmini-like");
        assert_eq!(g.total_pe_arrays(), 1);
        assert_eq!(g.intrinsic.name, "gemmini_matmul");
    }

    #[test]
    fn wmma_throughput_scales_between_generations() {
        let (v, a) = (v100(), a100());
        assert!(a.intrinsic.ops_per_cycle() > v.intrinsic.ops_per_cycle());
    }
}
