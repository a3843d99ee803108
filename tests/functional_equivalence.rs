//! Cross-crate integration test: every mapping the generator emits, for
//! every operator family, must lower to a program whose *functional*
//! execution through explicit register fragments is bit-identical to the
//! reference scalar interpreter, with its fused groups in declaration order
//! and in reverse.
//!
//! This is the strongest end-to-end statement of mapping correctness: it
//! exercises signature matching, Algorithm 1, operand correspondence, fused
//! `mod` restriction, tile decomposition, trailing zero-padding and the
//! scatter path all at once.

use amos::core::MappingGenerator;
use amos::hw::catalog;
use amos::ir::{interp, ComputeBuilder, ComputeDef, DType};
use amos::sim::functional::execute_mapped;
use amos::workloads::ops::{self, ConvShape};

/// Checks every enumerated mapping of `def` on `intr` against the reference,
/// once as enumerated and once with the iterations of every fused group in
/// reverse order: a fused group is a set, and its order must not reach the
/// output.
fn assert_all_mappings_exact(def: &ComputeDef, intr: &amos::hw::Intrinsic, seed: u64) {
    let generator = MappingGenerator::new();
    let enumerated = generator.enumerate(def, intr);
    assert!(
        !enumerated.is_empty(),
        "{} has no mapping on {}",
        def.name(),
        intr.name
    );
    let reversed = enumerated.iter().cloned().map(|mut m| {
        m.groups.iter_mut().for_each(|g| g.iters.reverse());
        m
    });
    let mappings: Vec<_> = enumerated.iter().cloned().chain(reversed).collect();
    let tensors = interp::make_inputs(def, seed);
    let reference = interp::execute(def, &tensors).expect("reference executes");
    for mapping in &mappings {
        let prog = mapping.lower(def, intr).expect("lowering succeeds");
        let out = execute_mapped(&prog, &tensors).unwrap_or_else(|e| {
            panic!(
                "{} via {} failed: {e}",
                def.name(),
                mapping.describe(def, intr)
            )
        });
        assert_eq!(
            reference.max_abs_diff(&out),
            0.0,
            "{} diverged under mapping {}",
            def.name(),
            mapping.describe(def, intr)
        );
    }
}

/// Small shapes keep the exhaustive functional runs fast while exercising
/// multi-tile decomposition and trailing padding on every axis.
fn tiny_ops() -> Vec<ComputeDef> {
    vec![
        ops::gmv(5, 3),
        ops::gmm(3, 5, 3),
        ops::c1d(2, 3, 3, 4, 2, 1),
        ops::c2d(ConvShape {
            n: 2,
            c: 3,
            k: 3,
            p: 3,
            q: 3,
            r: 2,
            s: 2,
            stride: 1,
        }),
        ops::c2d(ConvShape {
            n: 1,
            c: 2,
            k: 3,
            p: 2,
            q: 2,
            r: 3,
            s: 3,
            stride: 2,
        }),
        ops::t2d(1, 2, 2, 3, 3, 3, 3),
        ops::grp(1, 2, 2, 3, 3, 3, 2, 2),
        ops::dil(1, 2, 3, 3, 3, 2, 2),
        ops::dep(2, 3, 3, 3, 2, 2),
        ops::bcv(2, 2, 3, 3, 3, 2, 2),
        ops::gfc(3, 2, 3, 3),
        ops::men(5, 3),
        ops::var(5, 3),
        ops::scn(3, 3),
    ]
}

#[test]
fn all_mappings_of_all_ops_are_exact_on_the_mini_accelerator() {
    let intr = catalog::mini_mma_2x2x2();
    for (i, def) in tiny_ops().into_iter().enumerate() {
        assert_all_mappings_exact(&def, &intr, 100 + i as u64);
    }
}

#[test]
fn all_c3d_mappings_are_exact() {
    // 180 mappings (paper Table 6) each executed functionally.
    let def = ops::c3d(1, 2, 2, 2, 2, 2, 2, 2, 2);
    assert_all_mappings_exact(&def, &catalog::mini_mma_2x2x2(), 7);
}

#[test]
fn capsule_conv_mappings_are_exact() {
    let def = ops::cap(1, 2, 2, 2, 2, 2, 2, 2);
    assert_all_mappings_exact(&def, &catalog::mini_mma_2x2x2(), 9);
}

#[test]
fn wmma_16x16x16_handles_padding_heavy_shapes() {
    // Extents far below the 16x16x16 problem size: almost all lanes padded.
    let def = ops::gmm(3, 5, 2);
    assert_all_mappings_exact(&def, &catalog::wmma_16x16x16(), 21);

    let conv = ops::c2d(ConvShape {
        n: 1,
        c: 2,
        k: 3,
        p: 4,
        q: 4,
        r: 3,
        s: 3,
        stride: 1,
    });
    assert_all_mappings_exact(&conv, &catalog::wmma_16x16x16(), 22);
}

#[test]
fn vnni_and_dot_intrinsics_are_exact() {
    let matvec = {
        let mut b = ComputeBuilder::new("matvec");
        let i = b.spatial("i", 18);
        let k = b.reduce("k", 6);
        let a = b.input("a", &[18, 6], DType::I8);
        let v = b.input("v", &[6], DType::I8);
        let o = b.output("o", &[18], DType::I32);
        b.mul_acc(o.at([i]), a.at([i, k]), v.at([k]));
        b.finish().unwrap()
    };
    assert_all_mappings_exact(&matvec, &catalog::avx512_vnni(), 31);
    // A conv on the VNNI unit exercises the broadcast operand with windows.
    let conv = ops::c2d(ConvShape {
        n: 1,
        c: 3,
        k: 4,
        p: 3,
        q: 3,
        r: 2,
        s: 2,
        stride: 1,
    });
    assert_all_mappings_exact(&conv, &catalog::avx512_vnni(), 33);

    let dot = {
        let mut b = ComputeBuilder::new("dotprod");
        let i = b.spatial("i", 3);
        let k = b.reduce("k", 9);
        let a = b.input("a", &[3, 9], DType::I8);
        let w = b.input("w", &[3, 9], DType::I8);
        let o = b.output("o", &[3], DType::I32);
        b.mul_acc(o.at([i]), a.at([i, k]), w.at([i, k]));
        b.finish().unwrap()
    };
    assert_all_mappings_exact(&dot, &catalog::arm_dot4(), 32);
}

#[test]
fn gemv_and_axpy_units_are_exact() {
    let gemv_like = ops::gmv(10, 7);
    assert_all_mappings_exact(&gemv_like, &catalog::gemv_unit(), 41);

    // AXPY: out[i] += a[k-broadcast?] — use a scaled vector add:
    // out[i] += s[()] * x[i] is not expressible (0-dim software tensors are
    // scalar), so exercise the unit with a rank-1 outer-style op instead:
    // out[i] += a[j] * x[i] with j an outer reduction of extent 1 is
    // degenerate; use the representative mapping through the catalog GEMV
    // check above and the conv unit below for compound dims.
    let c1d_small = {
        let mut b = ComputeBuilder::new("c1d_win");
        let a = b.spatial("a", 3);
        let x = b.spatial("x", 5);
        let c = b.reduce("c", 3);
        let w = b.reduce("w", 2);
        let img = b.input("img", &[3, 6], DType::F16);
        let wt = b.input("wt", &[3, 3, 2], DType::F16);
        let o = b.output("o", &[3, 5], DType::F32);
        b.mul_acc(
            o.at([a.ex(), x.ex()]),
            img.at([c.ex(), x.ex() + w.ex()]),
            wt.at([a.ex(), c.ex(), w.ex()]),
        );
        b.finish().unwrap()
    };
    assert_all_mappings_exact(&c1d_small, &catalog::conv_unit(), 42);
}

#[test]
fn strided_conv_physical_mapping_is_exact() {
    // Table 5 contains strided layers (C0, C3, ...); the stride enters the
    // image access coefficients and must survive the fused decode.
    let def = ops::c2d(ConvShape {
        n: 2,
        c: 2,
        k: 3,
        p: 3,
        q: 3,
        r: 3,
        s: 3,
        stride: 2,
    });
    assert_all_mappings_exact(&def, &catalog::mini_mma_2x2x2(), 55);
}
