//! Property-based tests (proptest) over the core data structures and the
//! mapping pipeline invariants.

use amos::core::{validate::algorithm1, MappingGenerator};
use amos::hw::catalog;
use amos::ir::{interp, BinMatrix, ComputeBuilder, DType, Expr, IterId};
use amos::sim::functional::{execute_mapped, execute_mapped_reference};
use proptest::prelude::*;

// ---- expression algebra -----------------------------------------------------

/// Random affine expressions over 3 variables.
fn affine_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|i| Expr::Var(IterId(i))),
        (-8i64..8).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner, -4i64..4).prop_map(|(a, c)| a * c),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn affine_coefficients_agree_with_evaluation(e in affine_expr(), env in prop::array::uniform3(-20i64..20)) {
        prop_assert!(e.is_affine());
        let (coeffs, c) = e.affine_coefficients(3).expect("affine");
        let linear: i64 = coeffs.iter().zip(env.iter()).map(|(a, v)| a * v).sum::<i64>() + c;
        prop_assert_eq!(e.eval(&env), linear);
    }

    #[test]
    fn vars_is_exactly_the_nonzero_coefficients(e in affine_expr()) {
        let (coeffs, _) = e.affine_coefficients(3).expect("affine");
        // Every variable with a nonzero coefficient must be reported; vars
        // with coefficient zero may appear (e.g. `x - x`) but not vice versa.
        for (i, &c) in coeffs.iter().enumerate() {
            if c != 0 {
                prop_assert!(e.uses(IterId(i as u32)));
            }
        }
    }

    #[test]
    fn floor_div_mod_euclidean_identity(a in -1000i64..1000, b in 1i64..50) {
        let e = Expr::Var(IterId(0));
        let d = e.clone().floor_div(b).eval(&[a]);
        let m = e.rem(b).eval(&[a]);
        prop_assert_eq!(d * b + m, a);
        prop_assert!((0..b).contains(&m));
    }
}

/// Random quasi-affine expressions (including floor-div and mod) over 3
/// variables with extents [6, 5, 4].
fn quasi_affine_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|i| Expr::Var(IterId(i))),
        (-6i64..7).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), -3i64..4).prop_map(|(a, c)| a * c),
            (inner.clone(), 1i64..8).prop_map(|(a, d)| a.floor_div(d)),
            (inner, 1i64..8).prop_map(|(a, d)| a.rem(d)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simplification_preserves_quasi_affine_semantics(e in quasi_affine_expr()) {
        use amos::ir::simplify::simplify;
        let extents = [6i64, 5, 4];
        let simplified = simplify(&e, &extents);
        for x in 0..6 {
            for y in 0..5 {
                for z in 0..4 {
                    prop_assert_eq!(
                        e.eval(&[x, y, z]),
                        simplified.eval(&[x, y, z]),
                        "at ({}, {}, {})", x, y, z
                    );
                }
            }
        }
    }

    #[test]
    fn range_analysis_is_sound(e in quasi_affine_expr()) {
        use amos::ir::simplify::range_of;
        let extents = [6i64, 5, 4];
        if let Some(range) = range_of(&e, &extents) {
            prop_assert!(range.lo <= range.hi);
            for x in 0..6 {
                for y in 0..5 {
                    for z in 0..4 {
                        let v = e.eval(&[x, y, z]);
                        prop_assert!(
                            (range.lo..=range.hi).contains(&v),
                            "value {} escapes [{}, {}]", v, range.lo, range.hi
                        );
                    }
                }
            }
        }
    }
}

// ---- binary matrix algebra --------------------------------------------------

fn bin_matrix(rows: usize, cols: usize) -> impl Strategy<Value = BinMatrix> {
    prop::collection::vec(prop::bool::ANY, rows * cols).prop_map(move |bits| {
        let mut m = BinMatrix::zeros(rows, cols);
        for (i, b) in bits.into_iter().enumerate() {
            m.set(i / cols, i % cols, b);
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transpose_of_product_is_product_of_transposes(
        a in bin_matrix(3, 4),
        b in bin_matrix(4, 5),
    ) {
        let left = a.bool_mul(&b).transpose();
        let right = b.transpose().bool_mul(&a.transpose());
        prop_assert_eq!(left, right);
    }

    #[test]
    fn bool_mul_is_monotone(a in bin_matrix(3, 3), b in bin_matrix(3, 3)) {
        // Adding ones to A can only add ones to A★B.
        let mut bigger = a.clone();
        bigger.set(0, 0, true);
        let base = a.bool_mul(&b);
        let grown = bigger.bool_mul(&b);
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!(!base[(i, j)] || grown[(i, j)]);
            }
        }
    }

    #[test]
    fn identity_matching_always_validates(z in bin_matrix(3, 3)) {
        // X = Z and Y = I is always a valid mapping by Algorithm 1.
        let mut y = BinMatrix::zeros(3, 3);
        for i in 0..3 {
            y.set(i, i, true);
        }
        prop_assert!(algorithm1(&z, &y, &z));
    }
}

// ---- compiled hot-path equivalence ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packed_matrix_ops_match_naive_references(
        a in bin_matrix(5, 70),
        b in bin_matrix(70, 9),
    ) {
        // 70 columns span two u64 words, exercising the trailing-bit
        // invariant of the packed layout.
        prop_assert_eq!(a.bool_mul(&b), a.bool_mul_naive(&b));
        prop_assert_eq!(a.transpose(), a.transpose_naive());
        prop_assert_eq!(b.transpose(), b.transpose_naive());
    }

    #[test]
    fn packed_algorithm1_matches_naive_verdicts(
        x in bin_matrix(3, 70),
        y in bin_matrix(4, 70),
        z in bin_matrix(3, 4),
    ) {
        use amos::core::validate::algorithm1_naive;
        prop_assert_eq!(
            algorithm1(&x, &y, &z),
            algorithm1_naive(&x, &y, &z),
            "word-parallel and naive Algorithm 1 disagree"
        );
    }

    #[test]
    fn compiled_lane_programs_match_tree_walking_eval(e in quasi_affine_expr()) {
        use amos::ir::LaneExpr;
        let extents = [6i64, 5, 4];
        let lane = LaneExpr::compile(&e, &extents);
        let mut stack = Vec::new();
        for x in 0..6 {
            for y in 0..5 {
                for z in 0..4 {
                    prop_assert_eq!(
                        lane.eval(&[x, y, z], &mut stack),
                        e.eval(&[x, y, z]),
                        "at ({}, {}, {})", x, y, z
                    );
                }
            }
        }
    }
}

// ---- mapping pipeline invariants ---------------------------------------------

/// Random small GEMM computation.
fn gemm_def(m: i64, n: i64, k: i64) -> amos::ir::ComputeDef {
    let mut b = ComputeBuilder::new("gemm");
    let i = b.spatial("i", m);
    let j = b.spatial("j", n);
    let kk = b.reduce("k", k);
    let a = b.input("a", &[m, k], DType::F16);
    let w = b.input("b", &[k, n], DType::F16);
    let c = b.output("c", &[m, n], DType::F32);
    b.mul_acc(c.at([i, j]), a.at([i, kk]), w.at([kk, j]));
    b.finish().expect("gemm builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_gemm_shapes_map_exactly(
        m in 1i64..7,
        n in 1i64..7,
        k in 1i64..7,
        seed in 0u64..1000,
    ) {
        // Any shape — including extents far from multiples of the problem
        // size — must execute exactly through padding.
        let def = gemm_def(m, n, k);
        let intr = catalog::mini_mma_2x2x2();
        let mappings = MappingGenerator::new().enumerate(&def, &intr);
        prop_assert_eq!(mappings.len(), 1);
        let tensors = interp::make_inputs(&def, seed);
        let reference = interp::execute(&def, &tensors).expect("reference");
        let prog = mappings[0].lower(&def, &intr).expect("lower");
        let out = execute_mapped(&prog, &tensors).expect("mapped run");
        prop_assert_eq!(reference.max_abs_diff(&out), 0.0);
        // The compiled executor and the retained tree-walking interpreter
        // must agree bit-for-bit on every random shape.
        let interpreted = execute_mapped_reference(&prog, &tensors).expect("reference run");
        prop_assert_eq!(interpreted.max_abs_diff(&out), 0.0);
    }

    #[test]
    fn random_conv_shapes_map_exactly(
        n in 1i64..3,
        c in 1i64..4,
        k in 1i64..4,
        p in 1i64..4,
        r in 1i64..3,
        stride in 1i64..3,
        seed in 0u64..1000,
    ) {
        let def = amos::workloads::ops::c2d(amos::workloads::ops::ConvShape {
            n, c, k, p, q: p, r, s: r, stride,
        });
        let intr = catalog::mini_mma_2x2x2();
        let mappings = MappingGenerator::new().enumerate(&def, &intr);
        prop_assert!(!mappings.is_empty());
        let tensors = interp::make_inputs(&def, seed);
        let reference = interp::execute(&def, &tensors).expect("reference");
        for mapping in mappings.iter() {
            let prog = mapping.lower(&def, &intr).expect("lower");
            let out = execute_mapped(&prog, &tensors).expect("mapped run");
            prop_assert_eq!(reference.max_abs_diff(&out), 0.0);
        }
    }

    #[test]
    fn matching_matrices_of_generated_mappings_are_partitions(
        m in 2i64..20,
        n in 2i64..20,
        k in 2i64..20,
    ) {
        let def = gemm_def(m, n, k);
        let intr = catalog::wmma_16x16x16();
        for mapping in MappingGenerator::new().enumerate(&def, &intr) {
            let y = mapping.matching_matrix(&def);
            // Every software iteration is mapped to at most one intrinsic
            // iteration (columns have at most a single 1).
            for col in 0..y.cols() {
                let ones = (0..y.rows()).filter(|&r| y[(r, col)]).count();
                prop_assert!(ones <= 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn perturbed_mappings_are_rejected_or_numerically_wrong(
        victim in 0usize..3,
        target in 0usize..3,
        seed in 0u64..500,
    ) {
        // Take the valid GEMM mapping and move one software iteration to a
        // different intrinsic axis: Algorithm 1 must reject it, or (if the
        // harness is forced to run it) the numerics must diverge.
        let def = gemm_def(4, 4, 4);
        let intr = catalog::mini_mma_2x2x2();
        let valid = &MappingGenerator::new().enumerate(&def, &intr)[0];
        prop_assume!(victim != target);
        let mut broken = valid.clone();
        let moved = broken.groups[victim].iters.pop();
        prop_assume!(moved.is_some());
        broken.groups[target].iters.push(moved.expect("present"));

        let still_valid = amos::core::validate::validate_mapping(&def, &intr, &broken);
        prop_assert!(!still_valid, "perturbed mapping passed Algorithm 1");

        // Belt and braces: even executing it functionally must not
        // reproduce the reference.
        if let Ok(prog) = broken.lower(&def, &intr) {
            let tensors = interp::make_inputs(&def, seed);
            let reference = interp::execute(&def, &tensors).expect("reference");
            match execute_mapped(&prog, &tensors) {
                Err(_) => {}
                Ok(out) => prop_assert!(out.max_abs_diff(&reference) > 0.0),
            }
        }
    }


    #[test]
    fn precomputed_screening_is_bit_identical_to_reference_model(
        op in 0usize..4,
        accel_pick in 0usize..2,
        seed in 0u64..10_000,
    ) {
        use amos::core::perf_model::{predict, predict_with};
        use rand::SeedableRng;
        // The Figure-6 operator spread: square GEMM, matrix-vector, conv2d
        // and depthwise conv cover every axis-kind combination the model
        // distinguishes.
        let def = match op {
            0 => amos::workloads::ops::gmm(128, 64, 64),
            1 => amos::workloads::ops::gmv(128, 128),
            2 => amos::workloads::ops::c2d(amos::workloads::ops::ConvShape {
                n: 2, c: 32, k: 32, p: 7, q: 7, r: 3, s: 3, stride: 1,
            }),
            _ => amos::workloads::ops::dep(2, 32, 7, 7, 3, 3),
        };
        let accel = if accel_pick == 0 { catalog::v100() } else { catalog::a100() };
        let mappings = MappingGenerator::new().enumerate(&def, &accel.intrinsic);
        prop_assume!(!mappings.is_empty());
        let prog = mappings[seed as usize % mappings.len()]
            .lower(&def, &accel.intrinsic)
            .expect("lower");
        let ctx = prog.screening_context(&accel);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = amos::core::random_schedule(&prog, &accel, &mut rng);
        for _ in 0..8 {
            amos::core::mutate_schedule(&mut s, &prog, &accel, &mut rng);
            let reference = predict(&prog, &s, &accel).expect("reference model");
            let fast = predict_with(&ctx, &s).expect("precomputed model");
            // Exact f64 identity, not approximate: the screening rewrite
            // must not move the search trajectory by even one ulp.
            prop_assert_eq!(reference.cycles.to_bits(), fast.cycles.to_bits());
            prop_assert_eq!(reference.l0_compute.to_bits(), fast.l0_compute.to_bits());
            prop_assert_eq!(reference.r_register.to_bits(), fast.r_register.to_bits());
            prop_assert_eq!(reference.r_shared.to_bits(), fast.r_shared.to_bits());
            prop_assert_eq!(reference.r_device.to_bits(), fast.r_device.to_bits());
            prop_assert_eq!(reference.w_device.to_bits(), fast.w_device.to_bits());
            prop_assert_eq!(reference.s_device.to_bits(), fast.s_device.to_bits());
        }
    }

    #[test]
    fn batched_screening_is_bit_identical_to_scalar_screening(
        op in 0usize..4,
        accel_pick in 0usize..2,
        count in 1usize..24,
        broken in prop::collection::vec(0usize..6, 24),
        seed in 0u64..10_000,
    ) {
        use amos::core::perf_model::{predict_batch, predict_with};
        use amos::sim::SimError;
        use rand::SeedableRng;
        let def = match op {
            0 => amos::workloads::ops::gmm(128, 64, 64),
            1 => amos::workloads::ops::gmv(128, 128),
            2 => amos::workloads::ops::c2d(amos::workloads::ops::ConvShape {
                n: 2, c: 32, k: 32, p: 7, q: 7, r: 3, s: 3, stride: 1,
            }),
            _ => amos::workloads::ops::dep(2, 32, 7, 7, 3, 3),
        };
        let accel = if accel_pick == 0 { catalog::v100() } else { catalog::a100() };
        let mappings = MappingGenerator::new().enumerate(&def, &accel.intrinsic);
        prop_assume!(!mappings.is_empty());
        let prog = mappings[seed as usize % mappings.len()]
            .lower(&def, &accel.intrinsic)
            .expect("lower");
        let ctx = prog.screening_context(&accel);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // A random arena of schedules, a third of them malformed (an axis
        // too few or too many): the batched path must isolate each in its
        // own lane without disturbing its neighbours, whether its chunk is
        // full, padded, or narrow enough (at most two valid lanes of one to
        // eight) to run lane by lane.
        let mut arena: Vec<amos::sim::Schedule> = (0..count)
            .map(|_| {
                let mut s = amos::core::random_schedule(&prog, &accel, &mut rng);
                amos::core::mutate_schedule(&mut s, &prog, &accel, &mut rng);
                s
            })
            .collect();
        for (s, &b) in arena.iter_mut().zip(&broken) {
            match b {
                0 => { s.grid.pop(); }
                1 => s.grid.push(1),
                _ => {}
            }
        }
        let refs: Vec<&amos::sim::Schedule> = arena.iter().collect();
        let mut batched = Vec::new();
        predict_batch(&ctx, &refs, &mut batched);
        prop_assert_eq!(batched.len(), arena.len());
        for (s, b) in arena.iter().zip(&batched) {
            match (predict_with(&ctx, s), b) {
                (Ok(reference), Ok(fast)) => {
                    // Exact f64 identity: batching must not move the search
                    // trajectory by even one ulp.
                    prop_assert_eq!(reference.cycles.to_bits(), fast.cycles.to_bits());
                    prop_assert_eq!(reference.l0_compute.to_bits(), fast.l0_compute.to_bits());
                    prop_assert_eq!(reference.r_register.to_bits(), fast.r_register.to_bits());
                    prop_assert_eq!(reference.r_shared.to_bits(), fast.r_shared.to_bits());
                    prop_assert_eq!(reference.r_device.to_bits(), fast.r_device.to_bits());
                    prop_assert_eq!(reference.w_device.to_bits(), fast.w_device.to_bits());
                    prop_assert_eq!(reference.s_device.to_bits(), fast.s_device.to_bits());
                }
                (Err(SimError::ScheduleAxisMismatch), Err(SimError::ScheduleAxisMismatch)) => {}
                (r, b) => prop_assert!(false, "verdicts diverge: {:?} vs {:?}", r, b),
            }
        }
    }

    #[test]
    fn schedules_survive_arbitrary_mutation_chains(seed in 0u64..10_000) {
        use rand::SeedableRng;
        let def = gemm_def(512, 512, 256);
        let accel = catalog::v100();
        let mapping = &MappingGenerator::new().enumerate(&def, &accel.intrinsic)[0];
        let prog = mapping.lower(&def, &accel.intrinsic).expect("lower");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s = amos::core::random_schedule(&prog, &accel, &mut rng);
        for _ in 0..20 {
            amos::core::mutate_schedule(&mut s, &prog, &accel, &mut rng);
            prop_assert!(s.validate(&prog, &accel).is_ok());
            // The timing simulator must accept every valid schedule.
            prop_assert!(amos::sim::simulate(&prog, &s, &accel).is_ok());
        }
    }
}
