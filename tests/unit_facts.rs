//! The per-unit facts a lowered program reads of its `(definition,
//! intrinsic)` pair, pinned against the derivation they replaced: the
//! intrinsic's access matrix `Z` for tile axes and an `Expr::uses` walk of the
//! slot's software access for outer axes, plus `Intrinsic::fragment_bytes`
//! and `ComputeDef::scalar_ops`.
//!
//! For every `operator_configs()` entry, every unit of the built-in machines
//! (each intrinsic of a heterogeneous one) and the first, middle and last
//! enumerated mapping, a program that shares its unit's facts
//! (`MappedProgram::sibling` of the first mapping, as lowering builds them)
//! must answer `operand_uses_axis` like the old derivation and screen to a
//! context equal, field by field, to that of an independently lowered
//! program of the same mapping.

use amos::core::{Mapping, MappingGenerator};
use amos::hw::{Intrinsic, OperandRef, Registry};
use amos::ir::{ComputeBuilder, ComputeDef, DType};
use amos::sim::{Axis, AxisKind, FusedGroup, MappedProgram, ScreeningContext, SimError};
use amos::workloads::configs::operator_configs;

/// Whether operand row `row` (sources, then the destination) depends on
/// `axis`, derived the way `ProgramShape` did before the facts existed.
fn oracle(prog: &MappedProgram, row: usize, axis: &Axis) -> bool {
    let num_srcs = prog.intrinsic().compute.num_srcs();
    match axis.kind {
        AxisKind::TileSpatial(t) | AxisKind::TileReduction(t) => {
            prog.intrinsic().compute.access_matrix().get(row, t)
        }
        AxisKind::OuterSpatial(id) | AxisKind::OuterReduction(id) => {
            let access = if row < num_srcs {
                &prog.def().inputs()[prog.correspondence()[row]]
            } else {
                prog.def().output()
            };
            access.indices.iter().any(|e| e.uses(id))
        }
    }
}

/// Checks `shared` against the oracle and against `independent`, a program
/// of the same mapping lowered on its own, on `unit`.
fn check(shared: &MappedProgram, independent: &MappedProgram, unit: &amos::hw::AcceleratorSpec) {
    let intr = shared.intrinsic();
    let num_srcs = intr.compute.num_srcs();
    for row in 0..=num_srcs {
        for axis in shared.axes() {
            assert_eq!(
                shared.operand_uses_axis(row, axis),
                oracle(independent, row, axis),
                "{}: row {row}, {axis:?}",
                shared.mapping_string()
            );
        }
    }
    let ctx = ScreeningContext::build(shared, unit);
    assert_eq!(ctx, ScreeningContext::build(independent, unit));
    let src_bytes: Vec<u64> = (0..num_srcs)
        .map(|m| intr.fragment_bytes(OperandRef::Src(m)))
        .collect();
    assert_eq!(ctx.src_frag_bytes, src_bytes);
    assert_eq!(ctx.dst_frag_bytes, intr.fragment_bytes(OperandRef::Dst));
}

fn sibling(first: &MappedProgram, m: &Mapping) -> Result<MappedProgram, SimError> {
    first.sibling(m.groups.clone(), m.correspondence.clone())
}

#[test]
fn shared_facts_answer_like_the_derivation_they_replace() {
    let registry = Registry::builtin();
    let generator = MappingGenerator::new();
    let configs = operator_configs();
    let mut checked = 0usize;
    for name in registry.names() {
        let accel = registry.build(name).expect("listed machine builds");
        for intrinsic in accel.all_intrinsics() {
            let mut unit = accel.clone();
            unit.intrinsic = intrinsic.clone();
            unit.extra_intrinsics.clear();
            for c in &configs {
                let mappings = generator.enumerate(&c.def, intrinsic);
                let Some(first) = mappings.first() else {
                    continue;
                };
                let first = first
                    .lower(&c.def, intrinsic)
                    .expect("enumerated mappings lower");
                for pick in [0, mappings.len() / 2, mappings.len() - 1] {
                    let shared = sibling(&first, &mappings[pick]).expect("siblings lower");
                    let independent = mappings[pick].lower(&c.def, intrinsic).unwrap();
                    assert_eq!(shared, independent);
                    check(&shared, &independent, &unit);
                    assert_eq!(
                        ScreeningContext::build(&shared, &unit).useful_ops.to_bits(),
                        (c.def.scalar_ops() as f64).to_bits()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 3 * configs.len(), "{checked} programs checked");
}

/// `o[i] += a[i, k0 + … + k63] * w[k0 + … + k63]`: 65 iterations, `i` first,
/// so `k63` is iteration 64, past one 64-bit word.
fn wide() -> (ComputeDef, Intrinsic, Vec<amos::ir::IterId>) {
    let mut b = ComputeBuilder::new("wide");
    let i = b.spatial("i", 16);
    let ks: Vec<_> = (0..64).map(|j| b.reduce(format!("k{j}"), 2)).collect();
    let sum = ks.iter().map(|k| k.ex()).reduce(|x, y| x + y).unwrap();
    let a = b.input("a", &[16, 65], DType::F16);
    let w = b.input("w", &[65], DType::F16);
    let o = b.output("o", &[16], DType::F32);
    b.mul_acc(o.at([i.ex()]), a.at([i.ex(), sum.clone()]), w.at([sum]));
    let def = b.finish().expect("valid def");
    let mut ids = vec![i.id()];
    ids.extend(ks.iter().map(|k| k.id()));
    (def, amos::hw::catalog::v100().intrinsic, ids)
}

#[test]
fn past_64_iterations_the_facts_stay_exact_and_too_many_axes_stay_a_typed_error() {
    let (def, intrinsic, ids) = wide();
    assert_eq!(ids[64].index(), 64);
    // `k0..k61` fused into the reduction axis leaves `k62` and `k63` outer:
    // a legal program whose last outer axis is iteration 64, and whose
    // domain (16 · 2^64) overflows `i64`.
    let fits = Mapping {
        groups: vec![
            FusedGroup::of(vec![ids[0]]),
            FusedGroup::empty(),
            FusedGroup::of(ids[1..63].to_vec()),
        ],
        correspondence: vec![0, 1],
    };
    let prog = fits.lower(&def, &intrinsic).expect("four axes fit");
    assert!(prog
        .axes()
        .iter()
        .any(|a| a.kind == AxisKind::OuterReduction(ids[64])));
    let unit = amos::hw::catalog::v100();
    check(&prog, &prog.clone(), &unit);
    let again = sibling(&prog, &fits).expect("siblings lower");
    check(&again, &prog, &unit);
    assert_eq!(
        ScreeningContext::build(&prog, &unit).useful_ops,
        2f64.powi(68)
    );

    // One reduction iteration fused leaves 64 outer loops plus three tile
    // loops: more axes than the masks hold, a typed error either way.
    let too_wide = Mapping {
        groups: vec![
            FusedGroup::of(vec![ids[0]]),
            FusedGroup::empty(),
            FusedGroup::of(vec![ids[1]]),
        ],
        correspondence: vec![0, 1],
    };
    for lowered in [too_wide.lower(&def, &intrinsic), sibling(&prog, &too_wide)] {
        assert!(
            matches!(lowered, Err(SimError::MalformedMapping { .. })),
            "{lowered:?}"
        );
    }
}
