//! The committed on-disk catalog (`data/accels/*.toml`) is the source of the
//! built-in machines: `amos-hw` embeds the files at compile time and
//! `Registry::builtin()` is their parse. These tests check that the one
//! catalog is well formed:
//!
//! * **Canonical form** — every committed file, comment lines aside, is
//!   exactly what `to_text` writes for the description it parses to, so
//!   files stay in the writer's layout and a hand edit that reorders keys or
//!   reformats a value fails here.
//! * **Embedded equals on disk** — `Registry::builtin()` equals a plain
//!   `load_path` of each file, which fails on an edit without a rebuild or a
//!   stale `include_str!` path.
//! * **Reload identity** — `Registry::load_dir("data/accels")` parses every
//!   file back to a `PartialEq`-identical description, in unchanged registry
//!   order.
//! * **Golden exploration** — machines loaded through the file-read path
//!   (from a temporary copy of the directory) reproduce the
//!   [`common::GOLDEN`] exploration rows bit-identically (cycles via
//!   `f64::to_bits`, plus every search counter).
//! * **Derivation equivalence** — for the machines expressible as a
//!   primitive `IsaDesc`, the §4.1 derivation pass rebuilds the same
//!   description, with identical Algorithm-1 constraint matrices and
//!   identical §7.5 mapping counts on the representative operator set.

mod common;

use amos::core::MappingGenerator;
use amos::hw::{derive_abstraction, AcceleratorDesc, IsaDesc, Registry};
use amos::workloads::ops;
use common::{assert_golden_rows, GOLDEN};
use std::path::{Path, PathBuf};

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("data/accels")
}

/// The lines of `text` that are not whole-line `#` comments.
fn without_comment_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| !l.starts_with('#')).collect()
}

#[test]
fn committed_files_are_in_canonical_form() {
    for name in Registry::builtin().names() {
        let path = data_dir().join(format!("{name}.toml"));
        let on_disk =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let parsed = AcceleratorDesc::from_text(&on_disk)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            without_comment_lines(&on_disk),
            without_comment_lines(&parsed.to_text()),
            "{} is not in the layout `to_text` writes (comment lines aside)",
            path.display()
        );
    }
}

#[test]
fn embedded_catalog_equals_the_files_on_disk() {
    for desc in Registry::builtin().descs() {
        let path = data_dir().join(format!("{}.toml", desc.name));
        let (on_disk, _kind) = amos::hw::text::load_path(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            &on_disk,
            desc,
            "{} differs from the copy embedded in this build",
            path.display()
        );
    }
}

#[test]
fn data_dir_contains_no_stray_machines() {
    let builtin = Registry::builtin();
    let mut files: Vec<String> = std::fs::read_dir(data_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut expected: Vec<String> = builtin
        .names()
        .iter()
        .map(|n| format!("{n}.toml"))
        .collect();
    expected.sort();
    assert_eq!(files, expected);
}

#[test]
fn load_dir_reloads_the_catalog_identically() {
    let reloaded = Registry::load_dir(data_dir()).expect("committed catalog must load");
    let builtin = Registry::builtin();
    assert_eq!(reloaded.names(), builtin.names(), "registry order");
    for desc in builtin.descs() {
        assert_eq!(
            reloaded.get(&desc.name),
            Some(desc),
            "`{}` reparsed differently",
            desc.name
        );
    }
}

/// Loads from a temporary copy of the directory, so every machine explored
/// here came through the file-read path; `registry_roundtrip.rs` runs the
/// same rows through the embedded catalog.
#[test]
fn file_loaded_machines_reproduce_the_golden_rows_bit_identically() {
    let copy = std::env::temp_dir().join(format!("amos-accel-files-copy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(data_dir()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    let mut registry = Registry::new();
    let loaded = registry
        .extend_from_dir(&copy)
        .expect("committed catalog must load");
    std::fs::remove_dir_all(&copy).unwrap();
    assert_eq!(loaded.len(), GOLDEN.len(), "one file per golden row");
    assert_golden_rows(&registry, "files on disk");
}

/// Satellite 4, catalog half: every built-in expressible in the primitive
/// ISA form derives back to the identical description — same Algorithm-1
/// constraint matrices, same Table-6 mapping counts on the §7.5 operator
/// set.
#[test]
fn derivation_matches_hand_written_descs_on_the_operator_set() {
    let generator = MappingGenerator::new();
    let mut expressible = 0;
    for desc in Registry::builtin().descs() {
        let Ok(isa) = IsaDesc::from_accelerator(desc) else {
            // Machines whose iteration kinds are not destination-determined
            // (none today) would fall outside the primitive ISA form.
            continue;
        };
        expressible += 1;
        let derived =
            derive_abstraction(&isa).unwrap_or_else(|e| panic!("`{}` must derive: {e}", desc.name));
        assert_eq!(
            &derived, desc,
            "`{}`: derivation is not the identity",
            desc.name
        );
        for (d, h) in derived.intrinsics.iter().zip(&desc.intrinsics) {
            assert_eq!(
                d.build().compute.constraint_matrices(),
                h.build().compute.constraint_matrices(),
                "`{}`/`{}`: constraint matrices",
                desc.name,
                h.name
            );
        }
        let hand = desc.build();
        let auto = derived.build();
        for (def, name) in ops::representative_ops().iter().zip(ops::OPERATOR_NAMES) {
            for (hi, ai) in hand.all_intrinsics().zip(auto.all_intrinsics()) {
                assert_eq!(
                    generator.count(def, hi),
                    generator.count(def, ai),
                    "`{}` x {name}: mapping count diverged after derivation",
                    desc.name
                );
            }
        }
    }
    assert_eq!(expressible, 12, "the whole catalog is ISA-expressible");
}

/// An ISA-kind file dropped into a directory behaves exactly like its
/// accelerator-kind twin once loaded (the derivation runs at load time).
#[test]
fn isa_files_load_equivalently_to_accelerator_files() {
    let dir = std::env::temp_dir().join(format!("amos-accel-files-isa-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let desc = Registry::builtin().get("tpu-like").unwrap().clone();
    let isa = IsaDesc::from_accelerator(&desc).unwrap();
    std::fs::write(dir.join("tpu-like.toml"), isa.to_text()).unwrap();
    let reg = Registry::load_dir(&dir).unwrap();
    assert_eq!(reg.get("tpu-like"), Some(&desc));
    // And the canonical text of the loaded machine matches the committed
    // accelerator-kind file.
    let committed = std::fs::read_to_string(data_dir().join("tpu-like.toml")).unwrap();
    assert_eq!(
        without_comment_lines(&reg.get("tpu-like").unwrap().to_text()),
        without_comment_lines(&committed)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The text-format version string appears in every committed file, so a
/// future format bump forces a commit that rewrites them.
#[test]
fn committed_files_declare_format_one() {
    for desc in Registry::builtin().descs() {
        let path = data_dir().join(format!("{}.toml", desc.name));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().any(|l| l == "format = 1"),
            "{}: missing `format = 1`",
            path.display()
        );
        let reparsed = AcceleratorDesc::from_text(&text).unwrap();
        assert_eq!(reparsed.name, desc.name);
    }
}

/// One golden enumeration row: `(machine, intrinsic, total mappings over the
/// 113 operator configurations, FNV-1a digest)`. The digest folds, in
/// `operator_configs()` order, every operator's family, label, mapping count
/// and the `Debug` of its ordered mapping list — so content *and* order of
/// every operator × intrinsic enumeration are pinned.
type EnumerationRow = (&'static str, &'static str, usize, u64);

/// Recorded from the string-keyed, per-leaf-matrix enumerator (PR 12); the
/// table-driven enumerator must reproduce every row.
const ENUMERATION_GOLDEN: &[EnumerationRow] = &[
    ("v100", "mma_sync", 6430, 0x38980fdf63133dac),
    ("a100", "mma_sync", 6430, 0x38980fdf63133dac),
    ("t4", "mma_sync", 6430, 0x38980fdf63133dac),
    (
        "xeon-avx512",
        "_mm512_dpbusds_epi32",
        4280,
        0x94ec9322fe6e6c98,
    ),
    ("mali-g76", "arm_dot", 398, 0xa2e24df0178d6a90),
    ("mini", "mini_mma", 6430, 0x38980fdf63133dac),
    ("ascend-npu", "cube_mma", 6430, 0x38980fdf63133dac),
    ("ascend-npu", "vec_mac", 4280, 0x94ec9322fe6e6c98),
    ("tpu-like", "mxu_128x128", 6430, 0x38980fdf63133dac),
    ("gemmini-like", "gemmini_matmul", 6430, 0x38980fdf63133dac),
    ("virtual-axpy", "axpy32", 656, 0x6dac427d4bac085c),
    ("virtual-gemv", "gemv16", 4280, 0x94ec9322fe6e6c98),
    ("virtual-conv", "conv8x8x3", 433, 0xb8e8e47a2e0a512d),
];

#[test]
fn enumerated_mapping_lists_match_the_golden_digests() {
    use amos::workloads::configs::operator_configs;
    use std::fmt::Write;

    let registry = Registry::load_dir(data_dir()).expect("committed catalog must load");
    let generator = MappingGenerator::new();
    let configs = operator_configs();
    let mut actual = String::new();
    let mut rows = Vec::new();
    for name in registry.names() {
        let accel = registry.build(name).expect("listed machine builds");
        for intrinsic in accel.all_intrinsics() {
            let mut total = 0;
            let mut text = String::new();
            for c in &configs {
                let mappings = generator.enumerate(&c.def, intrinsic);
                total += mappings.len();
                write!(
                    text,
                    "{}|{}|{}|{mappings:?};",
                    c.family,
                    c.label,
                    mappings.len()
                )
                .unwrap();
            }
            let digest = amos::core::fnv1a(&text);
            writeln!(
                actual,
                "    (\"{name}\", \"{}\", {total}, {digest:#018x}),",
                intrinsic.name
            )
            .unwrap();
            rows.push((name.to_string(), intrinsic.name.clone(), total, digest));
        }
    }
    let golden: Vec<_> = ENUMERATION_GOLDEN
        .iter()
        .map(|&(m, i, n, d)| (m.to_string(), i.to_string(), n, d))
        .collect();
    assert_eq!(
        rows, golden,
        "enumeration drifted from the golden digests; this run produced:\n{actual}"
    );
}
