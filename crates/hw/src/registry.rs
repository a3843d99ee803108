//! Name → description registry of accelerators.
//!
//! The registry is the lookup layer the CLI and Engine use to enumerate and
//! build backends: [`Registry::builtin`] starts from the embedded
//! `data/accels/*.toml` catalog (see [`crate::catalog`]),
//! [`Registry::load_dir`] layers a directory of further machine files over
//! it, and [`Registry::register`] adds (or replaces) a user-supplied
//! [`AcceleratorDesc`] — the §7.5 "new accelerator in a few lines" path.

use std::path::{Path, PathBuf};

use crate::accelerator::AcceleratorSpec;
use crate::catalog;
use crate::desc::AcceleratorDesc;
use crate::text::{self, AccelError, FileError};

/// An ordered collection of accelerator descriptions addressable by name.
///
/// Order is preserved (and deterministic) so that enumeration output —
/// `--list-accels`, sweep tests — is stable.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: Vec<AcceleratorDesc>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry pre-populated with every catalog accelerator, in catalog
    /// order: an owned copy of the table [`crate::catalog`] parses once per
    /// process from the embedded `data/accels/*.toml` files.
    ///
    /// # Panics
    /// Only if the binary was built from an invalid committed catalog.
    pub fn builtin() -> Self {
        Registry {
            entries: catalog::descriptors(),
        }
    }

    /// Adds a description, replacing any existing entry with the same name
    /// (last wins; replacement keeps the original position, new names
    /// append) — so [`Registry::names`] never lists duplicates.
    pub fn register(&mut self, desc: AcceleratorDesc) {
        match self.entries.iter_mut().find(|e| e.name == desc.name) {
            Some(slot) => *slot = desc,
            None => self.entries.push(desc),
        }
    }

    /// The built-in catalog layered with every accelerator file in `dir`:
    /// a file defining the same machine name as a built-in replaces it
    /// (keeping its catalog position), new names append in filename order.
    ///
    /// Files are `*.toml` documents of either kind — full accelerator
    /// descriptions or primitive ISA descriptions, which are run through
    /// [`derive_abstraction`](crate::isa::derive_abstraction). Two *files*
    /// defining the same machine name is an authoring error and fails with
    /// [`AccelError::Duplicate`]; everything else in the directory is
    /// ignored.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Registry, FileError> {
        let mut registry = Registry::builtin();
        registry.extend_from_dir(dir.as_ref())?;
        Ok(registry)
    }

    /// The [`Registry::load_dir`] layering step on an existing registry;
    /// returns the machine names loaded from `dir`, in filename order.
    pub fn extend_from_dir(&mut self, dir: &Path) -> Result<Vec<String>, FileError> {
        let entries = std::fs::read_dir(dir).map_err(|e| FileError {
            file: dir.to_path_buf(),
            error: AccelError::Io(e.to_string()),
        })?;
        let mut files: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| FileError {
                file: dir.to_path_buf(),
                error: AccelError::Io(e.to_string()),
            })?;
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "toml") && path.is_file() {
                files.push(path);
            }
        }
        // Filename order, so layering is deterministic across platforms.
        files.sort();
        let mut loaded: Vec<(String, PathBuf)> = Vec::new();
        for path in &files {
            let (desc, _kind) = text::load_path(path)?;
            if let Some((_, earlier)) = loaded.iter().find(|(name, _)| *name == desc.name) {
                return Err(FileError {
                    file: path.clone(),
                    error: AccelError::Duplicate {
                        name: desc.name,
                        earlier: earlier.clone(),
                    },
                });
            }
            loaded.push((desc.name.clone(), path.clone()));
            self.register(desc);
        }
        Ok(loaded.into_iter().map(|(name, _)| name).collect())
    }

    /// Accelerator names in registry order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Looks up a description by name.
    pub fn get(&self, name: &str) -> Option<&AcceleratorDesc> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Builds the named accelerator, if registered.
    pub fn build(&self, name: &str) -> Option<AcceleratorSpec> {
        self.get(name).map(AcceleratorDesc::build)
    }

    /// Builds every registered accelerator, in registry order.
    pub fn build_all(&self) -> Vec<AcceleratorSpec> {
        self.entries.iter().map(AcceleratorDesc::build).collect()
    }

    /// All registered descriptions, in registry order.
    pub fn descs(&self) -> &[AcceleratorDesc] {
        &self.entries
    }

    /// Number of registered accelerators.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_by_name_equals_catalog_constructor() {
        let reg = Registry::builtin();
        assert_eq!(reg.build("v100"), Some(catalog::v100()));
        assert_eq!(reg.build("virtual-conv"), Some(catalog::virtual_conv()));
        assert_eq!(reg.build("nonexistent"), None);
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amos-registry-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_dir_layers_files_over_builtin() {
        let dir = scratch_dir("layering");
        // A brand-new machine plus a file overriding a built-in.
        let mut fresh = Registry::builtin().get("mini").unwrap().clone();
        fresh.name = "file-machine".into();
        std::fs::write(dir.join("file-machine.toml"), fresh.to_text()).unwrap();
        let mut overridden = Registry::builtin().get("mini").unwrap().clone();
        overridden.clock_ghz = 9.0;
        std::fs::write(dir.join("mini.toml"), overridden.to_text()).unwrap();
        // Non-.toml entries are ignored.
        std::fs::write(dir.join("README.md"), "not a machine").unwrap();

        let reg = Registry::load_dir(&dir).unwrap();
        assert_eq!(reg.len(), Registry::builtin().len() + 1);
        let pos = Registry::builtin()
            .names()
            .iter()
            .position(|&n| n == "mini")
            .unwrap();
        assert_eq!(reg.names()[pos], "mini", "override keeps catalog position");
        assert_eq!(reg.get("mini").unwrap().clock_ghz, 9.0, "file wins");
        assert_eq!(reg.get("file-machine").unwrap(), &fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_rejects_two_files_with_one_name() {
        let dir = scratch_dir("duplicate");
        let desc = Registry::builtin().get("mini").unwrap().clone();
        std::fs::write(dir.join("a.toml"), desc.to_text()).unwrap();
        std::fs::write(dir.join("b.toml"), desc.to_text()).unwrap();
        let err = Registry::load_dir(&dir).unwrap_err();
        assert!(
            matches!(err.error, AccelError::Duplicate { ref name, .. } if name == "mini"),
            "{err}"
        );
        assert_eq!(err.file, dir.join("b.toml"), "reported at the later file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_surfaces_parse_errors_with_file_and_line() {
        let dir = scratch_dir("parse-error");
        std::fs::write(
            dir.join("bad.toml"),
            "format = 1\nname = \"x\"\nclock_ghz = 1.0\nscalar_ops_per_core_cycle = 1.0\nfrob = 3\n",
        )
        .unwrap();
        let err = Registry::load_dir(&dir).unwrap_err();
        assert_eq!(err.file, dir.join("bad.toml"));
        assert!(err.to_string().contains("bad.toml:5"), "{err}");
        assert!(err.to_string().contains("unknown key `frob`"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_refuses_an_oversized_file_unread() {
        let dir = scratch_dir("oversized");
        // Sparse: 8 GiB of length, no blocks — reading it whole would not fit.
        let file = std::fs::File::create(dir.join("huge.toml")).unwrap();
        file.set_len(8 << 30).unwrap();
        let err = Registry::load_dir(&dir).unwrap_err();
        assert_eq!(err.file, dir.join("huge.toml"));
        assert!(
            matches!(err.error, AccelError::Io(ref msg) if msg.contains("1048576-byte limit")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_derives_isa_files() {
        let dir = scratch_dir("isa");
        let desc = Registry::builtin().get("gemmini-like").unwrap().clone();
        let isa = crate::isa::IsaDesc::from_accelerator(&desc).unwrap();
        std::fs::write(dir.join("gemmini-like.toml"), isa.to_text()).unwrap();
        let reg = Registry::load_dir(&dir).unwrap();
        assert_eq!(reg.get("gemmini-like").unwrap(), &desc);
        assert_eq!(reg.len(), Registry::builtin().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn register_replaces_in_place_and_appends_new() {
        let mut reg = Registry::builtin();
        let n = reg.len();
        let pos = reg.names().iter().position(|&s| s == "mini").unwrap();

        let mut replacement = reg.get("mini").unwrap().clone();
        replacement.clock_ghz = 2.0;
        reg.register(replacement);
        assert_eq!(reg.len(), n, "replacement must not grow the registry");
        assert_eq!(reg.names()[pos], "mini", "replacement keeps its position");
        assert_eq!(reg.build("mini").unwrap().clock_ghz, 2.0);

        let mut fresh = reg.get("mini").unwrap().clone();
        fresh.name = "mini-2".into();
        reg.register(fresh);
        assert_eq!(reg.len(), n + 1);
        assert_eq!(*reg.names().last().unwrap(), "mini-2");

        // Last wins: registering the same name repeatedly keeps exactly one
        // entry, and `names()` never lists duplicates.
        for ghz in [3.0, 4.0, 5.0] {
            let mut again = reg.get("mini-2").unwrap().clone();
            again.clock_ghz = ghz;
            reg.register(again);
        }
        assert_eq!(reg.len(), n + 1);
        assert_eq!(reg.build("mini-2").unwrap().clock_ghz, 5.0);
        let names = reg.names();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "names() must be duplicate-free");
    }
}
