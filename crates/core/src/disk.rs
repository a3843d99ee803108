//! The on-disk L2 behind the in-memory exploration cache.
//!
//! Exploration is a deterministic function of `(workload shape, accelerator,
//! config)`, so a winner found yesterday is exactly the winner a fresh
//! process would find today — provided nothing about the *code* producing it
//! changed. Entries are therefore keyed by the same structural fingerprint
//! as the in-memory L1 with the machine spelled out, named by a 64-bit hash
//! the caller derives from it, and every file carries a
//! **version salt** (cache schema + crate version + the hardware
//! abstraction's [`amos_hw::ABSTRACTION_VERSION`]): any incompatible change
//! invalidates cleanly, as a cold miss.
//!
//! Three properties the tier guarantees:
//!
//! * **Never a wrong result.** Only clean [`Completion::Finished`] runs are
//!   persisted (the PR-5 invariant: truncated and degraded best-so-fars are
//!   not converged winners), the full key is stored inside the file and
//!   compared on load (hash collisions degrade to misses), and the stored
//!   winner is **re-validated by re-simulation**: the mapping is re-lowered
//!   and re-measured, and the file is only trusted when the fresh
//!   [`TimingReport`] reproduces the stored one bit-for-bit.
//! * **Never a panic.** Corrupted, truncated, version-mismatched or
//!   unreadable files — and unwritable directories — degrade to cold
//!   misses; every failure path in this module returns `None` or `()`.
//! * **Atomic writes.** Entries are written to a process-unique temp file
//!   and `rename`d into place, so a concurrent reader sees either the old
//!   complete file or the new complete file, never a torn one.

use crate::error::AmosError;
use crate::explore::{Completion, ExplorationResult, QuarantineReport, ScreeningStats};
use crate::mapping::Mapping;
use amos_hw::AcceleratorSpec;
use amos_ir::{ComputeDef, IterId};
use amos_sim::{simulate, FusedGroup, Schedule, TimingReport};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Layout version of the on-disk entry format itself. Bump on any change to
/// the serialization below or to how files are named: schema 2 is schema
/// 1's entry under the caller's `hash` (schema 1 hashed the whole key).
const SCHEMA: u32 = 2;

/// A schema-2 line whose counters nothing sets any more, written and
/// required verbatim. An entry with other counters was stored under a key no
/// request can spell now, so it is a miss either way.
const WARM_LINE: &str = "warm 0 0 0";

/// Entries larger than this are rejected, and no read goes past it (a
/// corrupted or swapped file must not make a lookup allocate gigabytes).
const MAX_FILE_BYTES: u64 = 16 * 1024 * 1024;

/// File extension of cache entries; everything else in the directory is
/// ignored (and left alone by [`clear_cache_dir`]).
const EXT: &str = ".amosc";

/// Cache placement knobs of an [`crate::Engine`].
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Directory of the persistent L2 exploration cache, shared across
    /// processes. `None` (the default) keeps the engine memory-only.
    pub cache_dir: Option<PathBuf>,
}

/// The combined version salt embedded in every entry. A mismatch in any
/// component — entry layout, crate version, hardware-abstraction semantics —
/// turns the entry into a cold miss.
pub fn cache_salt() -> String {
    format!(
        "schema{SCHEMA}+core{}+hw{}",
        env!("CARGO_PKG_VERSION"),
        amos_hw::ABSTRACTION_VERSION
    )
}

/// The first line of every entry this build writes or accepts.
pub(crate) fn header() -> &'static str {
    static HEADER: OnceLock<String> = OnceLock::new();
    HEADER.get_or_init(|| format!("amos-l2 {}\n", cache_salt()))
}

fn file_name(hash: u64) -> String {
    format!("{hash:016x}{EXT}")
}

/// The persistent tier. Thread-safe without locks: stores are atomic
/// renames, loads re-validate, and two processes racing on one key both
/// write identical bytes.
#[derive(Debug)]
pub(crate) struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    pub(crate) fn new(dir: PathBuf) -> Self {
        DiskCache { dir }
    }

    /// Persists a clean `Finished` result under `key`, in the file `hash`
    /// names. Best-effort: an unwritable directory or full disk silently
    /// skips the store — the result is still correct, it just stays
    /// process-local.
    pub(crate) fn store(&self, hash: u64, key: &str, r: &ExplorationResult) {
        if r.completion != Completion::Finished {
            return;
        }
        let intrinsic = &r.best_program.intrinsic().name;
        if intrinsic.is_empty() || intrinsic.contains(char::is_whitespace) {
            return; // unserializable name; skip rather than corrupt
        }
        let text = render(key, r, intrinsic);
        let _ = std::fs::create_dir_all(&self.dir);
        let name = file_name(hash);
        let tmp = self.dir.join(format!(".tmp-{}-{name}", std::process::id()));
        if std::fs::write(&tmp, text.as_bytes()).is_ok()
            && std::fs::rename(&tmp, self.dir.join(name)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Loads, parses and re-validates the entry for `key` from the file
    /// `hash` names. Any failure — missing file, bad salt, torn write, two
    /// keys sharing a `hash`, an oversized file, a winner the current
    /// simulator does not reproduce — returns `None` (a cold miss).
    pub(crate) fn load(
        &self,
        hash: u64,
        key: &str,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> Option<ExplorationResult> {
        // One open: the size checked is the size of the file that is read,
        // and the read stops at the bound whatever that file does meanwhile.
        let file = std::fs::File::open(self.dir.join(file_name(hash))).ok()?;
        let len = file.metadata().ok()?.len();
        if len > MAX_FILE_BYTES {
            return None;
        }
        let mut text = String::with_capacity(len as usize + 1);
        file.take(MAX_FILE_BYTES + 1)
            .read_to_string(&mut text)
            .ok()?;
        if text.len() as u64 > MAX_FILE_BYTES {
            return None;
        }
        parse_and_validate(&text, key, def, accel)
    }
}

// ---- serialization ---------------------------------------------------------

/// `f64` as 16 hex digits of its bit pattern: exact round-trip, including
/// negative zero, infinities and NaN payloads.
fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn unbits(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn render(key: &str, r: &ExplorationResult, intrinsic: &str) -> String {
    let mut s = String::with_capacity(1024 + key.len());
    s.push_str(header());
    let _ = writeln!(s, "key {}", key.len());
    s.push_str(key);
    s.push('\n');
    let _ = writeln!(s, "intrinsic {intrinsic}");
    let _ = writeln!(s, "groups {}", r.best_mapping.groups.len());
    for g in &r.best_mapping.groups {
        s.push('g');
        for it in &g.iters {
            let _ = write!(s, " {}", it.0);
        }
        s.push('\n');
    }
    s.push_str("corr");
    for &c in &r.best_mapping.correspondence {
        let _ = write!(s, " {c}");
    }
    s.push('\n');
    let sched = &r.best_schedule;
    for (tag, axes) in [
        ("grid", &sched.grid),
        ("splitk", &sched.split_k),
        ("subcore", &sched.subcore),
        ("stage", &sched.stage),
        ("warp", &sched.warp),
    ] {
        s.push_str(tag);
        for &v in axes {
            let _ = write!(s, " {v}");
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "flags {} {} {}",
        sched.double_buffer as u8, sched.unroll as u8, sched.vectorize as u8
    );
    let t = &r.best_report;
    let _ = writeln!(
        s,
        "report {} {} {} {} {} {} {} {} {} {}",
        bits(t.cycles),
        t.blocks,
        t.waves,
        bits(t.occupancy),
        bits(t.utilization),
        t.dram_read_bytes,
        t.dram_write_bytes,
        t.register_traffic_bytes,
        bits(t.block_compute_cycles),
        bits(t.block_transfer_cycles),
    );
    let _ = writeln!(s, "nmap {}", r.num_mappings);
    let _ = writeln!(s, "simf {}", r.sim_failures);
    let _ = writeln!(
        s,
        "screen {} {} {} {}",
        r.screening.screened,
        r.screening.survivor_memo_hits,
        r.screening.measured_memo_hits,
        bits(r.screening.screen_seconds),
    );
    s.push_str(WARM_LINE);
    s.push('\n');
    let _ = writeln!(s, "gens {}", r.generations_completed);
    let _ = writeln!(s, "evals {}", r.evaluations.len());
    for &(p, m) in &r.evaluations {
        let _ = writeln!(s, "e {} {}", bits(p), bits(m));
    }
    s.push_str("end\n");
    s
}

// ---- parsing + re-validation -----------------------------------------------

/// Consumes one line of the form `<tag>` or `<tag> <payload>`; the payload
/// (possibly empty) on a match, `None` otherwise.
fn tagged<'a>(lines: &mut std::str::Lines<'a>, tag: &str) -> Option<&'a str> {
    let line = lines.next()?;
    if line == tag {
        return Some("");
    }
    line.strip_prefix(tag)?.strip_prefix(' ')
}

fn ints<T: std::str::FromStr>(payload: &str) -> Option<Vec<T>> {
    payload.split_whitespace().map(|w| w.parse().ok()).collect()
}

/// The words of a line of exactly `N`.
fn words<const N: usize>(payload: &str) -> Option<[&str; N]> {
    let mut rest = payload.split_whitespace();
    let mut words = [""; N];
    for word in &mut words {
        *word = rest.next()?;
    }
    rest.next().is_none().then_some(words)
}

fn parse_and_validate(
    text: &str,
    key: &str,
    def: &ComputeDef,
    accel: &AcceleratorSpec,
) -> Option<ExplorationResult> {
    // Version salt first: entries from any other build are invisible.
    let rest = text.strip_prefix(header())?;
    // The full key is stored verbatim (length-prefixed, since accelerator
    // Debug output may contain anything but newlines) and must match the
    // request — two keys colliding on the 64-bit file hash miss cleanly.
    let len: usize = tagged(&mut rest.lines(), "key")?.parse().ok()?;
    let rest = rest.split_once('\n')?.1;
    let bytes = rest.as_bytes();
    if bytes.get(..len)? != key.as_bytes() || *bytes.get(len)? != b'\n' {
        return None;
    }
    let rest = std::str::from_utf8(&bytes[len + 1..]).ok()?;
    let mut lines = rest.lines();

    let intrinsic_name = tagged(&mut lines, "intrinsic")?;
    let ngroups: usize = tagged(&mut lines, "groups")?.parse().ok()?;
    if ngroups > 1024 {
        return None;
    }
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let ids: Vec<u32> = ints(tagged(&mut lines, "g")?)?;
        groups.push(FusedGroup::of(ids.into_iter().map(IterId).collect()));
    }
    let correspondence: Vec<usize> = ints(tagged(&mut lines, "corr")?)?;
    let grid: Vec<i64> = ints(tagged(&mut lines, "grid")?)?;
    let split_k: Vec<i64> = ints(tagged(&mut lines, "splitk")?)?;
    let subcore: Vec<i64> = ints(tagged(&mut lines, "subcore")?)?;
    let stage: Vec<i64> = ints(tagged(&mut lines, "stage")?)?;
    let warp: Vec<i64> = ints(tagged(&mut lines, "warp")?)?;
    let flags: Vec<u8> = ints(tagged(&mut lines, "flags")?)?;
    let [db, unroll, vec] = flags.as_slice() else {
        return None;
    };
    if flags.iter().any(|&f| f > 1) {
        return None;
    }
    let [cyc, blocks, waves, occ, util, dr, dw, reg, bcc, btc] =
        words(tagged(&mut lines, "report")?)?;
    let stored = TimingReport {
        cycles: unbits(cyc)?,
        blocks: blocks.parse().ok()?,
        waves: waves.parse().ok()?,
        occupancy: unbits(occ)?,
        utilization: unbits(util)?,
        dram_read_bytes: dr.parse().ok()?,
        dram_write_bytes: dw.parse().ok()?,
        register_traffic_bytes: reg.parse().ok()?,
        block_compute_cycles: unbits(bcc)?,
        block_transfer_cycles: unbits(btc)?,
    };
    let num_mappings: usize = tagged(&mut lines, "nmap")?.parse().ok()?;
    let sim_failures: usize = tagged(&mut lines, "simf")?.parse().ok()?;
    let [screened, survivor, measured, secs] = words(tagged(&mut lines, "screen")?)?;
    let screening = ScreeningStats {
        screened: screened.parse().ok()?,
        survivor_memo_hits: survivor.parse().ok()?,
        measured_memo_hits: measured.parse().ok()?,
        screen_seconds: unbits(secs)?,
    };
    if lines.next() != Some(WARM_LINE) {
        return None;
    }
    let generations_completed: usize = tagged(&mut lines, "gens")?.parse().ok()?;
    let nevals: usize = tagged(&mut lines, "evals")?.parse().ok()?;
    if nevals > 1_000_000 {
        return None;
    }
    let mut evaluations = Vec::with_capacity(nevals);
    for _ in 0..nevals {
        let (p, m) = tagged(&mut lines, "e")?.split_once(' ')?;
        evaluations.push((unbits(p)?, unbits(m)?));
    }
    if lines.next() != Some("end") || lines.next().is_some() {
        return None;
    }

    // Re-validation by re-simulation: re-lower the stored mapping on the
    // unit the winner targeted (the accelerator re-targeted at the named
    // intrinsic, extra intrinsics cleared — exactly how the explorer
    // simulates candidates) and require the fresh measurement to reproduce
    // the stored report bit-for-bit. A file that lies about its provenance
    // cannot pass; a file from a subtly different model version cannot
    // either, even if its salt somehow matched.
    let intrinsic = accel.all_intrinsics().find(|i| i.name == intrinsic_name)?;
    // A homogeneous machine is its own unit, so nothing is copied.
    let unit = if accel.extra_intrinsics.is_empty() {
        Cow::Borrowed(accel)
    } else {
        let mut unit = accel.clone();
        unit.intrinsic = intrinsic.clone();
        unit.extra_intrinsics.clear();
        Cow::Owned(unit)
    };
    let best_mapping = Mapping {
        groups,
        correspondence,
    };
    let best_program = best_mapping.lower(def, &unit.intrinsic).ok()?;
    let best_schedule = Schedule {
        grid,
        split_k,
        subcore,
        stage,
        warp,
        double_buffer: *db == 1,
        unroll: *unroll == 1,
        vectorize: *vec == 1,
    };
    let best_report = simulate(&best_program, &best_schedule, &unit).ok()?;
    if !report_bits_eq(&best_report, &stored) {
        return None;
    }
    Some(ExplorationResult {
        best_mapping,
        best_program,
        best_schedule,
        best_report,
        evaluations,
        num_mappings,
        sim_failures,
        screening,
        completion: Completion::Finished,
        generations_completed,
        quarantine: QuarantineReport::default(),
    })
}

fn report_bits_eq(a: &TimingReport, b: &TimingReport) -> bool {
    a.cycles.to_bits() == b.cycles.to_bits()
        && a.blocks == b.blocks
        && a.waves == b.waves
        && a.occupancy.to_bits() == b.occupancy.to_bits()
        && a.utilization.to_bits() == b.utilization.to_bits()
        && a.dram_read_bytes == b.dram_read_bytes
        && a.dram_write_bytes == b.dram_write_bytes
        && a.register_traffic_bytes == b.register_traffic_bytes
        && a.block_compute_cycles.to_bits() == b.block_compute_cycles.to_bits()
        && a.block_transfer_cycles.to_bits() == b.block_transfer_cycles.to_bits()
}

// ---- user-requested directory operations ------------------------------------

/// Aggregate numbers over one cache directory, for `amos cache stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskDirStats {
    /// Cache entry files present.
    pub entries: usize,
    /// Their total size in bytes.
    pub bytes: u64,
    /// How many of them no lookup of this build can answer from: their
    /// first line is not this build's (another schema or version wrote
    /// them, or a write was torn). [`clear_cache_dir`] reclaims them.
    pub stale: usize,
}

/// Whether `path` starts with the line every entry of this build starts
/// with; no more of the file than that line is read.
fn is_current(path: &Path) -> bool {
    let mut first = vec![0u8; header().len()];
    std::fs::File::open(path)
        .and_then(|mut file| file.read_exact(&mut first))
        .is_ok()
        && first == header().as_bytes()
}

fn entry_files(dir: &Path) -> Result<Vec<(PathBuf, u64)>, AmosError> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        // A directory that was never written to is an empty cache, not an
        // error — `--cache-dir` creates it lazily on the first store.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(AmosError::io(format!("cache dir {}: {e}", dir.display()))),
    };
    let mut files = Vec::new();
    for entry in rd {
        let entry =
            entry.map_err(|e| AmosError::io(format!("cache dir {}: {e}", dir.display())))?;
        let name = entry.file_name();
        if !name.to_string_lossy().ends_with(EXT) {
            continue;
        }
        let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
        files.push((entry.path(), len));
    }
    Ok(files)
}

/// Counts the entries of an on-disk cache directory. A missing directory is
/// an empty cache.
///
/// # Errors
///
/// [`AmosError`] (kind [`crate::AmosErrorKind::Io`]) when the directory
/// exists but cannot be read.
pub fn cache_dir_stats(dir: &Path) -> Result<DiskDirStats, AmosError> {
    let files = entry_files(dir)?;
    Ok(DiskDirStats {
        entries: files.len(),
        bytes: files.iter().map(|(_, len)| len).sum(),
        stale: files.iter().filter(|(path, _)| !is_current(path)).count(),
    })
}

/// Removes every cache entry (including stale temp files) from `dir`,
/// leaving unrelated files alone. Returns the number of files removed; a
/// missing directory removes zero.
///
/// # Errors
///
/// [`AmosError`] (kind [`crate::AmosErrorKind::Io`]) when the directory
/// cannot be read or an entry cannot be removed.
pub fn clear_cache_dir(dir: &Path) -> Result<usize, AmosError> {
    let files = entry_files(dir)?;
    let count = files.len();
    for (path, _) in files {
        std::fs::remove_file(&path)
            .map_err(|e| AmosError::io(format!("removing {}: {e}", path.display())))?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amos-disk-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            assert_eq!(unbits(&bits(v)).unwrap().to_bits(), v.to_bits());
        }
        assert!(unbits(&bits(f64::NAN)).unwrap().is_nan());
        assert_eq!(unbits("zz"), None);
        assert_eq!(unbits("00"), None, "length must be exactly 16");
    }

    #[test]
    fn salt_names_every_version_component() {
        let salt = cache_salt();
        assert!(salt.contains("schema"), "{salt}");
        assert!(salt.contains("hw"), "{salt}");
        assert!(salt.contains(env!("CARGO_PKG_VERSION")), "{salt}");
    }

    #[test]
    fn stats_and_clear_on_missing_dir_are_empty() {
        let dir = tmp("missing");
        assert_eq!(cache_dir_stats(&dir).unwrap(), DiskDirStats::default());
        assert_eq!(clear_cache_dir(&dir).unwrap(), 0);
    }

    #[test]
    fn clear_removes_only_cache_entries() {
        let dir = tmp("clear");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("0123456789abcdef.amosc"), "junk").unwrap();
        std::fs::write(dir.join(".tmp-1-feed.amosc"), "torn").unwrap();
        std::fs::write(dir.join("README.txt"), "keep me").unwrap();
        let stats = cache_dir_stats(&dir).unwrap();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.stale, 2, "neither starts with this build's header");
        assert!(stats.bytes > 0);
        assert_eq!(clear_cache_dir(&dir).unwrap(), 2);
        assert!(dir.join("README.txt").exists());
        assert_eq!(cache_dir_stats(&dir).unwrap().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tagged_lines_parse_strictly() {
        let text = "g 1 2\ncorr\nend\n";
        let mut lines = text.lines();
        assert_eq!(tagged(&mut lines, "g"), Some("1 2"));
        assert_eq!(tagged(&mut lines, "corr"), Some(""));
        assert_eq!(tagged(&mut lines, "evals"), None, "wrong tag rejects");
    }

    /// Every prefix of the committed schema-2 entry, and every substitution
    /// of one of a few bytes at every offset (17 669 cases), goes through the
    /// parser without a panic and is a cold miss or the entry's own winner:
    /// its mapping and report bit for bit, since re-simulation rejects any
    /// other. Two kinds of line are not re-derivable, so a corruption there
    /// can change an accepted answer: the search statistics, read as
    /// written, and a schedule gene the timing model is blind to here (a
    /// register-blocking factor above the block's tile count, `vectorize`).
    #[test]
    fn every_prefix_and_byte_substitution_of_an_entry_is_a_miss_or_its_winner() {
        let text = include_str!("../tests/fixtures/83d21f019876c0d8.amosc");
        let key = text.lines().nth(2).expect("key line");
        let def = amos_workloads::ops::gmm(64, 64, 64);
        let accel = amos_hw::catalog::v100();
        let winner = |r: &ExplorationResult| {
            format!(
                "{:?}",
                (
                    &r.best_mapping,
                    &r.best_program,
                    &r.best_report,
                    r.completion,
                    &r.quarantine,
                )
            )
        };
        let statistics = |r: &ExplorationResult| {
            format!(
                "{:?}",
                (
                    r.num_mappings,
                    r.sim_failures,
                    r.screening,
                    r.generations_completed,
                    &r.evaluations,
                )
            )
        };
        let reference = parse_and_validate(text, key, &def, &accel).expect("the entry answers");
        // `changed_line` is `None` for a prefix: any answer must equal the
        // entry in full.
        let check = |case: &str, changed_line: Option<&str>| {
            let Some(r) = parse_and_validate(case, key, &def, &accel) else {
                return;
            };
            assert_eq!(winner(&r), winner(&reference), "{case:?}");
            let tag = changed_line.and_then(|l| l.split(' ').next());
            if r.best_schedule != reference.best_schedule {
                assert!(
                    matches!(
                        tag,
                        Some("grid" | "splitk" | "subcore" | "stage" | "warp" | "flags")
                    ),
                    "only a schedule line may change the schedule: {changed_line:?}"
                );
            }
            if statistics(&r) != statistics(&reference) {
                assert!(
                    matches!(tag, Some("nmap" | "simf" | "screen" | "gens" | "e")),
                    "only a statistics line may change a statistic: {changed_line:?}"
                );
            }
        };
        for end in 0..text.len() {
            check(&text[..end], None);
        }
        let mut case = text.as_bytes().to_vec();
        for at in 0..text.len() {
            let line_start = text[..at].rfind('\n').map_or(0, |i| i + 1);
            let line = text[line_start..].lines().next();
            for byte in *b"09 \n-f" {
                case[at] = byte;
                check(std::str::from_utf8(&case).expect("ascii"), line);
            }
            case[at] = text.as_bytes()[at];
        }
    }
}
