//! What the benchmark reads from the operating system and the build: CPU
//! time, peak memory, core count, and the environment header recorded with
//! every result.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat`. `sysconf` needs
/// libc, which the offline build lacks; every Linux ABI this runs on
/// reports 100.
const CLK_TCK: f64 = 100.0;

/// User plus system CPU milliseconds of this process (all threads) so far.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name may hold spaces; fields are counted after its ')'.
    let after = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15, that is 11 and 12 after ')'.
    let ticks: f64 = [fields[11], fields[12]]
        .iter()
        .map(|f| f.parse::<f64>().expect("tick counts are numbers"))
        .sum();
    ticks * 1e3 / CLK_TCK
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status reports VmHWM");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The widest path `perf_model::predict_batch` dispatches to on this CPU.
pub fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512dq") {
            return "avx512";
        }
        if std::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

fn first_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// The benchmark's own directory: sources at build time, outputs at run
/// time. The driver builds and runs in one checkout, so the build-time path
/// is the run-time path.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `rustc --version`, or `unknown` when no toolchain is on the path.
pub fn rustc_version() -> String {
    first_line("rustc", &["--version"], &bench_dir()).unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, or `unknown` outside a git checkout (the
/// driver's copy is not one).
pub fn git_rev() -> String {
    first_line("git", &["rev-parse", "--short=12", "HEAD"], &bench_dir())
        .unwrap_or_else(|| "unknown".into())
}

/// Refuses to measure in an environment whose numbers would not compare:
/// an `AMOS_JOBS` override (it silently re-sizes every `jobs = 0`), a debug
/// build, or a build with fault injection compiled in.
pub fn guard_environment() -> Result<(), String> {
    if std::env::var_os("AMOS_JOBS").is_some() {
        return Err("AMOS_JOBS is set: unset it, the benchmark sizes its own thread budget".into());
    }
    if cfg!(debug_assertions) {
        return Err("debug build: run with `cargo run --release`".into());
    }
    if amos_core::fault_injection_enabled() {
        return Err("amos-core was built with `fault-injection`".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_sane() {
        let before = cpu_ms();
        let mut x = 0u64;
        while cpu_ms() < before + 30.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }
}
