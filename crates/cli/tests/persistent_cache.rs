//! Cross-process persistence of the on-disk exploration cache: two separate
//! `amos` processes sharing one `--cache-dir` must agree bit for bit, and
//! the second must answer every layer from disk without a single cold
//! exploration.

use std::path::PathBuf;
use std::process::Command;

fn amos() -> Command {
    Command::new(env!("CARGO_BIN_EXE_amos"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("amos-xproc-{tag}-{}", std::process::id()))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn amos");
    assert!(
        out.status.success(),
        "amos failed ({:?}): {}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Strips the cache-statistics footer, leaving only the cost lines that must
/// be bit-identical between a cold and a disk-warm process.
fn cost_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("explorations cached"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn second_process_answers_from_disk_bit_identically() {
    let dir = tmp_dir("network");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();

    let cold = run_ok(amos().args(["network", "milstm", "--cache-dir", dir_arg]));
    assert!(
        cold.contains(" cold misses"),
        "cold run must explore: {cold}"
    );
    assert!(
        !cold.contains(" 0 cold misses"),
        "cold run cannot be answered from an empty cache: {cold}"
    );

    // The directory now holds the explorations; `cache stats` sees them.
    let stats = run_ok(amos().args(["cache", "stats", "--cache-dir", dir_arg]));
    assert!(
        !stats.contains("entries  : 0"),
        "cold run must persist entries: {stats}"
    );
    assert!(
        stats.contains("stale    : 0"),
        "every entry was written by this build: {stats}"
    );

    // A brand-new process with a brand-new in-memory cache: every layer
    // shape must come back as a disk hit, with zero cold explorations.
    let warm = run_ok(amos().args(["network", "milstm", "--cache-dir", dir_arg]));
    assert!(
        warm.contains(" 0 cold misses"),
        "warm process must not re-explore: {warm}"
    );
    assert!(
        !warm.contains(" 0 disk hits"),
        "warm process must report its disk hits: {warm}"
    );
    assert_eq!(
        cost_lines(&cold),
        cost_lines(&warm),
        "persisted answers must be bit-identical"
    );

    // `cache clear` empties the directory, after which the next run is cold
    // again.
    let cleared = run_ok(amos().args(["cache", "clear", "--cache-dir", dir_arg]));
    assert!(cleared.contains("removed "), "{cleared}");
    let stats = run_ok(amos().args(["cache", "stats", "--cache-dir", dir_arg]));
    assert!(stats.contains("entries  : 0"), "{stats}");
    let recold = run_ok(amos().args(["network", "milstm", "--cache-dir", dir_arg]));
    assert!(!recold.contains(" 0 cold misses"), "{recold}");
    assert_eq!(cost_lines(&cold), cost_lines(&recold));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Strips the process-local instrumentation counters (how much work THIS
/// process did, which legitimately differs between a cold explorer and a
/// disk-served one), leaving the answer lines that must be bit-identical.
fn answer_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.starts_with("exploration      :") && !l.starts_with("screening        :"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Two processes racing to explore the same operator into one cache
/// directory: writes are atomic renames, so both must succeed, agree bit
/// for bit, and leave a readable entry that a third process answers from
/// with zero cold explorations.
#[test]
fn concurrent_writers_to_one_cache_dir_both_succeed() {
    let dir = tmp_dir("write-race");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap().to_string();

    let spawn = |dir_arg: &str| {
        amos()
            .args([
                "explore",
                "gmm:128x128x128",
                "--cache-dir",
                dir_arg,
                "--jobs",
                "1",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn amos explore")
    };
    // Start both before waiting on either so their explorations overlap and
    // both reach the L2 publish step for the same fingerprint.
    let a = spawn(&dir_arg);
    let b = spawn(&dir_arg);
    let a = a.wait_with_output().unwrap();
    let b = b.wait_with_output().unwrap();
    for out in [&a, &b] {
        assert!(
            out.status.success(),
            "racing writer failed ({:?}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        answer_lines(&String::from_utf8_lossy(&a.stdout)),
        answer_lines(&String::from_utf8_lossy(&b.stdout)),
        "racing writers must print identical answers"
    );

    // The race left at least one valid entry and no torn files visible to
    // `cache stats` (temp files are dot-prefixed and not counted).
    let stats = run_ok(amos().args(["cache", "stats", "--cache-dir", &dir_arg]));
    assert!(
        !stats.contains("entries  : 0"),
        "the winning write must persist: {stats}"
    );

    // A third process is answered entirely from the raced-on entry.
    let warm = run_ok(amos().args([
        "explore",
        "gmm:128x128x128",
        "--cache-dir",
        &dir_arg,
        "--jobs",
        "1",
    ]));
    assert_eq!(
        answer_lines(&String::from_utf8_lossy(&a.stdout)),
        answer_lines(&warm),
        "disk-served repeat must be bit-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
