//! The `run` subcommand: sets a workload up, gates its outputs, measures it
//! for a fixed time, and reports every metric by name with its unit.

use crate::metrics::{self, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, percentile, quartile_spread, sorted, supported_tail};
use crate::trace::Trace;
use crate::workload::{self, Gate, Layers, Pass, Workload, EXACT_LAYERS, NAMES};
use crate::{probes, sys};
use amos_serve::json::ObjectBuilder;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Set-up is repeated and its median reported, so one slow start does not
/// read as a regression: at least `SETUP_REPS` times, and a set-up shorter
/// than a second until `SETUP_MIN_S` have been spent on it.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 100;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Results file; records are appended.
    pub out: PathBuf,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workload: None,
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            out: sys::bench_dir().join("out/results.jsonl"),
        }
    }
}

/// One reported figure.
struct Figure {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Quartile spread of the per-pass values, when there are any.
    spread: f64,
    /// Whether `BENCHMARK.json` lists it, and so the driver's line has it.
    listed: bool,
}

pub fn run(opts: &Options) -> ExitCode {
    if let Err(why) = sys::guard_environment() {
        eprintln!("refusing to measure: {why}");
        return ExitCode::from(2);
    }
    // A workload runs inside its scratch directory; the results file is
    // named from where the user stands.
    let opts = Options {
        out: std::path::absolute(&opts.out).unwrap_or_else(|_| opts.out.clone()),
        ..opts.clone()
    };
    match &opts.workload {
        Some(name) if NAMES.contains(&name.as_str()) => run_one(name, &opts),
        Some(name) => {
            eprintln!("unknown workload `{name}`; known: {}", NAMES.join(", "));
            ExitCode::from(2)
        }
        None => run_each_in_a_child(&opts),
    }
}

/// Every workload in its own process, so peak memory, the process-wide
/// worker pool and the L1 cache do not leak from one into the next.
fn run_each_in_a_child(opts: &Options) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for name in NAMES {
        let status = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out)
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(name: &str, opts: &Options) -> ExitCode {
    let out_dir = sys::bench_dir().join("out");
    let work = out_dir.join(format!("work-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the scratch directory");
    std::env::set_current_dir(&work).expect("enter the scratch directory");
    let code = measure_and_report(name, opts, &work, &out_dir);
    let _ = std::env::set_current_dir(&out_dir);
    let _ = std::fs::remove_dir_all(&work);
    code
}

/// Sets the workload up several times over; the last instance is the one
/// measured. Returns it with every set-up's seconds.
fn set_up(name: &str, seed: u64, work: &Path) -> (Box<dyn Workload>, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut current: Option<Box<dyn Workload>> = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        // The previous instance goes first: it may hold the socket.
        drop(current.take());
        let started = Instant::now();
        current = workload::setup(name, seed, work);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    (current.expect("workload names were checked"), setup_s)
}

/// Passes until `seconds` have gone by; at least one.
fn measure(w: &mut dyn Workload, trace: &mut Trace, seconds: f64) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let mut pass = w.pass(trace);
        pass.peak_rss_mb = sys::peak_rss_mb();
        passes.push(pass);
        if started.elapsed().as_secs_f64() >= seconds {
            return passes;
        }
    }
}

/// Every timed pass must repeat the reference pass: the winners' cycles
/// bit for bit, and the counts that depend only on the inputs.
fn check_repeats(gate: &mut Gate, reference: &Pass, passes: &[&Pass]) {
    for (i, pass) in passes.iter().enumerate() {
        let same_cycles = pass.cycles.len() == reference.cycles.len()
            && pass
                .cycles
                .iter()
                .zip(&reference.cycles)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        gate.check(same_cycles, || {
            format!("pass {i}: the winners' cycles differ from the reference pass")
        });
        for layer in EXACT_LAYERS {
            gate.check(
                pass.layers.get(layer) == reference.layers.get(layer),
                || {
                    format!(
                        "pass {i}: {layer} is {:?}, the reference pass counted {:?}",
                        pass.layers.get(layer),
                        reference.layers.get(layer)
                    )
                },
            );
        }
    }
}

fn ops_per_s(pass: &Pass) -> f64 {
    pass.ops as f64 / pass.wall_s
}

/// Median over passes of the pass's throughput.
fn throughput(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(ops_per_s).collect::<Vec<_>>())
}

/// The latency samples of all passes pooled, ascending: pooled, so that the
/// tail percentile keeps ten samples beyond it however short a pass is.
fn pooled_latencies(passes: &[Pass]) -> Vec<f64> {
    let mut pooled: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lat_ms.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    pooled
}

/// The end-to-end figures, from the untraced passes only.
fn end_to_end_figures(
    passes: &[Pass],
    pooled: &[f64],
    tail: f64,
    setup_s: &[f64],
    reference: &Pass,
    failed_share: f64,
) -> Vec<Figure> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let answered: usize = passes.iter().map(|p| p.answered).sum();
    let values: [(&str, f64, Vec<f64>); 7] = [
        ("setup_s", median(setup_s), setup_s.to_vec()),
        ("ops_per_s", throughput(passes), per_pass(&ops_per_s)),
        (
            "lat_p50_ms",
            percentile(pooled, 0.5),
            per_pass(&|p| percentile(&sorted(&p.lat_ms), 0.5)),
        ),
        (
            "lat_tail_ms",
            percentile(pooled, tail),
            per_pass(&|p| percentile(&sorted(&p.lat_ms), tail)),
        ),
        (
            "cpu_ms_per_op",
            passes.iter().map(|p| p.cpu_ms).sum::<f64>() / answered as f64,
            per_pass(&|p| p.cpu_ms / p.answered as f64),
        ),
        // Read when the first timed pass ends: how many more passes a run
        // fits in must not show, and `serve_mixed` grows by a MiB with
        // every daemon it restarts in this process.
        (
            "peak_rss_mb",
            passes[0].peak_rss_mb,
            per_pass(&|p| p.peak_rss_mb),
        ),
        (
            "best_cycles_geomean",
            amos_baselines::geomean(&reference.cycles),
            Vec::new(),
        ),
    ];
    let mut figures: Vec<Figure> = values
        .into_iter()
        .map(|(name, value, series)| {
            let m = metrics::end_to_end(name).expect("an end-to-end metric of the table");
            Figure {
                name: m.name,
                unit: m.unit,
                value,
                spread: quartile_spread(&series),
                listed: true,
            }
        })
        .collect();
    figures.push(Figure {
        name: "failed_share",
        unit: "ratio",
        value: failed_share,
        spread: 0.0,
        listed: false,
    });
    figures
}

/// The per-layer figures: the traced passes' own layers, what the spans
/// add, the probes, and the layer runs. A layer this workload never enters
/// reads 0.
fn per_layer_figures(
    w: &mut dyn Workload,
    passes: &[Pass],
    traced: &[Pass],
    trace: &Trace,
) -> Vec<Figure> {
    let mut layers = Layers::new();
    for m in PER_LAYER {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.layers.get(m.name).copied())
            .collect();
        if !values.is_empty() {
            layers.insert(m.name, median(&values));
        }
    }
    let stages: f64 = [
        "core.engine.analyze_s",
        "core.engine.generate_s",
        "core.engine.lower_s",
        "core.engine.explore_s",
        "core.engine.emit_s",
    ]
    .iter()
    .filter_map(|stage| layers.get(stage))
    .sum();
    let oneshot_wall_s = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    if stages > 0.0 {
        layers.insert("core.engine.staged_vs_oneshot", stages / oneshot_wall_s);
    }
    if let (Some(measured), Some(screened)) = (
        layers.get("core.explore.measurements"),
        layers.get("core.explore.screened"),
    ) {
        layers.insert("core.explore.measured_per_screened", measured / screened);
    }
    for (layer, span, scale) in [
        ("core.disk.l2_hit_us", "core.disk.l2_hit", 1e3),
        (
            "baselines.network.evaluate_ms",
            "baselines.network.evaluate",
            1.0,
        ),
    ] {
        let durations = trace.durations_ms(span);
        if !durations.is_empty() {
            layers.insert(layer, median(&durations) * scale);
        }
    }
    if let Some(stats) = w
        .cache_dir()
        .and_then(|d| amos_core::cache_dir_stats(d).ok())
    {
        layers.insert("core.disk.entries", stats.entries as f64);
        layers.insert("core.disk.bytes", stats.bytes as f64);
    }
    let untraced = throughput(passes);
    layers.insert(
        "trace.overhead_share",
        (untraced - throughput(traced)) / untraced,
    );
    probes::run(&mut layers);
    w.layer_runs(oneshot_wall_s, &mut layers);
    PER_LAYER
        .iter()
        .map(|m| Figure {
            name: m.name,
            unit: m.unit,
            value: layers.get(m.name).copied().unwrap_or(0.0),
            spread: 0.0,
            listed: m.listed,
        })
        .collect()
}

fn measure_and_report(name: &str, opts: &Options, work: &Path, out_dir: &Path) -> ExitCode {
    let (mut w, setup_s) = set_up(name, opts.seed, work);

    // The gate, outside every timed section. Its pass is the reference the
    // timed passes must repeat, and doubles as the warm-up.
    let mut gate = Gate::default();
    workload::check_functional(&mut gate, opts.seed);
    let reference = w.gate(&mut gate);

    // A traced run spends half its time untraced: the end-to-end figures
    // and the base of the tracing overhead.
    let share = if opts.trace { 0.5 } else { 1.0 };
    let passes = measure(
        w.as_mut(),
        &mut Trace::new(false, Instant::now()),
        opts.seconds * share,
    );
    let mut trace = Trace::new(opts.trace, Instant::now());
    let traced = if opts.trace {
        measure(w.as_mut(), &mut trace, opts.seconds * share)
    } else {
        Vec::new()
    };
    let timed: Vec<&Pass> = passes.iter().chain(&traced).collect();
    check_repeats(&mut gate, &reference, &timed);

    let attempted =
        gate.checks + reference.attempted + timed.iter().map(|p| p.attempted).sum::<usize>();
    let failed =
        gate.mismatches.len() + reference.failed + timed.iter().map(|p| p.failed).sum::<usize>();
    let tail = w.tail();
    let pooled = pooled_latencies(&passes);
    if pooled.is_empty() || reference.cycles.is_empty() {
        eprintln!("no operation was answered");
        for m in &gate.mismatches {
            eprintln!("MISMATCH {m}");
        }
        return ExitCode::FAILURE;
    }
    if supported_tail(pooled.len()).is_none_or(|supported| supported < tail) {
        eprintln!(
            "note: {} latency samples leave fewer than ten beyond p{}",
            pooled.len(),
            tail * 100.0
        );
    }
    let end_to_end = end_to_end_figures(
        &passes,
        &pooled,
        tail,
        &setup_s,
        &reference,
        failed as f64 / attempted as f64,
    );
    let per_layer = if opts.trace {
        let trace_path = out_dir.join(format!("trace-{name}.jsonl"));
        if let Err(e) = trace.write_jsonl(&trace_path) {
            eprintln!("cannot write {}: {e}", trace_path.display());
        }
        per_layer_figures(w.as_mut(), &passes, &traced, &trace)
    } else {
        Vec::new()
    };
    drop(w);

    // The report: every metric by name with its unit, then the records,
    // then the one line the driver reads.
    println!(
        "workload {name}  seed {}  {} untraced + {} traced passes  p{} tail over {} samples  {} gate checks",
        opts.seed,
        passes.len(),
        traced.len(),
        tail * 100.0,
        pooled.len(),
        gate.checks
    );
    for f in end_to_end.iter().chain(&per_layer) {
        println!(
            "  {:<40} {:>16.6} {:<7} spread {:.2}%",
            f.name,
            f.value,
            f.unit,
            f.spread * 100.0
        );
    }
    for m in &gate.mismatches {
        println!("MISMATCH {m}");
    }
    let header = ObjectBuilder::new()
        .str("record", "header")
        .str("workload", name)
        .u64("seed", opts.seed)
        .str("git_rev", &sys::git_rev())
        .u64("nproc", sys::nproc() as u64)
        .str("simd", sys::simd_tier())
        .str("rustc", &sys::rustc_version())
        .f64("seconds", opts.seconds)
        .bool("trace", opts.trace)
        .u64("setup_reps", setup_s.len() as u64)
        .u64("passes", passes.len() as u64)
        .f64("tail_percentile", tail)
        .f64("rate_per_s", workload::serve::RATE_PER_S)
        .finish();
    if let Err(e) = append_records(name, opts, header, &end_to_end, &per_layer) {
        eprintln!("cannot write {}: {e}", opts.out.display());
    }
    let reported = if opts.trace { &per_layer } else { &end_to_end };
    let metrics: Vec<String> = reported
        .iter()
        .filter(|f| f.listed)
        .map(|f| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                f.name, f.value, f.unit
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Appends the header record and one record per figure, each a flat JSON
/// object on its own line, so `compare` reads them with the wire codec.
fn append_records(
    name: &str,
    opts: &Options,
    header: String,
    end_to_end: &[Figure],
    per_layer: &[Figure],
) -> std::io::Result<()> {
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&opts.out)?;
    writeln!(out, "{header}")?;
    for (kind, figures) in [("end_to_end", end_to_end), ("per_layer", per_layer)] {
        for f in figures {
            let record = ObjectBuilder::new()
                .str("record", "metric")
                .str("kind", kind)
                .str("workload", name)
                .u64("seed", opts.seed)
                .str("name", f.name)
                .f64("value", f.value)
                .str("unit", f.unit)
                .f64("spread", f.spread)
                .finish();
            writeln!(out, "{record}")?;
        }
    }
    Ok(())
}
