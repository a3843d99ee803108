//! # amos-cli — command-line interface to the AMOS-rs mapping framework
//!
//! ```text
//! amos ops                        list operator families and example specs
//! amos accels                     list accelerators in the catalog
//! amos mappings <op> [--accel A]  enumerate valid mappings of an operator
//! amos explore  <op> [--accel A]  explore mappings x schedules, report best
//! amos ir       <op> [--accel A]  print the generated Compute/Memory IR
//! amos cuda     <op> [--accel A]  print CUDA-like source for the winner
//! amos table6   [--accel A]       reproduce the Table 6 mapping counts
//! amos network  <name> [--accel A] [--batch N]
//!                                 end-to-end network cost under AMOS vs PyTorch
//! amos cache    <stats|clear> --cache-dir DIR
//!                                 inspect or empty a persistent cache directory
//! amos accel lint FILE...         validate accelerator/ISA data files
//! amos accel show <name|file>     describe one machine in human terms
//! amos accel export <name> [--out FILE]
//! amos accel export --all --out DIR
//!                                 write machines as loadable data files
//! amos accel derive <isa-file> [--out FILE]
//!                                 run the §4.1 derivation pass on a primitive
//!                                 ISA description, print the accelerator file
//! amos serve  --socket PATH [--workers N] [--queue N] [--grace-ms N]
//!                                 run amosd, the compilation service
//! amos submit <spec|ping|stats|drain> --socket PATH [--deadline-ms N]
//!                                 send one request to a running amosd
//! ```
//!
//! Operator specs are `family:dims`, e.g. `gmm:512x512x256`,
//! `gmv:1024x1024`, `c2d:n16,c64,k64,p56,q56,r3,s3,st1`, `dep:c128,p28,r3`,
//! `c3d:n2,c8,k8,d6,p6,q6`.
//!
//! `--jobs N` sets the explorer's worker-thread count (0 or omitted: one per
//! CPU). Results are bit-identical for every value — only wall clock changes.
//! `--list-accels` prints the registered accelerator names and exits.
//!
//! `--accel-dir DIR` layers every `*.toml` accelerator (or primitive ISA)
//! data file in `DIR` over the built-in catalog before any verb runs: a file
//! defining a built-in name replaces it, new names append, and every verb —
//! `explore`, `network`, `--list-accels`, … — sees the merged registry. A
//! malformed file fails the whole invocation with a `file:line: message`
//! diagnostic.
//!
//! `--cache-dir DIR` puts an on-disk tier behind the exploration cache:
//! finished explorations are persisted there and later processes answer the
//! same workloads from disk instead of re-exploring. Entries are re-validated
//! on load and keyed by a code-version salt, so a stale or corrupted
//! directory can only cost time, never change an answer. `amos cache stats`
//! and `amos cache clear` inspect and empty such a directory; the `stale`
//! line of `stats` counts the entries another version left behind, which
//! nothing but `clear` reclaims.
//!
//! `--deadline-ms N`, `--max-measurements N` and `--max-evaluations N`
//! bound the exploration the `explore`/`ir`/`cuda` commands run
//! (wall-clock milliseconds, ground-truth timing simulations, and screened
//! candidate evaluations, respectively). A run that hits a limit — or that
//! quarantined panicking candidates — still prints its best-so-far
//! mapping, reports the completion state, and exits with status 3 instead
//! of 0 so scripts can tell a truncated answer from a complete one
//! (usage and compilation errors stay exit status 2). Ctrl-C takes the
//! same path: long `explore`/`network` runs route SIGINT through the
//! cooperative cancel token, print the best-so-far report with a
//! `cancelled` completion, and exit 3 instead of dying mid-search.
//! `--generations N` overrides the search depth of `explore` (and the
//! base depth of `serve`).
//!
//! A malformed `AMOS_JOBS` environment value (anything but a positive
//! integer) is rejected up front as a usage error — never silently
//! ignored.
//!
//! Unknown flags and trailing arguments are rejected. All compilation runs
//! through the shared [`amos_core::Engine`]; failures surface as
//! [`amos_core::AmosError`] messages carrying stage, operator and
//! accelerator context.

#![warn(missing_docs)]

use amos_core::{
    load_registry, AmosError, Budget, CacheConfig, CancelToken, Completion, Engine, ExplorerConfig,
    MappingGenerator,
};
use amos_hw::desc::{AcceleratorDesc, IterDesc, MemoryDesc, OperandDesc};
use amos_hw::{AcceleratorSpec, Registry, SourceKind};
use amos_ir::{ComputeDef, OpKind};
use amos_workloads::ops;
use std::fmt;
use std::path::{Path, PathBuf};

/// CLI usage / parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// How a successful CLI invocation ended, for the process exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The command ran to completion; exit status 0.
    Complete,
    /// The command produced a usable answer, but the underlying exploration
    /// was truncated by a [`Budget`] limit or degraded by quarantined
    /// candidates; exit status 3.
    Degraded,
}

impl RunStatus {
    fn from_completion(completion: Completion) -> Self {
        if completion.is_finished() {
            RunStatus::Complete
        } else {
            RunStatus::Degraded
        }
    }
}

/// CLI usage errors join the unified [`AmosError`] hierarchy as usage
/// failures, so callers embedding the CLI can handle one error type.
impl From<CliError> for AmosError {
    fn from(e: CliError) -> Self {
        AmosError::usage(e.0)
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Ctrl-C plumbing for the binary: SIGINT raises a process-wide flag from
/// the (async-signal-safe) handler, and a watcher thread turns the flag
/// into a cooperative [`CancelToken`] cancellation — the exploration stops
/// at its next generation boundary with its best-so-far answer instead of
/// the process dying mid-search.
pub mod sigint {
    use amos_core::CancelToken;
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        // The only thing safe (and needed) in a signal handler: one store.
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;

    /// Installs the SIGINT handler and returns the token it cancels.
    /// Call once from `main`; the watcher thread is detached and dies with
    /// the process.
    pub fn install() -> CancelToken {
        let token = CancelToken::new();
        // SAFETY: `on_sigint` only performs an atomic store, which is
        // async-signal-safe; replacing the default SIGINT disposition is
        // the entire point.
        unsafe {
            signal(
                SIGINT,
                on_sigint as extern "C" fn(i32) as *const () as usize,
            );
        }
        let watched = token.clone();
        std::thread::spawn(move || loop {
            if INTERRUPTED.load(Ordering::SeqCst) {
                watched.cancel();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
        token
    }
}

/// Parses an accelerator name through the built-in [`Registry`]. The CLI
/// itself resolves through the `--accel-dir`-aware merged registry; this
/// stays as the catalog-only entry point for embedders.
pub fn parse_accelerator(name: &str) -> Result<AcceleratorSpec, CliError> {
    resolve_accelerator(&Registry::builtin(), name)
}

/// Builds `name` from a (possibly file-extended) registry, with the known
/// names listed on failure.
fn resolve_accelerator(registry: &Registry, name: &str) -> Result<AcceleratorSpec, CliError> {
    registry.build(name).ok_or_else(|| {
        err(format!(
            "unknown accelerator `{name}`; known: {}",
            registry.names().join(", ")
        ))
    })
}

/// Parses an operator spec (`family:dims`) into a computation. The grammar
/// lives in [`amos_workloads::spec`] so `amosd` accepts the same specs over
/// the wire.
pub fn parse_op(spec: &str) -> Result<ComputeDef, CliError> {
    amos_workloads::spec::parse_spec(spec).map_err(err)
}

/// Simple flag extraction: removes `--flag value` pairs from the arg list.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(err(format!("{flag} needs a value")));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Removes a boolean `--flag` (one that takes no value) from the arg list,
/// returning whether it was present.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// `take_flag` + parse, with a uniform `bad --flag` error.
fn take_parsed_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, CliError> {
    take_flag(args, flag)?
        .map(|s| s.parse::<T>().map_err(|_| err(format!("bad {flag}"))))
        .transpose()
}

/// Rejects anything left over once the command and its positional arguments
/// have been consumed: an unconsumed `--...` is an unknown flag, anything
/// else is a trailing argument.
fn reject_extras(args: &[String], consumed: usize) -> Result<(), CliError> {
    match args.get(consumed) {
        Some(a) if a.starts_with("--") => Err(err(format!("unknown flag `{a}`"))),
        Some(a) => Err(err(format!("unexpected argument `{a}`"))),
        None => Ok(()),
    }
}

/// The small exploration budget the `ir`/`cuda` codegen commands use.
fn codegen_budget(seed: u64, jobs: usize, budget: Budget) -> ExplorerConfig {
    let mut config = ExplorerConfig {
        population: 16,
        generations: 3,
        survivors: 4,
        measure_top: 3,
        seed,
        jobs,
        ..Default::default()
    };
    config.budget = budget;
    config
}

/// Formats one operand access (`C[i1, i2 + r1]`) against its intrinsic's
/// iteration list.
fn operand_string(o: &OperandDesc, iters: &[IterDesc]) -> String {
    if o.index.is_empty() {
        return o.name.clone();
    }
    let dims: Vec<String> = o
        .index
        .iter()
        .map(|terms| {
            terms
                .iter()
                .map(|&t| iters[t].name.clone())
                .collect::<Vec<_>>()
                .join(" + ")
        })
        .collect();
    format!("{}[{}]", o.name, dims.join(", "))
}

/// Renders one machine description as a human-readable summary (the
/// `accel show` output).
fn describe(desc: &AcceleratorDesc) -> String {
    let mut s = String::new();
    s.push_str(&format!("name       : {}\n", desc.name));
    s.push_str(&format!("clock      : {} GHz\n", desc.clock_ghz));
    s.push_str(&format!(
        "scalar ops : {} per core cycle\n",
        desc.scalar_ops_per_core_cycle
    ));
    s.push_str(&format!(
        "pe arrays  : {}\n",
        desc.build().total_pe_arrays()
    ));
    s.push_str("levels (innermost first):\n");
    for (i, l) in desc.levels.iter().enumerate() {
        s.push_str(&format!(
            "  [{i}] {:<14} x{:<5} {} B capacity, {} B/cycle\n",
            l.name, l.inner_units, l.capacity_bytes, l.bytes_per_cycle
        ));
    }
    s.push_str("intrinsics:\n");
    for intr in &desc.intrinsics {
        let op = match intr.op {
            OpKind::MulAcc => "mul-acc",
            OpKind::AddAcc => "add-acc",
            OpKind::MaxAcc => "max-acc",
        };
        let memory = match &intr.memory {
            MemoryDesc::Fragment { load, store } => {
                format!("fragment (load {load}, store {store})")
            }
            MemoryDesc::Implicit => "implicit".to_string(),
        };
        s.push_str(&format!(
            "  {} ({op}) latency {}, ii {}, {} -> {}, memory {memory}\n",
            intr.name, intr.latency, intr.initiation_interval, intr.src_dtype, intr.acc_dtype
        ));
        let iters: Vec<String> = intr
            .iters
            .iter()
            .map(|it| format!("{} {} {}", it.name, it.kind, it.extent))
            .collect();
        s.push_str(&format!("    iters  : {}\n", iters.join(", ")));
        let srcs: Vec<String> = intr
            .srcs
            .iter()
            .map(|o| operand_string(o, &intr.iters))
            .collect();
        s.push_str(&format!(
            "    compute: {} <- {op}({})\n",
            operand_string(&intr.dst, &intr.iters),
            srcs.join(", ")
        ));
    }
    s
}

/// `name-or-file` resolution for `accel show`: an existing file path is
/// loaded (primitive ISA files run through the derivation pass); anything
/// else is looked up in the registry.
fn load_target(registry: &Registry, target: &str) -> Result<AcceleratorDesc, CliError> {
    let path = Path::new(target);
    if path.is_file() {
        let (desc, _) = amos_hw::text::load_path(path).map_err(|e| err(e.to_string()))?;
        Ok(desc)
    } else {
        registry.get(target).cloned().ok_or_else(|| {
            err(format!(
                "no accelerator named `{target}` and no such file; known: {}",
                registry.names().join(", ")
            ))
        })
    }
}

/// The `amos accel <lint|show|export|derive>` verb — authoring tools for
/// accelerator data files.
fn run_accel(
    args: &mut Vec<String>,
    registry: &Registry,
    out: &mut impl std::io::Write,
) -> Result<RunStatus, CliError> {
    let io = |e: std::io::Error| err(format!("io error: {e}"));
    let verb = args
        .get(1)
        .ok_or_else(|| err("accel needs a verb: lint, show, export or derive"))?
        .clone();
    match verb.as_str() {
        "lint" => {
            let files = &args[2..];
            if files.is_empty() {
                return Err(err("accel lint needs one or more data files"));
            }
            if let Some(flag) = files.iter().find(|f| f.starts_with("--")) {
                return Err(err(format!("unknown flag `{flag}`")));
            }
            let mut failures = 0usize;
            for file in files {
                match amos_hw::text::load_path(Path::new(file)) {
                    Ok((desc, kind)) => {
                        let kind = match kind {
                            SourceKind::Accelerator => "accelerator",
                            SourceKind::Isa => "isa, derivation ok",
                        };
                        writeln!(out, "OK   {file} ({}; {kind})", desc.name).map_err(io)?;
                    }
                    Err(e) => {
                        failures += 1;
                        writeln!(out, "FAIL {e}").map_err(io)?;
                    }
                }
            }
            if failures > 0 {
                Err(err(format!(
                    "{failures} of {} files failed lint",
                    files.len()
                )))
            } else {
                Ok(RunStatus::Complete)
            }
        }
        "show" => {
            let target = args
                .get(2)
                .ok_or_else(|| err("accel show needs an accelerator name or a data file"))?
                .clone();
            reject_extras(args, 3)?;
            let desc = load_target(registry, &target)?;
            write!(out, "{}", describe(&desc)).map_err(io)?;
            Ok(RunStatus::Complete)
        }
        "export" => {
            let out_path = take_flag(args, "--out")?;
            if take_switch(args, "--all") {
                let dir = PathBuf::from(
                    out_path.ok_or_else(|| err("accel export --all needs --out DIR"))?,
                );
                reject_extras(args, 2)?;
                std::fs::create_dir_all(&dir).map_err(io)?;
                for desc in registry.descs() {
                    std::fs::write(dir.join(format!("{}.toml", desc.name)), desc.to_text())
                        .map_err(io)?;
                }
                writeln!(
                    out,
                    "wrote {} machines to {}",
                    registry.len(),
                    dir.display()
                )
                .map_err(io)?;
            } else {
                let name = args.get(2).ok_or_else(|| {
                    err("accel export needs an accelerator name (or --all --out DIR)")
                })?;
                reject_extras(args, 3)?;
                let desc = registry.get(name).ok_or_else(|| {
                    err(format!(
                        "unknown accelerator `{name}`; known: {}",
                        registry.names().join(", ")
                    ))
                })?;
                match out_path {
                    Some(path) => {
                        std::fs::write(&path, desc.to_text()).map_err(io)?;
                        writeln!(out, "wrote {path}").map_err(io)?;
                    }
                    None => write!(out, "{}", desc.to_text()).map_err(io)?,
                }
            }
            Ok(RunStatus::Complete)
        }
        "derive" => {
            let out_path = take_flag(args, "--out")?;
            let file = args
                .get(2)
                .ok_or_else(|| err("accel derive needs a primitive ISA data file"))?
                .clone();
            reject_extras(args, 3)?;
            let (desc, kind) =
                amos_hw::text::load_path(Path::new(&file)).map_err(|e| err(e.to_string()))?;
            if kind != SourceKind::Isa {
                return Err(err(format!(
                    "{file} is already a full accelerator description (kind = \"accelerator\"); \
                     derive expects kind = \"isa\""
                )));
            }
            let text = desc.to_text();
            match out_path {
                Some(path) => {
                    std::fs::write(&path, text).map_err(io)?;
                    writeln!(out, "wrote {path}").map_err(io)?;
                }
                None => write!(out, "{text}").map_err(io)?,
            }
            Ok(RunStatus::Complete)
        }
        other => Err(err(format!(
            "unknown accel verb `{other}`; known: lint, show, export, derive"
        ))),
    }
}

/// Runs the CLI with the given arguments (without the program name),
/// writing output to `out`. Returns an error message for usage problems;
/// on success reports whether the answer is complete or a best-so-far
/// from a truncated/degraded exploration (see [`RunStatus`]).
pub fn run(args: &[String], out: &mut impl std::io::Write) -> Result<RunStatus, CliError> {
    run_with_cancel(args, out, None)
}

/// [`run`] with a cooperative cancellation token (the binary passes the
/// [`sigint`] token so Ctrl-C degrades long explorations instead of
/// killing them).
pub fn run_with_cancel(
    args: &[String],
    out: &mut impl std::io::Write,
    cancel: Option<CancelToken>,
) -> Result<RunStatus, CliError> {
    // A malformed AMOS_JOBS is rejected before any verb runs — a silent
    // fallback here would quietly change wall-clock behavior on every
    // machine with a typo in its environment.
    amos_core::amos_jobs_override().map_err(err)?;
    let mut args: Vec<String> = args.to_vec();
    let accel_flag = take_flag(&mut args, "--accel")?;
    let accel_name = accel_flag.clone().unwrap_or_else(|| "v100".to_string());
    // Accelerator data files layered over the built-in catalog; every verb
    // resolves machine names against the merged registry.
    let accel_dir: Option<PathBuf> = take_flag(&mut args, "--accel-dir")?.map(PathBuf::from);
    let registry = load_registry(accel_dir.as_deref()).map_err(|e| err(e.to_string()))?;
    let seed_flag: Option<u64> = take_parsed_flag(&mut args, "--seed")?;
    let seed: u64 = seed_flag.unwrap_or(2022);
    let batch: i64 = take_parsed_flag(&mut args, "--batch")?.unwrap_or(1);
    // Worker threads for exploration; 0 (the default) means one per CPU.
    // The result is bit-identical for every value — only wall clock changes.
    let jobs: usize = take_parsed_flag(&mut args, "--jobs")?.unwrap_or(0);
    // Search depth override for `explore` and the `serve` base config.
    let generations: Option<usize> = take_parsed_flag(&mut args, "--generations")?;
    // Optional on-disk cache tier: explorations are persisted here and
    // re-validated on load, so reruns skip straight to the answer.
    let cache_dir: Option<PathBuf> = take_flag(&mut args, "--cache-dir")?.map(PathBuf::from);
    let cache_config = CacheConfig {
        cache_dir: cache_dir.clone(),
    };
    // Exploration limits: the run stops cooperatively at the next generation
    // boundary, keeps its best-so-far, and exits with status 3 (degraded).
    let budget = Budget {
        deadline_ms: take_parsed_flag(&mut args, "--deadline-ms")?,
        max_measurements: take_parsed_flag(&mut args, "--max-measurements")?,
        max_evaluations: take_parsed_flag(&mut args, "--max-evaluations")?,
    };

    let io = |e: std::io::Error| err(format!("io error: {e}"));
    if take_switch(&mut args, "--list-accels") {
        reject_extras(&args, 0)?;
        for name in registry.names() {
            writeln!(out, "{name}").map_err(io)?;
        }
        return Ok(RunStatus::Complete);
    }
    match args.first().map(String::as_str) {
        Some("ops") => {
            reject_extras(&args, 1)?;
            writeln!(out, "operator families (paper §7.3):").map_err(io)?;
            for (def, name) in ops::representative_ops().iter().zip(ops::OPERATOR_NAMES) {
                writeln!(out, "  {:<4} {}", name, def.statement_string()).map_err(io)?;
            }
            writeln!(out, "\nspec examples: gmm:512x512x256, gmv:1024x1024,").map_err(io)?;
            writeln!(out, "  c2d:n16,c64,k64,p56,q56,r3,s3,st1  dep:c128,p28,r3").map_err(io)?;
            Ok(RunStatus::Complete)
        }
        Some("accels") => {
            reject_extras(&args, 1)?;
            for a in registry.build_all() {
                writeln!(
                    out,
                    "{:<14} intrinsic {:<22} {} PE arrays",
                    a.name,
                    a.intrinsic.name,
                    a.total_pe_arrays()
                )
                .map_err(io)?;
            }
            Ok(RunStatus::Complete)
        }
        Some("mappings") => {
            let spec = args.get(1).ok_or_else(|| err("mappings needs an operator spec"))?;
            reject_extras(&args, 2)?;
            let def = parse_op(spec)?;
            let accel = resolve_accelerator(&registry, &accel_name)?;
            let mappings = MappingGenerator::new().enumerate(&def, &accel.intrinsic);
            writeln!(
                out,
                "{} valid mappings of `{}` onto {}:",
                mappings.len(),
                def.name(),
                accel.intrinsic.name
            )
            .map_err(io)?;
            for m in &mappings {
                writeln!(out, "  {}", m.describe(&def, &accel.intrinsic)).map_err(io)?;
            }
            Ok(RunStatus::Complete)
        }
        Some("explore") => {
            let spec = args.get(1).ok_or_else(|| err("explore needs an operator spec"))?;
            reject_extras(&args, 2)?;
            let def = parse_op(spec)?;
            let engine = Engine::with_cache(
                ExplorerConfig {
                    seed,
                    jobs,
                    budget,
                    generations: generations.unwrap_or(ExplorerConfig::default().generations),
                    cancel: cancel.clone(),
                    ..ExplorerConfig::default()
                },
                cache_config,
            )
            .with_registry(registry);
            let accel = engine
                .accelerator(&accel_name)
                .map_err(|e| err(e.to_string()))?;
            let result = engine
                .explore_op(&def, &accel)
                .map_err(|e| err(e.to_string()))?;
            writeln!(out, "software   : {def}").map_err(io)?;
            writeln!(out, "accelerator: {}", accel.name).map_err(io)?;
            writeln!(out, "best       : [i1, i2, r1]-style {}", result.best_program.mapping_string())
                .map_err(io)?;
            let mut report = amos_core::MappingReport::from_result(&result, &accel);
            // Run the winner through the functional simulator when the
            // domain is small enough to finish instantly, so the report can
            // show the compiled hot-path counters.
            if def.domain_size() <= 1 << 22 {
                let tensors = amos_ir::interp::make_inputs(&def, seed);
                if let Ok((_, stats)) =
                    amos_sim::execute_mapped_with_stats(&result.best_program, &tensors)
                {
                    report = report.with_exec_stats(stats);
                }
            }
            writeln!(out, "{report}").map_err(io)?;
            Ok(RunStatus::from_completion(result.completion))
        }
        Some("ir") => {
            let spec = args.get(1).ok_or_else(|| err("ir needs an operator spec"))?;
            reject_extras(&args, 2)?;
            let def = parse_op(spec)?;
            let engine = Engine::with_cache(codegen_budget(seed, jobs, budget), cache_config)
                .with_registry(registry);
            let accel = engine
                .accelerator(&accel_name)
                .map_err(|e| err(e.to_string()))?;
            let explored = engine
                .compile(&def, &accel)
                .map_err(|e| err(e.to_string()))?;
            let status = RunStatus::from_completion(explored.result().completion);
            let artifact = engine.emit(&explored);
            write!(out, "{}", amos_ir::nodes::render_program(&artifact.ir)).map_err(io)?;
            Ok(status)
        }
        Some("cuda") => {
            let spec = args.get(1).ok_or_else(|| err("cuda needs an operator spec"))?;
            reject_extras(&args, 2)?;
            let def = parse_op(spec)?;
            let engine = Engine::with_cache(codegen_budget(seed, jobs, budget), cache_config)
                .with_registry(registry);
            let accel = engine
                .accelerator(&accel_name)
                .map_err(|e| err(e.to_string()))?;
            let explored = engine
                .compile(&def, &accel)
                .map_err(|e| err(e.to_string()))?;
            let status = RunStatus::from_completion(explored.result().completion);
            write!(out, "{}", engine.emit(&explored).cuda).map_err(io)?;
            Ok(status)
        }
        Some("network") => {
            let name = args
                .get(1)
                .ok_or_else(|| err("network needs a name (shufflenet, resnet18, resnet50, mobilenet, bert, milstm)"))?;
            let net = match name.to_lowercase().as_str() {
                "shufflenet" => amos_workloads::networks::shufflenet(),
                "resnet18" => amos_workloads::networks::resnet18(),
                "resnet50" => amos_workloads::networks::resnet50(),
                "mobilenet" => amos_workloads::networks::mobilenet_v1(),
                "bert" => amos_workloads::networks::bert_base(),
                "milstm" => amos_workloads::networks::mi_lstm(),
                other => return Err(err(format!("unknown network `{other}`"))),
            };
            reject_extras(&args, 2)?;
            let engine = Engine::with_cache(
                ExplorerConfig {
                    cancel: cancel.clone(),
                    ..ExplorerConfig::default()
                },
                cache_config,
            )
            .with_registry(registry);
            let accel = engine
                .accelerator(&accel_name)
                .map_err(|e| err(e.to_string()))?;
            let mut ev = amos_baselines::NetworkEvaluator::with_engine(engine)
                .with_jobs(jobs);
            let amos = ev.evaluate(amos_baselines::System::Amos, &net, batch, &accel);
            let torch = ev.evaluate(amos_baselines::System::PyTorch, &net, batch, &accel);
            writeln!(out, "{} on {} (batch {batch}):", net.name, accel.name).map_err(io)?;
            writeln!(
                out,
                "  AMOS   : {:>12.0} cycles, {}/{} ops on the tensor unit",
                amos.total_cycles, amos.mapped_ops, amos.total_ops
            )
            .map_err(io)?;
            writeln!(
                out,
                "  PyTorch: {:>12.0} cycles, {}/{} ops on the tensor unit",
                torch.total_cycles, torch.mapped_ops, torch.total_ops
            )
            .map_err(io)?;
            writeln!(
                out,
                "  speedup: {:.2}x",
                torch.total_cycles / amos.total_cycles
            )
            .map_err(io)?;
            let stats = ev.cache_stats();
            writeln!(
                out,
                "  explorations cached: {} exact hits, {} disk hits, {} cold misses (distinct layer shapes)",
                stats.hits, stats.l2_hits, stats.misses
            )
            .map_err(io)?;
            writeln!(
                out,
                "  infeasible candidates: {} simulation failures during AMOS exploration",
                amos.sim_failures
            )
            .map_err(io)?;
            if cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                writeln!(
                    out,
                    "  completion: cancelled — interrupted layers report their best-so-far mapping"
                )
                .map_err(io)?;
                return Ok(RunStatus::Degraded);
            }
            Ok(RunStatus::Complete)
        }
        Some("cache") => {
            let verb = args
                .get(1)
                .ok_or_else(|| err("cache needs a verb: stats or clear"))?
                .clone();
            reject_extras(&args, 2)?;
            let dir = cache_dir
                .ok_or_else(|| err("cache needs --cache-dir DIR (the directory to inspect)"))?;
            match verb.as_str() {
                "stats" => {
                    let stats =
                        amos_core::cache_dir_stats(&dir).map_err(|e| err(e.to_string()))?;
                    writeln!(out, "cache dir: {}", dir.display()).map_err(io)?;
                    writeln!(out, "salt     : {}", amos_core::cache_salt()).map_err(io)?;
                    writeln!(out, "entries  : {}", stats.entries).map_err(io)?;
                    writeln!(out, "bytes    : {}", stats.bytes).map_err(io)?;
                    writeln!(out, "stale    : {}", stats.stale).map_err(io)?;
                }
                "clear" => {
                    let removed =
                        amos_core::clear_cache_dir(&dir).map_err(|e| err(e.to_string()))?;
                    writeln!(out, "removed {removed} entries from {}", dir.display())
                        .map_err(io)?;
                }
                other => return Err(err(format!("unknown cache verb `{other}`; known: stats, clear"))),
            }
            Ok(RunStatus::Complete)
        }
        Some("pool") => {
            // Observability for the process-wide persistent worker pool.
            // Deliberately a separate verb: `network`/`explore` output must
            // stay byte-identical at any --jobs, and these counters are not.
            reject_extras(&args, 1)?;
            let stats = amos_core::pool_stats();
            writeln!(out, "worker pool (process-wide, cumulative):").map_err(io)?;
            writeln!(out, "  threads : {}", stats.threads).map_err(io)?;
            writeln!(out, "  waves   : {}", stats.waves).map_err(io)?;
            writeln!(out, "  tasks   : {}", stats.tasks).map_err(io)?;
            writeln!(out, "  chunks  : {}", stats.chunks).map_err(io)?;
            Ok(RunStatus::Complete)
        }
        Some("serve") => {
            let socket = take_flag(&mut args, "--socket")?
                .ok_or_else(|| err("serve needs --socket PATH"))?;
            let workers: usize = take_parsed_flag(&mut args, "--workers")?.unwrap_or(2);
            let queue: usize =
                take_parsed_flag(&mut args, "--queue")?.unwrap_or(2 * workers.max(1));
            let grace_ms: u64 = take_parsed_flag(&mut args, "--grace-ms")?.unwrap_or(2_000);
            let default_deadline_ms: u64 =
                take_parsed_flag(&mut args, "--default-deadline-ms")?.unwrap_or(10_000);
            let retry_after_ms: u64 =
                take_parsed_flag(&mut args, "--retry-after-ms")?.unwrap_or(200);
            reject_extras(&args, 1)?;
            let mut config = amos_serve::ServeConfig::new(&socket);
            config.workers = workers;
            config.queue = queue;
            config.grace_ms = grace_ms;
            config.default_deadline_ms = default_deadline_ms;
            config.retry_after_ms = retry_after_ms;
            config.default_accel = accel_name.clone();
            config.seed = seed;
            config.base = ExplorerConfig {
                seed,
                jobs,
                generations: generations.unwrap_or(ExplorerConfig::default().generations),
                ..ExplorerConfig::default()
            };
            config.cache_dir = cache_dir.clone();
            config.accel_dir = accel_dir.clone();
            let server = amos_serve::Server::bind(config).map_err(err)?;
            writeln!(out, "amosd listening on {socket}").map_err(io)?;
            out.flush().map_err(io)?;
            server.run().map_err(err)?;
            writeln!(out, "amosd drained").map_err(io)?;
            Ok(RunStatus::Complete)
        }
        Some("submit") => {
            let socket = take_flag(&mut args, "--socket")?
                .ok_or_else(|| err("submit needs --socket PATH"))?;
            let retries: u32 = take_parsed_flag(&mut args, "--retries")?.unwrap_or(4);
            let retry_base_ms: u64 =
                take_parsed_flag(&mut args, "--retry-base-ms")?.unwrap_or(50);
            let what = args
                .get(1)
                .ok_or_else(|| err("submit needs an operator spec (or ping, stats, drain)"))?
                .clone();
            reject_extras(&args, 2)?;
            let request = match what.as_str() {
                "ping" => amos_serve::Request::Ping,
                "stats" => amos_serve::Request::Stats,
                "drain" => amos_serve::Request::Drain,
                spec => amos_serve::Request::Explore(amos_serve::ExploreRequest {
                    spec: spec.to_string(),
                    accel: accel_flag.clone(),
                    seed: seed_flag,
                    deadline_ms: budget.deadline_ms,
                    max_evaluations: budget.max_evaluations.map(|n| n as u64),
                    max_measurements: budget.max_measurements.map(|n| n as u64),
                }),
            };
            let policy = amos_serve::RetryPolicy {
                attempts: retries.max(1),
                base_ms: retry_base_ms,
                max_ms: 2_000,
                jitter_seed: seed,
            };
            let (response, raw) =
                amos_serve::client::submit(Path::new(&socket), &request, &policy)
                    .map_err(|e| err(e.to_string()))?;
            // The raw response line goes to stdout verbatim: it is the
            // bit-identity anchor scripts compare across duplicate submits.
            writeln!(out, "{raw}").map_err(io)?;
            match response {
                amos_serve::Response::Ok(r) if r.completion == "finished" => {
                    Ok(RunStatus::Complete)
                }
                amos_serve::Response::Ok(_) => Ok(RunStatus::Degraded),
                amos_serve::Response::Pong { .. }
                | amos_serve::Response::Stats(_)
                | amos_serve::Response::Drained => Ok(RunStatus::Complete),
                amos_serve::Response::Overloaded { retry_after_ms } => Err(err(format!(
                    "amosd overloaded after {retries} attempts (retry_after_ms {retry_after_ms})"
                ))),
                amos_serve::Response::Draining => {
                    Err(err("amosd is draining and admits no new work"))
                }
                amos_serve::Response::Timeout { waited_ms } => Err(err(format!(
                    "request timed out after {waited_ms} ms (deadline + grace)"
                ))),
                amos_serve::Response::Error { message } => Err(err(message)),
            }
        }
        Some("accel") => run_accel(&mut args, &registry, out),
        Some("table6") => {
            reject_extras(&args, 1)?;
            let accel = resolve_accelerator(&registry, &accel_name)?;
            let generator = MappingGenerator::new();
            for (def, name) in ops::representative_ops().iter().zip(ops::OPERATOR_NAMES) {
                writeln!(
                    out,
                    "{:<4} {:>6}",
                    name,
                    generator.count(def, &accel.intrinsic)
                )
                .map_err(io)?;
            }
            Ok(RunStatus::Complete)
        }
        Some(other) => Err(err(format!("unknown command `{other}`"))),
        None => Err(err(
            "usage: amos <ops|accels|mappings|explore|ir|cuda|table6|network|cache|pool|accel|serve|submit> [args] [--accel NAME] [--accel-dir DIR] [--seed N] [--batch N] [--jobs N] [--generations N] [--cache-dir DIR] [--deadline-ms N] [--max-measurements N] [--max-evaluations N] [--list-accels]",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with_status(args: &[&str]) -> Result<(RunStatus, String), CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let status = run(&args, &mut buf)?;
        Ok((status, String::from_utf8(buf).expect("utf8 output")))
    }

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        run_with_status(args).map(|(_, out)| out)
    }

    #[test]
    fn parse_op_specs() {
        let g = parse_op("gmm:128x64x32").unwrap();
        assert_eq!(g.extents(), vec![128, 64, 32]);
        let c = parse_op("c2d:n2,c8,k8,p7,q7,r3,s3,st2").unwrap();
        assert_eq!(c.name(), "c2d");
        assert_eq!(c.iters()[0].extent, 2);
        let d = parse_op("dep:c32,p14,r3").unwrap();
        assert_eq!(d.name(), "dep");
        assert!(parse_op("gmm:12x12").is_err());
        assert!(parse_op("nope:1x2x3").is_err());
        assert!(parse_op("gmm").is_err());
    }

    #[test]
    fn parse_accelerator_names() {
        assert!(parse_accelerator("v100").is_ok());
        assert!(parse_accelerator("ascend-npu").is_ok());
        let e = parse_accelerator("tpu").unwrap_err();
        assert!(e.to_string().contains("unknown accelerator"));
    }

    #[test]
    fn flags_are_extracted() {
        let mut args: Vec<String> = ["mappings", "--accel", "a100", "gmm:16x16x16"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let accel = take_flag(&mut args, "--accel").unwrap();
        assert_eq!(accel.as_deref(), Some("a100"));
        assert_eq!(args, vec!["mappings", "gmm:16x16x16"]);
        let mut bad: Vec<String> = vec!["--seed".into()];
        assert!(take_flag(&mut bad, "--seed").is_err());
    }

    #[test]
    fn ops_and_accels_commands() {
        let out = run_to_string(&["ops"]).unwrap();
        assert!(out.contains("GMV"));
        assert!(out.contains("SCN"));
        let out = run_to_string(&["accels"]).unwrap();
        assert!(out.contains("v100"));
        assert!(out.contains("mali-g76"));
    }

    #[test]
    fn pool_command_prints_the_counters() {
        let (status, out) = run_with_status(&["pool"]).unwrap();
        assert_eq!(status, RunStatus::Complete);
        for key in ["threads", "waves", "tasks", "chunks"] {
            assert!(out.contains(key), "missing `{key}` in {out}");
        }
        assert!(run_to_string(&["pool", "extra"]).is_err(), "strict args");
    }

    #[test]
    fn mappings_command_counts_c2d() {
        let out = run_to_string(&["mappings", "c2d:n2,c8,k8,p7,q7,r3,s3,st1"]).unwrap();
        assert!(out.starts_with("35 valid mappings"), "{out}");
    }

    #[test]
    fn explore_command_reports_a_mapping() {
        let (status, out) =
            run_with_status(&["explore", "gmm:256x256x256", "--accel", "a100"]).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert!(out.contains("best       : [i1, i2, r1]"), "{out}");
        assert!(out.contains("cycles"));
        assert!(!out.contains("completion"), "{out}");
    }

    #[test]
    fn deadline_zero_degrades_but_still_answers() {
        let (status, out) =
            run_with_status(&["explore", "gmm:64x64x64", "--deadline-ms", "0"]).unwrap();
        assert_eq!(status, RunStatus::Degraded);
        assert!(out.contains("best       : [i1, i2, r1]"), "{out}");
        assert!(
            out.contains("completion       : deadline exceeded"),
            "{out}"
        );
    }

    #[test]
    fn measurement_budget_degrades_but_still_answers() {
        let (status, out) =
            run_with_status(&["explore", "gmm:64x64x64", "--max-measurements", "1"]).unwrap();
        assert_eq!(status, RunStatus::Degraded);
        assert!(out.contains("completion       : budget exhausted"), "{out}");
        let e = run_to_string(&["explore", "gmm:64x64x64", "--max-measurements", "x"]).unwrap_err();
        assert!(e.to_string().contains("bad --max-measurements"), "{e}");
        let e = run_to_string(&["explore", "gmm:64x64x64", "--deadline-ms", "-1"]).unwrap_err();
        assert!(e.to_string().contains("bad --deadline-ms"), "{e}");
    }

    #[test]
    fn ir_command_emits_statements() {
        let out = run_to_string(&["ir", "gmm:64x64x64"]).unwrap();
        assert!(out.contains("mma_sync"), "{out}");
        assert!(out.contains("load_matrix_sync"));
    }

    #[test]
    fn table6_command_prints_counts() {
        let out = run_to_string(&["table6"]).unwrap();
        assert!(
            out.lines()
                .any(|l| l.starts_with("C2D") && l.ends_with("35")),
            "{out}"
        );
    }

    #[test]
    fn cuda_command_emits_source() {
        let out = run_to_string(&["cuda", "gmm:64x64x64"]).unwrap();
        assert!(out.contains("__global__ void gmm_kernel"), "{out}");
        assert!(out.contains("mma_sync"));
    }

    #[test]
    fn extended_op_families_parse() {
        assert!(parse_op("c1d:n1,c32,k32,q128,s3,st1").is_ok());
        assert!(parse_op("t2d:n1,c4,k4,h5,w5,r3").is_ok());
        assert!(parse_op("bcv:n4,c8,k8,p7,r3").is_ok());
        assert!(parse_op("gfc:b8,g4,k32,c32").is_ok());
        assert!(parse_op("var:64x64").is_ok());
    }

    #[test]
    fn network_command_reports_speedup() {
        let out = run_to_string(&["network", "milstm"]).unwrap();
        assert!(out.contains("MI-LSTM"), "{out}");
        assert!(out.contains("speedup"));
        assert!(out.contains("exact hits"), "{out}");
        assert!(run_to_string(&["network", "nope"]).is_err());
    }

    #[test]
    fn network_warm_start_flag_is_an_unknown_flag() {
        // The retired warm-start switch is a usage error (exit status 2),
        // rejected before any exploration runs.
        let e = run_to_string(&["network", "milstm", "--warm-start"]).unwrap_err();
        assert!(e.to_string().contains("unknown flag `--warm-start`"), "{e}");
    }

    #[test]
    fn cache_stats_and_clear_on_a_fresh_dir() {
        let dir = std::env::temp_dir().join(format!("amos-cli-cache-{}", std::process::id()));
        let dir_arg = dir.to_str().unwrap();
        let out = run_to_string(&["cache", "stats", "--cache-dir", dir_arg]).unwrap();
        assert!(out.contains("entries  : 0"), "{out}");
        assert!(out.contains("stale    : 0"), "{out}");
        assert!(out.contains(&amos_core::cache_salt()), "{out}");
        let out = run_to_string(&["cache", "clear", "--cache-dir", dir_arg]).unwrap();
        assert!(out.contains("removed 0 entries"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins the exact `cache stats` output shape for the L2 tier: the
    /// label column and the entry/byte/stale counts scripts grep for.
    #[test]
    fn cache_stats_output_shape_is_pinned() {
        let dir = std::env::temp_dir().join(format!("amos-cli-statspin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.amosc"), b"0123456789").unwrap();
        std::fs::write(dir.join("b.amosc"), b"01234").unwrap();
        let current = format!("amos-l2 {}\n", amos_core::cache_salt());
        std::fs::write(dir.join("c.amosc"), &current).unwrap();
        std::fs::write(dir.join("ignored.txt"), b"not a cache entry").unwrap();
        let out = run_to_string(&["cache", "stats", "--cache-dir", dir.to_str().unwrap()]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert_eq!(lines[0], format!("cache dir: {}", dir.display()), "{out}");
        assert_eq!(
            lines[1],
            format!("salt     : {}", amos_core::cache_salt()),
            "{out}"
        );
        assert_eq!(lines[2], "entries  : 3", "{out}");
        assert_eq!(
            lines[3],
            format!("bytes    : {}", 15 + current.len()),
            "{out}"
        );
        assert_eq!(lines[4], "stale    : 2", "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_flag_bounds_the_search() {
        let (status, out) =
            run_with_status(&["explore", "gmm:64x64x64", "--generations", "1"]).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert!(out.contains("best       : [i1, i2, r1]"), "{out}");
        let e = run_to_string(&["explore", "gmm:64x64x64", "--generations", "x"]).unwrap_err();
        assert!(e.to_string().contains("bad --generations"), "{e}");
    }

    #[test]
    fn a_cancelled_token_degrades_explore_with_best_so_far() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let args: Vec<String> = ["explore", "gmm:64x64x64"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut buf = Vec::new();
        let status = run_with_cancel(&args, &mut buf, Some(cancel)).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert_eq!(status, RunStatus::Degraded);
        assert!(out.contains("best       : [i1, i2, r1]"), "{out}");
        assert!(out.contains("completion       : cancelled"), "{out}");
    }

    #[test]
    fn submit_usage_errors_are_clear() {
        let e = run_to_string(&["submit", "gmm:64x64x64"]).unwrap_err();
        assert!(e.to_string().contains("--socket"), "{e}");
        let e = run_to_string(&["submit", "--socket", "/tmp/x.sock"]).unwrap_err();
        assert!(e.to_string().contains("operator spec"), "{e}");
        let e = run_to_string(&["serve"]).unwrap_err();
        assert!(e.to_string().contains("--socket"), "{e}");
        // An unreachable daemon is a connect error after bounded retries.
        let e = run_to_string(&[
            "submit",
            "ping",
            "--socket",
            "/tmp/amos-no-daemon-here.sock",
            "--retries",
            "1",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("cannot reach amosd"), "{e}");
    }

    #[test]
    fn cache_command_requires_a_directory_and_a_known_verb() {
        let e = run_to_string(&["cache", "stats"]).unwrap_err();
        assert!(e.to_string().contains("--cache-dir"), "{e}");
        let e = run_to_string(&["cache", "prune", "--cache-dir", "/tmp/x"]).unwrap_err();
        assert!(e.to_string().contains("unknown cache verb"), "{e}");
        let e = run_to_string(&["cache"]).unwrap_err();
        assert!(e.to_string().contains("stats or clear"), "{e}");
    }

    #[test]
    fn network_jobs_flag_is_cost_invariant() {
        // The parallel wave must answer bit-identically to the forced
        // sequential path, and the footer partition must not change.
        let a = run_to_string(&["network", "milstm", "--jobs", "1"]).unwrap();
        let b = run_to_string(&["network", "milstm", "--jobs", "4"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run_to_string(&["frobnicate"]).is_err());
        assert!(run_to_string(&[]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let e = run_to_string(&["mappings", "gmm:16x16x16", "--frobnicate", "2"]).unwrap_err();
        assert!(e.to_string().contains("unknown flag `--frobnicate`"), "{e}");
        let e = run_to_string(&["table6", "--verbose"]).unwrap_err();
        assert!(e.to_string().contains("unknown flag `--verbose`"), "{e}");
    }

    #[test]
    fn trailing_arguments_are_rejected() {
        let e = run_to_string(&["mappings", "gmm:16x16x16", "extra"]).unwrap_err();
        assert!(e.to_string().contains("unexpected argument `extra`"), "{e}");
        let e = run_to_string(&["ops", "gmm:16x16x16"]).unwrap_err();
        assert!(e.to_string().contains("unexpected argument"), "{e}");
    }

    #[test]
    fn list_accels_prints_registry_names() {
        let out = run_to_string(&["--list-accels"]).unwrap();
        let names: Vec<&str> = out.lines().collect();
        assert_eq!(names, amos_hw::Registry::builtin().names());
        assert!(names.contains(&"v100"));
        assert!(names.contains(&"gemmini-like"));
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amos-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn accel_export_round_trips_via_from_text() {
        let out = run_to_string(&["accel", "export", "mini"]).unwrap();
        let reparsed = AcceleratorDesc::from_text(&out).unwrap();
        assert_eq!(&reparsed, Registry::builtin().get("mini").unwrap());
        let e = run_to_string(&["accel", "export", "nope"]).unwrap_err();
        assert!(e.to_string().contains("unknown accelerator `nope`"), "{e}");
    }

    #[test]
    fn accel_export_all_writes_every_machine() {
        let dir = scratch_dir("export-all");
        let dir_arg = dir.to_str().unwrap().to_string();
        let out = run_to_string(&["accel", "export", "--all", "--out", &dir_arg]).unwrap();
        assert!(out.contains("wrote 12 machines"), "{out}");
        for name in Registry::builtin().names() {
            let text = std::fs::read_to_string(dir.join(format!("{name}.toml"))).unwrap();
            assert_eq!(
                &AcceleratorDesc::from_text(&text).unwrap(),
                Registry::builtin().get(name).unwrap()
            );
        }
        let e = run_to_string(&["accel", "export", "--all"]).unwrap_err();
        assert!(e.to_string().contains("--out DIR"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accel_show_describes_a_machine_or_file() {
        let out = run_to_string(&["accel", "show", "v100"]).unwrap();
        assert!(out.contains("name       : v100"), "{out}");
        assert!(out.contains("mma_sync"), "{out}");
        assert!(out.contains("r1 reduction 16"), "{out}");
        assert!(
            out.contains("Dst[i1, i2] <- mul-acc(Src1[i1, r1], Src2[r1, i2])"),
            "{out}"
        );

        let dir = scratch_dir("show-file");
        let file = dir.join("m.toml");
        std::fs::write(&file, Registry::builtin().get("mini").unwrap().to_text()).unwrap();
        let out = run_to_string(&["accel", "show", file.to_str().unwrap()]).unwrap();
        assert!(out.contains("name       : mini"), "{out}");

        let e = run_to_string(&["accel", "show", "no-such-thing"]).unwrap_err();
        assert!(e.to_string().contains("no accelerator named"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accel_lint_reports_per_file_verdicts() {
        let dir = scratch_dir("lint");
        let good = dir.join("good.toml");
        std::fs::write(&good, Registry::builtin().get("mini").unwrap().to_text()).unwrap();
        let bad = dir.join("bad.toml");
        std::fs::write(
            &bad,
            "format = 1\nname = \"x\"\nclock_ghz = 1.0\nscalar_ops_per_core_cycle = 1.0\nfrob = 3\n",
        )
        .unwrap();

        let out = run_to_string(&["accel", "lint", good.to_str().unwrap()]).unwrap();
        assert!(out.contains("OK"), "{out}");
        assert!(out.contains("(mini; accelerator)"), "{out}");

        let mut buf = Vec::new();
        let args: Vec<String> = ["accel", "lint"]
            .iter()
            .map(|s| s.to_string())
            .chain([
                good.to_str().unwrap().to_string(),
                bad.to_str().unwrap().to_string(),
            ])
            .collect();
        let e = run(&args, &mut buf).unwrap_err();
        assert!(e.to_string().contains("1 of 2 files failed lint"), "{e}");
        let printed = String::from_utf8(buf).unwrap();
        assert!(printed.contains("FAIL"), "{printed}");
        assert!(printed.contains("bad.toml:5"), "{printed}");
        assert!(printed.contains("unknown key `frob`"), "{printed}");

        assert!(run_to_string(&["accel", "lint"]).is_err(), "needs files");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accel_derive_runs_the_derivation_pass() {
        let dir = scratch_dir("derive");
        let desc = Registry::builtin().get("gemmini-like").unwrap().clone();
        let isa = amos_hw::IsaDesc::from_accelerator(&desc).unwrap();
        let file = dir.join("gemmini.toml");
        std::fs::write(&file, isa.to_text()).unwrap();
        let out = run_to_string(&["accel", "derive", file.to_str().unwrap()]).unwrap();
        assert_eq!(AcceleratorDesc::from_text(&out).unwrap(), desc);

        // A full accelerator file is not an input to the derivation pass.
        let full = dir.join("full.toml");
        std::fs::write(&full, desc.to_text()).unwrap();
        let e = run_to_string(&["accel", "derive", full.to_str().unwrap()]).unwrap_err();
        assert!(e.to_string().contains("already a full accelerator"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accel_needs_a_known_verb() {
        let e = run_to_string(&["accel"]).unwrap_err();
        assert!(
            e.to_string().contains("lint, show, export or derive"),
            "{e}"
        );
        let e = run_to_string(&["accel", "frob"]).unwrap_err();
        assert!(e.to_string().contains("unknown accel verb `frob`"), "{e}");
    }

    #[test]
    fn accel_dir_errors_name_the_file_and_line() {
        let dir = scratch_dir("accel-dir-bad");
        std::fs::write(dir.join("bad.toml"), "format = 99\nname = \"x\"\n").unwrap();
        let dir_arg = dir.to_str().unwrap().to_string();
        let e = run_to_string(&["--accel-dir", &dir_arg, "--list-accels"]).unwrap_err();
        assert!(e.to_string().contains("bad.toml:1"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cli_errors_join_the_amos_error_hierarchy() {
        let e: AmosError = parse_accelerator("nope").unwrap_err().into();
        assert!(matches!(e.kind, amos_core::AmosErrorKind::Usage(_)));
        assert!(e.to_string().contains("unknown accelerator"));
    }
}
