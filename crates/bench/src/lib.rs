//! # amos-bench — the paper scorecard
//!
//! One function per table or figure of the AMOS paper (ISCA 2022). Each
//! recomputes its experiment at fixed budgets and seeds and returns rows of
//! (id, claim, paper value, our value); a row's [`Rule`] derives its verdict
//! from the two values. [`splice`] writes the rows into the generated blocks
//! of `EXPERIMENTS.md`: [`RERECORD`] re-records the file, and
//! `tests/scorecard.rs` fails when the committed file differs from a fresh
//! computation. The contract is `docs/specs/scorecard.md`.

#![warn(missing_docs)]

use amos_baselines::systems::tuning_budget;
use amos_baselines::{
    evaluate, evaluate_with, fixed_mapping, geomean, FixedKind, NetworkEvaluator, System,
    TemplateMatcher,
};
use amos_core::{
    fnv1a, pairwise_accuracy, random_schedule, random_schedule_with, screening_regret,
    top_rate_recall, Engine, Explorer, ExplorerConfig, Mapping, MappingGenerator,
};
use amos_hw::{catalog, AcceleratorSpec};
use amos_sim::{simulate, MappedProgram, Schedule, TimingReport};
use amos_workloads::{configs, networks, ops};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The file whose generated blocks the scorecard owns.
pub const EXPERIMENTS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// The command that re-records [`EXPERIMENTS_MD`].
pub const RERECORD: &str = "cargo run --release -p amos-bench --bin scorecard";

/// How a row's verdict follows from its paper and our values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Counts and mapping strings: `exact` when the two values are equal once
    /// whitespace and any `[...] <-` iteration-list prefix are removed, else
    /// `differs`.
    Exact,
    /// Factors, percentages and rates: `same side` when the leading numbers
    /// of both values lie on the same side of this reference (1.0x for
    /// parity, 100% for AMOS itself, what a random ranking scores for model
    /// accuracy), else `inverted`.
    Side(f64),
    /// A boolean claim of the paper: `holds` or `fails` as measured.
    Holds(bool),
    /// The paper reports no value: the verdict is `—`.
    Unscored,
}

/// One compared quantity of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Unique within its experiment; names the row when it moves.
    pub id: String,
    /// What is compared.
    pub claim: String,
    /// The paper's value as published, `—` where it reports none.
    pub paper: String,
    /// Our value at the printed precision.
    pub ours: String,
    /// How [`Row::verdict`] reads the two values.
    pub rule: Rule,
}

impl Row {
    /// The verdict [`Rule`] gives for the row's two values.
    pub fn verdict(&self) -> &'static str {
        let normal = |v: &str| -> String {
            let v = v.rsplit("<-").next().unwrap_or(v);
            v.chars().filter(|c| !c.is_whitespace()).collect()
        };
        let side = |v: &str, reference: f64| {
            let token = v.split_whitespace().next().unwrap_or_default();
            let n = token.trim_end_matches(['x', '%']).parse::<f64>();
            n.unwrap_or_else(|_| panic!("`{v}` does not start with a number"))
                .total_cmp(&reference)
        };
        match self.rule {
            Rule::Exact if normal(&self.paper) == normal(&self.ours) => "exact",
            Rule::Exact => "differs",
            Rule::Side(r) if side(&self.paper, r) == side(&self.ours, r) => "same side",
            Rule::Side(_) => "inverted",
            Rule::Holds(true) => "holds",
            Rule::Holds(false) => "fails",
            Rule::Unscored => "—",
        }
    }
}

type Name = &'static str;

/// The rows of one table or figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// The marker name of the experiment's block in EXPERIMENTS.md.
    pub key: Name,
    /// The experiment's name in the summary table.
    pub title: Name,
    /// The ids of the rows the summary table carries.
    pub headline: &'static [Name],
    /// Its rows, in table order.
    pub rows: Vec<Row>,
}

/// The rows of an experiment under construction; each row takes the claim
/// last set.
#[derive(Default)]
struct Rows {
    claim: String,
    rows: Vec<Row>,
}

impl Rows {
    fn claim(&mut self, claim: impl ToString) {
        self.claim = claim.to_string();
    }

    fn add(&mut self, id: impl ToString, paper: impl ToString, ours: String, rule: Rule) {
        let (id, claim, paper) = (id.to_string(), self.claim.clone(), paper.to_string());
        self.rows.push(Row {
            id,
            claim,
            paper,
            ours,
            rule,
        });
    }

    /// A count or a mapping string, compared exactly.
    fn exact(&mut self, id: impl ToString, paper: impl ToString, ours: impl ToString) {
        self.add(id, paper, ours.to_string(), Rule::Exact);
    }

    /// A factor (`2.17x`), read against parity.
    fn factor(&mut self, id: &str, paper: &str, ours: f64) {
        self.add(id, paper, format!("{ours:.2}x"), Rule::Side(1.0));
    }

    /// A value the paper does not report.
    fn info(&mut self, id: impl ToString, ours: String) {
        self.add(id, "—", ours, Rule::Unscored);
    }

    fn done(self, key: Name, title: Name, headline: &'static [Name]) -> Experiment {
        let rows = self.rows;
        Experiment {
            key,
            title,
            headline,
            rows,
        }
    }
}

/// Every experiment, in EXPERIMENTS.md order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        table2(),
        table5(),
        table6(),
        fig5(),
        fig6("fig6a", "Fig 6a (V100)", catalog::v100(), "2.50x"),
        fig6("fig6b", "Fig 6b (A100)", catalog::a100(), "2.80x"),
        fig6c(),
        fig7(),
        fig7e(),
        fig8a(),
        fig8b(),
        fig9(),
        sec76(),
        sec75(),
        splitk(),
        explorer(),
    ]
}

/// Explorer budget of the Table 5, Figure 9, §7.6 and explorer-ablation
/// searches; Figure 5 runs one more generation.
fn budget(seed: u64) -> ExplorerConfig {
    let mut c = tuning_budget(seed);
    (c.population, c.generations, c.survivors, c.measure_top) = (24, 5, 6, 4);
    c
}

/// `a / b / c` at two decimals.
fn joined(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
    cells.join(" / ")
}

/// Table 2: operators mapped to Tensor Core per network, the XLA-style
/// template matcher against AMOS's generator.
fn table2() -> Experiment {
    let (matcher, generator) = (TemplateMatcher::new(), MappingGenerator::new());
    let wmma = catalog::wmma_16x16x16();
    let nets = [
        (networks::shufflenet(), "70 / 6 / 50"),
        (networks::resnet50(), "71 / 15 / 54"),
        (networks::mobilenet_v1(), "30 / 7 / 29"),
        (networks::bert_base(), "204 / 42 / 84"),
        (networks::mi_lstm(), "11 / 0 / 9"),
    ];
    let text = |counts: [usize; 3]| counts.map(|c| c.to_string()).join(" / ");
    let mut t = Rows::default();
    t.claim("operators: total / XLA-mapped / AMOS-mapped");
    let mut all = [0usize; 3];
    for (net, paper) in nets {
        let mut counts = [net.total_ops(), 0, 0];
        for grp in &net.groups {
            if let Some(def) = grp.op.compute_def(1) {
                counts[1] += grp.count * usize::from(matcher.matches(&def));
                counts[2] += grp.count * usize::from(generator.count(&def, &wmma) > 0);
            }
        }
        for (sum, count) in all.iter_mut().zip(counts) {
            *sum += count;
        }
        t.exact(net.name, paper, text(counts));
    }
    t.exact("all", "386 / 70 / 226", text(all));
    t.done("table2", "Table 2", &["all"])
}

/// Table 5: the mapping AMOS picks for each ResNet-18 convolution (A100,
/// batch 16), and how many distinct mapping types that makes.
fn table5() -> Experiment {
    const PAPER: [&str; 12] = [
        "[(n*112+q) mod 16, k mod 16, (c*49+r*7+s) mod 16]",
        "[(n*56+q) mod 16, k mod 16, (c*3+r) mod 16]",
        "[(p*56+q) mod 16, k mod 16, c mod 16]",
        "[(n*784+p*28+q) mod 16, k mod 16, (c*3+s) mod 16]",
        "[(p*28+q) mod 16, k mod 16, c mod 16]",
        "[(p*28+q) mod 16, k mod 16, c mod 16]",
        "[n mod 16, k mod 16, (c*3+s) mod 16]",
        "[(n*196+p*14+q) mod 16, k mod 16, c mod 16]",
        "[(p*14+q) mod 16, k mod 16, c mod 16]",
        "[(n*49+p*7+q) mod 16, k mod 16, (c*9+r*3+s) mod 16]",
        "[(n*49+p*7+q) mod 16, k mod 16, c mod 16]",
        "[n mod 16, k mod 16, (c*9+r*3+s) mod 16]",
    ];
    let accel = catalog::a100();
    let explorer = Explorer::with_config(budget(55));
    let mut t = Rows::default();
    t.claim("chosen compute mapping");
    let mut distinct = BTreeSet::new();
    for ((label, sh), paper) in configs::resnet18_conv_layers(16).into_iter().zip(PAPER) {
        let result = explorer
            .explore(&ops::c2d(sh), &accel)
            .expect("layer explores");
        let mapping = result.best_program.mapping_string();
        distinct.insert(mapping.clone());
        t.exact(label, paper, mapping);
    }
    t.claim("distinct mapping types");
    t.exact("distinct", 8, distinct.len());
    t.done("table5", "Table 5", &["distinct"])
}

/// Table 6: feasible mappings per operator on Tensor Core.
fn table6() -> Experiment {
    const PAPER: [usize; 15] = [1, 1, 6, 35, 180, 7, 35, 35, 11, 105, 11, 1, 1, 1, 1];
    let generator = MappingGenerator::new();
    let wmma = catalog::wmma_16x16x16();
    let mut t = Rows::default();
    t.claim("feasible mappings");
    let mut equal = 0;
    for (def, paper) in ops::representative_ops().iter().zip(PAPER) {
        let count = generator.count(def, &wmma);
        equal += usize::from(count == paper);
        t.exact(def.name().to_uppercase(), paper, count);
    }
    t.claim("operators whose count equals the paper's");
    t.exact("all", "15 of 15", format!("{equal} of {}", PAPER.len()));
    t.done("table6", "Table 6", &["all"])
}

/// Figure 5: the analytic model against the timing simulator over the
/// searches of the twelve ResNet-18 convolutions (V100, batch 16), and each
/// search's screening regret.
fn fig5() -> Experiment {
    let accel = catalog::v100();
    let mut pairs = Vec::new();
    let mut regrets = Vec::new();
    for (label, mut sh) in configs::resnet18_conv_layers(16) {
        sh.n = 16;
        let mut config = budget(fnv1a(&label));
        config.generations = 6;
        if let Ok(result) = Explorer::with_config(config).explore(&ops::c2d(sh), &accel) {
            regrets.push((label, screening_regret(&result.evaluations)));
            pairs.extend(result.evaluations);
        }
    }
    let mut t = Rows::default();
    let n = pairs.len();
    t.claim("ground-truth measurements");
    t.info("measurements", n.to_string());
    let accuracy = format!("{:.1}%", pairwise_accuracy(&pairs) * 100.0);
    t.claim("pairwise rank accuracy (random ranking: 50%)");
    t.add("pairwise", "85.69%", accuracy, Rule::Side(50.0));
    t.claim("top-rate recall (random ranking: the rate)");
    let paper = ["0.250", "0.706", "0.808", "0.914", "0.864", "0.846"];
    for (rate, paper) in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6].into_iter().zip(paper) {
        let recall = format!("{:.3}", top_rate_recall(&pairs, rate));
        t.add(format!("recall@{rate}"), paper, recall, Rule::Side(rate));
    }
    t.claim("screening regret: measured candidates the model ranked ahead of the best");
    let mut sorted: Vec<usize> = regrets.iter().map(|(_, r)| *r).collect();
    sorted.sort_unstable();
    for (label, regret) in regrets {
        t.info(format!("regret {label}"), regret.to_string());
    }
    let n = sorted.len();
    let median = match n {
        0 => 0.0,
        _ => (sorted[(n - 1) / 2] + sorted[n / 2]) as f64 / 2.0,
    };
    t.info("regret median", format!("{median:.1}"));
    t.done("fig5", "Fig 5", &["pairwise", "recall@0.4"])
}

/// Figure 6a/b: AMOS over the PyTorch library path for the 113 operator
/// configurations of §7.3 at batch 1, per family and overall.
fn fig6(key: Name, title: Name, accel: AcceleratorSpec, paper_geomean: &str) -> Experiment {
    let engine = Engine::new();
    let configs = configs::operator_configs();
    let mut t = Rows::default();
    let mut all = Vec::new();
    for family in ops::OPERATOR_NAMES {
        let mut speedups = Vec::new();
        for cfg in configs.iter().filter(|c| c.family == family) {
            let seed = fnv1a(&format!("{}/{}", cfg.family, cfg.label));
            let cycles = |system| evaluate_with(&engine, system, &cfg.def, &accel, seed).cycles;
            speedups.push(cycles(System::PyTorch) / cycles(System::Amos));
        }
        let n = speedups.len();
        let claim = format!("speedup over PyTorch, geomean of {n} configurations");
        t.claim(claim);
        t.info(family, format!("{:.2}x", geomean(&speedups)));
        all.extend(speedups);
    }
    let n = all.len();
    let claim = format!("speedup over PyTorch, geomean of all {n} configurations");
    t.claim(claim);
    t.factor("GEO", paper_geomean, geomean(&all));
    t.done(key, title, &["GEO"])
}

/// Figure 6c: the ResNet-18 convolutions (A100, batch 16) under every
/// compiler, relative to cuDNN.
fn fig6c() -> Experiment {
    let engine = Engine::new();
    let accel = catalog::a100();
    let systems = [
        (System::Ansor, "1.79x"),
        (System::AutoTvm, "—"),
        (System::AutoTvmExpert, "1.30x"),
        (System::Unit, "4.96x"),
        (System::Amos, "2.38x"),
    ];
    let names: Vec<&str> = systems.iter().map(|(s, _)| s.name()).collect();
    let claim = format!("relative to cuDNN: {}", names.join(" / "));
    let mut t = Rows::default();
    t.claim(&claim);
    let mut rel = vec![Vec::new(); systems.len()];
    for (label, sh) in configs::resnet18_conv_layers(16) {
        let def = ops::c2d(sh);
        let seed = fnv1a(&format!("fig6c/{label}"));
        let cycles = |system| evaluate_with(&engine, system, &def, &accel, seed).cycles;
        let cudnn = cycles(System::CuDnn);
        let layer: Vec<f64> = systems.iter().map(|(s, _)| cudnn / cycles(*s)).collect();
        t.info(label, joined(&layer));
        for (all, r) in rel.iter_mut().zip(layer) {
            all.push(r);
        }
    }
    let geo: Vec<f64> = rel.iter().map(|r| geomean(r)).collect();
    t.claim(format!("geomean {claim}"));
    t.info("GEO", joined(&geo));
    let amos = geo[geo.len() - 1];
    t.claim("AMOS geomean speedup over cuDNN");
    t.factor("AMOS/cuDNN", "2.38x", amos);
    for ((system, paper), g) in systems.iter().zip(&geo).take(systems.len() - 1) {
        let rule = if *paper == "—" {
            Rule::Unscored
        } else {
            Rule::Side(1.0)
        };
        t.claim(format!("AMOS geomean speedup over {}", system.name()));
        let ours = format!("{:.2}x", amos / g);
        t.add(format!("AMOS/{}", system.name()), paper, ours, rule);
    }
    t.done("fig6c", "Fig 6c", &["AMOS/cuDNN"])
}

/// Figure 7a–d: whole networks over the PyTorch library path on V100 and
/// A100 at batch 1 and 16.
fn fig7() -> Experiment {
    let mut ev = NetworkEvaluator::new();
    let mut t = Rows::default();
    t.claim("speedup over PyTorch (AMOS ops on the tensor unit)");
    let mut speedups = Vec::new();
    for accel in [catalog::v100(), catalog::a100()] {
        for batch in [1i64, 16] {
            for net in networks::all_networks() {
                let torch = ev.evaluate(System::PyTorch, &net, batch, &accel);
                let amos = ev.evaluate(System::Amos, &net, batch, &accel);
                let id = format!("{} bs{batch} {}", accel.name, net.name);
                let s = torch.total_cycles / amos.total_cycles;
                let ours = format!("{s:.2}x ({}/{})", amos.mapped_ops, amos.total_ops);
                t.info(&id, ours);
                speedups.push((s, id));
            }
        }
    }
    speedups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (low, high) = (&speedups[0], &speedups[speedups.len() - 1]);
    for (id, paper, (s, at)) in [
        ("lowest", "0.91x (a100 bs16 Bert)", low),
        ("highest", "10.42x (a100 bs1 ShuffleNet)", high),
    ] {
        t.claim(format!("{id} network speedup over PyTorch"));
        t.add(id, paper, format!("{s:.2}x ({at})"), Rule::Side(1.0));
    }
    t.done("fig7", "Fig 7a–d", &["lowest", "highest"])
}

/// Figure 7e: TVM and AMOS relative to UNIT on A100 at batch 16 and 32.
fn fig7e() -> Experiment {
    let mut ev = NetworkEvaluator::new();
    let accel = catalog::a100();
    let mut t = Rows::default();
    t.claim("relative to UNIT: TVM / AMOS");
    let mut best = 0;
    let nets = [
        networks::resnet18(),
        networks::resnet50(),
        networks::mobilenet_v1(),
    ];
    for net in nets {
        for batch in [16i64, 32] {
            let mut cycles = |system| ev.evaluate(system, &net, batch, &accel).total_cycles;
            let [unit, tvm, amos] = [System::Unit, System::Tvm, System::Amos].map(&mut cycles);
            best += usize::from(amos < unit && amos < tvm);
            let ours = joined(&[unit / tvm, unit / amos]);
            t.info(format!("{}-bs{batch}", net.name), ours);
        }
    }
    let n = t.rows.len();
    t.claim("AMOS is the fastest system");
    let (ours, held) = (format!("{best} of {n}"), 2 * best > n);
    t.add("AMOS best", "in most cases", ours, Rule::Holds(held));
    t.done("fig7e", "Fig 7e", &["AMOS best"])
}

/// Figure 8a: the ResNet-18 convolutions at batch 1 on the AVX-512 VNNI
/// CPU, AMOS against TVM's expert template.
fn fig8a() -> Experiment {
    let accel = catalog::xeon_avx512();
    let mut t = Rows::default();
    t.claim("AMOS speedup over TVM");
    let mut speedups = Vec::new();
    let mut tvm_wins = Vec::new();
    for (label, mut sh) in configs::resnet18_conv_layers(16) {
        sh.n = 1;
        let def = ops::c2d(sh);
        let cycles = |system| evaluate(system, &def, &accel, fnv1a(&label)).cycles;
        let s = cycles(System::Tvm) / cycles(System::Amos);
        if s < 1.0 {
            tvm_wins.push(label.clone());
        }
        t.info(label, format!("{s:.2}x"));
        speedups.push(s);
    }
    t.claim("geomean AMOS speedup over TVM");
    t.factor("GEO", "1.37x", geomean(&speedups));
    let ours = if tvm_wins.is_empty() {
        "none".to_string()
    } else {
        tvm_wins.join(", ")
    };
    t.claim("layers where TVM beats AMOS");
    t.exact("TVM wins", "C2", ours);
    t.done("fig8a", "Fig 8a", &["GEO", "TVM wins"])
}

/// Figure 8b: seven MobileNet-V2 pointwise/depthwise pairs on the Mali G76
/// dot units, absolute GOPS of AutoTVM's Bifrost template and AMOS.
fn fig8b() -> Experiment {
    let accel = catalog::mali_g76();
    let mut t = Rows::default();
    t.claim("GOPS: C2D AutoTVM / AMOS, DEP AutoTVM / AMOS");
    let mut failed = Vec::new();
    let mut largest = 0.0f64;
    // Seven pointwise conv / depthwise pairs, (channels, extent).
    let layers = [
        (32, 112),
        (96, 56),
        (144, 56),
        (144, 28),
        (192, 14),
        (384, 14),
        (576, 7),
    ];
    for (idx, (c, p)) in layers.into_iter().enumerate() {
        let conv = ops::c2d(ops::ConvShape {
            n: 1,
            c,
            k: c,
            p,
            q: p,
            r: 1,
            s: 1,
            stride: 1,
        });
        let seed = fnv1a(&format!("mali{idx}"));
        let mut cells = Vec::new();
        for (def, depthwise) in [(conv, false), (ops::dep(1, c, p, p, 3, 3), true)] {
            let gops = |cycles| accel.gflops(def.scalar_ops(), cycles);
            let amos = gops(evaluate(System::Amos, &def, &accel, seed).cycles);
            // The paper reports AutoTVM's internal errors on depthwise layers
            // 2–4; they are reproduced as template failures.
            let fails = depthwise && (1..=3).contains(&idx);
            let template = fixed_mapping(&def, &accel.intrinsic, FixedKind::FuseHw);
            let tuned = template.filter(|_| !fails).and_then(|m| {
                let explorer = Explorer::with_config(tuning_budget(seed));
                explorer.explore_mappings(&def, &accel, Some(vec![m])).ok()
            });
            let autotvm = match tuned {
                Some(r) => {
                    largest = largest.max(amos / gops(r.cycles()));
                    format!("{:.2}", gops(r.cycles()))
                }
                None => {
                    failed.push(format!("L{}", idx + 1));
                    "failed".to_string()
                }
            };
            cells.push(format!("{autotvm} / {amos:.2}"));
        }
        t.info(format!("L{} c{c}", idx + 1), cells.join(", "));
    }
    let ours = format!("fails on {}", failed.join(", "));
    t.claim("AutoTVM fails on depthwise layers 2–4");
    let held = failed == ["L2", "L3", "L4"];
    t.add("DEP L2–L4", "fails", ours, Rule::Holds(held));
    t.claim("largest AMOS speedup over AutoTVM");
    t.factor("largest", "25.04x", largest);
    t.done("fig8b", "Fig 8b", &["DEP L2–L4", "largest"])
}

/// Figure 9: the fixed-mapping ablation on the ResNet-18 convolutions (A100,
/// batch 16): cuDNN, AMOS-fixM1 (im2col), AMOS-fixM2 (fuse_hw) and AMOS,
/// the two fixed variants tuned with AMOS's schedule budget.
fn fig9() -> Experiment {
    let accel = catalog::a100();
    let claim = "relative to cuDNN: fixM1 / fixM2 / AMOS";
    let mut t = Rows::default();
    t.claim(claim);
    let mut rel = [Vec::new(), Vec::new(), Vec::new()];
    for (label, sh) in configs::resnet18_conv_layers(16) {
        let def = ops::c2d(sh);
        let seed = fnv1a(&label);
        let cudnn = evaluate(System::CuDnn, &def, &accel, seed).cycles;
        let explorer = Explorer::with_config(budget(seed));
        let fixed = |kind| {
            let m = fixed_mapping(&def, &accel.intrinsic, kind).expect("C2D has a fixed mapping");
            let result = explorer.explore_mappings(&def, &accel, Some(vec![m]));
            result.expect("fixed-mapping search succeeds").cycles()
        };
        let [m1, m2] = [FixedKind::Im2col, FixedKind::FuseHw].map(fixed);
        let amos = explorer.explore(&def, &accel).expect("AMOS search");
        let layer = [m1, m2, amos.cycles()].map(|c| cudnn / c);
        t.info(label, joined(&layer));
        for (all, r) in rel.iter_mut().zip(layer) {
            all.push(r);
        }
    }
    let [g1, g2, ga] = rel.map(|r| geomean(&r));
    t.claim(format!("geomean {claim}"));
    t.info("GEO", joined(&[g1, g2, ga]));
    t.claim("AMOS geomean speedup over cuDNN");
    t.factor("AMOS/cuDNN", "2.38x", ga);
    for (id, paper, g) in [("fixM1", "63.2%", g1), ("fixM2", "68.1%", g2)] {
        t.claim(format!("AMOS-{id} as a share of AMOS"));
        let ours = format!("{:.1}%", g / ga * 100.0);
        t.add(id, paper, ours, Rule::Side(100.0));
    }
    t.done("fig9", "Fig 9", &["fixM1", "fixM2"])
}

/// §7.6: occupancy and utilisation of AMOS against the library's im2col
/// configuration with its heuristic schedule, on layer C3 (A100, batch 16).
fn sec76() -> Experiment {
    let accel = catalog::a100();
    let def = ops::c2d(configs::resnet18_conv_layers(16)[3].1);
    let lib_mapping = fixed_mapping(&def, &accel.intrinsic, FixedKind::Im2col).expect("C2D maps");
    let lib_prog = lib_mapping.lower(&def, &accel.intrinsic).expect("lowers");
    let lib_schedule = Schedule::balanced(&lib_prog, &accel);
    let lib = simulate(&lib_prog, &lib_schedule, &accel).expect("simulates");
    let amos = Explorer::with_config(budget(763)).explore(&def, &accel);
    let amos = amos.expect("explores");
    let ours = &amos.best_report;
    let report = |r: &TimingReport| {
        let (occupancy, utilisation) = (r.occupancy, r.utilization);
        format!("{occupancy:.2} / {utilisation:.3} / {}", r.blocks)
    };
    let mut t = Rows::default();
    t.claim("occupancy / utilisation / blocks");
    t.info("library", report(&lib));
    t.info("AMOS", report(ours));
    t.claim("mapping");
    t.info("library mapping", lib_prog.mapping_string());
    t.info("AMOS mapping", amos.best_program.mapping_string());
    let occupancy = ours.occupancy / lib.occupancy.max(1e-9);
    t.claim("AMOS occupancy over the library's");
    t.factor("occupancy", "3.66x", occupancy);
    let utilisation = ours.utilization / lib.utilization.max(1e-9);
    t.claim("AMOS utilisation over the library's");
    t.info("utilisation", format!("{utilisation:.2}x"));
    t.done("sec76", "§7.6", &["occupancy", "utilisation"])
}

/// §7.5: C3D on three virtual accelerators whose intrinsics sit at the
/// three BLAS levels, defined through the hardware abstraction alone.
fn sec75() -> Experiment {
    let generator = MappingGenerator::new();
    let c3d = ops::c3d(2, 8, 8, 6, 6, 6, 3, 3, 3);
    let units = [
        (catalog::virtual_axpy(), 15),
        (catalog::virtual_gemv(), 7),
        (catalog::virtual_conv(), 31),
    ];
    let mut t = Rows::default();
    t.claim("C3D mappings");
    for (accel, paper) in &units {
        t.exact(&accel.name, paper, generator.count(&c3d, &accel.intrinsic));
    }
    t.claim("C3D explores end to end");
    for (accel, _) in &units {
        let (ours, held) = match Explorer::with_config(tuning_budget(75)).explore(&c3d, accel) {
            Ok(r) => {
                let mapping = r.best_program.mapping_string();
                (format!("{:.0} cycles, {mapping}", r.cycles()), true)
            }
            Err(e) => (e.to_string(), false),
        };
        let id = format!("{} run", accel.name);
        t.add(id, "yes", ours, Rule::Holds(held));
    }
    let headline = &["virtual-axpy", "virtual-gemv", "virtual-conv"];
    t.done("sec75", "§7.5", headline)
}

/// Best simulated cycles of `samples` random candidates drawn by `draw`.
fn best_of<'a>(
    samples: usize,
    seed: u64,
    accel: &AcceleratorSpec,
    mut draw: impl FnMut(&mut StdRng) -> (&'a MappedProgram, Schedule),
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let (prog, schedule) = draw(&mut rng);
        if let Ok(r) = simulate(prog, &schedule, accel) {
            best = best.min(r.cycles);
        }
    }
    best
}

/// Ablation beyond the paper: the split-K schedule dimension on skinny
/// GEMMs (V100), best of 256 random schedules with and without it.
fn splitk() -> Experiment {
    let accel = catalog::v100();
    let generator = MappingGenerator::new();
    let mut t = Rows::default();
    t.claim("best cycles without / with split-K (gain)");
    let ks = [65536, 16384, 8192, 4096, 512].into_iter();
    for (m, k) in [16, 32, 64, 256, 2048].into_iter().zip(ks) {
        let def = ops::gmm(m, m, k);
        let mapping = &generator.enumerate(&def, &accel.intrinsic)[0];
        let prog = mapping.lower(&def, &accel.intrinsic).expect("lowers");
        let seed = fnv1a(&format!("splitk{m}x{m}x{k}"));
        let [without, with] = [false, true].map(|split_k| {
            let draw = |rng: &mut StdRng| random_schedule_with(&prog, &accel, rng, split_k);
            best_of(256, seed, &accel, |rng| (&prog, draw(rng)))
        });
        let ours = format!("{without:.0} / {with:.0} ({:.2}x)", without / with);
        t.info(format!("{m}x{m}x{k}"), ours);
    }
    t.done("splitk", "split-K ablation", &["16x16x65536"])
}

/// Ablation beyond the paper: the model-screened genetic search (§5.3)
/// against as many uniformly random (mapping, schedule) measurements as the
/// explorer spent (A100, every third ResNet-18 convolution).
fn explorer() -> Experiment {
    let accel = catalog::a100();
    let mut t = Rows::default();
    t.claim("best cycles random / model+genetic at equal measurements (gain)");
    let mut wins = 0;
    for (label, sh) in configs::resnet18_conv_layers(16).into_iter().step_by(3) {
        let def = ops::c2d(sh);
        let seed = fnv1a(&label);
        let guided = Explorer::with_config(budget(seed)).explore(&def, &accel);
        let guided = guided.expect("explores");
        let lower = |m: &Mapping| m.lower(&def, &accel.intrinsic).expect("lowers");
        let mappings = MappingGenerator::new().enumerate(&def, &accel.intrinsic);
        let programs: Vec<MappedProgram> = mappings.iter().map(lower).collect();
        let random = best_of(guided.evaluations.len(), seed, &accel, |rng| {
            let prog = &programs[rng.gen_range(0..programs.len())];
            (prog, random_schedule(prog, &accel, rng))
        });
        let gain = random / guided.cycles();
        wins += usize::from(gain > 1.0);
        let ours = format!("{random:.0} / {:.0} ({gain:.2}x)", guided.cycles());
        t.info(label, ours);
    }
    let ours = format!("{wins} of {}", t.rows.len());
    t.claim("layers where model+genetic beats random");
    t.info("wins", ours);
    t.done("explorer", "explorer ablation", &["wins"])
}

// ---- EXPERIMENTS.md blocks -------------------------------------------------

fn table(header: &str, lines: impl Iterator<Item = String>) -> String {
    let columns = header.matches('|').count() - 1;
    let mut out = format!("{header}\n{}|\n", "|---".repeat(columns));
    for line in lines {
        out += &line;
        out.push('\n');
    }
    out
}

fn line(row: &Row) -> String {
    let cells = [&row.id, &row.claim, &row.paper, &row.ours].map(|c| c.replace('*', r"\*"));
    format!("| {} | {} |", cells.join(" | "), row.verdict())
}

/// The generated blocks, `(marker name, markdown table)`: the summary of
/// every headline row first, then one detail table per experiment.
pub fn blocks(experiments: &[Experiment]) -> Vec<(String, String)> {
    let summary = experiments.iter().flat_map(|e| {
        let headline = e
            .rows
            .iter()
            .filter(|r| e.headline.contains(&r.id.as_str()));
        headline.map(|r| format!("| {} {}", e.title, line(r)))
    });
    let header = "| Experiment | Row | Claim | Paper | Ours | Verdict |";
    let mut out = vec![("summary".to_string(), table(header, summary))];
    for e in experiments {
        let header = "| Row | Claim | Paper | Ours | Verdict |";
        let rows = table(header, e.rows.iter().map(line));
        out.push((e.key.to_string(), rows));
    }
    out
}

/// The byte range between block `key`'s markers in `doc`.
fn body(doc: &str, key: &str) -> Result<std::ops::Range<usize>, String> {
    let begin = format!("<!-- BEGIN scorecard:{key} -->\n");
    let end = format!("<!-- END scorecard:{key} -->");
    let missing = |marker: &str| format!("no `{}` marker", marker.trim());
    let start = doc.find(&begin).ok_or_else(|| missing(&begin))? + begin.len();
    let len = doc[start..].find(&end).ok_or_else(|| missing(&end))?;
    Ok(start..start + len)
}

/// `doc` with the text between each block's markers replaced by the block.
/// Fails when a block's markers are missing.
pub fn splice(doc: &str, blocks: &[(String, String)]) -> Result<String, String> {
    let mut out = doc.to_string();
    for (key, table) in blocks {
        let range = body(&out, key)?;
        out.replace_range(range, table);
    }
    Ok(out)
}

/// The table rows of block `key` of `doc`, keyed by the cells before the
/// claim (the row id; in the summary also the experiment).
fn block_rows(doc: &str, key: &str) -> BTreeMap<String, String> {
    let Ok(range) = body(doc, key) else {
        return BTreeMap::new();
    };
    let rows = doc[range].lines().skip(2).map(|line| {
        let line = line.trim_start_matches("| ").trim_end_matches(" |");
        let cells: Vec<&str> = line.split(" | ").collect();
        let split = cells.len().saturating_sub(4);
        (cells[..split].join(" | "), cells[split..].join(" | "))
    });
    rows.collect()
}

/// One entry per generated row that differs between `committed` and
/// `fresh` (moved, new or gone), naming its block and row and giving both
/// values. Empty when every row agrees.
pub fn moved_rows(committed: &str, fresh: &str, keys: &[String]) -> Vec<String> {
    let mut moved = Vec::new();
    for key in keys {
        let (was, now) = (block_rows(committed, key), block_rows(fresh, key));
        for id in was.keys().chain(now.keys()).collect::<BTreeSet<_>>() {
            let (a, b) = (was.get(id), now.get(id));
            if a != b {
                let [a, b] = [a, b].map(|v| v.map_or("(no such row)", String::as_str));
                let report = format!("{key}: {id}\n    committed: {a}\n    fresh:     {b}");
                moved.push(report);
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_verdict_rule_per_value_kind() {
        let cases = [
            ("105", "585", Rule::Exact, "differs"),
            ("[c, k]", "[i1] <- [c,  k]", Rule::Exact, "exact"),
            ("[c, k]", "[i1] <- [k, c]", Rule::Exact, "differs"),
            ("2.38x", "2.17x", Rule::Side(1.0), "same side"),
            ("0.91x (a)", "1.09x (b)", Rule::Side(1.0), "inverted"),
            ("63.2%", "104.0%", Rule::Side(100.0), "inverted"),
            ("0.250", "0.624", Rule::Side(0.1), "same side"),
            ("most", "6 of 6", Rule::Holds(true), "holds"),
            ("fails", "fails on L2", Rule::Holds(false), "fails"),
            ("—", "925", Rule::Unscored, "—"),
        ];
        for (paper, ours, rule, verdict) in cases {
            let mut t = Rows::default();
            t.add("id", paper, ours.to_string(), rule);
            assert_eq!(t.rows[0].verdict(), verdict, "{paper} vs {ours}");
        }
    }

    #[test]
    fn a_stale_scorecard_names_each_moved_row() {
        let fig9 = |fix_m1: &str| {
            let mut t = Rows::default();
            t.claim("share");
            t.add("fixM1", "60.0%", fix_m1.into(), Rule::Side(100.0));
            t.add("fixM2", "60.0%", "53.4%".into(), Rule::Side(100.0));
            blocks(&[t.done("fig9", "Fig 9", &["fixM1"])])
        };
        let markers = "<!-- BEGIN scorecard:summary -->\n<!-- END scorecard:summary -->\n\
                       <!-- BEGIN scorecard:fig9 -->\n<!-- END scorecard:fig9 -->\n";
        let keys = ["summary".to_string(), "fig9".to_string()];
        assert!(splice("no markers", &fig9("77.3%")).is_err());
        let committed = splice(markers, &fig9("77.3%")).expect("markers present");
        assert!(moved_rows(&committed, &committed, &keys).is_empty());

        let fresh = splice(&committed, &fig9("104.0%")).expect("markers present");
        let was = "\n    committed: share | 60.0% | 77.3% | same side";
        let now = "\n    fresh:     share | 60.0% | 104.0% | inverted";
        let expected = [
            format!("summary: Fig 9 | fixM1{was}{now}"),
            format!("fig9: fixM1{was}{now}"),
        ];
        assert_eq!(moved_rows(&committed, &fresh, &keys), expected);
    }
}
