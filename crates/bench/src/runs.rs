//! Shared method runners: execute the (dataset × method × budget) matrix the
//! quality table (Table 4), speedup table (Table 5) and runtime figure
//! (Fig. 5) are all derived from.

use std::time::{Duration, Instant};

use morer_al::{ActiveLearner, AlPool, AlmserAl, AlmserConfig};
use morer_baselines::anymatch::AnyMatchSim;
use morer_baselines::ditto::DittoSim;
use morer_baselines::sudowoodo::SudowoodoSim;
use morer_baselines::transer::TransEr;
use morer_baselines::unicorn::UnicornSim;
use morer_baselines::{BaselineContext, ErBaseline};
use morer_core::prelude::*;
use morer_data::{camera, computer, music, Benchmark, DatasetScale};
use morer_ml::forest::{RandomForest, RandomForestConfig};
use morer_ml::metrics::PairCounts;

use crate::Options;

/// Labeling regime of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetSpec {
    /// Oracle-label budget (AL and semi-supervised methods).
    Labels(usize),
    /// Fraction of the initial problems' labels (supervised methods).
    Fraction(f64),
}

impl std::fmt::Display for BudgetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Labels(n) => write!(f, "{n}"),
            Self::Fraction(x) if (*x - 1.0).abs() < 1e-9 => write!(f, "all"),
            Self::Fraction(x) => write!(f, "{:.0}%", x * 100.0),
        }
    }
}

/// One completed run of one method.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub dataset: String,
    pub method: String,
    pub budget: BudgetSpec,
    pub counts: PairCounts,
    pub runtime: Duration,
    /// MoRER overhead: distribution analysis + clustering (striped in Fig. 5).
    pub overhead: Duration,
    /// MoRER model-selection time (dotted in Fig. 5).
    pub selection: Duration,
    pub labels_used: usize,
}

/// Build one of the three benchmarks by name.
pub fn load_benchmark(name: &str, scale: DatasetScale, seed: u64) -> Benchmark {
    match name {
        "dexter" => camera(scale, 0.5, seed),
        "wdc" | "wdc-computer" => computer(scale, seed),
        "music" => music(scale, seed),
        other => panic!("unknown dataset {other:?} (expected dexter|wdc|music)"),
    }
}

/// Short display key for a dataset ("D", "W", "M" as in Table 4).
pub fn dataset_key(name: &str) -> &'static str {
    match name {
        "dexter" => "D",
        "wdc" | "wdc-computer" => "W",
        _ => "M",
    }
}

fn morer_config(training: TrainingMode, budget: usize, seed: u64) -> MorerConfig {
    MorerConfig { budget, training, seed, ..MorerConfig::default() }
}

/// MoRER with the given training mode; `sel_base` selection as in Table 4.
pub fn run_morer(bench: &Benchmark, training: TrainingMode, budget: BudgetSpec, seed: u64) -> RunResult {
    let config = match budget {
        BudgetSpec::Labels(b) => morer_config(training, b, seed),
        BudgetSpec::Fraction(f) => {
            morer_config(TrainingMode::Supervised { fraction: f }, 0, seed)
        }
    };
    let start = Instant::now();
    let (mut morer, report) = Morer::build(bench.initial_problems(), &config);
    let (counts, _) = morer.solve_and_score(&bench.unsolved_problems());
    let runtime = start.elapsed();
    let labels_used = match budget {
        BudgetSpec::Labels(_) => report.labels_used,
        BudgetSpec::Fraction(f) => {
            let total: usize = bench.initial_problems().iter().map(|p| p.num_pairs()).sum();
            ((total as f64) * f).round() as usize
        }
    };
    let method = match training {
        TrainingMode::ActiveLearning(AlMethod::Almser) => "morer+almser",
        TrainingMode::ActiveLearning(AlMethod::Bootstrap) => "morer+bs",
        TrainingMode::ActiveLearning(AlMethod::Random) => "morer+random",
        TrainingMode::Supervised { .. } => "morer",
    };
    RunResult {
        dataset: bench.name.clone(),
        method: method.into(),
        budget,
        counts,
        runtime,
        overhead: report.timings.analysis + report.timings.clustering,
        selection: morer.timings.selection,
        labels_used,
    }
}

/// Almser standalone: graph-boosted AL over the union of all initial
/// problems, one global model, classify all unsolved problems.
pub fn run_almser_standalone(bench: &Benchmark, budget: usize, seed: u64) -> RunResult {
    let start = Instant::now();
    let initial = bench.initial_problems();
    let learner = AlmserAl::new(AlmserConfig { seed, ..Default::default() });
    let mut pool = AlPool::from_problems(&initial);
    let result = learner.select(&mut pool, budget);
    let forest = RandomForest::fit(
        &result.training,
        &RandomForestConfig { seed, ..Default::default() },
    );
    let mut counts = PairCounts::new();
    for p in bench.unsolved_problems() {
        for i in 0..p.num_pairs() {
            counts.record(forest.predict(p.features.row(i)), p.labels[i]);
        }
    }
    RunResult {
        dataset: bench.name.clone(),
        method: "almser".into(),
        budget: BudgetSpec::Labels(budget),
        counts,
        runtime: start.elapsed(),
        overhead: Duration::ZERO,
        selection: Duration::ZERO,
        labels_used: result.labels_used,
    }
}

/// Run one of the baseline methods.
pub fn run_baseline(
    bench: &Benchmark,
    baseline: &dyn ErBaseline,
    budget: BudgetSpec,
    seed: u64,
) -> RunResult {
    let ctx = BaselineContext {
        dataset: &bench.dataset,
        initial: bench.initial_problems(),
        unsolved: bench.unsolved_problems(),
        budget: match budget {
            BudgetSpec::Labels(b) => b,
            BudgetSpec::Fraction(_) => 0,
        },
        train_fraction: match budget {
            BudgetSpec::Labels(_) => 1.0,
            BudgetSpec::Fraction(f) => f,
        },
        seed,
    };
    let start = Instant::now();
    let run = baseline.run(&ctx);
    RunResult {
        dataset: bench.name.clone(),
        method: baseline.name().into(),
        budget,
        counts: run.counts,
        runtime: start.elapsed(),
        overhead: Duration::ZERO,
        selection: Duration::ZERO,
        labels_used: run.labels_used,
    }
}

/// Execute the full evaluation matrix of Tables 4-5 / Fig. 5.
pub fn run_matrix(opts: &Options) -> Vec<RunResult> {
    let mut results = Vec::new();
    for name in &opts.datasets {
        let bench = load_benchmark(name, opts.scale, opts.seed);
        eprintln!("[matrix] dataset {name}: {:?}", bench.stats());
        // budget-limited methods
        for &b in &opts.budgets {
            let spec = BudgetSpec::Labels(b);
            for training in
                [TrainingMode::ActiveLearning(AlMethod::Almser), TrainingMode::ActiveLearning(AlMethod::Bootstrap)]
            {
                let r = run_morer(&bench, training, spec, opts.seed);
                eprintln!("[matrix]   {} b={b}: F1 {:.3} ({:?})", r.method, r.counts.f1(), r.runtime);
                results.push(r);
            }
            let r = run_almser_standalone(&bench, b, opts.seed);
            eprintln!("[matrix]   almser b={b}: F1 {:.3} ({:?})", r.counts.f1(), r.runtime);
            results.push(r);
            for baseline in [&SudowoodoSim::default() as &dyn ErBaseline, &AnyMatchSim::default()] {
                let r = run_baseline(&bench, baseline, spec, opts.seed);
                eprintln!(
                    "[matrix]   {} b={b}: F1 {:.3} ({:?})",
                    r.method,
                    r.counts.f1(),
                    r.runtime
                );
                results.push(r);
            }
        }
        // supervised methods at 50% and all
        for fraction in [0.5, 1.0] {
            let spec = BudgetSpec::Fraction(fraction);
            let r = run_morer(&bench, TrainingMode::Supervised { fraction }, spec, opts.seed);
            eprintln!(
                "[matrix]   morer sup {spec}: F1 {:.3} ({:?})",
                r.counts.f1(),
                r.runtime
            );
            results.push(r);
            for baseline in
                [&DittoSim::default() as &dyn ErBaseline, &UnicornSim::default(), &TransEr::default()]
            {
                let r = run_baseline(&bench, baseline, spec, opts.seed);
                eprintln!(
                    "[matrix]   {} {spec}: F1 {:.3} ({:?})",
                    r.method,
                    r.counts.f1(),
                    r.runtime
                );
                results.push(r);
            }
        }
    }
    results
}

/// Find one run in the matrix.
pub fn find<'a>(
    matrix: &'a [RunResult],
    dataset: &str,
    method: &str,
    budget: BudgetSpec,
) -> Option<&'a RunResult> {
    matrix
        .iter()
        .find(|r| r.dataset == dataset && r.method == method && r.budget == budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_spec_formats_like_the_paper() {
        assert_eq!(format!("{}", BudgetSpec::Labels(1500)), "1500");
        assert_eq!(format!("{}", BudgetSpec::Fraction(0.5)), "50%");
        assert_eq!(format!("{}", BudgetSpec::Fraction(1.0)), "all");
    }

    #[test]
    fn dataset_keys_match_table4() {
        assert_eq!(dataset_key("dexter"), "D");
        assert_eq!(dataset_key("wdc-computer"), "W");
        assert_eq!(dataset_key("music"), "M");
    }

    #[test]
    fn load_benchmark_resolves_names() {
        let b = load_benchmark("wdc", DatasetScale::Tiny, 3);
        assert_eq!(b.name, "wdc-computer");
        let b = load_benchmark("music", DatasetScale::Tiny, 3);
        assert_eq!(b.name, "music");
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let _ = load_benchmark("nope", DatasetScale::Tiny, 3);
    }

    #[test]
    fn morer_run_produces_scored_result() {
        let bench = load_benchmark("wdc", DatasetScale::Tiny, 3);
        let r = run_morer(
            &bench,
            TrainingMode::ActiveLearning(AlMethod::Bootstrap),
            BudgetSpec::Labels(100),
            3,
        );
        assert_eq!(r.method, "morer+bs");
        assert!(r.counts.total() > 0);
        assert!(r.labels_used <= 100);
        assert!(find(std::slice::from_ref(&r), "wdc-computer", "morer+bs", BudgetSpec::Labels(100)).is_some());
        assert!(find(&[r], "wdc-computer", "morer+bs", BudgetSpec::Labels(200)).is_none());
    }

    #[test]
    fn almser_standalone_run_is_scored() {
        let bench = load_benchmark("wdc", DatasetScale::Tiny, 3);
        let r = run_almser_standalone(&bench, 80, 3);
        assert_eq!(r.method, "almser");
        assert_eq!(r.labels_used, 80);
        assert!(r.counts.f1() > 0.5, "F1 = {}", r.counts.f1());
    }
}
