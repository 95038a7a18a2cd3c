//! The MoRER repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <construct|serve-read|ingest-replicated> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs MoRER's three paths: construction (records →
//! repository → solved problems), serving (`/solve` over HTTP) and durable
//! ingest (`/ingest` → WAL → replica). The workload's own path runs at full
//! size and takes the measuring time; the other two run at a small fixed
//! companion size, so every run reports every metric. The phases take turns
//! in rounds (see `ROUNDS`); `perfbench/README.md` gives the reasoning,
//! the layer-to-metric predictions and the measured spread. With `--trace 0` the
//! last stdout line carries the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a separate traced run; human-readable detail goes to
//! stderr and the spans of a traced run to `.perfbench/`.

mod construct;
mod ingest;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use morer_core::repository::ModelRepository;

use crate::trace::Tracer;

/// End-to-end metrics every `--trace 0` run prints.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "peak_rss_mb",
    "construct_s",
    "f1",
    "read_p50_ms",
    "read_max_rps",
    "ingest_p50_ms",
    "replica_lag_p90_ms",
    "wal_bytes_per_ingest",
];

/// How often each phase's set-up runs; `setup_s` reports the median.
const SETUP_REPS: usize = 3;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What one phase measured.
#[derive(Default)]
pub struct PhaseOut {
    /// Median set-up time of the phase.
    pub setup_s: f64,
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Human-readable detail: input sizes, per-rate accounting.
    pub notes: Vec<String>,
    /// The phase's spans (traced runs only).
    pub tracer: Option<Tracer>,
}

impl PhaseOut {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.insert(name.to_owned(), (value, unit));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.insert(name.to_owned(), (value, unit));
    }

    /// Record a detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record the accounting of a traced phase: the share of the end-to-end
    /// time `e2e_s` that the layer self-times `layers_s` leave unexplained,
    /// and the tracing overhead of a replay that took `traced_s` against
    /// `untraced_s` for the same work.
    pub fn accounting(
        &mut self,
        phase: &str,
        e2e_s: f64,
        layers_s: f64,
        traced_s: f64,
        untraced_s: f64,
    ) {
        self.layer(
            &format!("{phase}.unexplained_frac"),
            (e2e_s - layers_s) / e2e_s,
            "ratio",
        );
        self.layer(
            &format!("{phase}.trace_overhead_frac"),
            traced_s / untraced_s - 1.0,
            "ratio",
        );
        self.note(format!(
            "{phase} accounting: end_to_end_s={e2e_s:.6} layer_self_s={layers_s:.6} \
             residual_s={:.6} traced_s={traced_s:.6} untraced_s={untraced_s:.6}",
            e2e_s - layers_s
        ));
    }
}

/// Correctness gates: every identity a workload asserts before it reports.
#[derive(Default)]
pub struct Gates {
    passed: usize,
    failed: Vec<String>,
}

impl Gates {
    /// Record one gate.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(what.to_owned());
        }
    }
}

/// The canonical bytes of a repository (`save_json`), for byte-identity
/// gates.
pub fn canonical(repository: &ModelRepository) -> Vec<u8> {
    let mut buf = Vec::new();
    repository
        .save_json(&mut buf)
        .expect("encoding a repository into memory cannot fail");
    buf
}

/// Run a set-up [`SETUP_REPS`] times; return the last result and the
/// median time.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS is positive"), stats::median(&times))
}

/// Seed of the companion phases' inputs.
const COMPANION_SEED: u64 = 7919;

/// Rounds the phases of a run take turns in.
const ROUNDS: usize = 6;
/// Idle time before each round's latency measurements.
const ROUND_PAUSE: std::time::Duration = std::time::Duration::from_millis(500);

/// A phase between its set-up and its report.
enum Running {
    Construct(construct::Construct),
    Serve(Box<serve::Serve>),
    Ingest(ingest::Ingest),
}

/// One phase of a workload, with its size.
enum Phase {
    Construct(construct::Params),
    Serve(serve::Params),
    Ingest(ingest::Params),
}

/// The phases of `workload`, its own path first.
fn plan(workload: &str, seconds: f64) -> Option<Vec<Phase>> {
    let construct = Phase::Construct(construct::Params::full(seconds));
    let serve = Phase::Serve(serve::Params::full(seconds));
    let ingest = Phase::Ingest(ingest::Params::full(seconds));
    let small_construct = Phase::Construct(construct::Params::COMPANION);
    let small_serve = Phase::Serve(serve::Params::COMPANION);
    let small_ingest = Phase::Ingest(ingest::Params::COMPANION);
    match workload {
        "construct" => Some(vec![construct, small_serve, small_ingest]),
        "serve-read" => Some(vec![serve, small_construct, small_ingest]),
        "ingest-replicated" => Some(vec![ingest, small_construct, small_serve]),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <construct|serve-read|ingest-replicated> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Some(phases) = plan(&args.workload, args.seconds) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    // the benchmark's scratch directory, inside the working directory
    let dir = Path::new(".perfbench").join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");

    let mut gates = Gates::default();
    let mut running: Vec<Running> = Vec::new();
    let mut busy_s = Vec::new();
    for (i, phase) in phases.into_iter().enumerate() {
        // the workload's own phase draws its inputs from the run's seed;
        // companion phases run fixed inputs, so their metrics move with the
        // program and not with the draw
        let seed = if i == 0 {
            args.seed
        } else {
            COMPANION_SEED + i as u64
        };
        let start = Instant::now();
        running.push(match phase {
            Phase::Construct(p) => Running::Construct(construct::Construct::setup(p, seed)),
            Phase::Serve(p) => Running::Serve(Box::new(serve::Serve::setup(p, seed, &mut gates))),
            Phase::Ingest(p) => Running::Ingest(ingest::Ingest::setup(p, seed, &dir, &mut gates)),
        });
        busy_s.push(start.elapsed().as_secs_f64());
    }
    // the phases take turns, a share of each per round, so a stretch of
    // outside load on the machine falls on every phase alike instead of on
    // whichever phase happened to run then. Within a round the latency
    // measurements (serve, then ingest) go first, after a pause, and the
    // CPU-bound constructions last: request latencies measured right after
    // seconds of full load on both cores read up to twice as high.
    let mut order: Vec<usize> = (0..running.len()).collect();
    order.sort_by_key(|&i| match running[i] {
        Running::Serve(_) => 0,
        Running::Ingest(_) => 1,
        Running::Construct(_) => 2,
    });
    for round in 0..ROUNDS {
        std::thread::sleep(ROUND_PAUSE);
        for &i in &order {
            let (phase, busy) = (&mut running[i], &mut busy_s[i]);
            let start = Instant::now();
            match phase {
                Running::Construct(p) => p.round(round, ROUNDS),
                Running::Serve(p) => p.round(round, ROUNDS),
                Running::Ingest(p) => p.round(round, ROUNDS),
            }
            *busy += start.elapsed().as_secs_f64();
        }
    }
    let mut outs = Vec::new();
    for (phase, busy) in running.into_iter().zip(busy_s) {
        let start = Instant::now();
        let (name, out) = match phase {
            Running::Construct(p) => ("construct", p.finish(args.trace, &mut gates)),
            Running::Serve(p) => ("serve", p.finish(args.trace, &mut gates)),
            Running::Ingest(p) => ("ingest", p.finish(args.trace, &mut gates)),
        };
        eprintln!(
            "phase {name}: {:.1} s (setup median {:.2} s)",
            busy + start.elapsed().as_secs_f64(),
            out.setup_s
        );
        outs.push(out);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // the workload's own phase reports first; companions fill in the rest
    let mut metrics = Metrics::new();
    let (mut attempted, mut failed, mut setup_s) = (0u64, 0u64, 0.0);
    let (mut spans, mut span_count) = (String::new(), 0);
    for out in &outs {
        attempted += out.attempted;
        failed += out.failed;
        setup_s += out.setup_s;
        let source = if args.trace { &out.layers } else { &out.e2e };
        for (k, v) in source {
            metrics.entry(k.clone()).or_insert(*v);
        }
        for line in &out.notes {
            eprintln!("{line}");
        }
        if let Some(t) = &out.tracer {
            spans.push_str(&t.to_jsonl(span_count));
            span_count += t.spans().len();
        }
    }
    if args.trace {
        let path =
            Path::new(".perfbench").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("warning: could not write spans to {}: {e}", path.display());
        } else {
            eprintln!("spans written to {}", path.display());
        }
    } else {
        metrics.insert("setup_s".into(), (setup_s, "s"));
        metrics.insert("peak_rss_mb".into(), (stats::peak_rss_mb(), "MB"));
        for name in END_TO_END {
            gates.check(
                metrics.get(name).is_some_and(|(v, _)| v.is_finite()),
                &format!("metric {name} measured"),
            );
        }
    }
    for f in &gates.failed {
        eprintln!("GATE FAILED: {f}");
    }
    eprintln!(
        "gates: {} passed, {} failed",
        gates.passed,
        gates.failed.len()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gates.failed.is_empty(),
        attempted.max(1),
        failed,
        body.join(", ")
    );
}
