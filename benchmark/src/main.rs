//! End-to-end and per-layer benchmark of the bmbe flow.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload corpus_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (closed loop, one client, no network):
//!
//! * `corpus_cold` — a fixed-seed generated corpus from source text through
//!   the front end and `run_batch`'s per-job path over a fresh
//!   in-memory cache per pass, with a compiled-sim stage per job: synthesis
//!   dominates, the cache is written.
//! * `corpus_warm` — the same corpus and call path over a disk cache filled
//!   during set-up: synthesis is bypassed, the cache is read.
//! * `sim_sweep` — designs synthesized during set-up, then many scenario
//!   variants per design on the compiled backend, with an event-engine
//!   oracle subset: simulation does all the work.
//!
//! `--seed` draws the run's inputs (design order, scenario data); the corpus
//! itself comes from `--corpus-seed` (default 7), so QoR is a fixed
//! quantity a later change may not worsen. With `--trace 0` the last stdout
//! line carries every end-to-end metric; with `--trace 1` the run replays
//! the flow through the crates' public calls with its own timers around
//! each one and reports the per-layer ledger instead. Nothing inside the
//! program is instrumented.
//!
//! The benchmark is hermetic: it clears every `BMBE_*` variable before any
//! library code reads one, passes thread counts explicitly, and keeps its
//! disk cache under `.bench_scratch/` in the working directory.

mod chain;
mod corpus;
mod sweep;

use bmbe_designs::scenarios::Check;
use bmbe_flow::SimOutcome;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Corpus size of both corpus workloads (all five families appear).
pub const CORPUS_DESIGNS: usize = 200;

/// Set-up is repeated at least this many times, and for at least
/// [`SETUP_MIN_SECONDS`], and its median reported, so work moved into set-up
/// shows in `setup_s` above the host's timing noise.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Per-design samples needed so that at least ten lie beyond p99.
const LATENCY_SAMPLES: usize = 1_000;

/// Largest share of the untraced pass time the traced ledger may leave
/// unattributed before the traced run fails.
const UNATTRIBUTED_BOUND: f64 = 0.15;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corpus_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corpus_seed: 7,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--corpus-seed" => args.corpus_seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One metric of the final JSON line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: usize,
    /// Flow errors, check mismatches and oracle divergences.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Timed end-to-end samples shared by every workload.
#[derive(Default)]
pub struct Samples {
    /// Per-pass `(wall seconds, designs, scenarios, simulated events)`.
    passes: Vec<(f64, usize, usize, u64)>,
    /// Per-design milliseconds, source (or sweep start) to report.
    design_ms: Vec<f64>,
}

impl Samples {
    /// Records one timed pass and its per-design latencies.
    pub fn pass(&mut self, wall_s: f64, design_ms: &[f64], scenarios: usize, events: u64) {
        self.passes
            .push((wall_s, design_ms.len(), scenarios, events));
        self.design_ms.extend_from_slice(design_ms);
    }

    /// Whether a timed loop may stop: the time budget is spent, at least
    /// three passes ran, and enough per-design samples exist for p99.
    pub fn done(&self, start: Instant, seconds: f64) -> bool {
        self.passes.len() >= 3
            && self.design_ms.len() >= LATENCY_SAMPLES
            && start.elapsed().as_secs_f64() >= seconds
    }

    /// The five throughput and latency metrics; rates are per-pass medians.
    pub fn metrics(&mut self) -> Vec<Metric> {
        self.design_ms.sort_by(f64::total_cmp);
        let rate = |f: fn(&(f64, usize, usize, u64)) -> f64| {
            median(&self.passes.iter().map(|p| f(p) / p.0).collect::<Vec<_>>())
        };
        vec![
            metric("designs_per_s", rate(|p| p.1 as f64), "1/s"),
            metric("design_p50_ms", percentile(&self.design_ms, 0.50), "ms"),
            metric("design_p99_ms", percentile(&self.design_ms, 0.99), "ms"),
            metric("scenarios_per_s", rate(|p| p.2 as f64), "1/s"),
            metric("sim_events_per_s", rate(|p| p.3 as f64), "1/s"),
        ]
    }
}

/// Nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The benchmark's worker budget: every available core, never more.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The front end: mini-Balsa source text to a compiled handshake netlist.
pub fn front(source: &str) -> Result<bmbe_balsa::CompiledDesign, String> {
    let program = bmbe_balsa::parse(source).map_err(|e| format!("parse: {e}"))?;
    let procedure = program.procedures.first().ok_or("no procedure")?;
    bmbe_balsa::compile_procedure(procedure).map_err(|e| format!("compile: {e}"))
}

/// Compares a simulated outcome with a design's expected values. The
/// expectation comes from the design generator's own model of the design,
/// never from the flow under test.
pub fn check_outputs(check: &Check, outcome: &SimOutcome) -> Result<(), String> {
    if !outcome.completed {
        return Err("did not reach its done condition".into());
    }
    match check {
        Check::None => Ok(()),
        Check::OutputEquals { port, values } => match outcome.outputs.get(port) {
            Some(got) if got == values => Ok(()),
            got => Err(format!("port {port}: expected {values:?}, got {got:?}")),
        },
        Check::MemoryEquals { memory, cells } => {
            let mem = outcome
                .memories
                .get(memory)
                .ok_or(format!("no memory {memory}"))?;
            match cells.iter().find(|(a, v)| mem.get(*a) != Some(v)) {
                None => Ok(()),
                Some((a, v)) => Err(format!(
                    "{memory}[{a}]: expected {v}, got {:?}",
                    mem.get(*a)
                )),
            }
        }
    }
}

/// splitmix64, for the run's seeded input draws.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs `setup` repeatedly (see [`SETUP_REPEATS`]), keeping the last result
/// and the median seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let begin = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let result = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPEATS && begin.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS {
            return Ok((result, median(&times)));
        }
    }
}

/// The traced run's attribution check and overhead rows: `untraced_ms` and
/// `traced_ms` are per-pass means of the production call and of the
/// replay, `layer_ms` the sum of the replay's layer self-times.
pub fn attribution(
    untraced_ms: f64,
    traced_ms: f64,
    layer_ms: f64,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let unattributed = untraced_ms - layer_ms;
    if unattributed.abs() > UNATTRIBUTED_BOUND * untraced_ms {
        failures.push(format!(
            "attribution: layers account for {layer_ms:.3} of {untraced_ms:.3} ms untraced \
             (unattributed {unattributed:.3} ms exceeds {:.0}%)",
            UNATTRIBUTED_BOUND * 100.0
        ));
    }
    vec![
        metric("unattributed_ms", unattributed, "ms"),
        metric("trace.untraced_ms", untraced_ms, "ms"),
        metric("trace.overhead_ms", traced_ms - untraced_ms, "ms"),
    ]
}

fn json_line(outcome: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failures.len()
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<Outcome, String> {
    let scratch =
        PathBuf::from(".bench_scratch").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = match args.workload.as_str() {
        "corpus_cold" => corpus::run(args, None),
        "corpus_warm" => corpus::run(args, Some(&scratch)),
        "sim_sweep" => sweep::run(args),
        other => Err(format!(
            "unknown workload {other} (corpus_cold, corpus_warm, sim_sweep)"
        )),
    };
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).map_err(|e| format!("removing {scratch:?}: {e}"))?;
    }
    // Left behind only while another run is still using it.
    let _ = std::fs::remove_dir(".bench_scratch");
    let mut outcome = outcome?;
    if !args.trace {
        outcome
            .metrics
            .push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    }
    Ok(outcome)
}

fn main() {
    // Hermetic: no library default may pick up cache directories, thread
    // counts, fault plans or trace sinks from the caller's environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BMBE_") {
            std::env::remove_var(&key);
        }
    }
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            for failure in outcome.failures.iter().take(20) {
                eprintln!("benchmark: failure: {failure}");
            }
            println!("{}", json_line(&outcome));
        }
        Err(e) => {
            eprintln!("benchmark: error: {e}");
            std::process::exit(2);
        }
    }
}
