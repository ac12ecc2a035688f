//! `sim_sweep`: simulation of already-synthesized designs.
//!
//! Set-up synthesizes the four paper designs and a prefix of the corpus
//! once. Every pass then runs a batch of seeded scenario variants per
//! design on the compiled backend (64-lane batches spread over the
//! benchmark's threads) and replays a subset of them on the event engine,
//! which is the oracle: compiled and event outcomes must agree under
//! `same_behaviour`, and each design's base scenario must match the
//! design's expected values.

use crate::chain::Ledger;
use crate::{
    attribution, check_outputs, metric, ms, permutation, repeat_setup, threads, Args, Outcome,
    Samples,
};
use bmbe_balsa::CompiledDesign;
use bmbe_designs::scenarios::Check;
use bmbe_designs::{all_designs, derive_seed, generate_corpus, variants_of, CorpusSpec};
use bmbe_flow::{
    batch_input_ports, compile_sim, run_control_flow_with, simulate_all, simulate_scenarios,
    simulate_with, to_flow_scenario, ControllerCache, FlowOptions, FlowResult, Scenario,
    SimBackend, SimBuildError, SimJob, SimOutcome,
};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::{SchedulerKind, LANES};
use std::time::Instant;

/// Corpus designs swept besides the four paper designs (a prefix of the
/// corpus workloads' corpus, so all five families appear).
const SWEEP_CORPUS: usize = 60;

/// Scenario variants per design per pass: two full 64-lane batches.
const SWEEP_LANES: usize = 2 * LANES;

/// Variants per design that the event engine replays as the oracle; the
/// base scenario is always one of them.
const ORACLE_LANES: usize = 4;

struct Swept {
    name: String,
    design: CompiledDesign,
    flow: FlowResult,
    check: Check,
    scenarios: Vec<Scenario>,
    oracle: Vec<usize>,
}

/// One design's sweep: `Ok((ms, lanes, compiled events, oracle events))`.
type SweepResult = Result<(f64, usize, u64, u64), String>;

/// Per-design work signature of a pass, which must repeat exactly.
type Signature = Vec<(usize, u64, u64)>;

struct Sweep {
    designs: Vec<Swept>,
    order: Vec<usize>,
    qor: (f64, usize, usize),
}

fn setup(args: &Args) -> Result<Sweep, String> {
    let library = Library::cmos035();
    let options = FlowOptions {
        threads: Some(threads()),
        fault: None,
        ..FlowOptions::optimized()
    };
    let cache = ControllerCache::new();
    let paper = all_designs().map_err(|e| format!("paper designs: {e}"))?;
    let corpus = generate_corpus(&CorpusSpec {
        seed: args.corpus_seed,
        designs: SWEEP_CORPUS,
    })
    .map_err(|e| format!("corpus: {e}"))?;
    let inputs = paper
        .into_iter()
        .map(|d| (d.name.to_string(), String::new(), d.compiled, d.scenario))
        .chain(
            corpus
                .into_iter()
                .map(|d| (d.name, d.params, d.compiled, d.scenario)),
        );
    let mut designs = Vec::new();
    let mut qor = (0.0, 0, 0);
    for (name, params, design, scenario) in inputs {
        let flow = run_control_flow_with(&design, &options, &library, &cache)
            .map_err(|e| format!("{name}: {e}"))?;
        qor.0 += flow.control_area;
        qor.1 += flow.total_products();
        qor.2 += flow.controllers.iter().map(|c| c.bm_states).sum::<usize>();
        let seed = derive_seed(args.seed, &name, &params, 0);
        let scenarios: Vec<Scenario> = variants_of(&scenario, SWEEP_LANES, seed)
            .iter()
            .map(to_flow_scenario)
            .collect();
        let mut oracle = vec![0];
        oracle.extend(
            permutation(SWEEP_LANES - 1, seed)
                .into_iter()
                .take(ORACLE_LANES - 1)
                .map(|i| i + 1),
        );
        designs.push(Swept {
            name,
            design,
            flow,
            check: scenario.check,
            scenarios,
            oracle,
        });
    }
    Ok(Sweep {
        order: permutation(designs.len(), args.seed),
        designs,
        qor,
    })
}

/// Checks one design's compiled outcomes against its expected values and
/// the event-engine oracle. Returns `(lanes, compiled events, oracle
/// events)`.
fn check(
    d: &Swept,
    compiled: &[Result<SimOutcome, SimBuildError>],
    oracle: &[Result<SimOutcome, SimBuildError>],
) -> Result<(usize, u64, u64), String> {
    let mut events = 0;
    for (lane, outcome) in compiled.iter().enumerate() {
        let outcome = outcome.as_ref().map_err(|e| format!("lane {lane}: {e}"))?;
        let expected = if lane == 0 { &d.check } else { &Check::None };
        check_outputs(expected, outcome).map_err(|e| format!("lane {lane}: {e}"))?;
        events += outcome.events;
    }
    let mut oracle_events = 0;
    for (&lane, reference) in d.oracle.iter().zip(oracle) {
        let reference = reference
            .as_ref()
            .map_err(|e| format!("oracle lane {lane}: {e}"))?;
        let ok = compiled[lane]
            .as_ref()
            .is_ok_and(|c| c.same_behaviour(reference));
        if !ok {
            return Err(format!("lane {lane}: compiled and event outcomes diverge"));
        }
        oracle_events += reference.events;
    }
    Ok((compiled.len(), events, oracle_events))
}

impl Sweep {
    /// One production pass on `threads` workers: per-design results in
    /// design order and the pass wall seconds.
    fn pass(&self, threads: usize) -> (f64, Vec<SweepResult>) {
        let delays = Delays::default();
        let mut results: Vec<_> = self.designs.iter().map(|_| Err(String::new())).collect();
        let start = Instant::now();
        for &i in &self.order {
            let d = &self.designs[i];
            let t = Instant::now();
            let compiled = simulate_scenarios(
                &d.design,
                &d.flow,
                &d.scenarios,
                &delays,
                SimBackend::Compiled,
                threads,
                None,
            );
            let jobs: Vec<SimJob<'_>> = d
                .oracle
                .iter()
                .map(|&lane| SimJob {
                    design: &d.design,
                    flow: &d.flow,
                    scenario: &d.scenarios[lane],
                    scheduler: SchedulerKind::default(),
                })
                .collect();
            let oracle = simulate_all(&jobs, &delays, threads);
            results[i] = check(d, &compiled, &oracle)
                .map(|(lanes, ev, oev)| (ms(t), lanes, ev, oev))
                .map_err(|e| format!("{}: {e}", d.name));
        }
        (start.elapsed().as_secs_f64(), results)
    }

    /// The traced replay of one serial pass.
    fn replay(&self, ledger: &mut Ledger) -> (f64, Signature, Vec<String>) {
        let delays = Delays::default();
        let start = Instant::now();
        let mut signature = vec![(0, 0, 0); self.designs.len()];
        let mut failures = Vec::new();
        for &i in &self.order {
            let d = &self.designs[i];
            let mut run = || -> Result<(usize, u64, u64), String> {
                let ports = batch_input_ports(&d.scenarios);
                let sim = ledger
                    .time("sim.compile_ms", || {
                        compile_sim(&d.design, &d.flow, &ports, None)
                    })
                    .map_err(|e| format!("compile: {e}"))?;
                let mut compiled = Vec::new();
                for chunk in d.scenarios.chunks(LANES) {
                    let batch = ledger.time("sim.batch_run_ms", || sim.run_batch(chunk));
                    match batch {
                        Ok(b) => compiled.extend(b.into_iter().map(Ok)),
                        Err(e) => return Err(format!("batch: {e}")),
                    }
                }
                let oracle: Vec<_> = d
                    .oracle
                    .iter()
                    .map(|&lane| {
                        ledger.time("sim.event_ms", || {
                            let s = &d.scenarios[lane];
                            simulate_with(&d.design, &d.flow, s, &delays, SchedulerKind::default())
                        })
                    })
                    .collect();
                check(d, &compiled, &oracle)
            };
            match run() {
                Ok((lanes, events, oracle_events)) => {
                    ledger.add("sim.lanes", lanes as f64);
                    ledger.add("sim.events", oracle_events as f64);
                    signature[i] = (lanes, events, oracle_events);
                }
                Err(e) => failures.push(format!("{} (traced): {e}", d.name)),
            }
        }
        (ms(start), signature, failures)
    }
}

fn signature_of(results: &[SweepResult]) -> Signature {
    results
        .iter()
        .map(|r| r.as_ref().map_or((0, 0, 0), |&(_, l, e, o)| (l, e, o)))
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (sweep, setup_s) = repeat_setup(|| setup(args))?;
    let workers = threads();
    let (_, warmup) = sweep.pass(workers);
    let reference = signature_of(&warmup);
    let mut failures: Vec<String> = warmup.iter().filter_map(|r| r.clone().err()).collect();
    let mut attempted = 0;
    if args.trace {
        return traced(args, &sweep, &reference, failures);
    }

    let mut samples = Samples::default();
    let start = Instant::now();
    while !samples.done(start, args.seconds) {
        let (wall_s, results) = sweep.pass(workers);
        attempted += results.len();
        if signature_of(&results) != reference {
            failures.push("simulated work differs from the warm-up pass".into());
        }
        let (mut design_ms, mut lanes, mut events) = (Vec::new(), 0, 0);
        for r in results {
            match r {
                Ok((ms, l, ev, oracle_ev)) => {
                    design_ms.push(ms);
                    lanes += l;
                    events += ev + oracle_ev;
                }
                Err(e) => failures.push(e),
            }
        }
        samples.pass(wall_s, &design_ms, lanes, events);
    }
    let (_, serial) = sweep.pass(1);
    if signature_of(&serial) != reference {
        failures.push("simulated work differs between 1 and every thread".into());
    }

    let (area, products, bm_states) = sweep.qor;
    let mut metrics = samples.metrics();
    metrics.extend([
        metric("setup_s", setup_s, "s"),
        metric("control_area_um2", area, "um2"),
        metric("products", products as f64, "count"),
        metric("bm_states", bm_states as f64, "count"),
        metric(
            "ok_ratio",
            1.0 - failures.len() as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    Ok(Outcome {
        attempted,
        failures,
        metrics,
    })
}

fn traced(
    args: &Args,
    sweep: &Sweep,
    reference: &Signature,
    mut failures: Vec<String>,
) -> Result<Outcome, String> {
    let mut total = Ledger::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let (wall_s, results) = sweep.pass(1);
        failures.extend(results.iter().filter_map(|r| r.clone().err()));
        untraced.push(wall_s * 1e3);
        let mut ledger = Ledger::default();
        let (wall, signature, replay_failures) = sweep.replay(&mut ledger);
        failures.extend(replay_failures);
        if signature != *reference {
            failures.push("traced replay simulated different work".into());
        }
        traced.push(wall);
        for (k, v) in ledger.rows {
            total.add(k, v);
        }
    }
    let passes = untraced.len();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let layer_ms = total.self_ms() / passes as f64;
    let mut metrics = Ledger::metrics(&total, passes);
    metrics.extend(attribution(
        mean(&untraced),
        mean(&traced),
        layer_ms,
        &mut failures,
    ));
    Ok(Outcome {
        attempted: passes * sweep.designs.len(),
        failures,
        metrics,
    })
}
