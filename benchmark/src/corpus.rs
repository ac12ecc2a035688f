//! `corpus_cold` and `corpus_warm`: the generated corpus from source text
//! to checked netlists through the flow's shape registry.
//!
//! Each design of a pass runs `run_batch`'s per-job body — the front
//! end, `flow_through_registry` over one registry shared by the whole pass,
//! and a compiled-sim stage — plus an on-the-fly ACR proof of its first
//! internal channels. The jobs fan out over the benchmark's threads with
//! `run_batch`'s split (job workers × inner threads). Both workloads
//! run this same path; they differ only in the cache under the registry:
//! a fresh in-memory cache per pass (cold: every shape is synthesized, the
//! cache is written) or a fresh cache over a disk directory filled during
//! set-up (warm: nothing is synthesized, the cache is read).

use crate::chain::{self, Ledger};
use crate::{
    attribution, check_outputs, front, metric, ms, permutation, repeat_setup, threads, Args,
    Metric, Outcome, Samples, CORPUS_DESIGNS,
};
use bmbe_balsa::CompiledDesign;
use bmbe_core::balsa_to_ch;
use bmbe_core::opt::{verify_acr, verify_acr_materialized, AcrVerdict, CtrlNetlist};
use bmbe_designs::scenarios::Check;
use bmbe_designs::{derive_seed, generate_corpus, variants_of, CorpusSpec};
use bmbe_flow::{
    batch_input_ports, compile_sim, flow_through_registry, simulate_scenarios, to_flow_scenario,
    CacheKey, ControllerCache, DiskCache, FlowOptions, FlowResult, KeyedProgram, Scenario,
    ShapeRegistry, SimBackend, SimOutcome, SynthArtifact,
};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::LANES;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Internal channels per design whose ACR obligation is proved each pass.
const ACR_CHANNELS: usize = 2;

/// Scenario lanes of each job's compiled-sim stage.
const SIM_LANES: usize = 8;

/// `(channel, verdict of the materializing reference verifier)` per
/// proved internal channel of a design.
type AcrRefs = Vec<(String, Result<AcrVerdict, String>)>;

/// One corpus design as the benchmark feeds it to the flow.
struct Entry {
    name: String,
    source: String,
    check: Check,
    scenarios: Vec<Scenario>,
    acr: AcrRefs,
}

/// Quality of results of one design, from the flow's own result.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Qor {
    area: f64,
    products: usize,
    bm_states: usize,
}

impl Qor {
    fn of(flow: &FlowResult) -> Qor {
        Qor {
            area: flow.control_area,
            products: flow.total_products(),
            bm_states: flow.controllers.iter().map(|c| c.bm_states).sum(),
        }
    }
}

struct DesignRun {
    ms: f64,
    qor: Qor,
    lanes: usize,
    events: u64,
}

/// One production pass: per-design results in corpus order, plus the
/// registry's shape accounting.
struct Pass {
    wall_s: f64,
    designs: Vec<Result<DesignRun, String>>,
    distinct: usize,
    synthesized: usize,
    shared: usize,
    hits: usize,
}

struct Corpus {
    entries: Vec<Entry>,
    /// The seeded order in which jobs are submitted.
    order: Vec<usize>,
    options: FlowOptions,
    library: Library,
    /// The warm workload's cache directory.
    disk: Option<PathBuf>,
    /// Per-design QoR of the warm set-up's cold fill pass.
    cold_qor: Option<Vec<Qor>>,
}

fn setup(args: &Args, disk: Option<&Path>) -> Result<Corpus, String> {
    let designs = generate_corpus(&CorpusSpec {
        seed: args.corpus_seed,
        designs: CORPUS_DESIGNS,
    })
    .map_err(|e| format!("corpus: {e}"))?;
    let workers = threads();
    let acr = bmbe_par::par_map(&designs, workers, |_, d| {
        reference_acr(&d.compiled).unwrap_or_else(|e| vec![(String::new(), Err(e))])
    });
    let entries: Vec<Entry> = designs
        .into_iter()
        .zip(acr)
        .map(|(d, acr)| {
            let seed = derive_seed(args.seed, &d.name, &d.params, 0);
            Entry {
                scenarios: variants_of(&d.scenario, SIM_LANES, seed)
                    .iter()
                    .map(to_flow_scenario)
                    .collect(),
                check: d.scenario.check,
                name: d.name,
                source: d.source,
                acr,
            }
        })
        .collect();
    let mut corpus = Corpus {
        order: permutation(entries.len(), args.seed),
        entries,
        options: FlowOptions {
            threads: Some(1),
            fault: None,
            ..FlowOptions::optimized()
        },
        library: Library::cmos035(),
        disk: disk.map(Path::to_path_buf),
        cold_qor: None,
    };
    if let Some(dir) = disk {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {dir:?}: {e}"))?;
        }
        let fill = corpus.pass(workers)?;
        let qor = fill
            .designs
            .iter()
            .zip(&corpus.entries)
            .map(|(r, e)| {
                r.as_ref()
                    .map(|r| r.qor)
                    .map_err(|f| format!("{}: {f}", e.name))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm fill: {e}"))?;
        corpus.cold_qor = Some(qor);
    }
    Ok(corpus)
}

/// The reference verdicts of a design's first internal channels, from the
/// materializing verifier (computed once, during set-up).
fn reference_acr(design: &CompiledDesign) -> Result<AcrRefs, String> {
    let ctrl = balsa_to_ch(&design.netlist).map_err(|e| format!("translate: {e}"))?;
    Ok(ctrl
        .internal_channels()
        .into_iter()
        .take(ACR_CHANNELS)
        .map(|ch| {
            let verdict = verify_acr_materialized(
                &ctrl.components[ch.active].program,
                &ctrl.components[ch.passive].program,
                &ch.name,
            );
            (ch.name, verdict.map_err(|e| e.to_string()))
        })
        .collect())
}

impl Corpus {
    fn cache(&self) -> Result<ControllerCache, String> {
        Ok(match &self.disk {
            Some(dir) => ControllerCache::with_disk(
                DiskCache::open(dir).map_err(|e| format!("disk cache {dir:?}: {e}"))?,
            ),
            None => ControllerCache::new(),
        })
    }

    /// Proves the design's ACR obligations on the fly and compares each
    /// verdict with the set-up reference. Returns the obligation count.
    fn check_acr(&self, entry: &Entry, ctrl: &CtrlNetlist) -> Result<usize, String> {
        let channels = ctrl.internal_channels();
        for (name, reference) in &entry.acr {
            let ch = channels
                .iter()
                .find(|c| &c.name == name)
                .ok_or_else(|| format!("acr: channel {name} missing"))?;
            let verdict = verify_acr(
                &ctrl.components[ch.active].program,
                &ctrl.components[ch.passive].program,
                &ch.name,
            );
            let agree = match (&verdict, reference) {
                (Ok(v), Ok(r)) => v.same_outcome(r),
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !agree {
                return Err(format!(
                    "acr {name}: {verdict:?} vs reference {reference:?}"
                ));
            }
        }
        Ok(entry.acr.len())
    }

    /// Checks a design's compiled-sim outcomes: every lane completes and
    /// the base scenario matches the design's expected values.
    fn check_sim(
        entry: &Entry,
        outcomes: &[Result<SimOutcome, bmbe_flow::SimBuildError>],
    ) -> Result<(usize, u64), String> {
        let mut events = 0;
        for (lane, outcome) in outcomes.iter().enumerate() {
            let outcome = outcome
                .as_ref()
                .map_err(|e| format!("sim lane {lane}: {e}"))?;
            let check = if lane == 0 {
                &entry.check
            } else {
                &Check::None
            };
            check_outputs(check, outcome).map_err(|e| format!("sim lane {lane}: {e}"))?;
            events += outcome.events;
        }
        Ok((outcomes.len(), events))
    }

    /// One job: source text to a checked, simulated netlist.
    fn run_design(
        &self,
        entry: &Entry,
        registry: &ShapeRegistry<'_>,
        inner: usize,
    ) -> Result<DesignRun, String> {
        let start = Instant::now();
        let design = front(&entry.source)?;
        let ctrl = balsa_to_ch(&design.netlist).map_err(|e| format!("translate: {e}"))?;
        self.check_acr(entry, &ctrl)?;
        let (flow, _) = flow_through_registry(&entry.name, &design, &self.options, registry, inner)
            .map_err(|f| f.to_string())?;
        let outcomes = simulate_scenarios(
            &design,
            &flow,
            &entry.scenarios,
            &Delays::default(),
            SimBackend::Compiled,
            inner,
            None,
        );
        let (lanes, events) = Self::check_sim(entry, &outcomes)?;
        Ok(DesignRun {
            ms: ms(start),
            qor: Qor::of(&flow),
            lanes,
            events,
        })
    }

    /// One production pass over the whole corpus on `threads` workers.
    fn pass(&self, threads: usize) -> Result<Pass, String> {
        let start = Instant::now();
        let cache = self.cache()?;
        let registry = ShapeRegistry::new(&cache, &self.library);
        let workers = threads.min(self.order.len()).max(1);
        let inner = (threads / workers).max(1);
        let results = bmbe_par::par_try_map(
            &self.order,
            workers,
            |_, &i| self.entries[i].name.clone(),
            |_, &i| self.run_design(&self.entries[i], &registry, inner),
        );
        let wall_s = start.elapsed().as_secs_f64();
        let mut designs: Vec<Option<Result<DesignRun, String>>> =
            self.entries.iter().map(|_| None).collect();
        for (&i, r) in self.order.iter().zip(results) {
            designs[i] = Some(r.unwrap_or_else(|e| Err(format!("panic: {}", e.payload))));
        }
        Ok(Pass {
            wall_s,
            designs: designs
                .into_iter()
                .map(|d| d.expect("every job ran"))
                .collect(),
            distinct: registry.distinct_shapes(),
            synthesized: registry.synthesized(),
            shared: registry.shared_waits(),
            hits: registry.cache_hits(),
        })
    }

    /// The pass's failures: failed jobs, QoR that differs from `reference`,
    /// and shape accounting that breaks the workload's contract (cold
    /// synthesizes every distinct shape once, warm synthesizes none).
    fn failures(&self, pass: &Pass, reference: &[Qor]) -> Vec<String> {
        let mut out = Vec::new();
        for ((r, e), want) in pass.designs.iter().zip(&self.entries).zip(reference) {
            match r {
                Err(f) => out.push(format!("{}: {f}", e.name)),
                Ok(r) if r.qor != *want => out.push(format!(
                    "{}: qor {:?} differs from {:?}",
                    e.name, r.qor, want
                )),
                Ok(_) => {}
            }
        }
        let expected = if self.disk.is_some() {
            0
        } else {
            pass.distinct
        };
        if pass.synthesized != expected {
            out.push(format!(
                "synthesized {} shapes of {} distinct, expected {expected}",
                pass.synthesized, pass.distinct
            ));
        }
        out
    }

    /// The traced replay of one serial pass: the same jobs in the same
    /// order, each public call timed on its own. Returns the replay's wall
    /// milliseconds (side probes excluded) and its failures. On the warm
    /// workload the loaded shapes are then written to `side`, a fresh
    /// directory, which times the disk store that the warm set-up pays.
    fn replay(
        &self,
        ledger: &mut Ledger,
        reference: &[Qor],
        side: Option<&Path>,
    ) -> (f64, Vec<String>) {
        let start = Instant::now();
        let probe_before = ledger.probe_ms;
        let mut shapes: HashMap<CacheKey, Arc<SynthArtifact>> = HashMap::new();
        let disk = match &self.disk {
            None => None,
            Some(dir) => match ledger.time("flow.disk_load_ms", || DiskCache::open(dir)) {
                Ok(d) => Some(d),
                Err(e) => return (ms(start), vec![format!("disk cache {dir:?}: {e}")]),
            },
        };
        let mut failures = Vec::new();
        for &i in &self.order {
            let entry = &self.entries[i];
            if let Err(e) =
                self.replay_design(ledger, entry, &mut shapes, disk.as_ref(), reference[i])
            {
                failures.push(format!("{} (traced): {e}", entry.name));
            }
        }
        ledger.add("flow.shapes_distinct", shapes.len() as f64);
        let wall = ms(start) - (ledger.probe_ms - probe_before);
        if let Some(dir) = side {
            let _ = std::fs::remove_dir_all(dir);
            let stored = DiskCache::open(dir).and_then(|side| {
                let start = Instant::now();
                for (key, artifact) in &shapes {
                    side.store(key, artifact)?;
                }
                ledger.add("flow.disk_store_ms", ms(start));
                Ok(())
            });
            if let Err(e) = stored {
                failures.push(format!("disk store {dir:?}: {e}"));
            }
        }
        (wall, failures)
    }

    fn replay_design(
        &self,
        ledger: &mut Ledger,
        entry: &Entry,
        shapes: &mut HashMap<CacheKey, Arc<SynthArtifact>>,
        disk: Option<&DiskCache>,
        reference: Qor,
    ) -> Result<(), String> {
        let design = ledger.time("balsa.front_ms", || front(&entry.source))?;
        let mut ctrl = ledger
            .time("core.translate_ms", || balsa_to_ch(&design.netlist))
            .map_err(|e| format!("translate: {e}"))?;
        let obligations = ledger.time("core.verify_acr_ms", || self.check_acr(entry, &ctrl))?;
        ledger.add("core.acr_obligations", obligations as f64);
        let components_before = ctrl.components.len();
        let report = ledger.time("core.cluster_ms", || {
            ctrl.t2_clustering(&self.options.cluster)
        });
        ledger.add(
            "core.cluster_merges",
            report.eliminated_channels.len() as f64,
        );
        let o = &self.options;
        let keyed: Vec<KeyedProgram> = ledger.time("flow.key_ms", || {
            ctrl.components
                .iter()
                .map(|c| {
                    let (mode, backend) = (o.minimize_mode, o.minimize_backend);
                    KeyedProgram::new(&c.program, mode, backend, o.map_objective, o.map_style)
                })
                .collect()
        });
        for k in &keyed {
            if shapes.contains_key(&k.key) {
                continue;
            }
            let artifact = match disk {
                Some(d) => ledger
                    .time("flow.disk_load_ms", || d.load(&k.key))
                    .map_err(|m| format!("disk miss: {m:?}"))?,
                None => {
                    ledger.add("flow.shapes_synthesized", 1.0);
                    Arc::new(chain::synthesize(ledger, k, &self.options, &self.library)?)
                }
            };
            shapes.insert(k.key.clone(), artifact);
        }
        let flow = ledger.time("flow.instantiate_ms", || {
            let controllers: Vec<_> = ctrl
                .components
                .iter()
                .zip(&keyed)
                .map(|(c, k)| chain::instantiate(&shapes[&k.key], k, &c.name, &c.program))
                .collect();
            FlowResult {
                design: design.netlist.name().to_string(),
                components_before,
                control_area: controllers.iter().map(|c| c.area()).sum(),
                controllers,
                cluster_report: Some(report),
                cache_hits: 0,
                cache_misses: 0,
                threads_used: 1,
                phases: Default::default(),
            }
        });
        let qor = Qor::of(&flow);
        if qor != reference {
            return Err(format!(
                "replayed qor {qor:?} differs from production {reference:?}"
            ));
        }
        let sim = ledger
            .time("sim.compile_ms", || {
                compile_sim(&design, &flow, &batch_input_ports(&entry.scenarios), None)
            })
            .map_err(|e| format!("sim compile: {e}"))?;
        let mut outcomes = Vec::new();
        for chunk in entry.scenarios.chunks(LANES) {
            match ledger.time("sim.batch_run_ms", || sim.run_batch(chunk)) {
                Ok(batch) => outcomes.extend(batch.into_iter().map(Ok)),
                Err(e) => return Err(format!("sim run: {e}")),
            }
        }
        let (lanes, _) = Self::check_sim(entry, &outcomes)?;
        ledger.add("sim.lanes", lanes as f64);
        Ok(())
    }
}

fn sum_qor(qor: &[Qor]) -> (f64, usize, usize) {
    qor.iter().fold((0.0, 0, 0), |(a, p, s), q| {
        (a + q.area, p + q.products, s + q.bm_states)
    })
}

fn qor_of(pass: &Pass) -> Option<Vec<Qor>> {
    pass.designs
        .iter()
        .map(|r| r.as_ref().ok().map(|r| r.qor))
        .collect()
}

/// Runs a corpus workload; `scratch` is the warm workload's private
/// directory (its disk cache, and the traced run's side store).
pub fn run(args: &Args, scratch: Option<&Path>) -> Result<Outcome, String> {
    let disk = scratch.map(|d| d.join("cache"));
    let (corpus, setup_s) = repeat_setup(|| setup(args, disk.as_deref()))?;
    let workers = threads();
    // The warm-up pass fills allocator and page caches; on the cold
    // workload its QoR is the reference every later pass must repeat.
    let warmup = corpus.pass(workers)?;
    let reference = match &corpus.cold_qor {
        Some(q) => q.clone(),
        None => qor_of(&warmup).ok_or_else(|| {
            let first = warmup
                .designs
                .iter()
                .zip(&corpus.entries)
                .find_map(|(r, e)| r.as_ref().err().map(|f| format!("{}: {f}", e.name)));
            format!("warm-up pass failed: {}", first.unwrap_or_default())
        })?,
    };
    let mut failures = corpus.failures(&warmup, &reference);
    let mut attempted = 0;
    if args.trace {
        return traced(args, &corpus, &reference, &warmup, failures, scratch);
    }

    let mut samples = Samples::default();
    let start = Instant::now();
    while !samples.done(start, args.seconds) {
        let pass = corpus.pass(workers)?;
        attempted += pass.designs.len();
        failures.extend(corpus.failures(&pass, &reference));
        let ok: Vec<&DesignRun> = pass.designs.iter().flatten().collect();
        let design_ms: Vec<f64> = ok.iter().map(|r| r.ms).collect();
        let lanes = ok.iter().map(|r| r.lanes).sum();
        samples.pass(
            pass.wall_s,
            &design_ms,
            lanes,
            ok.iter().map(|r| r.events).sum(),
        );
    }
    // Determinism between 1 and every thread: the serial pass must repeat
    // the parallel passes' QoR design by design.
    let serial = corpus.pass(1)?;
    failures.extend(
        corpus
            .failures(&serial, &reference)
            .into_iter()
            .map(|f| format!("1 thread: {f}")),
    );

    let (area, products, bm_states) = sum_qor(&reference);
    let mut metrics: Vec<Metric> = samples.metrics();
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

/// The traced run: serial production passes alternate with serial replays
/// until the time budget is spent; the ledger reports per-pass means.
fn traced(
    args: &Args,
    corpus: &Corpus,
    reference: &[Qor],
    parallel: &Pass,
    mut failures: Vec<String>,
    scratch: Option<&Path>,
) -> Result<Outcome, String> {
    let side = scratch.map(|d| d.join("store"));
    let mut total = Ledger::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut counts = None;
    let start = Instant::now();
    while untraced.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let serial = corpus.pass(1)?;
        failures.extend(corpus.failures(&serial, reference));
        if serial.synthesized != parallel.synthesized || serial.distinct != parallel.distinct {
            failures.push(format!(
                "shape accounting differs between 1 and {} threads",
                threads()
            ));
        }
        untraced.push(serial.wall_s * 1e3);
        let mut ledger = Ledger::default();
        let (wall, replay_failures) = corpus.replay(&mut ledger, reference, side.as_deref());
        failures.extend(replay_failures);
        traced.push(wall);
        let c = ledger.counts();
        if counts.get_or_insert_with(|| c.clone()) != &c {
            failures.push(format!("ledger counts differ between passes: {c:?}"));
        }
        for (k, v) in ledger.rows {
            total.add(k, v);
        }
    }
    let passes = untraced.len();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let layer_ms = total.self_ms() / passes as f64;
    let mut metrics = Ledger::metrics(&total, passes);
    let resolutions = (parallel.hits + parallel.synthesized + parallel.shared).max(1) as f64;
    for m in &mut metrics {
        match m.name {
            "flow.shared_waits" => m.value = parallel.shared as f64,
            "flow.cache_hit_ratio" => m.value = parallel.hits as f64 / resolutions,
            _ => {}
        }
    }
    metrics.extend(attribution(
        mean(&untraced),
        mean(&traced),
        layer_ms,
        &mut failures,
    ));
    Ok(Outcome {
        attempted: passes * corpus.entries.len(),
        failures,
        metrics,
    })
}
