//! The differential gauntlet: every corpus design through flow → sim →
//! trace-verifier, each stage checked against an independent in-tree
//! oracle (ROADMAP item 4).
//!
//! Four oracle pairs, all production-path-vs-reference:
//!
//! | pair | production | oracle | equality |
//! |------|-----------|--------|----------|
//! | `compiled_vs_event` | bit-parallel compiled tapes | event engine | [`SimOutcome::same_behaviour`] |
//! | `otf_vs_materialized` | on-the-fly ACR verification | materialized composition | verdict equality |
//! | `serial_vs_parallel` | parallel cached flow + 4-thread sim | serial uncached flow + 1-thread sim | digest equality |
//! | `fault_vs_clean` | flow with an injected `synth:0:err` | clean flow | typed failure + clean digest |
//!
//! Designs route through the batch [`ShapeRegistry`] over the shared
//! [`ControllerCache`] (and the disk layer when `BMBE_CACHE_DIR` is set),
//! so a gauntlet run exercises exactly the singleflight + persistent-cache
//! path the fleet uses — with the realistic shape-hit distribution
//! hundreds of distinct designs produce.
//!
//! A divergence never aborts the run: it becomes a structured [`Finding`]
//! carrying the design's family, canonical parameters, and generator seed,
//! so each line of a report is a one-command reproduction
//! (`bmbe gauntlet --seed S --designs N --only NAME`).

use crate::batch::{flow_through_registry, ShapeRegistry};
use crate::cache::ControllerCache;
use crate::pipeline::{run_control_flow_with, FlowOptions, FlowResult};
use crate::simbuild::{simulate, SimOutcome};
use crate::csim::simulate_scenarios;
use crate::fault::FaultPlan;
use crate::table3::{check_outcome, to_flow_scenario};
use bmbe_core::balsa_to_ch::balsa_to_ch;
use bmbe_core::opt::verify_acr_compared;
use bmbe_designs::corpus::{generate_corpus, CorpusSpec, GeneratedDesign};
use bmbe_designs::{derive_seed, variants_of};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::SimBackend;
use std::time::Instant;

/// What to run: a gauntlet is a pure function of this configuration (plus
/// the cache environment, which only affects speed, never findings).
#[derive(Debug, Clone)]
pub struct GauntletConfig {
    /// Corpus seed; together with `designs` this names the exact design
    /// set (corpus slices are prefix-stable).
    pub seed: u64,
    /// Number of corpus designs to run.
    pub designs: usize,
    /// Worker threads fanning designs across the pool (0 = default).
    pub threads: usize,
    /// Cap on verification obligations (internal channels) checked per
    /// design through the otf-vs-materialized pair.
    pub verify_channels: usize,
    /// Scenario variants per design for the 1-thread-vs-4-thread compiled
    /// sim comparison.
    pub sim_variants: usize,
    /// Inject an artificial divergence into the design at this corpus
    /// index (perturbs its compiled-backend outputs before comparison), to
    /// prove the detection and reporting path end to end.
    pub inject: Option<usize>,
    /// Run only the design with this exact name (replay mode).
    pub only: Option<String>,
}

impl Default for GauntletConfig {
    fn default() -> Self {
        GauntletConfig {
            seed: 1,
            designs: 200,
            threads: 0,
            verify_channels: 2,
            sim_variants: 8,
            inject: None,
            only: None,
        }
    }
}

/// One divergence: which design, which oracle pair, and everything needed
/// to reproduce it with one command.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Design name (e.g. `pipe_n4_w8`, `rnd_1f2e3d4c`).
    pub design: String,
    /// Corpus family (`pipeline`, `calltree`, `ring`, `wagging`, `rnd`).
    pub family: String,
    /// Canonical family parameters (e.g. `n=4,w=8`).
    pub params: String,
    /// The generator seed that produced the design.
    pub seed: u64,
    /// The oracle pair that diverged (table in the module docs), or
    /// `flow` / `check` / `panic` for stage failures.
    pub oracle: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

/// Comparisons executed per oracle pair (all designs summed); every
/// counter being positive is what "through all four pairs" means.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleCounts {
    /// Backend pair comparisons (includes the 1-vs-4-thread lanes).
    pub compiled_vs_event: usize,
    /// Verification obligations compared.
    pub otf_vs_materialized: usize,
    /// Serial-uncached flow digests + sim thread-split lanes compared.
    pub serial_vs_parallel: usize,
    /// Faulted flows checked for typed failure + clean-rerun digests.
    pub fault_vs_clean: usize,
}

impl OracleCounts {
    fn merge(&mut self, o: &OracleCounts) {
        self.compiled_vs_event += o.compiled_vs_event;
        self.otf_vs_materialized += o.otf_vs_materialized;
        self.serial_vs_parallel += o.serial_vs_parallel;
        self.fault_vs_clean += o.fault_vs_clean;
    }

    /// Whether every oracle pair ran at least once.
    pub fn all_exercised(&self) -> bool {
        self.compiled_vs_event > 0
            && self.otf_vs_materialized > 0
            && self.serial_vs_parallel > 0
            && self.fault_vs_clean > 0
    }
}

/// The gauntlet's result: counts, findings, and cache behaviour.
#[derive(Debug)]
pub struct GauntletReport {
    /// The corpus seed that was run.
    pub seed: u64,
    /// Designs actually run.
    pub designs: usize,
    /// Comparisons per oracle pair.
    pub checks: OracleCounts,
    /// All divergences (empty on a clean run).
    pub findings: Vec<Finding>,
    /// Shape cache hits across the run (memory or disk).
    pub cache_hits: usize,
    /// Shapes synthesized across the run.
    pub synthesized: usize,
    /// Singleflight shares across the run.
    pub shared: usize,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl GauntletReport {
    /// A clean run: every oracle pair exercised, zero findings.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.checks.all_exercised()
    }
}

struct DesignVerdict {
    checks: OracleCounts,
    findings: Vec<Finding>,
    cache_hits: usize,
    synthesized: usize,
    shared: usize,
}

fn finding(d: &GeneratedDesign, oracle: &'static str, detail: String) -> Finding {
    Finding {
        design: d.name.clone(),
        family: d.family.to_string(),
        params: d.params.clone(),
        seed: d.seed,
        oracle,
        detail,
    }
}

fn describe(o: &SimOutcome) -> String {
    format!(
        "completed={} time_ns={} events={} outputs={:?} syncs={:?}",
        o.completed, o.time_ns, o.events, o.outputs, o.sync_counts
    )
}

/// Runs all four oracle pairs over one design. Never panics on a
/// divergence — every mismatch becomes a finding.
fn run_design(
    d: &GeneratedDesign,
    registry: &ShapeRegistry<'_>,
    library: &Library,
    cfg: &GauntletConfig,
    inject_here: bool,
) -> DesignVerdict {
    let mut v = DesignVerdict {
        checks: OracleCounts::default(),
        findings: Vec::new(),
        cache_hits: 0,
        synthesized: 0,
        shared: 0,
    };
    let delays = Delays::default();

    // Production flow, through the singleflight registry + shared cache.
    let (flow, stats) =
        match flow_through_registry(&d.name, &d.compiled, &FlowOptions::optimized(), registry, 1) {
            Ok(ok) => ok,
            Err(e) => {
                v.findings.push(finding(d, "flow", e.to_string()));
                return v;
            }
        };
    v.cache_hits = stats.hits;
    v.synthesized = stats.synthesized;
    v.shared = stats.shared;

    let scenario = to_flow_scenario(&d.scenario);

    let event = match simulate(&d.compiled, &flow, &scenario, &delays) {
        Ok(o) => Some(o),
        Err(e) => {
            v.findings
                .push(finding(d, "check", format!("event run failed: {e}")));
            None
        }
    };

    if let Some(event) = &event {
        // The family's modelled expectation, where one exists.
        if event.completed {
            if let Err(detail) = check_outcome(&d.scenario.check, event) {
                v.findings.push(finding(d, "check", detail));
            }
        } else {
            v.findings.push(finding(
                d,
                "check",
                format!("event run did not complete: {}", describe(event)),
            ));
        }

        // Pair 1: compiled tapes vs the event engine (untimed equality). The
        // injected-divergence smoke perturbs the compiled outcome here, so
        // a finding proves the *real* detection + reporting path.
        let compiled = simulate_scenarios(
            &d.compiled,
            &flow,
            std::slice::from_ref(&scenario),
            &delays,
            SimBackend::Compiled,
            1,
            None,
        );
        v.checks.compiled_vs_event += 1;
        match compiled.into_iter().next() {
            Some(Ok(mut c)) => {
                if inject_here {
                    for vals in c.outputs.values_mut() {
                        vals.push(0xdead_beef);
                    }
                    c.completed = !c.completed;
                }
                if !c.same_behaviour(event) {
                    v.findings.push(finding(
                        d,
                        "compiled_vs_event",
                        format!("compiled: {} | event: {}", describe(&c), describe(event)),
                    ));
                }
            }
            Some(Err(e)) => v.findings.push(finding(d, "compiled_vs_event", e.to_string())),
            None => v.findings.push(finding(
                d,
                "compiled_vs_event",
                "compiled backend returned no outcome".into(),
            )),
        }
    }

    // Pair 2: on-the-fly vs materialized trace verification, over the
    // design's first few internal-channel obligations.
    match balsa_to_ch(&d.compiled.netlist) {
        Ok(ctrl) => {
            for ch in ctrl.internal_channels().into_iter().take(cfg.verify_channels) {
                v.checks.otf_vs_materialized += 1;
                match verify_acr_compared(
                    &ctrl.components[ch.active].program,
                    &ctrl.components[ch.passive].program,
                    &ch.name,
                ) {
                    Ok(cmp) => {
                        if cmp.verdict != cmp.oracle {
                            v.findings.push(finding(
                                d,
                                "otf_vs_materialized",
                                format!(
                                    "channel {}: otf {:?} vs materialized {:?}",
                                    ch.name, cmp.verdict, cmp.oracle
                                ),
                            ));
                        }
                    }
                    Err(e) => v.findings.push(finding(
                        d,
                        "otf_vs_materialized",
                        format!("channel {}: {e}", ch.name),
                    )),
                }
            }
        }
        Err(e) => v
            .findings
            .push(finding(d, "otf_vs_materialized", e.to_string())),
    }

    // Pair 3a: compiled sim, 1 thread vs 4, over seeded scenario variants —
    // per-lane bit-identical.
    if cfg.sim_variants > 0 {
        let variant_seed = derive_seed(cfg.seed, &d.name, &d.params, 0);
        let variants: Vec<_> = variants_of(&d.scenario, cfg.sim_variants, variant_seed)
            .iter()
            .map(to_flow_scenario)
            .collect();
        let one = simulate_scenarios(
            &d.compiled, &flow, &variants, &delays, SimBackend::Compiled, 1, None,
        );
        let four = simulate_scenarios(
            &d.compiled, &flow, &variants, &delays, SimBackend::Compiled, 4, None,
        );
        for (lane, (a, b)) in one.iter().zip(&four).enumerate() {
            v.checks.serial_vs_parallel += 1;
            let same = match (a, b) {
                (Ok(a), Ok(b)) => a.same_result(b),
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !same {
                v.findings.push(finding(
                    d,
                    "serial_vs_parallel",
                    format!("compiled lane {lane} differs between 1 and 4 sim threads"),
                ));
            }
        }
    }

    // Pair 3b + pair 4: a serial, uncached re-flow must match the
    // parallel cached one digest-for-digest, and the same flow with an
    // injected synthesis fault must fail with a typed error, never a
    // panic or a silent success.
    let serial_opts = FlowOptions::optimized().serial_uncached();
    let clean_cache = ControllerCache::new();
    v.checks.serial_vs_parallel += 1;
    match run_control_flow_with(&d.compiled, &serial_opts, library, &clean_cache) {
        Ok(serial) => {
            if let Some(diff) = digest_diff(&flow, &serial) {
                v.findings.push(finding(d, "serial_vs_parallel", diff));
            }
        }
        Err(e) => v.findings.push(finding(
            d,
            "serial_vs_parallel",
            format!("serial uncached flow failed: {e}"),
        )),
    }

    let mut fault_opts = FlowOptions::optimized().serial_uncached();
    fault_opts.fault = Some(FaultPlan::parse("synth:0:err").expect("static fault spec"));
    let fault_cache = ControllerCache::new();
    v.checks.fault_vs_clean += 1;
    match run_control_flow_with(&d.compiled, &fault_opts, library, &fault_cache) {
        Err(_typed) => {} // the fault surfaced as a typed error: correct
        Ok(_) => v.findings.push(finding(
            d,
            "fault_vs_clean",
            "injected synth:0:err fault produced a successful flow".into(),
        )),
    }

    v
}

/// Returns a description of the first digest difference between two flow
/// results, or `None` when they are bit-identical (the determinism
/// equality the repo's 1-vs-4-thread tests pin).
fn digest_diff(a: &FlowResult, b: &FlowResult) -> Option<String> {
    if a.controllers.len() != b.controllers.len() {
        return Some(format!(
            "controller count {} vs {}",
            a.controllers.len(),
            b.controllers.len()
        ));
    }
    if a.total_products() != b.total_products() {
        return Some(format!(
            "total products {} vs {}",
            a.total_products(),
            b.total_products()
        ));
    }
    if a.control_area.to_bits() != b.control_area.to_bits() {
        return Some(format!(
            "control area {} vs {}",
            a.control_area, b.control_area
        ));
    }
    for (x, y) in a.controllers.iter().zip(&b.controllers) {
        if x.name != y.name
            || x.bm_states != y.bm_states
            || x.controller.num_products() != y.controller.num_products()
            || x.area().to_bits() != y.area().to_bits()
        {
            return Some(format!("controller {} digests differ", x.name));
        }
    }
    None
}

/// Runs the gauntlet: generates the corpus slice, fans designs across the
/// worker pool through one shared registry, and collects every divergence
/// as a structured finding.
///
/// # Errors
///
/// Returns `Err` only when corpus *generation* fails (a generator bug —
/// the round-trip property tests pin this); divergences and per-design
/// panics are findings, not errors.
pub fn run_gauntlet(
    cfg: &GauntletConfig,
    library: &Library,
    cache: &ControllerCache,
) -> Result<GauntletReport, bmbe_designs::scenarios::DesignError> {
    let start = Instant::now();
    let span = bmbe_obs::span!("gauntlet.run", "batch");
    let _root = span.id();
    let mut corpus = generate_corpus(&CorpusSpec {
        seed: cfg.seed,
        designs: cfg.designs,
    })?;
    if let Some(only) = &cfg.only {
        corpus.retain(|d| &d.name == only);
    }
    let threads = if cfg.threads == 0 {
        bmbe_par::default_threads()
    } else {
        cfg.threads
    };
    let registry = ShapeRegistry::new(cache, library);

    let verdicts = bmbe_par::par_try_map(
        &corpus,
        threads,
        |i, d: &GeneratedDesign| format!("gauntlet design {i} ({})", d.name),
        |i, d| run_design(d, &registry, library, cfg, cfg.inject == Some(i)),
    );

    let mut checks = OracleCounts::default();
    let mut findings = Vec::new();
    let (mut cache_hits, mut synthesized, mut shared) = (0, 0, 0);
    for (d, verdict) in corpus.iter().zip(verdicts) {
        match verdict {
            Ok(v) => {
                checks.merge(&v.checks);
                findings.extend(v.findings);
                cache_hits += v.cache_hits;
                synthesized += v.synthesized;
                shared += v.shared;
            }
            // A panicking design is itself a finding — the gauntlet's
            // contract is that nothing crashes the run.
            Err(e) => findings.push(finding(d, "panic", e.to_string())),
        }
    }

    bmbe_obs::counter!("gauntlet.designs").add(corpus.len() as u64);
    bmbe_obs::counter!("gauntlet.findings").add(findings.len() as u64);
    Ok(GauntletReport {
        seed: cfg.seed,
        designs: corpus.len(),
        checks,
        findings,
        cache_hits,
        synthesized,
        shared,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(designs: usize) -> GauntletConfig {
        GauntletConfig {
            seed: 5,
            designs,
            threads: 2,
            verify_channels: 1,
            sim_variants: 4,
            inject: None,
            only: None,
        }
    }

    #[test]
    fn small_slice_is_clean() {
        let library = Library::cmos035();
        let cache = ControllerCache::new();
        let report = run_gauntlet(&small(12), &library, &cache).unwrap();
        assert_eq!(report.designs, 12);
        for f in &report.findings {
            panic!(
                "unexpected finding: {} {} ({} {}, seed {:#x}): {}",
                f.oracle, f.design, f.family, f.params, f.seed, f.detail
            );
        }
        assert!(report.checks.all_exercised(), "{:?}", report.checks);
    }

    #[test]
    fn injected_divergence_is_caught_with_replay_seed() {
        let library = Library::cmos035();
        let cache = ControllerCache::new();
        let mut cfg = small(6);
        cfg.inject = Some(3);
        let report = run_gauntlet(&cfg, &library, &cache).unwrap();
        let hit: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.oracle == "compiled_vs_event")
            .collect();
        assert_eq!(hit.len(), 1, "findings: {:?}", report.findings);
        assert!(!hit[0].family.is_empty());
        assert!(!hit[0].detail.is_empty());
        // Everything else stayed clean: the perturbation is confined to
        // the injected design's compiled lane.
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn only_filter_replays_one_design() {
        let library = Library::cmos035();
        let cache = ControllerCache::new();
        let corpus = generate_corpus(&CorpusSpec { seed: 5, designs: 6 }).unwrap();
        let mut cfg = small(6);
        cfg.only = Some(corpus[2].name.clone());
        let report = run_gauntlet(&cfg, &library, &cache).unwrap();
        assert_eq!(report.designs, 1);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }
}
