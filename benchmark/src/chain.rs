//! The traced run's ledger and its replay of the per-shape chain.
//!
//! The benchmark never instruments the program: it calls each crate's
//! public function itself, with a timer around every call, in the order the
//! flow's shape registry runs them. The replayed artifact must reproduce
//! the production call's area and products exactly, so the ledger measures
//! the same program that the untraced run timed.

use crate::{metric, ms, Metric};
use bmbe_bm::assign;
use bmbe_bm::statemin::minimize_states;
use bmbe_bm::synth::{synthesize_full, MinimizeMode};
use bmbe_core::compile::compile_to_bm;
use bmbe_flow::pipeline::ControllerArtifact;
use bmbe_flow::{FlowOptions, KeyedProgram, PhaseProfile, SynthArtifact};
use bmbe_gates::{map as techmap, verify_mapped, Library, SubjectGraph};
use bmbe_logic::hfmin::MinimizeOptions;
use bmbe_logic::Cover;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer row, with its unit. Rows ending in `_ms` are layer
/// self-times unless listed in [`OUTSIDE_PASS`]; the rest are counts.
pub const ROWS: [(&str, &str); 33] = [
    ("balsa.front_ms", "ms"),
    ("core.translate_ms", "ms"),
    ("core.cluster_ms", "ms"),
    ("core.cluster_merges", "count"),
    ("flow.key_ms", "ms"),
    ("flow.shapes_distinct", "count"),
    ("flow.shapes_synthesized", "count"),
    ("flow.cache_hit_ratio", "ratio"),
    ("flow.shared_waits", "count"),
    ("flow.disk_load_ms", "ms"),
    ("flow.disk_store_ms", "ms"),
    ("flow.instantiate_ms", "ms"),
    ("core.ch2bms_ms", "ms"),
    ("bm.statemin_ms", "ms"),
    ("bm.assign_ms", "ms"),
    ("bm.state_bits", "count"),
    ("bm.synth_ms", "ms"),
    ("logic.prime_gen_ms", "ms"),
    ("logic.covering_ms", "ms"),
    ("logic.exact_funcs", "count"),
    ("logic.cofactor_funcs", "count"),
    ("bm.verify_ternary_ms", "ms"),
    ("gates.map_ms", "ms"),
    ("gates.verify_mapped_ms", "ms"),
    ("gates.cells", "count"),
    ("core.verify_acr_ms", "ms"),
    ("core.acr_obligations", "count"),
    ("sim.compile_ms", "ms"),
    ("sim.batch_run_ms", "ms"),
    ("sim.lanes", "count"),
    ("sim.event_ms", "ms"),
    ("sim.events", "count"),
    ("sim.event_ns_per_event", "ns"),
];

/// Timed rows that are not part of a pass: the disk store happens during
/// the warm workload's set-up, and the replay times it on the side.
const OUTSIDE_PASS: [&str; 1] = ["flow.disk_store_ms"];

/// Rows whose per-pass value must repeat exactly across passes, runs and
/// thread counts.
pub const DETERMINISTIC: [&str; 9] = [
    "core.cluster_merges",
    "flow.shapes_distinct",
    "flow.shapes_synthesized",
    "bm.state_bits",
    "logic.exact_funcs",
    "logic.cofactor_funcs",
    "gates.cells",
    "sim.lanes",
    "sim.events",
];

/// Per-layer accumulator for one replayed pass.
#[derive(Default, Clone)]
pub struct Ledger {
    pub rows: BTreeMap<&'static str, f64>,
    /// Time spent in the stand-alone state-assignment probe, which
    /// production does not perform; the traced pass wall excludes it.
    pub probe_ms: f64,
}

impl Ledger {
    pub fn add(&mut self, row: &'static str, value: f64) {
        *self.rows.entry(row).or_default() += value;
    }

    /// Runs `f`, adding its milliseconds to `row`.
    pub fn time<R>(&mut self, row: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(row, ms(start));
        r
    }

    /// Sum of the in-pass layer self-times.
    pub fn self_ms(&self) -> f64 {
        self.rows
            .iter()
            .filter(|(k, _)| k.ends_with("_ms") && !OUTSIDE_PASS.contains(k))
            .map(|(_, v)| v)
            .sum()
    }

    /// The deterministic counts, for exact comparison between passes.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        DETERMINISTIC
            .iter()
            .map(|&k| (k, self.rows.get(k).copied().unwrap_or(0.0) as u64))
            .collect()
    }

    /// Per-pass means of every row over `passes` accumulated ledgers.
    pub fn metrics(total: &Ledger, passes: usize) -> Vec<Metric> {
        let n = passes.max(1) as f64;
        let get = |k: &str| total.rows.get(k).copied().unwrap_or(0.0);
        ROWS.iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "sim.event_ns_per_event" => {
                        let events = get("sim.events");
                        if events > 0.0 {
                            get("sim.event_ms") * 1e6 / events
                        } else {
                            0.0
                        }
                    }
                    _ => get(name) / n,
                };
                metric(name, value, unit)
            })
            .collect()
    }
}

/// Replays the flow registry's per-shape chain on one keyed program:
/// CH→BMS, state minimization, synthesis (with state assignment, prime
/// generation and covering reported as children of it), ternary
/// verification, mapping, and post-mapping verification.
pub fn synthesize(
    ledger: &mut Ledger,
    keyed: &KeyedProgram,
    options: &FlowOptions,
    library: &Library,
) -> Result<SynthArtifact, String> {
    let spec = ledger
        .time("core.ch2bms_ms", || {
            compile_to_bm("shape", &keyed.canonical)
        })
        .map_err(|e| format!("compile: {e}"))?;
    let spec = ledger
        .time("bm.statemin_ms", || minimize_states(&spec))
        .map_err(|e| format!("statemin: {e}"))?
        .spec;
    // `synthesize_full` assigns states internally; the stand-alone call
    // measures that child so the synthesis row can report its self time.
    let start = Instant::now();
    std::hint::black_box(assign(&spec).ok());
    let assign_ms = ms(start);
    ledger.add("bm.assign_ms", assign_ms);
    ledger.probe_ms += assign_ms;

    let start = Instant::now();
    let opts = MinimizeOptions {
        backend: options.minimize_backend,
        threads: 1,
        fault: None,
    };
    let controller = synthesize_full(&spec, options.minimize_mode, 1, &opts)
        .map_err(|e| format!("synth: {e}"))?;
    let synth_ms = ms(start);
    let stats = &controller.minimize_stats;
    let prime_ms = stats.prime_gen.as_secs_f64() * 1e3;
    let covering_ms = stats.covering.as_secs_f64() * 1e3;
    ledger.add("bm.synth_ms", synth_ms - assign_ms - prime_ms - covering_ms);
    ledger.add("logic.prime_gen_ms", prime_ms);
    ledger.add("logic.covering_ms", covering_ms);
    ledger.add("logic.exact_funcs", stats.exact_funcs as f64);
    ledger.add("logic.cofactor_funcs", stats.cofactor_funcs as f64);
    ledger.add("bm.state_bits", controller.num_state_bits as f64);

    ledger
        .time("bm.verify_ternary_ms", || controller.verify_ternary())
        .map_err(|e| format!("hazard: {e}"))?;
    let mapped = ledger.time("gates.map_ms", || {
        let functions: Vec<(String, &Cover)> = controller
            .outputs
            .iter()
            .cloned()
            .chain((0..controller.num_state_bits).map(|j| format!("y{j}")))
            .zip(
                controller
                    .output_covers
                    .iter()
                    .chain(controller.next_state_covers.iter()),
            )
            .collect();
        let subject = match options.minimize_mode {
            MinimizeMode::Speed => SubjectGraph::from_covers(controller.num_vars(), &functions),
            MinimizeMode::Area => {
                SubjectGraph::from_covers_shared(controller.num_vars(), &functions)
            }
        };
        techmap(&subject, library, options.map_objective, options.map_style)
    });
    let violations = ledger.time("gates.verify_mapped_ms", || {
        verify_mapped(&controller, &mapped)
    });
    if let Some(v) = violations.first() {
        return Err(format!("mapped hazard: {v}"));
    }
    ledger.add("gates.cells", mapped.num_cells() as f64);
    Ok(SynthArtifact {
        bm_states: spec.num_states(),
        controller,
        mapped,
        profile: PhaseProfile::default(),
    })
}

/// Re-materializes a shape under one component's names, as the flow does
/// for every instance of a cached shape.
pub fn instantiate(
    shape: &SynthArtifact,
    keyed: &KeyedProgram,
    name: &str,
    program: &bmbe_core::ast::ChExpr,
) -> ControllerArtifact {
    let mut controller = shape.controller.clone();
    controller.name = name.to_string();
    controller.rename_signals(|wire| keyed.rename_wire(wire));
    let mut mapped = shape.mapped.clone();
    mapped.rename_roots(|wire| keyed.rename_wire(wire));
    ControllerArtifact {
        name: name.to_string(),
        bm_states: shape.bm_states,
        controller,
        mapped,
        program: program.clone(),
        template: None,
    }
}
