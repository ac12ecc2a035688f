//! The back-end pipeline of Fig. 1: partition → Balsa-to-CH → clustering →
//! CH-to-BMS → Minimalist synthesis → technology mapping → hazard analysis.

use crate::batch::{run_flow, ShapeRegistry};
use crate::cache::{
    synthesize_shape_with_fault, CacheKey, ControllerCache, KeyedProgram, ShapeError, SynthArtifact,
};
use crate::fault::FaultPlan;
use crate::profile::PhaseProfile;
use crate::templates::{template_table, Template};
use bmbe_balsa::CompiledDesign;
use bmbe_bm::synth::{Controller, MinimizeMode};
use bmbe_logic::MinimizeBackend;
use bmbe_core::balsa_to_ch::{balsa_to_ch, TranslateError};
use bmbe_core::opt::cluster::{ClusterOptions, ClusterReport, CtrlNetlist};
use bmbe_gates::{Library, MapObjective, MapStyle, MappedNetlist};
use std::collections::HashMap;
use std::fmt;

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Run the clustering optimizations (`T1`+`T2`).
    pub optimize: bool,
    /// Minimization mode (Minimalist's speed/area split).
    pub minimize_mode: MinimizeMode,
    /// Hazard-free minimizer backend (part of the cache key): the exact
    /// prime-enumerating engine, the espresso-style cube-cofactor engine,
    /// or the per-function automatic split (the default).
    pub minimize_backend: MinimizeBackend,
    /// Technology-mapping objective.
    pub map_objective: MapObjective,
    /// Mapping style (the paper's split-module flow vs whole-controller).
    pub map_style: MapStyle,
    /// Clustering options.
    pub cluster: ClusterOptions,
    /// Annotate unclustered components with hand-optimized template
    /// area/latency (stock Balsa's baseline, §6) instead of the figures of
    /// their individually synthesized controllers.
    pub use_templates: bool,
    /// Memoize synthesis through the content-addressed controller cache so
    /// structurally identical components are synthesized once, through the
    /// same registry body as the batch driver. Off = the reference path:
    /// each component compiled from its own program, one after another. The
    /// two paths produce identical product counts, areas, and delays.
    pub cache: bool,
    /// Worker threads for synthesis, spent inside each shape (per-function
    /// minimization jobs and the partitioned prime-generation worklist);
    /// shapes themselves are resolved one after another. `None` uses
    /// [`bmbe_par::default_threads`] (the `BMBE_THREADS` environment
    /// variable, or every available core); `Some(1)` forces the serial
    /// path. Results are identical (same order, same artifacts, same first
    /// error) regardless of the thread count.
    pub threads: Option<usize>,
    /// Deterministic fault injection: force a panic or a typed error at a
    /// chosen phase of a chosen synthesis job (see [`FaultPlan`]). `None`
    /// (the default everywhere) injects nothing; the bench binaries
    /// populate it from `BMBE_FAULT` via [`FlowOptions::with_env_fault`].
    pub fault: Option<FaultPlan>,
}

impl FlowOptions {
    /// The paper's optimized flow: clustering + speed scripts + split-module
    /// delay-oriented mapping.
    pub fn optimized() -> Self {
        FlowOptions {
            optimize: true,
            minimize_mode: MinimizeMode::Speed,
            minimize_backend: MinimizeBackend::default(),
            map_objective: MapObjective::Delay,
            map_style: MapStyle::SplitModules,
            cluster: ClusterOptions::default(),
            use_templates: false,
            cache: true,
            threads: None,
            fault: None,
        }
    }

    /// The unoptimized baseline: stock Balsa — one hand-optimized template
    /// component per handshake component, no clustering.
    pub fn unoptimized() -> Self {
        FlowOptions {
            optimize: false,
            use_templates: true,
            ..Self::optimized()
        }
    }

    /// The seed's serial, uncached behaviour: per-instance synthesis on one
    /// thread. The reference against which the cached/parallel path is
    /// checked bit-identical.
    pub fn serial_uncached(mut self) -> Self {
        self.cache = false;
        self.threads = Some(1);
        self
    }

    /// Keys `program` under these options' synthesis settings.
    pub(crate) fn keyed(&self, program: &bmbe_core::ast::ChExpr) -> KeyedProgram {
        KeyedProgram::new(
            program,
            self.minimize_mode,
            self.minimize_backend,
            self.map_objective,
            self.map_style,
        )
    }

    /// Arms the fault plan named by the `BMBE_FAULT` environment variable
    /// (`<phase>:<nth>[:err]`), if any — the switch the bench binaries use
    /// so recovery paths can be smoke-tested from CI without code changes.
    pub fn with_env_fault(mut self) -> Self {
        if let Some(plan) = FaultPlan::from_env() {
            self.fault = Some(plan);
        }
        self
    }
}

/// Errors raised by the flow.
#[derive(Debug)]
pub enum FlowError {
    /// Balsa-to-CH translation failed.
    Translate(TranslateError),
    /// A per-controller synthesis job failed (a compile/synth/verify/map
    /// error, a caught worker panic, or an injected fault). Carries the full
    /// context of the failing job: the design, the component, the
    /// content-addressed cache key of its shape, and the phase that failed —
    /// enough to re-run exactly that job in isolation.
    Job {
        /// The design whose flow failed. Sibling designs sharing the same
        /// cache are unaffected.
        design: String,
        /// The first component (in deterministic component order) whose
        /// shape failed.
        component: String,
        /// The shape's content-addressed cache key, as a hex digest.
        cache_key: String,
        /// The per-shape phase that failed (`compile`, `synth`, `verify`,
        /// `map`, `statemin`, or `panic` for a caught unwind).
        phase: &'static str,
        /// The underlying shape error.
        error: ShapeError,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Translate(e) => write!(f, "translate: {e}"),
            FlowError::Job {
                design,
                component,
                cache_key,
                phase,
                error,
            } => write!(
                f,
                "{design}/{component}: phase {phase} (cache key {cache_key}): {error}"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<TranslateError> for FlowError {
    fn from(e: TranslateError) -> Self {
        FlowError::Translate(e)
    }
}

/// One synthesized and mapped controller.
pub struct ControllerArtifact {
    /// Component (or cluster) name.
    pub name: String,
    /// Number of BM specification states.
    pub bm_states: usize,
    /// The synthesized two-level controller.
    pub controller: Controller,
    /// The technology-mapped netlist.
    pub mapped: MappedNetlist,
    /// The CH program it came from.
    pub program: bmbe_core::ast::ChExpr,
    /// Hand-optimized template annotation, when this artifact stands for a
    /// stock Balsa component (the unoptimized baseline).
    pub template: Option<Template>,
}

impl ControllerArtifact {
    /// Cell area of the controller (µm²).
    pub fn area(&self) -> f64 {
        self.template.map_or(self.mapped.area, |t| t.area)
    }

    /// Worst input-to-output delay (ns).
    pub fn critical_delay(&self) -> f64 {
        self.template
            .map_or_else(|| self.mapped.critical_delay(), |t| t.delay_ns)
    }
}

/// The result of running the control flow.
pub struct FlowResult {
    /// Design name.
    pub design: String,
    /// Control components before clustering.
    pub components_before: usize,
    /// Controllers after clustering (equal when unoptimized).
    pub controllers: Vec<ControllerArtifact>,
    /// The clustering report (when optimization ran).
    pub cluster_report: Option<ClusterReport>,
    /// Total control cell area (µm²).
    pub control_area: f64,
    /// Components whose controller this run did not synthesize: served by
    /// the content-addressed cache (an earlier run or a concurrent batch job
    /// sharing it, or a structurally identical component of this run). Zero
    /// when the cache is disabled.
    pub cache_hits: usize,
    /// Unique controller shapes synthesized by this run (every component
    /// when the cache is disabled).
    pub cache_misses: usize,
    /// Worker threads spent inside each shape (the resolved value of
    /// [`FlowOptions::threads`], or a batch job's inner budget).
    pub threads_used: usize,
    /// Aggregate per-phase wall-clock profile of the shapes this run
    /// synthesized (cache hits contribute nothing).
    pub phases: PhaseProfile,
}

impl FlowResult {
    /// Total number of two-level products across controllers.
    pub fn total_products(&self) -> usize {
        self.controllers
            .iter()
            .map(|c| c.controller.num_products())
            .sum()
    }
}

impl ShapeError {
    /// Attaches the full job context — design, component, cache key, and
    /// failing phase — producing the flow-level error report.
    pub(crate) fn into_flow(self, design: &str, component: &str, key: &CacheKey) -> FlowError {
        FlowError::Job {
            design: design.to_string(),
            component: component.to_string(),
            cache_key: format!("{:016x}", key.digest()),
            phase: self.phase(),
            error: self,
        }
    }
}

/// A design translated to CH and, when optimizing, clustered: the
/// components both flow paths synthesize, with their template annotations.
pub(crate) struct Partitioned {
    pub(crate) ctrl: CtrlNetlist,
    components_before: usize,
    cluster_report: Option<ClusterReport>,
    templates: HashMap<String, Template>,
}

impl Partitioned {
    /// Translates `design` to CH and clusters it, under the
    /// `flow.translate` and `flow.cluster` spans.
    pub(crate) fn new(
        design: &CompiledDesign,
        options: &FlowOptions,
    ) -> Result<Self, TranslateError> {
        let mut ctrl = {
            let _s = bmbe_obs::span!("flow.translate", "flow");
            balsa_to_ch(&design.netlist)?
        };
        let components_before = ctrl.components.len();
        let cluster_report = options.optimize.then(|| {
            let _s = bmbe_obs::span!("flow.cluster", "flow");
            ctrl.t2_clustering(&options.cluster)
        });
        let templates = if options.use_templates {
            template_table(&design.netlist)
        } else {
            Default::default()
        };
        Ok(Partitioned {
            ctrl,
            components_before,
            cluster_report,
            templates,
        })
    }

    /// The hand-optimized template annotation of component `name`, if any.
    pub(crate) fn template(&self, name: &str) -> Option<Template> {
        self.templates.get(name).copied()
    }

    /// Assembles the flow result from one controller per component, in
    /// component order. Hit/miss accounting is per component: the misses
    /// are the shapes this run synthesized, every other component is a hit.
    pub(crate) fn finish(
        self,
        design: &CompiledDesign,
        controllers: Vec<ControllerArtifact>,
        cache_misses: usize,
        threads_used: usize,
        phases: PhaseProfile,
    ) -> FlowResult {
        // One source of truth for area accounting: the artifact's own figure
        // (template annotation when present, mapped area otherwise).
        let control_area = controllers.iter().map(ControllerArtifact::area).sum();
        FlowResult {
            design: design.netlist.name().to_string(),
            components_before: self.components_before,
            cache_hits: controllers.len() - cache_misses,
            controllers,
            cluster_report: self.cluster_report,
            control_area,
            cache_misses,
            threads_used,
            phases,
        }
    }
}

/// Re-materializes a cached canonical artifact as one component's
/// controller: clones the shape, renames canonical wires back to the
/// component's channel names, and attaches the instance name. The last
/// step of the registry flow body ([`crate::batch::flow_through_registry`]),
/// which every cached run goes through.
pub(crate) fn instantiate(
    shape: &SynthArtifact,
    keyed: &KeyedProgram,
    name: &str,
    program: &bmbe_core::ast::ChExpr,
    template: Option<Template>,
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
        template,
    }
}

/// Runs the control back-end on a compiled design with a private,
/// run-local controller cache.
///
/// # Errors
///
/// See [`FlowError`]; every stage re-verifies its output.
pub fn run_control_flow(
    design: &CompiledDesign,
    options: &FlowOptions,
    library: &Library,
) -> Result<FlowResult, FlowError> {
    run_control_flow_with(design, options, library, &ControllerCache::new())
}

/// Runs the control back-end on a compiled design, reusing (and growing)
/// the given controller cache. Sharing one cache across runs lets the
/// bench drivers synthesize each controller shape once across all four
/// benchmark designs and both sides of an unoptimized/optimized
/// comparison.
///
/// With [`FlowOptions::cache`] on, the run goes through the same body as
/// the batch driver: a call-local [`ShapeRegistry`] over `cache`
/// resolves each distinct shape once, in component order, with the whole
/// thread budget inside each shape. With it off, every component is
/// synthesized on its own program, one after another — the reference the
/// cached path is checked bit-identical against.
///
/// # Errors
///
/// See [`FlowError`]; every stage re-verifies its output.
pub fn run_control_flow_with(
    design: &CompiledDesign,
    options: &FlowOptions,
    library: &Library,
    cache: &ControllerCache,
) -> Result<FlowResult, FlowError> {
    let threads = options.threads.unwrap_or_else(bmbe_par::default_threads);
    let result = if options.cache {
        let registry = ShapeRegistry::new(cache, library);
        run_flow(design, options, &registry, threads).map(|(flow, _)| flow)
    } else {
        run_uncached(design, options, library, threads)
    };
    if let Err(FlowError::Job {
        design,
        component,
        cache_key,
        phase,
        ..
    }) = &result
    {
        // Every per-shape flow failure drains the flight recorder with the
        // same identity fields the typed error carries (file/stderr sink
        // only — the pure-JSON stdout contract holds; a no-op when no dump
        // sink is configured).
        bmbe_obs::recorder::dump(
            "flow-error",
            &[
                ("design", design.clone()),
                ("component", component.clone()),
                ("cache_key", cache_key.clone()),
                ("phase", phase.to_string()),
            ],
        );
    }
    result
}

/// The reference path (`cache: false`): every component synthesized on its
/// own program and names, one after another, with the whole thread budget
/// inside each shape. Fault plans count components in order.
fn run_uncached(
    design: &CompiledDesign,
    options: &FlowOptions,
    library: &Library,
    threads: usize,
) -> Result<FlowResult, FlowError> {
    let _flow_span = bmbe_obs::span!("flow.run", "flow");
    bmbe_obs::annotate_str!("job.design", design.netlist.name());
    let part = Partitioned::new(design, options)?;
    let mut controllers = Vec::with_capacity(part.ctrl.components.len());
    let mut phases = PhaseProfile::default();
    for (i, comp) in part.ctrl.components.iter().enumerate() {
        let fault = options.fault.as_ref().filter(|f| f.targets_job(i));
        let shape = bmbe_par::catch_job(|| {
            synthesize_shape_with_fault(
                &comp.name,
                &comp.program,
                options.minimize_mode,
                options.minimize_backend,
                options.map_objective,
                options.map_style,
                library,
                threads,
                fault,
            )
        })
        .unwrap_or_else(|payload| Err(ShapeError::Panic(payload)))
        .map_err(|e| {
            let key = options.keyed(&comp.program).key;
            e.into_flow(design.netlist.name(), &comp.name, &key)
        })?;
        phases.accumulate(&shape.profile);
        controllers.push(ControllerArtifact {
            name: comp.name.clone(),
            bm_states: shape.bm_states,
            controller: shape.controller,
            mapped: shape.mapped,
            program: comp.program.clone(),
            template: part.template(&comp.name),
        });
    }
    let misses = controllers.len();
    Ok(part.finish(design, controllers, misses, threads, phases))
}
