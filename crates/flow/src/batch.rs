//! The long-running batch front-end: many design jobs sharing one
//! controller cache and one fleet-wide singleflight registry, so each
//! distinct controller shape is synthesized **exactly once** per fleet no
//! matter how many jobs need it or how they interleave.
//!
//! [`flow_through_registry`] is the one flow body of every cached run —
//! translate, cluster, key, resolve every unique shape through a
//! [`ShapeRegistry`], instantiate. Batch jobs share one fleet-wide
//! registry; [`crate::pipeline::run_control_flow_with`] builds a
//! call-local one. The registry layers on top of the shared
//! [`ControllerCache`] (and through it the persistent
//! [`crate::DiskCache`], when configured):
//!
//! * **hit** — the shape is already in the cache (memory or disk);
//! * **synthesized** — this job claimed the in-flight slot and ran the
//!   per-shape chain, storing the artifact write-through;
//! * **shared** — another job is synthesizing the same digest right now;
//!   the caller blocks on the slot's condvar and reuses the owner's result
//!   (successes *and* failures — a failed flight is not retried, which is
//!   what keeps synthesis exactly-once).
//!
//! Jobs fan out across the `bmbe-par` worker pool with per-job panic
//! isolation: a panicking job becomes a [`JobFailure`] with phase `panic`
//! while its siblings complete. Observability: the
//! `batch.shapes.{synthesized,shared,hits}` and
//! `batch.jobs.{completed,failed}` counters, the
//! `batch.singleflight_wait_us` histogram (how long waiters blocked on
//! in-flight shapes), and the `batch.jobs.pending` queue-depth gauge.

use crate::cache::{
    synthesize_shape_with_fault, CacheKey, ControllerCache, KeyedProgram, ShapeError, SynthArtifact,
};
use crate::csim::simulate_scenarios;
use crate::fault::FaultPhase;
use crate::pipeline::{
    instantiate, ControllerArtifact, FlowError, FlowOptions, FlowResult, Partitioned,
};
use crate::profile::PhaseProfile;
use crate::table3::{check_outcome, to_flow_scenario};
use bmbe_balsa::CompiledDesign;
use bmbe_designs::scenarios::DesignScenario;
use bmbe_designs::variants_of;
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::SimBackend;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Histogram bounds for singleflight waits, in microseconds: sub-100µs
/// waits are scheduling noise, millisecond waits are real shape synthesis,
/// and the top buckets catch a fleet stacked behind one long pole.
static WAIT_BUCKETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// One design job in a batch: a compiled design plus its flow options and
/// an optional simulation stage.
pub struct BatchJob {
    /// Job label (reported back verbatim; need not be unique).
    pub label: String,
    /// The compiled design to run.
    pub design: CompiledDesign,
    /// Flow configuration. The options participate in the cache key, so
    /// jobs with different options never share shapes by accident.
    pub options: FlowOptions,
    /// Benchmark scenario for the simulation stage; `None` skips
    /// simulation.
    pub scenario: Option<DesignScenario>,
    /// Number of scenario variants to simulate through the compiled
    /// batch backend (see [`bmbe_designs::variants_of`]); `0` skips
    /// simulation even when a scenario is present.
    pub sim_batch: usize,
    /// Seed for the scenario variants.
    pub seed: u64,
}

impl BatchJob {
    /// A job over a design with the optimized flow and no simulation.
    pub fn new(label: impl Into<String>, design: CompiledDesign) -> Self {
        BatchJob {
            label: label.into(),
            design,
            options: FlowOptions::optimized(),
            scenario: None,
            sim_batch: 0,
            seed: 0,
        }
    }
}

/// How a shape was resolved for one requesting job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Served from the shared cache (memory or disk).
    Hit,
    /// Synthesized by the requesting job (it claimed the flight).
    Synthesized,
    /// Reused from another job's in-flight synthesis of the same digest.
    Shared,
}

/// One resolved shape: its artifact and how it was obtained.
type Resolved = (Arc<SynthArtifact>, Resolution);

/// A singleflight slot: one in-flight (or finished) synthesis of a shape.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

enum SlotState {
    Running,
    Done(Result<Arc<SynthArtifact>, Arc<ShapeError>>),
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Running),
            ready: Condvar::new(),
        }
    }
}

/// Recovers a poisoned guard: slot state transitions are single
/// assignments, valid even when the poisoning panic happened elsewhere.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fleet-wide shape resolver: cache read-through plus singleflight on
/// in-flight digests. Shared (by reference) across every job of a batch.
pub struct ShapeRegistry<'a> {
    cache: &'a ControllerCache,
    library: &'a Library,
    slots: Mutex<HashMap<CacheKey, Arc<Slot>>>,
    seen: Mutex<HashSet<CacheKey>>,
    claims: AtomicUsize,
    synthesized: AtomicUsize,
    shared: AtomicUsize,
    hits: AtomicUsize,
}

impl<'a> ShapeRegistry<'a> {
    /// A registry resolving through `cache` and mapping onto `library`.
    pub fn new(cache: &'a ControllerCache, library: &'a Library) -> Self {
        ShapeRegistry {
            cache,
            library,
            slots: Mutex::new(HashMap::new()),
            seen: Mutex::new(HashSet::new()),
            claims: AtomicUsize::new(0),
            synthesized: AtomicUsize::new(0),
            shared: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// Distinct shape digests resolved so far (hit, synthesized, or
    /// shared — every key any job asked for).
    pub fn distinct_shapes(&self) -> usize {
        lock(&self.seen).len()
    }

    /// Shapes synthesized by this fleet (claimed flights that ran the
    /// per-shape chain). With an empty starting cache this equals
    /// [`Self::distinct_shapes`] minus failed flights — the exactly-once
    /// guarantee.
    pub fn synthesized(&self) -> usize {
        self.synthesized.load(Ordering::Relaxed)
    }

    /// Resolutions that blocked on another job's in-flight synthesis.
    pub fn shared_waits(&self) -> usize {
        self.shared.load(Ordering::Relaxed)
    }

    /// Resolutions served straight from the shared cache.
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Resolves one design's distinct shapes, given in component order.
    /// Every shape is looked up in the shared cache first; the misses are
    /// then claimed or waited on, in the same order. Doing every lookup
    /// before any synthesis fixes the disk-operation order (reads, then
    /// the misses' write-through stores), and claiming in component order
    /// fixes which shape a [`crate::FaultPlan`] targets. The owner of a
    /// claim synthesizes the canonical program (panic-isolated) with
    /// `inner` worker threads and stores the result write-through; waiters
    /// block until the flight lands and reuse its result.
    ///
    /// # Errors
    ///
    /// The index of the first failing shape, with its owning flight's
    /// error (shared by every waiter on the same digest). Shapes after it
    /// are not claimed. Failed flights stay failed (the slot is not
    /// retried), so a poisoned shape is synthesized at most once per fleet.
    pub fn resolve(
        &self,
        shapes: &[&KeyedProgram],
        options: &FlowOptions,
        inner: usize,
    ) -> Result<Vec<Resolved>, (usize, Arc<ShapeError>)> {
        let found: Vec<Option<Arc<SynthArtifact>>> = shapes
            .iter()
            .map(|keyed| {
                lock(&self.seen).insert(keyed.key.clone());
                let artifact = self.cache.peek(&keyed.key)?;
                self.hits.fetch_add(1, Ordering::Relaxed);
                bmbe_obs::trace_counter!("batch.shapes.hits", 1);
                Some(artifact)
            })
            .collect();
        shapes
            .iter()
            .zip(found)
            .enumerate()
            .map(|(i, (keyed, found))| match found {
                Some(artifact) => Ok((artifact, Resolution::Hit)),
                None => self.claim(keyed, options, inner).map_err(|e| (i, e)),
            })
            .collect()
    }

    /// Claims the in-flight slot of a cache miss and synthesizes it, or
    /// waits on another caller's flight of the same digest.
    fn claim(
        &self,
        keyed: &KeyedProgram,
        options: &FlowOptions,
        inner: usize,
    ) -> Result<Resolved, Arc<ShapeError>> {
        let (slot, owner) = {
            let mut slots = lock(&self.slots);
            match slots.entry(keyed.key.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
                std::collections::hash_map::Entry::Vacant(v) => {
                    (v.insert(Arc::new(Slot::new())).clone(), true)
                }
            }
        };
        let digest = keyed.key.digest();
        if owner {
            // The claim span carries the shape digest so the fleet
            // analyzer can attribute waiters' blocked time to this
            // synthesis (and to its hottest phase below).
            let _claim_span = bmbe_obs::span!("batch.claim", "batch");
            bmbe_obs::annotate_num!("shape.digest", digest as i64);
            bmbe_obs::recorder::note("batch.claim", || format!("digest {digest:016x} claimed"));
            // Claim index across the registry, for deterministic fault
            // targeting: `BMBE_FAULT=<phase>:<n>` hits the n-th shape
            // claimed — per call for a single-design run, fleet-wide in a
            // batch (cache_io plans are handled by the disk layer and
            // skipped here).
            let claim = self.claims.fetch_add(1, Ordering::Relaxed);
            let fault = options
                .fault
                .as_ref()
                .filter(|f| f.phase != FaultPhase::CacheIo && f.targets_job(claim));
            let result = bmbe_par::catch_job(|| {
                synthesize_shape_with_fault(
                    "shape",
                    &keyed.canonical,
                    options.minimize_mode,
                    options.minimize_backend,
                    options.map_objective,
                    options.map_style,
                    self.library,
                    inner,
                    fault,
                )
            })
            .unwrap_or_else(|payload| Err(ShapeError::Panic(payload)));
            let done = match result {
                Ok(artifact) => {
                    let artifact = Arc::new(artifact);
                    self.cache.store(keyed.key.clone(), artifact.clone());
                    self.synthesized.fetch_add(1, Ordering::Relaxed);
                    bmbe_obs::trace_counter!("batch.shapes.synthesized", 1);
                    Ok(artifact)
                }
                Err(e) => {
                    bmbe_obs::trace_counter!("batch.shapes.failed", 1);
                    bmbe_obs::recorder::note("batch.claim.failed", || {
                        format!("digest {digest:016x}: {e}")
                    });
                    Err(Arc::new(e))
                }
            };
            let mut state = lock(&slot.state);
            *state = SlotState::Done(done.clone());
            self.ready_all(&slot);
            done.map(|a| (a, Resolution::Synthesized))
        } else {
            // The wait span records the *same* microsecond value that goes
            // into the `batch.singleflight_wait_us` histogram, so the
            // analyzer's per-shape attribution sums to the histogram total
            // exactly.
            let _wait_span = bmbe_obs::span!("batch.wait", "batch");
            bmbe_obs::annotate_num!("shape.digest", digest as i64);
            let start = Instant::now();
            let mut state = lock(&slot.state);
            while matches!(*state, SlotState::Running) {
                state = slot
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let waited = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            bmbe_obs::histogram!("batch.singleflight_wait_us", &WAIT_BUCKETS).observe(waited);
            bmbe_obs::annotate_num!("wait.us", waited as i64);
            self.shared.fetch_add(1, Ordering::Relaxed);
            bmbe_obs::trace_counter!("batch.shapes.shared", 1);
            match &*state {
                SlotState::Done(Ok(artifact)) => Ok((artifact.clone(), Resolution::Shared)),
                SlotState::Done(Err(e)) => Err(e.clone()),
                SlotState::Running => unreachable!("condvar loop exits only on Done"),
            }
        }
    }

    fn ready_all(&self, slot: &Slot) {
        slot.ready.notify_all();
    }
}

/// One job's structured result.
#[derive(Debug)]
pub struct JobReport {
    /// The job's label, verbatim.
    pub label: String,
    /// Design name (from the netlist).
    pub design: String,
    /// Control components before clustering.
    pub components_before: usize,
    /// Controllers after clustering.
    pub controllers: usize,
    /// Total two-level products across controllers.
    pub products: usize,
    /// Total control cell area (µm²).
    pub control_area: f64,
    /// Distinct shapes this job needed.
    pub distinct_shapes: usize,
    /// Shapes served from the shared cache.
    pub cache_hits: usize,
    /// Shapes this job synthesized (flights it claimed).
    pub synthesized: usize,
    /// Shapes reused from another job's in-flight synthesis.
    pub shared: usize,
    /// Simulated scenario lanes (0 when the sim stage was skipped).
    pub sim_lanes: usize,
    /// Lanes that reached their done condition.
    pub sim_completed: usize,
    /// Job wall-clock seconds.
    pub wall_s: f64,
}

/// One job's failure, with enough context to re-run it in isolation.
#[derive(Debug)]
pub struct JobFailure {
    /// The job's label, verbatim.
    pub label: String,
    /// Design name (empty when translation never produced one).
    pub design: String,
    /// The first failing component, when the failure is per-shape.
    pub component: String,
    /// The failing shape's cache-key digest (hex), when per-shape.
    pub cache_key: String,
    /// The failing stage: `translate`, a per-shape phase (`compile`,
    /// `synth`, `verify`, `map`, `statemin`), an injected fault, `sim`,
    /// `check`, or `panic` for a caught job unwind.
    pub phase: &'static str,
    /// Human-readable error.
    pub error: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} ({}): phase {}: {}",
            self.label, self.design, self.phase, self.error
        )?;
        if !self.component.is_empty() {
            write!(f, " [component {} key {}]", self.component, self.cache_key)?;
        }
        Ok(())
    }
}

impl std::error::Error for JobFailure {}

/// Drains the flight recorder for a failed job: the dump carries the
/// failure's design/component/cache_key/phase so forensics correlate with
/// the structured error, and goes to a file (or stderr), never stdout.
fn dump_failure(failure: &JobFailure) {
    bmbe_obs::recorder::note("batch.job.failed", || failure.to_string());
    bmbe_obs::recorder::dump(
        "job-failure",
        &[
            ("label", failure.label.clone()),
            ("design", failure.design.clone()),
            ("component", failure.component.clone()),
            ("cache_key", failure.cache_key.clone()),
            ("phase", failure.phase.to_string()),
            ("error", failure.error.clone()),
        ],
    );
}

/// The whole batch's outcome: per-job results in job order plus the
/// fleet-wide shape accounting.
pub struct BatchSummary {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<Result<JobReport, JobFailure>>,
    /// Distinct shape digests resolved across the fleet.
    pub distinct_shapes: usize,
    /// Shapes synthesized across the fleet (each exactly once).
    pub synthesized: usize,
    /// Singleflight waits (a job blocked on another's flight).
    pub shared_waits: usize,
    /// Cache hits across the fleet (memory or disk).
    pub cache_hits: usize,
    /// Job-level worker threads used.
    pub job_workers: usize,
    /// Worker threads inside each job's synthesis.
    pub inner_threads: usize,
    /// Batch wall-clock seconds.
    pub wall_s: f64,
}

impl BatchSummary {
    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_err()).count()
    }
}

/// Runs one job's flow through the registry, then its optional sim stage.
/// `parent_span` is the fleet's `batch.run` span id, so job spans nest
/// under it across worker threads.
fn run_job(
    job: &BatchJob,
    registry: &ShapeRegistry<'_>,
    inner: usize,
    parent_span: u64,
) -> Result<JobReport, JobFailure> {
    let start = Instant::now();
    let _job_span = bmbe_obs::span_with_parent!("batch.job", "batch", parent_span);
    bmbe_obs::annotate_str!("job.label", &job.label);
    bmbe_obs::annotate_str!("job.design", job.design.netlist.name());
    bmbe_obs::recorder::note("batch.job", || {
        format!("job {} ({}) started", job.label, job.design.netlist.name())
    });
    let fail = |design: &str, phase: &'static str, error: String| JobFailure {
        label: job.label.clone(),
        design: design.to_string(),
        component: String::new(),
        cache_key: String::new(),
        phase,
        error,
    };
    let design_name = job.design.netlist.name().to_string();
    let (flow, shape_stats) =
        flow_through_registry(&job.label, &job.design, &job.options, registry, inner)?;
    let components_before = flow.components_before;

    let (mut sim_lanes, mut sim_completed) = (0usize, 0usize);
    if let (Some(scenario), true) = (&job.scenario, job.sim_batch > 0) {
        let scenarios: Vec<_> = variants_of(scenario, job.sim_batch, job.seed)
            .iter()
            .map(to_flow_scenario)
            .collect();
        let outcomes = simulate_scenarios(
            &job.design,
            &flow,
            &scenarios,
            &Delays::default(),
            SimBackend::Compiled,
            inner,
            None,
        );
        sim_lanes = outcomes.len();
        match outcomes.first() {
            Some(Ok(base)) if base.completed => {
                check_outcome(&scenario.check, base)
                    .map_err(|detail| fail(&design_name, "check", detail))?;
            }
            Some(Ok(_)) => {
                return Err(fail(
                    &design_name,
                    "sim",
                    "base scenario did not reach its done condition".into(),
                ))
            }
            Some(Err(e)) => return Err(fail(&design_name, "sim", e.to_string())),
            None => {}
        }
        sim_completed = outcomes
            .iter()
            .filter(|o| o.as_ref().is_ok_and(|o| o.completed))
            .count();
    }

    Ok(JobReport {
        label: job.label.clone(),
        design: design_name,
        components_before,
        controllers: flow.controllers.len(),
        products: flow.total_products(),
        control_area: flow.control_area,
        distinct_shapes: shape_stats.distinct,
        cache_hits: shape_stats.hits,
        synthesized: shape_stats.synthesized,
        shared: shape_stats.shared,
        sim_lanes,
        sim_completed,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// How one design's shapes resolved through the registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapeStats {
    /// Distinct shape digests in the design.
    pub distinct: usize,
    /// Shapes served from the shared cache (memory or disk).
    pub hits: usize,
    /// Shapes this caller synthesized (it claimed the flight).
    pub synthesized: usize,
    /// Shapes reused from another caller's in-flight synthesis.
    pub shared: usize,
}

/// Runs one design's flow — translate, cluster, key, resolve each unique
/// shape through the registry, instantiate — and returns the
/// [`FlowResult`] plus how its shapes resolved.
///
/// This is the flow body every cached run goes through: the batch
/// driver's jobs, the differential gauntlet, and
/// [`crate::run_control_flow_with`] (over a call-local registry). The
/// `inner` thread budget is spent inside each shape.
///
/// # Errors
///
/// Returns a [`JobFailure`] naming the design, component, cache key, and
/// phase on any translate or synthesis error.
pub fn flow_through_registry(
    label: &str,
    design: &CompiledDesign,
    options: &FlowOptions,
    registry: &ShapeRegistry<'_>,
    inner: usize,
) -> Result<(FlowResult, ShapeStats), JobFailure> {
    run_flow(design, options, registry, inner).map_err(|e| {
        let (component, cache_key, phase, error) = match e {
            FlowError::Translate(e) => (String::new(), String::new(), "translate", e.to_string()),
            FlowError::Job {
                component,
                cache_key,
                phase,
                error,
                ..
            } => (component, cache_key, phase, error.to_string()),
        };
        JobFailure {
            label: label.to_string(),
            design: design.netlist.name().to_string(),
            component,
            cache_key,
            phase,
            error,
        }
    })
}

/// [`flow_through_registry`] with the typed [`FlowError`]: the first
/// component (in component order) whose shape failed names the failure.
pub(crate) fn run_flow(
    design: &CompiledDesign,
    options: &FlowOptions,
    registry: &ShapeRegistry<'_>,
    inner: usize,
) -> Result<(FlowResult, ShapeStats), FlowError> {
    let _flow_span = bmbe_obs::span!("flow.run", "flow");
    bmbe_obs::annotate_str!("job.design", design.netlist.name());
    let part = Partitioned::new(design, options)?;
    let components = &part.ctrl.components;
    let keyed: Vec<KeyedProgram> = {
        let _s = bmbe_obs::span!("flow.key", "flow");
        components
            .iter()
            .map(|c| options.keyed(&c.program))
            .collect()
    };
    // Each distinct shape, by the index of the first component needing it.
    let mut seen = HashSet::new();
    let first: Vec<usize> = (0..keyed.len())
        .filter(|&i| seen.insert(&keyed[i].key))
        .collect();
    let shapes: Vec<&KeyedProgram> = first.iter().map(|&i| &keyed[i]).collect();
    let resolved = registry
        .resolve(&shapes, options, inner)
        .map_err(|(j, e)| {
            let i = first[j];
            Arc::unwrap_or_clone(e).into_flow(
                design.netlist.name(),
                &components[i].name,
                &keyed[i].key,
            )
        })?;
    let mut stats = ShapeStats {
        distinct: shapes.len(),
        ..ShapeStats::default()
    };
    let mut phases = PhaseProfile::default();
    let mut artifacts: HashMap<&CacheKey, Arc<SynthArtifact>> = HashMap::new();
    for (k, (artifact, resolution)) in shapes.iter().zip(resolved) {
        match resolution {
            Resolution::Hit => stats.hits += 1,
            Resolution::Synthesized => {
                // Owners alone account the synthesis time: cache hits and
                // shared flights contribute nothing.
                phases.accumulate(&artifact.profile);
                stats.synthesized += 1;
            }
            Resolution::Shared => stats.shared += 1,
        }
        artifacts.insert(&k.key, artifact);
    }
    let controllers: Vec<ControllerArtifact> = components
        .iter()
        .zip(&keyed)
        .map(|(comp, k)| {
            let template = part.template(&comp.name);
            instantiate(&artifacts[&k.key], k, &comp.name, &comp.program, template)
        })
        .collect();
    registry
        .cache
        .record(controllers.len() - stats.synthesized, stats.synthesized);
    let flow = part.finish(design, controllers, stats.synthesized, inner, phases);
    Ok((flow, stats))
}

/// Runs a batch of design jobs over a shared cache, sharding distinct
/// shape digests across the worker pool so each is synthesized exactly
/// once per fleet.
///
/// The thread budget splits between job-level workers
/// (`threads.min(jobs)`) and synthesis threads inside each job; waiters on
/// a shared flight block their job worker, which is deadlock-free because
/// the owning flight always runs to completion on its own worker. Job
/// order is preserved in the summary; a failing (or panicking) job never
/// takes its siblings down.
pub fn run_batch(
    jobs: &[BatchJob],
    library: &Library,
    cache: &ControllerCache,
    threads: usize,
) -> BatchSummary {
    let start = Instant::now();
    let span = bmbe_obs::span!("batch.run", "batch");
    let root_span = span.id();
    let registry = ShapeRegistry::new(cache, library);
    let threads = threads.max(1);
    let job_workers = threads.min(jobs.len()).max(1);
    let inner = (threads / job_workers).max(1);
    bmbe_obs::trace_gauge!("batch.jobs.pending", jobs.len() as i64);
    let results: Vec<Result<JobReport, JobFailure>> = bmbe_par::par_try_map(
        jobs,
        job_workers,
        |i, job| format!("batch job {i} ({})", job.label),
        |_, job| {
            let outcome = run_job(job, &registry, inner, root_span);
            bmbe_obs::trace_gauge!("batch.jobs.pending", add: -1);
            outcome
        },
    )
    .into_iter()
    .zip(jobs)
    .map(|(slot, job)| {
        let outcome = slot.unwrap_or_else(|e| {
            Err(JobFailure {
                label: job.label.clone(),
                design: job.design.netlist.name().to_string(),
                component: String::new(),
                cache_key: String::new(),
                phase: "panic",
                error: e.payload,
            })
        });
        match &outcome {
            Ok(_) => bmbe_obs::trace_counter!("batch.jobs.completed", 1),
            Err(failure) => {
                bmbe_obs::trace_counter!("batch.jobs.failed", 1);
                dump_failure(failure);
            }
        }
        outcome
    })
    .collect();
    drop(span);
    BatchSummary {
        jobs: results,
        distinct_shapes: registry.distinct_shapes(),
        synthesized: registry.synthesized(),
        shared_waits: registry.shared_waits(),
        cache_hits: registry.cache_hits(),
        job_workers,
        inner_threads: inner,
        wall_s: start.elapsed().as_secs_f64(),
    }
}
