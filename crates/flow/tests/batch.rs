//! Batch-driver integration tests: fleet-wide exactly-once synthesis
//! (asserted through both the summary accounting and the obs counters),
//! pipeline equivalence, per-job failure isolation, and failed-flight
//! sharing.

use bmbe_designs::all_designs;
use bmbe_flow::{
    flow_through_registry, run_batch, run_control_flow_with, BatchJob, CacheStats, ControllerCache,
    FaultPlan, FlowOptions, FlowResult, ShapeRegistry,
};
use bmbe_gates::Library;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Obs counters are process-global; tests that assert counter deltas (or
/// drive batches whose counters another test might read) serialize here.
static BATCH_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    BATCH_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Replicated jobs over every benchmark design: one fleet, each distinct
/// shape digest synthesized exactly once no matter the replica count or
/// thread budget — pinned by the registry summary *and* by the
/// `batch.shapes.synthesized` obs counter.
#[test]
fn fleet_synthesizes_each_shape_exactly_once() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let jobs: Vec<BatchJob> = (0..3)
        .flat_map(|r| {
            designs.iter().map(move |d| BatchJob {
                label: format!("{}#{r}", d.name),
                design: d.compiled.clone(),
                scenario: Some(d.scenario.clone()),
                sim_batch: 4,
                seed: r,
                ..BatchJob::new("", d.compiled.clone())
            })
        })
        .collect();
    for threads in [1, 4] {
        let before = bmbe_obs::counter!("batch.shapes.synthesized").get();
        let cache = ControllerCache::new();
        let summary = run_batch(&jobs, &library, &cache, threads);
        assert_eq!(summary.failed(), 0, "threads={threads}");
        // Exactly once: with an empty starting cache and no failures, the
        // fleet synthesizes each distinct digest once, never more.
        assert_eq!(
            summary.synthesized, summary.distinct_shapes,
            "threads={threads}"
        );
        assert_eq!(
            bmbe_obs::counter!("batch.shapes.synthesized").get() - before,
            summary.synthesized as u64,
            "threads={threads}: obs counter disagrees with the registry"
        );
        // Per-job accounting sums to the fleet totals.
        let (mut synth, mut hits, mut shared) = (0, 0, 0);
        for job in &jobs {
            let report = summary
                .jobs
                .iter()
                .flatten()
                .find(|r| r.label == job.label)
                .expect("every job reported");
            synth += report.synthesized;
            hits += report.cache_hits;
            shared += report.shared;
            // The sim stage ran its full compiled batch.
            assert_eq!(report.sim_lanes, 4, "{}", job.label);
            assert_eq!(report.sim_completed, 4, "{}", job.label);
        }
        assert_eq!(synth, summary.synthesized);
        assert_eq!(hits, summary.cache_hits);
        assert_eq!(shared, summary.shared_waits);
        // Every non-first resolution of a digest was a hit or a shared
        // flight, so the totals cover all resolutions.
        assert!(hits + shared > 0, "replicas must reuse the fleet's shapes");
    }
}

/// A batch of one job produces the pipeline's exact artifacts: same
/// controller count, products, and bit-identical control area.
#[test]
fn batch_results_match_the_pipeline() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    for design in &designs {
        let flow = run_control_flow_with(
            &design.compiled,
            &FlowOptions::optimized(),
            &library,
            &ControllerCache::new(),
        )
        .unwrap_or_else(|e| panic!("{} pipeline: {e}", design.name));
        let summary = run_batch(
            &[BatchJob::new(design.name, design.compiled.clone())],
            &library,
            &ControllerCache::new(),
            1,
        );
        let report = summary.jobs[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("{} batch: {e}", design.name));
        assert_eq!(report.controllers, flow.controllers.len(), "{}", design.name);
        assert_eq!(report.products, flow.total_products(), "{}", design.name);
        assert_eq!(report.control_area, flow.control_area, "{}", design.name);
        assert_eq!(report.components_before, flow.components_before);
    }
}

/// A job whose shape panics fails alone; jobs needing other shapes
/// complete, and the batch reports both in submission order.
#[test]
fn a_failing_job_does_not_take_siblings_down() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let fault = FaultPlan::parse("synth:0").expect("valid fault spec");
    let mut poisoned = BatchJob::new("poisoned", designs[0].compiled.clone());
    poisoned.options.fault = Some(fault);
    let healthy = BatchJob::new("healthy", designs[2].compiled.clone());
    let summary = run_batch(&[poisoned, healthy], &library, &ControllerCache::new(), 1);
    let failure = summary.jobs[0].as_ref().expect_err("fault must fail job 0");
    assert_eq!(failure.phase, "panic");
    assert!(!failure.component.is_empty(), "failure names the component");
    assert!(failure.error.contains("injected"), "{}", failure.error);
    let report = summary.jobs[1].as_ref().expect("sibling completes");
    assert!(report.synthesized > 0);
    assert_eq!(summary.failed(), 1);
}

/// A failed flight is shared, not retried: the second job needing the
/// same digest fails with the owner's error and the fleet never
/// synthesizes the shape again (exactly-once covers failures too).
#[test]
fn shared_failures_are_not_retried() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let fault = FaultPlan::parse("synth:0:err").expect("valid fault spec");
    let job = |label: &str| {
        let mut j = BatchJob::new(label, designs[0].compiled.clone());
        j.options.fault = Some(fault.clone());
        j
    };
    let summary = run_batch(&[job("first"), job("second")], &library, &ControllerCache::new(), 1);
    assert_eq!(summary.failed(), 2);
    let first = summary.jobs[0].as_ref().expect_err("owner fails");
    let second = summary.jobs[1].as_ref().expect_err("waiter shares the failure");
    assert_eq!(first.cache_key, second.cache_key, "same digest fails both");
    assert_eq!(first.error, second.error, "waiter reports the owner's error");
    // The failing claim was the only synthesis attempt; nothing landed.
    assert_eq!(summary.synthesized, 0);
}

/// Per-controller digests over everything synthesis decides (covers, state
/// codes, mapped cells, area and delays), leaving out wall-clock profiles.
fn controller_digests(flow: &FlowResult) -> Vec<(String, u64)> {
    flow.controllers
        .iter()
        .map(|c| {
            let mut h = DefaultHasher::new();
            c.bm_states.hash(&mut h);
            c.controller.inputs.hash(&mut h);
            c.controller.outputs.hash(&mut h);
            c.controller.num_state_bits.hash(&mut h);
            format!("{:?}", c.controller.output_covers).hash(&mut h);
            format!("{:?}", c.controller.next_state_covers).hash(&mut h);
            format!("{:?}", c.controller.assignment).hash(&mut h);
            format!("{:?}", c.mapped.gates).hash(&mut h);
            c.area().to_bits().hash(&mut h);
            c.critical_delay().to_bits().hash(&mut h);
            (c.name.clone(), h.finish())
        })
        .collect()
}

/// One hit/miss accounting: a design run through `flow_through_registry`
/// over a fresh registry and through `run_control_flow_with` over a fresh
/// cache reports the same per-component hits and misses, records the same
/// numbers in its cache, and yields digest-identical controllers.
#[test]
fn registry_and_pipeline_agree_on_accounting_and_artifacts() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let options = FlowOptions::optimized();
    for design in &designs {
        let pipeline_cache = ControllerCache::new();
        let pipeline = run_control_flow_with(&design.compiled, &options, &library, &pipeline_cache)
            .unwrap_or_else(|e| panic!("{} pipeline: {e}", design.name));
        let registry_cache = ControllerCache::new();
        let registry = ShapeRegistry::new(&registry_cache, &library);
        let (through, _) =
            flow_through_registry(design.name, &design.compiled, &options, &registry, 1)
                .unwrap_or_else(|e| panic!("{} registry: {e}", design.name));
        assert_eq!(
            (through.cache_hits, through.cache_misses),
            (pipeline.cache_hits, pipeline.cache_misses),
            "{}: hits/misses through the registry vs the pipeline",
            design.name
        );
        assert_eq!(
            through.cache_hits + through.cache_misses,
            through.controllers.len(),
            "{}: accounting is per component",
            design.name
        );
        assert_eq!(
            registry_cache.stats(),
            pipeline_cache.stats(),
            "{}: numbers recorded in the cache",
            design.name
        );
        assert_eq!(
            controller_digests(&through),
            controller_digests(&pipeline),
            "{}: controller digests",
            design.name
        );
    }
}

/// Per-component accounting over a shared registry: a second run of a
/// design through the registry that synthesized its shapes synthesizes
/// nothing and counts every component as a hit, in its result and in the
/// numbers it records in the cache.
#[test]
fn second_flow_through_a_registry_is_all_hits() {
    let _serial = lock();
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let options = FlowOptions::optimized();
    for design in &designs {
        let cache = ControllerCache::new();
        let registry = ShapeRegistry::new(&cache, &library);
        let run = || {
            flow_through_registry(design.name, &design.compiled, &options, &registry, 1)
                .unwrap_or_else(|e| panic!("{}: {e}", design.name))
        };
        let (cold, cold_stats) = run();
        let (warm, warm_stats) = run();
        assert_eq!(cold.cache_misses, cold_stats.distinct, "{}", design.name);
        assert_eq!(
            (warm.cache_hits, warm.cache_misses),
            (warm.controllers.len(), 0),
            "{}: warm hits/misses",
            design.name
        );
        assert_eq!(
            (warm_stats.hits, warm_stats.synthesized, warm_stats.shared),
            (warm_stats.distinct, 0, 0),
            "{}: warm shape resolutions",
            design.name
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: cold.cache_hits + warm.controllers.len(),
                misses: cold.cache_misses,
            },
            "{}: numbers recorded in the cache",
            design.name
        );
    }
}
