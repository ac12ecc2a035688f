//! One flow body, one span tree: a cached single-design run and a one-job
//! batch of the same design record the same `flow.run` subtree —
//! `flow.translate`, `flow.cluster`, `flow.key`, and one `batch.claim`
//! per synthesized shape — the batch only wrapping it in
//! `batch.run`/`batch.job`.
//!
//! One `#[test]` on purpose: tracing state (the enabled flag, the rings)
//! is process-global, and a sibling test recording concurrently would
//! interleave its spans into this test's flush.

use bmbe_designs::all_designs;
use bmbe_flow::{run_batch, run_control_flow_with, BatchJob, ControllerCache, FlowOptions};
use bmbe_gates::Library;
use bmbe_obs::export::{canonical_span_forest, validate};

/// Runs `work` with tracing on and returns the canonical span forest of
/// exactly what it recorded.
fn traced(work: impl FnOnce()) -> String {
    drop(bmbe_obs::flush());
    bmbe_obs::set_enabled(true);
    work();
    bmbe_obs::set_enabled(false);
    let trace = bmbe_obs::flush();
    validate(&trace).unwrap_or_else(|e| panic!("trace invalid: {e}"));
    canonical_span_forest(&trace)
}

#[test]
fn single_design_and_batch_runs_share_the_flow_span_tree() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let stack = designs
        .iter()
        .find(|d| d.name == "Stack")
        .expect("Stack benchmark design");
    let mut misses = 0;
    let single = traced(|| {
        let options = FlowOptions {
            threads: Some(1),
            ..FlowOptions::optimized()
        };
        let flow =
            run_control_flow_with(&stack.compiled, &options, &library, &ControllerCache::new())
                .expect("traced flow");
        misses = flow.cache_misses;
    });
    assert!(
        single.starts_with("flow.run("),
        "one flow.run root: {single}"
    );
    for span in [
        "flow.translate",
        "flow.cluster",
        "flow.key",
        "shape.compile",
    ] {
        assert!(single.contains(span), "{span} missing: {single}");
    }
    assert_eq!(
        single.matches("batch.claim(").count(),
        misses,
        "one batch.claim per synthesized shape: {single}"
    );

    let batch = traced(|| {
        let summary = run_batch(
            &[BatchJob::new("stack", stack.compiled.clone())],
            &library,
            &ControllerCache::new(),
            1,
        );
        assert_eq!(summary.failed(), 0);
    });
    assert_eq!(batch, format!("batch.run(batch.job({single}))"));
}
