//! Simulation smoke test: every benchmark scenario must run on the event
//! engine well inside a generous wall-clock bound. Like `perf_smoke`, this
//! is not a benchmark — the bound is an order of magnitude above the
//! measured time — it catches catastrophic scheduler regressions in
//! ordinary `cargo test` runs.

use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow_with, simulate, to_flow_scenario, ControllerCache, FlowOptions};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;
use bmbe_sim::SimBackend;
use std::time::{Duration, Instant};

#[test]
fn event_engine_runs_all_scenarios_within_wall_clock_bound() {
    let bound = if cfg!(debug_assertions) {
        Duration::from_secs(300)
    } else {
        Duration::from_secs(60)
    };
    let library = Library::cmos035();
    let delays = Delays::default();
    let designs = all_designs().expect("shipped designs build");
    let cache = ControllerCache::new();
    let flows: Vec<_> = designs
        .iter()
        .map(|design| {
            (
                design,
                to_flow_scenario(&design.scenario),
                run_control_flow_with(
                    &design.compiled,
                    &FlowOptions::optimized(),
                    &library,
                    &cache,
                )
                .unwrap_or_else(|e| panic!("{} flow: {e}", design.name)),
            )
        })
        .collect();

    // The timed pass: every scenario on the event engine.
    let start = Instant::now();
    for (design, scenario, flow) in &flows {
        let run = simulate(&design.compiled, flow, scenario, &delays)
            .unwrap_or_else(|e| panic!("{} event sim: {e}", design.name));
        assert!(
            run.completed,
            "{}: event run did not complete (reached {} ns after {} events)",
            design.name, run.time_ns, run.events
        );
        assert_eq!(run.stats.backend, SimBackend::Event);
        assert!(
            run.stats.peak_queue_depth > 0,
            "{}: a completed run must have queued events",
            design.name
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < bound,
        "event simulation of all scenarios took {elapsed:?} (bound {bound:?})"
    );
}
