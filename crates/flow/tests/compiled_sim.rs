//! Differential property tests for the bit-parallel compiled backend:
//! every per-scenario outcome must match the event-engine oracle's
//! *behaviour* (completion, port traffic, memory contents) exactly — on
//! all four paper designs, on randomized scenario batches, on partial
//! batches narrower than a lane word, and bit-identically at any worker
//! thread count.

use bmbe_designs::{all_designs, scenario_variants, Design};
use bmbe_flow::{
    check_outcome, run_control_flow_with, simulate_scenarios, to_flow_scenario, ControllerCache,
    FaultKind, FaultPhase, FaultPlan, FlowOptions, FlowResult, Scenario, SimBackend,
    SimBuildError,
};
use bmbe_gates::Library;
use bmbe_sim::prims::Delays;

fn flows(designs: &[Design]) -> Vec<FlowResult> {
    let library = Library::cmos035();
    let cache = ControllerCache::new();
    designs
        .iter()
        .map(|d| {
            run_control_flow_with(&d.compiled, &FlowOptions::optimized(), &library, &cache)
                .expect("flow")
        })
        .collect()
}

fn variants(design: &Design, n: usize, seed: u64) -> Vec<Scenario> {
    scenario_variants(design, n, seed)
        .iter()
        .map(to_flow_scenario)
        .collect()
}

/// Full-width batches on every paper design: each of the 64 lanes must
/// reproduce its event-oracle run, and the base lane must still pass the
/// design's functional check.
#[test]
fn compiled_matches_event_oracle_on_all_designs() {
    let designs = all_designs().expect("designs build");
    let delays = Delays::default();
    for (design, flow) in designs.iter().zip(flows(&designs)) {
        let scenarios = variants(design, 64, bm_seed(design));
        let compiled = simulate_scenarios(
            &design.compiled,
            &flow,
            &scenarios,
            &delays,
            SimBackend::Compiled,
            4,
            None,
        );
        let oracle = simulate_scenarios(
            &design.compiled,
            &flow,
            &scenarios,
            &delays,
            SimBackend::Event,
            4,
            None,
        );
        assert_eq!(compiled.len(), 64);
        for (lane, (c, o)) in compiled.iter().zip(&oracle).enumerate() {
            let c = c.as_ref().unwrap_or_else(|e| {
                panic!("{}: compiled lane {lane} failed: {e}", design.name)
            });
            let o = o.as_ref().unwrap_or_else(|e| {
                panic!("{}: oracle lane {lane} failed: {e}", design.name)
            });
            assert!(o.completed, "{}: oracle lane {lane} incomplete", design.name);
            assert!(
                c.same_behaviour(o),
                "{}: lane {lane} diverged from the oracle:\ncompiled: {:?} {:?} {:?}\noracle:   {:?} {:?} {:?}",
                design.name,
                c.outputs,
                c.sync_counts,
                c.memories,
                o.outputs,
                o.sync_counts,
                o.memories
            );
            assert_eq!(c.stats.lanes, 64);
            assert_eq!(c.stats.backend, SimBackend::Compiled);
        }
        // The base lane still satisfies the design's functional check.
        let base = compiled[0].as_ref().unwrap();
        check_outcome(&design.scenario.check, base)
            .unwrap_or_else(|e| panic!("{}: base-lane check failed: {e}", design.name));
    }
}

// A per-design seed so the four designs do not share variant data.
fn bm_seed(design: &Design) -> u64 {
    design.name.bytes().map(u64::from).sum::<u64>() * 0x9e37_79b9
}

/// A partial batch (fewer scenarios than lanes) must behave exactly like
/// the oracle; the dead upper lanes are padding only.
#[test]
fn partial_batches_match_the_oracle() {
    let designs = all_designs().expect("designs build");
    let stack = designs.iter().find(|d| d.name == "Stack").unwrap();
    let flow = flows(std::slice::from_ref(stack)).remove(0);
    let delays = Delays::default();
    let scenarios = variants(stack, 5, 7);
    let compiled = simulate_scenarios(
        &stack.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Compiled,
        2,
        None,
    );
    let oracle = simulate_scenarios(
        &stack.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Event,
        2,
        None,
    );
    assert_eq!(compiled.len(), 5);
    for (lane, (c, o)) in compiled.iter().zip(&oracle).enumerate() {
        let c = c.as_ref().expect("compiled lane");
        let o = o.as_ref().expect("oracle lane");
        assert!(c.same_behaviour(o), "partial-batch lane {lane} diverged");
        assert_eq!(c.stats.lanes, 5);
    }
}

/// Partial-batch throughput accounting counts live lanes only: each
/// lane's event count equals its singleton-batch run (the dead padding
/// contributes nothing), `stats.lanes` reports the live count, and the
/// batch events/s figure is exactly the live-lane event sum over the
/// batch wall time.
#[test]
fn partial_batch_stats_count_live_lanes_only() {
    let designs = all_designs().expect("designs build");
    let stack = designs.iter().find(|d| d.name == "Stack").unwrap();
    let flow = flows(std::slice::from_ref(stack)).remove(0);
    let delays = Delays::default();
    let scenarios = variants(stack, 5, 11);
    let batch = simulate_scenarios(
        &stack.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Compiled,
        1,
        None,
    );
    assert_eq!(batch.len(), 5);
    let mut live_sum = 0u64;
    for (lane, slot) in batch.iter().enumerate() {
        let o = slot.as_ref().expect("batch lane");
        // Each lane's events match the same scenario run as a singleton
        // batch — a dead-lane contribution would break the equality.
        let solo = simulate_scenarios(
            &stack.compiled,
            &flow,
            std::slice::from_ref(&scenarios[lane]),
            &delays,
            SimBackend::Compiled,
            1,
            None,
        );
        let solo = solo[0].as_ref().expect("singleton lane");
        assert_eq!(
            o.events, solo.events,
            "lane {lane}: batched event count differs from its singleton run"
        );
        assert_eq!(o.stats.lanes, 5, "lane {lane}: stats.lanes must be the live count");
        live_sum += o.events;
    }
    // events/s is the live-lane sum over the batch wall: every outcome of
    // the batch reports the same figure, and multiplying it back by the
    // wall recovers the live event total (not a 64-lane-padded one).
    let stats = &batch[0].as_ref().unwrap().stats;
    if stats.wall_s > 0.0 {
        let recovered = stats.events_per_s * stats.wall_s;
        let err = (recovered - live_sum as f64).abs() / live_sum as f64;
        assert!(
            err < 1e-6,
            "events_per_s * wall_s = {recovered}, want {live_sum} (rel err {err})"
        );
    }
}

/// Compiled results are bit-identical whatever the worker-thread count:
/// the circuit is compiled once and wave evaluation is order-independent.
#[test]
fn compiled_results_are_bit_identical_across_thread_counts() {
    let designs = all_designs().expect("designs build");
    let stack = designs.iter().find(|d| d.name == "Stack").unwrap();
    let flow = flows(std::slice::from_ref(stack)).remove(0);
    let delays = Delays::default();
    // 130 scenarios = two full batches and a 2-lane remainder.
    let scenarios = variants(stack, 130, 99);
    let runs: Vec<_> = [1usize, 4]
        .iter()
        .map(|&threads| {
            simulate_scenarios(
                &stack.compiled,
                &flow,
                &scenarios,
                &delays,
                SimBackend::Compiled,
                threads,
                None,
            )
        })
        .collect();
    for (i, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        let a = a.as_ref().expect("1-thread lane");
        let b = b.as_ref().expect("4-thread lane");
        assert!(
            a.same_result(b),
            "scenario {i}: 1-thread and 4-thread compiled runs differ"
        );
        assert_eq!(a.stats.waves, b.stats.waves, "scenario {i}: wave counts differ");
        assert_eq!(a.stats.lanes, b.stats.lanes);
    }
}

/// `Auto` runs a single scenario on the event engine (timed) and a batch
/// on the compiled engine.
#[test]
fn auto_backend_dispatches_by_batch_size() {
    let designs = all_designs().expect("designs build");
    let counter = &designs[0];
    let flow = flows(std::slice::from_ref(counter)).remove(0);
    let delays = Delays::default();
    let one = variants(counter, 1, 1);
    let r = simulate_scenarios(
        &counter.compiled,
        &flow,
        &one,
        &delays,
        SimBackend::Auto,
        1,
        None,
    );
    let o = r[0].as_ref().expect("single scenario");
    assert_eq!(o.stats.backend, SimBackend::Event);
    assert!(o.time_ns > 0.0, "event runs are timed");
    let three = variants(counter, 3, 1);
    let r = simulate_scenarios(
        &counter.compiled,
        &flow,
        &three,
        &delays,
        SimBackend::Auto,
        1,
        None,
    );
    for o in &r {
        let o = o.as_ref().expect("batched scenario");
        assert_eq!(o.stats.backend, SimBackend::Compiled);
        assert_eq!(o.stats.lanes, 3);
        assert!(o.completed);
    }
}

/// An injected `sim_compile` fault surfaces as a typed error (or an
/// isolated panic) on every scenario of the batch, and never fires on the
/// event backend.
#[test]
fn sim_compile_fault_surfaces_as_typed_error() {
    let designs = all_designs().expect("designs build");
    let counter = &designs[0];
    let flow = flows(std::slice::from_ref(counter)).remove(0);
    let delays = Delays::default();
    let scenarios = variants(counter, 3, 5);
    let plan = FaultPlan {
        phase: FaultPhase::SimCompile,
        nth: 0,
        kind: FaultKind::Error,
    };
    let r = simulate_scenarios(
        &counter.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Compiled,
        2,
        Some(&plan),
    );
    assert_eq!(r.len(), 3);
    for slot in &r {
        match slot {
            Err(SimBuildError::Compile { controller, detail }) => {
                assert_eq!(*controller, flow.controllers[0].name);
                assert!(detail.contains("injected fault at sim_compile of job 0"), "{detail}");
            }
            other => panic!("expected a typed compile error, got {other:?}"),
        }
    }
    // Panic kind: isolated and surfaced as SimBuildError::Panic.
    let plan = FaultPlan {
        phase: FaultPhase::SimCompile,
        nth: 0,
        kind: FaultKind::Panic,
    };
    let r = simulate_scenarios(
        &counter.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Compiled,
        2,
        Some(&plan),
    );
    for slot in &r {
        match slot {
            Err(SimBuildError::Panic(payload)) => {
                assert!(payload.contains("injected fault: panic at phase sim_compile"), "{payload}");
            }
            other => panic!("expected a caught panic, got {other:?}"),
        }
    }
    // The same plan is inert on the event backend (no sim_compile phase).
    let r = simulate_scenarios(
        &counter.compiled,
        &flow,
        &scenarios,
        &delays,
        SimBackend::Event,
        2,
        Some(&plan),
    );
    for slot in &r {
        assert!(slot.is_ok(), "event backend must ignore sim_compile faults");
    }
}
