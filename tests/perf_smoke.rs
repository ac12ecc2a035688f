//! Performance smoke test: the warm-cache optimized flow over all four
//! benchmark designs must finish well inside a generous wall-clock bound.
//! This is not a benchmark — the bound is an order of magnitude above the
//! measured time (milliseconds on release builds) — it exists to catch
//! catastrophic regressions (an accidental exponential path, a lost cache)
//! in ordinary `cargo test` runs.

use bmbe_designs::all_designs;
use bmbe_flow::{run_control_flow_with, ControllerCache, FlowOptions, PhaseProfile};
use bmbe_gates::Library;
use std::time::{Duration, Instant};

#[test]
fn warm_cache_full_flow_stays_within_wall_clock_bound() {
    // Debug builds are roughly an order of magnitude slower; stay generous
    // in both profiles so a loaded CI host never flakes.
    let bound = if cfg!(debug_assertions) {
        Duration::from_secs(300)
    } else {
        Duration::from_secs(60)
    };
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let cache = ControllerCache::new();
    // Cold pass populates the cache; the timed pass must then hit on every
    // controller of every design.
    for design in &designs {
        run_control_flow_with(
            &design.compiled,
            &FlowOptions::optimized(),
            &library,
            &cache,
        )
        .unwrap_or_else(|e| panic!("{} cold: {e}", design.name));
    }
    let start = Instant::now();
    let mut phases = PhaseProfile::default();
    for design in &designs {
        let result = run_control_flow_with(
            &design.compiled,
            &FlowOptions::optimized(),
            &library,
            &cache,
        )
        .unwrap_or_else(|e| panic!("{} warm: {e}", design.name));
        assert_eq!(
            result.cache_misses, 0,
            "{}: warm run must not re-synthesize",
            design.name
        );
        phases.accumulate(&result.phases);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < bound,
        "warm-cache flow over all designs took {elapsed:?} (bound {bound:?}); \
         phase totals: {phases:?}"
    );
    // Warm runs serve every shape from the cache, so no synthesis phase
    // time may be re-spent.
    assert_eq!(
        phases.shapes, 0,
        "warm runs must not re-run the per-shape chain"
    );
}

/// The cached cold flow on a 2-shape design with no dedup (the clustered
/// Stack) must stay within noise of the serial uncached flow: its misses
/// are resolved one after another on the calling thread, so the only
/// extra work is keying, registry lookups and instantiation, which is
/// microseconds against a multi-millisecond flow. The generous margin
/// absorbs loaded-CI noise; what this pins is the *absence* of a fan-out
/// or bookkeeping penalty on small designs (the BENCH_flow.json Stack
/// regression).
#[test]
fn stack_cached_cold_flow_is_not_slower_than_serial() {
    let library = Library::cmos035();
    let designs = all_designs().expect("shipped designs build");
    let stack = designs
        .iter()
        .find(|d| d.name == "Stack")
        .expect("Stack benchmark present");
    let serial_options = FlowOptions::optimized().serial_uncached();
    let mut cached_options = FlowOptions::optimized();
    cached_options.threads = Some(1);
    let mut serial_samples = Vec::new();
    let mut cached_samples = Vec::new();
    // Interleave the two sides so drift on a loaded host biases both
    // equally; compare medians, which shrug off stray slow samples.
    for _ in 0..9 {
        let start = Instant::now();
        run_control_flow_with(&stack.compiled, &serial_options, &library, &ControllerCache::new())
            .expect("serial flow");
        serial_samples.push(start.elapsed());
        let start = Instant::now();
        run_control_flow_with(&stack.compiled, &cached_options, &library, &ControllerCache::new())
            .expect("cached flow");
        cached_samples.push(start.elapsed());
    }
    serial_samples.sort();
    cached_samples.sort();
    let serial = serial_samples[serial_samples.len() / 2];
    let cached = cached_samples[cached_samples.len() / 2];
    assert!(
        cached <= serial.mul_f64(1.35) + Duration::from_millis(2),
        "cached cold Stack flow (median {cached:?}) regressed past serial (median {serial:?})"
    );
}
