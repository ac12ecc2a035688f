//! Performance report for the parallel, content-addressed back-end: times
//! the seed's serial uncached pipeline against the cached + parallel
//! pipeline on every benchmark design and writes `BENCH_flow.json`,
//! including a per-phase profile (compile / statemin / synth / primes /
//! covering / verify / map) and, when a previous `BENCH_flow.json` exists,
//! before/after numbers against it.
//!
//! Run with `--release`; the debug build is an order of magnitude slower.
//!
//! Stdout carries the pure JSON report (the same text written to
//! `BENCH_flow.json`); the human-readable tables go to **stderr** via
//! `bmbe_obs::vlog!` at verbosity ≥ 1 (`BMBE_VERBOSE=1`).

use bmbe_bench::report::{emit_report, run_main};
use bmbe_designs::all_designs;
use bmbe_flow::{
    run_control_flow, run_control_flow_with, ControllerCache, FlowOptions, MinimizeBackend,
    PhaseProfile,
};
use bmbe_gates::Library;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const SAMPLES: usize = 9;

/// Median of a sample vector.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Medians of `routines.len()` interleaved routines over `SAMPLES` rounds
/// (after one untimed warm-up round). Interleaving round-robins the
/// routines so host-load drift between sampling windows lands on every
/// routine equally instead of biasing whichever ran last.
fn interleaved_median_secs(routines: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for routine in routines.iter_mut() {
        routine();
    }
    let mut samples = vec![Vec::with_capacity(SAMPLES); routines.len()];
    for _ in 0..SAMPLES {
        for (routine, out) in routines.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            routine();
            out.push(start.elapsed().as_secs_f64());
        }
    }
    samples.into_iter().map(median).collect()
}

struct Row {
    design: String,
    components: usize,
    serial_s: f64,
    cached_s: f64,
    warm_s: f64,
    hits: usize,
    misses: usize,
    phases: PhaseProfile,
    /// Median cold prime-generation seconds under the default (`Auto`)
    /// minimizer backend and under the exact prime-enumerating backend:
    /// the per-backend before/after the perf-smoke gate checks.
    prime_gen_auto_s: f64,
    prime_gen_exact_s: f64,
    prev_serial_s: Option<f64>,
    prev_cached_s: Option<f64>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_s / self.cached_s
    }
}

/// Pulls `"field": <number>` out of `text` after position `from`.
fn field_after(text: &str, from: usize, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = text[from..].find(&needle)? + from + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the previous report's per-design serial/cached seconds so the new
/// report can carry before/after numbers. Tolerant by construction: any
/// missing file, design, or field simply yields `None`.
fn previous_numbers(design: &str) -> (Option<f64>, Option<f64>) {
    let Ok(text) = std::fs::read_to_string("BENCH_flow.json") else {
        return (None, None);
    };
    let Some(at) = text.find(&format!("\"design\": \"{design}\"")) else {
        return (None, None);
    };
    (
        field_after(&text, at, "serial_uncached_s"),
        field_after(&text, at, "cached_parallel_s"),
    )
}

fn main() -> ExitCode {
    run_main("perf_report", run)
}

fn run() -> Result<bool, String> {
    bmbe_obs::init_from_env();
    let library = Library::cmos035();
    let designs = all_designs().map_err(|e| format!("shipped designs: {e}"))?;
    let mut rows = Vec::new();
    let mut threads_used = 1;
    for design in &designs {
        let (prev_serial_s, prev_cached_s) = previous_numbers(design.name);
        // Preflight each configuration once with any BMBE_FAULT plan armed:
        // an injected (or genuine) failure surfaces here as a structured
        // error instead of a panic mid-timing. The timed runs below then
        // measure the plain, fault-free options.
        for options in [
            FlowOptions::optimized().serial_uncached().with_env_fault(),
            FlowOptions::optimized().with_env_fault(),
        ] {
            run_control_flow(&design.compiled, &options, &library)
                .map_err(|e| format!("{}: {e}", design.name))?;
        }
        let warm = ControllerCache::new();
        // Fresh cache on every "cached" run: cold-cache dedup + parallel
        // fan-out, the honest comparison against the seed.
        let timings = interleaved_median_secs(&mut [
            &mut || {
                black_box(
                    run_control_flow(
                        &design.compiled,
                        &FlowOptions::optimized().serial_uncached(),
                        &library,
                    )
                    .expect("serial flow"),
                );
            },
            &mut || {
                black_box(
                    run_control_flow(&design.compiled, &FlowOptions::optimized(), &library)
                        .expect("cached flow"),
                );
            },
            &mut || {
                black_box(
                    run_control_flow_with(
                        &design.compiled,
                        &FlowOptions::optimized(),
                        &library,
                        &warm,
                    )
                    .expect("warm flow"),
                );
            },
        ]);
        let (serial_s, cached_s, warm_s) = (timings[0], timings[1], timings[2]);
        let result = run_control_flow(&design.compiled, &FlowOptions::optimized(), &library)
            .map_err(|e| format!("{}: {e}", design.name))?;
        threads_used = result.threads_used;
        // Per-backend prime generation, cold cache, median of 3: the Auto
        // default (which routes wide functions to the cube-cofactor
        // engine) against the exact prime-enumerating backend.
        let prime_gen_median = |backend: MinimizeBackend| -> Result<f64, String> {
            let samples = (0..3)
                .map(|_| {
                    let mut options = FlowOptions::optimized();
                    options.minimize_backend = backend;
                    run_control_flow(&design.compiled, &options, &library)
                        .map(|r| r.phases.prime_gen.as_secs_f64())
                        .map_err(|e| format!("{}/{backend:?}: {e}", design.name))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(median(samples))
        };
        let prime_gen_auto_s = prime_gen_median(MinimizeBackend::Auto)?;
        let prime_gen_exact_s = prime_gen_median(MinimizeBackend::ExactPrimes)?;
        rows.push(Row {
            design: design.name.to_string(),
            components: result.controllers.len(),
            serial_s,
            cached_s,
            warm_s,
            hits: result.cache_hits,
            misses: result.cache_misses,
            phases: result.phases,
            prime_gen_auto_s,
            prime_gen_exact_s,
            prev_serial_s,
            prev_cached_s,
        });
    }

    bmbe_obs::vlog!(
        1,
        "flow perf ({threads_used} threads, median of {SAMPLES} runs; cold = fresh cache per run)"
    );
    bmbe_obs::vlog!(
        1,
        "{:<22} {:>5} {:>12} {:>12} {:>9} {:>12} {:>6} {:>6}",
        "design",
        "ctrl",
        "serial s",
        "cold s",
        "speedup",
        "warm s",
        "hits",
        "miss"
    );
    for r in &rows {
        bmbe_obs::vlog!(
            1,
            "{:<22} {:>5} {:>12.4} {:>12.4} {:>8.2}x {:>12.4} {:>6} {:>6}",
            r.design,
            r.components,
            r.serial_s,
            r.cached_s,
            r.speedup(),
            r.warm_s,
            r.hits,
            r.misses
        );
    }
    bmbe_obs::vlog!(1, "\nper-phase profile of one cold cached run (seconds):");
    bmbe_obs::vlog!(
        1,
        "{:<22} {:>8} {:>9} {:>8} {:>8} {:>9} {:>8} {:>7} {:>7}",
        "design",
        "compile",
        "statemin",
        "synth",
        "primes",
        "covering",
        "verify",
        "map",
        "shapes"
    );
    for r in &rows {
        let p = &r.phases;
        bmbe_obs::vlog!(
            1,
            "{:<22} {:>8.4} {:>9.4} {:>8.4} {:>8.4} {:>9.4} {:>8.4} {:>7.4} {:>7}",
            r.design,
            p.compile.as_secs_f64(),
            p.statemin.as_secs_f64(),
            p.synth.as_secs_f64(),
            p.prime_gen.as_secs_f64(),
            p.covering.as_secs_f64(),
            p.verify.as_secs_f64(),
            p.map.as_secs_f64(),
            p.shapes
        );
    }
    bmbe_obs::vlog!(
        1,
        "\nprime generation per backend (cold, median of 3 runs, seconds):"
    );
    bmbe_obs::vlog!(
        1,
        "{:<22} {:>12} {:>12} {:>9}",
        "design",
        "auto",
        "exact",
        "speedup"
    );
    for r in &rows {
        bmbe_obs::vlog!(
            1,
            "{:<22} {:>12.4} {:>12.4} {:>8.2}x",
            r.design,
            r.prime_gen_auto_s,
            r.prime_gen_exact_s,
            r.prime_gen_exact_s / r.prime_gen_auto_s.max(f64::EPSILON)
        );
    }

    let mut json = String::from("{\n  \"bench\": \"flow_e2e\",\n");
    let _ = writeln!(json, "  \"threads\": {threads_used},");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    let _ = writeln!(
        json,
        "  \"note\": \"the cached flow resolves its distinct shapes one after another \
         through the shape registry and spends every worker thread inside each shape, so \
         the serial-vs-cached ratio comes from dedup (cache hits) plus intra-shape \
         parallelism; on a host without spare cores it is dedup alone\","
    );
    json.push_str("  \"designs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"design\": \"{}\", \"controllers\": {}, \"serial_uncached_s\": {:.6}, \
             \"cached_parallel_s\": {:.6}, \"speedup\": {:.3}, \"warm_cache_s\": {:.6}, \
             \"cache_hits\": {}, \"cache_misses\": {}",
            r.design,
            r.components,
            r.serial_s,
            r.cached_s,
            r.speedup(),
            r.warm_s,
            r.hits,
            r.misses
        );
        if let (Some(ps), Some(pc)) = (r.prev_serial_s, r.prev_cached_s) {
            let _ = write!(
                json,
                ", \"before\": {{\"serial_uncached_s\": {ps:.6}, \"cached_parallel_s\": {pc:.6}, \
                 \"cached_speedup_vs_before\": {:.3}}}",
                pc / r.cached_s
            );
        }
        let _ = write!(
            json,
            ", \"backends\": {{\"auto_prime_gen_s\": {:.6}, \"exact_prime_gen_s\": {:.6}, \
             \"auto_speedup_vs_exact\": {:.3}}}",
            r.prime_gen_auto_s,
            r.prime_gen_exact_s,
            r.prime_gen_exact_s / r.prime_gen_auto_s.max(f64::EPSILON)
        );
        let p = &r.phases;
        let _ = write!(
            json,
            ", \"phases\": {{\"compile_s\": {:.6}, \"statemin_s\": {:.6}, \"synth_s\": {:.6}, \
             \"prime_gen_s\": {:.6}, \"covering_s\": {:.6}, \"verify_s\": {:.6}, \
             \"map_s\": {:.6}, \"shapes\": {}}}}}",
            p.compile.as_secs_f64(),
            p.statemin.as_secs_f64(),
            p.synth.as_secs_f64(),
            p.prime_gen.as_secs_f64(),
            p.covering.as_secs_f64(),
            p.verify.as_secs_f64(),
            p.map.as_secs_f64(),
            p.shapes
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    emit_report("BENCH_flow.json", &json)?;
    Ok(true)
}
