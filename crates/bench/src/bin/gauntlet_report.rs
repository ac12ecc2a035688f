//! Differential gauntlet report: generates a fixed-seed corpus slice and
//! runs every design through all four oracle pairs (compiled vs event
//! engine, on-the-fly vs materialized verification, serial vs parallel,
//! faulted vs clean — see `bmbe_flow::gauntlet`), routed through
//! the shared controller cache (`BMBE_CACHE_DIR` honoured). Emits one JSON
//! report (stdout + `BENCH_gauntlet.json`) with per-pair comparison counts
//! and every finding's replay one-liner.
//!
//! ```text
//! gauntlet_report [--seed S] [--designs N] [--threads T] [--inject I]
//! ```
//!
//! Exits non-zero when any oracle pair diverged (after reporting all
//! findings) or when an oracle pair was never exercised. `--inject I`
//! deliberately perturbs design `I`'s compiled-backend outcome — the smoke
//! test that proves the detection and reporting path end to end.

use bmbe_bench::report::{emit_report, escape, export_trace_if_enabled, flag, run_main};
use bmbe_flow::{run_gauntlet, ControllerCache, GauntletConfig};
use bmbe_gates::Library;
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main("gauntlet_report", run)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = GauntletConfig {
        seed: flag(&args, "--seed", 1)? as u64,
        designs: flag(&args, "--designs", 200)?,
        threads: flag(&args, "--threads", 0)?,
        ..GauntletConfig::default()
    };
    if args.iter().any(|a| a == "--inject") {
        cfg.inject = Some(flag(&args, "--inject", 0)?);
    }
    bmbe_obs::init_from_env();

    let library = Library::cmos035();
    let cache = ControllerCache::from_env();
    bmbe_obs::vlog!(1, "gauntlet: seed {} designs {} ...", cfg.seed, cfg.designs);
    let report = run_gauntlet(&cfg, &library, &cache).map_err(|e| format!("corpus: {e}"))?;

    let mut findings = String::new();
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            findings.push_str(", ");
        }
        write!(
            findings,
            "{{\"oracle\": \"{}\", \"design\": \"{}\", \"family\": \"{}\", \
             \"params\": \"{}\", \"seed\": {}, \
             \"replay\": \"bmbe gauntlet --seed {} --designs {} --only {}\", \
             \"detail\": \"{}\"}}",
            escape(f.oracle),
            escape(&f.design),
            escape(&f.family),
            escape(&f.params),
            f.seed,
            report.seed,
            report.designs,
            escape(&f.design),
            escape(&f.detail)
        )
        .unwrap();
    }
    let json = format!(
        "{{\n  \"bench\": \"gauntlet\",\n  \"seed\": {},\n  \"designs\": {},\n  \
         \"checks\": {{\"compiled_vs_event\": {}, \
         \"otf_vs_materialized\": {}, \"serial_vs_parallel\": {}, \
         \"fault_vs_clean\": {}}},\n  \
         \"all_pairs_exercised\": {},\n  \"findings\": [{}],\n  \
         \"cache_hits\": {},\n  \"synthesized\": {},\n  \"shared\": {},\n  \
         \"disk_cache\": {},\n  \"wall_s\": {:.6}\n}}\n",
        report.seed,
        report.designs,
        report.checks.compiled_vs_event,
        report.checks.otf_vs_materialized,
        report.checks.serial_vs_parallel,
        report.checks.fault_vs_clean,
        report.checks.all_exercised(),
        findings,
        report.cache_hits,
        report.synthesized,
        report.shared,
        cache.disk().is_some(),
        report.wall_s
    );
    emit_report("BENCH_gauntlet.json", &json)?;
    for f in &report.findings {
        eprintln!(
            "gauntlet_report: {} diverged on {} ({} {}, seed {:#x})",
            f.design, f.oracle, f.family, f.params, f.seed
        );
    }
    export_trace_if_enabled()?;
    Ok(report.clean())
}
