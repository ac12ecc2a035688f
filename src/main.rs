//! The `bmbe` command-line tool: drive the burst-mode back-end from files.
//!
//! ```text
//! bmbe ch2bms  FILE.ch   [--dot]        compile CH to a burst-mode spec
//! bmbe synth   FILE.ch                  ... and synthesize hazard-free logic
//! bmbe flow    FILE.balsa [--no-opt]    run the full control flow
//! bmbe batch   FILE.balsa... [--no-opt] run many designs as one batch
//! bmbe table3                           run the paper's benchmark table
//! bmbe gauntlet [--seed S] [--designs N] [--only NAME] [--inject I]
//!                                       run the differential gauntlet
//! ```
//!
//! `batch` runs every file as a job over one shared controller cache
//! (persistent when `BMBE_CACHE_DIR` is set), deduplicating controller
//! shapes across the whole fleet, and streams one JSON object per job on
//! stdout.
//!
//! `gauntlet` generates a seeded corpus slice and runs every design
//! through all four differential oracle pairs (see
//! `bmbe::flow::gauntlet`), printing one JSON object per finding plus a
//! summary; a finding's `seed`, `family`, and `params` fields make
//! `bmbe gauntlet --seed S --designs N --only NAME` a one-command
//! reproduction.

use bmbe::bm::synth::{synthesize, MinimizeMode};
use bmbe::bm::text::{to_bms, to_dot};
use bmbe::core::compile::compile_to_bm;
use bmbe::core::parse::parse_ch;
use bmbe::designs::all_designs;
use bmbe::flow::{run_control_flow, run_design, FlowOptions};
use bmbe::gates::Library;
use bmbe::sim::prims::Delays;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bmbe ch2bms FILE.ch [--dot]\n  bmbe synth FILE.ch\n  \
         bmbe flow FILE.balsa [--no-opt]\n  bmbe batch FILE.balsa... [--no-opt]\n  \
         bmbe table3\n  \
         bmbe gauntlet [--seed S] [--designs N] [--only NAME] [--inject I]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("ch2bms") => cmd_ch2bms(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("flow") => cmd_flow(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("table3") => cmd_table3(),
        Some("gauntlet") => cmd_gauntlet(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_file(path: &str) -> Result<String, Box<dyn std::error::Error>> {
    Ok(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

fn cmd_ch2bms(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing CH file")?;
    let dot = args.iter().any(|a| a == "--dot");
    let program = parse_ch(&read_file(path)?)?;
    let spec = compile_to_bm("machine", &program)?;
    if dot {
        print!("{}", to_dot(&spec));
    } else {
        print!("{}", to_bms(&spec));
    }
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing CH file")?;
    let program = parse_ch(&read_file(path)?)?;
    let spec = compile_to_bm("machine", &program)?;
    println!("; {} states, {} arcs", spec.num_states(), spec.arcs().len());
    let ctrl = synthesize(&spec, MinimizeMode::Speed)?;
    ctrl.verify_ternary().map_err(|e| format!("hazard: {e}"))?;
    println!(
        "; {} inputs, {} outputs, {} state bits, {} products ({} literals), hazard-free",
        ctrl.inputs.len(),
        ctrl.outputs.len(),
        ctrl.num_state_bits,
        ctrl.num_products(),
        ctrl.num_literals()
    );
    for (name, cover) in ctrl.outputs.iter().zip(&ctrl.output_covers) {
        println!("{name} = {cover}");
    }
    for (j, cover) in ctrl.next_state_covers.iter().enumerate() {
        println!("y{j} = {cover}");
    }
    Ok(())
}

fn cmd_flow(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing mini-Balsa file")?;
    let optimize = !args.iter().any(|a| a == "--no-opt");
    let program = bmbe::balsa::parse(&read_file(path)?)?;
    let design = bmbe::balsa::compile_procedure(&program.procedures[0])?;
    let options = if optimize {
        FlowOptions::optimized()
    } else {
        FlowOptions::unoptimized()
    };
    let flow = run_control_flow(&design, &options, &Library::cmos035())?;
    println!(
        "{}: {} control components -> {} controllers, {:.0} um^2 control area",
        flow.design,
        flow.components_before,
        flow.controllers.len(),
        flow.control_area
    );
    if let Some(report) = &flow.cluster_report {
        println!("clustering: {report}");
    }
    for c in &flow.controllers {
        println!(
            "  {:<50} {:>3} states {:>4} products {:>8.1} um^2 {:>6.3} ns",
            c.name,
            c.bm_states,
            c.controller.num_products(),
            c.area(),
            c.critical_delay()
        );
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use bmbe::flow::{run_batch, BatchJob, ControllerCache};
    let optimize = !args.iter().any(|a| a == "--no-opt");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        return Err("missing mini-Balsa files".into());
    }
    let mut jobs = Vec::with_capacity(paths.len());
    for path in &paths {
        let program = bmbe::balsa::parse(&read_file(path)?)?;
        let design = bmbe::balsa::compile_procedure(&program.procedures[0])
            .map_err(|e| format!("{path}: {e}"))?;
        let mut job = BatchJob::new(path.as_str(), design);
        if !optimize {
            job.options = FlowOptions::unoptimized();
        }
        job.options = job.options.with_env_fault();
        jobs.push(job);
    }
    // One shared cache for the whole fleet — persistent across invocations
    // when BMBE_CACHE_DIR points at a cache directory.
    let cache = ControllerCache::from_env();
    let threads = bmbe::par::default_threads();
    let summary = run_batch(&jobs, &Library::cmos035(), &cache, threads);
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    for outcome in &summary.jobs {
        match outcome {
            Ok(r) => println!(
                "{{\"job\": \"{}\", \"design\": \"{}\", \"ok\": true, \
                 \"controllers\": {}, \"products\": {}, \"control_area\": {:.1}, \
                 \"cache_hits\": {}, \"synthesized\": {}, \"shared\": {}}}",
                escape(&r.label),
                escape(&r.design),
                r.controllers,
                r.products,
                r.control_area,
                r.cache_hits,
                r.synthesized,
                r.shared
            ),
            Err(f) => println!(
                "{{\"job\": \"{}\", \"design\": \"{}\", \"ok\": false, \
                 \"phase\": \"{}\", \"error\": \"{}\"}}",
                escape(&f.label),
                escape(&f.design),
                escape(f.phase),
                escape(&f.error)
            ),
        }
    }
    println!(
        "{{\"summary\": true, \"jobs\": {}, \"failed\": {}, \"distinct_shapes\": {}, \
         \"synthesized\": {}, \"shared_waits\": {}, \"cache_hits\": {}}}",
        summary.jobs.len(),
        summary.failed(),
        summary.distinct_shapes,
        summary.synthesized,
        summary.shared_waits,
        summary.cache_hits
    );
    if summary.failed() > 0 {
        return Err(format!("{} of {} jobs failed", summary.failed(), summary.jobs.len()).into());
    }
    Ok(())
}

fn cmd_gauntlet(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use bmbe::flow::{run_gauntlet, ControllerCache, GauntletConfig};
    let mut cfg = GauntletConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--seed" => cfg.seed = val("--seed")?.parse()?,
            "--designs" => cfg.designs = val("--designs")?.parse()?,
            "--threads" => cfg.threads = val("--threads")?.parse()?,
            "--only" => cfg.only = Some(val("--only")?.to_string()),
            "--inject" => cfg.inject = Some(val("--inject")?.parse()?),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let cache = ControllerCache::from_env();
    let report = run_gauntlet(&cfg, &Library::cmos035(), &cache)?;
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    for f in &report.findings {
        println!(
            "{{\"finding\": true, \"oracle\": \"{}\", \"design\": \"{}\", \
             \"family\": \"{}\", \"params\": \"{}\", \"seed\": {}, \
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
        );
    }
    println!(
        "{{\"summary\": true, \"seed\": {}, \"designs\": {}, \"findings\": {}, \
         \"compiled_vs_event\": {}, \"otf_vs_materialized\": {}, \
         \"serial_vs_parallel\": {}, \"fault_vs_clean\": {}, \
         \"cache_hits\": {}, \"synthesized\": {}, \"shared\": {}, \"wall_s\": {:.3}}}",
        report.seed,
        report.designs,
        report.findings.len(),
        report.checks.compiled_vs_event,
        report.checks.otf_vs_materialized,
        report.checks.serial_vs_parallel,
        report.checks.fault_vs_clean,
        report.cache_hits,
        report.synthesized,
        report.shared,
        report.wall_s
    );
    if !report.clean() {
        return Err(format!(
            "gauntlet found {} divergence(s) across {} designs",
            report.findings.len(),
            report.designs
        )
        .into());
    }
    Ok(())
}

fn cmd_table3() -> Result<(), Box<dyn std::error::Error>> {
    let library = Library::cmos035();
    let delays = Delays::default();
    for design in all_designs()? {
        let comparison = run_design(&design, &library, &delays)?;
        println!("{comparison}");
    }
    Ok(())
}
