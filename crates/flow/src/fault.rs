//! Deterministic fault injection for the flow's recovery paths.
//!
//! A [`FaultPlan`] names one synthesis job and one per-shape phase, and
//! forces either a worker panic or a typed error exactly there. The job is
//! the `nth` shape *claim* in component order: a cached run claims each
//! distinct cache miss once (counted per call for a single design,
//! fleet-wide in a batch), the uncached reference path claims every
//! component. Because shapes are claimed in component order and threads
//! are spent inside each shape, the same plan fires at the same job
//! whatever the worker-thread count, which is what lets the
//! fault-injection tests assert that 1-thread and 4-thread runs report the
//! identical failure.
//!
//! The bench binaries pick a plan up from the environment
//! (`BMBE_FAULT=<phase>:<nth>` or `BMBE_FAULT=<phase>:<nth>:err`, see
//! [`FaultPlan::from_env`]); library callers set
//! [`crate::FlowOptions::fault`] directly.

use std::fmt;

/// The per-shape synthesis phase a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// CH-to-BMS compilation.
    Compile,
    /// State minimization.
    Statemin,
    /// Hazard-free two-level synthesis.
    Synth,
    /// DHF prime/implicant generation inside synthesis (the logic crate's
    /// minimizer backends; see `bmbe_logic::hfmin::PrimeGenFault`).
    PrimeGen,
    /// Ternary / post-mapping verification.
    Verify,
    /// Technology mapping.
    Map,
    /// Controller-tape compilation for the bit-parallel simulation backend
    /// (per-controller, in fan-out index order; see `crate::csim`).
    SimCompile,
    /// Disk-cache I/O (`crate::cache::disk::DiskCache`). Unlike the other
    /// phases, `nth` counts *disk operations* on one cache handle (reads
    /// and writes share the counter), not shape claims — there is
    /// no deterministic job order across the I/O a persistent cache sees.
    CacheIo,
}

impl FaultPhase {
    /// The phase's name, as used in the `BMBE_FAULT` grammar and in error
    /// reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultPhase::Compile => "compile",
            FaultPhase::Statemin => "statemin",
            FaultPhase::Synth => "synth",
            FaultPhase::PrimeGen => "prime_gen",
            FaultPhase::Verify => "verify",
            FaultPhase::Map => "map",
            FaultPhase::SimCompile => "sim_compile",
            FaultPhase::CacheIo => "cache_io",
        }
    }

    fn parse(s: &str) -> Option<FaultPhase> {
        Some(match s {
            "compile" => FaultPhase::Compile,
            "statemin" => FaultPhase::Statemin,
            "synth" => FaultPhase::Synth,
            "prime_gen" => FaultPhase::PrimeGen,
            "verify" => FaultPhase::Verify,
            "map" => FaultPhase::Map,
            "sim_compile" => FaultPhase::SimCompile,
            "cache_io" => FaultPhase::CacheIo,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The job panics (exercises `catch_unwind` isolation and poison
    /// recovery).
    Panic,
    /// The job returns a typed error (exercises the `Err` propagation
    /// path without unwinding).
    Error,
}

/// A deterministic fault: force `kind` at the start of `phase` in
/// synthesis job number `nth` (the job's index in claim order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The targeted per-shape phase.
    pub phase: FaultPhase,
    /// The targeted job index, in claim order.
    pub nth: usize,
    /// Panic or typed error.
    pub kind: FaultKind,
}

/// A malformed fault specification (the `BMBE_FAULT` grammar is
/// `<phase>:<nth>[:err]` with `<phase>` one of `compile`, `statemin`,
/// `synth`, `prime_gen`, `verify`, `map`, `sim_compile`, `cache_io`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The rejected specification text.
    pub spec: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fault spec {:?}: expected <phase>:<nth>[:err] with <phase> one of \
             compile|statemin|synth|prime_gen|verify|map|sim_compile|cache_io",
            self.spec
        )
    }
}

impl std::error::Error for FaultParseError {}

impl FaultPlan {
    /// Parses the `BMBE_FAULT` grammar: `<phase>:<nth>` injects a panic,
    /// `<phase>:<nth>:err` a typed error.
    ///
    /// # Errors
    ///
    /// Rejects anything outside the grammar.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let err = || FaultParseError {
            spec: spec.to_string(),
        };
        let mut parts = spec.trim().split(':');
        let phase = parts
            .next()
            .and_then(FaultPhase::parse)
            .ok_or_else(err)?;
        let nth = parts
            .next()
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(err)?;
        let kind = match parts.next() {
            None => FaultKind::Panic,
            Some("err") => FaultKind::Error,
            Some(_) => return Err(err()),
        };
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(FaultPlan { phase, nth, kind })
    }

    /// Reads `BMBE_FAULT` from the environment. Unset or empty means no
    /// fault; a malformed value is reported on stderr and ignored (a typo
    /// must not silently disable the injection *and* must not crash the
    /// tool it was aimed at).
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("BMBE_FAULT").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                bmbe_obs::vlog!(0, "bmbe-flow: ignoring BMBE_FAULT: {e}");
                None
            }
        }
    }

    /// Whether this plan targets job `index` (in claim order).
    pub fn targets_job(&self, index: usize) -> bool {
        self.nth == index
    }

    /// Fires the fault if `phase` is the targeted phase: panics for
    /// [`FaultKind::Panic`], returns `Err(())` for [`FaultKind::Error`],
    /// and is a no-op for every other phase. Callers hold this only for
    /// the targeted job (see [`FaultPlan::targets_job`]).
    pub(crate) fn trip(&self, phase: FaultPhase) -> Result<(), FaultPhase> {
        if self.phase != phase {
            return Ok(());
        }
        // A firing fault is exactly what the flight recorder exists for:
        // leave a breadcrumb before the panic/error unwinds the job.
        bmbe_obs::recorder::note("fault.fired", || {
            format!("phase {} of job {} ({:?})", self.phase, self.nth, self.kind)
        });
        match self.kind {
            FaultKind::Panic => panic!(
                "injected fault: panic at phase {} of job {}",
                self.phase, self.nth
            ),
            FaultKind::Error => Err(self.phase),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}{}",
            self.phase,
            self.nth,
            match self.kind {
                FaultKind::Panic => "",
                FaultKind::Error => ":err",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        assert_eq!(
            FaultPlan::parse("synth:0").unwrap(),
            FaultPlan {
                phase: FaultPhase::Synth,
                nth: 0,
                kind: FaultKind::Panic
            }
        );
        assert_eq!(
            FaultPlan::parse("map:7:err").unwrap(),
            FaultPlan {
                phase: FaultPhase::Map,
                nth: 7,
                kind: FaultKind::Error
            }
        );
        assert_eq!(
            FaultPlan::parse("prime_gen:2:err").unwrap(),
            FaultPlan {
                phase: FaultPhase::PrimeGen,
                nth: 2,
                kind: FaultKind::Error
            }
        );
        assert_eq!(
            FaultPlan::parse("sim_compile:1:err").unwrap(),
            FaultPlan {
                phase: FaultPhase::SimCompile,
                nth: 1,
                kind: FaultKind::Error
            }
        );
        assert_eq!(
            FaultPlan::parse("cache_io:0:err").unwrap(),
            FaultPlan {
                phase: FaultPhase::CacheIo,
                nth: 0,
                kind: FaultKind::Error
            }
        );
        for bad in ["", "synth", "synth:", "synth:x", "bogus:1", "synth:1:boom", "synth:1:err:x"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn display_round_trips() {
        for spec in ["compile:3", "verify:12:err", "statemin:0"] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(plan.to_string(), spec);
            assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        }
    }

    #[test]
    fn error_kind_trips_only_its_phase() {
        let plan = FaultPlan::parse("verify:0:err").unwrap();
        assert!(plan.trip(FaultPhase::Compile).is_ok());
        assert!(plan.trip(FaultPhase::Synth).is_ok());
        assert_eq!(plan.trip(FaultPhase::Verify), Err(FaultPhase::Verify));
    }
}
