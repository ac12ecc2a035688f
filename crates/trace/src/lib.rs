#![warn(missing_docs)]
//! # bmbe-trace
//!
//! A Dill-style trace-theory engine — the reproduction's stand-in for AVER
//! [Dill 1989; Dill, Nowick & Sproull 1992], used to verify the clustering
//! optimizations exactly as in §4.3 of the paper: compose the two original
//! controllers, hide the activation channel, and check conformance
//! equivalence against the optimized merged controller.
//!
//! The central type is [`automaton::TraceStructure`]; see its documentation
//! for the receptive-failure semantics.
//!
//! **Precondition note:** composition records reachable failures in
//! [`automaton::Composite::failure_reachable`]. Check that flag before
//! hiding or re-composing a composite — a composite carrying failures has
//! them represented only by that flag.
pub mod automaton;
pub mod fxhash;

pub use automaton::{Composite, Dir, HiddenComposition, OtfOutcome, TraceError, TraceStructure};
