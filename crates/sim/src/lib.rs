#![warn(missing_docs)]
//! # bmbe-sim
//!
//! The discrete-event simulator used to reproduce the paper's benchmark
//! measurements: synthesized burst-mode controllers evaluated functionally
//! with delays back-annotated from technology mapping, behavioural
//! bundled-data datapath components, and scripted environment processes —
//! the role the paper's `pearl` + Verilog-XL combination plays.
//!
//! See [`engine::Sim`] for the core and [`prims`] for the primitive
//! library.

pub mod compile;
pub mod engine;
pub mod prims;

pub use compile::{
    CCh, CPrim, CSite, CSlot, CWire, CircuitBuilder, CompileError, CompiledCircuit,
    ControllerTape, DoneSpec, GateSpec, LaneSpec, RunResult, RunSpec, SimBackend, TapeOp, LANES,
};
pub use engine::{Ctx, NodeId, PrimId, Primitive, SchedulerKind, Sim, SlotId, Time};
pub use prims::{
    ActivationDriverEnv, BinFuncPrim, CallMuxPrim, ConstantPrim, ControllerPrim, DataCh, Delays,
    FetchDataPrim, MemSite, MemoryPrim, PullMuxPrim, PullProviderEnv, PushConsumerEnv,
    SelectAdapterPrim, SyncResponderEnv, UnFuncPrim, VariablePrim,
};
