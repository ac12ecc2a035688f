//! The compiled bit-parallel simulation backend.
//!
//! Instead of scheduling discrete events, a [`CompiledCircuit`] evaluates
//! **64 independent scenarios at once**: every wire holds a `u64` *lane
//! word* whose bit `L` is the wire's value in scenario lane `L`. Mapped
//! controller netlists are levelized (via [`bmbe_hsnet::levelize`]) into
//! straight-line instruction tapes — one [`TapeOp`] per cell, evaluated
//! with [`CellKind::eval_lanes`] — and the asynchronous state feedback is
//! resolved by a settle-to-fixpoint loop per activation, mirroring the
//! event engine's `ControllerPrim::settle` exactly (lane-wise: a lane at
//! its fixpoint is unchanged by further iterations, so mixed-convergence
//! batches still match the scalar oracle bit for bit).
//!
//! The run itself is a *wave* loop with unit-delay (Jacobi) semantics:
//! all wire writes scheduled in wave `k` apply simultaneously at the start
//! of wave `k + 1`, then every primitive watching a changed wire is
//! re-evaluated, in primitive-index order. Writes are deferred and the
//! evaluation order of a wave cannot influence its result, which is what
//! makes compiled outcomes bit-identical at any worker-thread count. Data
//! slots (bundled data) are written immediately, like the event engine's
//! `Ctx::write_slot`.
//!
//! The backend is untimed: per-scenario *behaviour* (completion, port
//! traffic, memory contents) matches the event-engine oracle — asserted by
//! the differential property tests — while `time_ns` does not exist here.
//! The event engine remains the timing/hazard oracle.
//!
//! Lanes complete independently: when a lane's done condition first holds
//! at the end of a wave, the lane is removed from the live mask and its
//! pending writes are cancelled — the analogue of the event engine
//! stopping at the done event and leaving the queue unprocessed.

use bmbe_gates::CellKind;
use bmbe_hsnet::{levelize, BinOp, UnOp};
use std::collections::HashMap;
use std::fmt;

use crate::prims::{eval_binop, eval_unop};

/// Number of scenario lanes a batch evaluates at once (the bits of a
/// `u64` lane word).
pub const LANES: usize = 64;

/// Which simulation backend runs a scenario set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// The event-driven engine — the timing and hazard oracle.
    Event,
    /// The bit-parallel compiled engine: 64 scenarios per lane word.
    Compiled,
    /// Compiled for batches of more than one scenario, the event engine
    /// for a single scenario (where timing matters and lanes would idle).
    #[default]
    Auto,
}

impl SimBackend {
    /// Resolves [`SimBackend::Auto`] against the batch size.
    pub fn resolve(self, scenarios: usize) -> SimBackend {
        match self {
            SimBackend::Auto if scenarios > 1 => SimBackend::Compiled,
            SimBackend::Auto => SimBackend::Event,
            other => other,
        }
    }

    /// The backend's report name.
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Event => "event",
            SimBackend::Compiled => "compiled",
            SimBackend::Auto => "auto",
        }
    }
}

/// A wire in the compiled circuit: one `u64` lane word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CWire(pub u32);

/// A per-lane data slot (64 `u64` values, one per lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CSlot(pub u32);

/// A compiled primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CPrim(pub u32);

/// A four-phase bundled-data channel endpoint.
#[derive(Debug, Clone, Copy)]
pub struct CCh {
    /// Request wire.
    pub req: CWire,
    /// Acknowledge wire.
    pub ack: CWire,
    /// Data slot.
    pub slot: CSlot,
}

/// One read or write site of a compiled memory.
#[derive(Debug, Clone, Copy)]
pub struct CSite {
    /// Data channel.
    pub data: CCh,
    /// Address channel.
    pub addr: CCh,
}

/// A mapped gate handed to [`CircuitBuilder::add_controller`]: cell kind,
/// input subject-node ids, output subject-node id (mirrors
/// `bmbe_gates::MappedGate` without depending on the mapping structs).
#[derive(Debug, Clone)]
pub struct GateSpec {
    /// The cell.
    pub cell: CellKind,
    /// Input subject-node ids.
    pub inputs: Vec<usize>,
    /// Output subject-node id.
    pub output: usize,
}

/// One instruction of a controller tape: opcode (the cell kind), up to
/// four input slot indices, and the output slot.
#[derive(Debug, Clone, Copy)]
pub struct TapeOp {
    /// The cell evaluated lane-parallel.
    pub cell: CellKind,
    /// Input scratch-slot indices (`n` of them used).
    pub ins: [u16; 4],
    /// Number of inputs.
    pub n: u8,
    /// Output scratch-slot index.
    pub out: u16,
}

/// A levelized controller instruction tape. Scratch slots are the subject
/// nodes: slots `0..inputs.len()` load from the input wires, slots
/// `inputs.len()..inputs.len()+num_state` load from the fed-back state
/// word (the feedback arcs the settle loop iterates), constant-one slots
/// are preset, and the ops write the rest in level order.
#[derive(Debug, Clone)]
pub struct ControllerTape {
    /// Input wires, in function-variable order.
    pub inputs: Vec<CWire>,
    /// Output wires, matching `out_roots`.
    pub outputs: Vec<CWire>,
    /// Number of state bits (the feedback arcs).
    pub num_state: usize,
    /// Scratch slots needed (= subject nodes).
    pub slots: usize,
    /// Slots preset to all-ones (constant-one subject nodes).
    pub ones: Vec<u16>,
    /// The instructions, in levelized topological order.
    pub ops: Vec<TapeOp>,
    /// Scratch slot of each output function root.
    pub out_roots: Vec<u16>,
    /// Scratch slot of each next-state function root — the feedback arcs:
    /// these values are written back into the state input slots on the
    /// next settle iteration.
    pub state_roots: Vec<u16>,
    /// Initial state code (broadcast to every lane).
    pub initial_code: u64,
    /// Logic depth (levelization levels).
    pub levels: u32,
}

/// Errors compiling a netlist into a tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The gate netlist has a combinational cycle (levelization failed).
    Cycle {
        /// The controller.
        controller: String,
        /// The lowest-index subject node on a cycle.
        node: usize,
    },
    /// The netlist is malformed for tape compilation.
    BadTape {
        /// The controller.
        controller: String,
        /// What is wrong.
        detail: String,
    },
    /// A deliberately injected fault (see the flow crate's `sim_compile`
    /// fault phase).
    Injected {
        /// The controller.
        controller: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Cycle { controller, node } => write!(
                f,
                "controller {controller}: combinational cycle through subject node {node}"
            ),
            CompileError::BadTape { controller, detail } => {
                write!(f, "controller {controller}: {detail}")
            }
            CompileError::Injected { controller } => {
                write!(f, "controller {controller}: injected sim_compile fault")
            }
        }
    }
}

impl std::error::Error for CompileError {}

const NO_ACTIVE: u16 = u16::MAX;

/// A compiled primitive's specification (behavioural ops mirror the event
/// primitives in [`crate::prims`] one for one).
#[derive(Debug, Clone)]
enum POp {
    Controller(usize),
    Constant { ch: CCh, value: u64 },
    Variable { write: CCh, reads: Vec<CCh> },
    BinFunc { op: BinOp, out: CCh, lhs: CCh, rhs: CCh },
    UnFunc { op: UnOp, out: CCh, operand: CCh },
    CallMux { ins: Vec<CCh>, out: CCh },
    PullMux { clients: Vec<CCh>, source: CCh },
    Memory { words: usize, reads: Vec<CSite>, writes: Vec<CSite> },
    SelectAdapter { sel_req: CWire, sel_acks: Vec<CWire>, provider: CCh },
    FetchData { pull: CCh, push: CCh },
    ActivationDriver { req: CWire, ack: CWire },
    SyncResponder { req: CWire, ack: CWire },
    PullProvider { ch: CCh },
    PushConsumer { ch: CCh },
}

/// Per-primitive mutable run state (lane-indexed vectors).
#[derive(Debug, Clone)]
enum PState {
    None,
    Ctrl { state: Vec<u64> },
    Var { value: Vec<u64> },
    Mux { active: Vec<u16> },
    Mem { words: Vec<u64>, raddr: Vec<u64> },
    Sel { chosen: Vec<u16> },
    Driver { cycles: Vec<u64>, completions: Vec<u64> },
    Sync { count: Vec<u64> },
    Provider { values: Vec<Vec<u64>>, ix: Vec<usize> },
    Consumer { received: Vec<Vec<u64>> },
}

/// Builds a [`CompiledCircuit`].
#[derive(Default)]
pub struct CircuitBuilder {
    num_wires: u32,
    num_slots: u32,
    ops: Vec<POp>,
    watch: Vec<(u32, Vec<CWire>)>,
    tapes: Vec<ControllerTape>,
}

impl CircuitBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a wire.
    pub fn wire(&mut self) -> CWire {
        self.num_wires += 1;
        CWire(self.num_wires - 1)
    }

    /// Allocates a data slot.
    pub fn slot(&mut self) -> CSlot {
        self.num_slots += 1;
        CSlot(self.num_slots - 1)
    }

    /// Allocates a channel (req + ack wires and a slot).
    pub fn ch(&mut self) -> CCh {
        CCh {
            req: self.wire(),
            ack: self.wire(),
            slot: self.slot(),
        }
    }

    fn add(&mut self, op: POp, watch: Vec<CWire>) -> CPrim {
        let id = self.ops.len() as u32;
        self.ops.push(op);
        self.watch.push((id, watch));
        CPrim(id)
    }

    /// Compiles a mapped controller netlist into a levelized tape.
    ///
    /// `gates` come with subject-node ids; `ones` are constant-one subject
    /// nodes; `out_roots`/`state_roots` are the subject nodes of the output
    /// and next-state function roots. Subject inputs must be laid out as
    /// the event engine's function variables: wires `inputs` first, then
    /// `num_state` fed-back state bits.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on a combinational cycle or malformed netlist.
    #[allow(clippy::too_many_arguments)]
    pub fn add_controller(
        &mut self,
        name: &str,
        inputs: Vec<CWire>,
        outputs: Vec<CWire>,
        num_state: usize,
        initial_code: u64,
        num_nodes: usize,
        ones: &[usize],
        gates: &[GateSpec],
        out_roots: &[usize],
        state_roots: &[usize],
    ) -> Result<CPrim, CompileError> {
        let bad = |detail: String| CompileError::BadTape {
            controller: name.to_string(),
            detail,
        };
        if num_nodes > u16::MAX as usize {
            return Err(bad(format!("{num_nodes} subject nodes exceed the tape limit")));
        }
        let num_fn_inputs = inputs.len() + num_state;
        if num_fn_inputs > num_nodes {
            return Err(bad(format!(
                "{} wires + {num_state} state bits exceed {num_nodes} subject nodes",
                inputs.len()
            )));
        }
        if out_roots.len() != outputs.len() {
            return Err(bad(format!(
                "{} output roots for {} output wires",
                out_roots.len(),
                outputs.len()
            )));
        }
        if state_roots.len() != num_state {
            return Err(bad(format!(
                "{} state roots for {num_state} state bits",
                state_roots.len()
            )));
        }
        // Validate gates and collect the dependency graph over subject
        // nodes (driven node <- its gate's inputs).
        let mut driver = vec![usize::MAX; num_nodes];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
        for (gi, g) in gates.iter().enumerate() {
            if matches!(g.cell, CellKind::Celem2) {
                return Err(bad("stateful cell C2 in a controller tape".to_string()));
            }
            if g.inputs.len() != g.cell.num_inputs() {
                return Err(bad(format!(
                    "gate {gi} ({}) has {} inputs, expected {}",
                    g.cell,
                    g.inputs.len(),
                    g.cell.num_inputs()
                )));
            }
            if g.output >= num_nodes || g.inputs.iter().any(|&i| i >= num_nodes) {
                return Err(bad(format!("gate {gi} references a node out of range")));
            }
            if g.output < num_fn_inputs {
                return Err(bad(format!("gate {gi} drives input node {}", g.output)));
            }
            if driver[g.output] != usize::MAX {
                return Err(bad(format!("node {} driven by two gates", g.output)));
            }
            driver[g.output] = gi;
            preds[g.output] = g.inputs.clone();
        }
        for (&r, what) in out_roots
            .iter()
            .zip(std::iter::repeat("output"))
            .chain(state_roots.iter().zip(std::iter::repeat("state")))
        {
            if r >= num_nodes {
                return Err(bad(format!("{what} root {r} out of range")));
            }
        }
        let lev = levelize::levelize(&preds).map_err(|e| CompileError::Cycle {
            controller: name.to_string(),
            node: e.node,
        })?;
        // Tape order: ascending (level, node) over driven nodes.
        let mut driven: Vec<usize> = (0..num_nodes).filter(|&v| driver[v] != usize::MAX).collect();
        driven.sort_unstable_by_key(|&v| (lev.level[v], v));
        let ops: Vec<TapeOp> = driven
            .iter()
            .map(|&v| {
                let g = &gates[driver[v]];
                let mut ins = [0u16; 4];
                for (i, &p) in g.inputs.iter().enumerate() {
                    ins[i] = p as u16;
                }
                TapeOp {
                    cell: g.cell,
                    ins,
                    n: g.inputs.len() as u8,
                    out: v as u16,
                }
            })
            .collect();
        let tape = ControllerTape {
            inputs,
            outputs,
            num_state,
            slots: num_nodes,
            ones: ones.iter().map(|&o| o as u16).collect(),
            ops,
            out_roots: out_roots.iter().map(|&r| r as u16).collect(),
            state_roots: state_roots.iter().map(|&r| r as u16).collect(),
            initial_code,
            levels: lev.num_levels,
        };
        let watch = tape.inputs.clone();
        let k = self.tapes.len();
        self.tapes.push(tape);
        Ok(self.add(POp::Controller(k), watch))
    }

    /// Adds a constant source (see `ConstantPrim`).
    pub fn add_constant(&mut self, ch: CCh, value: u64) -> CPrim {
        self.add(POp::Constant { ch, value }, vec![ch.req])
    }

    /// Adds a storage variable (see `VariablePrim`).
    pub fn add_variable(&mut self, write: CCh, reads: Vec<CCh>) -> CPrim {
        let mut watch = vec![write.req];
        watch.extend(reads.iter().map(|c| c.req));
        self.add(POp::Variable { write, reads }, watch)
    }

    /// Adds a binary function (see `BinFuncPrim`).
    pub fn add_binfunc(&mut self, op: BinOp, out: CCh, lhs: CCh, rhs: CCh) -> CPrim {
        self.add(
            POp::BinFunc { op, out, lhs, rhs },
            vec![out.req, lhs.ack, rhs.ack],
        )
    }

    /// Adds a unary function (see `UnFuncPrim`).
    pub fn add_unfunc(&mut self, op: UnOp, out: CCh, operand: CCh) -> CPrim {
        self.add(POp::UnFunc { op, out, operand }, vec![out.req, operand.ack])
    }

    /// Adds a call-mux (see `CallMuxPrim`).
    pub fn add_call_mux(&mut self, ins: Vec<CCh>, out: CCh) -> CPrim {
        let mut watch: Vec<CWire> = ins.iter().map(|c| c.req).collect();
        watch.push(out.ack);
        self.add(POp::CallMux { ins, out }, watch)
    }

    /// Adds a pull-mux (see `PullMuxPrim`).
    pub fn add_pull_mux(&mut self, clients: Vec<CCh>, source: CCh) -> CPrim {
        let mut watch: Vec<CWire> = clients.iter().map(|c| c.req).collect();
        watch.push(source.ack);
        self.add(POp::PullMux { clients, source }, watch)
    }

    /// Adds a word-addressed memory (see `MemoryPrim`).
    pub fn add_memory(&mut self, words: usize, reads: Vec<CSite>, writes: Vec<CSite>) -> CPrim {
        let mut watch = Vec::new();
        for s in reads.iter().chain(&writes) {
            watch.push(s.data.req);
            watch.push(s.addr.ack);
        }
        self.add(
            POp::Memory {
                words: words.max(1),
                reads,
                writes,
            },
            watch,
        )
    }

    /// Adds a select adapter (see `SelectAdapterPrim`).
    pub fn add_select_adapter(
        &mut self,
        sel_req: CWire,
        sel_acks: Vec<CWire>,
        provider: CCh,
    ) -> CPrim {
        let watch = vec![sel_req, provider.ack];
        self.add(
            POp::SelectAdapter {
                sel_req,
                sel_acks,
                provider,
            },
            watch,
        )
    }

    /// Adds a fetch bundled-data copy (see `FetchDataPrim`).
    pub fn add_fetch(&mut self, pull: CCh, push: CCh) -> CPrim {
        self.add(POp::FetchData { pull, push }, vec![pull.ack])
    }

    /// Adds the activation driver environment (see `ActivationDriverEnv`);
    /// per-lane cycle counts come from the run's [`LaneSpec`]s.
    pub fn add_activation_driver(&mut self, req: CWire, ack: CWire) -> CPrim {
        self.add(POp::ActivationDriver { req, ack }, vec![ack])
    }

    /// Adds a sync responder environment (see `SyncResponderEnv`).
    pub fn add_sync_responder(&mut self, req: CWire, ack: CWire) -> CPrim {
        self.add(POp::SyncResponder { req, ack }, vec![req])
    }

    /// Adds a pull provider environment (see `PullProviderEnv`); per-lane
    /// value scripts come from the run's [`LaneSpec`]s.
    pub fn add_pull_provider(&mut self, ch: CCh) -> CPrim {
        self.add(POp::PullProvider { ch }, vec![ch.req])
    }

    /// Adds a push consumer environment (see `PushConsumerEnv`).
    pub fn add_push_consumer(&mut self, ch: CCh) -> CPrim {
        self.add(POp::PushConsumer { ch }, vec![ch.req])
    }

    /// Finalizes the circuit (computes the wire-to-watchers index).
    pub fn finish(self) -> CompiledCircuit {
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); self.num_wires as usize];
        for (op, wires) in &self.watch {
            for w in wires {
                let list = &mut watchers[w.0 as usize];
                if list.last() != Some(op) {
                    list.push(*op);
                }
            }
        }
        let max_tape_slots = self.tapes.iter().map(|t| t.slots).max().unwrap_or(0);
        CompiledCircuit {
            num_wires: self.num_wires as usize,
            num_slots: self.num_slots as usize,
            ops: self.ops,
            watchers,
            tapes: self.tapes,
            max_tape_slots,
        }
    }
}

/// When a lane's run is complete (mirrors the flow's `Done`).
#[derive(Debug, Clone, Copy)]
pub enum DoneSpec {
    /// The activation driver completed this many handshakes.
    Activations(CPrim, u64),
    /// A push consumer received this many values.
    Outputs(CPrim, usize),
    /// A sync responder completed this many handshakes.
    Syncs(CPrim, u64),
}

/// Per-lane scenario bindings for one run.
#[derive(Debug, Clone)]
pub struct LaneSpec {
    /// Activation handshakes the driver performs on this lane.
    pub activation_cycles: u64,
    /// Scripted values per pull-provider primitive.
    pub provider_values: Vec<(CPrim, Vec<u64>)>,
    /// Initial memory contents per memory primitive (zero-filled).
    pub memory_init: Vec<(CPrim, Vec<u64>)>,
    /// The lane's completion condition.
    pub done: DoneSpec,
}

/// One batched run: up to [`LANES`] lane specs and a wave budget (the
/// untimed analogue of the event engine's `max_time`).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The lanes (1..=64).
    pub lanes: Vec<LaneSpec>,
    /// Wave budget; lanes not complete when it runs out report
    /// `completed = false`.
    pub max_waves: u64,
}

/// Outcome of a batched run, with per-lane data harvested from every
/// environment and memory primitive (keyed by [`CPrim`]).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Lanes the run evaluated.
    pub lanes: usize,
    /// Completion bitmask (bit `L` = lane `L` met its done condition).
    pub completed: u64,
    /// Waves executed.
    pub waves: u64,
    /// Applied wire changes per lane (the compiled analogue of processed
    /// events).
    pub lane_events: Vec<u64>,
    /// Total controller settle iterations across the run.
    pub settle_iters: u64,
    /// Values received per push consumer, per lane.
    pub consumer_received: HashMap<u32, Vec<Vec<u64>>>,
    /// Handshakes completed per sync responder, per lane.
    pub sync_counts: HashMap<u32, Vec<u64>>,
    /// Activation completions per driver, per lane.
    pub driver_completions: HashMap<u32, Vec<u64>>,
    /// Final memory words per memory, per lane.
    pub memories: HashMap<u32, Vec<Vec<u64>>>,
}

impl RunResult {
    /// Total applied wire changes across the batch's **live** lanes.
    ///
    /// `lane_events` holds one entry per live lane (the dead padding of a
    /// partial batch is masked out of every write and asserted
    /// event-free at harvest), so this sum is the correct numerator for
    /// any events-per-second figure: a 5-lane batch reports the work of 5
    /// scenarios, not 64.
    pub fn live_events(&self) -> u64 {
        self.lane_events.iter().sum()
    }
}

/// A compiled circuit: immutable specification shared by any number of
/// batched runs (compile once, run many batches).
#[derive(Debug)]
pub struct CompiledCircuit {
    num_wires: usize,
    num_slots: usize,
    ops: Vec<POp>,
    watchers: Vec<Vec<u32>>,
    tapes: Vec<ControllerTape>,
    max_tape_slots: usize,
}

impl CompiledCircuit {
    /// Number of controller tapes.
    pub fn num_tapes(&self) -> usize {
        self.tapes.len()
    }

    /// Number of wires (lane words).
    pub fn num_wires(&self) -> usize {
        self.num_wires
    }

    /// The controller tapes (for reporting: op counts, levels).
    pub fn tapes(&self) -> &[ControllerTape] {
        &self.tapes
    }

    /// Runs a batch of up to [`LANES`] scenarios to quiescence, completion
    /// of every lane, or the wave budget.
    ///
    /// # Panics
    ///
    /// Panics if `spec.lanes` is empty or exceeds [`LANES`], or if a
    /// [`LaneSpec`] references a primitive of the wrong kind.
    pub fn run(&self, spec: &RunSpec) -> RunResult {
        let n = spec.lanes.len();
        assert!(n >= 1 && n <= LANES, "lane count {n} out of range");
        static LANE_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 24, 32, 64];
        bmbe_obs::histogram!("sim.lanes_occupancy", &LANE_BUCKETS).observe(n as u64);
        let _run_span = bmbe_obs::span!("sim.settle", "sim");
        let mut st = RunState::new(self, spec);
        st.init(self, spec);
        st.check_done(spec);
        while st.live != 0 && st.waves < spec.max_waves && !st.pend_dirty.is_empty() {
            st.apply(self);
            st.eval_triggered(self);
            st.clear_changed();
            st.check_done(spec);
            st.waves += 1;
        }
        bmbe_obs::trace_counter!("sim.compiled.waves", st.waves);
        bmbe_obs::trace_counter!("sim.compiled.settle_iters", st.settle_iters);
        st.harvest(self, n)
    }
}

/// Mutable state of one batched run.
struct RunState {
    wires: Vec<u64>,
    changed: Vec<u64>,
    chg_dirty: Vec<u32>,
    pend_val: Vec<u64>,
    pend_mask: Vec<u64>,
    pend_dirty: Vec<u32>,
    slots: Vec<u64>, // slot-major: slots[slot * LANES + lane]
    pstates: Vec<PState>,
    scratch: Vec<u64>,
    trig: Vec<bool>,
    trig_list: Vec<u32>,
    live: u64,
    completed: u64,
    waves: u64,
    settle_iters: u64,
    lane_events: Vec<u64>,
}

fn for_lanes(mut m: u64, mut f: impl FnMut(usize)) {
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        f(l);
        m &= m - 1;
    }
}

impl RunState {
    fn new(c: &CompiledCircuit, spec: &RunSpec) -> RunState {
        let n = spec.lanes.len();
        let live = if n == LANES { !0u64 } else { (1u64 << n) - 1 };
        let mut pstates = Vec::with_capacity(c.ops.len());
        for (pi, op) in c.ops.iter().enumerate() {
            pstates.push(match op {
                POp::Controller(k) => {
                    let t = &c.tapes[*k];
                    let code = t.initial_code;
                    PState::Ctrl {
                        state: (0..t.num_state)
                            .map(|j| if code >> j & 1 == 1 { !0u64 } else { 0 })
                            .collect(),
                    }
                }
                POp::Variable { .. } => PState::Var {
                    value: vec![0; LANES],
                },
                POp::CallMux { .. } | POp::PullMux { .. } => PState::Mux {
                    active: vec![NO_ACTIVE; LANES],
                },
                POp::Memory { words, reads, .. } => {
                    let mut w = vec![0u64; words * LANES];
                    for (lane, ls) in spec.lanes.iter().enumerate() {
                        for (p, init) in &ls.memory_init {
                            if p.0 as usize == pi {
                                for (a, v) in init.iter().enumerate().take(*words) {
                                    w[a * LANES + lane] = *v;
                                }
                            }
                        }
                    }
                    PState::Mem {
                        words: w,
                        raddr: vec![0; reads.len() * LANES],
                    }
                }
                POp::SelectAdapter { .. } => PState::Sel {
                    chosen: vec![NO_ACTIVE; LANES],
                },
                POp::ActivationDriver { .. } => {
                    let mut cycles = vec![0u64; LANES];
                    for (lane, ls) in spec.lanes.iter().enumerate() {
                        cycles[lane] = ls.activation_cycles;
                    }
                    PState::Driver {
                        cycles,
                        completions: vec![0; LANES],
                    }
                }
                POp::SyncResponder { .. } => PState::Sync {
                    count: vec![0; LANES],
                },
                POp::PullProvider { .. } => {
                    let mut values: Vec<Vec<u64>> = vec![Vec::new(); LANES];
                    for (lane, ls) in spec.lanes.iter().enumerate() {
                        for (p, vals) in &ls.provider_values {
                            if p.0 as usize == pi {
                                values[lane] = vals.clone();
                            }
                        }
                    }
                    PState::Provider {
                        values,
                        ix: vec![0; LANES],
                    }
                }
                POp::PushConsumer { .. } => PState::Consumer {
                    received: vec![Vec::new(); LANES],
                },
                _ => PState::None,
            });
        }
        RunState {
            wires: vec![0; c.num_wires],
            changed: vec![0; c.num_wires],
            chg_dirty: Vec::new(),
            pend_val: vec![0; c.num_wires],
            pend_mask: vec![0; c.num_wires],
            pend_dirty: Vec::new(),
            slots: vec![0; c.num_slots * LANES],
            pstates,
            scratch: vec![0; c.max_tape_slots],
            trig: vec![false; c.ops.len()],
            trig_list: Vec::new(),
            live,
            completed: 0,
            waves: 0,
            settle_iters: 0,
            lane_events: vec![0; LANES],
        }
    }

    /// Schedules a (masked) wire write for the next wave. Masks are
    /// restricted to live lanes, freezing completed scenarios.
    fn sched(&mut self, w: CWire, val: u64, mask: u64) {
        let mask = mask & self.live;
        if mask == 0 {
            return;
        }
        let ix = w.0 as usize;
        if self.pend_mask[ix] == 0 {
            self.pend_dirty.push(w.0);
        }
        self.pend_val[ix] = (self.pend_val[ix] & !mask) | (val & mask);
        self.pend_mask[ix] |= mask;
    }

    fn sched_lane(&mut self, w: CWire, bit: bool, lane: usize) {
        self.sched(w, if bit { !0 } else { 0 }, 1u64 << lane);
    }

    fn wire(&self, w: CWire) -> u64 {
        self.wires[w.0 as usize]
    }

    fn chg(&self, w: CWire) -> u64 {
        self.changed[w.0 as usize]
    }

    fn slot_ix(s: CSlot, lane: usize) -> usize {
        s.0 as usize * LANES + lane
    }

    /// Initial actions (the event engine's `Sim::init`): only the
    /// activation driver schedules.
    fn init(&mut self, c: &CompiledCircuit, spec: &RunSpec) {
        let mut mask = 0u64;
        for (lane, ls) in spec.lanes.iter().enumerate() {
            if ls.activation_cycles > 0 {
                mask |= 1 << lane;
            }
        }
        for op in &c.ops {
            if let POp::ActivationDriver { req, .. } = op {
                let req = *req;
                self.sched(req, !0, mask);
            }
        }
    }

    /// Applies the pending writes, computing changed masks and marking
    /// watcher primitives.
    fn apply(&mut self, c: &CompiledCircuit) {
        for di in 0..self.pend_dirty.len() {
            let w = self.pend_dirty[di] as usize;
            let m = self.pend_mask[w];
            self.pend_mask[w] = 0;
            if m == 0 {
                continue;
            }
            let cur = self.wires[w];
            let new = (cur & !m) | (self.pend_val[w] & m);
            let diff = cur ^ new;
            if diff == 0 {
                continue;
            }
            self.wires[w] = new;
            self.changed[w] = diff;
            self.chg_dirty.push(w as u32);
            for_lanes(diff, |l| self.lane_events[l] += 1);
            for &op in &c.watchers[w] {
                if !self.trig[op as usize] {
                    self.trig[op as usize] = true;
                    self.trig_list.push(op);
                }
            }
        }
        self.pend_dirty.clear();
    }

    fn eval_triggered(&mut self, c: &CompiledCircuit) {
        // Primitive-index order: deterministic whatever order the wires
        // marked them in (writes are deferred, so order cannot change the
        // wave's result anyway — this just pins the per-lane state
        // mutation order).
        self.trig_list.sort_unstable();
        let list = std::mem::take(&mut self.trig_list);
        for &op in &list {
            self.trig[op as usize] = false;
            self.eval_op(c, op as usize);
        }
        self.trig_list = list;
        self.trig_list.clear();
    }

    fn clear_changed(&mut self) {
        for &w in &self.chg_dirty {
            self.changed[w as usize] = 0;
        }
        self.chg_dirty.clear();
    }

    /// End-of-wave done update: newly completed lanes leave the live mask
    /// and their pending writes are cancelled (the event engine stops at
    /// the done event; nothing scheduled after it runs).
    fn check_done(&mut self, spec: &RunSpec) {
        let mut newly = 0u64;
        for (lane, ls) in spec.lanes.iter().enumerate() {
            let bit = 1u64 << lane;
            if self.live & bit == 0 {
                continue;
            }
            let done = match ls.done {
                DoneSpec::Activations(p, count) => match &self.pstates[p.0 as usize] {
                    PState::Driver { completions, .. } => completions[lane] >= count,
                    _ => panic!("done condition targets a non-driver primitive"),
                },
                DoneSpec::Outputs(p, count) => match &self.pstates[p.0 as usize] {
                    PState::Consumer { received } => received[lane].len() >= count,
                    _ => panic!("done condition targets a non-consumer primitive"),
                },
                DoneSpec::Syncs(p, count) => match &self.pstates[p.0 as usize] {
                    PState::Sync { count: n } => n[lane] >= count,
                    _ => panic!("done condition targets a non-responder primitive"),
                },
            };
            if done {
                newly |= bit;
            }
        }
        if newly != 0 {
            self.completed |= newly;
            self.live &= !newly;
            for &w in &self.pend_dirty {
                self.pend_mask[w as usize] &= self.live;
            }
        }
    }

    fn eval_op(&mut self, c: &CompiledCircuit, op_ix: usize) {
        // Take the per-primitive state out so `self` stays free for wire
        // and slot access during evaluation.
        let mut pst = std::mem::replace(&mut self.pstates[op_ix], PState::None);
        match &c.ops[op_ix] {
            POp::Controller(k) => self.eval_controller(&c.tapes[*k], &mut pst),
            POp::Constant { ch, value } => {
                let m = self.chg(ch.req);
                let up = m & self.wire(ch.req);
                for_lanes(up, |l| self.slots[Self::slot_ix(ch.slot, l)] = *value);
                self.sched(ch.ack, !0, up);
                self.sched(ch.ack, 0, m & !self.wire(ch.req));
            }
            POp::Variable { write, reads } => {
                let PState::Var { value } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(write.req);
                let v = self.wire(write.req);
                for_lanes(m & v, |l| value[l] = self.slots[Self::slot_ix(write.slot, l)]);
                self.sched(write.ack, !0, m & v);
                self.sched(write.ack, 0, m & !v);
                for r in reads {
                    let m = self.chg(r.req);
                    let v = self.wire(r.req);
                    for_lanes(m & v, |l| self.slots[Self::slot_ix(r.slot, l)] = value[l]);
                    self.sched(r.ack, !0, m & v);
                    self.sched(r.ack, 0, m & !v);
                }
            }
            POp::BinFunc { op, out, lhs, rhs } => {
                let out_req = self.wire(out.req);
                let m1 = self.chg(out.req) & out_req;
                self.sched(lhs.req, !0, m1);
                self.sched(rhs.req, !0, m1);
                let m2 = (self.chg(lhs.ack) | self.chg(rhs.ack))
                    & self.wire(lhs.ack)
                    & self.wire(rhs.ack)
                    & out_req;
                for_lanes(m2, |l| {
                    let v = eval_binop(
                        *op,
                        self.slots[Self::slot_ix(lhs.slot, l)],
                        self.slots[Self::slot_ix(rhs.slot, l)],
                    );
                    self.slots[Self::slot_ix(out.slot, l)] = v;
                });
                self.sched(out.ack, !0, m2);
                self.sched(lhs.req, 0, m2);
                self.sched(rhs.req, 0, m2);
                let m3 = (self.chg(out.req) | self.chg(lhs.ack) | self.chg(rhs.ack))
                    & !out_req
                    & !self.wire(lhs.ack)
                    & !self.wire(rhs.ack)
                    & self.wire(out.ack);
                self.sched(out.ack, 0, m3);
            }
            POp::UnFunc { op, out, operand } => {
                let out_req = self.wire(out.req);
                let m1 = self.chg(out.req) & out_req;
                self.sched(operand.req, !0, m1);
                let m2 = self.chg(operand.ack) & self.wire(operand.ack) & out_req;
                for_lanes(m2, |l| {
                    let v = eval_unop(*op, self.slots[Self::slot_ix(operand.slot, l)]);
                    self.slots[Self::slot_ix(out.slot, l)] = v;
                });
                self.sched(out.ack, !0, m2);
                self.sched(operand.req, 0, m2);
                let m3 = (self.chg(out.req) | self.chg(operand.ack))
                    & !out_req
                    & !self.wire(operand.ack)
                    & self.wire(out.ack);
                self.sched(out.ack, 0, m3);
            }
            POp::CallMux { ins, out } => {
                let PState::Mux { active } = &mut pst else {
                    unreachable!()
                };
                for (i, ch) in ins.iter().enumerate() {
                    let m = self.chg(ch.req);
                    let v = self.wire(ch.req);
                    for_lanes(m & v, |l| {
                        active[l] = i as u16;
                        self.slots[Self::slot_ix(out.slot, l)] =
                            self.slots[Self::slot_ix(ch.slot, l)];
                    });
                    self.sched(out.req, !0, m & v);
                    self.sched(out.req, 0, m & !v);
                }
                let m = self.chg(out.ack);
                let v = self.wire(out.ack);
                for_lanes(m, |l| {
                    if active[l] != NO_ACTIVE {
                        let i = active[l] as usize;
                        let bit = v >> l & 1 == 1;
                        self.sched_lane(ins[i].ack, bit, l);
                        if !bit {
                            active[l] = NO_ACTIVE;
                        }
                    }
                });
            }
            POp::PullMux { clients, source } => {
                let PState::Mux { active } = &mut pst else {
                    unreachable!()
                };
                for (i, ch) in clients.iter().enumerate() {
                    let m = self.chg(ch.req);
                    let v = self.wire(ch.req);
                    for_lanes(m & v, |l| active[l] = i as u16);
                    self.sched(source.req, !0, m & v);
                    self.sched(source.req, 0, m & !v);
                }
                let m = self.chg(source.ack);
                let v = self.wire(source.ack);
                for_lanes(m, |l| {
                    if active[l] != NO_ACTIVE {
                        let i = active[l] as usize;
                        let bit = v >> l & 1 == 1;
                        if bit {
                            self.slots[Self::slot_ix(clients[i].slot, l)] =
                                self.slots[Self::slot_ix(source.slot, l)];
                        }
                        self.sched_lane(clients[i].ack, bit, l);
                        if !bit {
                            active[l] = NO_ACTIVE;
                        }
                    }
                });
            }
            POp::Memory {
                words,
                reads,
                writes,
            } => {
                let PState::Mem {
                    words: mem,
                    raddr,
                } = &mut pst
                else {
                    unreachable!()
                };
                for (i, site) in reads.iter().enumerate() {
                    let m = self.chg(site.data.req);
                    let v = self.wire(site.data.req);
                    self.sched(site.addr.req, !0, m & v);
                    self.sched(site.data.ack, 0, m & !v);
                    let ma = self.chg(site.addr.ack);
                    let av = self.wire(site.addr.ack);
                    for_lanes(ma & av, |l| {
                        raddr[i * LANES + l] = self.slots[Self::slot_ix(site.addr.slot, l)];
                    });
                    self.sched(site.addr.req, 0, ma & av);
                    let serve = ma & !av & self.wire(site.data.req);
                    for_lanes(serve, |l| {
                        let a = (raddr[i * LANES + l] as usize) % words;
                        self.slots[Self::slot_ix(site.data.slot, l)] = mem[a * LANES + l];
                    });
                    self.sched(site.data.ack, !0, serve);
                }
                for site in writes {
                    let m = self.chg(site.data.req);
                    let v = self.wire(site.data.req);
                    self.sched(site.addr.req, !0, m & v);
                    self.sched(site.data.ack, 0, m & !v);
                    let ma = self.chg(site.addr.ack);
                    let av = self.wire(site.addr.ack);
                    for_lanes(ma & av, |l| {
                        let a = (self.slots[Self::slot_ix(site.addr.slot, l)] as usize) % words;
                        mem[a * LANES + l] = self.slots[Self::slot_ix(site.data.slot, l)];
                    });
                    self.sched(site.addr.req, 0, ma & av);
                    self.sched(site.data.ack, !0, ma & !av & self.wire(site.data.req));
                }
            }
            POp::SelectAdapter {
                sel_req,
                sel_acks,
                provider,
            } => {
                let PState::Sel { chosen } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(*sel_req);
                let v = self.wire(*sel_req);
                self.sched(provider.req, !0, m & v);
                for_lanes(m & !v, |l| {
                    if chosen[l] != NO_ACTIVE {
                        let ack = sel_acks[chosen[l] as usize];
                        chosen[l] = NO_ACTIVE;
                        self.sched_lane(ack, false, l);
                    }
                });
                let m2 = self.chg(provider.ack) & self.wire(provider.ack) & self.wire(*sel_req);
                for_lanes(m2, |l| {
                    let val = self.slots[Self::slot_ix(provider.slot, l)] as usize;
                    let c = val.min(sel_acks.len() - 1);
                    chosen[l] = c as u16;
                    self.sched_lane(sel_acks[c], true, l);
                });
                self.sched(provider.req, 0, m2);
            }
            POp::FetchData { pull, push } => {
                let up = self.chg(pull.ack) & self.wire(pull.ack);
                for_lanes(up, |l| {
                    self.slots[Self::slot_ix(push.slot, l)] =
                        self.slots[Self::slot_ix(pull.slot, l)];
                });
            }
            POp::ActivationDriver { req, ack } => {
                let PState::Driver {
                    cycles,
                    completions,
                } = &mut pst
                else {
                    unreachable!()
                };
                let m = self.chg(*ack);
                let v = self.wire(*ack);
                self.sched(*req, 0, m & v);
                for_lanes(m & !v, |l| {
                    completions[l] += 1;
                    if completions[l] < cycles[l] {
                        self.sched_lane(*req, true, l);
                    }
                });
            }
            POp::SyncResponder { req, ack } => {
                let PState::Sync { count } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(*req);
                let v = self.wire(*req);
                for_lanes(m & !v, |l| count[l] += 1);
                self.sched(*ack, v, m);
            }
            POp::PullProvider { ch } => {
                let PState::Provider { values, ix } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(ch.req);
                let v = self.wire(ch.req);
                for_lanes(m & v, |l| {
                    let val = if values[l].is_empty() {
                        0
                    } else {
                        values[l][ix[l] % values[l].len()]
                    };
                    ix[l] += 1;
                    self.slots[Self::slot_ix(ch.slot, l)] = val;
                });
                self.sched(ch.ack, !0, m & v);
                self.sched(ch.ack, 0, m & !v);
            }
            POp::PushConsumer { ch } => {
                let PState::Consumer { received } = &mut pst else {
                    unreachable!()
                };
                let m = self.chg(ch.req);
                let v = self.wire(ch.req);
                for_lanes(m & v, |l| {
                    received[l].push(self.slots[Self::slot_ix(ch.slot, l)]);
                });
                self.sched(ch.ack, !0, m & v);
                self.sched(ch.ack, 0, m & !v);
            }
        }
        self.pstates[op_ix] = pst;
    }

    /// Lane-parallel mirror of `ControllerPrim::on_change` + `settle`.
    fn eval_controller(&mut self, t: &ControllerTape, pst: &mut PState) {
        let PState::Ctrl { state } = pst else {
            unreachable!()
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch[..t.slots].fill(0);
        for &o in &t.ones {
            scratch[o as usize] = !0;
        }
        let ni = t.inputs.len();
        for (i, &w) in t.inputs.iter().enumerate() {
            scratch[i] = self.wire(w);
        }
        // Settle the feedback: up to 4 next-state evaluations, exactly the
        // scalar `settle`. Lanes at their fixpoint stay put while slower
        // lanes iterate.
        let mut fixed = false;
        let mut iters = 0u64;
        for _ in 0..4 {
            for (j, &s) in state.iter().enumerate() {
                scratch[ni + j] = s;
            }
            run_tape(t, &mut scratch);
            iters += 1;
            let same = state
                .iter()
                .enumerate()
                .all(|(j, &s)| scratch[t.state_roots[j] as usize] == s);
            if same {
                fixed = true;
                break;
            }
            for (j, s) in state.iter_mut().enumerate() {
                *s = scratch[t.state_roots[j] as usize];
            }
        }
        if !fixed {
            // Pathological non-convergence: outputs at the state after the
            // fourth update, like the scalar engine.
            for (j, &s) in state.iter().enumerate() {
                scratch[ni + j] = s;
            }
            run_tape(t, &mut scratch);
            iters += 1;
        }
        self.settle_iters += iters;
        static SETTLE_BUCKETS: [u64; 6] = [1, 2, 3, 4, 5, 8];
        bmbe_obs::histogram!("sim.settle_iters", &SETTLE_BUCKETS).observe(iters);
        for (o, &ow) in t.outputs.iter().enumerate() {
            let computed = scratch[t.out_roots[o] as usize];
            let diff = computed ^ self.wire(ow);
            if diff != 0 {
                self.sched(ow, computed, diff);
            }
        }
        self.scratch = scratch;
    }

    fn harvest(self, c: &CompiledCircuit, n: usize) -> RunResult {
        // Live-lane accounting contract: a partial batch pads the 64-wide
        // words with dead lanes, but every scheduled write is masked with
        // `live` before it lands, so the padding can never accrue events.
        // Everything harvested below is truncated to the `n` live lanes —
        // consumers of `lane_events` (the events/s gauge, `SimStats`)
        // therefore count live lanes only, never the padding.
        debug_assert!(
            self.lane_events[n..].iter().all(|&e| e == 0),
            "dead padded lanes accrued events: {:?}",
            &self.lane_events[n..]
        );
        let mut consumer_received = HashMap::new();
        let mut sync_counts = HashMap::new();
        let mut driver_completions = HashMap::new();
        let mut memories = HashMap::new();
        for (pi, (op, pst)) in c.ops.iter().zip(&self.pstates).enumerate() {
            let pi = pi as u32;
            match (op, pst) {
                (POp::PushConsumer { .. }, PState::Consumer { received }) => {
                    consumer_received.insert(pi, received[..n].to_vec());
                }
                (POp::SyncResponder { .. }, PState::Sync { count }) => {
                    sync_counts.insert(pi, count[..n].to_vec());
                }
                (POp::ActivationDriver { .. }, PState::Driver { completions, .. }) => {
                    driver_completions.insert(pi, completions[..n].to_vec());
                }
                (POp::Memory { words, .. }, PState::Mem { words: mem, .. }) => {
                    let per_lane: Vec<Vec<u64>> = (0..n)
                        .map(|l| (0..*words).map(|a| mem[a * LANES + l]).collect())
                        .collect();
                    memories.insert(pi, per_lane);
                }
                _ => {}
            }
        }
        RunResult {
            lanes: n,
            completed: self.completed,
            waves: self.waves,
            lane_events: self.lane_events[..n].to_vec(),
            settle_iters: self.settle_iters,
            consumer_received,
            sync_counts,
            driver_completions,
            memories,
        }
    }
}

fn run_tape(t: &ControllerTape, scratch: &mut [u64]) {
    for op in &t.ops {
        let mut buf = [0u64; 4];
        let n = op.n as usize;
        for i in 0..n {
            buf[i] = scratch[op.ins[i] as usize];
        }
        // Validated at compile time: combinational cells, matching arity.
        scratch[op.out as usize] = op
            .cell
            .eval_lanes(&buf[..n])
            .expect("tape validated at compile");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_spec(cycles: u64, done: DoneSpec) -> LaneSpec {
        LaneSpec {
            activation_cycles: cycles,
            provider_values: Vec::new(),
            memory_init: Vec::new(),
            done,
        }
    }

    /// Driver -> sync responder loop: lane L performs L % 3 + 1
    /// activations; counts and completion must track per lane.
    #[test]
    fn driver_responder_loop_completes_per_lane() {
        let mut b = CircuitBuilder::new();
        let req = b.wire();
        let ack = b.wire();
        let driver = b.add_activation_driver(req, ack);
        let resp = b.add_sync_responder(req, ack);
        let c = b.finish();
        let lanes: Vec<LaneSpec> = (0..64)
            .map(|l| lane_spec(l % 3 + 1, DoneSpec::Activations(driver, l % 3 + 1)))
            .collect();
        let r = c.run(&RunSpec {
            lanes,
            max_waves: 1000,
        });
        assert_eq!(r.completed, !0u64);
        for l in 0..64 {
            assert_eq!(r.sync_counts[&resp.0][l], l as u64 % 3 + 1, "lane {l}");
            assert_eq!(r.driver_completions[&driver.0][l], l as u64 % 3 + 1);
        }
        // Lanes complete at different waves; later traffic must not bump
        // frozen counters.
        assert!(r.waves > 4);
    }

    /// A buffered controller (output = Buf(input) through an inverter
    /// pair) between driver and responder.
    #[test]
    fn controller_tape_propagates_through_gates() {
        let mut b = CircuitBuilder::new();
        let a_req = b.wire();
        let a_ack = b.wire();
        let c_req = b.wire();
        b.add_activation_driver(a_req, a_ack);
        // Tape: node 0 = input (a_req), node 1 = Inv(0), node 2 = Inv(1).
        // Output root = node 2 (== input), driving c_req.
        let ctrl = b
            .add_controller(
                "buf",
                vec![a_req],
                vec![c_req],
                0,
                0,
                3,
                &[],
                &[
                    GateSpec {
                        cell: CellKind::Inv,
                        inputs: vec![0],
                        output: 1,
                    },
                    GateSpec {
                        cell: CellKind::Inv,
                        inputs: vec![1],
                        output: 2,
                    },
                ],
                &[2],
                &[],
            )
            .unwrap();
        let resp = b.add_sync_responder(c_req, a_ack);
        let c = b.finish();
        assert_eq!(c.tapes()[ctrl.0 as usize - 1].levels, 3);
        let lanes: Vec<LaneSpec> = (0..10)
            .map(|_| lane_spec(2, DoneSpec::Syncs(resp, 2)))
            .collect();
        let r = c.run(&RunSpec {
            lanes,
            max_waves: 1000,
        });
        assert_eq!(r.completed, (1u64 << 10) - 1);
        for l in 0..10 {
            assert_eq!(r.sync_counts[&resp.0][l], 2);
        }
        assert!(r.settle_iters > 0);
    }

    /// A one-state-bit controller whose feedback settles in two
    /// iterations: y0 = Buf(input), output = Buf(y0). The settle loop must
    /// deliver the output of the *settled* state.
    #[test]
    fn state_feedback_settles_to_fixpoint() {
        let mut b = CircuitBuilder::new();
        let a_req = b.wire();
        let a_ack = b.wire();
        let o = b.wire();
        let driver = b.add_activation_driver(a_req, a_ack);
        // Nodes: 0 = input wire, 1 = state bit y0, 2 = Buf(0) (next-state
        // root), 3 = Buf(1) (output root).
        b.add_controller(
            "fb",
            vec![a_req],
            vec![o],
            1,
            0,
            4,
            &[],
            &[
                GateSpec {
                    cell: CellKind::Buf,
                    inputs: vec![0],
                    output: 2,
                },
                GateSpec {
                    cell: CellKind::Buf,
                    inputs: vec![1],
                    output: 3,
                },
            ],
            &[3],
            &[2],
        )
        .unwrap();
        let resp = b.add_sync_responder(o, a_ack);
        let c = b.finish();
        let lanes = vec![lane_spec(1, DoneSpec::Activations(driver, 1))];
        let r = c.run(&RunSpec {
            lanes,
            max_waves: 1000,
        });
        assert_eq!(r.completed, 1);
        assert_eq!(r.sync_counts[&resp.0][0], 1);
    }

    #[test]
    fn cyclic_tape_is_rejected() {
        let mut b = CircuitBuilder::new();
        let w = b.wire();
        let o = b.wire();
        let err = b
            .add_controller(
                "cyc",
                vec![w],
                vec![o],
                0,
                0,
                3,
                &[],
                &[
                    GateSpec {
                        cell: CellKind::Inv,
                        inputs: vec![2],
                        output: 1,
                    },
                    GateSpec {
                        cell: CellKind::Inv,
                        inputs: vec![1],
                        output: 2,
                    },
                ],
                &[1],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, CompileError::Cycle { node: 1, .. }), "{err}");
    }

    #[test]
    fn malformed_tapes_are_rejected() {
        let mut b = CircuitBuilder::new();
        let w = b.wire();
        let o = b.wire();
        // Stateful cell.
        let err = b
            .add_controller(
                "c2",
                vec![w],
                vec![o],
                0,
                0,
                2,
                &[],
                &[GateSpec {
                    cell: CellKind::Celem2,
                    inputs: vec![0, 0],
                    output: 1,
                }],
                &[1],
                &[],
            )
            .unwrap_err();
        assert!(err.to_string().contains("stateful"));
        // Double-driven node.
        let err = b
            .add_controller(
                "dd",
                vec![w],
                vec![o],
                0,
                0,
                2,
                &[],
                &[
                    GateSpec {
                        cell: CellKind::Inv,
                        inputs: vec![0],
                        output: 1,
                    },
                    GateSpec {
                        cell: CellKind::Buf,
                        inputs: vec![0],
                        output: 1,
                    },
                ],
                &[1],
                &[],
            )
            .unwrap_err();
        assert!(err.to_string().contains("two gates"));
    }

    #[test]
    fn backend_auto_resolves_by_batch_size() {
        assert_eq!(SimBackend::Auto.resolve(1), SimBackend::Event);
        assert_eq!(SimBackend::Auto.resolve(2), SimBackend::Compiled);
        assert_eq!(SimBackend::Compiled.resolve(1), SimBackend::Compiled);
        assert_eq!(SimBackend::Event.resolve(64), SimBackend::Event);
    }
}
