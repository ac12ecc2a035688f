//! Builds a simulation of a complete design: the synthesized controllers
//! plus behavioural datapath and a scripted environment.

use crate::pipeline::FlowResult;
use bmbe_balsa::CompiledDesign;
use bmbe_hsnet::{ComponentKind, Netlist, UnOp};
use bmbe_sim::prims::{
    ActivationDriverEnv, BinFuncPrim, CallMuxPrim, ConstantPrim, ControllerPrim, DataCh, Delays,
    FetchDataPrim, MemSite, MemoryPrim, PullMuxPrim, PullProviderEnv, PushConsumerEnv,
    SelectAdapterPrim, SyncResponderEnv, UnFuncPrim, VariablePrim,
};
use bmbe_sim::{NodeId, PrimId, SchedulerKind, Sim, SimBackend, Time};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// When a benchmark run is considered complete.
#[derive(Debug, Clone)]
pub enum Done {
    /// The top activation completed this many handshakes.
    Activations(usize),
    /// An output port delivered this many values.
    Outputs {
        /// The port.
        port: String,
        /// Number of values.
        count: usize,
    },
    /// A sync port completed this many handshakes.
    Syncs {
        /// The port.
        port: String,
        /// Number of handshakes.
        count: usize,
    },
}

/// A benchmark scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Handshakes the environment performs on the activation channel.
    pub activation_cycles: usize,
    /// Scripted values per input port (cycled when exhausted).
    pub input_values: HashMap<String, Vec<u64>>,
    /// Initial memory contents by memory name (zero-filled to size).
    pub memory_init: HashMap<String, Vec<u64>>,
    /// Completion condition.
    pub done: Done,
    /// Simulation time limit (ps).
    pub max_time: Time,
}

impl Scenario {
    /// A scenario that just runs the activation `n` times.
    pub fn activations(n: usize) -> Self {
        Scenario {
            activation_cycles: n,
            input_values: HashMap::new(),
            memory_init: HashMap::new(),
            done: Done::Activations(n),
            max_time: 50_000_000,
        }
    }
}

/// Backend-side statistics of one simulation run — diagnostics, excluded
/// from [`SimOutcome::same_result`] (wall time varies run to run; the
/// simulated behaviour must not).
#[derive(Debug, Clone)]
pub struct SimStats {
    /// The backend the run used.
    pub backend: SimBackend,
    /// Scenario lanes sharing the run (1 on the event backend, up to 64 on
    /// the compiled backend — every outcome of a batch reports the batch's
    /// lane count and wall time).
    pub lanes: usize,
    /// Settle waves the compiled backend executed (0 on the event
    /// backend).
    pub waves: u64,
    /// Largest number of simultaneously pending events.
    pub peak_queue_depth: usize,
    /// Host wall-clock seconds spent inside the event loop.
    pub wall_s: f64,
    /// Processed events per host wall-clock second.
    pub events_per_s: f64,
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Whether the completion condition was met in time.
    pub completed: bool,
    /// Completion (or cutoff) time in nanoseconds.
    pub time_ns: f64,
    /// Processed simulation events.
    pub events: u64,
    /// Values delivered on each output port.
    pub outputs: HashMap<String, Vec<u64>>,
    /// Handshakes completed per sync port.
    pub sync_counts: HashMap<String, usize>,
    /// Final memory contents by memory name.
    pub memories: HashMap<String, Vec<u64>>,
    /// Backend statistics (not part of the simulated behaviour).
    pub stats: SimStats,
}

impl SimOutcome {
    /// Whether two runs simulated identical behaviour: same completion,
    /// simulated time, event count, port data, and memory contents. Stats
    /// (wall time, queue depth) are ignored — this is the equality
    /// repeated event runs of one scenario must meet.
    pub fn same_result(&self, other: &SimOutcome) -> bool {
        self.completed == other.completed
            && self.time_ns == other.time_ns
            && self.events == other.events
            && self.outputs == other.outputs
            && self.sync_counts == other.sync_counts
            && self.memories == other.memories
    }

    /// Whether two runs simulated identical *behaviour*: same completion,
    /// port data, sync counts, and memory contents — ignoring simulated
    /// time and event counts on top of what [`SimOutcome::same_result`]
    /// already ignores. This is the equality the compiled-vs-event
    /// differential checks assert: the compiled backend is untimed, so
    /// `time_ns` cannot match, and its "events" are applied wire changes
    /// rather than scheduled events.
    pub fn same_behaviour(&self, other: &SimOutcome) -> bool {
        self.completed == other.completed
            && self.outputs == other.outputs
            && self.sync_counts == other.sync_counts
            && self.memories == other.memories
    }
}

/// Errors raised while building the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimBuildError {
    /// The scenario's done condition references an unknown port.
    UnknownPort(String),
    /// A simulation job panicked; the panic was caught and its sibling
    /// jobs completed.
    Panic(String),
    /// A controller could not be compiled into a bit-parallel tape (see
    /// `crate::csim`).
    Compile {
        /// The controller.
        controller: String,
        /// What went wrong.
        detail: String,
    },
    /// A scenario batch is malformed for the compiled backend (mismatched
    /// input-port sets across lanes).
    BatchShape(String),
}

impl fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimBuildError::UnknownPort(p) => {
                write!(f, "done condition references unknown port {p}")
            }
            SimBuildError::Panic(payload) => {
                write!(f, "simulation job panicked: {payload}")
            }
            SimBuildError::Compile { controller, detail } => {
                write!(f, "compiling controller {controller} for simulation: {detail}")
            }
            SimBuildError::BatchShape(detail) => {
                write!(f, "malformed scenario batch: {detail}")
            }
        }
    }
}

impl std::error::Error for SimBuildError {}

struct ChannelTable {
    chans: HashMap<String, DataCh>,
}

impl ChannelTable {
    fn get(&mut self, sim: &mut Sim, name: &str) -> DataCh {
        if let Some(&c) = self.chans.get(name) {
            return c;
        }
        let c = DataCh {
            req: sim.node(&format!("{name}_r")),
            ack: sim.node(&format!("{name}_a")),
            slot: sim.slot(),
        };
        self.chans.insert(name.to_string(), c);
        c
    }
}

/// Channels pulled through a select adapter (case/while selectors) use a
/// renamed provider side.
pub(crate) fn provider_name(name: &str) -> String {
    format!("{name}$p")
}

/// One independent simulation job for [`simulate_all`].
pub struct SimJob<'a> {
    /// The compiled design.
    pub design: &'a CompiledDesign,
    /// Its synthesized flow artifacts.
    pub flow: &'a FlowResult,
    /// The scenario to run.
    pub scenario: &'a Scenario,
    /// The scheduler to run it on (there is only one; see
    /// [`SchedulerKind`]).
    pub scheduler: SchedulerKind,
}

/// Runs independent simulation scenarios across worker threads; results
/// come back in job order, each identical to a serial [`simulate`]
/// call (simulations share nothing, so parallelism cannot change them).
pub fn simulate_all(
    jobs: &[SimJob<'_>],
    delays: &Delays,
    threads: usize,
) -> Vec<Result<SimOutcome, SimBuildError>> {
    bmbe_par::par_try_map(
        jobs,
        threads,
        |i, job| format!("sim job {i} ({})", job.design.netlist.name()),
        |_, job| simulate(job.design, job.flow, job.scenario, delays),
    )
    .into_iter()
    .map(|slot| slot.unwrap_or_else(|job| Err(SimBuildError::Panic(job.payload))))
    .collect()
}

/// Simulates a design with its synthesized controllers on the event
/// engine.
///
/// # Errors
///
/// See [`SimBuildError`].
pub fn simulate(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenario: &Scenario,
    delays: &Delays,
) -> Result<SimOutcome, SimBuildError> {
    let _sim_span = bmbe_obs::span!("sim.build", "sim");
    let netlist = &design.netlist;
    let mut sim = Sim::new();
    let mut table = ChannelTable {
        chans: HashMap::new(),
    };

    // Select channels needing an adapter, with branch counts.
    let mut adapted: HashMap<String, usize> = HashMap::new();
    for comp in netlist.components() {
        match &comp.kind {
            ComponentKind::Case { branches } => {
                let name = netlist.channel(comp.channels[1]).name.clone();
                adapted.insert(name, *branches);
            }
            ComponentKind::While => {
                let name = netlist.channel(comp.channels[1]).name.clone();
                adapted.insert(name, 2);
            }
            _ => {}
        }
    }

    // Controllers.
    for art in &flow.controllers {
        let inputs: Vec<NodeId> = art.controller.inputs.iter().map(|n| sim.node(n)).collect();
        let outputs: Vec<NodeId> = art.controller.outputs.iter().map(|n| sim.node(n)).collect();
        let output_delays: Vec<Time> = art
            .controller
            .outputs
            .iter()
            .map(|n| {
                let ns = match art.template {
                    Some(t) => t.delay_ns,
                    None => art.mapped.output_delays.get(n).copied().unwrap_or(0.1),
                };
                (ns * 1000.0) as Time + delays.wire
            })
            .collect();
        let prim = ControllerPrim::new(
            inputs.clone(),
            outputs,
            art.controller.output_covers.clone(),
            art.controller.next_state_covers.clone(),
            art.controller.initial_code,
            output_delays,
        );
        sim.add_prim(Box::new(prim), &inputs);
    }

    // Select adapters.
    for (chan, branches) in &adapted {
        let sel_req = sim.node(&format!("{chan}_r"));
        let sel_acks: Vec<NodeId> = (0..*branches)
            .map(|i| sim.node(&format!("{chan}_a{i}")))
            .collect();
        let provider = table.get(&mut sim, &provider_name(chan));
        let watch: Vec<NodeId> = [sel_req, provider.ack].into();
        sim.add_prim(
            Box::new(SelectAdapterPrim::new(
                sel_req,
                sel_acks,
                provider,
                delays.select,
            )),
            &watch,
        );
    }

    // Datapath components.
    let chan_name = |netlist: &Netlist, comp: &bmbe_hsnet::Component, port: usize| -> String {
        let raw = netlist.channel(comp.channels[port]).name.clone();
        if adapted.contains_key(&raw) {
            provider_name(&raw)
        } else {
            raw
        }
    };
    let mut mem_prims: Vec<(String, PrimId)> = Vec::new();
    for comp in netlist.components() {
        match &comp.kind {
            ComponentKind::Variable { reads, .. } => {
                let write = table.get(&mut sim, &chan_name(netlist, comp, 0));
                let read_chs: Vec<DataCh> = (0..*reads)
                    .map(|i| {
                        let name = chan_name(netlist, comp, 1 + i);
                        table.get(&mut sim, &name)
                    })
                    .collect();
                let mut watch = vec![write.req];
                watch.extend(read_chs.iter().map(|c| c.req));
                sim.add_prim(
                    Box::new(VariablePrim {
                        value: 0,
                        write,
                        reads: read_chs,
                        wdelay: delays.var_write,
                        rdelay: delays.var_read,
                    }),
                    &watch,
                );
            }
            ComponentKind::Constant { value, .. } => {
                let ch = table.get(&mut sim, &chan_name(netlist, comp, 0));
                sim.add_prim(
                    Box::new(ConstantPrim {
                        ch,
                        value: *value,
                        delay: delays.constant,
                    }),
                    &[ch.req],
                );
            }
            ComponentKind::BinaryFunc { op, .. } => {
                let out = table.get(&mut sim, &chan_name(netlist, comp, 0));
                let lhs = table.get(&mut sim, &chan_name(netlist, comp, 1));
                let rhs = table.get(&mut sim, &chan_name(netlist, comp, 2));
                sim.add_prim(
                    Box::new(BinFuncPrim {
                        op: *op,
                        out,
                        lhs,
                        rhs,
                        delay: delays.binop(*op),
                    }),
                    &[out.req, lhs.ack, rhs.ack],
                );
            }
            ComponentKind::UnaryFunc { op, .. } => {
                let out = table.get(&mut sim, &chan_name(netlist, comp, 0));
                let operand = table.get(&mut sim, &chan_name(netlist, comp, 1));
                let delay = if *op == UnOp::Id { 1 } else { delays.unary };
                sim.add_prim(
                    Box::new(UnFuncPrim {
                        op: *op,
                        out,
                        operand,
                        delay,
                    }),
                    &[out.req, operand.ack],
                );
            }
            ComponentKind::CallMux { inputs, .. } => {
                let ins: Vec<DataCh> = (0..*inputs)
                    .map(|i| {
                        let name = chan_name(netlist, comp, i);
                        table.get(&mut sim, &name)
                    })
                    .collect();
                let out = table.get(&mut sim, &chan_name(netlist, comp, *inputs));
                let mut watch: Vec<NodeId> = ins.iter().map(|c| c.req).collect();
                watch.push(out.ack);
                sim.add_prim(Box::new(CallMuxPrim::new(ins, out, delays.mux)), &watch);
            }
            ComponentKind::PullMux { clients, .. } => {
                let cl: Vec<DataCh> = (0..*clients)
                    .map(|i| {
                        let name = chan_name(netlist, comp, i);
                        table.get(&mut sim, &name)
                    })
                    .collect();
                let source = table.get(&mut sim, &chan_name(netlist, comp, *clients));
                let mut watch: Vec<NodeId> = cl.iter().map(|c| c.req).collect();
                watch.push(source.ack);
                sim.add_prim(Box::new(PullMuxPrim::new(cl, source, delays.mux)), &watch);
            }
            ComponentKind::Memory {
                words,
                reads,
                writes,
                ..
            } => {
                // The memory's declared name is the first channel's prefix
                // ("m_rd0" -> "m").
                let mem_name = netlist
                    .channel(comp.channels[0])
                    .name
                    .strip_suffix("_rd0")
                    .unwrap_or("mem")
                    .to_string();
                let mut port = 0;
                let mut rsites = Vec::new();
                for _ in 0..*reads {
                    let data = table.get(&mut sim, &chan_name(netlist, comp, port));
                    let addr = table.get(&mut sim, &chan_name(netlist, comp, port + 1));
                    rsites.push(MemSite { data, addr });
                    port += 2;
                }
                let mut wsites = Vec::new();
                for _ in 0..*writes {
                    let data = table.get(&mut sim, &chan_name(netlist, comp, port));
                    let addr = table.get(&mut sim, &chan_name(netlist, comp, port + 1));
                    wsites.push(MemSite { data, addr });
                    port += 2;
                }
                let mut watch = Vec::new();
                for s in rsites.iter().chain(&wsites) {
                    watch.push(s.data.req);
                    watch.push(s.addr.ack);
                }
                let mut prim = MemoryPrim::new(*words, rsites, wsites, delays.memory);
                if let Some(init) = scenario.memory_init.get(&mem_name) {
                    for (i, v) in init.iter().enumerate().take(prim.words.len()) {
                        prim.words[i] = *v;
                    }
                }
                let id = sim.add_prim(Box::new(prim), &watch);
                mem_prims.push((mem_name, id));
            }
            ComponentKind::Fetch => {
                // The control is synthesized; add the bundled-data copy.
                let pull = table.get(&mut sim, &chan_name(netlist, comp, 1));
                let push = table.get(&mut sim, &chan_name(netlist, comp, 2));
                sim.add_prim(Box::new(FetchDataPrim { pull, push }), &[pull.ack]);
            }
            _ => {}
        }
    }

    // Environment: activation driver.
    let act_name = netlist.channel(design.activate).name.clone();
    let act_req = sim.node(&format!("{act_name}_r"));
    let act_ack = sim.node(&format!("{act_name}_a"));
    let driver = sim.add_prim(
        Box::new(ActivationDriverEnv {
            req: act_req,
            ack: act_ack,
            cycles: scenario.activation_cycles,
            completions: 0,
            done_time: None,
            delay: delays.env,
        }),
        &[act_ack],
    );

    // Environment: ports.
    let mut sync_env: HashMap<String, PrimId> = HashMap::new();
    let mut out_env: HashMap<String, PrimId> = HashMap::new();
    for (name, &chid) in &design.port_channels {
        let channel = netlist.channel(chid);
        if channel.width == 0 {
            // sync port: design is active, environment passive.
            let req = sim.node(&format!("{name}_r"));
            let ack = sim.node(&format!("{name}_a"));
            let id = sim.add_prim(
                Box::new(SyncResponderEnv {
                    req,
                    ack,
                    delay: delays.env,
                    count: 0,
                }),
                &[req],
            );
            sync_env.insert(name.clone(), id);
        } else {
            // Determine direction: if the external side is the passive end,
            // the design pulls (input port) or pushes (output port)?
            // Input ports: design pulls -> env passive provider.
            // Output ports: design pushes -> env passive consumer.
            // Distinguish by which side is external: both are passive-
            // external in our compilation; use scripted inputs to decide.
            let ch = table.get(&mut sim, name);
            if scenario.input_values.contains_key(name) {
                let values = scenario.input_values[name].clone();
                sim.add_prim(
                    Box::new(PullProviderEnv {
                        ch,
                        values,
                        ix: 0,
                        delay: delays.env,
                    }),
                    &[ch.req],
                );
            } else {
                let id = sim.add_prim(
                    Box::new(PushConsumerEnv {
                        ch,
                        received: Vec::new(),
                        delay: delays.env,
                    }),
                    &[ch.req],
                );
                out_env.insert(name.clone(), id);
            }
        }
    }

    // Done condition, with the port name resolved to its primitive up
    // front: the closure runs once per event, so it must not re-hash the
    // port string every time.
    enum DoneCheck {
        Activations { driver: PrimId, n: usize },
        Outputs { id: PrimId, count: usize },
        Syncs { id: PrimId, count: usize },
    }
    let check = match &scenario.done {
        Done::Activations(n) => DoneCheck::Activations { driver, n: *n },
        Done::Outputs { port, count } => DoneCheck::Outputs {
            id: *out_env
                .get(port)
                .ok_or_else(|| SimBuildError::UnknownPort(port.clone()))?,
            count: *count,
        },
        Done::Syncs { port, count } => DoneCheck::Syncs {
            id: *sync_env
                .get(port)
                .ok_or_else(|| SimBuildError::UnknownPort(port.clone()))?,
            count: *count,
        },
    };
    if std::env::var("BMBE_SIM_TRACE").is_ok() {
        sim.trace = true;
        // The wire-change log goes through `vlog!` at level 1; asking for a
        // sim trace implies asking for that verbosity.
        bmbe_obs::ensure_verbosity(1);
    }
    sim.init();
    drop(_sim_span);
    let run_span = bmbe_obs::span!("sim.run", "sim");
    let loop_start = Instant::now();
    let completed = sim.run_until(
        |s| match check {
            DoneCheck::Activations { driver, n } => s
                .prim::<ActivationDriverEnv>(driver)
                .is_some_and(|d| d.completions >= n),
            DoneCheck::Outputs { id, count } => s
                .prim::<PushConsumerEnv>(id)
                .is_some_and(|c| c.received.len() >= count),
            DoneCheck::Syncs { id, count } => s
                .prim::<SyncResponderEnv>(id)
                .is_some_and(|c| c.count >= count),
        },
        scenario.max_time,
    );
    let wall_s = loop_start.elapsed().as_secs_f64();
    drop(run_span);
    let events_per_s = if wall_s > 0.0 {
        sim.events_processed as f64 / wall_s
    } else {
        0.0
    };
    bmbe_obs::trace_counter!("sim.events", sim.events_processed);
    bmbe_obs::gauge!("sim.events_per_s").set(events_per_s as i64);
    let outputs: HashMap<String, Vec<u64>> = out_env
        .iter()
        .map(|(name, &id)| {
            (
                name.clone(),
                sim.prim::<PushConsumerEnv>(id)
                    .map(|c| c.received.clone())
                    .unwrap_or_default(),
            )
        })
        .collect();
    let sync_counts: HashMap<String, usize> = sync_env
        .iter()
        .map(|(name, &id)| {
            (
                name.clone(),
                sim.prim::<SyncResponderEnv>(id)
                    .map(|c| c.count)
                    .unwrap_or(0),
            )
        })
        .collect();
    let memories: HashMap<String, Vec<u64>> = mem_prims
        .iter()
        .map(|(name, id)| {
            (
                name.clone(),
                sim.prim::<MemoryPrim>(*id)
                    .map(|m| m.words.clone())
                    .unwrap_or_default(),
            )
        })
        .collect();
    Ok(SimOutcome {
        completed,
        time_ns: sim.now() as f64 / 1000.0,
        events: sim.events_processed,
        outputs,
        sync_counts,
        memories,
        stats: SimStats {
            backend: SimBackend::Event,
            lanes: 1,
            waves: 0,
            peak_queue_depth: sim.peak_queue_depth(),
            wall_s,
            events_per_s,
        },
    })
}

/// [`simulate`] with the scheduler named. [`SchedulerKind`] has a single
/// variant, so every call runs the same engine; the parameter exists so
/// that callers written against a choice of schedulers keep compiling.
///
/// # Errors
///
/// See [`SimBuildError`].
pub fn simulate_with(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenario: &Scenario,
    delays: &Delays,
    _scheduler: SchedulerKind,
) -> Result<SimOutcome, SimBuildError> {
    simulate(design, flow, scenario, delays)
}
