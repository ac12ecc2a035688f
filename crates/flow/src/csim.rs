//! The bit-parallel compiled simulation backend for complete designs.
//!
//! [`compile_sim`] walks the same design structure as
//! [`crate::simbuild::simulate`] — synthesized controllers, select
//! adapters, behavioural datapath components, and the scripted environment
//! — but lowers it into a [`bmbe_sim::CompiledCircuit`]: controllers
//! become levelized instruction tapes over their technology-mapped gates
//! (one lane-parallel op per cell), and every primitive evaluates all 64
//! scenario lanes of a batch at once.
//!
//! The lane-packing layer is [`CompiledSim::run_batch`]: it takes up to
//! [`LANES`] scenarios, binds each to a lane (a partial batch simply
//! leaves the upper lanes dead — the engine's live mask pads them out),
//! runs the batch, and demuxes the per-lane results back into ordinary
//! [`SimOutcome`]s so downstream consumers are untouched.
//! [`simulate_scenarios`] is the batch entry point that picks a backend
//! ([`SimBackend::Auto`] compiles when there is more than one scenario)
//! and fans compiled chunks out across worker threads; because one wave's
//! result cannot depend on evaluation order and the circuit is compiled
//! once up front, compiled outcomes are bit-identical at any thread count.
//!
//! The compiled backend is untimed. Differential tests assert
//! [`SimOutcome::same_behaviour`] against the event-engine oracle, which
//! remains the timing/hazard reference.

use crate::fault::{FaultPhase, FaultPlan};
use crate::pipeline::FlowResult;
use crate::simbuild::{
    provider_name, simulate_all, Done, Scenario, SimBuildError, SimJob, SimOutcome, SimStats,
};
use bmbe_balsa::CompiledDesign;
use bmbe_gates::SubjectNode;
use bmbe_hsnet::{Component, ComponentKind, Netlist};
use bmbe_sim::{
    CCh, CPrim, CSite, CWire, CircuitBuilder, CompiledCircuit, DoneSpec, GateSpec, LaneSpec,
    RunSpec, SchedulerKind, SimBackend, LANES,
};
use bmbe_sim::prims::Delays;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Safety net against a non-quiescing (oscillating) circuit; real designs
/// either complete or quiesce in far fewer waves.
const MAX_WAVES: u64 = 1_000_000;

/// A design compiled for bit-parallel simulation, with the environment
/// primitives needed to bind scenarios to lanes and demux results.
pub struct CompiledSim {
    circuit: CompiledCircuit,
    driver: CPrim,
    /// Input port name -> pull provider.
    providers: BTreeMap<String, CPrim>,
    /// Output port name -> push consumer.
    consumers: BTreeMap<String, CPrim>,
    /// Sync port name -> responder.
    syncs: BTreeMap<String, CPrim>,
    /// Memory name -> memory primitive.
    mems: Vec<(String, CPrim)>,
}

struct NameTable {
    wires: HashMap<String, CWire>,
    chans: HashMap<String, CCh>,
}

impl NameTable {
    fn wire(&mut self, b: &mut CircuitBuilder, name: &str) -> CWire {
        if let Some(&w) = self.wires.get(name) {
            return w;
        }
        let w = b.wire();
        self.wires.insert(name.to_string(), w);
        w
    }

    fn ch(&mut self, b: &mut CircuitBuilder, name: &str) -> CCh {
        if let Some(&c) = self.chans.get(name) {
            return c;
        }
        let c = CCh {
            req: self.wire(b, &format!("{name}_r")),
            ack: self.wire(b, &format!("{name}_a")),
            slot: b.slot(),
        };
        self.chans.insert(name.to_string(), c);
        c
    }
}

/// Compiles a design (controllers, datapath, environment) into a
/// [`CompiledSim`]. `input_ports` names the ports the scenarios script as
/// inputs — the compiled circuit fixes port directions up front, so every
/// scenario of every batch run on this circuit must script exactly these
/// ports (enforced by [`CompiledSim::run_batch`]).
///
/// `fault` injects a deterministic [`FaultPhase::SimCompile`] failure at
/// the targeted controller index (the flow's fan-out order), for the
/// recovery-path tests.
///
/// # Errors
///
/// [`SimBuildError::Compile`] when a controller netlist cannot be
/// levelized into a tape (or a fault is injected there).
pub fn compile_sim(
    design: &CompiledDesign,
    flow: &FlowResult,
    input_ports: &BTreeSet<String>,
    fault: Option<&FaultPlan>,
) -> Result<CompiledSim, SimBuildError> {
    let _span = bmbe_obs::span!("sim.compile", "sim");
    let netlist = &design.netlist;
    let mut b = CircuitBuilder::new();
    let mut t = NameTable {
        wires: HashMap::new(),
        chans: HashMap::new(),
    };

    // Select channels needing an adapter, with branch counts (sorted: the
    // compiled circuit must be built in a deterministic order).
    let mut adapted: BTreeMap<String, usize> = BTreeMap::new();
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

    // Controllers: one levelized tape per synthesized artifact, built from
    // its technology-mapped gates (the subject-graph nodes are the tape's
    // scratch slots).
    for (i, art) in flow.controllers.iter().enumerate() {
        if let Some(plan) = fault {
            if plan.targets_job(i) {
                plan.trip(FaultPhase::SimCompile)
                    .map_err(|_| SimBuildError::Compile {
                        controller: art.name.clone(),
                        detail: format!("injected fault at sim_compile of job {i}"),
                    })?;
            }
        }
        let ctrl = &art.controller;
        let subject = &art.mapped.subject;
        let bad = |detail: String| SimBuildError::Compile {
            controller: art.name.clone(),
            detail,
        };
        let root_of = |name: &str| {
            subject
                .roots
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, r)| r)
        };
        let out_roots: Vec<usize> = ctrl
            .outputs
            .iter()
            .map(|n| root_of(n).ok_or_else(|| bad(format!("no function root for output {n}"))))
            .collect::<Result<_, _>>()?;
        let state_roots: Vec<usize> = (0..ctrl.num_state_bits)
            .map(|j| {
                root_of(&format!("y{j}"))
                    .ok_or_else(|| bad(format!("no function root for state bit y{j}")))
            })
            .collect::<Result<_, _>>()?;
        let ones: Vec<usize> = subject
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, SubjectNode::One))
            .map(|(ix, _)| ix)
            .collect();
        let gates: Vec<GateSpec> = art
            .mapped
            .gates
            .iter()
            .map(|g| GateSpec {
                cell: g.cell,
                inputs: g.inputs.clone(),
                output: g.output,
            })
            .collect();
        let inputs: Vec<CWire> = ctrl.inputs.iter().map(|n| t.wire(&mut b, n)).collect();
        let outputs: Vec<CWire> = ctrl.outputs.iter().map(|n| t.wire(&mut b, n)).collect();
        b.add_controller(
            &art.name,
            inputs,
            outputs,
            ctrl.num_state_bits,
            ctrl.initial_code,
            subject.nodes.len(),
            &ones,
            &gates,
            &out_roots,
            &state_roots,
        )
        .map_err(|e| SimBuildError::Compile {
            controller: art.name.clone(),
            detail: e.to_string(),
        })?;
    }

    // Select adapters.
    for (chan, branches) in &adapted {
        let sel_req = t.wire(&mut b, &format!("{chan}_r"));
        let sel_acks: Vec<CWire> = (0..*branches)
            .map(|i| t.wire(&mut b, &format!("{chan}_a{i}")))
            .collect();
        let provider = t.ch(&mut b, &provider_name(chan));
        b.add_select_adapter(sel_req, sel_acks, provider);
    }

    // Datapath components.
    let chan_name = |netlist: &Netlist, comp: &Component, port: usize| -> String {
        let raw = netlist.channel(comp.channels[port]).name.clone();
        if adapted.contains_key(&raw) {
            provider_name(&raw)
        } else {
            raw
        }
    };
    let mut mems: Vec<(String, CPrim)> = Vec::new();
    for comp in netlist.components() {
        match &comp.kind {
            ComponentKind::Variable { reads, .. } => {
                let write = t.ch(&mut b, &chan_name(netlist, comp, 0));
                let read_chs: Vec<CCh> = (0..*reads)
                    .map(|i| {
                        let name = chan_name(netlist, comp, 1 + i);
                        t.ch(&mut b, &name)
                    })
                    .collect();
                b.add_variable(write, read_chs);
            }
            ComponentKind::Constant { value, .. } => {
                let ch = t.ch(&mut b, &chan_name(netlist, comp, 0));
                b.add_constant(ch, *value);
            }
            ComponentKind::BinaryFunc { op, .. } => {
                let out = t.ch(&mut b, &chan_name(netlist, comp, 0));
                let lhs = t.ch(&mut b, &chan_name(netlist, comp, 1));
                let rhs = t.ch(&mut b, &chan_name(netlist, comp, 2));
                b.add_binfunc(*op, out, lhs, rhs);
            }
            ComponentKind::UnaryFunc { op, .. } => {
                let out = t.ch(&mut b, &chan_name(netlist, comp, 0));
                let operand = t.ch(&mut b, &chan_name(netlist, comp, 1));
                b.add_unfunc(*op, out, operand);
            }
            ComponentKind::CallMux { inputs, .. } => {
                let ins: Vec<CCh> = (0..*inputs)
                    .map(|i| {
                        let name = chan_name(netlist, comp, i);
                        t.ch(&mut b, &name)
                    })
                    .collect();
                let out = t.ch(&mut b, &chan_name(netlist, comp, *inputs));
                b.add_call_mux(ins, out);
            }
            ComponentKind::PullMux { clients, .. } => {
                let cl: Vec<CCh> = (0..*clients)
                    .map(|i| {
                        let name = chan_name(netlist, comp, i);
                        t.ch(&mut b, &name)
                    })
                    .collect();
                let source = t.ch(&mut b, &chan_name(netlist, comp, *clients));
                b.add_pull_mux(cl, source);
            }
            ComponentKind::Memory {
                words,
                reads,
                writes,
                ..
            } => {
                let mem_name = netlist
                    .channel(comp.channels[0])
                    .name
                    .strip_suffix("_rd0")
                    .unwrap_or("mem")
                    .to_string();
                let mut port = 0;
                let mut rsites = Vec::new();
                for _ in 0..*reads {
                    let data = t.ch(&mut b, &chan_name(netlist, comp, port));
                    let addr = t.ch(&mut b, &chan_name(netlist, comp, port + 1));
                    rsites.push(CSite { data, addr });
                    port += 2;
                }
                let mut wsites = Vec::new();
                for _ in 0..*writes {
                    let data = t.ch(&mut b, &chan_name(netlist, comp, port));
                    let addr = t.ch(&mut b, &chan_name(netlist, comp, port + 1));
                    wsites.push(CSite { data, addr });
                    port += 2;
                }
                let id = b.add_memory(*words, rsites, wsites);
                mems.push((mem_name, id));
            }
            ComponentKind::Fetch => {
                let pull = t.ch(&mut b, &chan_name(netlist, comp, 1));
                let push = t.ch(&mut b, &chan_name(netlist, comp, 2));
                b.add_fetch(pull, push);
            }
            _ => {}
        }
    }

    // Environment: activation driver.
    let act_name = netlist.channel(design.activate).name.clone();
    let act_req = t.wire(&mut b, &format!("{act_name}_r"));
    let act_ack = t.wire(&mut b, &format!("{act_name}_a"));
    let driver = b.add_activation_driver(act_req, act_ack);

    // Environment: ports (sorted for a deterministic build).
    let mut providers = BTreeMap::new();
    let mut consumers = BTreeMap::new();
    let mut syncs = BTreeMap::new();
    let ports: BTreeMap<&String, _> = design.port_channels.iter().collect();
    for (name, &chid) in ports {
        let channel = netlist.channel(chid);
        if channel.width == 0 {
            let req = t.wire(&mut b, &format!("{name}_r"));
            let ack = t.wire(&mut b, &format!("{name}_a"));
            syncs.insert(name.clone(), b.add_sync_responder(req, ack));
        } else {
            let ch = t.ch(&mut b, name);
            if input_ports.contains(name) {
                providers.insert(name.clone(), b.add_pull_provider(ch));
            } else {
                consumers.insert(name.clone(), b.add_push_consumer(ch));
            }
        }
    }

    Ok(CompiledSim {
        circuit: b.finish(),
        driver,
        providers,
        consumers,
        syncs,
        mems,
    })
}

impl CompiledSim {
    /// The underlying circuit (tape statistics for reports).
    pub fn circuit(&self) -> &CompiledCircuit {
        &self.circuit
    }

    /// Runs up to [`LANES`] scenarios as one bit-parallel batch and demuxes
    /// one [`SimOutcome`] per scenario, in order.
    ///
    /// The compiled backend is untimed: each outcome reports `time_ns` 0,
    /// `events` = the lane's applied wire changes, and batch-wide stats
    /// (`lanes`, `waves`, shared `wall_s`).
    ///
    /// # Errors
    ///
    /// [`SimBuildError::BatchShape`] if the batch is empty, exceeds
    /// [`LANES`], or a scenario scripts a port set different from the one
    /// the circuit was compiled for; [`SimBuildError::UnknownPort`] if a
    /// done condition names an unknown port.
    pub fn run_batch(&self, scenarios: &[Scenario]) -> Result<Vec<SimOutcome>, SimBuildError> {
        if scenarios.is_empty() || scenarios.len() > LANES {
            return Err(SimBuildError::BatchShape(format!(
                "batch of {} scenarios (need 1..={LANES})",
                scenarios.len()
            )));
        }
        let mut lanes = Vec::with_capacity(scenarios.len());
        for s in scenarios {
            for port in s.input_values.keys() {
                if !self.providers.contains_key(port) {
                    return Err(SimBuildError::BatchShape(format!(
                        "scenario scripts port {port}, but the circuit was compiled without it \
                         as an input"
                    )));
                }
            }
            let provider_values: Vec<(CPrim, Vec<u64>)> = self
                .providers
                .iter()
                .map(|(name, &p)| {
                    (p, s.input_values.get(name).cloned().unwrap_or_default())
                })
                .collect();
            let memory_init: Vec<(CPrim, Vec<u64>)> = self
                .mems
                .iter()
                .filter_map(|(name, p)| s.memory_init.get(name).map(|init| (*p, init.clone())))
                .collect();
            let done = match &s.done {
                Done::Activations(n) => DoneSpec::Activations(self.driver, *n as u64),
                Done::Outputs { port, count } => DoneSpec::Outputs(
                    *self
                        .consumers
                        .get(port)
                        .ok_or_else(|| SimBuildError::UnknownPort(port.clone()))?,
                    *count,
                ),
                Done::Syncs { port, count } => DoneSpec::Syncs(
                    *self
                        .syncs
                        .get(port)
                        .ok_or_else(|| SimBuildError::UnknownPort(port.clone()))?,
                    *count as u64,
                ),
            };
            lanes.push(LaneSpec {
                activation_cycles: s.activation_cycles as u64,
                provider_values,
                memory_init,
                done,
            });
        }
        let n = lanes.len();
        let spec = RunSpec {
            lanes,
            max_waves: MAX_WAVES,
        };
        let start = Instant::now();
        let r = self.circuit.run(&spec);
        let wall_s = start.elapsed().as_secs_f64();
        // Live lanes only: in a partial batch the dead padding is masked
        // out of every write (and asserted event-free at harvest), so the
        // gauge and the per-outcome stats report the work of the `n`
        // scenarios actually run, not of 64 lanes.
        let total_events = r.live_events();
        let events_per_s = if wall_s > 0.0 {
            total_events as f64 / wall_s
        } else {
            0.0
        };
        bmbe_obs::gauge!("sim.compiled.events_per_s").set(events_per_s as i64);
        let outcomes = (0..n)
            .map(|lane| SimOutcome {
                completed: r.completed >> lane & 1 == 1,
                time_ns: 0.0,
                events: r.lane_events[lane],
                outputs: self
                    .consumers
                    .iter()
                    .map(|(name, p)| (name.clone(), r.consumer_received[&p.0][lane].clone()))
                    .collect(),
                sync_counts: self
                    .syncs
                    .iter()
                    .map(|(name, p)| (name.clone(), r.sync_counts[&p.0][lane] as usize))
                    .collect(),
                memories: self
                    .mems
                    .iter()
                    .map(|(name, p)| (name.clone(), r.memories[&p.0][lane].clone()))
                    .collect(),
                stats: SimStats {
                    backend: SimBackend::Compiled,
                    lanes: n,
                    waves: r.waves,
                    peak_queue_depth: 0,
                    wall_s,
                    events_per_s,
                },
            })
            .collect();
        Ok(outcomes)
    }
}

/// The set of ports a scenario batch scripts as inputs — what
/// [`compile_sim`] needs to fix port directions.
pub fn batch_input_ports(scenarios: &[Scenario]) -> BTreeSet<String> {
    scenarios
        .iter()
        .flat_map(|s| s.input_values.keys().cloned())
        .collect()
}

/// Simulates a scenario set on the chosen backend, returning one outcome
/// per scenario, in order.
///
/// [`SimBackend::Event`] runs each scenario as an independent event
/// simulation across `threads` workers (exactly [`simulate_all`]). [`SimBackend::Compiled`] compiles the design
/// once, packs the scenarios into [`LANES`]-wide batches, and fans the
/// batches out across `threads` workers; results are bit-identical at any
/// thread count. [`SimBackend::Auto`] compiles when the set has more than
/// one scenario.
///
/// Worker panics (including injected `sim_compile` faults of
/// [`crate::FaultKind::Panic`]) are isolated per job and surface as
/// [`SimBuildError::Panic`].
pub fn simulate_scenarios(
    design: &CompiledDesign,
    flow: &FlowResult,
    scenarios: &[Scenario],
    delays: &Delays,
    backend: SimBackend,
    threads: usize,
    fault: Option<&FaultPlan>,
) -> Vec<Result<SimOutcome, SimBuildError>> {
    if scenarios.is_empty() {
        return Vec::new();
    }
    match backend.resolve(scenarios.len()) {
        SimBackend::Event | SimBackend::Auto => {
            let jobs: Vec<SimJob<'_>> = scenarios
                .iter()
                .map(|scenario| SimJob {
                    design,
                    flow,
                    scenario,
                    scheduler: SchedulerKind::default(),
                })
                .collect();
            simulate_all(&jobs, delays, threads)
        }
        SimBackend::Compiled => {
            let input_ports = batch_input_ports(scenarios);
            let cs = match bmbe_par::catch_job(|| compile_sim(design, flow, &input_ports, fault)) {
                Ok(Ok(cs)) => cs,
                Ok(Err(e)) => return scenarios.iter().map(|_| Err(e.clone())).collect(),
                Err(payload) => {
                    let e = SimBuildError::Panic(payload);
                    return scenarios.iter().map(|_| Err(e.clone())).collect();
                }
            };
            let chunks: Vec<&[Scenario]> = scenarios.chunks(LANES).collect();
            let results = bmbe_par::par_try_map(
                &chunks,
                threads,
                |i, chunk| format!("sim batch {i} ({} lanes)", chunk.len()),
                |_, chunk| cs.run_batch(chunk),
            );
            let mut out = Vec::with_capacity(scenarios.len());
            for (chunk, slot) in chunks.iter().zip(results) {
                match slot {
                    Ok(Ok(outcomes)) => out.extend(outcomes.into_iter().map(Ok)),
                    Ok(Err(e)) => out.extend(chunk.iter().map(|_| Err(e.clone()))),
                    Err(job) => out.extend(
                        chunk
                            .iter()
                            .map(|_| Err(SimBuildError::Panic(job.payload.clone()))),
                    ),
                }
            }
            out
        }
    }
}
