//! The discrete-event simulation engine.
//!
//! Wires carry Boolean values; data moves in per-channel value slots
//! (bundled-data abstraction). Primitives — synthesized controllers,
//! behavioural datapath components, and environment processes — react to
//! wire changes and schedule further changes after their delays. Time is in
//! picoseconds.
//!
//! # Scheduling
//!
//! Pending events live in a binary heap ordered by `(time, seq)`, where
//! `seq` is a global counter bumped on every schedule call, so events due
//! at the same time fire in the order they were scheduled (FIFO). Handshake
//! circuits keep very few events in flight (peak queue depth is at most 6
//! on every corpus design), a regime in which a heap is as cheap as any
//! calendar structure.
//!
//! Action slots are free-listed: a slot is recycled as soon as its event
//! fires, so the action table stays as small as the peak number of
//! in-flight events instead of growing with the lifetime event count.
//! Watcher delivery is indexed — no per-event clone of the watcher list.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::Arc;

/// Simulation time in picoseconds.
pub type Time = u64;

/// Identifier of a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a data slot (one per data channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub usize);

/// Identifier of a primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrimId(pub usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    SetNode(NodeId, bool),
    Notify(PrimId, u64),
}

/// Which scheduler backs a [`Sim`].
///
/// There is one: a binary heap keyed by `(time, seq)`. The enum stays so
/// that callers which name a scheduler (`SimJob::scheduler`,
/// `simulate_with`) keep compiling; nothing branches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The binary-heap event queue with free-listed action slots.
    #[default]
    Heap,
}

/// A scheduled event: `(time, seq, action slot)`. Ordered by `(time, seq)`;
/// `seq` is globally monotonic, so ties in time resolve FIFO.
type Event = (Time, u64, u32);

/// The pending events: a min-heap on `(time, seq)` plus the largest depth
/// it has reached.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    peak: usize,
}

impl EventQueue {
    fn push(&mut self, e: Event) {
        self.heap.push(Reverse(e));
        self.peak = self.peak.max(self.heap.len());
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// A behavioural element of the simulation.
pub trait Primitive: Any {
    /// Called once before simulation starts.
    fn init(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a watched wire changes value.
    fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId);

    /// Called when a self-scheduled notification fires.
    fn on_notify(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}

    /// Downcast support for post-simulation inspection.
    fn as_any(&self) -> &dyn Any;
}

/// The API primitives use to interact with the simulation.
pub struct Ctx<'a> {
    nodes: &'a [bool],
    slots: &'a mut [u64],
    queue: &'a mut EventQueue,
    actions: &'a mut Vec<Action>,
    free: &'a mut Vec<u32>,
    seq: &'a mut u64,
    now: Time,
    self_id: PrimId,
}

impl Ctx<'_> {
    /// The current simulation time (ps).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Reads a wire.
    pub fn get(&self, node: NodeId) -> bool {
        self.nodes[node.0]
    }

    /// Reads a data slot.
    pub fn read_slot(&self, slot: SlotId) -> u64 {
        self.slots[slot.0]
    }

    /// Writes a data slot (takes effect immediately — bundled data is
    /// assumed set up before its request/acknowledge edge).
    pub fn write_slot(&mut self, slot: SlotId, value: u64) {
        self.slots[slot.0] = value;
    }

    /// Schedules a wire change `delay` picoseconds from now.
    pub fn set_after(&mut self, node: NodeId, value: bool, delay: Time) {
        *self.seq += 1;
        let idx = self.push_action(Action::SetNode(node, value));
        self.queue.push((self.now + delay, *self.seq, idx));
    }

    /// Schedules a notification to this primitive.
    pub fn notify_after(&mut self, tag: u64, delay: Time) {
        *self.seq += 1;
        let id = self.self_id;
        let idx = self.push_action(Action::Notify(id, tag));
        self.queue.push((self.now + delay, *self.seq, idx));
    }

    /// Claims an action slot from the free list, or extends the table.
    fn push_action(&mut self, a: Action) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.actions[i as usize] = a;
                i
            }
            None => {
                self.actions.push(a);
                (self.actions.len() - 1) as u32
            }
        }
    }
}

/// The simulator.
pub struct Sim {
    nodes: Vec<bool>,
    node_names: Vec<Arc<str>>,
    names: HashMap<Arc<str>, NodeId>,
    slots: Vec<u64>,
    prims: Vec<Option<Box<dyn Primitive>>>,
    watchers: Vec<Vec<PrimId>>,
    queue: EventQueue,
    actions: Vec<Action>,
    free: Vec<u32>,
    seq: u64,
    now: Time,
    /// Count of processed events (for run-away detection).
    pub events_processed: u64,
    /// Log every applied wire change (debugging aid). Lines go to stderr
    /// via `bmbe_obs::vlog!` at verbosity ≥ 1; callers that set this should
    /// also call `bmbe_obs::ensure_verbosity(1)` (simbuild does when
    /// `BMBE_SIM_TRACE` is set).
    pub trace: bool,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulator on the binary-heap event queue.
    pub fn new() -> Self {
        Sim {
            nodes: Vec::new(),
            node_names: Vec::new(),
            names: HashMap::new(),
            slots: Vec::new(),
            prims: Vec::new(),
            watchers: Vec::new(),
            queue: EventQueue::default(),
            actions: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0,
            events_processed: 0,
            trace: false,
        }
    }

    /// Creates (or finds) a named wire, initially 0. The name is interned
    /// once (the lookup table and the id-to-name table share one
    /// allocation).
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = NodeId(self.nodes.len());
        let interned: Arc<str> = Arc::from(name);
        self.nodes.push(false);
        self.node_names.push(interned.clone());
        self.names.insert(interned, id);
        self.watchers.push(Vec::new());
        id
    }

    /// The name of a wire.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Current value of a wire.
    pub fn value(&self, node: NodeId) -> bool {
        self.nodes[node.0]
    }

    /// Allocates a data slot.
    pub fn slot(&mut self) -> SlotId {
        self.slots.push(0);
        SlotId(self.slots.len() - 1)
    }

    /// Reads a data slot.
    pub fn slot_value(&self, slot: SlotId) -> u64 {
        self.slots[slot.0]
    }

    /// Registers a primitive watching the given wires.
    pub fn add_prim(&mut self, prim: Box<dyn Primitive>, watched: &[NodeId]) -> PrimId {
        let id = PrimId(self.prims.len());
        self.prims.push(Some(prim));
        for &n in watched {
            self.watchers[n.0].push(id);
        }
        id
    }

    /// Inspects a primitive after (or during) simulation.
    pub fn prim<T: 'static>(&self, id: PrimId) -> Option<&T> {
        self.prims[id.0]
            .as_ref()
            .and_then(|p| p.as_any().downcast_ref::<T>())
    }

    /// The current time (ps).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak
    }

    /// Size of the action-slot table. Slots are free-listed, so this is
    /// bounded by the peak queue depth, not the lifetime event count.
    pub fn action_slots(&self) -> usize {
        self.actions.len()
    }

    fn call<F: FnOnce(&mut dyn Primitive, &mut Ctx<'_>)>(&mut self, id: PrimId, f: F) {
        let mut prim = self.prims[id.0].take().expect("no reentrant prim calls");
        let mut ctx = Ctx {
            nodes: &self.nodes,
            slots: &mut self.slots,
            queue: &mut self.queue,
            actions: &mut self.actions,
            free: &mut self.free,
            seq: &mut self.seq,
            now: self.now,
            self_id: id,
        };
        f(prim.as_mut(), &mut ctx);
        self.prims[id.0] = Some(prim);
    }

    /// Initializes every primitive (call once before running).
    pub fn init(&mut self) {
        for i in 0..self.prims.len() {
            self.call(PrimId(i), |p, ctx| p.init(ctx));
        }
    }

    /// Runs until the condition holds, the queue drains, or `max_time` (ps)
    /// passes. Returns `true` if the condition was met.
    pub fn run_until<F: FnMut(&Sim) -> bool>(&mut self, mut done: F, max_time: Time) -> bool {
        if done(self) {
            return true;
        }
        while let Some((t, _, action_ix)) = self.queue.pop() {
            if t > max_time {
                self.now = t;
                return false;
            }
            self.now = t;
            self.events_processed += 1;
            let action = self.actions[action_ix as usize];
            self.free.push(action_ix);
            match action {
                Action::SetNode(node, value) => {
                    if self.nodes[node.0] == value {
                        continue;
                    }
                    self.nodes[node.0] = value;
                    if self.trace {
                        bmbe_obs::vlog!(
                            1,
                            "[{:>8}ps] {} <- {}",
                            t,
                            self.node_names[node.0],
                            value as u8
                        );
                        bmbe_obs::event!("sim.wire_change", node.0 as i64);
                    }
                    // Indexed delivery: the watcher lists are fixed once
                    // simulation starts (primitives cannot register new
                    // ones), so no defensive clone.
                    for i in 0..self.watchers[node.0].len() {
                        let w = self.watchers[node.0][i];
                        self.call(w, |p, ctx| p.on_change(ctx, node));
                    }
                }
                Action::Notify(prim, tag) => {
                    self.call(prim, |p, ctx| p.on_notify(ctx, tag));
                }
            }
            if done(self) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An inverter with delay, for engine smoke tests.
    struct Inv {
        input: NodeId,
        output: NodeId,
        delay: Time,
    }

    impl Primitive for Inv {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            let v = ctx.get(self.input);
            ctx.set_after(self.output, !v, self.delay);
        }
        fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
            let v = ctx.get(self.input);
            ctx.set_after(self.output, !v, self.delay);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let mut sim = Sim::new();
        let a = sim.node("a");
        let b = sim.node("b");
        let c = sim.node("c");
        sim.add_prim(
            Box::new(Inv {
                input: a,
                output: b,
                delay: 100,
            }),
            &[a],
        );
        sim.add_prim(
            Box::new(Inv {
                input: b,
                output: c,
                delay: 100,
            }),
            &[b],
        );
        sim.init();
        // after init: b = 1 (at t=100), c = !b ... settles: a=0,b=1,c=0.
        assert!(sim.run_until(|s| s.value(b) && !s.value(c) && s.now() >= 200, 10_000));
    }

    #[test]
    fn ring_oscillator_keeps_running_until_limit() {
        let mut sim = Sim::new();
        let a = sim.node("a");
        sim.add_prim(
            Box::new(Inv {
                input: a,
                output: a,
                delay: 50,
            }),
            &[a],
        );
        sim.init();
        let done = sim.run_until(|_| false, 1_000);
        assert!(!done);
        assert!(sim.events_processed >= 19);
    }

    #[test]
    fn action_slots_are_recycled() {
        // A ring oscillator processes one event per 50 ps with exactly one
        // event in flight; after hundreds of thousands of events the slot
        // table must still be O(peak depth), not O(events).
        let mut sim = Sim::new();
        let a = sim.node("a");
        sim.add_prim(
            Box::new(Inv {
                input: a,
                output: a,
                delay: 50,
            }),
            &[a],
        );
        sim.init();
        sim.run_until(|_| false, 10_000_000);
        assert!(sim.events_processed > 100_000);
        assert!(
            sim.action_slots() <= sim.peak_queue_depth(),
            "slots {} vs peak depth {}",
            sim.action_slots(),
            sim.peak_queue_depth()
        );
        assert!(sim.action_slots() < 16);
    }

    #[test]
    fn far_events_cascade_through_the_overflow_heap() {
        // Millisecond-scale delays, far longer than any gate delay, must
        // still fire in order.
        struct SlowInv {
            input: NodeId,
            output: NodeId,
        }
        impl Primitive for SlowInv {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_after(self.output, true, 1_000_000);
            }
            fn on_change(&mut self, ctx: &mut Ctx<'_>, _node: NodeId) {
                let v = ctx.get(self.input);
                ctx.set_after(self.output, !v, 3_000_000);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = Sim::new();
        let a = sim.node("a");
        sim.add_prim(Box::new(SlowInv { input: a, output: a }), &[a]);
        sim.init();
        let done = sim.run_until(|s| s.events_processed >= 5, 100_000_000);
        assert!(done);
        assert_eq!(sim.now(), 1_000_000 + 4 * 3_000_000);
    }

    #[test]
    fn named_nodes_are_shared() {
        let mut sim = Sim::new();
        let a1 = sim.node("x_r");
        let a2 = sim.node("x_r");
        assert_eq!(a1, a2);
        assert_eq!(sim.node_name(a1), "x_r");
    }

    #[test]
    fn slots_hold_data() {
        let mut sim = Sim::new();
        let s = sim.slot();
        assert_eq!(sim.slot_value(s), 0);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        // Records the order its own notifications and wire changes fire in.
        // `init` schedules, out of time order and with several ties:
        // notify 1 @100, set x @100, notify 2 @50, notify 3 @100,
        // set y @50. Ties at one time must fire FIFO.
        struct Log {
            x: NodeId,
            y: NodeId,
            fired: Vec<&'static str>,
        }
        impl Primitive for Log {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.notify_after(1, 100);
                ctx.set_after(self.x, true, 100);
                ctx.notify_after(2, 50);
                ctx.notify_after(3, 100);
                ctx.set_after(self.y, true, 50);
            }
            fn on_change(&mut self, ctx: &mut Ctx<'_>, node: NodeId) {
                self.fired.push(if node == self.x { "x" } else { "y" });
                if node == self.y {
                    // Scheduled at t=50 for t=100: after everything already
                    // due at 100.
                    ctx.notify_after(4, 50);
                }
            }
            fn on_notify(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.push(["", "n1", "n2", "n3", "n4"][tag as usize]);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = Sim::new();
        let x = sim.node("x");
        let y = sim.node("y");
        let id = sim.add_prim(
            Box::new(Log {
                x,
                y,
                fired: Vec::new(),
            }),
            &[x, y],
        );
        sim.init();
        assert!(!sim.run_until(|_| false, 1_000));
        let log = sim.prim::<Log>(id).expect("log prim");
        assert_eq!(log.fired, ["n2", "y", "n1", "x", "n3", "n4"]);
        assert_eq!(sim.now(), 100);
        assert_eq!(sim.peak_queue_depth(), 5);
        assert!(sim.action_slots() <= sim.peak_queue_depth());
    }
}
