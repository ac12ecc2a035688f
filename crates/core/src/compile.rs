//! The CH-to-BMS compiler (§3.6 of the paper).
//!
//! A CH program is first expanded into the linear intermediate form (a list
//! of signal transitions with labels, gotos and choice markers), then
//! translated into a Burst-Mode specification: transitions are scanned in
//! order, accumulating an input burst followed by an output burst; a new
//! input transition after outputs closes the arc and opens a new state; a
//! goto closes the arc into the state bound to its label; a choice forks the
//! scan, compiling each alternative together with the continuation of the
//! program (which is how Fig. 4's merged controller gets its per-branch
//! return arcs).

use crate::ast::ChExpr;
use crate::expand::{expand_linear, for_each_arm, ExpandError, Io, Item, Labels};
use bmbe_bm::spec::{BmError, BmSpec, SignalDir};
use std::fmt;

/// Errors raised by CH-to-BMS compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Expansion failed.
    Expand(ExpandError),
    /// An output transition occurred with no triggering input burst.
    OutputWithoutTrigger {
        /// The output wire.
        signal: String,
    },
    /// The same wire appeared twice within one burst.
    SignalTwiceInBurst {
        /// The wire.
        signal: String,
    },
    /// A wire was used both as input and output.
    DirectionConflict {
        /// The wire.
        signal: String,
    },
    /// A goto referenced a label never bound.
    UndefinedLabel {
        /// The label id.
        label: usize,
    },
    /// The produced machine failed Burst-Mode validation.
    Bm(BmError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Expand(e) => write!(f, "expansion failed: {e}"),
            CompileError::OutputWithoutTrigger { signal } => {
                write!(f, "output {signal} has no triggering input burst")
            }
            CompileError::SignalTwiceInBurst { signal } => {
                write!(f, "wire {signal} occurs twice in one burst")
            }
            CompileError::DirectionConflict { signal } => {
                write!(f, "wire {signal} used as both input and output")
            }
            CompileError::UndefinedLabel { label } => write!(f, "undefined label L{label}"),
            CompileError::Bm(e) => write!(f, "produced machine is not a valid BM spec: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ExpandError> for CompileError {
    fn from(e: ExpandError) -> Self {
        CompileError::Expand(e)
    }
}

impl From<BmError> for CompileError {
    fn from(e: BmError) -> Self {
        CompileError::Bm(e)
    }
}

/// Compiles a CH expression into a validated Burst-Mode specification.
///
/// # Errors
///
/// See [`CompileError`].
///
/// # Examples
///
/// The sequencer of §3.4 compiles to the six-state machine of Fig. 3:
///
/// ```
/// use bmbe_core::ast::{ChExpr, InterleaveOp};
/// use bmbe_core::compile::compile_to_bm;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let seq = ChExpr::Rep(Box::new(ChExpr::op(
///     InterleaveOp::EncEarly,
///     ChExpr::passive("p"),
///     ChExpr::op(InterleaveOp::Seq, ChExpr::active("a1"), ChExpr::active("a2")),
/// )));
/// let spec = compile_to_bm("sequencer", &seq)?;
/// assert_eq!(spec.num_states(), 6);
/// # Ok(())
/// # }
/// ```
pub fn compile_to_bm(name: &str, expr: &ChExpr) -> Result<BmSpec, CompileError> {
    let (items, wires) = expand_linear(expr)?;
    // The names of the wires the machine uses move into its signal table.
    let mut b = Builder::new(wires, items.len());
    let start = b.fresh_state();
    b.walk(&[&items], Some(Cursor::at(start)))?;
    b.resolve_all()?;
    b.finish(name, start)
}

/// A burst: `(spec signal, rising)` pairs in arrival order.
type Burst = Vec<(usize, bool)>;

/// Marks an absent index: a wire the walk has not met yet, an unused
/// state, the end of an arc chain.
const NONE: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Cursor {
    state: usize,
    pin: Burst,
    pout: Burst,
}

impl Cursor {
    fn at(state: usize) -> Self {
        Cursor {
            state,
            pin: Vec::new(),
            pout: Vec::new(),
        }
    }

    fn at_boundary(&self) -> bool {
        self.pin.is_empty() && self.pout.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
enum ToRef {
    State(usize),
    Label(usize),
}

/// An arc whose bursts live in [`Builder::bursts`]: the input burst is
/// `bursts[at[0]..at[1]]`, the output burst `bursts[at[1]..at[2]]`.
#[derive(Debug)]
struct PendingArc {
    from: usize,
    to: ToRef,
    at: [usize; 3],
}

impl PendingArc {
    /// Whether both bursts are empty (a deferred state alias).
    fn is_alias(&self) -> bool {
        self.at[0] == self.at[2]
    }
}

struct Builder<'e> {
    wires: Vec<String>,
    /// The spec signal of each wire, [`NONE`] until the walk meets it.
    signal_of: Vec<usize>,
    /// Spec signals in order of first use: `(wire, direction)`.
    signals: Vec<(usize, SignalDir)>,
    num_states: usize,
    arcs: Vec<PendingArc>,
    /// The bursts of every pending arc, back to back.
    bursts: Burst,
    labels: Labels<'e>,
    /// Outputs that lead a label's continuation (a loop head that re-emits
    /// a request); appended to every arc entering that label. Indexed by
    /// label id.
    label_prefix: Vec<Burst>,
    merge_parent: Vec<usize>,
}

impl<'e> Builder<'e> {
    /// A builder sized for a stream of about `items` items (one arc and
    /// state per few transitions; choice forks may walk some twice).
    fn new(wires: Vec<String>, items: usize) -> Self {
        Builder {
            signal_of: vec![NONE; wires.len()],
            signals: Vec::with_capacity(wires.len()),
            wires,
            num_states: 0,
            arcs: Vec::with_capacity(items / 2),
            bursts: Vec::with_capacity(items),
            labels: Labels::default(),
            label_prefix: Vec::new(),
            merge_parent: Vec::with_capacity(items / 2),
        }
    }

    fn fresh_state(&mut self) -> usize {
        self.num_states += 1;
        self.merge_parent.push(self.num_states - 1);
        self.num_states - 1
    }

    fn find(&mut self, s: usize) -> usize {
        if self.merge_parent[s] != s {
            let root = self.find(self.merge_parent[s]);
            self.merge_parent[s] = root;
            root
        } else {
            s
        }
    }

    fn merge(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.merge_parent[ra.max(rb)] = ra.min(rb);
        }
    }

    fn intern(&mut self, wire: usize, dir: SignalDir) -> Result<usize, CompileError> {
        let sig = self.signal_of[wire];
        if sig != NONE {
            if self.signals[sig].1 != dir {
                return Err(CompileError::DirectionConflict {
                    signal: self.wires[wire].clone(),
                });
            }
            return Ok(sig);
        }
        let sig = self.signals.len();
        self.signals.push((wire, dir));
        self.signal_of[wire] = sig;
        Ok(sig)
    }

    fn close_arc(&mut self, from: usize, to: ToRef, pin: &[(usize, bool)], pout: &[(usize, bool)]) {
        let start = self.bursts.len();
        self.bursts.extend_from_slice(pin);
        let mid = self.bursts.len();
        self.bursts.extend_from_slice(pout);
        self.arcs.push(PendingArc {
            from,
            to,
            at: [start, mid, self.bursts.len()],
        });
    }

    /// Closes the cursor's pending arc into a fresh state and moves the
    /// cursor there, keeping its burst buffers for the next arc.
    fn advance(&mut self, c: &mut Cursor) {
        let next = self.fresh_state();
        self.close_arc(c.state, ToRef::State(next), &c.pin, &c.pout);
        c.pin.clear();
        c.pout.clear();
        c.state = next;
    }

    /// Compiles a stream given as consecutive segments of the linear form.
    /// A choice forks the walk: each arm is compiled followed by the rest of
    /// the stream, borrowed rather than copied.
    fn walk(&mut self, segs: &[&'e [Item]], mut cur: Option<Cursor>) -> Result<(), CompileError> {
        for (k, seg) in segs.iter().enumerate() {
            for (i, item) in seg.iter().enumerate() {
                match item {
                    Item::T(t) => {
                        let dir = match t.io {
                            Io::In => SignalDir::Input,
                            Io::Out => SignalDir::Output,
                        };
                        let sig = self.intern(t.wire, dir)?;
                        if let Some(c) = cur.as_mut() {
                            match t.io {
                                Io::In => {
                                    if !c.pout.is_empty() {
                                        // Close the arc into a fresh state.
                                        self.advance(c);
                                    }
                                    if c.pin.iter().any(|&(s, _)| s == sig) {
                                        return Err(CompileError::SignalTwiceInBurst {
                                            signal: self.wires[t.wire].clone(),
                                        });
                                    }
                                    c.pin.push((sig, t.rising));
                                }
                                Io::Out => {
                                    if c.pin.is_empty() {
                                        return Err(CompileError::OutputWithoutTrigger {
                                            signal: self.wires[t.wire].clone(),
                                        });
                                    }
                                    if c.pout.iter().any(|&(s, _)| s == sig) {
                                        return Err(CompileError::SignalTwiceInBurst {
                                            signal: self.wires[t.wire].clone(),
                                        });
                                    }
                                    c.pout.push((sig, t.rising));
                                }
                            }
                        }
                    }
                    Item::Label(l) => {
                        if !self.labels.is_bound(*l) {
                            match &cur {
                                Some(c) if c.at_boundary() => self.labels.bind_state(*l, c.state),
                                _ => self.labels.bind_continuation(*l, segs, k, i),
                            }
                        }
                    }
                    Item::Goto(l) | Item::BGoto(l) => {
                        if let Some(c) = cur.take() {
                            if c.at_boundary() {
                                // At a state boundary: the jump aliases states.
                                match self.labels.state(*l) {
                                    Some(s) => self.merge(c.state, s),
                                    // An empty-burst arc is not representable;
                                    // defer the alias to label resolution.
                                    None => self.close_arc(c.state, ToRef::Label(*l), &[], &[]),
                                }
                            } else {
                                self.close_arc(c.state, ToRef::Label(*l), &c.pin, &c.pout);
                            }
                        }
                    }
                    Item::Choice(arms) => {
                        if let Some(mut c) = cur.take() {
                            // With outputs already emitted the current arc is
                            // committed: close it into one shared state and let
                            // the arms' input bursts resolve the choice there
                            // (the mux-ack case). With only inputs pending the
                            // arms' first inputs join the accumulating burst
                            // per branch (the decision-wait case, Fig. 4).
                            if !c.pout.is_empty() {
                                self.advance(&mut c);
                            }
                            for_each_arm(segs, k, i, arms, |stream| {
                                self.walk(stream, Some(c.clone()))
                            })?;
                        }
                        return Ok(());
                    }
                }
            }
        }
        // End of stream with pending work: close into a terminal state.
        if let Some(mut c) = cur {
            if !c.at_boundary() {
                self.advance(&mut c);
            }
        }
        Ok(())
    }

    /// Resolves every label referenced by an arc, compiling label
    /// continuations on demand (this is where loop-head states entered
    /// "fresh" from a goto get their own arcs).
    fn resolve_all(&mut self) -> Result<(), CompileError> {
        // Arcs before `scan` all point at resolved labels, and a resolved
        // label stays resolved, so each search resumes where the last ended.
        let mut scan = 0;
        while let Some(at) = (scan..self.arcs.len()).find(|&ai| match self.arcs[ai].to {
            ToRef::Label(l) => self.labels.state(l).is_none(),
            ToRef::State(_) => false,
        }) {
            scan = at;
            let ToRef::Label(l) = self.arcs[at].to else {
                unreachable!("found a label arc")
            };
            let Some(mut segs) = self.labels.take_continuation(l) else {
                return Err(CompileError::UndefinedLabel { label: l });
            };
            // Leading output transitions of a loop-head continuation
            // belong to the arcs that *enter* the label.
            let mut prefix = Burst::new();
            segs.retain(|s| !s.is_empty());
            while let Some(seg) = segs.first().copied() {
                let Some((Item::T(t), tail)) = seg.split_first() else {
                    break;
                };
                if t.io != Io::Out {
                    break;
                }
                prefix.push((self.intern(t.wire, SignalDir::Output)?, t.rising));
                if tail.is_empty() {
                    segs.remove(0);
                } else {
                    segs[0] = tail;
                }
            }
            if !prefix.is_empty() {
                if self.label_prefix.len() <= l {
                    self.label_prefix.resize_with(l + 1, Vec::new);
                }
                self.label_prefix[l] = prefix;
            }
            let s = self.fresh_state();
            self.labels.bind_state(l, s);
            self.walk(&segs, Some(Cursor::at(s)))?;
        }
        // Apply state aliases created by empty-burst gotos to labels.
        for ai in 0..self.arcs.len() {
            let arc = &self.arcs[ai];
            if arc.is_alias() {
                let (from, to) = (arc.from, self.target(arc.to)?);
                self.merge(from, to);
            }
        }
        self.arcs.retain(|arc| !arc.is_alias());
        Ok(())
    }

    /// The state an arc enters.
    fn target(&self, to: ToRef) -> Result<usize, CompileError> {
        match to {
            ToRef::State(s) => Ok(s),
            ToRef::Label(l) => self
                .labels
                .state(l)
                .ok_or(CompileError::UndefinedLabel { label: l }),
        }
    }

    fn finish(mut self, name: &str, start: usize) -> Result<BmSpec, CompileError> {
        let mut spec = BmSpec::new(name);
        for &(wire, dir) in &self.signals {
            spec.add_signal(std::mem::take(&mut self.wires[wire]), dir);
        }
        // Remap states through the union-find, compacting to 0..n and
        // keeping only states that are sources/destinations of arcs (or
        // start), in state order.
        let roots: Vec<usize> = (0..self.num_states).map(|s| self.find(s)).collect();
        let mut used = vec![false; self.num_states];
        used[roots[start]] = true;
        for arc in &self.arcs {
            used[roots[arc.from]] = true;
            used[roots[self.target(arc.to)?]] = true;
        }
        let compact: Vec<usize> = used
            .iter()
            .map(|&u| if u { spec.add_state() } else { NONE })
            .collect();
        spec.set_initial(compact[roots[start]]);
        // Identical arcs (the same fork compiled twice) are emitted once;
        // candidates are found through a per-source-state chain.
        let mut first_from = vec![NONE; spec.num_states()];
        let mut next_from: Vec<usize> = Vec::with_capacity(self.arcs.len());
        let (mut pin, mut pout) = (Burst::new(), Burst::new());
        for &PendingArc { from, to, at } in &self.arcs {
            pin.clear();
            pin.extend_from_slice(&self.bursts[at[0]..at[1]]);
            pout.clear();
            pout.extend_from_slice(&self.bursts[at[1]..at[2]]);
            if let ToRef::Label(l) = to {
                for &(sig, rising) in self.label_prefix.get(l).map_or(&[][..], Vec::as_slice) {
                    if pout.iter().any(|&(s2, _)| s2 == sig) {
                        return Err(CompileError::SignalTwiceInBurst {
                            signal: spec.signals()[sig].name.clone(),
                        });
                    }
                    pout.push((sig, rising));
                }
            }
            let f = compact[roots[from]];
            let t = compact[roots[self.target(to)?]];
            pin.sort_unstable();
            pout.sort_unstable();
            let same = |ai: usize| {
                let a = &spec.arcs()[ai];
                a.to == t
                    && a.inputs
                        .iter()
                        .map(|e| (e.signal, e.rising))
                        .eq(pin.iter().copied())
                    && a.outputs
                        .iter()
                        .map(|e| (e.signal, e.rising))
                        .eq(pout.iter().copied())
            };
            let mut ai = first_from[f];
            while ai != NONE && !same(ai) {
                ai = next_from[ai];
            }
            if ai != NONE {
                continue;
            }
            let id = spec.add_arc(f, t, &pin, &pout);
            next_from.push(first_from[f]);
            first_from[f] = id;
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ChExpr, InterleaveOp::*};

    fn rep(e: ChExpr) -> ChExpr {
        ChExpr::Rep(Box::new(e))
    }

    /// §3.4 sequencer.
    fn sequencer() -> ChExpr {
        rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("p"),
            ChExpr::op(Seq, ChExpr::active("a1"), ChExpr::active("a2")),
        ))
    }

    /// §3.4 call module.
    fn call() -> ChExpr {
        rep(ChExpr::op(
            Mutex,
            ChExpr::op(EncEarly, ChExpr::passive("a1"), ChExpr::active("b")),
            ChExpr::op(EncEarly, ChExpr::passive("a2"), ChExpr::active("b")),
        ))
    }

    /// §3.4 passivator.
    fn passivator() -> ChExpr {
        rep(ChExpr::op(
            EncMiddle,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        ))
    }

    #[test]
    fn sequencer_matches_fig3() {
        let spec = compile_to_bm("sequencer", &sequencer()).unwrap();
        assert_eq!(spec.num_states(), 6, "{spec}");
        assert_eq!(spec.arcs().len(), 6);
        // First arc: p_r+ / a1_r+.
        let text = spec.to_string();
        assert!(text.contains("p_r+ | a1_r+"), "{text}");
    }

    #[test]
    fn call_matches_fig3() {
        let spec = compile_to_bm("call", &call()).unwrap();
        assert_eq!(spec.num_states(), 7, "{spec}");
        assert_eq!(spec.arcs().len(), 8);
    }

    #[test]
    fn passivator_matches_fig3() {
        let spec = compile_to_bm("passivator", &passivator()).unwrap();
        assert_eq!(spec.num_states(), 2, "{spec}");
        assert_eq!(spec.arcs().len(), 2);
        let text = spec.to_string();
        assert!(text.contains("a_r+ b_r+"), "{text}");
    }

    #[test]
    fn decision_wait_compiles() {
        // §4.1's decision-wait.
        let dw = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("a1"),
            ChExpr::op(
                Mutex,
                ChExpr::op(EncEarly, ChExpr::passive("i1"), ChExpr::active("o1")),
                ChExpr::op(EncEarly, ChExpr::passive("i2"), ChExpr::active("o2")),
            ),
        ));
        let spec = compile_to_bm("dw", &dw).unwrap();
        // Fig. 4 left: 9 states (0..8).
        assert_eq!(spec.num_states(), 9, "{spec}");
        // Both branch bursts pair the activation with the sampled input.
        let text = spec.to_string();
        assert!(text.contains("a1_r+ i1_r+ | o1_r+"), "{text}");
        assert!(text.contains("a1_r+ i2_r+ | o2_r+"), "{text}");
    }

    #[test]
    fn merged_component_matches_fig4() {
        // §4.1 result: decision-wait with the sequencer inlined over o2.
        let merged = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("a1"),
            ChExpr::op(
                Mutex,
                ChExpr::op(EncEarly, ChExpr::passive("i1"), ChExpr::active("o1")),
                ChExpr::op(
                    EncEarly,
                    ChExpr::passive("i2"),
                    ChExpr::op(
                        EncEarly,
                        ChExpr::Void,
                        ChExpr::op(Seq, ChExpr::active("c1"), ChExpr::active("c2")),
                    ),
                ),
            ),
        ));
        let spec = compile_to_bm("merged", &merged).unwrap();
        // Fig. 4 right: 11 states (0..10).
        assert_eq!(spec.num_states(), 11, "{spec}");
        let text = spec.to_string();
        assert!(text.contains("a1_r+ i2_r+ | c1_r+"), "{text}");
    }

    #[test]
    fn call_distribution_result_matches_fig5() {
        // §4.2 result: sequencer with both call fragments inlined.
        let merged = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("a"),
            ChExpr::op(
                Seq,
                ChExpr::op(EncEarly, ChExpr::Void, ChExpr::active("c")),
                ChExpr::op(EncEarly, ChExpr::Void, ChExpr::active("c")),
            ),
        ));
        let spec = compile_to_bm("result", &merged).unwrap();
        // Fig. 5 right: 6 states.
        assert_eq!(spec.num_states(), 6, "{spec}");
        let text = spec.to_string();
        assert!(text.contains("a_r+ | c_r+"), "{text}");
    }

    #[test]
    fn loop_component_first_iteration_differs() {
        // (enc-early (p-to-p passive a) (rep (p-to-p active b))):
        // the Balsa loop. First burst includes a_r+; later iterations don't.
        let lp = ChExpr::op(EncEarly, ChExpr::passive("a"), rep(ChExpr::active("b")));
        let spec = compile_to_bm("loop", &lp).unwrap();
        let text = spec.to_string();
        assert!(text.contains("a_r+ | b_r+"), "{text}");
        // The steady-state loop: b_a- / b_r+ back to the loop head.
        assert!(text.contains("b_a- | b_r+"), "{text}");
        spec.validate().unwrap();
    }

    #[test]
    fn output_without_trigger_rejected() {
        // A bare active channel emits b_r+ with no input trigger.
        let e = rep(ChExpr::active("b"));
        assert!(matches!(
            compile_to_bm("bad", &e),
            Err(CompileError::OutputWithoutTrigger { .. })
        ));
    }

    #[test]
    fn direction_conflict_rejected() {
        // Same channel passive and active in one program.
        let e = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("x"),
            ChExpr::active("x"),
        ));
        assert!(matches!(
            compile_to_bm("bad", &e),
            Err(CompileError::DirectionConflict { .. })
        ));
    }

    #[test]
    fn mult_ack_passive_compiles() {
        let e = rep(ChExpr::op(
            EncEarly,
            ChExpr::MultAck {
                activity: crate::ast::ChActivity::Passive,
                name: "m".into(),
                n: 2,
            },
            ChExpr::active("b"),
        ));
        let spec = compile_to_bm("fork_like", &e).unwrap();
        spec.validate().unwrap();
        let text = spec.to_string();
        assert!(text.contains("m_a0+ m_a1+"), "{text}");
    }

    #[test]
    fn mux_req_compiles_like_call() {
        // A mux-req with two enc-early arms behaves like a 2-way call.
        let e = rep(ChExpr::MuxReq {
            name: "m".into(),
            arms: vec![
                (EncEarly, ChExpr::active("b")),
                (EncEarly, ChExpr::active("b")),
            ],
        });
        let spec = compile_to_bm("muxreq", &e).unwrap();
        assert_eq!(spec.num_states(), 7, "{spec}");
    }

    #[test]
    fn break_exits_loop() {
        // rep(enc-early p (rep (mutex (enc-early go w) (seq stop break)))):
        // the inner loop serves `go` requests until a full handshake on
        // `stop` breaks out, after which the enclosing handshake on `p`
        // completes.
        let e = rep(ChExpr::op(
            EncEarly,
            ChExpr::passive("p"),
            rep(ChExpr::op(
                Mutex,
                ChExpr::op(EncEarly, ChExpr::passive("go"), ChExpr::active("w")),
                ChExpr::op(Seq, ChExpr::passive("stop"), ChExpr::Break),
            )),
        ));
        let spec = compile_to_bm("breaker", &e).unwrap();
        spec.validate().unwrap();
        let text = spec.to_string();
        // After the stop handshake the machine must produce p_a+ (the
        // post-loop continuation).
        assert!(text.contains("p_a+"), "{text}");
        // The go path must loop: serving w repeatedly.
        assert!(text.contains("go_r+"), "{text}");
    }
}
