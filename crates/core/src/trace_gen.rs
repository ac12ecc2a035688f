//! Trace-structure generation from CH programs, for the §4.3 verification.
//!
//! The paper verified Activation Channel Removal by translating the CH
//! programs to Petri nets, composing them in the AVER trace-theory verifier,
//! hiding the activation channel, and checking conformance equivalence
//! against the optimized program. Here the CH expansion itself is turned
//! directly into a Dill trace structure: every signal transition is a
//! symbol occurrence (the symbol is the wire name; polarity is implied by
//! position), choices branch, and gotos loop.

use crate::ast::ChExpr;
use crate::expand::{expand_linear, for_each_arm, ExpandError, Io, Item, Labels};
use bmbe_trace::{Dir, TraceStructure};

/// Errors raised during trace generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceGenError {
    /// Expansion failed.
    Expand(ExpandError),
    /// A goto referenced a label never bound.
    UndefinedLabel {
        /// The label id.
        label: usize,
    },
    /// A wire is both driven and received by the program, so it cannot be
    /// one symbol of the trace alphabet.
    DirectionConflict {
        /// The wire.
        signal: String,
    },
}

impl std::fmt::Display for TraceGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceGenError::Expand(e) => write!(f, "expansion failed: {e}"),
            TraceGenError::UndefinedLabel { label } => write!(f, "undefined label L{label}"),
            TraceGenError::DirectionConflict { signal } => {
                write!(f, "wire {signal} used as both input and output")
            }
        }
    }
}

impl std::error::Error for TraceGenError {}

impl From<ExpandError> for TraceGenError {
    fn from(e: ExpandError) -> Self {
        TraceGenError::Expand(e)
    }
}

/// Marks a wire the walk has not met yet.
const NONE: usize = usize::MAX;

/// Builds the trace structure of a CH program. Input transitions become
/// `Dir::Input` symbols (wire names), output transitions `Dir::Output`.
///
/// # Errors
///
/// See [`TraceGenError`].
pub fn trace_of(expr: &ChExpr) -> Result<TraceStructure, TraceGenError> {
    let (items, wires) = expand_linear(expr)?;
    let mut b = TraceBuilder {
        ts: TraceStructure::with_alphabet_capacity(wires.len()),
        symbol_of: vec![NONE; wires.len()],
        wires: &wires,
        labels: Labels::default(),
        pending_gotos: Vec::new(),
    };
    let start = b.ts.initial();
    b.walk(&[&items], Some(start))?;
    b.resolve()?;
    Ok(b.ts)
}

struct TraceBuilder<'e> {
    ts: TraceStructure,
    /// The symbol of each wire, [`NONE`] until the walk meets it.
    symbol_of: Vec<usize>,
    wires: &'e [String],
    labels: Labels<'e>,
    /// `(from_state, label)` pairs awaiting label resolution: the goto
    /// source is aliased to the label's state.
    pending_gotos: Vec<(usize, usize)>,
}

impl<'e> TraceBuilder<'e> {
    fn symbol(&mut self, wire: usize, dir: Dir) -> Result<usize, TraceGenError> {
        let sym = self.symbol_of[wire];
        if sym == NONE {
            let sym = self.ts.add_symbol(self.wires[wire].clone(), dir);
            self.symbol_of[wire] = sym;
            return Ok(sym);
        }
        if self.ts.symbols()[sym].1 != dir {
            return Err(TraceGenError::DirectionConflict {
                signal: self.wires[wire].clone(),
            });
        }
        Ok(sym)
    }

    /// Walks a stream given as consecutive segments of the linear form; a
    /// choice walks each arm followed by the (borrowed) rest of the stream.
    fn walk(&mut self, segs: &[&'e [Item]], mut cur: Option<usize>) -> Result<(), TraceGenError> {
        for (k, seg) in segs.iter().enumerate() {
            for (i, item) in seg.iter().enumerate() {
                match item {
                    Item::T(t) => {
                        let dir = if t.io == Io::In {
                            Dir::Input
                        } else {
                            Dir::Output
                        };
                        let sym = self.symbol(t.wire, dir)?;
                        if let Some(s) = cur {
                            // Every transition gets a fresh target state,
                            // even one a goto follows.
                            let next = self.ts.add_state();
                            self.ts.add_transition(s, sym, next);
                            cur = Some(next);
                        }
                    }
                    Item::Label(l) => {
                        match (self.labels.is_bound(*l), cur) {
                            (false, Some(s)) => self.labels.bind_state(*l, s),
                            (false, None) => self.labels.bind_continuation(*l, segs, k, i),
                            // Re-encountered label while live: alias the current
                            // state with the label's.
                            (true, Some(s)) => {
                                if self.labels.state(*l).is_some_and(|t| t != s) {
                                    self.pending_gotos.push((s, *l));
                                }
                            }
                            (true, None) => {}
                        }
                    }
                    Item::Goto(l) | Item::BGoto(l) => {
                        // The state *is* the label's state: since trace
                        // edges are per-transition, a goto simply continues
                        // at the label. Record for later merging.
                        if let Some(s) = cur.take() {
                            self.pending_gotos.push((s, *l));
                        }
                    }
                    Item::Choice(arms) => {
                        if let Some(s) = cur {
                            for_each_arm(segs, k, i, arms, |stream| self.walk(stream, Some(s)))?;
                        }
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolves label continuations and merges goto sources with label
    /// states by copying outgoing edges (trace automata tolerate the
    /// duplication; conformance checking is insensitive to it).
    fn resolve(&mut self) -> Result<(), TraceGenError> {
        // First force every referenced label to have a state. Gotos before
        // `scan` all reference resolved labels, which stay resolved.
        let mut scan = 0;
        while let Some(at) = (scan..self.pending_gotos.len())
            .find(|&g| self.labels.state(self.pending_gotos[g].1).is_none())
        {
            scan = at;
            let l = self.pending_gotos[at].1;
            let Some(segs) = self.labels.take_continuation(l) else {
                return Err(TraceGenError::UndefinedLabel { label: l });
            };
            let s = self.ts.add_state();
            self.labels.bind_state(l, s);
            self.walk(&segs, Some(s))?;
        }
        // Merge each goto source with its label state: copy the label
        // state's outgoing edges onto the source, iterating to a fixpoint so
        // chains of gotos settle.
        let pairs: Vec<(usize, usize)> = self
            .pending_gotos
            .iter()
            .map(|&(s, l)| (s, self.labels.state(l).expect("resolved above")))
            .collect();
        loop {
            let before = self.ts.num_transitions();
            for &(s, t) in &pairs {
                self.ts.copy_outgoing(t, s);
            }
            if self.ts.num_transitions() == before {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ChExpr, InterleaveOp::*};
    use crate::components::{call, sequencer};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ptop_trace_cycles() {
        let e = ChExpr::Rep(Box::new(ChExpr::passive("a")));
        let t = trace_of(&e).unwrap();
        assert!(t.accepts(&["a_r", "a_a", "a_r", "a_a", "a_r"]).unwrap());
        assert!(!t.accepts(&["a_a"]).unwrap());
    }

    #[test]
    fn sequencer_trace_follows_protocol() {
        let t = trace_of(&sequencer("p", &names(&["x", "y"]))).unwrap();
        assert!(t
            .accepts(&[
                "p_r", "x_r", "x_a", "x_r", "x_a", "y_r", "y_a", "y_r", "y_a", "p_a", "p_r", "p_a",
                "p_r"
            ])
            .unwrap());
        // y before x is not a trace.
        assert!(!t.accepts(&["p_r", "y_r"]).unwrap());
    }

    #[test]
    fn call_trace_offers_choice() {
        let t = trace_of(&call(&names(&["a1", "a2"]), "b")).unwrap();
        assert!(t
            .accepts(&["a1_r", "b_r", "b_a", "b_r", "b_a", "a1_a"])
            .unwrap());
        assert!(t
            .accepts(&["a2_r", "b_r", "b_a", "b_r", "b_a", "a2_a"])
            .unwrap());
    }

    #[test]
    fn directions_follow_io() {
        let t = trace_of(&sequencer("p", &names(&["x"]))).unwrap();
        let sym = |n: &str| {
            t.symbols()
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, d)| *d)
                .unwrap()
        };
        assert_eq!(sym("p_r"), bmbe_trace::Dir::Input);
        assert_eq!(sym("p_a"), bmbe_trace::Dir::Output);
        assert_eq!(sym("x_r"), bmbe_trace::Dir::Output);
        assert_eq!(sym("x_a"), bmbe_trace::Dir::Input);
    }

    /// Regression: a program that both drives and receives one wire used
    /// to panic inside `TraceStructure::add_symbol`; it is a typed error,
    /// as it already was for `compile_to_bm`.
    #[test]
    fn direction_conflict_is_a_typed_error() {
        let e = crate::parse::parse_ch(
            "(rep (enc-early (p-to-p passive p) \
             (seq (p-to-p active a) (p-to-p passive a))))",
        )
        .expect("reproducer parses");
        assert_eq!(
            trace_of(&e).unwrap_err(),
            TraceGenError::DirectionConflict {
                signal: "a_r".into()
            }
        );
        assert!(matches!(
            crate::compile::compile_to_bm("bad", &e),
            Err(crate::compile::CompileError::DirectionConflict { .. })
        ));
    }

    #[test]
    fn mutex_trace_has_both_arms() {
        let e = ChExpr::Rep(Box::new(ChExpr::op(
            Mutex,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        )));
        let t = trace_of(&e).unwrap();
        // Full four-phase handshakes: a then b, and b then a.
        assert!(t
            .accepts(&["a_r", "a_a", "a_r", "a_a", "b_r", "b_a", "b_r", "b_a"])
            .unwrap());
        assert!(t
            .accepts(&["b_r", "b_a", "b_r", "b_a", "a_r", "a_a", "a_r", "a_a"])
            .unwrap());
    }
}
