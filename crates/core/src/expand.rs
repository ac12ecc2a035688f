//! Four-phase handshake expansion of CH expressions (§3 and Table 2).
//!
//! Every CH expression denotes an *expansion*: four "higher-level" atomic
//! events, each a list of items — signal transitions, loop labels/gotos, and
//! external-choice branches. Interleaving operators combine the four events
//! of their arguments exactly per Table 2 of the paper; `rep`/`break` insert
//! the label/goto machinery of §3.2; the mux channels insert `choice`.
//!
//! Wire names are interned once per expansion: a transition carries the
//! index of its wire in [`Expansion::wires`], so the walkers downstream
//! (the CH→BMS compiler and trace generation) compare and look up wires by
//! integer, and each distinct name is formatted exactly once.

use crate::ast::{ChActivity, ChExpr, InterleaveOp};
use bmbe_trace::fxhash::{hash_of, HashIndex};
use std::fmt::{self, Write};

/// Direction of a transition relative to the component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Io {
    /// Received from the environment.
    In,
    /// Driven by the component.
    Out,
}

/// A single signal transition on an interned wire, e.g. `(o a_r +)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Trans {
    /// Input or output.
    pub io: Io,
    /// Index of the wire in the expansion's [`Expansion::wires`] table.
    pub wire: usize,
    /// Rising (`+`) or falling (`-`).
    pub rising: bool,
}

/// A transition with its wire name resolved, as listed by
/// [`Expansion::transitions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition<'a> {
    /// Input or output.
    pub io: Io,
    /// Wire name (e.g. `a_r`).
    pub signal: &'a str,
    /// Rising (`+`) or falling (`-`).
    pub rising: bool,
}

/// One item of an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A signal transition.
    T(Trans),
    /// A loop-head (or loop-exit) label.
    Label(usize),
    /// Jump back to a label (loop).
    Goto(usize),
    /// Jump out of the innermost loop (`break`).
    BGoto(usize),
    /// External mutually exclusive choice between linearized alternatives.
    Choice(Vec<Vec<Item>>),
}

/// The four-event expansion of a CH expression.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Expansion {
    /// The four atomic events.
    pub events: [Vec<Item>; 4],
    /// Wire names, indexed by [`Trans::wire`], in order of first
    /// appearance during expansion.
    pub wires: Vec<String>,
}

impl Expansion {
    /// Concatenates the four events into the linear intermediate form of
    /// §3.6, returned together with the wire table its transitions index.
    pub fn into_linear(self) -> (Vec<Item>, Vec<String>) {
        let [mut a, b, c, d] = self.events;
        a.reserve(b.len() + c.len() + d.len());
        a.extend(b);
        a.extend(c);
        a.extend(d);
        (a, self.wires)
    }

    /// The transitions of the expansion in linear order, descending into
    /// choices.
    pub fn transitions(&self) -> Vec<Transition<'_>> {
        fn walk<'a>(items: &[Item], wires: &'a [String], out: &mut Vec<Transition<'a>>) {
            for item in items {
                match item {
                    Item::T(t) => out.push(Transition {
                        io: t.io,
                        signal: &wires[t.wire],
                        rising: t.rising,
                    }),
                    Item::Choice(arms) => {
                        for arm in arms {
                            walk(arm, wires, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        for e in &self.events {
            walk(e, &self.wires, &mut out);
        }
        out
    }
}

impl fmt::Display for Expansion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            write!(f, "[")?;
            let mut first = true;
            for item in e {
                if !first {
                    write!(f, " ")?;
                }
                first = false;
                match item {
                    Item::T(t) => write!(
                        f,
                        "({} {} {})",
                        if t.io == Io::In { "i" } else { "o" },
                        self.wires[t.wire],
                        if t.rising { "+" } else { "-" }
                    )?,
                    Item::Label(l) => write!(f, "(label L{l})")?,
                    Item::Goto(l) => write!(f, "(goto L{l})")?,
                    Item::BGoto(l) => write!(f, "(bgoto L{l})")?,
                    Item::Choice(arms) => write!(f, "(choice #{} arms)", arms.len())?,
                }
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Errors raised during expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// `break` used outside any `rep`.
    BreakOutsideLoop,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::BreakOutsideLoop => write!(f, "break used outside of a rep loop"),
        }
    }
}

impl std::error::Error for ExpandError {}

/// Expands a CH expression into its four-phase expansion.
///
/// # Errors
///
/// Returns [`ExpandError::BreakOutsideLoop`] when a `break` has no
/// enclosing `rep`.
pub fn expand(expr: &ChExpr) -> Result<Expansion, ExpandError> {
    let mut ctx = Ctx::new();
    let chains = ctx.expand(expr)?;
    Ok(Expansion {
        events: chains.map(|c| ctx.flatten(c)),
        wires: ctx.wires,
    })
}

/// Expands straight to the linear intermediate form and its wire table
/// (what [`Expansion::into_linear`] returns, without the per-event lists).
pub(crate) fn expand_linear(expr: &ChExpr) -> Result<(Vec<Item>, Vec<String>), ExpandError> {
    let mut ctx = Ctx::new();
    let chains = ctx.expand(expr)?;
    let linear = ctx.linear(chains);
    Ok((ctx.flatten(linear), ctx.wires))
}

// The walkers over the linear form (the CH→BMS compiler and trace
// generation) take a stream as consecutive segments of it, so a label
// continuation or a choice arm followed by the rest of the program borrows
// the linear form instead of copying its tail.

/// The rest of a stream given as segments, after item `i` of segment `k`.
fn rest_after<'e>(segs: &[&'e [Item]], k: usize, i: usize) -> Vec<&'e [Item]> {
    let mut rest = Vec::with_capacity(segs.len() - k + 1);
    rest.push(&segs[k][i..]);
    rest.extend_from_slice(&segs[k + 1..]);
    rest
}

/// Walks each arm of the choice at item `i` of segment `k`: `walk` gets
/// the arm followed by the rest of the stream after the choice.
pub(crate) fn for_each_arm<'e, E>(
    segs: &[&'e [Item]],
    k: usize,
    i: usize,
    arms: &'e [Vec<Item>],
    mut walk: impl FnMut(&[&'e [Item]]) -> Result<(), E>,
) -> Result<(), E> {
    let mut stream = Vec::with_capacity(segs.len() - k + 2);
    stream.push(&[][..]);
    stream.push(&segs[k][i + 1..]);
    stream.extend_from_slice(&segs[k + 1..]);
    for arm in arms {
        stream[0] = arm;
        walk(&stream)?;
    }
    Ok(())
}

/// What a label stands for in a walker's output: a state, or the
/// not-yet-walked rest of the stream after the label.
#[derive(Debug)]
enum Binding<'e> {
    State(usize),
    Continuation(Vec<&'e [Item]>),
}

/// A walker's label table, indexed by label id.
#[derive(Debug, Default)]
pub(crate) struct Labels<'e> {
    slots: Vec<Option<Binding<'e>>>,
}

impl<'e> Labels<'e> {
    /// Whether label `l` has been bound (to a state or a continuation).
    pub(crate) fn is_bound(&self, l: usize) -> bool {
        self.slots.get(l).is_some_and(Option::is_some)
    }

    /// The state label `l` is bound to, if it is bound to one.
    pub(crate) fn state(&self, l: usize) -> Option<usize> {
        match self.slots.get(l) {
            Some(Some(Binding::State(s))) => Some(*s),
            _ => None,
        }
    }

    /// Binds label `l` to a state.
    pub(crate) fn bind_state(&mut self, l: usize, state: usize) {
        self.bind(l, Binding::State(state));
    }

    /// Binds label `l`, found at item `i` of segment `k`, to the stream
    /// after it.
    pub(crate) fn bind_continuation(&mut self, l: usize, segs: &[&'e [Item]], k: usize, i: usize) {
        self.bind(l, Binding::Continuation(rest_after(segs, k, i + 1)));
    }

    fn bind(&mut self, l: usize, binding: Binding<'e>) {
        if self.slots.len() <= l {
            self.slots.resize_with(l + 1, || None);
        }
        self.slots[l] = Some(binding);
    }

    /// Takes the continuation of label `l`, which has no state yet, to
    /// walk it; `None` when `l` was never bound.
    pub(crate) fn take_continuation(&mut self, l: usize) -> Option<Vec<&'e [Item]>> {
        match self.slots.get_mut(l).and_then(Option::take) {
            Some(Binding::Continuation(segs)) => Some(segs),
            _ => None,
        }
    }
}

/// The end of a chain.
const NIL: u32 = u32::MAX;

/// A list of arena nodes. Chains concatenate by relinking in O(1), so an
/// item is written once however deeply its operators nest (copying event
/// lists would move it once per enclosing operator). Every chain is
/// consumed exactly once — Table 2 places each argument event once — so
/// relinking never corrupts another chain.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// The four events of an expansion under construction.
type Chains = [Chain; 4];

/// An item in the arena: choices hold their arms as chains.
#[derive(Debug)]
enum Piece {
    Item(Item),
    Choice(Vec<Chain>),
}

#[derive(Debug)]
struct Node {
    piece: Piece,
    next: u32,
}

struct Ctx {
    next_label: usize,
    loop_exits: Vec<usize>,
    wires: Vec<String>,
    wire_ix: HashIndex,
    /// Scratch buffer the next wire name is formatted into.
    name: String,
    nodes: Vec<Node>,
}

impl Ctx {
    /// A context sized for a typical component (a few dozen transitions
    /// over a dozen wires), so small expansions never regrow a buffer.
    fn new() -> Self {
        Ctx {
            next_label: 0,
            loop_exits: Vec::new(),
            wires: Vec::with_capacity(16),
            wire_ix: HashIndex::with_capacity(16),
            name: String::with_capacity(32),
            nodes: Vec::with_capacity(64),
        }
    }

    fn fresh_label(&mut self) -> usize {
        self.next_label += 1;
        self.next_label - 1
    }

    /// Interns the wire `{channel}{suffix}{index}`, formatting its name only
    /// the first time it is seen.
    fn wire(&mut self, channel: &str, suffix: &str, index: Option<usize>) -> usize {
        self.name.clear();
        self.name.push_str(channel);
        self.name.push_str(suffix);
        if let Some(i) = index {
            write!(self.name, "{i}").expect("writing to a String cannot fail");
        }
        let hash = hash_of(self.name.as_str());
        if let Some(w) = self.wire_ix.find(hash, |w| self.wires[w] == self.name) {
            return w;
        }
        self.wires.push(self.name.clone());
        self.wire_ix.insert(hash)
    }

    fn piece(&mut self, piece: Piece) -> Chain {
        let at = u32::try_from(self.nodes.len()).expect("expansion fits a u32 arena");
        self.nodes.push(Node { piece, next: NIL });
        Chain {
            head: at,
            tail: at,
            len: 1,
        }
    }

    fn item(&mut self, item: Item) -> Chain {
        self.piece(Piece::Item(item))
    }

    fn trans(&mut self, io: Io, wire: usize, rising: bool) -> Chain {
        self.item(Item::T(Trans { io, wire, rising }))
    }

    /// Concatenates chains in order.
    fn cat<const N: usize>(&mut self, parts: [Chain; N]) -> Chain {
        let mut out = Chain::EMPTY;
        for p in parts {
            if p.head == NIL {
                continue;
            }
            if out.head == NIL {
                out = p;
            } else {
                self.nodes[out.tail as usize].next = p.head;
                out.tail = p.tail;
                out.len += p.len;
            }
        }
        out
    }

    /// The four events in sequence: the linear form of §3.6.
    fn linear(&mut self, events: Chains) -> Chain {
        self.cat(events)
    }

    /// Copies a chain out of the arena as a list of items.
    fn flatten(&self, chain: Chain) -> Vec<Item> {
        let mut out = Vec::with_capacity(chain.len as usize);
        let mut at = chain.head;
        while at != NIL {
            let node = &self.nodes[at as usize];
            out.push(match &node.piece {
                Piece::Item(item) => item.clone(),
                Piece::Choice(arms) => {
                    Item::Choice(arms.iter().map(|&a| self.flatten(a)).collect())
                }
            });
            if at == chain.tail {
                break;
            }
            at = node.next;
        }
        out
    }

    fn expand(&mut self, expr: &ChExpr) -> Result<Chains, ExpandError> {
        match expr {
            ChExpr::PToP { activity, name } => Ok(self.ptop(name, *activity)),
            ChExpr::MultAck { activity, name, n } => Ok(self.mult_ack(name, *activity, *n)),
            ChExpr::MultReq { activity, name, n } => Ok(self.mult_req(name, *activity, *n)),
            ChExpr::Void => Ok([Chain::EMPTY; 4]),
            ChExpr::Verb { events, .. } => {
                let mut out = [Chain::EMPTY; 4];
                for (i, ev) in events.iter().enumerate() {
                    for t in ev {
                        let io = if t.out { Io::Out } else { Io::In };
                        let wire = self.wire(&t.signal, "", None);
                        let one = self.trans(io, wire, t.rising);
                        out[i] = self.cat([out[i], one]);
                    }
                }
                Ok(out)
            }
            ChExpr::Rep(inner) => {
                let head = self.fresh_label();
                let exit = self.fresh_label();
                self.loop_exits.push(exit);
                let body = self.expand(inner)?;
                self.loop_exits.pop();
                let body = self.linear(body);
                let label = self.item(Item::Label(head));
                let goto = self.item(Item::Goto(head));
                let out = self.item(Item::Label(exit));
                Ok(first_only(self.cat([label, body, goto, out])))
            }
            ChExpr::Break => {
                let exit = *self
                    .loop_exits
                    .last()
                    .ok_or(ExpandError::BreakOutsideLoop)?;
                Ok(first_only(self.item(Item::BGoto(exit))))
            }
            ChExpr::MuxAck { name, arms } => {
                let req = self.wire(name, "_r", None);
                let mut compiled_arms = Vec::with_capacity(arms.len());
                for (i, (op, arg)) in arms.iter().enumerate() {
                    // The virtual channel: ack on wire i, shared return-to-
                    // zero of the request; the r+ is hoisted out in front of
                    // the choice.
                    let ack = self.wire(name, "_a", Some(i));
                    let vchan = [
                        Chain::EMPTY,
                        self.trans(Io::In, ack, true),
                        self.trans(Io::Out, req, false),
                        self.trans(Io::In, ack, false),
                    ];
                    let arg_exp = self.expand(arg)?;
                    let combined = self.combine(*op, vchan, ChActivity::Active, arg_exp);
                    compiled_arms.push(self.linear(combined));
                }
                let r_up = self.trans(Io::Out, req, true);
                let choice = self.piece(Piece::Choice(compiled_arms));
                Ok(first_only(self.cat([r_up, choice])))
            }
            ChExpr::MuxReq { name, arms } => {
                let mut compiled_arms = Vec::with_capacity(arms.len());
                for (i, (op, arg)) in arms.iter().enumerate() {
                    let req = self.wire(name, "_r", Some(i));
                    let ack = self.wire(name, "_a", None);
                    let vchan = [
                        self.trans(Io::In, req, true),
                        self.trans(Io::Out, ack, true),
                        self.trans(Io::In, req, false),
                        self.trans(Io::Out, ack, false),
                    ];
                    let arg_exp = self.expand(arg)?;
                    let combined = self.combine(*op, vchan, ChActivity::Passive, arg_exp);
                    compiled_arms.push(self.linear(combined));
                }
                Ok(first_only(self.piece(Piece::Choice(compiled_arms))))
            }
            ChExpr::Op { op, a, b } => {
                let ea = self.expand(a)?;
                let eb = self.expand(b)?;
                Ok(self.combine(*op, ea, a.activity(), eb))
            }
        }
    }

    fn ptop(&mut self, name: &str, activity: ChActivity) -> Chains {
        let (req_io, ack_io) = handshake_dirs(activity);
        let req = self.wire(name, "_r", None);
        let ack = self.wire(name, "_a", None);
        [
            self.trans(req_io, req, true),
            self.trans(ack_io, ack, true),
            self.trans(req_io, req, false),
            self.trans(ack_io, ack, false),
        ]
    }

    fn mult_ack(&mut self, name: &str, activity: ChActivity, n: usize) -> Chains {
        let (req_io, ack_io) = handshake_dirs(activity);
        let req = self.wire(name, "_r", None);
        let acks: Vec<usize> = (0..n).map(|i| self.wire(name, "_a", Some(i))).collect();
        [
            self.trans(req_io, req, true),
            self.burst(ack_io, &acks, true),
            self.trans(req_io, req, false),
            self.burst(ack_io, &acks, false),
        ]
    }

    fn mult_req(&mut self, name: &str, activity: ChActivity, n: usize) -> Chains {
        let (req_io, ack_io) = handshake_dirs(activity);
        let reqs: Vec<usize> = (0..n).map(|i| self.wire(name, "_r", Some(i))).collect();
        let ack = self.wire(name, "_a", None);
        [
            self.burst(req_io, &reqs, true),
            self.trans(ack_io, ack, true),
            self.burst(req_io, &reqs, false),
            self.trans(ack_io, ack, false),
        ]
    }

    /// One transition per wire, in order.
    fn burst(&mut self, io: Io, wires: &[usize], rising: bool) -> Chain {
        let mut out = Chain::EMPTY;
        for &w in wires {
            let one = self.trans(io, w, rising);
            out = self.cat([out, one]);
        }
        out
    }

    /// Combines two expansions per Table 2. The activity of the first
    /// argument selects the row variant (only `enc-early` differs between
    /// active and passive first arguments); `Neither` behaves as passive —
    /// its events are empty, so the placement collapses to the other
    /// argument's events.
    fn combine(&mut self, op: InterleaveOp, a: Chains, a_act: ChActivity, b: Chains) -> Chains {
        let [a1, a2, a3, a4] = a;
        let [b1, b2, b3, b4] = b;
        match op {
            InterleaveOp::EncEarly => {
                if a_act == ChActivity::Active {
                    // [a1][a2 b1 b2 b3 b4][a3][a4]
                    [a1, self.cat([a2, b1, b2, b3, b4]), a3, a4]
                } else {
                    // [a1 b1 b2 b3 b4][a2][a3][a4]
                    [self.cat([a1, b1, b2, b3, b4]), a2, a3, a4]
                }
            }
            // [a1][a2][a3][b1 b2 b3 b4 a4]
            InterleaveOp::EncLate => [a1, a2, a3, self.cat([b1, b2, b3, b4, a4])],
            // [a1 b1][b2 a2][a3 b3][b4 a4]
            InterleaveOp::EncMiddle => [
                self.cat([a1, b1]),
                self.cat([b2, a2]),
                self.cat([a3, b3]),
                self.cat([b4, a4]),
            ],
            // [a1 a2 a3 a4 b1][b2][b3][b4]
            InterleaveOp::Seq => [self.cat([a1, a2, a3, a4, b1]), b2, b3, b4],
            // [a1 a2][b1 b2][a3 a4][b3 b4]
            InterleaveOp::SeqOv => [
                self.cat([a1, a2]),
                self.cat([b1, b2]),
                self.cat([a3, a4]),
                self.cat([b3, b4]),
            ],
            InterleaveOp::Mutex => {
                let arm_a = self.linear(a);
                let arm_b = self.linear(b);
                first_only(self.piece(Piece::Choice(vec![arm_a, arm_b])))
            }
        }
    }
}

/// An expansion whose whole behaviour sits in its first event.
fn first_only(chain: Chain) -> Chains {
    [chain, Chain::EMPTY, Chain::EMPTY, Chain::EMPTY]
}

/// Request and acknowledge directions of a handshake with this activity.
fn handshake_dirs(activity: ChActivity) -> (Io, Io) {
    match activity {
        ChActivity::Active => (Io::Out, Io::In),
        _ => (Io::In, Io::Out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ChExpr;
    use InterleaveOp::*;

    fn show(e: &Expansion) -> String {
        e.to_string()
    }

    #[test]
    fn passive_ptop_expansion_matches_paper() {
        let e = expand(&ChExpr::passive("a")).unwrap();
        assert_eq!(show(&e), "[(i a_r +)][(o a_a +)][(i a_r -)][(o a_a -)]");
    }

    #[test]
    fn active_ptop_expansion_matches_paper() {
        let e = expand(&ChExpr::active("b")).unwrap();
        assert_eq!(show(&e), "[(o b_r +)][(i b_a +)][(o b_r -)][(i b_a -)]");
    }

    #[test]
    fn enc_early_passive_active_matches_paper_example() {
        // §3: (enc-early (p-to-p passive A) (p-to-p active B)) =
        // [(i a_r+)(o b_r+)(i b_a+)(o b_r-)(i b_a-)][(o a_a+)][(i a_r-)][(o a_a-)]
        let e = expand(&ChExpr::op(
            EncEarly,
            ChExpr::passive("a"),
            ChExpr::active("b"),
        ))
        .unwrap();
        assert_eq!(
            show(&e),
            "[(i a_r +) (o b_r +) (i b_a +) (o b_r -) (i b_a -)][(o a_a +)][(i a_r -)][(o a_a -)]"
        );
    }

    #[test]
    fn mult_ack_active_matches_paper_example() {
        // (mult-ack active c 2) -> [(o c_r+)][(i c_a0+)(i c_a1+)][(o c_r-)][...]
        let e = expand(&ChExpr::MultAck {
            activity: crate::ast::ChActivity::Active,
            name: "c".into(),
            n: 2,
        })
        .unwrap();
        assert_eq!(
            show(&e),
            "[(o c_r +)][(i c_a0 +) (i c_a1 +)][(o c_r -)][(i c_a0 -) (i c_a1 -)]"
        );
    }

    #[test]
    fn seq_concatenates_first_argument() {
        let e = expand(&ChExpr::op(Seq, ChExpr::active("x"), ChExpr::active("y"))).unwrap();
        assert_eq!(
            show(&e),
            "[(o x_r +) (i x_a +) (o x_r -) (i x_a -) (o y_r +)][(i y_a +)][(o y_r -)][(i y_a -)]"
        );
    }

    #[test]
    fn enc_middle_interleaves_pairwise() {
        let e = expand(&ChExpr::op(
            EncMiddle,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        ))
        .unwrap();
        assert_eq!(
            show(&e),
            "[(i a_r +) (i b_r +)][(o b_a +) (o a_a +)][(i a_r -) (i b_r -)][(o b_a -) (o a_a -)]"
        );
    }

    #[test]
    fn enc_late_encloses_in_return_phase() {
        let e = expand(&ChExpr::op(
            EncLate,
            ChExpr::passive("a"),
            ChExpr::active("b"),
        ))
        .unwrap();
        assert_eq!(
            show(&e),
            "[(i a_r +)][(o a_a +)][(i a_r -)][(o b_r +) (i b_a +) (o b_r -) (i b_a -) (o a_a -)]"
        );
    }

    #[test]
    fn seq_ov_overlaps() {
        let e = expand(&ChExpr::op(SeqOv, ChExpr::active("a"), ChExpr::active("b"))).unwrap();
        assert_eq!(
            show(&e),
            "[(o a_r +) (i a_a +)][(o b_r +) (i b_a +)][(o a_r -) (i a_a -)][(o b_r -) (i b_a -)]"
        );
    }

    #[test]
    fn rep_wraps_with_label_and_goto() {
        let e = expand(&ChExpr::Rep(Box::new(ChExpr::passive("p")))).unwrap();
        let (items, _) = e.into_linear();
        assert!(matches!(items[0], Item::Label(_)));
        assert!(matches!(items[items.len() - 1], Item::Label(_)));
        assert!(items.iter().any(|i| matches!(i, Item::Goto(_))));
    }

    #[test]
    fn break_requires_loop() {
        assert_eq!(
            expand(&ChExpr::Break).unwrap_err(),
            ExpandError::BreakOutsideLoop
        );
        let ok = ChExpr::Rep(Box::new(ChExpr::op(
            Seq,
            ChExpr::passive("p"),
            ChExpr::Break,
        )));
        let (items, _) = expand(&ok).unwrap().into_linear();
        assert!(items.iter().any(|i| matches!(i, Item::BGoto(_))));
    }

    #[test]
    fn mutex_produces_choice() {
        let e = expand(&ChExpr::op(
            Mutex,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        ))
        .unwrap();
        match &e.events[0][0] {
            Item::Choice(arms) => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].len(), 4);
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn void_disappears_under_enclosure() {
        // (enc-early void (seq c1 c2)) linearizes exactly like the seq.
        let seq = ChExpr::op(Seq, ChExpr::active("c1"), ChExpr::active("c2"));
        let enclosed = ChExpr::op(EncEarly, ChExpr::Void, seq.clone());
        let a = expand(&enclosed).unwrap().into_linear();
        let b = expand(&seq).unwrap().into_linear();
        assert_eq!(a, b);
    }

    #[test]
    fn mux_ack_shape() {
        let e = expand(&ChExpr::MuxAck {
            name: "m".into(),
            arms: vec![
                (EncEarly, ChExpr::active("x")),
                (EncEarly, ChExpr::active("y")),
            ],
        })
        .unwrap();
        // Event 1: m_r+ then the choice; events 2-4 null.
        assert_eq!(e.events[0].len(), 2);
        assert!(e.events[1].is_empty());
        match &e.events[0][1] {
            Item::Choice(arms) => {
                assert_eq!(arms.len(), 2);
                // Arm 0 mentions m_a0 and x wires.
                let names: Vec<&str> = arms[0]
                    .iter()
                    .filter_map(|i| match i {
                        Item::T(t) => Some(e.wires[t.wire].as_str()),
                        _ => None,
                    })
                    .collect();
                assert!(names.contains(&"m_a0"));
                assert!(names.contains(&"x_r"));
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn wires_are_interned_once_in_first_appearance_order() {
        let e = expand(&ChExpr::Rep(Box::new(ChExpr::op(
            Seq,
            ChExpr::passive("p"),
            ChExpr::op(Seq, ChExpr::active("x"), ChExpr::passive("p")),
        ))))
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(e.wires, ["p_r", "p_a", "x_r", "x_a"]);
        let (items, wires) = e.clone().into_linear();
        assert_eq!(wires, e.wires);
        let reqs = items
            .iter()
            .filter(|i| matches!(i, Item::T(t) if wires[t.wire] == "p_r"))
            .count();
        assert_eq!(reqs, 4, "both p handshakes share one interned p_r");
    }

    #[test]
    fn transitions_enumerates_choice_arms() {
        let e = expand(&ChExpr::op(
            Mutex,
            ChExpr::passive("a"),
            ChExpr::passive("b"),
        ))
        .unwrap();
        let ts = e.transitions();
        assert_eq!(ts.len(), 8); // both four-phase handshakes
    }
}
