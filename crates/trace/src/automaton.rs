//! Receptive trace structures as finite automata.
//!
//! Follows Dill's trace theory [Dill 1989]: a module is a prefix-closed,
//! receptive trace structure over an alphabet partitioned into inputs and
//! outputs. We represent the structure as a deterministic automaton with an
//! implicit failure state: an input symbol with no defined transition leads
//! to failure (the module "chokes"); an output symbol with no defined
//! transition simply cannot be produced.

use crate::fxhash::{hash_of, FxHashMap, HashIndex};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// An absent entry of a dense table: an undefined transition, an empty
/// index slot.
const NONE: u32 = u32::MAX;

/// Direction of a symbol relative to the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// The environment produces this symbol.
    Input,
    /// The module produces this symbol.
    Output,
}

impl Dir {
    /// The mirrored direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Input => Dir::Output,
            Dir::Output => Dir::Input,
        }
    }
}

/// Result of taking a symbol from a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    To(usize),
    Failure,
}

/// Errors raised by trace-structure operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Both composed modules drive the same symbol.
    OutputConflict {
        /// The doubly-driven symbol.
        symbol: String,
    },
    /// Tried to hide a symbol that is not an output.
    HideNonOutput {
        /// The offending symbol.
        symbol: String,
    },
    /// Conformance requires identical alphabets (names and directions).
    AlphabetMismatch {
        /// Description of the difference.
        detail: String,
    },
    /// A referenced symbol does not exist.
    UnknownSymbol {
        /// The name.
        symbol: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OutputConflict { symbol } => {
                write!(f, "symbol {symbol} is an output of both composed modules")
            }
            TraceError::HideNonOutput { symbol } => {
                write!(f, "cannot hide non-output symbol {symbol}")
            }
            TraceError::AlphabetMismatch { detail } => write!(f, "alphabet mismatch: {detail}"),
            TraceError::UnknownSymbol { symbol } => write!(f, "unknown symbol {symbol}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A receptive trace structure.
///
/// # Examples
///
/// ```
/// use bmbe_trace::automaton::{Dir, TraceStructure};
///
/// // A wire: receives `a`, then emits `b`, repeatedly.
/// let mut w = TraceStructure::new();
/// let a = w.add_symbol("a", Dir::Input);
/// let b = w.add_symbol("b", Dir::Output);
/// let s0 = w.add_state();
/// let s1 = w.add_state();
/// w.set_initial(s0);
/// w.add_transition(s0, a, s1);
/// w.add_transition(s1, b, s0);
/// assert!(w.accepts(&["a", "b", "a"]).unwrap());
/// assert!(!w.accepts(&["b"]).unwrap()); // cannot produce b before a
/// ```
#[derive(Debug, Clone)]
pub struct TraceStructure {
    symbols: Vec<(String, Dir)>,
    /// Symbol lookup by name.
    by_name: HashIndex,
    num_states: usize,
    initial: usize,
    /// Width of a transition row, at least the alphabet size.
    stride: usize,
    /// Dense transition rows: the successor of `state` on `symbol` is
    /// `delta[state * stride + symbol]`, [`NONE`] where undefined.
    delta: Vec<u32>,
    /// Defined entries of `delta`.
    transitions: usize,
}

impl Default for TraceStructure {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStructure {
    /// Creates an empty structure with a single initial state.
    pub fn new() -> Self {
        Self::with_alphabet_capacity(0)
    }

    /// Creates an empty structure with a single initial state whose
    /// transition rows are sized for `symbols` symbols up front (a larger
    /// alphabet still works; the rows are re-laid out as it grows).
    pub fn with_alphabet_capacity(symbols: usize) -> Self {
        TraceStructure {
            symbols: Vec::new(),
            by_name: HashIndex::default(),
            num_states: 1,
            initial: 0,
            stride: symbols,
            delta: vec![NONE; symbols],
            transitions: 0,
        }
    }

    /// Adds (or finds) a symbol; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the symbol exists with a different direction.
    pub fn add_symbol(&mut self, name: impl Into<String>, dir: Dir) -> usize {
        let name = name.into();
        let hash = hash_of(name.as_str());
        if let Some(i) = self.by_name.find(hash, |i| self.symbols[i].0 == name) {
            assert_eq!(
                self.symbols[i].1, dir,
                "symbol {name} re-added with different direction"
            );
            return i;
        }
        let i = self.symbols.len();
        if i == self.stride {
            self.widen((2 * self.stride).max(4));
        }
        self.by_name.insert(hash);
        self.symbols.push((name, dir));
        i
    }

    /// Re-lays the transition rows out at a larger width.
    fn widen(&mut self, stride: usize) {
        let mut delta = vec![NONE; self.num_states * stride];
        if self.stride > 0 {
            for (old, new) in self
                .delta
                .chunks_exact(self.stride)
                .zip(delta.chunks_exact_mut(stride))
            {
                new[..self.stride].copy_from_slice(old);
            }
        }
        self.delta = delta;
        self.stride = stride;
    }

    /// Adds a fresh state; returns its index.
    pub fn add_state(&mut self) -> usize {
        self.num_states += 1;
        self.delta.resize(self.num_states * self.stride, NONE);
        self.num_states - 1
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, s: usize) {
        assert!(s < self.num_states);
        self.initial = s;
    }

    /// Defines the transition `from --symbol--> to`.
    pub fn add_transition(&mut self, from: usize, symbol: usize, to: usize) {
        assert!(from < self.num_states && to < self.num_states && symbol < self.symbols.len());
        let slot = &mut self.delta[from * self.stride + symbol];
        if *slot == NONE {
            self.transitions += 1;
        }
        *slot = u32::try_from(to).expect("state index fits the dense rows");
    }

    /// The alphabet as `(name, direction)` pairs.
    pub fn symbols(&self) -> &[(String, Dir)] {
        &self.symbols
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// Looks up a symbol index by name.
    pub fn symbol_index(&self, name: &str) -> Option<usize> {
        self.by_name
            .find(hash_of(name), |i| self.symbols[i].0 == name)
    }

    /// Number of defined transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions
    }

    /// Copies every outgoing transition of `from_state` onto `onto`
    /// (used to alias a goto source with its label state when building
    /// automata from linear expansions). Existing transitions of `onto`
    /// are kept.
    pub fn copy_outgoing(&mut self, from_state: usize, onto: usize) {
        let (from, onto) = (from_state * self.stride, onto * self.stride);
        for sym in 0..self.symbols.len() {
            let t = self.delta[from + sym];
            if t != NONE && self.delta[onto + sym] == NONE {
                self.delta[onto + sym] = t;
                self.transitions += 1;
            }
        }
    }

    /// The successor of `state` on `symbol`, if the transition is defined.
    #[inline]
    fn next(&self, state: usize, symbol: usize) -> Option<usize> {
        let t = self.delta[state * self.stride + symbol];
        (t != NONE).then_some(t as usize)
    }

    fn step(&self, state: usize, symbol: usize) -> Step {
        match self.next(state, symbol) {
            Some(s) => Step::To(s),
            None => Step::Failure,
        }
    }

    /// Whether the symbol can occur at the state: inputs always can
    /// (receptiveness), outputs only when defined.
    fn possible(&self, state: usize, symbol: usize) -> bool {
        match self.symbols[symbol].1 {
            Dir::Input => true,
            Dir::Output => self.next(state, symbol).is_some(),
        }
    }

    /// Whether a trace (by symbol names) is a success trace of the module.
    ///
    /// A trace that chokes on an input is a failure; a trace containing an
    /// output the module cannot produce is simply not a trace (returns
    /// `false` as well).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownSymbol`] for names outside the alphabet.
    pub fn accepts(&self, trace: &[&str]) -> Result<bool, TraceError> {
        let mut state = self.initial;
        for name in trace {
            let sym = self
                .symbol_index(name)
                .ok_or_else(|| TraceError::UnknownSymbol {
                    symbol: (*name).to_string(),
                })?;
            if !self.possible(state, sym) {
                return Ok(false);
            }
            match self.step(state, sym) {
                Step::To(s) => state = s,
                Step::Failure => return Ok(false),
            }
        }
        Ok(true)
    }

    /// The mirror: inputs and outputs exchanged.
    pub fn mirror(&self) -> TraceStructure {
        let mut m = self.clone();
        for (_, dir) in &mut m.symbols {
            *dir = dir.flip();
        }
        m
    }

    /// Dill composition of two modules.
    ///
    /// Shared symbols synchronize; a symbol driven by one module and
    /// received by the other becomes an output of the composite. A failure
    /// occurs when a produced or environment-supplied symbol chokes either
    /// receiver.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutputConflict`] when both modules drive the
    /// same symbol.
    pub fn compose(&self, other: &TraceStructure) -> Result<Composite, TraceError> {
        let MergedAlphabet {
            names,
            dirs,
            in_a,
            in_b,
        } = merge_alphabets(borrowed(&self.symbols), borrowed(&other.symbols))?;
        // Explore the product.
        let mut result = TraceStructure::with_alphabet_capacity(names.len());
        for (n, d) in names.iter().zip(&dirs) {
            result.add_symbol(*n, *d);
        }
        let mut failure_reachable = false;
        let mut index: HashMap<(usize, usize), usize> = HashMap::new();
        index.insert((self.initial, other.initial), 0);
        let mut queue = vec![(self.initial, other.initial)];
        while let Some((sa, sb)) = queue.pop() {
            let from = index[&(sa, sb)];
            for sym in 0..names.len() {
                let a_sym = in_a[sym];
                let b_sym = in_b[sym];
                // Can this symbol occur here?
                let producible = match dirs[sym] {
                    Dir::Input => true,
                    Dir::Output => {
                        // Some party must be able to output it.
                        let a_out = a_sym.is_some_and(|s| {
                            self.symbols[s].1 == Dir::Output && self.possible(sa, s)
                        });
                        let b_out = b_sym.is_some_and(|s| {
                            other.symbols[s].1 == Dir::Output && other.possible(sb, s)
                        });
                        a_out || b_out
                    }
                };
                if !producible {
                    continue;
                }
                // Both participants step; a choked receiver is a failure.
                let na = match a_sym {
                    Some(s) => match self.step(sa, s) {
                        Step::To(t) => Some(t),
                        Step::Failure => None,
                    },
                    None => Some(sa),
                };
                let nb = match b_sym {
                    Some(s) => match other.step(sb, s) {
                        Step::To(t) => Some(t),
                        Step::Failure => None,
                    },
                    None => Some(sb),
                };
                match (na, nb) {
                    (Some(na), Some(nb)) => {
                        let next = *index.entry((na, nb)).or_insert_with(|| {
                            queue.push((na, nb));
                            result.add_state()
                        });
                        result.add_transition(from, sym, next);
                    }
                    _ => {
                        // A choke. For a composite *input* the transition is
                        // simply left undefined: receptive semantics makes
                        // that an implicit failure, preserved for later
                        // compositions. A choke on a *module-produced*
                        // symbol is a failure no environment choice at this
                        // step can undo; record it in the flag (this is the
                        // exact condition the mirror-based conformance check
                        // needs, where every symbol is an output).
                        if dirs[sym] == Dir::Output {
                            failure_reachable = true;
                        }
                    }
                }
            }
        }
        Ok(Composite {
            structure: result,
            failure_reachable,
        })
    }

    /// Hides output symbols, determinizing the result.
    ///
    /// Hidden symbols become internal moves (ε). The subset construction
    /// preserves failures: a subset any member of which can fail, fails.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::HideNonOutput`] if a hidden symbol is an input,
    /// or [`TraceError::UnknownSymbol`] if it does not exist.
    pub fn hide(&self, hidden: &[&str]) -> Result<TraceStructure, TraceError> {
        let mut hide_set = BTreeSet::new();
        for name in hidden {
            let i = self
                .symbol_index(name)
                .ok_or_else(|| TraceError::UnknownSymbol {
                    symbol: (*name).to_string(),
                })?;
            if self.symbols[i].1 != Dir::Output {
                return Err(TraceError::HideNonOutput {
                    symbol: (*name).to_string(),
                });
            }
            hide_set.insert(i);
        }
        // ε-closure over hidden output transitions.
        let closure = |seed: BTreeSet<usize>| -> BTreeSet<usize> {
            let mut set = seed;
            let mut stack: Vec<usize> = set.iter().copied().collect();
            while let Some(s) = stack.pop() {
                for &h in &hide_set {
                    if let Some(t) = self.next(s, h) {
                        if set.insert(t) {
                            stack.push(t);
                        }
                    }
                }
            }
            set
        };
        let visible: Vec<usize> = (0..self.symbols.len())
            .filter(|s| !hide_set.contains(s))
            .collect();
        let mut out = TraceStructure::with_alphabet_capacity(visible.len());
        let mut sym_map: HashMap<usize, usize> = HashMap::new();
        for &s in &visible {
            let (name, dir) = &self.symbols[s];
            sym_map.insert(s, out.add_symbol(name.clone(), *dir));
        }
        let start = closure(BTreeSet::from([self.initial]));
        let mut index: HashMap<BTreeSet<usize>, usize> = HashMap::new();
        index.insert(start.clone(), 0);
        let mut queue = vec![start];
        while let Some(set) = queue.pop() {
            let from = index[&set];
            for &sym in &visible {
                let mut next = BTreeSet::new();
                let mut fails = false;
                let mut any_possible = false;
                for &s in &set {
                    if self.possible(s, sym) {
                        any_possible = true;
                        match self.step(s, sym) {
                            Step::To(t) => {
                                next.insert(t);
                            }
                            Step::Failure => fails = true,
                        }
                    }
                }
                if !any_possible {
                    continue;
                }
                // A failing member of the subset leaves the transition
                // partial; with `next` empty the symbol edge is dropped and
                // receptive semantics re-derives the failure for inputs.
                let _ = fails;
                if next.is_empty() {
                    continue;
                }
                let next = closure(next);
                let to = *index.entry(next.clone()).or_insert_with(|| {
                    queue.push(next.clone());
                    out.add_state()
                });
                out.add_transition(from, sym_map[&sym], to);
            }
        }
        Ok(out)
    }

    /// Conformance check `self ≤ spec` (Dill): the implementation can
    /// replace the specification in every environment. Decided by composing
    /// `self` with `mirror(spec)` and searching for a reachable failure.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::AlphabetMismatch`] if alphabets differ.
    pub fn conforms_to(&self, spec: &TraceStructure) -> Result<bool, TraceError> {
        let mut a: Vec<(String, Dir)> = self.symbols.clone();
        let mut b: Vec<(String, Dir)> = spec.symbols.clone();
        a.sort();
        b.sort();
        if a != b {
            return Err(TraceError::AlphabetMismatch {
                detail: format!("{a:?} vs {b:?}"),
            });
        }
        let composite = self.compose(&spec.mirror())?;
        Ok(!composite.failure_reachable)
    }

    /// Two-way conformance (trace equivalence for our purposes).
    ///
    /// # Errors
    ///
    /// Propagates alphabet mismatches.
    pub fn equivalent_to(&self, other: &TraceStructure) -> Result<bool, TraceError> {
        Ok(self.conforms_to(other)? && other.conforms_to(self)?)
    }

    /// On-the-fly conformance check `self ≤ spec`.
    ///
    /// Decides the same question as [`conforms_to`](Self::conforms_to) but
    /// explores the product with `mirror(spec)` lazily: state pairs are
    /// hash-interned as they are reached, no composite transitions are
    /// stored, and the search stops at the first reachable failure — with a
    /// shortest witness trace for diagnostics. When the answer is "yes" the
    /// search visits exactly the composite's reachable states; when "no" it
    /// usually visits far fewer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::AlphabetMismatch`] if alphabets differ.
    pub fn conforms_to_otf(&self, spec: &TraceStructure) -> Result<OtfOutcome, TraceError> {
        same_alphabet(borrowed(&self.symbols), borrowed(&spec.symbols))?;
        let mut lhs = ConcreteView {
            t: self,
            flip: false,
        };
        let mut rhs = ConcreteView {
            t: spec,
            flip: true,
        };
        search_failure(&mut lhs, &mut rhs)
    }

    /// On-the-fly failure-reachability of the composition `self ∥ other`.
    ///
    /// Answers the same question as `compose(other)?.failure_reachable`
    /// without materializing the composite automaton: early exit on the
    /// first failure, with a shortest witness trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutputConflict`] when both modules drive the
    /// same symbol.
    pub fn failure_search(&self, other: &TraceStructure) -> Result<OtfOutcome, TraceError> {
        let mut lhs = ConcreteView {
            t: self,
            flip: false,
        };
        let mut rhs = ConcreteView {
            t: other,
            flip: false,
        };
        search_failure(&mut lhs, &mut rhs)
    }
}

/// Result of an on-the-fly failure-reachability search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtfOutcome {
    /// Whether no failure is reachable: for a conformance search the
    /// implementation conforms, for a composition search the composition is
    /// safe.
    pub ok: bool,
    /// Distinct product states interned before the search stopped. With
    /// `ok` this equals the reachable composite state count; on early exit
    /// it is usually much smaller.
    pub states_visited: usize,
    /// Largest number of interned-but-unexpanded states the breadth-first
    /// search held at once (its memory high-water mark, reported through
    /// the observability metrics).
    pub peak_frontier: usize,
    /// A shortest trace driving the product into a failure, when `ok` is
    /// `false`.
    pub counterexample: Option<Vec<String>>,
}

/// The merged alphabet of a composition: composite name/direction tables
/// plus each side's symbol index for every composite symbol. Names are
/// borrowed from the sides.
struct MergedAlphabet<'n> {
    names: Vec<&'n str>,
    dirs: Vec<Dir>,
    in_a: Vec<Option<usize>>,
    in_b: Vec<Option<usize>>,
}

/// A stored alphabet as borrowed `(name, direction)` pairs.
fn borrowed(symbols: &[(String, Dir)]) -> impl Iterator<Item = (&str, Dir)> {
    symbols.iter().map(|(n, d)| (n.as_str(), *d))
}

/// Merges two alphabets under Dill composition rules: shared symbols
/// synchronize, an output met by an input stays an output of the composite,
/// two outputs conflict.
fn merge_alphabets<'n>(
    a: impl IntoIterator<Item = (&'n str, Dir)>,
    b: impl IntoIterator<Item = (&'n str, Dir)>,
) -> Result<MergedAlphabet<'n>, TraceError> {
    let mut names: Vec<&str> = Vec::new();
    let mut dirs: Vec<Dir> = Vec::new();
    let mut in_a: Vec<Option<usize>> = Vec::new();
    let mut in_b: Vec<Option<usize>> = Vec::new();
    let mut seen: FxHashMap<&str, usize> = FxHashMap::default();
    for (ai, (name, dir)) in a.into_iter().enumerate() {
        let i = names.len();
        seen.insert(name, i);
        names.push(name);
        dirs.push(dir);
        in_a.push(Some(ai));
        in_b.push(None);
    }
    for (bi, (name, dir)) in b.into_iter().enumerate() {
        match seen.get(name) {
            Some(&i) => {
                in_b[i] = Some(bi);
                match (dirs[i], dir) {
                    (Dir::Output, Dir::Output) => {
                        return Err(TraceError::OutputConflict {
                            symbol: name.to_string(),
                        })
                    }
                    (Dir::Output, Dir::Input) | (Dir::Input, Dir::Output) => dirs[i] = Dir::Output,
                    (Dir::Input, Dir::Input) => {}
                }
            }
            None => {
                let i = names.len();
                seen.insert(name, i);
                names.push(name);
                dirs.push(dir);
                in_a.push(None);
                in_b.push(Some(bi));
            }
        }
    }
    Ok(MergedAlphabet {
        names,
        dirs,
        in_a,
        in_b,
    })
}

/// Conformance requires identical alphabets: the same names with the same
/// directions, in any order.
fn same_alphabet<'n>(
    a: impl Iterator<Item = (&'n str, Dir)>,
    b: impl Iterator<Item = (&'n str, Dir)>,
) -> Result<(), TraceError> {
    let mut a: Vec<(&str, Dir)> = a.collect();
    let mut b: Vec<(&str, Dir)> = b.collect();
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        return Err(TraceError::AlphabetMismatch {
            detail: format!("{a:?} vs {b:?}"),
        });
    }
    Ok(())
}

/// A product side's effective alphabet, borrowed.
fn alphabet<S: ProductSide>(side: &S) -> impl Iterator<Item = (&str, Dir)> {
    (0..side.symbols()).map(|i| side.symbol(i))
}

/// One side of a lazily explored product: a concrete structure (possibly
/// viewed through a mirror) or a lazily determinized hidden composition.
/// States are side-local `usize` ids; `step` returns `None` on a choke.
trait ProductSide {
    /// Size of the side's alphabet.
    fn symbols(&self) -> usize;
    /// A symbol of the side's effective alphabet (mirroring already
    /// applied).
    fn symbol(&self, sym: usize) -> (&str, Dir);
    /// The side's initial state (may intern lazily).
    fn initial(&mut self) -> usize;
    /// Takes the symbol; `None` is a choke (no defined transition). For a
    /// symbol the side drives this is also receptive possibility: an output
    /// can occur exactly where it is defined.
    fn step(&mut self, state: usize, sym: usize) -> Option<usize>;
}

/// A `&TraceStructure` as a product side; `flip` views it mirrored without
/// cloning.
struct ConcreteView<'a> {
    t: &'a TraceStructure,
    flip: bool,
}

impl ConcreteView<'_> {
    fn dir(&self, sym: usize) -> Dir {
        let d = self.t.symbols[sym].1;
        if self.flip {
            d.flip()
        } else {
            d
        }
    }
}

impl ProductSide for ConcreteView<'_> {
    fn symbols(&self) -> usize {
        self.t.symbols.len()
    }

    fn symbol(&self, sym: usize) -> (&str, Dir) {
        (&self.t.symbols[sym].0, self.dir(sym))
    }

    fn initial(&mut self) -> usize {
        self.t.initial
    }

    fn step(&mut self, state: usize, sym: usize) -> Option<usize> {
        self.t.next(state, sym)
    }
}

/// Packs a pair of side-local state ids into one key; packed keys order
/// like the `(a, b)` pairs themselves.
#[inline]
fn pack(a: usize, b: usize) -> u64 {
    debug_assert!(a <= u32::MAX as usize && b <= u32::MAX as usize);
    (a as u64) << 32 | b as u64
}

#[inline]
fn unpack(p: u64) -> (usize, usize) {
    ((p >> 32) as usize, (p & 0xffff_ffff) as usize)
}

/// Lazy failure search over the product of two sides.
///
/// Mirrors [`TraceStructure::compose`]'s semantics exactly — same
/// producible rule, same both-participants-step rule, a choke on a
/// composite *output* is the failure — but breadth-first with interned
/// state pairs and parent pointers, stopping at the first failure and
/// reconstructing a shortest witness trace. Composite transitions are never
/// stored.
fn search_failure<A: ProductSide, B: ProductSide>(
    a: &mut A,
    b: &mut B,
) -> Result<OtfOutcome, TraceError> {
    // The merged alphabet borrows the sides' names; the search keeps only
    // its index tables and looks a name up again for a witness.
    let MergedAlphabet {
        dirs, in_a, in_b, ..
    } = merge_alphabets(alphabet(a), alphabet(b))?;
    let name = |a: &A, b: &B, sym: usize| -> String {
        match (in_a[sym], in_b[sym]) {
            (Some(s), _) => a.symbol(s).0.to_string(),
            (None, Some(s)) => b.symbol(s).0.to_string(),
            (None, None) => unreachable!("every composite symbol has a side"),
        }
    };
    // Whether each side drives each composite symbol.
    let a_drives: Vec<bool> = in_a
        .iter()
        .map(|s| s.is_some_and(|s| a.symbol(s).1 == Dir::Output))
        .collect();
    let b_drives: Vec<bool> = in_b
        .iter()
        .map(|s| s.is_some_and(|s| b.symbol(s).1 == Dir::Output))
        .collect();
    let start = (a.initial(), b.initial());
    let mut index: FxHashMap<u64, u32> = FxHashMap::default();
    index.insert(pack(start.0, start.1), 0);
    let mut states: Vec<(usize, usize)> = vec![start];
    let mut parents: Vec<Option<(usize, usize)>> = vec![None];
    let mut head = 0;
    let mut peak_frontier = 1;
    while head < states.len() {
        peak_frontier = peak_frontier.max(states.len() - head);
        let (sa, sb) = states[head];
        for sym in 0..dirs.len() {
            // A side driving the symbol can produce it exactly where it
            // steps, so its step is also the producibility test; a
            // receiving side steps only once the symbol is producible.
            let step_a = |a: &mut A| match in_a[sym] {
                Some(s) => a.step(sa, s),
                None => Some(sa),
            };
            let step_b = |b: &mut B| match in_b[sym] {
                Some(s) => b.step(sb, s),
                None => Some(sb),
            };
            let driven_a = a_drives[sym].then(|| step_a(a));
            let driven_b = b_drives[sym].then(|| step_b(b));
            let producible = match dirs[sym] {
                Dir::Input => true,
                Dir::Output => {
                    matches!(driven_a, Some(Some(_))) || matches!(driven_b, Some(Some(_)))
                }
            };
            if !producible {
                continue;
            }
            let na = driven_a.unwrap_or_else(|| step_a(a));
            let nb = driven_b.unwrap_or_else(|| step_b(b));
            match (na, nb) {
                (Some(na), Some(nb)) => {
                    if let std::collections::hash_map::Entry::Vacant(e) = index.entry(pack(na, nb))
                    {
                        e.insert(states.len() as u32);
                        states.push((na, nb));
                        parents.push(Some((head, sym)));
                    }
                }
                _ => {
                    // An input choke stays an implicit receptive failure of
                    // the composite (no successor); a choke on a produced
                    // symbol is the reachable failure we are looking for.
                    if dirs[sym] == Dir::Output {
                        let mut trace = vec![name(a, b, sym)];
                        let mut at = head;
                        while let Some((p, s)) = parents[at] {
                            trace.push(name(a, b, s));
                            at = p;
                        }
                        trace.reverse();
                        return Ok(OtfOutcome {
                            ok: false,
                            states_visited: states.len(),
                            peak_frontier,
                            counterexample: Some(trace),
                        });
                    }
                }
            }
        }
        head += 1;
    }
    Ok(OtfOutcome {
        ok: true,
        states_visited: states.len(),
        peak_frontier,
        counterexample: None,
    })
}

/// Memo entry of a transition not computed yet.
const UNKNOWN: u32 = u32::MAX;
/// Memo entry of a transition the hidden automaton leaves undefined.
const DROPPED: u32 = u32::MAX - 1;

/// A lazily determinized hidden composition: the automaton
/// `hide(compose(a, b), hidden)` explored on demand.
///
/// States are ε-closed subsets of composite state pairs, interned the
/// first time a conformance search reaches them; transitions are memoized
/// in one dense row per subset and shared across every search run against
/// the same value. Nothing of the composite — neither its state table nor
/// its transitions — is ever materialized, which is where the on-the-fly
/// verification path saves its states over the `compose` + `hide` pipeline.
pub struct HiddenComposition<'a> {
    a: &'a TraceStructure,
    b: &'a TraceStructure,
    names: Vec<&'a str>,
    dirs: Vec<Dir>,
    in_a: Vec<Option<usize>>,
    in_b: Vec<Option<usize>>,
    hidden: Vec<usize>,
    /// Visible composite symbols, as `(composite index, name, dir)`.
    visible: Vec<(usize, &'a str, Dir)>,
    /// Members of every subset, each a sorted run of [`pack`]ed pairs;
    /// subset `i` is `members[starts[i]..starts[i + 1]]`.
    members: Vec<u64>,
    starts: Vec<usize>,
    /// Subset lookup by members.
    subset_index: HashIndex,
    /// Memoized transitions, one row of `visible.len()` entries per subset:
    /// the successor subset, [`UNKNOWN`] or [`DROPPED`].
    memo: Vec<u32>,
    initial: Option<usize>,
    /// Scratch buffers of the ε-closure.
    next: Vec<u64>,
    stack: Vec<u64>,
    /// First composite failure (a produced symbol choking a receiver)
    /// encountered while stepping members — the lazy counterpart of
    /// `compose`'s `failure_reachable` flag. Interior-mutable because it is
    /// recorded from the `&self` stepping helpers.
    comp_failure: std::cell::RefCell<Option<String>>,
}

impl<'a> HiddenComposition<'a> {
    /// Sets up the lazy composition of `a` and `b` with the named output
    /// symbols hidden. No exploration happens yet.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutputConflict`] when both modules drive the
    /// same symbol, [`TraceError::UnknownSymbol`] for a hidden name outside
    /// the composite alphabet, and [`TraceError::HideNonOutput`] for a
    /// hidden name that is not a composite output.
    pub fn new(
        a: &'a TraceStructure,
        b: &'a TraceStructure,
        hidden: &[&str],
    ) -> Result<Self, TraceError> {
        let MergedAlphabet {
            names,
            dirs,
            in_a,
            in_b,
        } = merge_alphabets(borrowed(&a.symbols), borrowed(&b.symbols))?;
        let mut hide_set = BTreeSet::new();
        for name in hidden {
            let i = names.iter().position(|n| n == name).ok_or_else(|| {
                TraceError::UnknownSymbol {
                    symbol: (*name).to_string(),
                }
            })?;
            if dirs[i] != Dir::Output {
                return Err(TraceError::HideNonOutput {
                    symbol: (*name).to_string(),
                });
            }
            hide_set.insert(i);
        }
        let visible = names
            .iter()
            .enumerate()
            .filter(|(i, _)| !hide_set.contains(i))
            .map(|(i, &n)| (i, n, dirs[i]))
            .collect();
        Ok(HiddenComposition {
            a,
            b,
            names,
            dirs,
            in_a,
            in_b,
            hidden: hide_set.into_iter().collect(),
            visible,
            members: Vec::new(),
            starts: vec![0],
            subset_index: HashIndex::default(),
            memo: Vec::new(),
            initial: None,
            next: Vec::new(),
            stack: Vec::new(),
            comp_failure: std::cell::RefCell::new(None),
        })
    }

    /// A composite failure noticed during lazy exploration: the name of a
    /// produced symbol that choked a receiver, if one was stepped over.
    ///
    /// When a conformance search has run in **both** directions and both
    /// held, the exploration has covered every reachable composite state
    /// (equivalence makes every visible trace of the composition a trace of
    /// the spec, so the product walks them all, and subsets partition the
    /// composite's reachable states by visible projection) — `None` then
    /// proves `compose(a, b).failure_reachable` would be `false`. After a
    /// failed or one-sided search the answer is only partial; fall back to
    /// [`TraceStructure::failure_search`] for a definitive check.
    pub fn composition_failure(&self) -> Option<String> {
        self.comp_failure.borrow().clone()
    }

    /// The visible alphabet (the hidden automaton's symbols).
    pub fn symbols(&self) -> Vec<(String, Dir)> {
        self.visible
            .iter()
            .map(|&(_, n, d)| (n.to_string(), d))
            .collect()
    }

    /// Number of subset states materialized so far.
    pub fn subset_states(&self) -> usize {
        self.starts.len() - 1
    }

    /// On-the-fly conformance `hide(a ∥ b) ≤ spec`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::AlphabetMismatch`] if the visible alphabet
    /// differs from the spec's.
    pub fn conforms_to(&mut self, spec: &TraceStructure) -> Result<OtfOutcome, TraceError> {
        self.check_alphabet(spec)?;
        let mut rhs = ConcreteView {
            t: spec,
            flip: true,
        };
        let mut lhs = HiddenSide {
            h: self,
            flip: false,
        };
        search_failure(&mut lhs, &mut rhs)
    }

    /// On-the-fly conformance `spec ≤ hide(a ∥ b)` (the reverse direction;
    /// together with [`conforms_to`](Self::conforms_to) this decides
    /// equivalence, sharing the subset states already materialized).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::AlphabetMismatch`] if the visible alphabet
    /// differs from the spec's.
    pub fn conformed_by(&mut self, spec: &TraceStructure) -> Result<OtfOutcome, TraceError> {
        self.check_alphabet(spec)?;
        let mut lhs = ConcreteView {
            t: spec,
            flip: false,
        };
        let mut rhs = HiddenSide {
            h: self,
            flip: true,
        };
        search_failure(&mut lhs, &mut rhs)
    }

    fn check_alphabet(&self, spec: &TraceStructure) -> Result<(), TraceError> {
        same_alphabet(
            self.visible.iter().map(|&(_, n, d)| (n, d)),
            borrowed(&spec.symbols),
        )
    }

    /// The composite transition at a member pair, `None` where the
    /// materialized composite would leave it undefined (not producible, or
    /// a participant chokes). For a composite output this is also
    /// [`TraceStructure::compose`]'s producible rule, with "the transition
    /// is defined" meaning both participants step.
    fn comp_step(&self, sa: usize, sb: usize, sym: usize) -> Option<(usize, usize)> {
        let a_sym = self.in_a[sym];
        let b_sym = self.in_b[sym];
        let na = match a_sym {
            Some(s) => self.a.next(sa, s),
            None => Some(sa),
        };
        let nb = match b_sym {
            Some(s) => self.b.next(sb, s),
            None => Some(sb),
        };
        // A composite output is producible where a participant driving it
        // steps (outputs are possible exactly where defined).
        if self.dirs[sym] == Dir::Output {
            let a_out = na.is_some() && a_sym.is_some_and(|s| self.a.symbols[s].1 == Dir::Output);
            let b_out = nb.is_some() && b_sym.is_some_and(|s| self.b.symbols[s].1 == Dir::Output);
            if !(a_out || b_out) {
                return None;
            }
        }
        match (na, nb) {
            (Some(na), Some(nb)) => Some((na, nb)),
            _ => {
                // The same condition `compose` records in its
                // `failure_reachable` flag: a choke on a produced symbol
                // (input chokes stay implicit receptive failures).
                if self.dirs[sym] == Dir::Output {
                    self.comp_failure
                        .borrow_mut()
                        .get_or_insert_with(|| self.names[sym].to_string());
                }
                None
            }
        }
    }

    /// ε-closure over the hidden (defined) composite transitions of the
    /// sorted, duplicate-free member set in `self.next`, left there sorted.
    /// Members are expanded depth-first from the largest, in the order a
    /// stack seeded with the ascending set pops them.
    fn close_next(&mut self) {
        let mut set = std::mem::take(&mut self.next);
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.extend_from_slice(&set);
        while let Some(p) = stack.pop() {
            let (sa, sb) = unpack(p);
            for &h in &self.hidden {
                if let Some((ta, tb)) = self.comp_step(sa, sb, h) {
                    let t = pack(ta, tb);
                    if let Err(at) = set.binary_search(&t) {
                        set.insert(at, t);
                        stack.push(t);
                    }
                }
            }
        }
        self.next = set;
        self.stack = stack;
    }

    /// Interns the closed subset in `self.next`; returns its id.
    fn intern_next(&mut self) -> usize {
        let hash = hash_of(self.next.as_slice());
        let (members, starts, next) = (&self.members, &self.starts, &self.next);
        if let Some(i) = self
            .subset_index
            .find(hash, |i| members[starts[i]..starts[i + 1]] == next[..])
        {
            return i;
        }
        self.members.extend_from_slice(&self.next);
        self.starts.push(self.members.len());
        self.memo
            .resize(self.memo.len() + self.visible.len(), UNKNOWN);
        self.subset_index.insert(hash)
    }

    fn initial_subset(&mut self) -> usize {
        if let Some(i) = self.initial {
            return i;
        }
        self.next.clear();
        self.next.push(pack(self.a.initial, self.b.initial));
        self.close_next();
        let i = self.intern_next();
        self.initial = Some(i);
        i
    }

    /// The hidden automaton's transition on a visible symbol, memoized:
    /// `None` exactly where the materialized `hide` would drop the edge
    /// (no member admits the symbol, or every admitting member chokes).
    fn resolve(&mut self, state: usize, vis: usize) -> Option<usize> {
        let slot = state * self.visible.len() + vis;
        match self.memo[slot] {
            UNKNOWN => {}
            DROPPED => return None,
            r => return Some(r as usize),
        }
        let sym = self.visible[vis].0;
        let input = self.dirs[sym] == Dir::Input;
        let mut any_possible = false;
        let mut next = std::mem::take(&mut self.next);
        next.clear();
        for &p in &self.members[self.starts[state]..self.starts[state + 1]] {
            let (sa, sb) = unpack(p);
            // An input is possible at every member; an output exactly
            // where the composite step is defined.
            let step = self.comp_step(sa, sb, sym);
            any_possible |= input || step.is_some();
            if let Some((ta, tb)) = step {
                next.push(pack(ta, tb));
            }
        }
        self.next = next;
        let r = if !any_possible || self.next.is_empty() {
            None
        } else {
            self.next.sort_unstable();
            self.next.dedup();
            self.close_next();
            Some(self.intern_next())
        };
        self.memo[slot] = r.map_or(DROPPED, |i| i as u32);
        r
    }
}

/// A mutable [`HiddenComposition`] as a product side; `flip` views it
/// mirrored.
struct HiddenSide<'h, 'a> {
    h: &'h mut HiddenComposition<'a>,
    flip: bool,
}

impl ProductSide for HiddenSide<'_, '_> {
    fn symbols(&self) -> usize {
        self.h.visible.len()
    }

    fn symbol(&self, sym: usize) -> (&str, Dir) {
        let (_, name, d) = self.h.visible[sym];
        (name, if self.flip { d.flip() } else { d })
    }

    fn initial(&mut self) -> usize {
        self.h.initial_subset()
    }

    fn step(&mut self, state: usize, sym: usize) -> Option<usize> {
        self.h.resolve(state, sym)
    }
}

/// Result of [`TraceStructure::compose`]: the composed structure plus
/// whether any failure (choke) is reachable.
#[derive(Debug, Clone)]
pub struct Composite {
    /// The composed trace structure (failures represented implicitly).
    pub structure: TraceStructure,
    /// Whether a failure is reachable in the composition.
    pub failure_reachable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A module that does the four-phase cycle in -> out -> in -> out.
    fn handshake_echo() -> TraceStructure {
        let mut t = TraceStructure::new();
        let r = t.add_symbol("req", Dir::Input);
        let a = t.add_symbol("ack", Dir::Output);
        let s0 = 0;
        let s1 = t.add_state();
        t.add_transition(s0, r, s1);
        t.add_transition(s1, a, s0);
        t
    }

    #[test]
    fn accepts_alternating_trace() {
        let t = handshake_echo();
        assert!(t.accepts(&["req", "ack", "req", "ack"]).unwrap());
        assert!(!t.accepts(&["ack"]).unwrap());
        // req twice: second req chokes (input with no transition at s1).
        assert!(!t.accepts(&["req", "req"]).unwrap());
    }

    #[test]
    fn unknown_symbol_is_error() {
        let t = handshake_echo();
        assert!(matches!(
            t.accepts(&["zap"]),
            Err(TraceError::UnknownSymbol { .. })
        ));
    }

    #[test]
    fn mirror_flips_directions() {
        let t = handshake_echo();
        let m = t.mirror();
        assert_eq!(m.symbols()[0].1, Dir::Output);
        assert_eq!(m.symbols()[1].1, Dir::Input);
    }

    #[test]
    fn self_conformance() {
        let t = handshake_echo();
        assert!(t.conforms_to(&t).unwrap());
        assert!(t.equivalent_to(&t).unwrap());
    }

    /// An "eager" module that emits ack without waiting does NOT conform to
    /// the echo specification.
    #[test]
    fn eager_module_fails_conformance() {
        let mut e = TraceStructure::new();
        let r = e.add_symbol("req", Dir::Input);
        let a = e.add_symbol("ack", Dir::Output);
        let s0 = 0;
        let s1 = e.add_state();
        // emits ack first!
        e.add_transition(s0, a, s1);
        e.add_transition(s1, r, s0);
        let spec = handshake_echo();
        assert!(!e.conforms_to(&spec).unwrap());
    }

    /// A module with fewer behaviours (more restrictive outputs) conforms.
    #[test]
    fn stopped_module_conforms_if_it_never_chokes() {
        // A module that accepts req forever and never acks: conforms only if
        // the spec's environment may keep sending reqs. For the echo spec,
        // after req the mirror-env awaits ack and may not send req again; a
        // silent module never chokes it, so it conforms (safety-only theory).
        let mut m = TraceStructure::new();
        let _r = m.add_symbol("req", Dir::Input);
        let _a = m.add_symbol("ack", Dir::Output);
        let s0 = 0;
        m.add_transition(s0, 0, s0); // absorb reqs, never ack
        let spec = handshake_echo();
        assert!(m.conforms_to(&spec).unwrap());
        // But the spec does not conform back (it can emit ack the mirror of
        // m never accepts... mirror of m accepts ack? m has no ack move, so
        // its mirror cannot accept ack -> failure).
        assert!(!spec.conforms_to(&m).unwrap());
    }

    #[test]
    fn alphabet_mismatch_detected() {
        let t = handshake_echo();
        let mut u = TraceStructure::new();
        u.add_symbol("other", Dir::Input);
        assert!(matches!(
            t.conforms_to(&u),
            Err(TraceError::AlphabetMismatch { .. })
        ));
    }

    #[test]
    fn compose_pipeline_and_hide_internal() {
        // Stage 1 encloses a full handshake on m inside the handshake on a:
        // a_req -> m_req -> m_ack -> a_ack. Stage 2 echoes m_req -> m_ack.
        // With flow control no environment can cause an overrun, so the
        // composite is failure-free; hiding m gives the a-echo behaviour.
        let mut s1 = TraceStructure::new();
        let ar = s1.add_symbol("a_req", Dir::Input);
        let mr = s1.add_symbol("m_req", Dir::Output);
        let ma = s1.add_symbol("m_ack", Dir::Input);
        let aa = s1.add_symbol("a_ack", Dir::Output);
        let (q1, q2, q3) = (s1.add_state(), s1.add_state(), s1.add_state());
        s1.add_transition(0, ar, q1);
        s1.add_transition(q1, mr, q2);
        s1.add_transition(q2, ma, q3);
        s1.add_transition(q3, aa, 0);
        let mut s2 = TraceStructure::new();
        let mr2 = s2.add_symbol("m_req", Dir::Input);
        let ma2 = s2.add_symbol("m_ack", Dir::Output);
        let p1 = s2.add_state();
        s2.add_transition(0, mr2, p1);
        s2.add_transition(p1, ma2, 0);
        let comp = s1.compose(&s2).unwrap();
        assert!(!comp.failure_reachable);
        let hidden = comp.structure.hide(&["m_req", "m_ack"]).unwrap();
        // The result should be equivalent to a direct a_req -> a_ack echo.
        let mut spec = TraceStructure::new();
        let sa = spec.add_symbol("a_req", Dir::Input);
        let sb = spec.add_symbol("a_ack", Dir::Output);
        let t1 = spec.add_state();
        spec.add_transition(0, sa, t1);
        spec.add_transition(t1, sb, 0);
        assert!(hidden.equivalent_to(&spec).unwrap());
    }

    #[test]
    fn unbuffered_pipeline_can_be_overrun() {
        // Without flow control the environment may inject a second token
        // while the consumer is busy; composition reports the reachable
        // module-caused choke.
        let mut s1 = TraceStructure::new();
        let a = s1.add_symbol("a", Dir::Input);
        let m = s1.add_symbol("m", Dir::Output);
        let q1 = s1.add_state();
        s1.add_transition(0, a, q1);
        s1.add_transition(q1, m, 0);
        let mut s2 = TraceStructure::new();
        let m2 = s2.add_symbol("m", Dir::Input);
        let b = s2.add_symbol("b", Dir::Output);
        let q2 = s2.add_state();
        s2.add_transition(0, m2, q2);
        s2.add_transition(q2, b, 0);
        let comp = s1.compose(&s2).unwrap();
        assert!(comp.failure_reachable);
    }

    #[test]
    fn compose_detects_choke() {
        // Producer that outputs x immediately; consumer that never accepts x.
        let mut p = TraceStructure::new();
        let x = p.add_symbol("x", Dir::Output);
        let q = p.add_state();
        p.add_transition(0, x, q);
        let mut c = TraceStructure::new();
        let _x = c.add_symbol("x", Dir::Input);
        // no transitions: always chokes on x
        let comp = p.compose(&c).unwrap();
        assert!(comp.failure_reachable);
    }

    #[test]
    fn output_conflict_rejected() {
        let mut a = TraceStructure::new();
        a.add_symbol("x", Dir::Output);
        let mut b = TraceStructure::new();
        b.add_symbol("x", Dir::Output);
        assert!(matches!(
            a.compose(&b),
            Err(TraceError::OutputConflict { .. })
        ));
    }

    #[test]
    fn hide_rejects_inputs() {
        let t = handshake_echo();
        assert!(matches!(
            t.hide(&["req"]),
            Err(TraceError::HideNonOutput { .. })
        ));
    }

    #[test]
    fn otf_conformance_matches_materialized() {
        let spec = handshake_echo();
        let ok = spec.conforms_to_otf(&spec).unwrap();
        assert!(ok.ok);
        assert!(ok.counterexample.is_none());
        // The otf search with a positive verdict visits exactly the
        // reachable composite states.
        let composite = spec.compose(&spec.mirror()).unwrap();
        assert_eq!(ok.states_visited, composite.structure.num_states());

        let mut eager = TraceStructure::new();
        let r = eager.add_symbol("req", Dir::Input);
        let a = eager.add_symbol("ack", Dir::Output);
        let s1 = eager.add_state();
        eager.add_transition(0, a, s1);
        eager.add_transition(s1, r, 0);
        let bad = eager.conforms_to_otf(&spec).unwrap();
        assert!(!bad.ok);
        // Failure in the very first step: either the eager ack the spec's
        // environment does not expect, or the req it sends that the eager
        // module (busy acking) chokes on. Both are one-symbol witnesses.
        let witness = bad.counterexample.expect("witness");
        assert_eq!(witness.len(), 1);
        assert!(witness[0] == "ack" || witness[0] == "req");
        assert_eq!(
            bad.ok,
            eager.conforms_to(&spec).unwrap(),
            "otf and materialized verdicts must agree"
        );
    }

    #[test]
    fn otf_failure_search_matches_compose() {
        // Overrunnable pipeline: failure reachable, with a witness.
        let mut s1 = TraceStructure::new();
        let a = s1.add_symbol("a", Dir::Input);
        let m = s1.add_symbol("m", Dir::Output);
        let q1 = s1.add_state();
        s1.add_transition(0, a, q1);
        s1.add_transition(q1, m, 0);
        let mut s2 = TraceStructure::new();
        let m2 = s2.add_symbol("m", Dir::Input);
        let b = s2.add_symbol("b", Dir::Output);
        let q2 = s2.add_state();
        s2.add_transition(0, m2, q2);
        s2.add_transition(q2, b, 0);
        let otf = s1.failure_search(&s2).unwrap();
        let mat = s1.compose(&s2).unwrap();
        assert!(mat.failure_reachable);
        assert!(!otf.ok);
        let witness = otf.counterexample.expect("witness trace");
        assert_eq!(witness.last().map(String::as_str), Some("m"));
        // The witness must actually drive the composite into its failure:
        // every proper prefix is a trace of the composite, the full trace
        // is not.
        let names: Vec<&str> = witness.iter().map(String::as_str).collect();
        assert!(mat.structure.accepts(&names[..names.len() - 1]).unwrap());
        assert!(!mat.structure.accepts(&names).unwrap());
    }

    #[test]
    fn lazy_hidden_composition_matches_materialized_pipeline() {
        // Same scenario as compose_pipeline_and_hide_internal, via the lazy
        // path: equal verdicts both directions, strictly fewer states
        // (the composite is never materialized).
        let mut s1 = TraceStructure::new();
        let ar = s1.add_symbol("a_req", Dir::Input);
        let mr = s1.add_symbol("m_req", Dir::Output);
        let ma = s1.add_symbol("m_ack", Dir::Input);
        let aa = s1.add_symbol("a_ack", Dir::Output);
        let (q1, q2, q3) = (s1.add_state(), s1.add_state(), s1.add_state());
        s1.add_transition(0, ar, q1);
        s1.add_transition(q1, mr, q2);
        s1.add_transition(q2, ma, q3);
        s1.add_transition(q3, aa, 0);
        let mut s2 = TraceStructure::new();
        let mr2 = s2.add_symbol("m_req", Dir::Input);
        let ma2 = s2.add_symbol("m_ack", Dir::Output);
        let p1 = s2.add_state();
        s2.add_transition(0, mr2, p1);
        s2.add_transition(p1, ma2, 0);
        let mut spec = TraceStructure::new();
        let sa = spec.add_symbol("a_req", Dir::Input);
        let sb = spec.add_symbol("a_ack", Dir::Output);
        let t1 = spec.add_state();
        spec.add_transition(0, sa, t1);
        spec.add_transition(t1, sb, 0);

        let mut lazy = HiddenComposition::new(&s1, &s2, &["m_req", "m_ack"]).unwrap();
        let fwd = lazy.conforms_to(&spec).unwrap();
        let bwd = lazy.conformed_by(&spec).unwrap();
        assert!(fwd.ok && bwd.ok);

        let materialized = s1
            .compose(&s2)
            .unwrap()
            .structure
            .hide(&["m_req", "m_ack"])
            .unwrap();
        assert!(materialized.equivalent_to(&spec).unwrap());
        // The lazy path materializes the same determinized states as the
        // hide() subset construction, at most.
        assert!(lazy.subset_states() <= materialized.num_states());

        // A wrong spec must be rejected identically, with a witness.
        let mut wrong = TraceStructure::new();
        let wa = wrong.add_symbol("a_req", Dir::Input);
        let wb = wrong.add_symbol("a_ack", Dir::Output);
        let w1 = wrong.add_state();
        wrong.add_transition(0, wb, w1); // acks before any request
        wrong.add_transition(w1, wa, 0);
        let mut lazy2 = HiddenComposition::new(&s1, &s2, &["m_req", "m_ack"]).unwrap();
        let fwd2 = lazy2.conforms_to(&wrong).unwrap();
        let bwd2 = lazy2.conformed_by(&wrong).unwrap();
        assert_eq!(fwd2.ok, materialized.conforms_to(&wrong).unwrap());
        assert_eq!(bwd2.ok, wrong.conforms_to(&materialized).unwrap());
        assert!(!(fwd2.ok && bwd2.ok));
        assert!(fwd2.counterexample.is_some() || bwd2.counterexample.is_some());
    }

    #[test]
    fn hidden_composition_propagates_setup_errors() {
        let t = handshake_echo();
        assert!(matches!(
            HiddenComposition::new(&t, &t.mirror(), &["zap"]),
            Err(TraceError::UnknownSymbol { .. })
        ));
        let mut a = TraceStructure::new();
        a.add_symbol("x", Dir::Output);
        let mut b = TraceStructure::new();
        b.add_symbol("x", Dir::Output);
        assert!(matches!(
            HiddenComposition::new(&a, &b, &[]),
            Err(TraceError::OutputConflict { .. })
        ));
    }
}
