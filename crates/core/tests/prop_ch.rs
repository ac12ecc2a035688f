//! Property-based tests of the CH language: random Burst-Mode aware
//! programs must expand, print/parse roundtrip, compile to valid
//! Burst-Mode machines, synthesize hazard-free, and generate trace
//! structures over exactly the compiled machine's signals.

use bmbe_bm::spec::SignalDir;
use bmbe_bm::synth::{synthesize, MinimizeMode};
use bmbe_core::ast::{check_bm_aware, ChActivity, ChExpr, InterleaveOp};
use bmbe_core::compile::compile_to_bm;
use bmbe_core::expand::expand;
use bmbe_core::parse::{parse_ch, print_ch};
use bmbe_core::trace_gen::trace_of;
use bmbe_trace::Dir;
use proptest::prelude::*;
use std::cell::Cell;

thread_local! {
    static COUNTER: Cell<usize> = const { Cell::new(0) };
}

fn fresh(prefix: &str) -> String {
    COUNTER.with(|c| {
        c.set(c.get() + 1);
        format!("{prefix}{}", c.get())
    })
}

/// Random *active* (BM-aware) expression of bounded depth: the "body" side
/// of a component.
fn arb_active(depth: u32) -> BoxedStrategy<ChExpr> {
    if depth == 0 {
        return Just(()).prop_map(|()| ChExpr::active(fresh("a"))).boxed();
    }
    prop_oneof![
        Just(()).prop_map(|()| ChExpr::active(fresh("a"))),
        (arb_active(depth - 1), arb_active(depth - 1)).prop_map(|(x, y)| ChExpr::op(
            InterleaveOp::Seq,
            x,
            y
        )),
        (arb_active(depth - 1), arb_active(depth - 1)).prop_map(|(x, y)| ChExpr::op(
            InterleaveOp::SeqOv,
            x,
            y
        )),
        (arb_active(depth - 1), arb_active(depth - 1)).prop_map(|(x, y)| ChExpr::op(
            InterleaveOp::EncEarly,
            x,
            y
        )),
        (arb_active(depth - 1), arb_active(depth - 1)).prop_map(|(x, y)| ChExpr::op(
            InterleaveOp::EncMiddle,
            x,
            y
        )),
    ]
    .boxed()
}

/// Random BM-aware *component*: `rep` of a passive enclosure (the standard
/// controller shape) with a random active body, possibly a mutex of such.
fn arb_component() -> impl Strategy<Value = ChExpr> {
    let arm =
        |(body,): (ChExpr,)| ChExpr::op(InterleaveOp::EncEarly, ChExpr::passive(fresh("p")), body);
    prop_oneof![
        arb_active(2).prop_map(move |b| ChExpr::Rep(Box::new(arm((b,))))),
        (arb_active(1), arb_active(1)).prop_map(move |(b1, b2)| {
            ChExpr::Rep(Box::new(ChExpr::op(
                InterleaveOp::Mutex,
                arm((b1,)),
                arm((b2,)),
            )))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_components_are_bm_aware(e in arb_component()) {
        prop_assert!(check_bm_aware(&e).is_ok());
    }

    #[test]
    fn expansion_has_four_events(e in arb_component()) {
        let x = expand(&e).expect("BM-aware programs expand");
        prop_assert_eq!(x.events.len(), 4);
        // Every transition's signal comes from a declared channel.
        let channels = e.channels();
        for t in x.transitions() {
            let chan = t.signal.rsplit_once('_').expect("wire names are chan_suffix").0;
            prop_assert!(channels.contains_key(chan), "{}", t.signal);
        }
    }

    #[test]
    fn print_parse_roundtrip(e in arb_component()) {
        let text = print_ch(&e);
        let back = parse_ch(&text).expect("printer emits valid syntax");
        prop_assert_eq!(back, e);
    }

    #[test]
    fn compile_yields_valid_bm(e in arb_component()) {
        let spec = compile_to_bm("prop", &e).expect("BM-aware programs compile");
        // compile_to_bm validates internally; sanity-check shape here.
        prop_assert!(spec.num_states() >= 2);
        prop_assert!(!spec.arcs().is_empty());
    }

    #[test]
    fn synthesis_is_hazard_free(e in arb_component()) {
        let spec = compile_to_bm("prop", &e).expect("compiles");
        if spec.signals().len() > 16 {
            return Ok(()); // keep the property fast
        }
        let ctrl = synthesize(&spec, MinimizeMode::Speed).expect("synthesizes");
        prop_assert!(ctrl.verify_ternary().is_ok());
    }

    /// The CH→BMS compiler and trace generation walk the same interned
    /// expansion: the trace alphabet must be the machine's signal set, with
    /// the same directions.
    #[test]
    fn trace_alphabet_matches_compiled_signals(e in arb_component()) {
        let spec = compile_to_bm("prop", &e).expect("compiles");
        let trace = trace_of(&e).expect("BM-aware programs generate traces");
        let mut signals: Vec<(String, Dir)> = spec
            .signals()
            .iter()
            .map(|s| {
                let dir = match s.dir {
                    SignalDir::Input => Dir::Input,
                    SignalDir::Output => Dir::Output,
                };
                (s.name.clone(), dir)
            })
            .collect();
        let mut symbols = trace.symbols().to_vec();
        signals.sort();
        symbols.sort();
        prop_assert_eq!(symbols, signals);
    }

    #[test]
    fn activity_of_components_is_passive(e in arb_component()) {
        prop_assert_eq!(e.activity(), ChActivity::Passive);
    }
}
