//! Golden pin of the CH-level kernels over a corpus slice.
//!
//! The first 40 designs of corpus seed 7 go through `balsa_to_ch`, `T2`
//! clustering, CH→BMS compilation of every final component, and the §4.3
//! on-the-fly ACR verification of each design's first two internal
//! channels. Three FNV-1a digests cover everything those layers print:
//!
//! * `T2`: every final component's name and `print_ch` text plus the full
//!   `ClusterReport`, rejection reasons included;
//! * CH→BMS: the `compile_to_bm` text of every final component;
//! * ACR: each verdict with its counterexample (or the error text).
//!
//! The digests were recorded from the string- and hash-map-based kernels;
//! any rewrite of expansion, compilation, trace generation or the
//! trace-structure searches must reproduce them exactly.

use bmbe_core::balsa_to_ch;
use bmbe_core::compile::compile_to_bm;
use bmbe_core::opt::{verify_acr, ClusterOptions};
use bmbe_core::parse::print_ch;
use bmbe_designs::{generate_corpus, CorpusSpec};
use bmbe_flow::cache::codec::fnv64;
use std::fmt::Write;

const DESIGNS: usize = 40;
const ACR_CHANNELS: usize = 2;

const T2_DIGEST: u64 = 0xb33d_2f5a_6114_b8ce;
const BMS_DIGEST: u64 = 0xff50_21ab_d197_38cf;
const ACR_DIGEST: u64 = 0xde4a_c39c_2ee2_b1b1;

/// The three pinned texts, one section per design.
fn kernel_texts() -> (String, String, String) {
    let designs = generate_corpus(&CorpusSpec {
        seed: 7,
        designs: DESIGNS,
    })
    .expect("corpus seed 7 generates");
    let (mut t2, mut bms, mut acr) = (String::new(), String::new(), String::new());
    for design in &designs {
        let ctrl = balsa_to_ch(&design.compiled.netlist)
            .unwrap_or_else(|e| panic!("{}: translate: {e}", design.name));
        for ch in ctrl.internal_channels().into_iter().take(ACR_CHANNELS) {
            let verdict = verify_acr(
                &ctrl.components[ch.active].program,
                &ctrl.components[ch.passive].program,
                &ch.name,
            );
            let text = match verdict {
                Ok(v) => format!("{v:?}"),
                Err(e) => format!("error: {e}"),
            };
            writeln!(acr, "{} {}: {text}", design.name, ch.name).unwrap();
        }
        let mut clustered = ctrl;
        let report = clustered.t2_clustering(&ClusterOptions::default());
        writeln!(t2, "== {}\n{report:?}", design.name).unwrap();
        writeln!(bms, "== {}", design.name).unwrap();
        for comp in &clustered.components {
            writeln!(t2, "{} = {}", comp.name, print_ch(&comp.program)).unwrap();
            match compile_to_bm(&comp.name, &comp.program) {
                Ok(spec) => writeln!(bms, "{spec}").unwrap(),
                Err(e) => writeln!(bms, "{}: error: {e}", comp.name).unwrap(),
            }
        }
    }
    (t2, bms, acr)
}

#[test]
fn ch_kernels_match_golden_digests() {
    let (t2, bms, acr) = kernel_texts();
    let got = [
        fnv64(t2.as_bytes()),
        fnv64(bms.as_bytes()),
        fnv64(acr.as_bytes()),
    ];
    assert_eq!(
        got,
        [T2_DIGEST, BMS_DIGEST, ACR_DIGEST],
        "CH-kernel golden digests moved (T2, CH->BMS, ACR): got {got:#x?}"
    );
}
