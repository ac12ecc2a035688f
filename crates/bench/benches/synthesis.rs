//! Criterion micro-benchmarks of the synthesis algorithms: CH-to-BMS
//! compilation, hazard-free minimization, state assignment, clustering,
//! and technology mapping.
//!
//! The `*corpus*` benches run the CH-level kernels over a fixed slice of
//! the generated corpus (the first 40 designs of seed 7), so a change to
//! expansion, compilation, clustering or the §4.3 verifier can be measured
//! on realistic programs without the end-to-end benchmark.

use bmbe_bm::synth::{synthesize, MinimizeMode};
use bmbe_core::compile::compile_to_bm;
use bmbe_core::components::{call, decision_wait, sequencer};
use bmbe_core::opt::cluster::{ClusterOptions, CtrlNetlist};
use bmbe_core::opt::{activation_channel_removal, verify_acr};
use bmbe_core::{balsa_to_ch, ChExpr};
use bmbe_designs::{generate_corpus, CorpusSpec};
use bmbe_gates::{map, Library, MapObjective, MapStyle, SubjectGraph};
use bmbe_logic::Cover;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn names(n: usize, prefix: &str) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// The translated control netlists of the corpus slice.
fn corpus_slice() -> Vec<CtrlNetlist> {
    generate_corpus(&CorpusSpec {
        seed: 7,
        designs: 40,
    })
    .expect("corpus generates")
    .iter()
    .map(|d| balsa_to_ch(&d.compiled.netlist).expect("translates"))
    .collect()
}

/// The merged programs the slice's first-round ACR attempts compile (one
/// per internal channel whose merge passes the structural checks), plus
/// every final clustered component.
fn acr_trial_programs(slice: &[CtrlNetlist]) -> Vec<ChExpr> {
    let mut out = Vec::new();
    for ctrl in slice {
        for ch in ctrl.internal_channels() {
            let merged = activation_channel_removal(
                &ctrl.components[ch.active].program,
                &ctrl.components[ch.passive].program,
                &ch.name,
                None,
            );
            out.extend(merged.ok());
        }
        let mut clustered = ctrl.clone();
        clustered.t2_clustering(&ClusterOptions::default());
        out.extend(clustered.components.into_iter().map(|c| c.program));
    }
    out
}

fn bench_corpus_kernels(c: &mut Criterion) {
    let slice = corpus_slice();
    let trials = acr_trial_programs(&slice);
    let mut g = c.benchmark_group("clustering");
    g.sample_size(10);
    g.bench_function("t2_corpus_slice", |b| {
        b.iter(|| {
            for ctrl in &slice {
                let mut n = ctrl.clone();
                black_box(n.t2_clustering(&ClusterOptions::default()));
            }
        })
    });
    g.finish();
    let mut g = c.benchmark_group("ch_to_bms");
    g.sample_size(10);
    g.bench_function("corpus_acr_trials", |b| {
        b.iter(|| {
            for p in &trials {
                black_box(compile_to_bm("merged", p).expect("trial programs compile"));
            }
        })
    });
    g.finish();
    let mut g = c.benchmark_group("verify_acr");
    g.sample_size(10);
    g.bench_function("corpus_slice", |b| {
        b.iter(|| {
            for ctrl in &slice {
                for ch in ctrl.internal_channels().into_iter().take(2) {
                    black_box(
                        verify_acr(
                            &ctrl.components[ch.active].program,
                            &ctrl.components[ch.passive].program,
                            &ch.name,
                        )
                        .expect("verifier runs"),
                    );
                }
            }
        })
    });
    g.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("ch_to_bms");
    for n in [2usize, 4, 8] {
        let program = sequencer("p", &names(n, "a"));
        g.bench_function(format!("sequencer_{n}"), |b| {
            b.iter(|| compile_to_bm("seq", black_box(&program)).expect("compiles"))
        });
    }
    let dw = decision_wait("a", &names(3, "i"), &names(3, "o"));
    g.bench_function("decision_wait_3", |b| {
        b.iter(|| compile_to_bm("dw", black_box(&dw)).expect("compiles"))
    });
    g.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    let mut g = c.benchmark_group("hazard_free_synthesis");
    g.sample_size(20);
    for n in [2usize, 4, 8] {
        let spec = compile_to_bm("seq", &sequencer("p", &names(n, "a"))).expect("compiles");
        g.bench_function(format!("sequencer_{n}"), |b| {
            b.iter(|| synthesize(black_box(&spec), MinimizeMode::Speed).expect("synthesizes"))
        });
    }
    let spec = compile_to_bm("call", &call(&names(3, "a"), "b")).expect("compiles");
    g.bench_function("call_3", |b| {
        b.iter(|| synthesize(black_box(&spec), MinimizeMode::Speed).expect("synthesizes"))
    });
    g.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut g = c.benchmark_group("clustering");
    g.sample_size(20);
    g.bench_function("t2_seq_call_chain", |b| {
        b.iter(|| {
            let mut netlist = CtrlNetlist::new();
            netlist.add("s1", sequencer("p", &names(2, "m")));
            netlist.add("s2", sequencer("m0", &names(2, "x")));
            netlist.add("s3", sequencer("m1", &names(2, "y")));
            netlist.add("call", call(&["x1".into(), "y1".into()], "c"));
            netlist.t2_clustering(black_box(&ClusterOptions::default()))
        })
    });
    g.finish();
}

fn bench_techmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("technology_mapping");
    let spec = compile_to_bm("seq", &sequencer("p", &names(4, "a"))).expect("compiles");
    let ctrl = synthesize(&spec, MinimizeMode::Speed).expect("synthesizes");
    let functions: Vec<(String, &Cover)> = ctrl
        .outputs
        .iter()
        .cloned()
        .chain((0..ctrl.num_state_bits).map(|j| format!("y{j}")))
        .zip(
            ctrl.output_covers
                .iter()
                .chain(ctrl.next_state_covers.iter()),
        )
        .collect();
    let subject = SubjectGraph::from_covers(ctrl.num_vars(), &functions);
    let lib = Library::cmos035();
    for (label, style) in [
        ("split_modules", MapStyle::SplitModules),
        ("whole_controller", MapStyle::WholeController),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| map(black_box(&subject), &lib, MapObjective::Delay, style))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_synthesis,
    bench_clustering,
    bench_corpus_kernels,
    bench_techmap
);
criterion_main!(benches);
