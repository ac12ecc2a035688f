//! Benchmark scenarios and result checks for the four designs.

use crate::sources;
use crate::ssem;
use bmbe_balsa::{compile_procedure, parse, BalsaError, CompiledDesign, ParseError};
use std::collections::HashMap;
use std::fmt;

/// What the benchmark run must satisfy once complete.
#[derive(Debug, Clone)]
pub enum Check {
    /// No functional check beyond completion.
    None,
    /// An output port must have delivered exactly these values.
    OutputEquals {
        /// The port.
        port: String,
        /// The expected sequence.
        values: Vec<u64>,
    },
    /// Memory cells must hold these values.
    MemoryEquals {
        /// The memory name.
        memory: String,
        /// `(address, value)` expectations.
        cells: Vec<(usize, u64)>,
    },
}

/// The scenario parameters (mirrors `bmbe-flow`'s scenario type without
/// depending on it, so this crate stays a leaf).
#[derive(Debug, Clone)]
pub struct DesignScenario {
    /// Activation handshakes to drive.
    pub activation_cycles: usize,
    /// Scripted input values per port.
    pub input_values: HashMap<String, Vec<u64>>,
    /// Memory preloads.
    pub memory_init: HashMap<String, Vec<u64>>,
    /// Completion: `(kind, port, count)` where kind is `"sync"`,
    /// `"output"`, or `"activations"`.
    pub done: (String, String, usize),
    /// Time limit in ps.
    pub max_time: u64,
    /// Functional check.
    pub check: Check,
}

/// A named benchmark design.
pub struct Design {
    /// Display name (as in Table 3).
    pub name: &'static str,
    /// Mini-Balsa source.
    pub source: &'static str,
    /// The compiled netlist.
    pub compiled: CompiledDesign,
    /// Its benchmark scenario.
    pub scenario: DesignScenario,
}

/// Errors constructing the designs.
#[derive(Debug)]
pub enum DesignError {
    /// Parse failure (a bug in the shipped sources).
    Parse(ParseError),
    /// Compile failure.
    Compile(BalsaError),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::Parse(e) => write!(f, "parse: {e}"),
            DesignError::Compile(e) => write!(f, "compile: {e}"),
        }
    }
}

impl std::error::Error for DesignError {}

fn build(name: &'static str, source: &'static str) -> Result<CompiledDesign, DesignError> {
    let _ = name;
    let prog = parse(source).map_err(DesignError::Parse)?;
    compile_procedure(&prog.procedures[0]).map_err(DesignError::Compile)
}

/// The systolic counter benchmark: one full 8-handshake cycle (one `done`).
pub fn systolic_counter() -> Result<Design, DesignError> {
    Ok(Design {
        name: "Systolic counter",
        source: sources::SYSTOLIC_COUNTER,
        compiled: build("counter8", sources::SYSTOLIC_COUNTER)?,
        scenario: DesignScenario {
            activation_cycles: 1,
            input_values: HashMap::new(),
            memory_init: HashMap::new(),
            done: ("sync".into(), "done".into(), 1),
            max_time: 200_000_000,
            check: Check::None,
        },
    })
}

/// The wagging register benchmark: forward latency over one full rotation
/// (eight words through the register).
pub fn wagging_register() -> Result<Design, DesignError> {
    let mut input_values = HashMap::new();
    input_values.insert("i".to_string(), (1..=16u64).collect());
    Ok(Design {
        name: "Wagging register",
        source: sources::WAGGING_REGISTER,
        compiled: build("wag8", sources::WAGGING_REGISTER)?,
        scenario: DesignScenario {
            activation_cycles: 1,
            input_values,
            memory_init: HashMap::new(),
            done: ("output".into(), "o".into(), 8),
            max_time: 200_000_000,
            // The first four outputs drain the uninitialized half (zeros),
            // then the first four input words emerge.
            check: Check::OutputEquals {
                port: "o".into(),
                values: vec![0, 0, 0, 0, 1, 2, 3, 4],
            },
        },
    })
}

/// The stack benchmark: three pushes followed by three pops.
pub fn stack() -> Result<Design, DesignError> {
    let mut input_values = HashMap::new();
    input_values.insert("cmd".to_string(), vec![0, 0, 0, 1, 1, 1]);
    input_values.insert("din".to_string(), vec![11, 22, 33]);
    Ok(Design {
        name: "Stack",
        source: sources::STACK,
        compiled: build("stack8", sources::STACK)?,
        scenario: DesignScenario {
            activation_cycles: 1,
            input_values,
            memory_init: HashMap::new(),
            done: ("output".into(), "dout".into(), 3),
            max_time: 200_000_000,
            check: Check::OutputEquals {
                port: "dout".into(),
                values: vec![33, 22, 11],
            },
        },
    })
}

/// The SSEM benchmark: the paper's program writing 0..4 to consecutive
/// memory locations, run to the `STP` instruction.
pub fn ssem_core() -> Result<Design, DesignError> {
    let mut memory_init = HashMap::new();
    memory_init.insert("m".to_string(), ssem::benchmark_program());
    Ok(Design {
        name: "Microprocessor core",
        source: sources::SSEM,
        compiled: build("ssem", sources::SSEM)?,
        scenario: DesignScenario {
            activation_cycles: 1,
            input_values: HashMap::new(),
            memory_init,
            done: ("sync".into(), "halt".into(), 1),
            max_time: 2_000_000_000,
            check: Check::MemoryEquals {
                memory: "m".into(),
                cells: ssem::benchmark_expectation(),
            },
        },
    })
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent per-design seed from a fleet-wide root seed, the
/// design's name, its family parameters, and a stream index (replica round,
/// variant stream, ...). Two designs in one batch — or two replicas of one
/// design — therefore never draw the same scenario-variant sequence, which
/// a plain `root + index` scheme cannot guarantee (every design of a
/// replica round used to share one stream). The mixing is FNV-1a over the
/// name and parameter bytes followed by a splitmix64 finalizer, so a
/// one-character name difference decorrelates the whole stream.
pub fn derive_seed(root: u64, name: &str, params: &str, index: u64) -> u64 {
    let mut h = root ^ 0x243f_6a88_85a3_08d3;
    for b in name.bytes().chain([0u8]).chain(params.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        h = h.rotate_left(23);
    }
    h ^= index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut h)
}

/// Generates `n` scenario variants of a design's benchmark scenario for
/// batched (bit-parallel) simulation: variant 0 is the base scenario
/// verbatim; later variants keep the protocol shape (done condition kind,
/// memory preloads, and any control-scripting port such as the stack's
/// `cmd`) but randomize the scripted *data* values from a deterministic
/// `seed`, and every fourth variant additionally sweeps the run *length* —
/// activation cycles and the done-condition count scale together by 2–4× —
/// so a batch is a mix of short and long lanes rather than sixty-four
/// copies of the same trace length. Variants beyond the base carry
/// [`Check::None`] — their expected outcome is whatever the event-engine
/// oracle computes, which is exactly what the compiled-vs-event
/// differential tests assert.
///
/// Length sweeps are skipped for designs with memory preloads (the SSEM):
/// a preloaded program runs to its own halt exactly once, so its done
/// count cannot be multiplied.
pub fn scenario_variants(design: &Design, n: usize, seed: u64) -> Vec<DesignScenario> {
    // The per-design stream is derived from the design's name, so two
    // designs sharing one fleet seed never replay each other's variant
    // sequence (see [`derive_seed`]).
    variants_of(&design.scenario, n, derive_seed(seed, design.name, "", 0))
}

/// [`scenario_variants`] for a bare scenario — the batch driver's sim
/// stage works from a [`DesignScenario`] supplied per job, without a
/// [`Design`] wrapper.
pub fn variants_of(base: &DesignScenario, n: usize, seed: u64) -> Vec<DesignScenario> {
    (0..n)
        .map(|k| {
            // Each variant draws from its own stream derived from (seed,
            // variant index): variant k's data is a pure function of the
            // pair, independent of how many ports earlier variants
            // randomized — so inserting a port or reordering variants
            // never reshuffles every later variant's values. Ports draw
            // from the stream in name order, never in the map's
            // per-process hash order.
            let mut rng =
                seed ^ 0xd6e8_feb8_6659_fd93 ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut s = base.clone();
            if k > 0 {
                // Command/selector scripts steer control flow; changing
                // them changes the handshake count the done condition
                // waits for, so only data ports vary (the scripts cycle,
                // so longer variants replay the same balanced commands).
                let mut ports: Vec<_> = s
                    .input_values
                    .iter_mut()
                    .filter(|(port, _)| *port != "cmd")
                    .collect();
                ports.sort_unstable_by(|a, b| a.0.cmp(b.0));
                for (_, values) in ports {
                    for v in values.iter_mut() {
                        *v = splitmix64(&mut rng) & 0xff;
                    }
                }
                if k % 4 == 3 && base.memory_init.is_empty() {
                    let m = 2 + (k / 4) % 3;
                    s.activation_cycles *= m;
                    s.done.2 *= m;
                }
                s.check = Check::None;
            }
            s
        })
        .collect()
}

/// All four designs in Table 3 order.
///
/// # Errors
///
/// Propagates construction failures (which indicate shipped-source bugs).
pub fn all_designs() -> Result<Vec<Design>, DesignError> {
    Ok(vec![
        systolic_counter()?,
        wagging_register()?,
        stack()?,
        ssem_core()?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_designs_build() {
        let designs = all_designs().unwrap();
        assert_eq!(designs.len(), 4);
        assert_eq!(designs[0].name, "Systolic counter");
        assert_eq!(designs[3].name, "Microprocessor core");
    }

    #[test]
    fn variants_preserve_shape_and_are_deterministic() {
        let stack = stack().unwrap();
        let a = scenario_variants(&stack, 8, 42);
        let b = scenario_variants(&stack, 8, 42);
        assert_eq!(a.len(), 8);
        // Variant 0 is the base scenario.
        assert_eq!(a[0].input_values, stack.scenario.input_values);
        assert!(matches!(a[0].check, Check::OutputEquals { .. }));
        for (k, v) in a.iter().enumerate().skip(1) {
            // Protocol shape survives: same ports, same lengths, same cmd.
            assert_eq!(v.input_values["cmd"], stack.scenario.input_values["cmd"]);
            assert_eq!(
                v.input_values["din"].len(),
                stack.scenario.input_values["din"].len()
            );
            assert!(matches!(v.check, Check::None), "variant {k}");
            // Every fourth variant sweeps the run length; the rest keep the
            // base done count. Either way the done kind and port survive.
            assert_eq!(v.done.0, stack.scenario.done.0);
            assert_eq!(v.done.1, stack.scenario.done.1);
            if k % 4 == 3 {
                let m = 2 + (k / 4) % 3;
                assert_eq!(v.done.2, stack.scenario.done.2 * m, "variant {k}");
                assert_eq!(
                    v.activation_cycles,
                    stack.scenario.activation_cycles * m,
                    "variant {k}"
                );
            } else {
                assert_eq!(v.done, stack.scenario.done);
                assert_eq!(v.activation_cycles, stack.scenario.activation_cycles);
            }
            // Deterministic for a fixed seed.
            assert_eq!(v.input_values, b[k].input_values);
        }
        // A different seed varies the data.
        let c = scenario_variants(&stack, 8, 43);
        assert_ne!(a[1].input_values["din"], c[1].input_values["din"]);
    }

    #[test]
    fn length_sweeps_skip_memory_preloaded_designs() {
        // The SSEM runs its preloaded program to a single halt; its done
        // count must never be multiplied.
        let ssem = ssem_core().unwrap();
        for (k, v) in scenario_variants(&ssem, 12, 7).iter().enumerate() {
            assert_eq!(v.done, ssem.scenario.done, "variant {k}");
            assert_eq!(v.activation_cycles, ssem.scenario.activation_cycles);
        }
    }

    #[test]
    fn per_design_streams_are_independent() {
        // Two designs sharing one fleet seed must not draw identical
        // variant sequences (the old shared-stream seeding did exactly
        // that for designs in the same replica round).
        let stack = stack().unwrap();
        let wag = wagging_register().unwrap();
        let sv = scenario_variants(&stack, 8, 42);
        let wv = scenario_variants(&wag, 8, 42);
        assert_ne!(sv[1].input_values["din"], wv[1].input_values["i"]);
        // derive_seed separates name, params, and index dimensions.
        assert_ne!(derive_seed(1, "a", "", 0), derive_seed(1, "b", "", 0));
        assert_ne!(derive_seed(1, "a", "n=2", 0), derive_seed(1, "a", "n=3", 0));
        assert_ne!(derive_seed(1, "a", "", 0), derive_seed(1, "a", "", 1));
        assert_ne!(derive_seed(1, "ab", "c", 0), derive_seed(1, "a", "bc", 0));
        assert_eq!(derive_seed(7, "x", "p", 3), derive_seed(7, "x", "p", 3));
    }

    #[test]
    fn variant_data_is_a_function_of_seed_and_index() {
        // Variant k's data must not depend on how many variants were
        // generated before it: the 6th variant of an 8-variant run equals
        // the 6th variant of a 64-variant run.
        let stack = stack().unwrap();
        let short = variants_of(&stack.scenario, 8, 99);
        let long = variants_of(&stack.scenario, 64, 99);
        for k in 0..8 {
            assert_eq!(short[k].input_values, long[k].input_values, "variant {k}");
        }
    }

    #[test]
    fn variant_data_does_not_depend_on_port_map_order() {
        // Several randomized ports share one stream per variant; which port
        // gets which values must not follow a map's hash order, which
        // differs between map instances and between processes.
        let base = DesignScenario {
            activation_cycles: 4,
            input_values: ["a", "b", "c", "d", "cmd"]
                .iter()
                .map(|p| (p.to_string(), vec![1, 2, 3]))
                .collect(),
            memory_init: HashMap::new(),
            done: ("activations".into(), String::new(), 4),
            max_time: 1_000_000,
            check: Check::None,
        };
        let reference = variants_of(&base, 4, 5);
        for _ in 0..16 {
            let mut rebuilt = base.clone();
            rebuilt.input_values = base.input_values.clone().into_iter().collect();
            let variants = variants_of(&rebuilt, 4, 5);
            for (k, (v, r)) in variants.iter().zip(&reference).enumerate() {
                assert_eq!(v.input_values, r.input_values, "variant {k}");
            }
        }
    }

    #[test]
    fn control_dominance_ordering() {
        // The systolic counter is pure control; the SSEM is datapath-heavy
        // (the paper's explanation of the improvement gradient).
        let designs = all_designs().unwrap();
        let ratio = |d: &Design| {
            let p = d.compiled.netlist.partition();
            p.control.len() as f64 / (p.control.len() + p.datapath.len()).max(1) as f64
        };
        assert!(ratio(&designs[0]) > ratio(&designs[3]));
    }
}
