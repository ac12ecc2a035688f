//! The generated design corpus: parametric families plus a seeded random
//! mini-Balsa program generator (ROADMAP item 4).
//!
//! Four paper benchmarks cannot exercise a production back-end: the cache,
//! the batch driver, the event engine, and the compiled simulator need
//! realistic *distributions* of shapes, not the same four digests. This
//! module emits hundreds of distinct designs, every one as real mini-Balsa
//! source that goes through [`bmbe_balsa::parse`] and
//! [`bmbe_balsa::compile_procedure`] exactly like a user program:
//!
//! * **pipeline** — an `n`-stage, `w`-bit shift register (`o <- s_{n-1};
//!   shift; i -> s_0` per cycle);
//! * **calltree** — an `m`-way call component: one `shared` emitter with
//!   `m` call sites selected by a scripted `case` (the fodder for the
//!   paper's Call Distribution);
//! * **ring** — an `n`-place token ring rotating and incrementing a value
//!   each lap, emitting it;
//! * **wagging** — a `2k`-place wagging chain at width `w`, modelled on the
//!   Table 3 wagging register: input fills one half while the other drains
//!   in parallel;
//! * **rnd** — a seeded random program over the terminating grammar subset
//!   (seq, par over disjoint resources, `if`/`case` with `else`, channel
//!   I/O, memory writes) wrapped in the standard activation loop.
//!
//! Every design carries a deterministic functional [`Check`] where the
//! family semantics are simple enough to model (the random family relies on
//! the differential oracles instead), plus the family name, a canonical
//! parameter string, and the generator seed — enough for any consumer to
//! reproduce one design from a report line (`bmbe gauntlet --seed S --only
//! NAME`).

use crate::scenarios::{derive_seed, splitmix64, Check, DesignError, DesignScenario};
use bmbe_balsa::{compile_procedure, parse, CompiledDesign};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A corpus design: like [`crate::scenarios::Design`] but owning its name
/// and source (generated, not shipped), and carrying its provenance.
pub struct GeneratedDesign {
    /// Unique name, also the procedure name (e.g. `pipe_n4_w8`).
    pub name: String,
    /// Family tag: `pipeline`, `calltree`, `ring`, `wagging`, or `rnd`.
    pub family: &'static str,
    /// Canonical parameter string (e.g. `n=4,w=8`).
    pub params: String,
    /// The generator seed that produced this design (the corpus seed for
    /// parametric families, the per-program seed for the random family).
    pub seed: u64,
    /// The emitted mini-Balsa source.
    pub source: String,
    /// The design compiled through the front end.
    pub compiled: CompiledDesign,
    /// Its benchmark scenario.
    pub scenario: DesignScenario,
}

/// What to generate: a fixed-seed corpus is a pure function of this spec,
/// so any slice of it is reproducible from `(seed, designs)` alone.
#[derive(Debug, Clone, Copy)]
pub struct CorpusSpec {
    /// Root seed; every random program derives its own seed from this via
    /// [`derive_seed`].
    pub seed: u64,
    /// Total designs to emit (families round-robin, sizes growing).
    pub designs: usize,
}

fn mask(w: u32) -> u64 {
    if w >= 64 {
        !0
    } else {
        (1u64 << w) - 1
    }
}

fn build_design(
    name: String,
    family: &'static str,
    params: String,
    seed: u64,
    source: String,
    scenario: DesignScenario,
) -> Result<GeneratedDesign, DesignError> {
    let prog = parse(&source).map_err(DesignError::Parse)?;
    let compiled = compile_procedure(&prog.procedures[0]).map_err(DesignError::Compile)?;
    Ok(GeneratedDesign {
        name,
        family,
        params,
        seed,
        source,
        compiled,
        scenario,
    })
}

/// An `n`-stage, `w`-bit pipeline: per activation cycle the oldest word is
/// emitted, the register file shifts, and a new word is read. Latency is
/// `n-1` cycles, so the first `n-1` outputs drain zeros.
pub fn pipeline(n: usize, w: u32, seed: u64) -> Result<GeneratedDesign, DesignError> {
    let n = n.max(1);
    let name = format!("pipe_n{n}_w{w}");
    let mut src = format!("-- generated: {n}-stage {w}-bit pipeline\n");
    let _ = writeln!(src, "procedure {name} (input i : {w} bits; output o : {w} bits) is");
    for k in 0..n {
        let _ = writeln!(src, "  variable s{k} : {w} bits");
    }
    src.push_str("begin\n  loop\n");
    if n == 1 {
        src.push_str("    i -> s0 ;\n    o <- s0\n");
    } else {
        let _ = writeln!(src, "    o <- s{} ;", n - 1);
        for k in (1..n).rev() {
            let _ = writeln!(src, "    s{k} := s{} ;", k - 1);
        }
        src.push_str("    i -> s0\n");
    }
    src.push_str("  end\nend\n");

    // Scripted inputs and the modelled expectation.
    let done_count = n + 2;
    let inputs: Vec<u64> = (0..done_count as u64)
        .map(|t| (seed.wrapping_add(t).wrapping_mul(0x9e37_79b9) | 1) & mask(w))
        .collect();
    let mut regs = vec![0u64; n];
    let mut expect = Vec::with_capacity(done_count);
    for &v in &inputs {
        if n == 1 {
            regs[0] = v;
            expect.push(v);
        } else {
            expect.push(regs[n - 1]);
            for k in (1..n).rev() {
                regs[k] = regs[k - 1];
            }
            regs[0] = v;
        }
    }
    let mut input_values = HashMap::new();
    input_values.insert("i".to_string(), inputs);
    build_design(
        name,
        "pipeline",
        format!("n={n},w={w}"),
        seed,
        src,
        DesignScenario {
            activation_cycles: 1,
            input_values,
            memory_init: HashMap::new(),
            done: ("output".into(), "o".into(), done_count),
            max_time: 200_000_000,
            check: Check::OutputEquals {
                port: "o".into(),
                values: expect,
            },
        },
    )
}

/// An `m`-way call tree at width `w`: one `shared` emitter with `m` call
/// sites, one per arm of a scripted `case` — after compilation an `m`-input
/// call component, the structure the paper's Call Distribution rewrites.
pub fn call_tree(m: usize, w: u32, seed: u64) -> Result<GeneratedDesign, DesignError> {
    let m = m.max(2);
    let sb = (usize::BITS - (m - 1).leading_zeros()).max(1);
    let name = format!("call_m{m}_w{w}");
    let mut src = format!("-- generated: {m}-way call tree, {w}-bit data\n");
    let _ = writeln!(
        src,
        "procedure {name} (input sel : {sb} bits; input i : {w} bits; output o : {w} bits) is"
    );
    let _ = writeln!(src, "  variable x : {w} bits");
    let _ = writeln!(src, "  variable s : {sb} bits");
    src.push_str("  shared emit is begin o <- x end\nbegin\n  loop\n    sel -> s ;\n    i -> x ;\n    case s of\n");
    for arm in 0..m - 1 {
        let sep = if arm == 0 { "     " } else { "    |" };
        let _ = writeln!(src, "{sep} {arm} then emit ()");
    }
    src.push_str("    else emit ()\n    end\n  end\nend\n");

    let inputs: Vec<u64> = (0..m as u64)
        .map(|t| (seed.wrapping_add(t).wrapping_mul(0x2545_f491) | 1) & mask(w))
        .collect();
    let mut input_values = HashMap::new();
    input_values.insert("sel".to_string(), (0..m as u64).collect());
    input_values.insert("i".to_string(), inputs.clone());
    build_design(
        name,
        "calltree",
        format!("m={m},w={w}"),
        seed,
        src,
        DesignScenario {
            activation_cycles: 1,
            input_values,
            memory_init: HashMap::new(),
            done: ("output".into(), "o".into(), m),
            max_time: 200_000_000,
            check: Check::OutputEquals {
                port: "o".into(),
                values: inputs,
            },
        },
    )
}

/// An `n`-place token ring: the token rotates through all places each lap,
/// is incremented, and the new value is emitted — lap `t` (1-based) emits
/// `t + 1` modulo the width.
pub fn token_ring(n: usize, w: u32, seed: u64) -> Result<GeneratedDesign, DesignError> {
    let n = n.max(1);
    let name = format!("ring_n{n}_w{w}");
    let mut src = format!("-- generated: {n}-place token ring, {w}-bit token\n");
    let _ = writeln!(src, "procedure {name} (output o : {w} bits) is");
    for k in 0..n {
        let _ = writeln!(src, "  variable v{k} : {w} bits");
    }
    src.push_str("begin\n  v0 := 1 ;\n  loop\n");
    for k in 1..n {
        let _ = writeln!(src, "    v{k} := v{} ;", k - 1);
    }
    if n > 1 {
        let _ = writeln!(src, "    v0 := v{} + 1 ;", n - 1);
    } else {
        src.push_str("    v0 := v0 + 1 ;\n");
    }
    src.push_str("    o <- v0\n  end\nend\n");

    // Both engines carry raw 64-bit values (no width masking), so lap `t`
    // emits exactly `t + 1` regardless of the declared width.
    let laps = 3;
    let expect: Vec<u64> = (2..2 + laps as u64).collect();
    build_design(
        name,
        "ring",
        format!("n={n},w={w}"),
        seed,
        src,
        DesignScenario {
            activation_cycles: 1,
            input_values: HashMap::new(),
            memory_init: HashMap::new(),
            done: ("output".into(), "o".into(), laps),
            max_time: 200_000_000,
            check: Check::OutputEquals {
                port: "o".into(),
                values: expect,
            },
        },
    )
}

/// A `2k`-place wagging chain at width `w`: each cycle pairs an input into
/// one half with an output draining the other, input and output proceeding
/// in parallel — the Table 3 wagging register generalized to depth `k`.
pub fn wagging_chain(k: usize, w: u32, seed: u64) -> Result<GeneratedDesign, DesignError> {
    let k = k.max(1);
    let places = 2 * k;
    let name = format!("wag_k{k}_w{w}");
    let mut src = format!("-- generated: {places}-place wagging chain, {w}-bit words\n");
    let _ = writeln!(src, "procedure {name} (input i : {w} bits; output o : {w} bits) is");
    for p in 0..places {
        let _ = writeln!(src, "  variable r{p} : {w} bits");
    }
    src.push_str("begin\n  loop\n");
    for p in 0..places {
        let sep = if p + 1 < places { " ;" } else { "" };
        let _ = writeln!(src, "    ( i -> r{p} || o <- r{} ){sep}", (p + k) % places);
    }
    src.push_str("  end\nend\n");

    // One full rotation: the first k outputs drain the uninitialized
    // opposite half (zeros), then the first k input words emerge.
    let inputs: Vec<u64> = (0..places as u64)
        .map(|t| (seed.wrapping_add(t).wrapping_mul(0x9e37_79b9) | 1) & mask(w))
        .collect();
    let mut expect = vec![0u64; k];
    expect.extend_from_slice(&inputs[..k]);
    let mut input_values = HashMap::new();
    input_values.insert("i".to_string(), inputs);
    build_design(
        name,
        "wagging",
        format!("k={k},w={w}"),
        seed,
        src,
        DesignScenario {
            activation_cycles: 1,
            input_values,
            memory_init: HashMap::new(),
            done: ("output".into(), "o".into(), places),
            max_time: 200_000_000,
            check: Check::OutputEquals {
                port: "o".into(),
                values: expect,
            },
        },
    )
}

/// The random-program generator's mutable state.
struct Gen {
    rng: u64,
    w: u32,
    vars: Vec<String>,
    inputs: Vec<String>,
    extra_out: Option<String>,
    sync: Option<String>,
    memory: bool,
    atoms_left: usize,
}

impl Gen {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    fn pick<'a>(&mut self, xs: &'a [String]) -> &'a str {
        let i = (self.next() % xs.len() as u64) as usize;
        &xs[i]
    }

    /// A random expression over variables, literals, and memory reads —
    /// every operator the four benchmarks exercise, depth-bounded.
    fn expr(&mut self, depth: usize) -> String {
        let vars = self.vars.clone();
        if depth == 0 || self.next() % 3 == 0 {
            return match self.next() % 4 {
                0 => format!("{}", self.next() & mask(self.w)),
                1 | 2 => self.pick(&vars).to_string(),
                _ if self.memory => format!("mm[{}]", self.next() % 4),
                _ => self.pick(&vars).to_string(),
            };
        }
        let a = self.expr(depth - 1);
        let b = self.expr(depth - 1);
        match self.next() % 8 {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} and {b})"),
            3 => format!("({a} or {b})"),
            4 => format!("({a} xor {b})"),
            5 => format!("not {a}"),
            6 => format!("({a} = {b})"),
            _ => format!("zero({a})"),
        }
    }

    /// A random command from the terminating subset. No inner `loop` or
    /// `while`: the only unbounded iteration is the standard outer
    /// activation loop, so every generated iteration finishes.
    fn cmd(&mut self, depth: usize) -> String {
        if self.atoms_left > 0 {
            self.atoms_left -= 1;
        }
        let vars = self.vars.clone();
        let inputs = self.inputs.clone();
        let choice = if depth == 0 || self.atoms_left == 0 {
            self.next() % 5
        } else {
            self.next() % 10
        };
        match choice {
            0 => {
                let i = self.pick(&inputs).to_string();
                let v = self.pick(&vars).to_string();
                format!("{i} -> {v}")
            }
            1 | 2 => {
                let v = self.pick(&vars).to_string();
                let e = self.expr(2);
                format!("{v} := {e}")
            }
            3 => match (self.extra_out.clone(), self.sync.clone()) {
                (Some(o), _) => {
                    let e = self.expr(1);
                    format!("{o} <- {e}")
                }
                (None, Some(s)) => format!("sync {s}"),
                (None, None) => "continue".to_string(),
            },
            4 => {
                if self.memory {
                    let a = self.next() % 4;
                    let e = self.expr(1);
                    format!("mm[{a}] := {e}")
                } else {
                    let v = self.pick(&vars).to_string();
                    let e = self.expr(1);
                    format!("{v} := {e}")
                }
            }
            5 | 6 => {
                let a = self.cmd(depth - 1);
                let b = self.cmd(depth - 1);
                format!("( {a} ;\n      {b} )")
            }
            7 => {
                let e = self.expr(1);
                let a = self.cmd(depth - 1);
                let b = self.cmd(depth - 1);
                format!("if {e} then\n      {a}\n    else\n      {b}\n    end")
            }
            8 => {
                let e = self.expr(1);
                let a = self.cmd(depth - 1);
                let b = self.cmd(depth - 1);
                let c = self.cmd(depth - 1);
                format!(
                    "case {e} of\n      0 then {a}\n    | 1 then {b}\n    else {c}\n    end"
                )
            }
            _ => {
                // Parallel composition over disjoint resources only: a
                // receive into one variable alongside traffic that cannot
                // touch that variable or its port (hazard-free by
                // construction, like the wagging register's pairs).
                let i = self.pick(&inputs).to_string();
                let v = vars[0].clone();
                let rhs = match (&self.extra_out, &self.sync) {
                    (Some(o), _) if vars.len() > 1 => format!("{o} <- {}", vars[1]),
                    (_, Some(s)) => format!("sync {s}"),
                    _ => "continue".to_string(),
                };
                format!("( {i} -> {v} || {rhs} )")
            }
        }
    }
}

/// A seeded random mini-Balsa program: random port/variable/memory shape,
/// a depth-bounded random body from the terminating grammar subset, and a
/// guaranteed trailing send on the designated done port. The program is a
/// pure function of `seed`. Its scenario carries [`Check::None`]: the
/// expected behaviour is whatever the event-engine oracle computes, which
/// is exactly what the differential gauntlet asserts.
pub fn random_design(seed: u64) -> Result<GeneratedDesign, DesignError> {
    let mut rng = seed;
    let w = [1u32, 2, 4, 8][(splitmix64(&mut rng) % 4) as usize];
    let n_in = 1 + (splitmix64(&mut rng) % 2) as usize;
    let n_vars = 2 + (splitmix64(&mut rng) % 2) as usize;
    let extra_out = splitmix64(&mut rng) % 3 == 0;
    let with_sync = splitmix64(&mut rng) % 3 == 0;
    let memory = splitmix64(&mut rng) % 3 == 0;
    let name = format!("rnd_{seed:08x}");

    let inputs: Vec<String> = (0..n_in).map(|k| format!("ia{k}")).collect();
    let vars: Vec<String> = (0..n_vars).map(|k| format!("v{k}")).collect();
    let mut g = Gen {
        rng,
        w,
        vars: vars.clone(),
        inputs: inputs.clone(),
        extra_out: extra_out.then(|| "oy".to_string()),
        sync: with_sync.then(|| "sc".to_string()),
        memory,
        atoms_left: 10,
    };

    let mut ports: Vec<String> = inputs.iter().map(|i| format!("input {i} : {w} bits")).collect();
    ports.push(format!("output oz : {w} bits"));
    if extra_out {
        ports.push(format!("output oy : {w} bits"));
    }
    if with_sync {
        ports.push("sync sc".to_string());
    }

    let mut src = format!("-- generated: random program, seed {seed:#x}\n");
    let _ = writeln!(src, "procedure {name} ({}) is", ports.join("; "));
    for v in &vars {
        let _ = writeln!(src, "  variable {v} : {w} bits");
    }
    if memory {
        let _ = writeln!(src, "  memory mm : 4 words of {w} bits");
    }
    src.push_str("begin\n  loop\n");
    // Prologue: engage every declared resource once per iteration. The
    // front end allocates at least one write site per variable and one
    // read+write pair per memory, so a resource the random body happens
    // not to touch would leave a dangling channel in the netlist.
    for (k, i) in inputs.iter().enumerate() {
        let _ = writeln!(src, "    {i} -> {} ;", vars[k % vars.len()]);
    }
    for v in vars.iter().skip(n_in.min(vars.len())) {
        let e = g.expr(1);
        let _ = writeln!(src, "    {v} := {e} ;");
    }
    if memory {
        let _ = writeln!(src, "    mm[0] := {} ;", vars[0]);
    }
    if with_sync {
        src.push_str("    sync sc ;\n");
    }
    if extra_out {
        let _ = writeln!(src, "    oy <- {} ;", vars[0]);
    }
    let prefix_cmds = 1 + (g.next() % 3) as usize;
    for _ in 0..prefix_cmds {
        let c = g.cmd(2);
        let _ = writeln!(src, "    {c} ;");
    }
    // Epilogue: the designated done port is sent exactly once per
    // iteration, never inside the random prefix, so the done count equals
    // the iteration count; the payload reads every variable (and the
    // memory when present) so nothing is write-only.
    let mut all = vars[0].clone();
    for v in &vars[1..] {
        all = format!("({all} xor {v})");
    }
    if memory {
        all = format!("({all} xor mm[1])");
    }
    let _ = writeln!(src, "    oz <- {all}");
    src.push_str("  end\nend\n");

    let iters = 2 + (g.next() % 2) as usize;
    let mut input_values = HashMap::new();
    for i in &inputs {
        // Scripts cycle in both engines, so eight values cover any number
        // of receives deterministically.
        let vals: Vec<u64> = (0..8).map(|_| g.next() & mask(w)).collect();
        input_values.insert(i.clone(), vals);
    }
    build_design(
        name,
        "rnd",
        format!("w={w},in={n_in}"),
        seed,
        src,
        DesignScenario {
            activation_cycles: 1,
            input_values,
            memory_init: HashMap::new(),
            done: ("output".into(), "oz".into(), iters),
            max_time: 200_000_000,
            check: Check::None,
        },
    )
}

/// Generates a deterministic corpus slice: families round-robin with
/// growing sizes, interleaved with random programs (three random designs
/// per round of four parametric ones). A slice of `(seed, n)` is always a
/// prefix of `(seed, m >= n)`, so "the first 200 designs of seed 7" names
/// one reproducible set forever.
///
/// # Errors
///
/// Propagates front-end failures (a bug in an emitter or in the random
/// generator — the round-trip property tests pin this never happens).
pub fn generate_corpus(spec: &CorpusSpec) -> Result<Vec<GeneratedDesign>, DesignError> {
    let widths = [8u32, 4, 2, 1];
    let mut out = Vec::with_capacity(spec.designs);
    let mut round = 0usize;
    while out.len() < spec.designs {
        let w = widths[round % widths.len()];
        let builders: [fn(usize, u32, u64) -> Result<GeneratedDesign, DesignError>; 4] =
            [pipeline, call_tree, token_ring, wagging_chain];
        for (f, build) in builders.iter().enumerate() {
            if out.len() >= spec.designs {
                break;
            }
            // Size grows with the round; each family sees every width.
            let size = 1 + (round + f) % 7;
            let d = build(size + 1, w, spec.seed)?;
            // Rounds revisit (size, width) pairs after 28 rounds; dedup by
            // name so the corpus stays distinct designs.
            if out.iter().all(|g: &GeneratedDesign| g.name != d.name) {
                out.push(d);
            }
        }
        for r in 0..3 {
            if out.len() >= spec.designs {
                break;
            }
            let pseed = derive_seed(spec.seed, "rnd", "", (round * 3 + r) as u64);
            out.push(random_design(pseed)?);
        }
        round += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_emit_valid_source() {
        for d in [
            pipeline(4, 8, 7).unwrap(),
            call_tree(4, 8, 7).unwrap(),
            token_ring(3, 8, 7).unwrap(),
            wagging_chain(2, 8, 7).unwrap(),
            random_design(7).unwrap(),
        ] {
            assert!(!d.source.is_empty());
            d.compiled.netlist.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        }
    }

    #[test]
    fn corpus_is_deterministic_and_prefix_stable() {
        let a = generate_corpus(&CorpusSpec { seed: 7, designs: 20 }).unwrap();
        let b = generate_corpus(&CorpusSpec { seed: 7, designs: 20 }).unwrap();
        let long = generate_corpus(&CorpusSpec { seed: 7, designs: 30 }).unwrap();
        assert_eq!(a.len(), 20);
        for ((x, y), z) in a.iter().zip(&b).zip(&long) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.source, y.source);
            assert_eq!(x.name, z.name, "prefix stability");
        }
        // All five families appear in a modest slice.
        for fam in ["pipeline", "calltree", "ring", "wagging", "rnd"] {
            assert!(a.iter().any(|d| d.family == fam), "missing {fam}");
        }
    }

    #[test]
    fn corpus_names_are_unique() {
        let c = generate_corpus(&CorpusSpec { seed: 3, designs: 60 }).unwrap();
        let mut names: Vec<&str> = c.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate corpus design names");
    }

    #[test]
    fn random_designs_differ_across_seeds() {
        let a = random_design(1).unwrap();
        let b = random_design(2).unwrap();
        assert_ne!(a.source, b.source);
        // And are reproducible for one seed.
        let a2 = random_design(1).unwrap();
        assert_eq!(a.source, a2.source);
    }
}
