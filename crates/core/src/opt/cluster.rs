//! The clustering algorithms `T1_clustering` and `T2_clustering` (§4.4).
//!
//! A [`CtrlNetlist`] is the control part of a compiled design: a set of
//! named CH programs wired by shared channel names (each internal
//! point-to-point channel appears actively in one program and passively in
//! another). `T1` repeatedly applies Activation Channel Removal across
//! internal channels; `T2` first splits call components into single-arm
//! fragments, runs `T1`, and restores any call whose fragments failed to
//! cluster into the same final controller.

use crate::ast::{ChActivity, ChExpr, InterleaveOp};
use crate::opt::acr::activation_channel_removal;
use std::fmt;

/// A named control component with its CH program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlComponent {
    /// Component name (unique).
    pub name: String,
    /// The controller's CH program.
    pub program: ChExpr,
}

/// The control netlist the clustering algorithms operate on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtrlNetlist {
    /// The components.
    pub components: Vec<CtrlComponent>,
}

/// Options controlling clustering.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Reject merges whose BM machine exceeds this many states. The paper
    /// notes unlimited clustering blows up synthesis run time (refs. 7 and 11 there); the
    /// BM-aware restrictions already bound growth, and this is an extra
    /// guard.
    pub state_limit: Option<usize>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            state_limit: Some(40),
        }
    }
}

/// Statistics of a clustering run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterReport {
    /// Channels eliminated by successful merges.
    pub eliminated_channels: Vec<String>,
    /// Channels whose merge attempt failed, with the reason.
    pub rejected: Vec<(String, String)>,
    /// Call components distributed by `T2`.
    pub distributed_calls: Vec<String>,
    /// Call components restored because distribution failed.
    pub restored_calls: Vec<String>,
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} channels eliminated, {} rejected, {} calls distributed, {} restored",
            self.eliminated_channels.len(),
            self.rejected.len(),
            self.distributed_calls.len(),
            self.restored_calls.len()
        )
    }
}

impl CtrlNetlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        CtrlNetlist::default()
    }

    /// Adds a component.
    pub fn add(&mut self, name: impl Into<String>, program: ChExpr) {
        self.components.push(CtrlComponent {
            name: name.into(),
            program,
        });
    }

    /// Internal point-to-point channels: channel names appearing in exactly
    /// two components, actively in one and passively in the other.
    pub fn internal_channels(&self) -> Vec<InternalChannel> {
        // Every component's channels as borrowed `(name, component,
        // activity)` triples, sorted by name and then component.
        let mut uses: Vec<(&str, usize, ChActivity)> = Vec::new();
        let mut mentions = Vec::new();
        for (ci, comp) in self.components.iter().enumerate() {
            mentions.clear();
            comp.program.channel_mentions(&mut mentions);
            // The last mention of a name decides its activity.
            mentions.reverse();
            mentions.sort_by_key(|&(name, _)| name);
            mentions.dedup_by_key(|&mut (name, _)| name);
            uses.extend(mentions.iter().map(|&(name, act)| (name, ci, act)));
        }
        uses.sort_by_key(|&(name, ci, _)| (name, ci));
        let mut out = Vec::new();
        for ends in uses.chunk_by(|x, y| x.0 == y.0) {
            let [a, b] = ends else { continue };
            let (active, passive) = match (a.2, b.2) {
                (ChActivity::Active, ChActivity::Passive) => (a.1, b.1),
                (ChActivity::Passive, ChActivity::Active) => (b.1, a.1),
                _ => continue,
            };
            out.push(InternalChannel {
                name: a.0.to_string(),
                active,
                passive,
            });
        }
        out
    }

    /// `T1_clustering` (§4.4): for every internal point-to-point channel,
    /// attempt Activation Channel Removal; on success replace the two
    /// components by the merged one. Iterates until no channel merges.
    pub fn t1_clustering(&mut self, opts: &ClusterOptions) -> ClusterReport {
        let mut report = ClusterReport::default();
        let mut tried: Vec<String> = Vec::new();
        loop {
            let candidates = self.internal_channels();
            let next = candidates.into_iter().find(|c| !tried.contains(&c.name));
            let Some(chan) = next else { break };
            tried.push(chan.name.clone());
            let activating = &self.components[chan.active].program;
            let activated = &self.components[chan.passive].program;
            match activation_channel_removal(activating, activated, &chan.name, opts.state_limit) {
                Ok(merged) => {
                    let merged_name = format!(
                        "{}+{}",
                        self.components[chan.active].name, self.components[chan.passive].name
                    );
                    let (hi, lo) = (chan.active.max(chan.passive), chan.active.min(chan.passive));
                    self.components.remove(hi);
                    self.components.remove(lo);
                    self.components.push(CtrlComponent {
                        name: merged_name,
                        program: merged,
                    });
                    report.eliminated_channels.push(chan.name);
                }
                Err(e) => {
                    report.rejected.push((chan.name.clone(), e.to_string()));
                }
            }
        }
        report
    }

    /// `T2_clustering` (§4.4): split each call component into single-arm
    /// fragments, cluster with `T1`, and restore the call if its fragments
    /// did not all end up in the same final controller.
    pub fn t2_clustering(&mut self, opts: &ClusterOptions) -> ClusterReport {
        let mut report = self.t1_clustering(opts);
        // Tentatively distribute each remaining call component.
        loop {
            let call_ix = self
                .components
                .iter()
                .position(|c| !c.name.ends_with("!kept") && split_call(&c.program).is_some());
            let Some(ix) = call_ix else { break };
            let name = self.components[ix].name.clone();
            let fragments =
                split_call(&self.components[ix].program).expect("position() checked the shape");
            let shared = fragments.shared_channel.clone();
            let mut trial = self.clone();
            trial.components.remove(ix);
            for (fi, frag) in fragments.fragments.iter().enumerate() {
                trial.add(format!("{name}#frag{fi}"), frag.clone());
            }
            let sub = trial.t1_clustering(opts);
            // Success: no fragment component remains, and the shared active
            // channel lives in exactly one final controller.
            let fragments_left = trial
                .components
                .iter()
                .any(|c| c.name.contains("#frag") && split_call_fragment(&c.program).is_some());
            let active_homes = trial
                .components
                .iter()
                .filter(|c| c.program.channels().get(&shared) == Some(&ChActivity::Active))
                .count();
            if !fragments_left && active_homes <= 1 {
                *self = trial;
                report.eliminated_channels.extend(sub.eliminated_channels);
                report.distributed_calls.push(name);
            } else {
                report.restored_calls.push(name.clone());
                // Leave the original call in place; mark it visited by
                // renaming (a call we keep) so the loop terminates.
                self.components[ix].name = format!("{name}!kept");
                continue;
            }
        }
        // Undo the visit markers.
        for c in &mut self.components {
            if let Some(base) = c.name.strip_suffix("!kept") {
                c.name = base.to_string();
            }
        }
        report
    }
}

/// An internal channel between two components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalChannel {
    /// Channel name.
    pub name: String,
    /// Index of the component holding the active end.
    pub active: usize,
    /// Index of the component holding the passive end.
    pub passive: usize,
}

/// The fragments of a split call component (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFragments {
    /// One `rep(enc-early(passive bi, active c))` per original arm.
    pub fragments: Vec<ChExpr>,
    /// The shared active channel `c`.
    pub shared_channel: String,
}

/// Recognizes an n-way call component
/// `rep(mutex(enc-early(p b1, a c), ... enc-early(p bn, a c)))` and splits
/// it into fragments. Returns `None` if the program is not a call.
pub fn split_call(program: &ChExpr) -> Option<CallFragments> {
    let ChExpr::Rep(inner) = program else {
        return None;
    };
    let mut arms: Vec<&ChExpr> = Vec::new();
    collect_mutex_arms(inner, &mut arms);
    if arms.len() < 2 {
        return None;
    }
    let mut fragments = Vec::new();
    let mut shared: Option<String> = None;
    for arm in arms {
        let (input, out) = call_arm(arm)?;
        match &shared {
            None => shared = Some(out.clone()),
            Some(s) if *s == out => {}
            _ => return None,
        }
        let _ = input;
        fragments.push(ChExpr::Rep(Box::new(arm.clone())));
    }
    Some(CallFragments {
        fragments,
        shared_channel: shared?,
    })
}

/// Recognizes a single call fragment `rep(enc-early(passive b, active c))`.
pub fn split_call_fragment(program: &ChExpr) -> Option<(String, String)> {
    let ChExpr::Rep(inner) = program else {
        return None;
    };
    call_arm(inner)
}

fn collect_mutex_arms<'a>(e: &'a ChExpr, out: &mut Vec<&'a ChExpr>) {
    match e {
        ChExpr::Op {
            op: InterleaveOp::Mutex,
            a,
            b,
        } => {
            collect_mutex_arms(a, out);
            collect_mutex_arms(b, out);
        }
        other => out.push(other),
    }
}

fn call_arm(e: &ChExpr) -> Option<(String, String)> {
    let ChExpr::Op {
        op: InterleaveOp::EncEarly,
        a,
        b,
    } = e
    else {
        return None;
    };
    let ChExpr::PToP {
        activity: ChActivity::Passive,
        name: input,
    } = a.as_ref()
    else {
        return None;
    };
    let ChExpr::PToP {
        activity: ChActivity::Active,
        name: out,
    } = b.as_ref()
    else {
        return None;
    };
    Some((input.clone(), out.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_to_bm;
    use crate::components::{call, decision_wait, sequencer};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn t1_merges_dw_and_sequencer() {
        let mut n = CtrlNetlist::new();
        n.add(
            "dw",
            decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"])),
        );
        n.add("seq", sequencer("o2", &names(&["c1", "c2"])));
        let report = n.t1_clustering(&ClusterOptions::default());
        assert_eq!(report.eliminated_channels, vec!["o2".to_string()]);
        assert_eq!(n.components.len(), 1);
        let spec = compile_to_bm("m", &n.components[0].program).unwrap();
        assert_eq!(spec.num_states(), 11);
    }

    #[test]
    fn t1_chains_multiple_merges() {
        // seq1 -> seq2 -> seq3 via activation channels.
        let mut n = CtrlNetlist::new();
        n.add("s1", sequencer("p", &names(&["x", "m1"])));
        n.add("s2", sequencer("m1", &names(&["y", "m2"])));
        n.add("s3", sequencer("m2", &names(&["z", "w"])));
        let report = n.t1_clustering(&ClusterOptions::default());
        assert_eq!(report.eliminated_channels.len(), 2);
        assert_eq!(n.components.len(), 1);
        let chans = n.components[0].program.channels();
        for c in ["p", "x", "y", "z", "w"] {
            assert!(chans.contains_key(c), "missing {c}");
        }
    }

    #[test]
    fn split_call_recognizes_shape() {
        let c = call(&names(&["b1", "b2"]), "c");
        let frags = split_call(&c).unwrap();
        assert_eq!(frags.fragments.len(), 2);
        assert_eq!(frags.shared_channel, "c");
        // Non-call programs are not split.
        assert!(split_call(&sequencer("p", &names(&["a", "b"]))).is_none());
    }

    #[test]
    fn t2_distributes_paper_example() {
        // §4.2: a sequencer whose both branches activate a call module.
        let mut n = CtrlNetlist::new();
        n.add("seq", sequencer("a", &names(&["b1", "b2"])));
        n.add("call", call(&names(&["b1", "b2"]), "c"));
        let report = n.t2_clustering(&ClusterOptions::default());
        assert_eq!(report.distributed_calls, vec!["call".to_string()]);
        assert_eq!(n.components.len(), 1);
        let spec = compile_to_bm("result", &n.components[0].program).unwrap();
        // Fig. 5: 6 states.
        assert_eq!(spec.num_states(), 6, "{spec}");
    }

    #[test]
    fn t2_restores_call_when_fragments_split_homes() {
        // Two *different* sequencers activate the call: fragments would land
        // in different controllers, so the call must be restored.
        let mut n = CtrlNetlist::new();
        n.add("s1", sequencer("p1", &names(&["x1", "b1"])));
        n.add("s2", sequencer("p2", &names(&["x2", "b2"])));
        n.add("call", call(&names(&["b1", "b2"]), "c"));
        let report = n.t2_clustering(&ClusterOptions::default());
        assert!(report.restored_calls.contains(&"call".to_string()));
        // The call survives with its original behaviour.
        let call_comp = n.components.iter().find(|c| c.name == "call").unwrap();
        assert!(split_call(&call_comp.program).is_some());
    }

    #[test]
    fn external_channels_untouched() {
        // A single component has no internal channels.
        let mut n = CtrlNetlist::new();
        n.add("s", sequencer("p", &names(&["a", "b"])));
        assert!(n.internal_channels().is_empty());
        let report = n.t1_clustering(&ClusterOptions::default());
        assert!(report.eliminated_channels.is_empty());
        assert_eq!(n.components.len(), 1);
    }

    #[test]
    fn state_limit_blocks_merge() {
        let mut n = CtrlNetlist::new();
        n.add(
            "dw",
            decision_wait("a1", &names(&["i1", "i2"]), &names(&["o1", "o2"])),
        );
        n.add("seq", sequencer("o2", &names(&["c1", "c2"])));
        let report = n.t1_clustering(&ClusterOptions {
            state_limit: Some(5),
        });
        assert!(report.eliminated_channels.is_empty());
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(n.components.len(), 2);
    }
}
