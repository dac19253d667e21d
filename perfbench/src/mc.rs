//! `mc_tiny2`: an exhaustive `san_mc::check` of the tiny2 preset (safety
//! invariants, default options), pinned at 37,705 canonical states. Only
//! the `ProtocolStep` kernel and the checker run — no cluster, so zero
//! simulated events. The preset has no random input: every seed explores
//! the same graph.

use std::rc::Rc;

use san_mc::{check, CheckOpts, CheckReport, McConfig};
use san_telemetry::Telemetry;

use crate::layers::Profiler;
use crate::measure::{median, metric, timed, Metric};
use crate::{Pass, Workload};

/// The pinned canonical state count of tiny2.
pub const STATES: usize = 37_705;
/// The pinned transition count of tiny2.
pub const TRANSITIONS: usize = 243_751;
/// Set-ups timed together per pass.
const SETUP_BATCH: usize = 64;

/// What one exhaustive search found.
#[derive(Debug, PartialEq, Eq)]
pub struct McOut {
    /// Distinct canonical states.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// Transitions onto already-visited states.
    pub dedup_hits: usize,
    /// Stopped by a budget before exhaustion.
    pub truncated: bool,
    /// The first counterexample's violation, if any.
    pub violation: Option<String>,
}

impl From<&CheckReport> for McOut {
    fn from(r: &CheckReport) -> Self {
        Self {
            states: r.states,
            transitions: r.transitions,
            dedup_hits: r.dedup_hits,
            truncated: r.truncated,
            violation: r
                .counterexample
                .as_ref()
                .map(|c| format!("{:?}", c.violation)),
        }
    }
}

/// The `mc_tiny2` workload.
pub struct McTiny2;

impl Workload for McTiny2 {
    type Out = McOut;
    const WHY: &'static str = "exhaustive model checking of the protocol kernel with no cluster: \
        state-space reductions show here, and every engine change must show nothing";
    const LAYERS: &'static str = "core ProtocolStep kernel, mc checker (canonical encoding, \
        visited set, safety invariants)";
    const TRACEABLE: bool = false;

    fn pass(&self, _seed: u64, _prof: Option<&Rc<Profiler>>) -> Pass<McOut> {
        // Set-up is everything `check` does before its first step: build
        // the config and registry, then a depth-0 search (register the
        // counters, build, check and encode the initial state, stop). It
        // is microseconds of work, so a batch is timed and averaged.
        let first_only = CheckOpts {
            max_depth: 0,
            ..CheckOpts::default()
        };
        let (batch_s, ()) = timed(|| {
            for _ in 0..SETUP_BATCH {
                let (cfg, tel) = (McConfig::tiny2(), Telemetry::new());
                std::hint::black_box(check(&cfg, &first_only, &tel));
            }
        });
        let setup_s = batch_s / SETUP_BATCH as f64;
        let (cfg, tel) = (McConfig::tiny2(), Telemetry::new());
        let (run_s, report) = timed(|| check(&cfg, &CheckOpts::default(), &tel));
        Pass {
            setup_s,
            run_s,
            phases: Vec::new(),
            split: None,
            out: McOut::from(&report),
        }
    }

    fn check(&self, out: &McOut) -> Vec<String> {
        check_search(out)
    }

    fn events(&self, _out: &McOut) -> u64 {
        0
    }

    fn per_layer(&self, passes: &[Pass<McOut>]) -> Vec<Metric> {
        let out = &passes[0].out;
        let run = median(&passes.iter().map(|p| p.run_s).collect::<Vec<_>>());
        vec![
            metric("mc.states", out.states as f64, "count"),
            metric("mc.transitions", out.transitions as f64, "count"),
            metric("mc.dedup_hits", out.dedup_hits as f64, "count"),
            metric("mc.states_per_s", out.states as f64 / run, "1/s"),
            metric(
                "mc.dedup_ratio",
                out.dedup_hits as f64 / out.transitions as f64,
                "ratio",
            ),
        ]
    }
}

/// The search verified exhaustively, at exactly the pinned size.
fn check_search(out: &McOut) -> Vec<String> {
    let mut errs = Vec::new();
    if out.truncated {
        errs.push("search truncated by a budget".into());
    }
    if let Some(v) = &out.violation {
        errs.push(format!("counterexample: {v}"));
    }
    if (out.states, out.transitions) != (STATES, TRANSITIONS) {
        errs.push(format!(
            "{} states / {} transitions, pinned at {STATES} / {TRANSITIONS}",
            out.states, out.transitions
        ));
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Negative control: a search cut short by a state budget must fail.
    #[test]
    fn truncated_search_fails() {
        let opts = CheckOpts {
            max_states: 1_000,
            ..CheckOpts::default()
        };
        let r = check(&McConfig::tiny2(), &opts, &Telemetry::new());
        let errs = check_search(&McOut::from(&r));
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn pinned_search_passes() {
        let ok = McOut {
            states: STATES,
            transitions: TRANSITIONS,
            dedup_hits: 1,
            truncated: false,
            violation: None,
        };
        assert!(check_search(&ok).is_empty());
    }
}
