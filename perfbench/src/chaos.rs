//! `chaos_suite`: every curated fault campaign that must pass, at its own
//! trial count, run one trial after another (140 trials of a few ms each
//! on 2–16-host fabrics). The two negative controls (`unprotected`,
//! `reconfig_undrained`) are left out: they exist to fail.
//!
//! The measured passes run the curated trials as committed (each
//! campaign's own seed), so the work is the same on every seed and matches
//! `san-chaos run`. The second-seed check mixes each campaign's seed with
//! the benchmark seed and samples a fresh set of trials from the same
//! campaign distributions, which must pass too.
//! Per-trial set-up, the trace ring, the mapper's probe and remap path,
//! reconfiguration and the oracle dominate; `run_trial` builds its own
//! cluster, so the firmware/host split cannot be observed from outside.

use std::rc::Rc;

use san_chaos::{run_trial, Campaign, Trial, TrialOutcome};

use crate::layers::Profiler;
use crate::measure::{median, metric, mix, quantile, timed, Metric};
use crate::{phase_median, Pass, Workload};

/// The curated campaigns that must pass, embedded at build time.
const CAMPAIGNS: [(&str, &str); 11] = [
    (
        "atlas",
        include_str!("../../crates/chaos/campaigns/atlas.json"),
    ),
    (
        "atlas_torus",
        include_str!("../../crates/chaos/campaigns/atlas_torus.json"),
    ),
    (
        "incast",
        include_str!("../../crates/chaos/campaigns/incast.json"),
    ),
    (
        "mixed",
        include_str!("../../crates/chaos/campaigns/mixed.json"),
    ),
    (
        "permanent",
        include_str!("../../crates/chaos/campaigns/permanent.json"),
    ),
    (
        "reconfig",
        include_str!("../../crates/chaos/campaigns/reconfig.json"),
    ),
    (
        "recovery",
        include_str!("../../crates/chaos/campaigns/recovery.json"),
    ),
    (
        "reincarnation",
        include_str!("../../crates/chaos/campaigns/reincarnation.json"),
    ),
    (
        "reincarnation_hot",
        include_str!("../../crates/chaos/campaigns/reincarnation_hot.json"),
    ),
    (
        "smoke",
        include_str!("../../crates/chaos/campaigns/smoke.json"),
    ),
    (
        "transient",
        include_str!("../../crates/chaos/campaigns/transient.json"),
    ),
];

/// Trials over all of [`CAMPAIGNS`] at their own counts.
pub const TRIALS: usize = 140;

/// The `chaos_suite` workload.
pub struct ChaosSuite;

/// Parse the curated campaigns, reseed them from `reseed` if given, and
/// sample every trial.
fn sample_all(reseed: Option<u64>) -> Result<Vec<Trial>, String> {
    let mut trials = Vec::with_capacity(TRIALS);
    for (name, text) in CAMPAIGNS {
        let mut c = Campaign::parse(text).map_err(|e| format!("campaign {name}: {e}"))?;
        if let Some(seed) = reseed {
            c.seed = mix(c.seed, seed);
        }
        trials.extend((0..c.trials).map(|i| c.sample(i)));
    }
    Ok(trials)
}

/// Sample and run every trial, timing the sampling and each trial.
fn run_suite(reseed: Option<u64>) -> Pass<Vec<TrialOutcome>> {
    let (sample_s, trials) = timed(|| sample_all(reseed));
    let trials = trials.unwrap_or_else(|e| panic!("{e}"));
    let mut phases = vec![("chaos.sample_s", sample_s)];
    let (run_s, outcomes) = timed(|| {
        trials
            .iter()
            .map(|t| {
                let (s, o) = timed(|| run_trial(t));
                phases.push(("trial", s));
                o
            })
            .collect()
    });
    Pass {
        setup_s: sample_s,
        run_s,
        phases,
        split: None,
        out: outcomes,
    }
}

impl Workload for ChaosSuite {
    type Out = Vec<TrialOutcome>;
    const WHY: &'static str = "many short fault-injection trials: per-trial set-up, the trace \
        ring, mapping and remap, reconfiguration and the oracle dominate, not the event rate";
    const LAYERS: &'static str = "chaos Campaign::sample/run_trial (topo atlas, fabric faults and \
        reconfiguration, nic cluster, reliable firmware and mapper, workload hosts, trace ring, oracle)";
    const TRACEABLE: bool = false;

    fn pass(&self, _seed: u64, _prof: Option<&Rc<Profiler>>) -> Pass<Self::Out> {
        run_suite(None)
    }

    fn check(&self, out: &Self::Out) -> Vec<String> {
        check_outcomes(out)
    }

    fn check_at(&self, seed: u64) -> Vec<String> {
        check_outcomes(&run_suite(Some(seed)).out)
    }

    fn events(&self, _out: &Self::Out) -> u64 {
        0
    }

    fn per_layer(&self, passes: &[Pass<Self::Out>]) -> Vec<Metric> {
        let out = &passes[0].out;
        // Per trial: the median over passes of its wall time.
        let per_trial: Vec<f64> = (0..out.len())
            .map(|i| {
                let xs: Vec<f64> = passes
                    .iter()
                    .filter_map(|p| p.phases.iter().filter(|(n, _)| *n == "trial").nth(i))
                    .map(|(_, s)| *s * 1e3)
                    .collect();
                median(&xs)
            })
            .collect();
        let sum = |f: fn(&TrialOutcome) -> u64| out.iter().map(f).sum::<u64>() as f64;
        vec![
            metric(
                "chaos.sample_s",
                phase_median(passes, "chaos.sample_s"),
                "s",
            ),
            metric("chaos.trials", out.len() as f64, "count"),
            metric("chaos.trial_ms_p50", median(&per_trial), "ms"),
            // p92 is the highest percentile of 140 trials with ten beyond it.
            metric("chaos.trial_ms_p92", quantile(&per_trial, 0.92), "ms"),
            metric(
                "chaos.generation_bumps",
                sum(|o| o.generation_bumps),
                "count",
            ),
            metric("chaos.path_resets", sum(|o| o.path_resets), "count"),
            metric("chaos.send_failed", sum(|o| o.send_failed), "count"),
            metric("chaos.reconfig_epochs", sum(|o| o.reconfig_epochs), "count"),
            metric(
                "delivery_ratio",
                sum(|o| o.delivered) / sum(|o| o.expected),
                "ratio",
            ),
        ]
    }
}

/// Every trial ran and the oracle proved no violation in any of them.
fn check_outcomes(out: &[TrialOutcome]) -> Vec<String> {
    let mut errs = Vec::new();
    if out.len() != TRIALS {
        errs.push(format!("{} trials ran, expected {TRIALS}", out.len()));
    }
    errs.extend(
        out.iter()
            .filter(|o| !o.passed())
            .map(TrialOutcome::verdict_line),
    );
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::tail_pct;

    #[test]
    fn suite_has_the_curated_trial_count() {
        assert_eq!(sample_all(None).unwrap().len(), TRIALS);
        assert_eq!(tail_pct(TRIALS), Some(92), "chaos.trial_ms_p92 is the tail");
    }

    #[test]
    fn reseeding_changes_the_trials() {
        let curated = sample_all(None).unwrap();
        let a = sample_all(Some(1)).unwrap();
        let b = sample_all(Some(2)).unwrap();
        assert_ne!(a[0].seed, b[0].seed);
        assert_ne!(a[0].seed, curated[0].seed);
        assert_eq!(a[0].campaign, b[0].campaign);
    }

    /// Negative control: one violating trial, or a missing trial, fails.
    #[test]
    fn a_violation_or_missing_trial_fails() {
        let trial = sample_all(None).unwrap().remove(0);
        let ok = run_trial(&trial);
        assert!(ok.passed(), "{}", ok.verdict_line());
        let mut out = vec![ok; TRIALS];
        assert!(check_outcomes(&out).is_empty());
        out.pop();
        assert_eq!(check_outcomes(&out).len(), 1);
        // The unprotected control campaign must trip the oracle.
        let control = Campaign::parse(include_str!(
            "../../crates/chaos/campaigns/unprotected.json"
        ))
        .unwrap();
        let bad = (0..control.trials)
            .map(|i| run_trial(&control.sample(i)))
            .find(|o| !o.passed())
            .expect("the unprotected control fails");
        out.push(bad);
        assert_eq!(check_outcomes(&out).len(), 1);
    }
}
