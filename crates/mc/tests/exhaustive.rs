//! Exhaustive verification results, pinned.
//!
//! These tests run the checker to exhaustion on the small configurations
//! and pin the outcomes: the exact state-space sizes (any unintended
//! change to the protocol kernel or the canonicalizer moves them) and a
//! digest of the canonical encoding's bytes, the exact equivalence of the
//! wrap-positioned config, the verdicts of the failure-model configs,
//! and the leak-knob counterexample with its model and simulator
//! replays.

use std::collections::{HashSet, VecDeque};

use san_mc::{check, replay_model, replay_on_sim, CheckOpts, McConfig};
use san_telemetry::Telemetry;

fn run(cfg: &McConfig, liveness: bool) -> san_mc::CheckReport {
    let opts = CheckOpts {
        liveness,
        ..CheckOpts::default()
    };
    check(cfg, &opts, &Telemetry::new())
}

/// The canonical 2-node config verifies exhaustively — including
/// liveness under the fair recovery schedule — and its state space is
/// exactly this big. A diff in the kernel, the adversary, or the
/// canonical encoding shows up here first.
#[test]
fn tiny2_exhaustive_and_pinned() {
    let r = run(&McConfig::tiny2(), true);
    assert!(r.verified(), "tiny2 must verify: {:?}", r.counterexample);
    assert_eq!(r.states, 37_705, "canonical state count moved");
    assert_eq!(r.transitions, 243_751, "canonical transition count moved");
}

/// Positioning every sequence number just below `u32::MAX` and the
/// generation at `u16::MAX` changes *nothing*: the canonicalizer encodes
/// all protocol values relative to per-pair bases, so the wrap-crossing
/// run collapses onto the identical state graph — same count, same
/// edges, same verdict. (This holds exactly because `tiny2` has no
/// mapping events; a generation bump resets absolute sequence numbers
/// and would make the graphs merely bisimilar, not identical.)
#[test]
fn wrap_positioning_is_invisible_to_the_checker() {
    let a = run(&McConfig::tiny2(), false);
    let b = run(&McConfig::wrap2(), false);
    assert!(a.verified() && b.verified());
    assert_eq!(a.states, b.states, "wrap2 state count diverged from tiny2");
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.dedup_hits, b.dedup_hits);
    assert_eq!(a.max_depth_seen, b.max_depth_seen);
}

/// The full failure model — link death and repair, permanent-failure
/// suspicion, spurious mapping verdicts, remap retries — verifies, with
/// liveness. The size pins the canonical encoding where generations bump
/// and links die, which tiny2 never exercises.
#[test]
fn remap2_full_failure_model_verifies() {
    let r = run(&McConfig::remap2(), true);
    assert!(r.verified(), "remap2 must verify: {:?}", r.counterexample);
    assert_eq!(r.states, 20_706, "remap2 state count moved");
    assert_eq!(r.transitions, 81_852, "remap2 transition count moved");
}

/// Two senders into one receiver: shared receiver, disjoint sequence
/// spaces per source pair. The size pins the encoding of a 3-node state.
#[test]
fn incast3_verifies() {
    let r = run(&McConfig::incast3(), false);
    assert!(r.verified(), "incast3 must verify: {:?}", r.counterexample);
    assert_eq!(r.states, 53_907, "incast3 state count moved");
    assert_eq!(r.transitions, 319_072, "incast3 transition count moved");
}

/// The re-introduced PR 2 bug (stale remap retries dropping held
/// descriptors instead of requeueing them) is found by the checker in
/// well under a second of search, as a short shortest-path
/// counterexample violating descriptor conservation.
#[test]
fn leak_knob_yields_minimal_conservation_counterexample() {
    let cfg = McConfig::leak2();
    let r = run(&cfg, false);
    let cex = r
        .counterexample
        .expect("leak2 must produce a counterexample");
    assert!(
        cex.violation.invariant == "descriptor-conservation"
            || cex.violation.invariant == "descriptor-leak",
        "unexpected invariant: {}",
        cex.violation.invariant
    );
    assert!(
        cex.trace.len() <= 12,
        "BFS counterexample should be short, got {} events",
        cex.trace.len()
    );
    assert!(
        r.elapsed_secs < 30.0,
        "the leak must be found in seconds, took {:.1}s",
        r.elapsed_secs
    );

    // The trace is deterministic: replaying it reproduces the violation
    // at its final event.
    let replay = replay_model(&cfg, &cex.trace).expect("counterexample replays");
    assert!(
        replay
            .violations
            .iter()
            .any(|(i, v)| *i == Some(cex.trace.len() - 1)
                && v.invariant == cex.violation.invariant),
        "replay must reproduce the violation: {:?}",
        replay.violations
    );

    // And it round-trips through the serialized form.
    let text = san_mc::to_lines(&cex.trace);
    assert_eq!(san_mc::from_lines(&text).unwrap(), cex.trace);

    // Without the knob, the identical trace is violation-free: the
    // counterexample indicts the bug, not the scenario.
    let fixed = McConfig::remap2();
    let clean = replay_model(&fixed, &cex.trace).expect("leak trace replays on the fixed model");
    assert!(
        clean.violations.is_empty(),
        "fixed model must survive the leak trace: {:?}",
        clean.violations
    );
}

/// The counterexample's environment schedule, replayed on the real
/// simulator running the *fixed* firmware, conserves descriptors and
/// drains — end-to-end evidence that the checker's finding is about the
/// re-introduced bug and that the production fix covers the exact
/// scenario the search discovered.
#[test]
fn leak_counterexample_environment_replays_clean_on_fixed_sim() {
    let cfg = McConfig::leak2();
    let r = run(&cfg, false);
    let cex = r
        .counterexample
        .expect("leak2 must produce a counterexample");
    let sim = replay_on_sim(&cfg, &cex.trace).expect("leak2 is a 2-node config");
    assert!(
        sim.conserved(),
        "fixed firmware must conserve under the counterexample schedule: {sim:?}"
    );
    assert!(sim.posted > 0, "schedule must post traffic");
}

/// Budgets truncate instead of diverging: a one-state budget stops
/// immediately and reports truncation, never a spurious verdict.
#[test]
fn budgets_truncate_cleanly() {
    let cfg = McConfig::tiny2();
    let opts = CheckOpts {
        max_states: 10,
        ..CheckOpts::default()
    };
    let r = check(&cfg, &opts, &Telemetry::new());
    assert!(r.truncated);
    assert!(!r.verified());
    assert!(r.counterexample.is_none());
    let opts = CheckOpts {
        max_depth: 2,
        ..CheckOpts::default()
    };
    let r = check(&cfg, &opts, &Telemetry::new());
    assert!(r.truncated);
    assert!(r.counterexample.is_none());
}

/// The checker streams progress through the shared telemetry registry —
/// the counters must agree with the report.
#[test]
fn telemetry_counters_match_report() {
    let tel = Telemetry::new();
    let r = check(&McConfig::remap2(), &CheckOpts::default(), &tel);
    assert_eq!(tel.counter("mc.states").get(), r.states as u64);
    assert_eq!(tel.counter("mc.transitions").get(), r.transitions as u64);
    assert_eq!(tel.counter("mc.dedup").get(), r.dedup_hits as u64);
    assert!(tel.gauge("mc.states_per_sec").get() > 0);
}

/// FNV-1a digest of the canonical encoding of every successor of the
/// first `expand` states in BFS order: pins the encoding's bytes, not
/// just how many distinct states it yields.
fn encoding_digest(cfg: &McConfig, expand: usize) -> u64 {
    let init = san_mc::SysState::initial(cfg);
    let mut seen = HashSet::from([san_mc::encode(cfg, &init)]);
    let mut queue = VecDeque::from([init]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..expand {
        let Some(st) = queue.pop_front() else { break };
        for ev in san_mc::enabled(cfg, &st) {
            let (next, _) = san_mc::apply(cfg, &st, &ev);
            let key = san_mc::encode(cfg, &next);
            for &b in &key {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            if seen.insert(key) {
                queue.push_back(next);
            }
        }
    }
    h
}

/// The canonical encoding's bytes are pinned on a channel-sorting config
/// (tiny2, first 8,000 expansions), a generation-bumping one (remap2,
/// whole graph) and a 3-node one (incast3, first 3,000 expansions).
#[test]
fn canonical_encoding_bytes_are_pinned() {
    let digests = [
        encoding_digest(&McConfig::tiny2(), 8_000),
        encoding_digest(&McConfig::remap2(), usize::MAX),
        encoding_digest(&McConfig::incast3(), 3_000),
    ];
    assert_eq!(
        digests,
        [
            1_799_709_684_351_562_199,
            5_641_581_369_797_920_724,
            1_905_442_335_041_191_389
        ],
        "canonical encoding moved"
    );
}
