//! Counterexample traces: render, serialize, and replay against the
//! model.
//!
//! A trace is just the BFS event path — a list of [`McEvent`]s. Because
//! the model is deterministic given the event sequence, replaying the
//! list from the initial state reproduces the violation exactly, and the
//! serialized form (one event per line) round-trips through
//! [`McEvent::to_line`]/[`McEvent::from_line`] so a failure printed by
//! CI can be re-run locally with `san-mc trace`.

use crate::invariant::check_state;
use crate::model::{apply, enabled, McConfig, McEvent, SysState, Violation};

/// Serialize a trace, one event per line.
pub fn to_lines(trace: &[McEvent]) -> String {
    let mut out = String::new();
    for ev in trace {
        out.push_str(&ev.to_line());
        out.push('\n');
    }
    out
}

/// Parse a serialized trace; lines that are empty or start with `#` are
/// skipped. Returns `Err` with the offending line on parse failure.
pub fn from_lines(text: &str) -> Result<Vec<McEvent>, String> {
    let mut evs = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match McEvent::from_line(line) {
            Some(ev) => evs.push(ev),
            None => return Err(format!("unparseable trace line: {line:?}")),
        }
    }
    Ok(evs)
}

/// The result of replaying a trace against the model.
#[derive(Debug)]
pub struct Replay {
    /// State after the last event.
    pub end: SysState,
    /// Every violation observed, tagged with the 0-based index of the
    /// event that triggered it (`None` for violations already present in
    /// the final state).
    pub violations: Vec<(Option<usize>, Violation)>,
}

/// Replay `trace` from the initial state of `cfg`, collecting every
/// transition- and state-level violation along the way.
///
/// Returns `Err` naming the first event that is not enabled in the state
/// it is applied to (a trace the model could never take, e.g. delivering
/// from an empty channel or addressing a node `cfg` does not have).
pub fn replay_model(cfg: &McConfig, trace: &[McEvent]) -> Result<Replay, String> {
    let mut st = SysState::initial(cfg);
    let mut violations: Vec<(Option<usize>, Violation)> = check_state(cfg, &st)
        .into_iter()
        .map(|v| (None, v))
        .collect();
    for (i, ev) in trace.iter().enumerate() {
        if !enabled(cfg, &st).contains(ev) {
            return Err(format!(
                "trace event {i} `{}` is not enabled in config `{}`",
                ev.to_line(),
                cfg.name
            ));
        }
        let (next, viols) = apply(cfg, &st, ev);
        for v in viols {
            violations.push((Some(i), v));
        }
        for v in check_state(cfg, &next) {
            violations.push((Some(i), v));
        }
        st = next;
    }
    Ok(Replay {
        end: st,
        violations,
    })
}

/// Human-readable rendering of a counterexample: numbered events, then
/// the violation.
pub fn render(cfg: &McConfig, violation: &Violation, trace: &[McEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "counterexample in config `{}` ({} events):\n",
        cfg.name,
        trace.len()
    ));
    for (i, ev) in trace.iter().enumerate() {
        out.push_str(&format!("  {i:>3}. {}\n", ev.to_line()));
    }
    out.push_str(&format!(
        "violated invariant `{}`: {}\n",
        violation.invariant, violation.detail
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_the_model_cannot_take_are_errors() {
        let cfg = McConfig::tiny2();
        for (text, bad) in [
            ("deliver-data 0 1 0", "event 0 `deliver-data 0 1 0`"),
            ("post 0 7", "event 0 `post 0 7`"),
            ("post 0 1\ndeliver-data 0 1 3", "event 1 `deliver-data"),
        ] {
            let trace = from_lines(text).unwrap();
            let err = replay_model(&cfg, &trace).unwrap_err();
            assert!(err.contains(bad), "{text:?} gave {err:?}");
        }
    }
}
