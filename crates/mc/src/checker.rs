//! Exhaustive breadth-first search over the model's reachable states.
//!
//! The visited set keys on the exact canonical byte encoding
//! ([`crate::model::encode`]) — no fingerprints or lossy hashing, so
//! "visited" can never be a collision artifact. The map hashes those keys
//! with `WordHasher`, a small multiply-rotate hasher over 8-byte words
//! in place of SipHash: the hasher decides only which bucket a key lands
//! in, and equality is still decided on the whole key. (The keys are the
//! model's own states, never outside input, so collision flooding is not
//! a concern.) BFS order means the first counterexample found is a
//! *shortest* one; the parent map reconstructs its event list, which
//! replays through [`crate::trace::replay_model`] and (for
//! environment-level events) [`crate::simreplay`].
//!
//! Successor generation is copy-in-place. One search owns one scratch
//! successor and one key buffer, both created on the first expansion.
//! Each transition copies the expanded state into the scratch with
//! [`Clone::clone_from`] (reusing its allocations), applies the event
//! with [`crate::model::apply_in_place`], checks every invariant on the
//! result, and encodes it into the key buffer with
//! [`crate::model::encode_into`]. The visited set is probed with the
//! borrowed key; only a new state pays for an owned key and a frontier
//! copy. Most transitions land on a visited state (85% on tiny2), and
//! those now allocate nothing — yet each is still checked in full, so
//! per-transition violation reporting is unchanged.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use san_telemetry::Telemetry;

use crate::invariant::check_state;
use crate::model::{
    apply_in_place, enabled, encode, encode_into, McConfig, McEvent, SysState, Violation,
};

/// Search budgets and switches.
#[derive(Debug, Clone)]
pub struct CheckOpts {
    /// Stop (truncated) after visiting this many distinct states.
    pub max_states: usize,
    /// Do not expand states deeper than this.
    pub max_depth: usize,
    /// Also check liveness: from every visited state, the fair recovery
    /// schedule must reach quiescence within a bounded number of steps.
    pub liveness: bool,
}

impl Default for CheckOpts {
    fn default() -> Self {
        Self {
            max_states: 20_000_000,
            max_depth: usize::MAX,
            liveness: false,
        }
    }
}

/// A violation plus the shortest event path that reaches it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What broke.
    pub violation: Violation,
    /// Events from the initial state up to and including the breaking
    /// transition (for state-level violations, up to the bad state).
    pub trace: Vec<McEvent>,
}

/// The outcome of one search.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Config name.
    pub config: String,
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions explored (edges, including duplicates).
    pub transitions: usize,
    /// Transitions that landed on an already-visited state.
    pub dedup_hits: usize,
    /// Deepest BFS level reached.
    pub max_depth_seen: usize,
    /// True when a budget stopped the search before exhaustion.
    pub truncated: bool,
    /// First (shortest) counterexample, if any.
    pub counterexample: Option<Counterexample>,
    /// Wall-clock seconds spent.
    pub elapsed_secs: f64,
}

impl CheckReport {
    /// Did the search complete with no violation?
    pub fn verified(&self) -> bool {
        self.counterexample.is_none() && !self.truncated
    }
}

/// Parent-map entry: how state `id` was first reached.
struct Reached {
    parent: u32,
    via: McEvent,
    depth: u32,
}

/// Walk the parent map back from `id` to the root.
fn trace_to(reached: &[Option<Reached>], mut id: u32) -> Vec<McEvent> {
    let mut evs = Vec::new();
    while let Some(r) = &reached[id as usize] {
        evs.push(r.via);
        id = r.parent;
    }
    evs.reverse();
    evs
}

/// Multiply-rotate hasher over 8-byte words for the visited set's exact
/// byte keys (the word step of rustc's `FxHasher`, with a final rotate so
/// the well-mixed high bits reach the bucket index).
#[derive(Default)]
struct WordHasher(u64);

const WORD_K: u64 = 0xf135_7aea_2e62_a9c5;

impl WordHasher {
    fn add(&mut self, w: u64) {
        self.0 = self.0.wrapping_add(w).wrapping_mul(WORD_K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            self.add(u64::from_le_bytes(*w));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Visited set: exact canonical key → state id.
type Visited = HashMap<Box<[u8]>, u32, BuildHasherDefault<WordHasher>>;

/// Exhaustively explore `cfg` under `opts`, streaming progress metrics
/// into `tel` (`mc.states`, `mc.transitions`, `mc.dedup` counters;
/// `mc.frontier`, `mc.depth`, `mc.states_per_sec` gauges).
pub fn check(cfg: &McConfig, opts: &CheckOpts, tel: &Telemetry) -> CheckReport {
    let t0 = Instant::now();
    let c_states = tel.counter("mc.states");
    let c_trans = tel.counter("mc.transitions");
    let c_dedup = tel.counter("mc.dedup");
    let g_frontier = tel.gauge("mc.frontier");
    let g_depth = tel.gauge("mc.depth");
    let g_rate = tel.gauge("mc.states_per_sec");

    let mut report = CheckReport {
        config: cfg.name.to_string(),
        states: 0,
        transitions: 0,
        dedup_hits: 0,
        max_depth_seen: 0,
        truncated: false,
        counterexample: None,
        elapsed_secs: 0.0,
    };

    let init = SysState::initial(cfg);
    // Invariants must hold in the initial state too.
    let init_viols = check_state(cfg, &init);
    let mut visited = Visited::default();
    let mut reached: Vec<Option<Reached>> = Vec::new();
    let mut frontier: VecDeque<(u32, SysState)> = VecDeque::new();
    visited.insert(encode(cfg, &init).into(), 0);
    reached.push(None);
    report.states = 1;
    c_states.hit();
    if let Some(v) = init_viols.into_iter().next() {
        report.counterexample = Some(Counterexample {
            violation: v,
            trace: Vec::new(),
        });
        report.elapsed_secs = t0.elapsed().as_secs_f64();
        return report;
    }
    frontier.push_back((0, init));
    // The scratch successor, created on the first expansion, and the key
    // buffer every successor is encoded into.
    let mut scratch: Option<SysState> = None;
    let mut key = Vec::new();

    'search: while let Some((id, st)) = frontier.pop_front() {
        let depth = reached[id as usize].as_ref().map_or(0, |r| r.depth);
        report.max_depth_seen = report.max_depth_seen.max(depth as usize);
        if opts.liveness {
            if let Err(detail) = recovery_converges(cfg, &st) {
                report.counterexample = Some(Counterexample {
                    violation: Violation {
                        invariant: "liveness",
                        detail,
                    },
                    trace: trace_to(&reached, id),
                });
                break 'search;
            }
        }
        if depth as usize >= opts.max_depth {
            report.truncated = true;
            continue;
        }
        for ev in enabled(cfg, &st) {
            report.transitions += 1;
            c_trans.hit();
            let succ = scratch.get_or_insert_with(|| st.clone());
            succ.clone_from(&st);
            let mut viols = apply_in_place(cfg, succ, &ev);
            viols.extend(check_state(cfg, succ));
            if let Some(v) = viols.into_iter().next() {
                let mut trace = trace_to(&reached, id);
                trace.push(ev);
                report.counterexample = Some(Counterexample {
                    violation: v,
                    trace,
                });
                break 'search;
            }
            encode_into(cfg, succ, &mut key);
            if visited.contains_key(key.as_slice()) {
                report.dedup_hits += 1;
                c_dedup.hit();
                continue;
            }
            let succ_id = reached.len() as u32;
            visited.insert(key.as_slice().into(), succ_id);
            reached.push(Some(Reached {
                parent: id,
                via: ev,
                depth: depth + 1,
            }));
            report.states += 1;
            c_states.hit();
            if report.states.is_multiple_of(4096) {
                g_frontier.set(frontier.len() as i64);
                g_depth.set(depth as i64 + 1);
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                g_rate.set((report.states as f64 / secs) as i64);
            }
            if report.states >= opts.max_states {
                report.truncated = true;
                break 'search;
            }
            frontier.push_back((succ_id, succ.clone()));
        }
    }

    report.elapsed_secs = t0.elapsed().as_secs_f64();
    g_frontier.set(frontier.len() as i64);
    g_depth.set(report.max_depth_seen as i64);
    g_rate.set((report.states as f64 / report.elapsed_secs.max(1e-9)) as i64);
    report
}

/// Bound on deterministic recovery steps before declaring non-convergence.
const RECOVERY_STEP_BOUND: usize = 20_000;

/// The fair recovery schedule: raise every link, then repeatedly take the
/// highest-priority enabled recovery move (retry timers fire, mapping
/// succeeds, the network delivers everything, scan timers fire). This is
/// the fairness assumption of the liveness theorem made executable: if
/// faults stop and timers keep firing, every posted message is delivered
/// or failed and the system drains.
///
/// Returns `Err(description)` when quiescence is not reached within
/// `RECOVERY_STEP_BOUND` steps.
pub fn recovery_converges(cfg: &McConfig, st: &SysState) -> Result<(), String> {
    let mut st = st.clone();
    // Fairness: the fault episode ends — all links come back.
    for ch in &mut st.chans {
        ch.up = true;
    }
    for step in 0..RECOVERY_STEP_BOUND {
        match recovery_next(cfg, &st) {
            None => {
                return check_quiescent(cfg, &st)
                    .map_err(|e| format!("stuck after {step} steps: {e}"));
            }
            Some(ev) => {
                apply_in_place(cfg, &mut st, &ev);
            }
        }
    }
    Err(format!(
        "no quiescence within {RECOVERY_STEP_BOUND} recovery steps"
    ))
}

/// The highest-priority enabled recovery move, or `None` at quiescence.
fn recovery_next(cfg: &McConfig, st: &SysState) -> Option<McEvent> {
    let n = cfg.n_nodes;
    // 1. Pending remap retries fire.
    for node in 0..n {
        for dst in 0..n {
            if node != dst && st.nodes[node].retry_pending[dst] {
                return Some(McEvent::RetryFire {
                    node: node as u8,
                    dst: dst as u8,
                });
            }
        }
    }
    // 2. Mapping runs succeed (links are up).
    for node in 0..n {
        for dst in 0..n {
            if node != dst && st.nodes[node].senders[dst].mapping {
                return Some(McEvent::Resolve {
                    node: node as u8,
                    dst: dst as u8,
                    found: true,
                });
            }
        }
    }
    // 3./4. The network delivers, FIFO.
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let ch = &st.chans[cfg.pair(src, dst)];
            if !ch.data.is_empty() {
                return Some(McEvent::DeliverData {
                    src: src as u8,
                    dst: dst as u8,
                    idx: 0,
                });
            }
            if !ch.acks.is_empty() {
                return Some(McEvent::DeliverAck {
                    src: src as u8,
                    dst: dst as u8,
                    idx: 0,
                });
            }
        }
    }
    // 5. Scan timers replay whatever is still unacknowledged.
    for node in 0..n {
        for dst in 0..n {
            if node == dst {
                continue;
            }
            let s = &st.nodes[node].senders[dst];
            if !s.retrans_q.is_empty() && !s.mapping {
                return Some(McEvent::Tick {
                    node: node as u8,
                    dst: dst as u8,
                });
            }
        }
    }
    None
}

/// Quiescence: nothing in flight, nothing queued, and every posted
/// message accounted as delivered or failed.
fn check_quiescent(cfg: &McConfig, st: &SysState) -> Result<(), String> {
    let n = cfg.n_nodes;
    for (who, node) in st.nodes.iter().enumerate() {
        if !node.pending.is_empty() {
            return Err(format!("node {who} still has pending descriptors"));
        }
        for dst in 0..n {
            if who == dst {
                continue;
            }
            if !node.held[dst].is_empty() {
                return Err(format!("node {who} still holds descriptors toward {dst}"));
            }
            if !node.senders[dst].retrans_q.is_empty() {
                return Err(format!("node {who} still queues packets toward {dst}"));
            }
            let p = cfg.pair(who, dst);
            for i in 0..st.posted[p] {
                let bit = 1u16 << i;
                if (st.delivered_mask[p] | st.failed_mask[p]) & bit == 0 {
                    return Err(format!(
                        "message {i} on pair {who}->{dst} neither delivered nor failed"
                    ));
                }
            }
        }
    }
    Ok(())
}
