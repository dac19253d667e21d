//! Copy-in-place successor generation computes exactly what the copying
//! path computes.
//!
//! The checker reuses one scratch successor per search: it copies each
//! expanded state into it with `clone_from`, steps it in place
//! (`apply_in_place` → `NodeModel::step_mut`) and encodes it into a
//! reused key buffer. These tests hold that path to the allocating one:
//!
//! * along random enabled-event walks from every preset, every node event
//!   the state admits gives the same successor and actions through
//!   `ProtocolStep::step` and through `step_mut`, and every system event
//!   gives the same successor through `apply` and through `clone_from`
//!   into a dirty scratch plus `apply_in_place`;
//! * `clone_from` into a dirty destination — longer queues, held
//!   descriptors, extra channel packets, another node count — equals
//!   `clone()`.
//!
//! States are compared by their canonical encoding and by `Debug`, which
//! also covers the fields the encoding leaves out.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;
use san_ft::step::{NodeEvent, ProtocolStep};
use san_mc::{apply, apply_in_place, enabled, encode, McConfig, SysState};

fn dbg(st: &SysState) -> String {
    format!("{st:?}")
}

/// Every node event `who` can be handed in `st`: the host and timer
/// events toward each peer, and the delivery of each packet and ACK in
/// flight toward `who`.
fn node_events(cfg: &McConfig, st: &SysState, who: usize) -> Vec<NodeEvent> {
    let mut evs = Vec::new();
    for peer in (0..cfg.n_nodes).filter(|&p| p != who) {
        evs.extend([
            NodeEvent::PostSend {
                dst: peer,
                payload: st.posted[cfg.pair(who, peer)] as u64,
            },
            NodeEvent::ScanTick { dst: peer },
            NodeEvent::SuspectPermFail { dst: peer },
            NodeEvent::MapResolved {
                dst: peer,
                found: true,
            },
            NodeEvent::MapResolved {
                dst: peer,
                found: false,
            },
            NodeEvent::RemapRetry { dst: peer },
        ]);
        let ch = &st.chans[cfg.pair(peer, who)];
        evs.extend(
            ch.data
                .iter()
                .map(|&pkt| NodeEvent::RxData { src: peer, pkt }),
        );
        evs.extend(ch.acks.iter().map(|&(ack_seq, ack_gen)| NodeEvent::RxAck {
            src: peer,
            ack_seq,
            ack_gen,
        }));
    }
    evs
}

/// Up to `limit` reachable states of `cfg`, in BFS order from the
/// initial state.
fn reachable(cfg: &McConfig, limit: usize) -> Vec<SysState> {
    let init = SysState::initial(cfg);
    let mut seen = HashSet::from([encode(cfg, &init)]);
    let mut queue = VecDeque::from([init]);
    let mut out = Vec::new();
    while let Some(st) = queue.pop_front() {
        for ev in enabled(cfg, &st) {
            let (next, _) = apply(cfg, &st, &ev);
            if seen.len() < limit && seen.insert(encode(cfg, &next)) {
                queue.push_back(next);
            }
        }
        out.push(st);
    }
    out
}

fn queued(st: &SysState) -> usize {
    st.nodes
        .iter()
        .flat_map(|n| &n.senders)
        .map(|s| s.retrans_q.len())
        .sum()
}

fn held(st: &SysState) -> usize {
    st.nodes.iter().flat_map(|n| &n.held).map(Vec::len).sum()
}

fn in_flight(st: &SysState) -> usize {
    st.chans.iter().map(|c| c.data.len() + c.acks.len()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn step_mut_and_apply_in_place_match_the_copying_path(
        preset in 0usize..6,
        choices in proptest::collection::vec(any::<u32>(), 1..48),
    ) {
        let cfg = &McConfig::presets()[preset];
        let mut st = SysState::initial(cfg);
        // Starts as another preset's state, then carries the previous
        // step's successor: the scratch is always dirty.
        let mut scratch = SysState::initial(&McConfig::incast3());
        for c in choices {
            for who in 0..cfg.n_nodes {
                let model = cfg.node_model(who);
                for ev in node_events(cfg, &st, who) {
                    let (next, actions) = model.step(&st.nodes[who], &ev);
                    let mut stepped = st.clone();
                    stepped.nodes[who] = next;
                    let mut in_place = st.clone();
                    let mut actions_mut = Vec::new();
                    model.step_mut(&mut in_place.nodes[who], &ev, &mut actions_mut);
                    prop_assert_eq!(&actions, &actions_mut, "node {} event {:?}", who, ev);
                    prop_assert_eq!(dbg(&stepped), dbg(&in_place), "node {} event {:?}", who, ev);
                    prop_assert_eq!(encode(cfg, &stepped), encode(cfg, &in_place));
                }
            }
            let evs = enabled(cfg, &st);
            if evs.is_empty() {
                break;
            }
            for ev in &evs {
                let (next, viols) = apply(cfg, &st, ev);
                scratch.clone_from(&st);
                let viols_in_place = apply_in_place(cfg, &mut scratch, ev);
                prop_assert_eq!(&viols, &viols_in_place, "event {:?}", ev);
                prop_assert_eq!(dbg(&next), dbg(&scratch), "event {:?}", ev);
                prop_assert_eq!(encode(cfg, &next), encode(cfg, &scratch));
            }
            st = apply(cfg, &st, &evs[c as usize % evs.len()]).0;
        }
    }
}

/// `clone_from` into a destination that holds more of everything than
/// the source — and into one with a different node count — leaves
/// exactly what `clone()` would produce.
#[test]
fn clone_from_into_dirty_destination_equals_clone() {
    let reach: Vec<(McConfig, Vec<SysState>)> = McConfig::presets()
        .into_iter()
        .map(|cfg| {
            let states = reachable(&cfg, 1500);
            (cfg, states)
        })
        .collect();
    // Per preset, the reachable state with the longest queues, the most
    // held descriptors and the most packets in flight.
    let mut dirty: Vec<SysState> = Vec::new();
    for (_, states) in &reach {
        for size in [queued, held, in_flight] {
            let big = states.iter().max_by_key(|s| size(s)).expect("non-empty");
            dirty.push(big.clone());
        }
    }
    assert!(
        dirty.iter().any(|d| queued(d) >= 2),
        "no long queue reached"
    );
    assert!(
        dirty.iter().any(|d| held(d) > 0),
        "no held descriptor reached"
    );
    assert!(
        dirty.iter().any(|d| in_flight(d) >= 3),
        "no busy channel reached"
    );
    assert!(
        dirty.iter().any(|d| d.nodes.len() == 3),
        "no 3-node destination"
    );

    let (mut copies, mut differed) = (0, 0);
    for (cfg, states) in &reach {
        // The initial state (index 0) and a spread of reachable ones.
        for src in states.iter().step_by(53) {
            let want = src.clone();
            for d in &dirty {
                let mut dst = d.clone();
                differed += usize::from(dbg(&dst) != dbg(&want));
                dst.clone_from(src);
                assert_eq!(dbg(&dst), dbg(&want), "{}", cfg.name);
                assert_eq!(encode(cfg, &dst), encode(cfg, &want), "{}", cfg.name);
                copies += 1;
            }
        }
    }
    // Nearly every copy overwrote a different state: a source can only
    // coincide with a destination taken from the same state graph.
    assert!(copies > 100, "only {copies} copies exercised");
    assert!(
        differed * 10 >= copies * 9,
        "only {differed} of {copies} destinations differed from their source"
    );
}
