//! Replay a checker counterexample's *environment schedule* against the
//! real simulator.
//!
//! The model abstracts timing, so a model trace cannot be forced on the
//! simulator move-for-move. What can be replayed exactly is the part the
//! environment controls: which messages are posted in which order, and
//! when the link dies and comes back relative to those posts. Everything
//! else (retransmission, remap, retry backoff) is the protocol's own
//! response, which is the thing under test. This is how the re-introduced
//! stale-retry leak is validated end-to-end: the checker's minimal trace,
//! replayed here against the *fixed* firmware, must conserve descriptors
//! and drain — proving the counterexample indicts the bug, not the
//! scenario.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use san_fabric::{topology, LinkId, NodeId};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::make_desc;
use san_nic::{Cluster, ClusterConfig, Firmware, HostAgent, HostCtx};
use san_sim::{Duration, Time};

use crate::model::{McConfig, McEvent};

/// Wall-clock spacing between scheduled environment events: long enough
/// for a 2-node chain round trip plus a retransmission interval, so the
/// protocol can react between environment moves as it could in the model.
const STEP: Duration = Duration::from_micros(500);

/// Start of the schedule.
const BASE: Duration = Duration::from_micros(100);

/// Drain grace after the last scheduled event: covers the remap retry
/// backoff ladder and final retransmissions.
const GRACE: Duration = Duration::from_millis(3_000);

/// Outcome of replaying an environment schedule on the simulator.
#[derive(Debug, Clone)]
pub struct SimReplay {
    /// Messages posted by the schedule.
    pub posted: u64,
    /// Unique `(src, dst, msg_id)` deliveries.
    pub delivered: u64,
    /// `SendFailed` completions surfaced to the hosts.
    pub failed: u64,
    /// Occupied send buffers per node after the drain grace — any nonzero
    /// entry is a leaked descriptor.
    pub pool_in_use: Vec<usize>,
    /// Did every `ReliableFirmware` report drained?
    pub drained: bool,
}

impl SimReplay {
    /// The end-to-end conservation verdict: everything posted was
    /// delivered or failed, nothing is stuck, no buffer leaked.
    pub fn conserved(&self) -> bool {
        self.delivered + self.failed >= self.posted
            && self.drained
            && self.pool_in_use.iter().all(|&n| n == 0)
    }
}

/// Host that posts pre-scheduled messages and logs outcomes.
struct ScheduledHost {
    /// `(delay from start, dst, msg_id)`, in schedule order.
    posts: Vec<(Duration, NodeId, u64)>,
    delivered: Rc<RefCell<Vec<(u16, u16, u64)>>>,
    failed: Rc<RefCell<Vec<(u16, u16, u64)>>>,
    me: u16,
}

impl HostAgent for ScheduledHost {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for (i, &(at, _, _)) in self.posts.iter().enumerate() {
            ctx.wake_in(at, i as u64);
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx, token: u64) {
        let (_, dst, msg_id) = self.posts[token as usize];
        ctx.post_send(make_desc(dst, 64, msg_id, ctx.now()));
    }

    fn on_message(&mut self, _ctx: &mut HostCtx, pkt: san_fabric::Packet) {
        self.delivered
            .borrow_mut()
            .push((pkt.src.0, pkt.dst.0, pkt.msg_id));
    }

    fn on_send_failed(&mut self, _ctx: &mut HostCtx, msg_id: u64, dst: NodeId) {
        self.failed.borrow_mut().push((self.me, dst.0, msg_id));
    }

    fn on_send_done(&mut self, _ctx: &mut HostCtx, _msg_id: u64) {}
}

/// Replay the environment schedule of `trace` (posts and link flaps; the
/// protocol-internal events are the simulator's own job) on a 2-host
/// chain. Errors if `cfg` is not a 2-node configuration or a post names a
/// node outside it or addresses its own sender.
pub fn replay_on_sim(cfg: &McConfig, trace: &[McEvent]) -> Result<SimReplay, String> {
    if cfg.n_nodes != 2 {
        return Err(format!(
            "sim replay supports 2-node configs, `{}` has {} nodes",
            cfg.name, cfg.n_nodes
        ));
    }
    let (topo, host_a, host_b) = topology::chain(1);
    let node_of = [host_a, host_b];
    // chain(1): LinkId(1) is the sw0–hostB edge — severing it partitions
    // the pair in both directions, the closest sim analogue to the
    // model's per-direction channel kill.
    let cut = LinkId(1);

    // Walk the trace, assigning each environment event its slot time.
    let mut posts: Vec<Vec<(Duration, NodeId, u64)>> = vec![Vec::new(), Vec::new()];
    let mut next_msg: HashMap<(u8, u8), u64> = HashMap::new();
    let mut plan = san_fabric::FaultPlan::new();
    let mut link_up = true;
    let mut posted = 0u64;
    for (i, ev) in trace.iter().enumerate() {
        let at = BASE + STEP * i as u64;
        match *ev {
            McEvent::Post { src, dst } => {
                if src.max(dst) >= 2 || src == dst {
                    return Err(format!(
                        "event {i}: `post {src} {dst}` needs two distinct nodes below 2"
                    ));
                }
                let id = next_msg.entry((src, dst)).or_insert(0);
                posts[src as usize].push((at, node_of[dst as usize], *id));
                *id += 1;
                posted += 1;
            }
            McEvent::LinkDown { .. } if link_up => {
                plan = plan.link_down(Time::ZERO + at, cut);
                link_up = false;
            }
            McEvent::LinkUp { .. } if !link_up => {
                plan = plan.link_up(Time::ZERO + at, cut);
                link_up = true;
            }
            _ => {} // protocol-internal: the simulator's timers do these
        }
    }

    let delivered = Rc::new(RefCell::new(Vec::new()));
    let failed = Rc::new(RefCell::new(Vec::new()));
    let hosts: Vec<Box<dyn HostAgent>> = (0..2)
        .map(|i| -> Box<dyn HostAgent> {
            Box::new(ScheduledHost {
                posts: std::mem::take(&mut posts[i]),
                delivered: delivered.clone(),
                failed: failed.clone(),
                me: node_of[i].0,
            })
        })
        .collect();

    let proto = ProtocolConfig {
        feedback: cfg.feedback,
        receiver_ack_every: cfg.receiver_ack_every,
        drop_interval: cfg.drop_interval,
        ..ProtocolConfig::default().with_mapping()
    };
    let mut cluster = Cluster::new(
        topo,
        ClusterConfig {
            send_bufs: cfg.pool_capacity,
            ..ClusterConfig::default()
        },
        move |_| -> Box<dyn Firmware> {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                2,
            ))
        },
        hosts,
    );
    cluster.install_shortest_routes();
    plan.arm(&mut cluster.sim);

    // Run past the schedule plus drain grace, in slices, stopping early
    // once everything posted is accounted for and the queues are empty.
    let deadline = Time::ZERO + BASE + STEP * trace.len() as u64 + GRACE;
    let mut t = Time::from_millis(1);
    loop {
        cluster.run_until(t);
        let mut seen: Vec<(u16, u16, u64)> = delivered.borrow().clone();
        seen.sort_unstable();
        seen.dedup();
        let accounted = seen.len() as u64 + failed.borrow().len() as u64;
        let drained = cluster.nics.iter().all(|nic| {
            nic.fw
                .as_any()
                .downcast_ref::<ReliableFirmware>()
                .is_some_and(|fw| fw.drained())
        });
        if (accounted >= posted && drained) || t >= deadline {
            let mut uniq = delivered.borrow().clone();
            uniq.sort_unstable();
            uniq.dedup();
            return Ok(SimReplay {
                posted,
                delivered: uniq.len() as u64,
                failed: failed.borrow().len() as u64,
                pool_in_use: cluster.nics.iter().map(|n| n.core.pool.in_use()).collect(),
                drained,
            });
        }
        t += Duration::from_millis(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_schedules_are_errors() {
        let post = |src, dst| vec![McEvent::Post { src, dst }];
        let tiny = McConfig::tiny2();
        assert!(replay_on_sim(&tiny, &post(0, 7)).is_err());
        assert!(replay_on_sim(&tiny, &post(7, 0)).is_err());
        assert!(replay_on_sim(&tiny, &post(1, 1)).is_err());
        assert!(replay_on_sim(&McConfig::incast3(), &post(0, 1)).is_err());
    }
}
