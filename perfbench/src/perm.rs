//! `perm_stream`: every host of a fat_tree:12 (432 hosts) streams
//! [`MESSAGES`] × 2 KiB to the host a seeded shift away, under the
//! unreliable firmware on a clean wire with no trace ring. About half a
//! million events, nearly all of them scheduler, fabric and NIC mechanism
//! work; the firmware and host hooks add no protocol logic of their own.

use std::rc::Rc;

use san_fabric::updown::UpDownMap;
use san_fabric::{NodeId, Route};
use san_nic::testkit::StreamSender;
use san_nic::{Cluster, ClusterConfig, Firmware, HostAgent, UnreliableFirmware};
use san_sim::{Duration, Time};
use san_topo::TopoSpec;

use crate::cluster::ClusterCounts;
use crate::layers::{Layer, Profiler, TimedFirmware, TimedHost};
use crate::measure::{metric, mix, timed, Metric};
use crate::{phase_median, Pass, Workload};

/// Fat-tree radix.
const K: u8 = 12;
/// Messages per host.
const MESSAGES: u64 = 100;
/// Payload bytes per message.
const BYTES: u32 = 2048;
/// Simulated time per `run_until` slice.
const SLICE: Duration = Duration::from_millis(1);
/// Give-up horizon in slices: the permutation finishes in single-digit
/// simulated milliseconds.
const MAX_SLICES: u64 = 2_000;

/// What one pass produced.
#[derive(Debug, PartialEq, Eq)]
pub struct PermOut {
    /// Hosts in the fabric.
    pub hosts: usize,
    /// The permutation's shift.
    pub shift: usize,
    /// Simulated time of the last processed event, ns.
    pub sim_end_ns: u64,
    /// Exact counters.
    pub counts: ClusterCounts,
}

/// The `perm_stream` workload.
pub struct PermStream;

/// The shift for `seed`: a pod (k²/4 hosts) or more away in both
/// directions, so every stream leaves its pod and crosses the core.
fn shift_for(seed: u64, n: usize) -> usize {
    let pod = (K as usize * K as usize) / 4;
    pod + (mix(seed, 0x5) % (n - 2 * pod + 1) as u64) as usize
}

impl Workload for PermStream {
    type Out = PermOut;
    const WHY: &'static str = "long single-cluster run on a clean wire: a scheduler, fabric, \
        arena or engine change shows here, a firmware change must not";
    const LAYERS: &'static str = "topo build, fabric up*/down* routes, nic Cluster::new/run_until \
        (sim/des scheduler, fabric wormhole engine, nic mechanisms), unreliable firmware, stream host";
    const TRACEABLE: bool = true;

    fn pass(&self, seed: u64, prof: Option<&Rc<Profiler>>) -> Pass<PermOut> {
        let (topo_s, fabric) = timed(|| TopoSpec::FatTree { k: K }.build());
        let n = fabric.hosts.len();
        let shift = shift_for(seed, n);
        let dst = move |i: usize| (i + shift) % n;

        // Myrinet allows a 62.5 ms – 4 s send-path reset timer; the top of
        // the range lets a 100-deep burst queue at a trunk as backpressure
        // rather than read as deadlock (the routes are deadlock-free).
        let mut cfg = ClusterConfig::default();
        cfg.engine.path_reset_timeout = Duration::from_millis(4_000);
        let (new_s, mut cluster) = timed(|| {
            Cluster::new(
                fabric.topo,
                cfg,
                |_| {
                    let fw: Box<dyn Firmware> = Box::new(UnreliableFirmware);
                    match prof {
                        Some(p) => TimedFirmware::wrap(fw, p),
                        None => fw,
                    }
                },
                (0..n)
                    .map(|i| {
                        let h: Box<dyn HostAgent> =
                            Box::new(StreamSender::new(NodeId(dst(i) as u16), BYTES, MESSAGES));
                        match prof {
                            Some(p) => TimedHost::wrap(h, p),
                            None => h,
                        }
                    })
                    .collect(),
            )
        });
        let (routes_s, ()) = timed(|| {
            let topo = cluster.engine.topology().clone();
            let updown = UpDownMap::build(&topo, |_| true).expect("fat tree has switches");
            let routes: Vec<Option<Route>> = (0..n)
                .map(|i| {
                    let (a, b) = (NodeId(i as u16), NodeId(dst(i) as u16));
                    updown.route(&topo, a, b, |_| true)
                })
                .collect();
            cluster.install_routes(|a, b| {
                if dst(a.idx()) == b.idx() {
                    routes[a.idx()]
                } else {
                    None
                }
            });
        });

        let expected = n as u64 * MESSAGES;
        let (run_s, sim_end) = timed(|| {
            let mut deadline = Time::ZERO;
            let mut now = Time::ZERO;
            for _ in 0..MAX_SLICES {
                deadline += SLICE;
                now = match prof {
                    Some(p) => p.span(Layer::RunUntil, || cluster.run_until(deadline)),
                    None => cluster.run_until(deadline),
                };
                if cluster.engine.stats().delivered >= expected {
                    break;
                }
            }
            now
        });

        Pass {
            setup_s: topo_s + new_s + routes_s,
            run_s,
            phases: vec![
                ("topo.build_s", topo_s),
                ("nic.cluster_new_s", new_s),
                ("fabric.route_install_s", routes_s),
            ],
            split: prof.map(|p| p.split()),
            out: PermOut {
                hosts: n,
                shift,
                sim_end_ns: sim_end.nanos(),
                counts: ClusterCounts::of(&cluster),
            },
        }
    }

    fn check(&self, out: &PermOut) -> Vec<String> {
        check_perm(out)
    }

    fn events(&self, out: &PermOut) -> u64 {
        out.counts.events
    }

    fn per_layer(&self, passes: &[Pass<PermOut>]) -> Vec<Metric> {
        let out = &passes[0].out;
        let mut m: Vec<Metric> = [
            "topo.build_s",
            "nic.cluster_new_s",
            "fabric.route_install_s",
        ]
        .into_iter()
        .map(|name| metric(name, phase_median(passes, name), "s"))
        .collect();
        m.extend(out.counts.metrics());
        let delivered = out.counts.delivered as f64;
        let expected = (out.hosts as u64 * MESSAGES) as f64;
        m.push(metric("delivery_ratio", delivered / expected, "ratio"));
        m.push(metric(
            "sim_completion_ms",
            out.sim_end_ns as f64 / 1e6,
            "sim_ms",
        ));
        m.push(metric(
            "sim_goodput_mb_s",
            delivered * BYTES as f64 / 1e6 / (out.sim_end_ns as f64 / 1e9),
            "sim_MB/s",
        ));
        m
    }
}

/// Every host sends and receives exactly [`MESSAGES`], with no drop and
/// no path reset.
fn check_perm(out: &PermOut) -> Vec<String> {
    let mut errs = Vec::new();
    let expected = out.hosts as u64 * MESSAGES;
    let c = &out.counts;
    if c.delivered != expected || c.injected != expected {
        errs.push(format!(
            "injected {} / delivered {} packets, expected {expected}",
            c.injected, c.delivered
        ));
    }
    if c.dropped != 0 || c.path_resets != 0 {
        errs.push(format!(
            "{} drops, {} path resets",
            c.dropped, c.path_resets
        ));
    }
    if c.accepted_per_host.len() != out.hosts {
        errs.push(format!(
            "{} hosts reported, expected {}",
            c.accepted_per_host.len(),
            out.hosts
        ));
    }
    for (h, &got) in c.accepted_per_host.iter().enumerate() {
        if got != MESSAGES {
            errs.push(format!(
                "host {h} accepted {got} messages, expected {MESSAGES}"
            ));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(hosts: usize) -> PermOut {
        PermOut {
            hosts,
            shift: 1,
            sim_end_ns: 1,
            counts: ClusterCounts {
                events: 1,
                injected: hosts as u64 * MESSAGES,
                delivered: hosts as u64 * MESSAGES,
                dropped: 0,
                path_resets: 0,
                nic: [0; 7],
                accepted_per_host: vec![MESSAGES; hosts],
            },
        }
    }

    #[test]
    fn complete_permutation_passes() {
        assert!(check_perm(&clean(4)).is_empty());
    }

    /// Negative control: one host short by one message must fail.
    #[test]
    fn one_missing_message_fails() {
        let mut out = clean(4);
        out.counts.delivered -= 1;
        out.counts.accepted_per_host[2] -= 1;
        let errs = check_perm(&out);
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn a_path_reset_fails() {
        let mut out = clean(4);
        out.counts.path_resets = 1;
        assert_eq!(check_perm(&out).len(), 1);
    }

    #[test]
    fn shifts_leave_the_pod() {
        let n = 432;
        for seed in 0..200 {
            let s = shift_for(seed, n);
            assert!((36..=n - 36).contains(&s), "seed {seed} shift {s}");
        }
    }

    #[test]
    fn pass_is_clean_and_traced_run_is_faithful() {
        // The decorators must not change a single counter.
        let plain = PermStream.pass(3, None);
        let prof = Profiler::new();
        let traced = PermStream.pass(3, Some(&prof));
        assert!(check_perm(&plain.out).is_empty());
        assert_eq!(plain.out, traced.out);
        let split = traced.split.expect("traced pass carries a split");
        assert!(split.firmware_calls > 0 && split.host_calls > 0);
    }
}
