//! Ablations of the paper's design choices (DESIGN.md §5):
//!
//! 3. sender-based feedback vs fixed ACK-every-K,
//! 4. on-demand partial mapping vs mapping the whole network,
//! 5. uniform vs bursty wire loss at the same average rate.
//!
//! Sections 1, 2 and 3b (per-packet timers, selective retransmission,
//! reliable reception) compared firmware modes that have since been
//! removed; their last results are kept in EXPERIMENTS.md.

use san_bench::{parse_mode, tsv};
use san_fabric::{topology, NodeId};
use san_ft::{FeedbackPolicy, MapperConfig, ProtocolConfig, ReliableFirmware};
use san_microbench::{unidirectional_bandwidth, FwKind};
use san_nic::testkit::{inbox, Collector, StreamSender};
use san_nic::{Cluster, ClusterConfig, HostAgent};
use san_sim::{Duration, Time};

fn main() {
    let mode = parse_mode();
    let volume = mode.volume();
    let msgs = volume / 4096;
    // Error cells need enough packets for the injector to fire repeatedly.
    let msgs_for = |err: f64| -> u64 {
        if err > 0.0 {
            msgs.max((12.0 / err) as u64).min(30_000)
        } else {
            msgs
        }
    };
    let deadline = Time::from_secs(240);

    // ---- 3. ACK-request policy --------------------------------------------
    println!("Ablation 3: sender-based feedback (paper) vs fixed ACK-every-K");
    println!();
    println!("{:<26} {:>10} {:>10}", "config", "err", "MB/s");
    for &err in &[0.0f64, 1e-2] {
        let feedbacks: Vec<(String, FeedbackPolicy)> = vec![
            (
                "sender feedback (paper)".into(),
                FeedbackPolicy::SenderFeedback,
            ),
            ("every-1".into(), FeedbackPolicy::EveryK(1)),
            ("every-8".into(), FeedbackPolicy::EveryK(8)),
            ("every-32".into(), FeedbackPolicy::EveryK(32)),
        ];
        for (label, fb) in feedbacks {
            let mut p = ProtocolConfig::default().with_error_rate(err);
            p.feedback = fb;
            let bw = unidirectional_bandwidth(
                &FwKind::Ft(p),
                4096,
                msgs_for(err),
                ClusterConfig::default(),
                deadline,
            );
            println!("{label:<26} {:>10} {:>10.1}", format!("{err:.0e}"), bw.mbps);
            tsv(&[
                "feedback".into(),
                label,
                format!("{err:.0e}"),
                format!("{:.2}", bw.mbps),
            ]);
        }
    }
    println!();

    // ---- 5. Bursty vs uniform errors (the paper's untested case) -----------
    println!("Ablation 5: uniform vs bursty wire loss at the same average rate");
    println!();
    println!("{:<30} {:>10} {:>12}", "config", "MB/s", "retransmits");
    for &(label, bursty) in &[("uniform 1% loss", false), ("bursty 1% loss (len 8)", true)] {
        use san_fabric::TransientFaults;
        let fw = FwKind::Ft(ProtocolConfig::default());
        let cfg = ClusterConfig::default();
        // Run via the bandwidth driver, then overlay wire faults by
        // rebuilding manually: the driver owns the cluster, so use the
        // lower-level pieces directly.
        let bw = {
            use san_microbench::agents::{state, Sink, UniSource};
            use san_nic::HostAgent;
            let stt = state();
            let hosts: Vec<Box<dyn HostAgent>> = vec![
                Box::new(UniSource::new(san_fabric::NodeId(1), 4096, msgs)),
                Box::new(Sink::new(san_fabric::NodeId(1), msgs, stt.clone())),
            ];
            let mut cluster = san_microbench::pair_cluster(&fw, cfg, hosts);
            let faults = if bursty {
                TransientFaults::bursty_loss(0.01, 8.0)
            } else {
                TransientFaults::loss(0.01)
            };
            cluster.engine.set_transient_faults(faults, 7);
            let slice = Duration::from_millis(10);
            let mut t = Time::ZERO + slice;
            while !stt.borrow().done && t < deadline {
                cluster.run_until(t);
                t += slice;
            }
            let done = stt.borrow().done;
            let last = stt.borrow().received.iter().map(|d| d.completed_at).max();
            let mbps = match (done, last) {
                (true, Some(last)) => {
                    (msgs * 4096) as f64 / last.since(Time::ZERO).as_secs_f64() / 1e6
                }
                _ => 0.0,
            };
            (
                mbps,
                cluster
                    .nics
                    .iter()
                    .map(|n| n.core.stats.retransmits.get())
                    .sum::<u64>(),
            )
        };
        println!("{label:<30} {:>10.1} {:>12}", bw.0, bw.1);
        tsv(&[
            "burst".into(),
            label.into(),
            format!("{:.2}", bw.0),
            bw.1.to_string(),
        ]);
    }
    println!();

    // ---- 4. On-demand vs whole-network mapping -----------------------------
    println!("Ablation 4: on-demand partial mapping vs mapping the whole network");
    println!();
    let tb = topology::paper_mapping_testbed(4); // 16 hosts, 4 switches
    let n = tb.hosts.len();
    // (a) Map just one nearby destination (on-demand early exit).
    let near = run_mapping(&tb, tb.hosts[4], n); // same-switch neighbour
                                                 // (b) Map an absent destination: forces exploration of the entire
                                                 // network — the cost a full-map scheme pays up front.
    let full = run_mapping_unreachable(&tb, n);
    println!(
        "{:<30} {:>12} {:>14} {:>12}",
        "scheme", "host probes", "switch probes", "time (ms)"
    );
    println!(
        "{:<30} {:>12} {:>14} {:>12.3}",
        "on-demand, nearby target", near.0, near.1, near.2
    );
    println!(
        "{:<30} {:>12} {:>14} {:>12.3}",
        "whole network (full map)", full.0, full.1, full.2
    );
    tsv(&[
        "mapping".into(),
        "on-demand".into(),
        near.0.to_string(),
        near.1.to_string(),
        format!("{:.3}", near.2),
    ]);
    tsv(&[
        "mapping".into(),
        "full".into(),
        full.0.to_string(),
        full.1.to_string(),
        format!("{:.3}", full.2),
    ]);

    if let Some(dir) = san_bench::telemetry_dir() {
        // Representative point: the paper's firmware at 1e-2 errors.
        let proto = ProtocolConfig::default().with_error_rate(1e-2);
        san_bench::instrumented_stream(&dir, "ablate", &FwKind::Ft(proto), 4096, 128, 32);
    }
}

fn run_mapping(tb: &topology::MappingTestbed, dst: NodeId, n: usize) -> (u64, u64, f64) {
    let ib = inbox();
    let hosts: Vec<Box<dyn HostAgent>> = (0..n)
        .map(|h| -> Box<dyn HostAgent> {
            if h == 0 {
                Box::new(StreamSender::new(dst, 64, 1))
            } else if h == dst.idx() {
                Box::new(Collector(ib.clone()))
            } else {
                Box::new(san_nic::IdleHost)
            }
        })
        .collect();
    let proto = ProtocolConfig::default().with_mapping();
    let mut cluster = Cluster::new(
        tb.topo.clone(),
        ClusterConfig::default(),
        |_| {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n,
            ))
        },
        hosts,
    );
    let mut t = Time::from_millis(5);
    while ib.borrow().is_empty() && t < Time::from_secs(5) {
        cluster.run_until(t);
        t += Duration::from_millis(5);
    }
    let st = cluster.nics[0]
        .fw
        .as_any()
        .downcast_ref::<ReliableFirmware>()
        .unwrap()
        .mapper_stats()
        .clone();
    (st.last_host_probes, st.last_switch_probes, st.last_time_ms)
}

fn run_mapping_unreachable(tb: &topology::MappingTestbed, n: usize) -> (u64, u64, f64) {
    // A phantom destination id beyond every wired host: the mapper explores
    // everything before giving up, which equals the full-map workload.
    let phantom = NodeId(n as u16);
    let hosts: Vec<Box<dyn HostAgent>> = (0..=n)
        .map(|h| -> Box<dyn HostAgent> {
            if h == 0 {
                Box::new(StreamSender::new(phantom, 64, 1))
            } else {
                Box::new(san_nic::IdleHost)
            }
        })
        .collect();
    let mut topo = tb.topo.clone();
    let _ = topo.add_host(); // phantom host exists but is wired nowhere
    let proto = ProtocolConfig::default().with_mapping();
    let mut cluster = Cluster::new(
        topo,
        ClusterConfig::default(),
        |_| {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n + 1,
            ))
        },
        hosts,
    );
    let mut t = Time::from_millis(5);
    loop {
        cluster.run_until(t);
        let st = cluster.nics[0]
            .fw
            .as_any()
            .downcast_ref::<ReliableFirmware>()
            .unwrap()
            .mapper_stats()
            .clone();
        if st.unreachable.get() > 0 || t > Time::from_secs(10) {
            return (st.last_host_probes, st.last_switch_probes, st.last_time_ms);
        }
        t += Duration::from_millis(5);
    }
}
