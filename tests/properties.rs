//! Property-based integration tests: protocol guarantees under arbitrary
//! fault schedules and topologies.

use proptest::prelude::*;
use san_fabric::{topology, Endpoint, NodeId, PortId, Topology, TransientFaults};
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::testkit::{inbox, Collector, StreamSender};
use san_nic::{Cluster, ClusterConfig, HostAgent};
use san_sim::{Duration, Time};

fn ft_cluster(
    topo: Topology,
    cfg: ClusterConfig,
    proto: ProtocolConfig,
    hosts: Vec<Box<dyn HostAgent>>,
) -> Cluster {
    let n = topo.num_hosts();
    let mut c = Cluster::new(
        topo,
        cfg,
        move |_| {
            Box::new(ReliableFirmware::new(
                proto.clone(),
                MapperConfig::default(),
                n,
            ))
        },
        hosts,
    );
    c.install_shortest_routes();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once in-order delivery holds for any combination of loss
    /// probability, corruption probability, injected-drop interval, queue
    /// size and message size.
    #[test]
    fn delivery_guarantee_under_arbitrary_faults(
        loss in 0.0f64..0.06,
        corrupt in 0.0f64..0.06,
        drop_every in prop_oneof![Just(None), (5u64..50).prop_map(Some)],
        queue in prop_oneof![Just(2u16), Just(8), Just(32)],
        bytes in prop_oneof![Just(64u32), Just(1024), Just(4096)],
        seed in any::<u64>(),
    ) {
        let (topo, _a, _b) = topology::pair_via_switch();
        let ib = inbox();
        let n = 80u64;
        let hosts: Vec<Box<dyn HostAgent>> = vec![
            Box::new(StreamSender::new(NodeId(1), bytes, n)),
            Box::new(Collector(ib.clone())),
        ];
        let proto = ProtocolConfig { drop_interval: drop_every, ..Default::default() };
        let cfg = ClusterConfig { send_bufs: queue, ..Default::default() };
        let mut c = ft_cluster(topo, cfg, proto, hosts);
        c.engine.set_transient_faults(
            TransientFaults { loss_prob: loss, corrupt_prob: corrupt, burst: None },
            seed,
        );
        let mut t = Time::from_millis(50);
        while (ib.borrow().len() as u64) < n && t < Time::from_secs(20) {
            c.run_until(t);
            t += Duration::from_millis(50);
        }
        let ids: Vec<u64> = ib.borrow().iter().map(|p| p.msg_id).collect();
        prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }

    /// On any random connected topology, cold-start on-demand mapping finds
    /// a working route between any two hosts and traffic flows.
    #[test]
    fn mapper_finds_route_on_any_connected_topology(
        seed in any::<u64>(),
        n_switch in 1usize..5,
        extra_links in 0usize..3,
    ) {
        let mut rng = san_sim::SimRng::seed_from(seed);
        let mut topo = Topology::new();
        let switches: Vec<_> = (0..n_switch).map(|_| topo.add_switch(8)).collect();
        // Random spanning tree over switches.
        for i in 1..n_switch {
            let j = rng.below(i as u64) as usize;
            let pa = (0..8).find(|&p| topo.link_at(Endpoint::Switch(switches[i], PortId(p))).is_none()).unwrap();
            let pb = (0..8).find(|&p| topo.link_at(Endpoint::Switch(switches[j], PortId(p))).is_none()).unwrap();
            topo.connect_switches(switches[i], pa, switches[j], pb);
        }
        for _ in 0..extra_links {
            let i = rng.below(n_switch as u64) as usize;
            let j = rng.below(n_switch as u64) as usize;
            if i == j { continue; }
            let pa = (0..8).find(|&p| topo.link_at(Endpoint::Switch(switches[i], PortId(p))).is_none());
            let pb = (0..8).find(|&p| topo.link_at(Endpoint::Switch(switches[j], PortId(p))).is_none());
            if let (Some(pa), Some(pb)) = (pa, pb) {
                topo.connect_switches(switches[i], pa, switches[j], pb);
            }
        }
        // Two hosts on random switches (if ports allow).
        let a = topo.add_host();
        let b = topo.add_host();
        let sa = switches[rng.below(n_switch as u64) as usize];
        let sb = switches[rng.below(n_switch as u64) as usize];
        let pa = (0..8).find(|&p| topo.link_at(Endpoint::Switch(sa, PortId(p))).is_none());
        prop_assume!(pa.is_some());
        topo.connect_host(a, sa, pa.unwrap());
        // pb is searched only after a is wired, so sa == sb cannot collide.
        let pb = (0..8).find(|&p| topo.link_at(Endpoint::Switch(sb, PortId(p))).is_none());
        prop_assume!(pb.is_some());
        topo.connect_host(b, sb, pb.unwrap());
        prop_assume!(topo.shortest_route(a, b, |_| true).is_some());
        // Route length must fit the probing depth.
        prop_assume!(topo.shortest_route(a, b, |_| true).unwrap().len() <= 6);

        let ib = inbox();
        let hosts: Vec<Box<dyn HostAgent>> = vec![
            Box::new(StreamSender::new(b, 64, 3)),
            Box::new(Collector(ib.clone())),
        ];
        let proto = ProtocolConfig::default().with_mapping();
        let nn = topo.num_hosts();
        let mut c = Cluster::new(
            topo,
            ClusterConfig::default(),
            move |_| Box::new(ReliableFirmware::new(proto.clone(), MapperConfig::default(), nn)),
            hosts,
        );
        // Cold start: no routes installed.
        let mut t = Time::from_millis(20);
        while ib.borrow().len() < 3 && t < Time::from_secs(10) {
            c.run_until(t);
            t += Duration::from_millis(20);
        }
        prop_assert_eq!(ib.borrow().len(), 3, "mapping must deliver the messages");
    }
}
