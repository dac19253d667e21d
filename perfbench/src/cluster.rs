//! Exact counters read off a finished `Cluster`: the fabric's
//! `Engine::stats` and the per-node NIC/protocol telemetry cells.

use san_nic::Cluster;
use san_telemetry::MetricValue;

use crate::measure::{metric, Metric};

/// NIC counters summed over every node's `nic.node.<n>.<leaf>` and
/// `ft.node.<n>.<leaf>` cells, in [`ClusterCounts::nic`] order.
const NIC_LEAVES: [&str; 7] = [
    "packets_tx",
    "retransmits",
    "acks_tx",
    "timer_fires",
    "ooo_drops",
    "rx_overflow",
    "blocked_no_buffer",
];

/// Per-layer metric names of [`NIC_LEAVES`].
const NIC_METRICS: [&str; 7] = [
    "nic.packets_tx",
    "nic.retransmits",
    "nic.acks_tx",
    "nic.timer_fires",
    "nic.ooo_drops",
    "nic.rx_overflow",
    "nic.blocked_no_buffer",
];

/// What one cluster run did, counted exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterCounts {
    /// Events `run_until` processed.
    pub events: u64,
    /// Fabric packets injected.
    pub injected: u64,
    /// Fabric packets delivered.
    pub delivered: u64,
    /// Fabric drops, every cause.
    pub dropped: u64,
    /// Fabric path resets.
    pub path_resets: u64,
    /// Sums of [`NIC_LEAVES`] over all nodes.
    pub nic: [u64; 7],
    /// Data packets each host's NIC accepted and deposited
    /// (`nic.node.<n>.data_accepted`).
    pub accepted_per_host: Vec<u64>,
}

impl ClusterCounts {
    /// Read the counters of `c`.
    pub fn of(c: &Cluster) -> Self {
        let stats = c.engine.stats();
        let mut nic = [0u64; 7];
        let mut accepted_per_host = vec![0u64; c.nics.len()];
        for e in c.telemetry.snapshot().entries {
            let MetricValue::Counter(v) = e.value else {
                continue;
            };
            let Some(rest) = e
                .name
                .strip_prefix("nic.node.")
                .or_else(|| e.name.strip_prefix("ft.node."))
            else {
                continue;
            };
            let Some((node, leaf)) = rest.split_once('.') else {
                continue;
            };
            if let Some(i) = NIC_LEAVES.iter().position(|l| *l == leaf) {
                nic[i] += v;
            } else if leaf == "data_accepted" {
                if let Some(slot) = node
                    .parse::<usize>()
                    .ok()
                    .and_then(|n| accepted_per_host.get_mut(n))
                {
                    *slot += v;
                }
            }
        }
        Self {
            events: c.events_processed(),
            injected: stats.injected,
            delivered: stats.delivered,
            dropped: stats.dropped.iter().sum(),
            path_resets: stats.path_resets,
            nic,
            accepted_per_host,
        }
    }

    /// Retransmissions per first transmission: the wasted wire work.
    pub fn retransmit_ratio(&self) -> f64 {
        let (tx, retx) = (self.nic[0], self.nic[1]);
        if tx == 0 {
            0.0
        } else {
            retx as f64 / tx as f64
        }
    }

    /// The fabric and NIC per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = vec![
            metric("fabric.injected", self.injected as f64, "count"),
            metric("fabric.delivered", self.delivered as f64, "count"),
            metric("fabric.dropped", self.dropped as f64, "count"),
            metric("fabric.path_resets", self.path_resets as f64, "count"),
            metric("core.retransmit_ratio", self.retransmit_ratio(), "ratio"),
        ];
        out.extend(
            NIC_METRICS
                .iter()
                .zip(self.nic)
                .map(|(name, v)| metric(name, v as f64, "count")),
        );
        out
    }
}
