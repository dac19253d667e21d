//! `tenants_lossy`: 640 heavy-tailed open-loop tenants on fat_tree:8 (128
//! hosts) — Poisson 2000/s each, lognormal sizes with a 4 KiB median,
//! uniform destinations — over a wire that loses 2e-3 of packets, with the
//! adaptive RTO, window damping and host recovery on. The point sits
//! between the fixed-timer knee (640 tenants) and the adaptive one (768),
//! so go-back-N, ACKs, timers, the RTT estimator and the workload ledger
//! do most of the work.
//!
//! The pass is `san_workload::run` taken apart at its public seams
//! (`TopoSpec::build`, `build_hosts`, `Cluster::new`, route install,
//! `run_until`) so set-up is timed apart from the run; once per run the
//! report is checked equal to `san_workload::run` on the same config.

use std::rc::Rc;

use san_fabric::TransientFaults;
use san_ft::{MapperConfig, ProtocolConfig, ReliableFirmware};
use san_nic::{Cluster, ClusterConfig, Firmware};
use san_sim::{Duration, Time};
use san_telemetry::Telemetry;
use san_topo::TopoSpec;
use san_workload::{
    build_hosts, ArrivalSpec, DestSpec, RunConfig, SizeSpec, WorkloadOptions, WorkloadReport,
    WorkloadSpec,
};

use crate::cluster::ClusterCounts;
use crate::layers::{Layer, Profiler, TimedFirmware, TimedHost};
use crate::measure::{metric, mix, timed, Metric};
use crate::{phase_median, Pass, Workload};

/// Completion-poll slice, as in `san_workload::run`.
const SLICE_MS: u64 = 5;

/// What one pass produced.
#[derive(Debug, PartialEq)]
pub struct TenantsOut {
    /// The workload ledger's report.
    pub report: WorkloadReport,
    /// Exact counters.
    pub counts: ClusterCounts,
}

/// The `tenants_lossy` workload.
pub struct TenantsLossy;

/// The run configuration at `seed`.
pub fn config(seed: u64) -> RunConfig {
    RunConfig {
        spec: WorkloadSpec {
            tenants: 640,
            arrival: ArrivalSpec::Poisson { rate: 2_000.0 },
            size: SizeSpec::Lognormal {
                median: 4_096,
                sigma: 1.0,
                cap: 65_536,
            },
            dest: DestSpec::Uniform,
            window_ms: 5,
            max_backlog: 4,
        },
        topo: TopoSpec::FatTree { k: 8 },
        seed: mix(seed, 0x7E4A),
        adaptive: true,
        loss: 2e-3,
        corrupt: 0.0,
        host_recovery: true,
        grace_ms: 500,
        telemetry: Telemetry::new(),
        register_metrics: false,
    }
}

/// Drive `cfg` the way `san_workload::run` does, timing each set-up step.
/// Derived seeds use the same splitmix64 construction as the workload
/// crate, so the drive replays the one-call run exactly.
fn drive(cfg: &RunConfig, prof: Option<&Rc<Profiler>>) -> Pass<TenantsOut> {
    let (topo_s, built) = timed(|| cfg.topo.build());
    let n = built.hosts.len();
    let opts = WorkloadOptions {
        seed: mix(cfg.seed, 2),
        telemetry: cfg.telemetry.clone(),
        record_segments: false,
        register_metrics: cfg.register_metrics,
        host_recovery: cfg.host_recovery,
    };
    let (hosts_s, (ledger, agents)) =
        timed(|| build_hosts(&cfg.spec, &built.hosts, &built.hosts, &opts));
    let agents = match prof {
        Some(p) => agents.into_iter().map(|h| TimedHost::wrap(h, p)).collect(),
        None => agents,
    };
    let cluster_cfg = ClusterConfig {
        seed: cfg.seed,
        telemetry: cfg.telemetry.clone(),
        ..ClusterConfig::default()
    };
    let mut proto = ProtocolConfig::default();
    if cfg.adaptive {
        proto = proto.with_adaptive_rto().with_window_damping();
    }
    let (new_s, mut cluster) = timed(|| {
        Cluster::new(
            built.topo,
            cluster_cfg,
            |_| {
                let fw: Box<dyn Firmware> = Box::new(ReliableFirmware::new(
                    proto.clone(),
                    MapperConfig::default(),
                    n,
                ));
                match prof {
                    Some(p) => TimedFirmware::wrap(fw, p),
                    None => fw,
                }
            },
            agents,
        )
    });
    let (routes_s, ()) = timed(|| cluster.install_shortest_routes());
    cluster.engine.set_transient_faults(
        TransientFaults {
            loss_prob: cfg.loss,
            corrupt_prob: cfg.corrupt,
            burst: None,
        },
        mix(cfg.seed, 1),
    );

    let (run_s, report) = timed(|| {
        let window = Time::from_millis(cfg.spec.window_ms);
        let deadline = Time::from_millis(cfg.spec.window_ms + cfg.grace_ms);
        let mut t = Time::from_millis(SLICE_MS.min(cfg.spec.window_ms));
        loop {
            let now = match prof {
                Some(p) => p.span(Layer::RunUntil, || cluster.run_until(t)),
                None => cluster.run_until(t),
            };
            if now >= window {
                let complete = ledger.total_delivered() >= ledger.total_posted();
                let drained = cluster.nics.iter().all(|nic| {
                    nic.fw
                        .as_any()
                        .downcast_ref::<ReliableFirmware>()
                        .is_some_and(|fw| fw.drained())
                });
                if complete && drained {
                    break;
                }
            }
            if t >= deadline {
                break;
            }
            t += Duration::from_millis(SLICE_MS);
        }
        ledger.report()
    });

    Pass {
        setup_s: topo_s + hosts_s + new_s + routes_s,
        run_s,
        phases: vec![
            ("topo.build_s", topo_s),
            ("workload.build_hosts_s", hosts_s),
            ("nic.cluster_new_s", new_s),
            ("fabric.route_install_s", routes_s),
        ],
        split: prof.map(|p| p.split()),
        out: TenantsOut {
            report,
            counts: ClusterCounts::of(&cluster),
        },
    }
}

impl Workload for TenantsLossy {
    type Out = TenantsOut;
    const WHY: &'static str = "reliable protocol under loss at the tenant knee: go-back-N, acks, \
        timers, RTT estimation and the ledger dominate, and all-pairs route set-up is a large share";
    const LAYERS: &'static str = "topo build, fabric shortest routes, workload build_hosts, nic \
        Cluster::new/run_until, reliable firmware (core), workload host agents, telemetry counters";
    const TRACEABLE: bool = true;

    fn pass(&self, seed: u64, prof: Option<&Rc<Profiler>>) -> Pass<TenantsOut> {
        drive(&config(seed), prof)
    }

    fn check(&self, out: &TenantsOut) -> Vec<String> {
        check_report(&out.report)
    }

    fn cross_check(&self, seed: u64, first: &TenantsOut) -> Vec<String> {
        let ours = &first.report;
        let theirs = san_workload::run(&config(seed));
        if *ours == theirs {
            Vec::new()
        } else {
            vec![format!(
                "split drive differs from san_workload::run: {} vs {}",
                ours.summary_line(),
                theirs.summary_line()
            )]
        }
    }

    fn events(&self, out: &TenantsOut) -> u64 {
        out.counts.events
    }

    fn per_layer(&self, passes: &[Pass<TenantsOut>]) -> Vec<Metric> {
        let out = &passes[0].out;
        let r = &out.report;
        let mut m: Vec<Metric> = [
            "topo.build_s",
            "workload.build_hosts_s",
            "nic.cluster_new_s",
            "fabric.route_install_s",
        ]
        .into_iter()
        .map(|name| metric(name, phase_median(passes, name), "s"))
        .collect();
        m.extend(out.counts.metrics());
        m.extend([
            metric("workload.offered", r.offered_total as f64, "count"),
            metric("workload.posted", r.posted_total as f64, "count"),
            metric("workload.shed", r.shed_total as f64, "count"),
            metric("delivery_ratio", r.delivery_ratio(), "ratio"),
            metric("sim_goodput_mb_s", r.delivered_mb_per_s(), "sim_MB/s"),
            metric("sim_p99_us", r.p99_ns as f64 / 1e3, "sim_us"),
            metric("sim_p999_us", r.p999_ns as f64 / 1e3, "sim_us"),
            metric("sim_fairness", r.fairness, "jain"),
        ]);
        m
    }
}

/// Every posted message delivered exactly once, per tenant and in total,
/// and the ledger's books balance (offered = posted + shed).
fn check_report(r: &WorkloadReport) -> Vec<String> {
    let mut errs = Vec::new();
    if r.offered_total == 0 || r.delivered_total == 0 {
        errs.push("no traffic".into());
    }
    if r.delivered_total != r.posted_total {
        errs.push(format!(
            "delivered {} of {} posted messages",
            r.delivered_total, r.posted_total
        ));
    }
    if r.offered_total != r.posted_total + r.shed_total {
        errs.push(format!(
            "offered {} != posted {} + shed {}",
            r.offered_total, r.posted_total, r.shed_total
        ));
    }
    for t in &r.tenants {
        if t.delivered + t.shed != t.offered {
            errs.push(format!(
                "tenant {}: delivered {} + shed {} != offered {}",
                t.tenant, t.delivered, t.shed, t.offered
            ));
        }
    }
    let per_tenant: u64 = r.tenants.iter().map(|t| t.delivered).sum();
    if per_tenant != r.delivered_total {
        errs.push(format!(
            "tenant rows deliver {per_tenant}, total says {}",
            r.delivered_total
        ));
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh small config (with its own telemetry registry).
    fn small() -> RunConfig {
        let mut cfg = config(5);
        cfg.spec.tenants = 16;
        cfg.spec.window_ms = 2;
        cfg.topo = TopoSpec::FatTree { k: 4 };
        cfg
    }

    #[test]
    fn split_drive_equals_the_one_call_run() {
        let cfg = small();
        let ours = drive(&cfg, None).out.report;
        assert!(check_report(&ours).is_empty(), "{:?}", check_report(&ours));
        assert_eq!(ours, san_workload::run(&cfg));
    }

    #[test]
    fn traced_drive_is_faithful() {
        // Each drive gets its own telemetry registry, as each pass does.
        let plain = drive(&small(), None);
        let traced = drive(&small(), Some(&Profiler::new()));
        assert_eq!(plain.out, traced.out);
        let split = traced.split.unwrap();
        assert!(split.firmware_calls > 0 && split.host_calls > 0);
    }

    /// Negative control: a report with one message missing must fail.
    #[test]
    fn one_missing_message_fails() {
        let mut r = drive(&small(), None).out.report;
        assert!(check_report(&r).is_empty());
        r.delivered_total -= 1;
        let t = r.tenants.iter_mut().find(|t| t.delivered > 0).unwrap();
        t.delivered -= 1;
        let errs = check_report(&r);
        assert_eq!(errs.len(), 2, "{errs:?}");
    }
}
