//! `engine`: throughput study of the simulation engine core itself —
//! wall-clock events/sec and simulated-ns per wall-ms of the timing-wheel
//! scheduler and the fabric, swept over atlas fabrics from 16 to 1024
//! hosts.
//!
//! Traffic is a fixed shift permutation (host `i` streams to host
//! `i + n/2 mod n`) with routes installed only for the pairs that talk —
//! route setup stays O(n · E), not the n² BFS of
//! `Cluster::install_shortest_routes`, so the measurement is the engine,
//! not the setup.
//!
//! The default run writes `BENCH_engine.json` (`--json <path>` overrides):
//! per-fabric rows and the largest host count each family finishes inside
//! the 60 s wall budget. `--smoke` is the CI gate: a 16-host fabric must
//! deliver the whole permutation, clear an events/sec floor, and give the
//! same delivery, event, sim-time, drop and reset counts on a second run.
//! `--one <spec>` measures and prints one fabric without writing JSON.

use std::time::Instant;

use san_fabric::updown::UpDownMap;
use san_fabric::{NodeId, Route, Topology};
use san_nic::testkit::StreamSender;
use san_nic::{Cluster, ClusterConfig, HostAgent, UnreliableFirmware};
use san_sim::{Duration, Time};
use san_topo::TopoSpec;

/// Messages per host per trial.
const MESSAGES: u64 = 100;
/// Payload bytes per message.
const BYTES: u32 = 2048;
/// Wall budget per measurement (the "max hosts in 60 s" bound).
const WALL_BUDGET_SECS: f64 = 60.0;
/// Sim-time slice per driver iteration.
const SLICE: Duration = Duration::from_millis(1);
/// Give-up horizon: a permutation of MESSAGES×2 KiB streams finishes in
/// single-digit sim-milliseconds; 2 s of sim time means something is wrong.
const MAX_SLICES: u64 = 2_000;

/// One measurement row.
struct Row {
    fabric: String,
    hosts: usize,
    delivered: u64,
    expected: u64,
    drops: [u64; 6],
    resets: u64,
    events: u64,
    sim_ns: u64,
    wall_ms: f64,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ms / 1e3)
    }
    fn sim_ns_per_wall_ms(&self) -> f64 {
        self.sim_ns as f64 / self.wall_ms
    }
}

/// The shift permutation: everyone sends, everyone receives, every stream
/// crosses the "middle" of the host id space.
fn perm(n: usize, i: usize) -> usize {
    (i + n / 2) % n
}

/// Precomputed routes for exactly the permutation pairs. Cyclic fabrics
/// (torus) get UP*/DOWN*-legal routes — the whole permutation streams at
/// once, and greedy shortest routes on a cyclic fabric wormhole-deadlock
/// by design; the study measures engine throughput, not deadlock recovery.
fn perm_routes(topo: &Topology, n: usize) -> Vec<Option<Route>> {
    let updown = UpDownMap::build(topo, |_| true);
    (0..n)
        .map(|i| {
            let (a, b) = (NodeId(i as u16), NodeId(perm(n, i) as u16));
            match &updown {
                Some(m) => m.route(topo, a, b, |_| true),
                None => topo.shortest_route(a, b, |_| true),
            }
        })
        .collect()
}

/// Build the world, stream the permutation to completion, measure.
fn run_one(spec: &TopoSpec) -> Row {
    let fabric = spec.build();
    let n = fabric.hosts.len();
    let routes = perm_routes(&fabric.topo, n);
    let expected = n as u64 * MESSAGES;

    // Myrinet allows 62.5 ms – 4 s for the send-path reset timer; the
    // throughput study uses the top of that range so a 100-deep
    // simultaneous burst queueing at one trunk reads as backpressure, not
    // deadlock — the routes are deadlock-free, every wait resolves.
    let mut cfg = ClusterConfig::default();
    cfg.engine.path_reset_timeout = Duration::from_millis(4_000);

    let t0 = Instant::now();
    let hosts = (0..n)
        .map(|i| -> Box<dyn HostAgent> {
            Box::new(StreamSender::new(
                NodeId(perm(n, i) as u16),
                BYTES,
                MESSAGES,
            ))
        })
        .collect();
    let mut c = Cluster::new(fabric.topo, cfg, |_| Box::new(UnreliableFirmware), hosts);
    c.install_routes(|a, b| {
        if perm(n, a.idx()) == b.idx() {
            routes[a.idx()]
        } else {
            None
        }
    });

    let mut deadline = Time::ZERO;
    let mut slices = 0u64;
    loop {
        deadline += SLICE;
        c.run_until(deadline);
        slices += 1;
        if c.engine.stats().delivered >= expected || slices >= MAX_SLICES {
            break;
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = c.engine.stats();
    Row {
        fabric: spec.format(),
        hosts: n,
        delivered: stats.delivered,
        expected,
        drops: stats.dropped,
        resets: stats.path_resets,
        events: c.events_processed(),
        sim_ns: deadline.nanos(),
        wall_ms,
    }
}

fn print_row(r: &Row) {
    println!(
        "{:<18} hosts={:<5} delivered={}/{} drops={:?} resets={} events={} \
         wall={:.1}ms  {:.2}M events/s  {:.0} sim-ns/wall-ms",
        r.fabric,
        r.hosts,
        r.delivered,
        r.expected,
        r.drops,
        r.resets,
        r.events,
        r.wall_ms,
        r.events_per_sec() / 1e6,
        r.sim_ns_per_wall_ms(),
    );
}

fn write_json(path: &str, rows: &[Row], max_hosts: &[(String, usize)]) {
    let mut s = String::from("{\n  \"bench\": \"engine\",\n");
    s.push_str(&format!(
        "  \"traffic\": \"shift permutation, {MESSAGES} x {BYTES}B per host\",\n"
    ));
    s.push_str("  \"max_hosts_in_60s\": {");
    for (i, (family, hosts)) in max_hosts.iter().enumerate() {
        s.push_str(&format!(
            "{}\"{family}\": {hosts}",
            if i > 0 { ", " } else { "" }
        ));
    }
    s.push_str("},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"fabric\": \"{}\", \"hosts\": {}, \"delivered\": {}, \"expected\": {}, \
             \"events\": {}, \"sim_ns\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \
             \"sim_ns_per_wall_ms\": {:.0}}}{}\n",
            r.fabric,
            r.hosts,
            r.delivered,
            r.expected,
            r.events,
            r.sim_ns,
            r.wall_ms,
            r.events_per_sec(),
            r.sim_ns_per_wall_ms(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// Ascending size series per family; the sweep stops at the first size
/// that blows the wall budget.
fn family_series() -> Vec<(&'static str, Vec<TopoSpec>)> {
    vec![
        (
            "fat_tree",
            vec![
                TopoSpec::FatTree { k: 4 },
                TopoSpec::FatTree { k: 8 },
                TopoSpec::FatTree { k: 12 },
                TopoSpec::FatTree { k: 16 },
            ],
        ),
        (
            "torus2d",
            vec![
                TopoSpec::Torus2D {
                    rows: 4,
                    cols: 4,
                    hosts: 1,
                },
                TopoSpec::Torus2D {
                    rows: 8,
                    cols: 8,
                    hosts: 2,
                },
                TopoSpec::Torus2D {
                    rows: 12,
                    cols: 12,
                    hosts: 3,
                },
                TopoSpec::Torus2D {
                    rows: 16,
                    cols: 16,
                    hosts: 4,
                },
            ],
        ),
    ]
}

fn smoke() {
    let spec = TopoSpec::FatTree { k: 4 };
    let a = run_one(&spec);
    print_row(&a);
    assert_eq!(
        a.delivered, a.expected,
        "smoke: the run must deliver the whole permutation"
    );
    let floor = 50_000.0;
    assert!(
        a.events_per_sec() > floor,
        "smoke: {:.0} events/sec is below the {floor} floor",
        a.events_per_sec()
    );
    let b = run_one(&spec);
    assert_eq!(
        (a.delivered, a.events, a.sim_ns, a.drops, a.resets),
        (b.delivered, b.events, b.sim_ns, b.drops, b.resets),
        "smoke: two runs of the same fabric must agree exactly"
    );
    println!("engine smoke: OK");
}

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// The CI gate.
    Smoke,
    /// Measure one fabric and print its row; no JSON.
    One(TopoSpec),
    /// The full sweep, written to this path.
    Sweep(String),
}

const USAGE: &str = "usage: engine [--smoke | --one <spec> | --json <path>]";

/// Parse the arguments after the program name. Every malformed command
/// line is an `Err`, so a typo can never overwrite the committed JSON.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    match args {
        [] => Ok(Mode::Sweep("BENCH_engine.json".into())),
        [flag] if flag == "--smoke" => Ok(Mode::Smoke),
        [flag, spec] if flag == "--one" => TopoSpec::parse(spec)
            .map(Mode::One)
            .map_err(|e| format!("--one {spec}: {e}")),
        [flag, path] if flag == "--json" && !path.starts_with("--") => {
            Ok(Mode::Sweep(path.clone()))
        }
        [flag] if flag == "--one" => Err("--one needs a topology spec".into()),
        [flag, ..] if flag == "--json" => Err("--json needs an output path".into()),
        _ => Err(format!("unrecognised arguments: {}", args.join(" "))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match parse_args(&args) {
        Ok(Mode::Smoke) => return smoke(),
        Ok(Mode::One(spec)) => return print_row(&run_one(&spec)),
        Ok(Mode::Sweep(path)) => path,
        Err(e) => {
            eprintln!("engine: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut max_hosts: Vec<(String, usize)> = Vec::new();
    for (family, series) in family_series() {
        let mut best = 0usize;
        for spec in series {
            let row = run_one(&spec);
            print_row(&row);
            let within = row.wall_ms <= WALL_BUDGET_SECS * 1e3;
            let complete = row.delivered == row.expected;
            if within && complete {
                best = row.hosts;
            }
            rows.push(row);
            if !within {
                break; // bigger sizes only get slower
            }
        }
        max_hosts.push((family.into(), best));
    }
    write_json(&json_path, &rows, &max_hosts);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_each_mode() {
        assert_eq!(parse(&[]), Ok(Mode::Sweep("BENCH_engine.json".into())));
        assert_eq!(parse(&["--smoke"]), Ok(Mode::Smoke));
        assert_eq!(
            parse(&["--one", "fat_tree:4"]),
            Ok(Mode::One(TopoSpec::FatTree { k: 4 }))
        );
        assert_eq!(
            parse(&["--json", "out.json"]),
            Ok(Mode::Sweep("out.json".into()))
        );
    }

    #[test]
    fn one_without_spec_is_an_error() {
        assert!(parse(&["--one"]).is_err());
    }

    #[test]
    fn one_with_bad_spec_is_an_error() {
        let e = parse(&["--one", "not_a_fabric:9"]).unwrap_err();
        assert!(e.contains("not_a_fabric:9"), "{e}");
    }

    #[test]
    fn json_without_path_is_an_error() {
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--json", "--smoke"]).is_err());
    }

    #[test]
    fn extra_argument_is_rejected() {
        assert!(parse(&["--one", "fat_tree:4", "2"]).is_err());
    }
}
