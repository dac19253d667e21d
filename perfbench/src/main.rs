//! The repository benchmark binary.
//!
//! `san-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload on one thread, checks every output, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones (set-up
//! time, wall time of one pass, peak memory); with `--trace 1` they are the
//! per-layer ones, taken from an untraced half and a traced half of the
//! time budget. The line before it is the run manifest.
//!
//! The layers are only touched from outside, through their public calls:
//! `TopoSpec::build`, route install, `Cluster::new`/`run_until`, the
//! `Firmware` and `HostAgent` trait objects, `san_workload::build_hosts`,
//! `Campaign::sample`/`run_trial`, `san_mc::check` and the telemetry
//! counter snapshot.

mod chaos;
mod cluster;
mod layers;
mod mc;
mod measure;
mod perm;
mod tenants;

use std::process::ExitCode;
use std::rc::Rc;
use std::time::Duration;

use layers::{Profiler, Split};
use measure::{median, metric, mix, peak_rss_mb, repeat, spread, Metric};

/// Salt for the second seed every correctness check also runs at.
const ALT_SEED_SALT: u64 = 0xA17;

/// Every per-layer metric, in output order, with its unit. A workload
/// reports the ones its layers produce; the rest read 0 (the layer does
/// not run, or cannot be observed from outside, on that workload).
const PER_LAYER: &[(&str, &str)] = &[
    ("topo.build_s", "s"),
    ("fabric.route_install_s", "s"),
    ("nic.cluster_new_s", "s"),
    ("workload.build_hosts_s", "s"),
    ("chaos.sample_s", "s"),
    ("engine_core.self_s", "s"),
    ("engine_core.share", "share"),
    ("firmware.self_s", "s"),
    ("firmware.share", "share"),
    ("firmware.calls", "count"),
    ("host.self_s", "s"),
    ("host.share", "share"),
    ("host.calls", "count"),
    ("trace.overhead_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.host_ns_per_event", "ns/event"),
    ("fabric.injected", "count"),
    ("fabric.delivered", "count"),
    ("fabric.dropped", "count"),
    ("fabric.path_resets", "count"),
    ("nic.packets_tx", "count"),
    ("nic.retransmits", "count"),
    ("nic.acks_tx", "count"),
    ("nic.timer_fires", "count"),
    ("nic.ooo_drops", "count"),
    ("nic.rx_overflow", "count"),
    ("nic.blocked_no_buffer", "count"),
    ("core.retransmit_ratio", "ratio"),
    ("workload.offered", "count"),
    ("workload.posted", "count"),
    ("workload.shed", "count"),
    ("chaos.trials", "count"),
    ("chaos.trial_ms_p50", "ms"),
    ("chaos.trial_ms_p92", "ms"),
    ("chaos.generation_bumps", "count"),
    ("chaos.path_resets", "count"),
    ("chaos.send_failed", "count"),
    ("chaos.reconfig_epochs", "count"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.dedup_hits", "count"),
    ("mc.states_per_s", "1/s"),
    ("mc.dedup_ratio", "ratio"),
    ("delivery_ratio", "ratio"),
    ("sim_completion_ms", "sim_ms"),
    ("sim_goodput_mb_s", "sim_MB/s"),
    ("sim_p99_us", "sim_us"),
    ("sim_p999_us", "sim_us"),
    ("sim_fairness", "jain"),
];

/// One workload of the benchmark: a fixed unit of work (a "pass") that is
/// a pure function of the seed, its correctness check, and the per-layer
/// readings its outputs carry.
pub trait Workload {
    /// Simulated outputs of one pass; equal across passes at one seed.
    type Out: PartialEq;
    /// Why the workload is in the benchmark.
    const WHY: &'static str;
    /// The layers it loads.
    const LAYERS: &'static str;
    /// Whether firmware and host agents can be wrapped from outside.
    const TRACEABLE: bool;

    /// Set up and run one pass at `seed`. With a profiler, wrap every
    /// firmware and host agent in the timing decorators, open a root span
    /// around each `run_until`, and return the profiler's split.
    fn pass(&self, seed: u64, prof: Option<&Rc<Profiler>>) -> Pass<Self::Out>;

    /// Everything wrong with `out` (empty = correct).
    fn check(&self, out: &Self::Out) -> Vec<String>;

    /// Run one untimed pass at a second seed and check it (default: the
    /// ordinary pass at that seed).
    fn check_at(&self, seed: u64) -> Vec<String> {
        let out = self.pass(seed, None).out;
        self.check(&out)
    }

    /// Once-per-run checks of the first pass at `seed` beyond the per-pass
    /// one (default: none).
    fn cross_check(&self, _seed: u64, _first: &Self::Out) -> Vec<String> {
        Vec::new()
    }

    /// Simulated events `out` took (0 when no cluster runs).
    fn events(&self, out: &Self::Out) -> u64;

    /// Per-layer readings from the untraced passes.
    fn per_layer(&self, passes: &[Pass<Self::Out>]) -> Vec<Metric>;
}

/// One pass of a workload's fixed work.
pub struct Pass<T> {
    /// Wall seconds before the first simulated event (or first
    /// model-checker step).
    pub setup_s: f64,
    /// Wall seconds of the run itself.
    pub run_s: f64,
    /// Named sub-phase wall times (set-up steps, per-trial times).
    pub phases: Vec<(&'static str, f64)>,
    /// Per-layer split of a traced pass.
    pub split: Option<Split>,
    /// The simulated outputs, for the correctness checks.
    pub out: T,
}

/// Median of the phase named `name` over `passes` (each pass may carry it
/// once).
pub fn phase_median<T>(passes: &[Pass<T>], name: &str) -> f64 {
    let xs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.phases.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        median(&xs)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

/// The result of one run, ready to print.
struct Report {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    manifest: Vec<String>,
}

/// Run `w` for the time budget and collect its readings.
fn drive<W: Workload>(w: &W, args: &Args) -> Report {
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut record = |what: &str, errs: Vec<String>| {
        if !errs.is_empty() {
            failed += 1;
            errors.extend(errs.into_iter().map(|e| format!("{what}: {e}")));
        }
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let traced_budget = if args.trace && W::TRACEABLE {
        budget / 2
    } else {
        Duration::ZERO
    };
    let plain = repeat(budget - traced_budget, || w.pass(args.seed, None));
    // Read before the extra checks below, whose inputs differ by seed.
    let peak_rss = peak_rss_mb();
    let reference = &plain[0].out;
    for (i, p) in plain.iter().enumerate() {
        let mut errs = w.check(&p.out);
        if i == 0 {
            errs.extend(w.cross_check(args.seed, reference));
        } else if p.out != *reference {
            errs.push("outputs differ from the first pass at the same seed".into());
        }
        record(&format!("pass {i}"), errs);
    }
    let traced = if traced_budget > Duration::ZERO {
        repeat(traced_budget, || w.pass(args.seed, Some(&Profiler::new())))
    } else {
        Vec::new()
    };
    for (i, p) in traced.iter().enumerate() {
        if p.out != *reference {
            record(
                &format!("traced pass {i}"),
                vec!["simulated outputs differ from the untraced run".into()],
            );
        }
    }

    // The checks must hold at a second seed, not just the measured one.
    let alt_seed = mix(args.seed, ALT_SEED_SALT);
    let alt_errs = w.check_at(alt_seed);
    record(&format!("seed {alt_seed}"), alt_errs);

    let setup: Vec<f64> = plain.iter().map(|p| p.setup_s).collect();
    let run: Vec<f64> = plain.iter().map(|p| p.run_s).collect();
    let run_wall_s = median(&run);
    let mut manifest = vec![
        format!("\"why\": {:?}", W::WHY),
        format!("\"layers\": {:?}", W::LAYERS),
        format!("\"alt_seed\": {alt_seed}"),
        spread("setup_s", &setup),
        spread("run_wall_s", &run),
    ];

    let metrics = if !args.trace {
        vec![
            metric("setup_s", median(&setup), "s"),
            metric("run_wall_s", run_wall_s, "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ]
    } else {
        let mut got = w.per_layer(&plain);
        let events = w.events(reference);
        if events > 0 {
            got.push(metric("sim.events", events as f64, "count"));
            got.push(metric(
                "sim.events_per_s",
                events as f64 / run_wall_s,
                "1/s",
            ));
            got.push(metric(
                "sim.host_ns_per_event",
                run_wall_s * 1e9 / events as f64,
                "ns/event",
            ));
        }
        if !traced.is_empty() {
            let splits: Vec<Split> = traced.iter().filter_map(|p| p.split).collect();
            let med = |f: &dyn Fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
            let traced_run: Vec<f64> = traced.iter().map(|p| p.run_s).collect();
            manifest.push(spread("traced_run_wall_s", &traced_run));
            got.extend([
                metric("engine_core.self_s", med(&|s| s.engine_core_s), "s"),
                metric(
                    "engine_core.share",
                    med(&|s| s.engine_core_s / s.run_until_s),
                    "share",
                ),
                metric("firmware.self_s", med(&|s| s.firmware_s), "s"),
                metric(
                    "firmware.share",
                    med(&|s| s.firmware_s / s.run_until_s),
                    "share",
                ),
                metric("firmware.calls", splits[0].firmware_calls as f64, "count"),
                metric("host.self_s", med(&|s| s.host_s), "s"),
                metric("host.share", med(&|s| s.host_s / s.run_until_s), "share"),
                metric("host.calls", splits[0].host_calls as f64, "count"),
                metric("trace.overhead_s", median(&traced_run) - run_wall_s, "s"),
            ]);
            manifest.push(format!("\"traced_passes\": {}", traced.len()));
        }
        per_layer_in_order(got, &mut errors)
    };
    manifest.push(format!("\"passes\": {}", plain.len()));

    Report {
        attempted: 1 + plain.len() as u64 + traced.len() as u64,
        failed,
        errors,
        metrics,
        manifest,
    }
}

/// Lay `got` out in [`PER_LAYER`] order, zero-filling the metrics the
/// workload does not produce.
fn per_layer_in_order(got: Vec<Metric>, errors: &mut Vec<String>) -> Vec<Metric> {
    for m in &got {
        match PER_LAYER.iter().find(|(n, _)| *n == m.name) {
            Some((_, unit)) if *unit == m.unit => {}
            _ => errors.push(format!(
                "metric {} [{}] is not in the per-layer list",
                m.name, m.unit
            )),
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            got.iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(metric(name, 0.0, unit))
        })
        .collect()
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("san-perfbench: {e}");
            eprintln!(
                "usage: san-perfbench --workload <perm_stream|tenants_lossy|chaos_suite|mc_tiny2> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "perm_stream" => drive(&perm::PermStream, &args),
        "tenants_lossy" => drive(&tenants::TenantsLossy, &args),
        "chaos_suite" => drive(&chaos::ChaosSuite, &args),
        "mc_tiny2" => drive(&mc::McTiny2, &args),
        other => {
            eprintln!("san-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let mut manifest = vec![
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", args.trace),
        format!(
            "\"nproc\": {}",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        "\"threads\": 1".to_string(),
        format!(
            "\"rustc\": {}",
            json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()))
        ),
        format!(
            "\"rev\": {}",
            json_str(&std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into()))
        ),
    ];
    manifest.extend(report.manifest);
    println!("manifest {{{}}}", manifest.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:e}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let mut errors = report.errors;
    errors.extend(
        report
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not a finite number", m.name)),
    );
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
