//! The benchmark of the TOLERANCE MinBFT service and its control loops.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload through the public APIs of `tolerance-consensus`
//! and `tolerance-core`, checks the program's outputs, prints every metric
//! by name with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! is split into an untraced half and a traced half, and the metrics are the
//! per-layer ones taken from the spans of the traced half (plus the tracing
//! overhead: the throughput difference between the halves). See
//! `perfbench/README.md` for the workloads and what each layer metric
//! should move.

mod fleet;
mod live;
mod micro;
mod pin;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "kv-channel",
    "kv-socket",
    "intrusion-recovery",
    "fleet-chaos",
];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit. A workload that does not exercise a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 55] = [
    ("client.latency_p99_ms", "ms"),
    ("client.availability", "ratio"),
    ("threaded.setup_ms", "ms"),
    ("threaded.drain_ms", "ms"),
    ("threaded.mailbox_depth_p50", "count"),
    ("threaded.mailbox_depth_p99", "count"),
    ("client.retransmit_ratio", "ratio"),
    ("client.max_stall_ms", "ms"),
    ("transport.msgs_per_req", "msgs/req"),
    ("transport.dropped", "count"),
    ("socket.setup_ms", "ms"),
    ("socket.frames_per_req", "frames/req"),
    ("socket.dropped", "count"),
    ("socket.decode_errors", "count"),
    ("socket.reconnects", "count"),
    ("wire.request.encode_ns", "ns"),
    ("wire.request.decode_ns", "ns"),
    ("wire.request.frame_bytes", "bytes"),
    ("wire.prepare.encode_ns", "ns"),
    ("wire.prepare.decode_ns", "ns"),
    ("wire.prepare.frame_bytes", "bytes"),
    ("wire.commit.encode_ns", "ns"),
    ("wire.commit.decode_ns", "ns"),
    ("wire.commit.frame_bytes", "bytes"),
    ("wire.reply.encode_ns", "ns"),
    ("wire.reply.decode_ns", "ns"),
    ("wire.reply.frame_bytes", "bytes"),
    ("wire.checkpoint.encode_ns", "ns"),
    ("wire.checkpoint.decode_ns", "ns"),
    ("wire.checkpoint.frame_bytes", "bytes"),
    ("wire.ns_per_req", "ns"),
    ("usig.create_ui_ns", "ns"),
    ("usig.verify_ns", "ns"),
    ("minbft.msgs_per_commit", "msgs/commit"),
    ("minbft.view_changes", "count"),
    ("minbft.reqs_per_sequence", "reqs/seq"),
    ("controlplane.new_ms", "ms"),
    ("controlplane.tick_us_p50", "us"),
    ("controlplane.tick_us_p99", "us"),
    ("controlplane.belief_update_ns", "ns"),
    ("controlplane.actuate_us", "us"),
    ("controlplane.events_folded", "count"),
    ("controlplane.recoveries", "count"),
    ("controlplane.evictions", "count"),
    ("controlplane.joins", "count"),
    ("simnet.schedule_ms", "ms"),
    ("simnet.run_ms_per_seed", "ms"),
    ("simnet.steps_per_s", "1/s"),
    ("simnet.availability", "ratio"),
    ("simnet.recoveries", "count"),
    ("simnet.mean_recovery_steps", "steps"),
    ("simnet.issued", "count"),
    ("simnet.completed", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// How a per-layer timing is taken from the spans of one name.
#[derive(Debug, Clone, Copy)]
enum SpanStat {
    /// Median duration, in milliseconds.
    MedianMs,
    /// Mean duration, in microseconds.
    MeanUs,
    /// A quantile of the self time (duration minus children), in
    /// microseconds.
    SelfUs(f64),
}

/// Per-layer timings taken from the traced half's spans: metric, span
/// name, statistic.
const SPAN_METRICS: [(&str, &str, SpanStat); 9] = [
    ("threaded.setup_ms", "threaded.setup", SpanStat::MedianMs),
    ("threaded.drain_ms", "threaded.drain", SpanStat::MedianMs),
    ("socket.setup_ms", "socket.setup", SpanStat::MedianMs),
    (
        "controlplane.new_ms",
        "controlplane.new",
        SpanStat::MedianMs,
    ),
    (
        "controlplane.tick_us_p50",
        "controlplane.tick",
        SpanStat::SelfUs(0.5),
    ),
    (
        "controlplane.tick_us_p99",
        "controlplane.tick",
        SpanStat::SelfUs(0.99),
    ),
    (
        "controlplane.actuate_us",
        "controlplane.actuate",
        SpanStat::MeanUs,
    ),
    ("simnet.schedule_ms", "simnet.schedule", SpanStat::MedianMs),
    ("simnet.run_ms_per_seed", "simnet.run", SpanStat::MedianMs),
];

/// The per-layer timings of `tracer`'s spans (metrics without spans are
/// left out), plus the belief-update cost: tick self time per IDS event
/// folded.
fn span_layers(tracer: &Tracer, events_folded: f64) -> Vec<(&'static str, f64)> {
    let mut layers: Vec<(&'static str, f64)> = SPAN_METRICS
        .iter()
        .filter_map(|&(metric, span, stat)| {
            let durations = tracer.durations_ns(span);
            if durations.is_empty() {
                return None;
            }
            let value = match stat {
                SpanStat::MedianMs => stats::median(&durations) / 1e6,
                SpanStat::MeanUs => stats::mean(&durations) / 1e3,
                SpanStat::SelfUs(q) => stats::quantile(&tracer.self_times_ns(span), q) / 1e3,
            };
            Some((metric, value))
        })
        .collect();
    if events_folded > 0.0 {
        let tick_self_ns: f64 = tracer.self_times_ns("controlplane.tick").iter().sum();
        layers.push((
            "controlplane.belief_update_ns",
            tick_self_ns / events_folded,
        ));
    }
    layers
}

/// Exact counts recorded per `(workload, seed)`; a run whose counts differ
/// has changed behaviour and fails its determinism gate.
const EXPECTED_COUNTS: &str = include_str!("../expected_counts.txt");

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted: client requests submitted, or simulated
    /// requests issued.
    pub attempted: u64,
    /// Attempted operations that did not complete, plus every operation of
    /// a round whose output check failed.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// The end-to-end figures of each round.
    pub rounds: Vec<RoundStats>,
    /// How the rounds become the run's end-to-end figures.
    pub estimator: Estimator,
    /// Per-layer values by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// The run's exact counts in canonical form, keyed by the seed they
    /// belong to (empty when the workload runs on the wall clock only).
    pub exact: BTreeMap<u64, String>,
    /// The generator's threads (driver, ticker, pool workers).
    pub generator_threads: usize,
    /// Workload parameters the codec and USIG layer timings are built with.
    pub shape: micro::Shape,
    /// Extra human-readable lines.
    pub info: Vec<String>,
}

/// How a run's rounds become its end-to-end figures.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// Medians over the fastest tenth of the rounds (at least one). Every
    /// round does the same work and injects no fault, and contention from
    /// other tenants of the host only slows a round down, so the fastest
    /// rounds are the ones it touched least.
    #[default]
    Fastest,
    /// Throughput over every round's window together and medians of the
    /// per-round latencies: the rounds differ on purpose, and the stalls
    /// they provoke must count.
    AllRounds,
}

/// The end-to-end figures of one round of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundStats {
    /// Completed operations per wall-clock second of the submission window.
    pub throughput_rps: f64,
    /// Seconds of the submission window.
    pub window_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Availability: the units that served (windows that completed work,
    /// or simulated requests completed) out of all units.
    pub served: u64,
    pub units: u64,
}

impl RoundStats {
    pub fn new(
        completed: u64,
        window_s: f64,
        latencies_ms: &[f64],
        served: u64,
        units: u64,
    ) -> Self {
        RoundStats {
            throughput_rps: completed as f64 / window_s,
            window_s,
            latency_p50_ms: stats::median(latencies_ms),
            latency_p95_ms: stats::quantile(latencies_ms, 0.95),
            latency_p99_ms: stats::quantile(latencies_ms, 0.99),
            samples: latencies_ms.len(),
            served,
            units,
        }
    }
}

/// A run's end-to-end figures: medians over the rounds its estimator
/// picks, availability over every round.
struct EndToEnd {
    throughput_rps: f64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
    latency_p99_ms: f64,
    availability: f64,
    rounds_used: usize,
    samples: usize,
}

impl Run {
    fn end_to_end(&self) -> EndToEnd {
        let mut chosen: Vec<&RoundStats> = self.rounds.iter().collect();
        if self.estimator == Estimator::Fastest {
            chosen.sort_by(|a, b| b.throughput_rps.total_cmp(&a.throughput_rps));
            chosen.truncate((chosen.len() / 10).max(1));
        }
        let median = |figure: fn(&RoundStats) -> f64| {
            stats::median(&chosen.iter().map(|r| figure(r)).collect::<Vec<_>>())
        };
        let throughput_rps = match self.estimator {
            Estimator::Fastest => median(|r| r.throughput_rps),
            Estimator::AllRounds => {
                let completed: f64 = chosen.iter().map(|r| r.throughput_rps * r.window_s).sum();
                completed / chosen.iter().map(|r| r.window_s).sum::<f64>()
            }
        };
        let served: u64 = self.rounds.iter().map(|r| r.served).sum();
        let units: u64 = self.rounds.iter().map(|r| r.units).sum();
        EndToEnd {
            throughput_rps,
            latency_p50_ms: median(|r| r.latency_p50_ms),
            latency_p95_ms: median(|r| r.latency_p95_ms),
            latency_p99_ms: median(|r| r.latency_p99_ms),
            availability: served as f64 / units.max(1) as f64,
            rounds_used: chosen.len(),
            samples: chosen.iter().map(|r| r.samples).sum(),
        }
    }

    /// Fails the run on `problem`, counting `operations` as failed.
    pub fn fail(&mut self, operations: u64, problem: String) {
        self.failed += operations;
        self.problems.push(problem);
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    control_seeds: Vec<u64>,
    fleet_window: u64,
    /// Run one set-up, print its seconds and exit (the child process of
    /// [`cold_setups`]).
    setup_only: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <kv-channel|kv-socket|intrusion-recovery|fleet-chaos> \
     --seed <n> --seconds <s> --trace <0|1> [--control-seeds <a,b,...>] [--fleet-window <w>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut control_seeds = live::CONTROL_SEEDS.to_vec();
    let mut fleet_window = 0;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&name| name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let parsed: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                }
            }
            "--control-seeds" => {
                control_seeds = value
                    .split(',')
                    .map(|seed| seed.parse().map_err(|_| format!("bad control seed {seed}")))
                    .collect::<Result<_, _>>()?;
            }
            "--fleet-window" => {
                fleet_window = value
                    .parse()
                    .map_err(|_| format!("bad fleet window {value}"))?;
            }
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        control_seeds,
        fleet_window,
        setup_only,
    })
}

/// Cold set-ups per CPU: each in a fresh child process, started with this
/// thread pinned to the CPU (the child inherits the pin).
const SETUP_REPS: usize = 8;

/// Times one set-up of the workload in this process.
fn setup_once(args: &Args) -> f64 {
    match args.workload {
        "kv-channel" => live::kv_setup(live::Plane::Channel, args.seed),
        "kv-socket" => live::kv_setup(live::Plane::Socket, args.seed),
        "intrusion-recovery" => live::intrusion_setup(args.seed),
        "fleet-chaos" => fleet::setup(args.seed, args.fleet_window),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Set-up times in seconds, grouped by CPU: each is the first set-up of a
/// fresh child process. Repeated set-ups in one process reuse or re-fault
/// the memory an earlier cluster freed, depending on the allocator's state,
/// which made them bimodal (0.3 or 1.1 ms for the 5-replica cluster on a
/// 2-CPU host, flipping between sets of runs). A user starts a cluster in a
/// fresh process, and that cost is steady.
fn cold_setups(args: &Args) -> Result<Vec<Vec<f64>>, String> {
    let exe =
        std::env::current_exe().map_err(|error| format!("locating the benchmark: {error}"))?;
    let mut failure = None;
    let groups = pin::on_each_cpu(SETUP_REPS, || {
        let output = std::process::Command::new(&exe)
            .args([
                "--workload",
                args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", "1", "--trace", "0", "--setup-only", "1"])
            .args(["--fleet-window", &args.fleet_window.to_string()])
            .output();
        let seconds = output.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .and_then(|line| line.trim().parse::<f64>().ok())
        });
        seconds.unwrap_or_else(|| {
            failure = Some("a set-up child process failed".to_string());
            f64::NAN
        })
    });
    match failure {
        Some(problem) => Err(problem),
        None => Ok(groups),
    }
}

fn run_workload(args: &Args, seconds: f64, tracer: Option<&mut Tracer>) -> Run {
    let seed = args.seed;
    match args.workload {
        "kv-channel" => live::kv(live::Plane::Channel, seed, seconds, tracer),
        "kv-socket" => live::kv(live::Plane::Socket, seed, seconds, tracer),
        "intrusion-recovery" => live::intrusion(seed, &args.control_seeds, seconds, tracer),
        "fleet-chaos" => fleet::run(seed, args.fleet_window, seconds, tracer),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// The commit the checkout was taken from, read from `.git` when the
/// checkout has one (`unknown` otherwise).
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| line.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// The recorded exact counts of `(workload, seed)`, if any.
fn expected_counts(workload: &str, seed: u64) -> Option<&'static str> {
    EXPECTED_COUNTS.lines().find_map(|line| {
        let mut fields = line.splitn(3, ' ');
        (fields.next()? == workload && fields.next()?.parse::<u64>().ok()? == seed)
            .then(|| fields.next())
            .flatten()
    })
}

/// Applies the determinism gate to a run's exact counts.
fn gate_exact(workload: &str, run: &mut Run) {
    for (seed, exact) in run.exact.clone() {
        println!("exact {workload} {seed} {exact}");
        match expected_counts(workload, seed) {
            Some(expected) if expected == exact => {}
            Some(expected) => {
                let attempted = run.attempted;
                run.fail(
                    attempted,
                    format!(
                        "seed {seed}: exact counts changed: recorded {expected}, measured {exact}"
                    ),
                );
            }
            None => println!("determinism gate: no recorded counts for seed {seed}"),
        }
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// `--trace 1`: an untraced half, then a traced half whose spans give the
/// per-layer metrics.
fn traced_run(args: &Args) -> (Run, Vec<Metric>) {
    // The untraced half is the reference the tracing overhead is taken
    // against; both halves are checked.
    let half = args.seconds / 2.0;
    let mut untraced = run_workload(args, half, None);
    let mut tracer = Tracer::new();
    let mut traced = run_workload(args, half, Some(&mut tracer));
    if untraced.exact != traced.exact {
        let attempted = traced.attempted;
        traced.fail(
            attempted,
            format!(
                "exact counts differ between the untraced and the traced half: {:?} vs {:?}",
                untraced.exact, traced.exact
            ),
        );
    }
    let layer = |run: &Run, name: &str| run.layers.get(name).copied().unwrap_or(0.0);
    let (layers, problems) = micro::measure(
        &mut tracer,
        traced.shape,
        layer(&traced, "socket.frames_per_req"),
    );
    traced.layers.extend(layers);
    for problem in problems {
        traced.fail(0, problem);
    }
    let events_folded = layer(&traced, "controlplane.events_folded");
    traced.layers.extend(span_layers(&tracer, events_folded));
    let reference = untraced.end_to_end().throughput_rps;
    let overhead = if reference > 0.0 {
        100.0 * (reference - traced.end_to_end().throughput_rps) / reference
    } else {
        0.0
    };
    let e2e = traced.end_to_end();
    traced.layers.extend([
        ("trace.overhead_pct", overhead),
        ("client.latency_p99_ms", e2e.latency_p99_ms),
        ("client.availability", e2e.availability),
        ("trace.spans", tracer.spans().len() as f64),
    ]);
    let path = format!(
        "perfbench/results/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    );
    match tracer.write_jsonl(Path::new(&path)) {
        Ok(()) => println!("spans written to {path}"),
        Err(error) => traced.fail(0, format!("writing {path}: {error}")),
    }
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.problems.append(&mut untraced.problems);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layer(&traced, name), unit))
        .collect();
    (traced, metrics)
}

/// `--trace 0`: the end-to-end metrics.
fn untraced_run(args: &Args) -> (Run, Vec<Metric>) {
    let mut run = run_workload(args, args.seconds, None);
    let e2e = run.end_to_end();
    run.info.push(format!(
        "end to end: {:?} over {} of {} rounds ({} latency samples)",
        run.estimator,
        e2e.rounds_used,
        run.rounds.len(),
        e2e.samples,
    ));
    let setups = cold_setups(args).unwrap_or_else(|problem| {
        run.fail(0, problem);
        Vec::new()
    });
    for (cpu, group) in setups.iter().enumerate() {
        let ms: Vec<f64> = group.iter().map(|s| (s * 1e5).round() / 1e2).collect();
        run.info
            .push(format!("cold set-ups on CPU group {cpu}, ms: {ms:?}"));
    }
    // The mean over CPUs of each CPU's median set-up time.
    let setup_s = stats::mean(
        &setups
            .iter()
            .map(|group| stats::median(group))
            .collect::<Vec<_>>(),
    );
    run.info.push(format!(
        "metric latency_p99_ms = {} ms (no bound; per layer as client.latency_p99_ms)",
        e2e.latency_p99_ms
    ));
    run.info.push(format!(
        "metric availability = {} ratio (no bound; per layer as client.availability)",
        e2e.availability
    ));
    let values = [
        e2e.throughput_rps,
        e2e.latency_p50_ms,
        e2e.latency_p95_ms,
        setup_s,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    (run, metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        println!("{}", setup_once(&args));
        return;
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (mut run, metrics) = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    gate_exact(args.workload, &mut run);

    println!(
        "host nproc={} git_rev={} profile={} generator_threads={}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        git_rev(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        run.generator_threads
    );
    for line in &run.info {
        println!("{line}");
    }
    for &(name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "metric failed_ratio = {} ratio ({} of {} attempted)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    for problem in &run.problems {
        println!("check FAILED: {problem}");
    }
    let correct = run.problems.is_empty() && run.attempted > 0;
    if correct {
        println!("check ok: every output check passed");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
}
