//! The `fleet-chaos` workload: the simulated plane at fleet scale.
//!
//! Each run replays a fixed window of [`SEEDS_PER_WINDOW`] fleet seeds on
//! `fleet_scale_config(16)` (16 groups of 6 replicas, chaos intensity 0.15,
//! MultiPut, trace workload) with the event-driven engine and two workers,
//! pass after pass, until the run's time is up. The full oracle suite checks
//! every replay. Simulated counts are exact: every pass must reproduce the
//! first, and the window's totals must match the recorded counts.
//!
//! The window is fixed (window 0 unless `--fleet-window` names another;
//! window 1 is held out for later claims) because seeds differ in how much
//! work their chaos makes: windows of 32 seeds still differed by 10 % in
//! replay speed, which would read as noise between runs. `--seed` only
//! rotates the replay order.

use crate::micro::Shape;
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::trace::Tracer;
use crate::{RoundStats, Run};
use std::time::Instant;
use tolerance_core::runtime::WorkerPool;
use tolerance_core::simnet::{
    fleet_scale_config, run_sharded_schedule_with, FleetEngine, ShardedFaultSchedule,
    ShardedRunReport,
};

/// Fleet seeds per window: window `w` is seeds `32w .. 32w + 31`.
const SEEDS_PER_WINDOW: u64 = 32;
const SHARDS: usize = 16;
const WORKERS: usize = 2;

/// The exact outcome of one seed's replay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Counts {
    issued: u64,
    completed: u64,
    recoveries: u64,
    view_changes: u64,
    commits: u64,
    net_sent: u64,
    shard_steps: u64,
    sequences: u64,
    recovery_steps_sum: f64,
    trace: u64,
}

impl Counts {
    fn of(report: &ShardedRunReport) -> Self {
        let mut counts = Counts {
            issued: report.outcome.issued,
            completed: report.outcome.completed,
            recoveries: report.outcome.recoveries,
            sequences: report.outcome.committed_sequences,
            recovery_steps_sum: report.outcome.mean_recovery_steps,
            trace: FNV_OFFSET,
            ..Counts::default()
        };
        for shard in &report.trace {
            counts.shard_steps += shard.len() as u64;
            if let Some(last) = shard.last() {
                counts.commits += last.commits;
                counts.view_changes += last.view_changes;
                counts.net_sent += last.net_sent;
            }
            for record in shard {
                let mut hash = counts.trace;
                for word in [
                    u64::from(record.step),
                    record.time_bits,
                    record.commits,
                    record.view_changes,
                    record.completed,
                    record.net_sent,
                ] {
                    hash = fnv1a(hash, &word.to_le_bytes());
                }
                for &node in record
                    .membership
                    .iter()
                    .chain([&u32::MAX])
                    .chain(&record.faulty)
                {
                    hash = fnv1a(hash, &node.to_le_bytes());
                }
                counts.trace = hash;
            }
        }
        counts
    }

    fn add(&mut self, other: &Counts) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.recoveries += other.recoveries;
        self.view_changes += other.view_changes;
        self.commits += other.commits;
        self.net_sent += other.net_sent;
        self.shard_steps += other.shard_steps;
        self.sequences += other.sequences;
        self.recovery_steps_sum += other.recovery_steps_sum;
        self.trace = fnv1a(self.trace, &other.trace.to_le_bytes());
    }
}

/// The window's seeds in replay order: `--seed` rotates them.
fn window_seeds(seed: u64, window: u64) -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..SEEDS_PER_WINDOW)
        .map(|i| window * SEEDS_PER_WINDOW + i)
        .collect();
    seeds.rotate_left((seed % SEEDS_PER_WINDOW) as usize);
    seeds
}

/// Times one set-up: the worker pool (started once per process) and the
/// window's schedules.
pub fn setup(seed: u64, window: u64) -> f64 {
    let config = fleet_scale_config(SHARDS);
    let start = Instant::now();
    WorkerPool::global();
    let schedules: Vec<ShardedFaultSchedule> = window_seeds(seed, window)
        .iter()
        .map(|&s| ShardedFaultSchedule::generate(s, &config))
        .collect();
    let setup = start.elapsed().as_secs_f64();
    drop(schedules);
    setup
}

pub fn run(seed: u64, window: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Run {
    let config = fleet_scale_config(SHARDS);
    let engine = FleetEngine::EventDriven {
        workers: Some(WORKERS),
    };
    let seeds = window_seeds(seed, window);
    let mut run = Run {
        generator_threads: WORKERS,
        shape: Shape {
            replicas: config.base.initial_replicas,
            batch: config.base.batch_size,
            key_space: config.key_space,
            checkpoint_period: config.base.checkpoint_period,
            seed,
        },
        ..Run::default()
    };
    let setup = Instant::now();
    WorkerPool::global();
    let schedules: Vec<ShardedFaultSchedule> = seeds
        .iter()
        .map(|&s| ShardedFaultSchedule::generate(s, &config))
        .collect();
    if let Some(t) = tracer.as_deref_mut() {
        t.record("simnet.schedule", None, 0, setup, Instant::now());
    }

    // One round is one pass over the window's seeds; the latency of a seed
    // is the wall time of its replay.
    let mut first_pass: Vec<Counts> = Vec::new();
    let mut total = Counts::default();
    let mut busy = 0.0;
    let start = Instant::now();
    let mut pass = 0u64;
    'passes: while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut pass_ms = Vec::with_capacity(schedules.len());
        let mut pass_counts = Counts::default();
        for (index, schedule) in schedules.iter().enumerate() {
            let call = Instant::now();
            let result = run_sharded_schedule_with(schedule, &config, engine);
            let end = Instant::now();
            pass_ms.push((end - call).as_secs_f64() * 1e3);
            if let Some(t) = tracer.as_deref_mut() {
                t.record("simnet.run", None, (pass << 32) | index as u64, call, end);
            }
            let report = match result {
                Ok(report) => report,
                Err(error) => {
                    run.fail(
                        0,
                        format!("seed {}: the run failed: {error}", schedule.seed),
                    );
                    break 'passes;
                }
            };
            let counts = Counts::of(&report);
            run.attempted += counts.issued;
            run.failed += counts.issued - counts.completed.min(counts.issued);
            if let Some(violation) = &report.violation {
                run.fail(
                    counts.issued,
                    format!("seed {}: oracle violation: {violation}", schedule.seed),
                );
            }
            match first_pass.get(index) {
                None => first_pass.push(counts),
                Some(first) if *first != counts => run.fail(
                    counts.issued,
                    format!("seed {}: pass {pass} differs from pass 0", schedule.seed),
                ),
                Some(_) => {}
            }
            pass_counts.add(&counts);
        }
        let pass_s = pass_ms.iter().sum::<f64>() / 1e3;
        busy += pass_s;
        run.rounds.push(RoundStats::new(
            pass_counts.completed,
            pass_s,
            &pass_ms,
            pass_counts.completed,
            pass_counts.issued,
        ));
        total.add(&pass_counts);
        pass += 1;
    }

    // The window's totals, folded in seed order whatever the replay order.
    let mut by_seed: Vec<(u64, Counts)> = seeds.iter().copied().zip(first_pass).collect();
    by_seed.sort_by_key(|&(seed, _)| seed);
    let mut sums = Counts {
        trace: FNV_OFFSET,
        ..Counts::default()
    };
    for (_, counts) in &by_seed {
        sums.add(counts);
    }
    let per_commit = sums.net_sent as f64 / sums.commits.max(1) as f64;
    run.exact.insert(
        window,
        format!(
        "issued={} completed={} recoveries={} view_changes={} commits={} net_sent={} trace={:016x}",
        sums.issued,
        sums.completed,
        sums.recoveries,
        sums.view_changes,
        sums.commits,
        sums.net_sent,
        sums.trace
    ),
    );
    run.info.push(format!(
        "fleet window {window}: seeds {}..={}, passes={pass}, sim_steps_per_s={}, \
         msgs_per_commit={per_commit}",
        window * SEEDS_PER_WINDOW,
        window * SEEDS_PER_WINDOW + SEEDS_PER_WINDOW - 1,
        total.shard_steps as f64 / busy
    ));
    let layers = [
        ("simnet.steps_per_s", total.shard_steps as f64 / busy),
        (
            "simnet.availability",
            sums.completed as f64 / sums.issued.max(1) as f64,
        ),
        ("simnet.recoveries", sums.recoveries as f64),
        (
            "simnet.mean_recovery_steps",
            sums.recovery_steps_sum / by_seed.len().max(1) as f64,
        ),
        ("simnet.issued", sums.issued as f64),
        ("simnet.completed", sums.completed as f64),
        ("minbft.msgs_per_commit", per_commit),
        ("minbft.view_changes", sums.view_changes as f64),
        (
            "minbft.reqs_per_sequence",
            sums.completed as f64 / sums.sequences.max(1) as f64,
        ),
    ];
    run.layers.extend(layers);
    run
}
