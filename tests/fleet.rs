//! Acceptance tests of the fleet-scale simulation engine: the determinism
//! contract (byte-identical traces across 1/2/4/8 scheduler workers, and
//! lockstep == event-driven on every pinned counterexample), plus the
//! release-only fleet smoke — a 64-shard × 6-replica sweep under the full
//! oracle suite and a 256-shard completion check.
//!
//! The release-only tests double as the CI `fleet-smoke` job: any emitted
//! counterexample is written to `simnet-counterexamples/` and uploaded as a
//! workflow artifact.

mod common;

use tolerance::consensus::sharded::shard_seed;
use tolerance::consensus::AttackerKind;
use tolerance::core::simnet::oracle::{InvariantKind, Violation};
use tolerance::core::simnet::{
    adversary_config, find_counterexample, find_sharded_counterexample, fleet_scale_config,
    load_swing_config, run_sharded_schedule, run_sharded_schedule_with, Counterexample, FaultEvent,
    FaultSchedule, FleetEngine, NetworkCondition, ScheduleConfig, ScheduledFault,
    ShardedCounterexample, ShardedFaultSchedule, ShardedRunReport, ShardedScheduleConfig,
};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

/// Lockstep baseline plus the event-driven engine at every worker count;
/// asserts every report (trace bytes included) is identical.
fn assert_engine_invariant(
    name: &str,
    schedule: &ShardedFaultSchedule,
    config: &ShardedScheduleConfig,
) -> ShardedRunReport {
    let lockstep = run_sharded_schedule_with(schedule, config, FleetEngine::Lockstep)
        .expect("harness constructs");
    let baseline_json = serde_json::to_string(&lockstep.trace).expect("serializable");
    for workers in WORKER_GRID {
        let event_driven = run_sharded_schedule_with(
            schedule,
            config,
            FleetEngine::EventDriven {
                workers: Some(workers),
            },
        )
        .expect("harness constructs");
        let json = serde_json::to_string(&event_driven.trace).expect("serializable");
        assert_eq!(
            baseline_json, json,
            "{name}: event-driven trace with {workers} workers diverged from lockstep"
        );
        assert_eq!(lockstep, event_driven, "{name}: {workers} workers");
    }
    lockstep
}

#[test]
fn event_driven_replay_is_byte_identical_across_worker_grid() {
    // The lockstep-cadence configurations: `fleet_tick_interval = 1`, so
    // the engine must reproduce the original executor exactly.
    let config = ShardedScheduleConfig::default();
    for seed in 0..4u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        assert_engine_invariant(&format!("default seed {seed}"), &schedule, &config);
    }
}

#[test]
fn windowed_fleet_scale_replay_is_byte_identical_across_worker_grid() {
    // The fleet/scale cadence: 16 shards free-running in four-step windows
    // under the open-loop trace workload.
    let config = fleet_scale_config(16);
    for seed in 0..2u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        let report = assert_engine_invariant(&format!("scale-16 seed {seed}"), &schedule, &config);
        assert!(
            report.violation.is_none(),
            "scale-16 seed {seed}: {:?}",
            report.violation
        );
        assert!(report.outcome.completed > 0);
    }
}

/// Lifts a single-group counterexample into a one-shard fleet: same base
/// configuration, the archived schedule as shard 0's schedule, no MultiPut
/// driver. The engines must agree on the *whole report* — violation, step
/// and trace bytes — not merely both fail.
fn lift_single_group(
    seed: u64,
    schedule: &FaultSchedule,
    base: &ScheduleConfig,
) -> (ShardedFaultSchedule, ShardedScheduleConfig) {
    let config = ShardedScheduleConfig {
        shards: 1,
        base: base.clone(),
        key_space: 64,
        multi_put_interval: 0,
        multi_put_keys: 2,
        fleet_tick_interval: 1,
        workload: None,
        autotune: None,
    };
    let schedule = ShardedFaultSchedule {
        seed,
        shards: vec![schedule.clone()],
    };
    (schedule, config)
}

/// The archived counterexamples, committed under `tests/fixtures/`.
const ARCHIVED: [&str; 3] = [
    "expected-double-commit.json",
    "expected-liveness-after-gst.json",
    "adversary-lying-donor-gst-seed19.json",
];

/// The documents the [`ARCHIVED`] fixtures must hold, rebuilt in code.
fn archived_counterexamples() -> [Counterexample; 3] {
    let shrink = |(schedule, config): (FaultSchedule, ScheduleConfig)| {
        find_counterexample(&schedule, &config)
            .expect("harness constructs")
            .expect("the case violates an invariant")
    };
    [
        shrink(common::double_commit_case()),
        shrink(common::liveness_after_gst_case()),
        common::lying_donor_seed19(),
    ]
}

fn read_fixture(name: &str) -> Result<Counterexample, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let json =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Counterexample::from_json(&json).map_err(|e| format!("decode {}: {e}", path.display()))
}

#[test]
fn archived_counterexample_fixtures_are_present_and_current() {
    let mut problems = Vec::new();
    for (name, built) in ARCHIVED.into_iter().zip(archived_counterexamples()) {
        let problem = match read_fixture(name) {
            Ok(fixture) if fixture == built => continue,
            Ok(_) => format!("fixture {name} differs from the document built in code"),
            Err(error) => error,
        };
        // Leave the rebuilt document where the CI jobs collect artifacts;
        // copying it over the fixture refreshes it.
        publish_counterexample(name, &built.to_json().expect("serializable"));
        problems.push(format!(
            "{problem} (rebuilt: simnet-counterexamples/{name})"
        ));
    }
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn lockstep_and_event_driven_agree_on_archived_counterexamples() {
    let mut checked = 0;
    for name in ARCHIVED {
        let counterexample = read_fixture(name).unwrap_or_else(|e| panic!("{e}"));
        let (schedule, config) = lift_single_group(
            counterexample.seed,
            &counterexample.schedule,
            &counterexample.config,
        );
        // Lifting changes the client driving (routed pool clients instead
        // of the single-group harness's), so the archived violation need
        // not reproduce — the contract under test is that every engine
        // produces the identical report, violating or green.
        assert_engine_invariant(name, &schedule, &config);
        checked += 1;
    }
    assert_eq!(checked, 3);
}

#[test]
fn lifted_equivocating_leader_ballots_replay_independently_of_the_hash_seed() {
    // The one-shard fleet twin of the single-group ballot-order test:
    // `adversary/equivocating-leader/gst` seed 278 lifted to one shard
    // replays to the identical report 32 times in one process.
    let base = adversary_config(AttackerKind::EquivocatingLeader, NetworkCondition::Gst);
    let (schedule, config) = lift_single_group(278, &FaultSchedule::generate(278, &base), &base);
    let first = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    for run in 1..32 {
        let again = run_sharded_schedule(&schedule, &config).expect("harness constructs");
        assert_eq!(first, again, "run {run} diverged from run 0");
    }
}

#[test]
fn lockstep_and_event_driven_agree_on_the_pinned_fleet_counterexample() {
    // The shrunk state-transfer/backlog counterexample pinned in
    // tests/sharded.rs (fleet seed 3): both engines must replay the exact
    // scripted schedule to the same green report.
    let config = ShardedScheduleConfig::default();
    let schedule = ShardedFaultSchedule {
        seed: 3,
        shards: vec![
            FaultSchedule::scripted(
                shard_seed(3, 0),
                vec![
                    ScheduledFault {
                        step: 1,
                        event: FaultEvent::LossStorm {
                            loss_rate: 0.28939207345710954,
                        },
                    },
                    ScheduledFault {
                        step: 8,
                        event: FaultEvent::AddReplica,
                    },
                ],
            ),
            FaultSchedule::scripted(shard_seed(3, 1), Vec::new()),
        ],
    };
    let report = assert_engine_invariant("pinned fleet seed 3", &schedule, &config);
    assert!(
        report.violation.is_none(),
        "the pinned counterexample regressed: {:?}",
        report.violation
    );
}

#[test]
fn autotuned_load_swing_replay_is_byte_identical_across_worker_grid() {
    // The self-tuning data plane under the 10x diurnal swing: the AIMD
    // controller, admission decisions and concurrency caps all tick inside
    // the per-shard sub-executors, so the whole report — event trace AND
    // the per-window autotune decision trace — must be byte-identical
    // across 1/2/4/8 workers.
    let config = load_swing_config();
    for seed in 0..2u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        let report =
            assert_engine_invariant(&format!("load-swing seed {seed}"), &schedule, &config);
        assert!(
            report.violation.is_none(),
            "load-swing seed {seed}: {:?}",
            report.violation
        );
        assert_eq!(report.autotune.len(), config.shards);
        assert!(
            report
                .autotune
                .iter()
                .all(|decisions| !decisions.is_empty()),
            "load-swing seed {seed}: a shard never ticked its controller"
        );
    }
}

#[test]
fn aimd_decisions_replay_exactly_from_a_counterexample_document() {
    // Controller determinism through the archive path: a load-swing run's
    // configuration round-trips through `ShardedCounterexample` JSON (the
    // manual decoder, not serde derive), and re-executing the decoded
    // document reproduces the original AIMD decision sequence exactly —
    // every step, batch size, delay, concurrency and admission verdict.
    let config = load_swing_config();
    let schedule = ShardedFaultSchedule::generate(5, &config);
    let original = run_sharded_schedule(&schedule, &config).expect("harness constructs");
    assert!(original.violation.is_none(), "{:?}", original.violation);
    let document = ShardedCounterexample {
        seed: 5,
        config: config.clone(),
        schedule: schedule.clone(),
        violation: Violation {
            kind: InvariantKind::Liveness,
            step: 0,
            detail: "synthetic archive entry for decision replay".into(),
        },
    };
    let json = document.to_json().expect("serializable");
    let decoded = ShardedCounterexample::from_json(&json).expect("decodable");
    assert_eq!(decoded.config, config, "config must survive the round trip");
    let replayed =
        run_sharded_schedule(&decoded.schedule, &decoded.config).expect("harness constructs");
    assert_eq!(
        serde_json::to_string(&original.autotune).expect("serializable"),
        serde_json::to_string(&replayed.autotune).expect("serializable"),
        "AIMD decision trace diverged on replay from the archived document"
    );
    assert_eq!(original, replayed);
}

/// Writes a JSON document where the CI jobs pick it up as an artifact.
fn publish_counterexample(file_name: &str, json: &str) {
    let dir = std::path::Path::new("simnet-counterexamples");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(file_name), json);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only fleet smoke (CI fleet-smoke job)"
)]
fn fleet_smoke_64_shards_passes_the_full_oracle_suite() {
    // The CI fleet smoke: a 64-shard × 6-replica event-driven sweep under
    // the full oracle suite (per-shard agreement/validity/recovery-bound/
    // network accounting, fleet routing, settle liveness and MultiPut
    // atomicity). Violations shrink and publish like the sharded sweep.
    let config = fleet_scale_config(64);
    for seed in 0..3u64 {
        let schedule = ShardedFaultSchedule::generate(seed, &config);
        let report = run_sharded_schedule_with(&schedule, &config, FleetEngine::default())
            .expect("harness constructs");
        if let Some(violation) = &report.violation {
            if let Ok(Some(counterexample)) = find_sharded_counterexample(&schedule, &config) {
                publish_counterexample(
                    &format!("fleet-scale-64-seed{seed}.json"),
                    &counterexample.to_json().expect("serializable"),
                );
            }
            panic!("fleet/scale-64 seed {seed}: {violation}");
        }
        assert!(
            report.outcome.completed > 0,
            "fleet/scale-64 seed {seed}: no requests completed"
        );
        assert!(
            report.multi_puts.1 > 0,
            "fleet/scale-64 seed {seed}: no MultiPut committed"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only fleet smoke (CI fleet-smoke job)"
)]
fn fleet_scale_256_completes_under_the_full_oracle_suite() {
    let config = fleet_scale_config(256);
    let schedule = ShardedFaultSchedule::generate(0, &config);
    let report = run_sharded_schedule_with(&schedule, &config, FleetEngine::default())
        .expect("harness constructs");
    assert!(
        report.violation.is_none(),
        "fleet/scale-256: {:?}",
        report.violation
    );
    assert_eq!(report.trace.len(), 256);
    assert!(report.outcome.completed > 0);
}
