//! Deterministic fault-injection harness (simnet).
//!
//! FoundationDB-style simulation testing for the two-level stack: seeded
//! chaos schedules drive a full MinBFT cluster, the per-node intrusion
//! recovery controllers and (optionally) the global replication controller
//! through partitions, loss/delay storms, crashes, Byzantine flips,
//! intrusion bursts, membership churn and client bursts — while invariant
//! oracles check the correctness claims of Proposition 1 after every step.
//!
//! The pipeline:
//!
//! 1. [`schedule`] — [`FaultSchedule::generate`] draws a schedule from a
//!    seed and a [`ScheduleConfig`] (same seed → same schedule).
//! 2. [`executor`] — [`run_schedule`] executes it against a freshly built
//!    stack and records a byte-exact [`TraceRecord`] stream (same seed →
//!    byte-identical trace, regardless of surrounding parallelism). It and
//!    the fleet engine ([`sharded`]) share one per-group core (`group`):
//!    fault application, the per-group oracles, the trace record,
//!    straggler catch-up, the settle-phase recovery pass, IDS sampling and
//!    the control tick. Each simulator keeps only its own client driver
//!    and run loop.
//! 3. [`oracle`] — agreement, validity, recovery-bound, network-accounting
//!    and (in the settle phase) liveness checks.
//! 4. [`shrink`] — on violation, greedy drop-one-event minimization (one
//!    loop for both simulators) emits a replayable [`Counterexample`]
//!    (seed + schedule JSON).
//! 5. [`scenario`] — [`register_simnet_scenarios`] plugs the harness into
//!    the PR-1 [`ScenarioRegistry`](crate::runtime::ScenarioRegistry), so
//!    experiment sweeps treat fault intensity like any other grid axis.
//! 6. [`sharded`] — the fleet-scale simulation engine: per-shard chaos
//!    from split RNG streams of one seed, each shard an event-driven
//!    sub-executor free-running between deterministic fleet barriers on
//!    the persistent worker pool, one control plane over every shard with
//!    its global recovery budget, cross-shard MultiPut chaos, and the
//!    routing and atomicity oracles on top of the per-shard suite
//!    (`sharded/*` and `fleet/scale-*` scenarios, [`ShardedCounterexample`]
//!    shrinking).
//!    Traces are byte-identical across engines and worker counts.
//! 7. [`adversary`] — the adversary zoo: protocol-aware attacker replicas
//!    ([`FaultEvent::AdoptAttacker`]) crossed with network conditions
//!    including partial synchrony (GST schedules with the
//!    liveness-after-GST oracle), registered as the `adversary/*` matrix.
//! 8. [`workload`] — seeded open-loop trace workloads (diurnal arrival
//!    rate, Zipf key popularity, bounded backlog — no trace files) for
//!    the fleet engine's client drivers.

pub mod adversary;
pub mod executor;
mod group;
pub mod oracle;
pub mod scenario;
pub mod schedule;
pub mod sharded;
pub mod shrink;
pub mod workload;

pub use adversary::{
    adversary_config, adversary_matrix, adversary_sharded_config, attacker_ids_lambda,
    register_adversary_scenarios, NetworkCondition, BYZANTINE_FLIP_IDS_LAMBDA,
};
pub use executor::{run_schedule, RunReport, SimnetOutcome, TraceRecord};
pub use oracle::{InvariantChecker, InvariantKind, RoutingChecker, Violation};
pub use scenario::{register_simnet_scenarios, SimnetScenario};
pub use schedule::{
    FaultEvent, FaultKind, FaultSchedule, NetworkPhase, ScheduleConfig, ScheduledFault,
};
pub use sharded::{
    find_sharded_counterexample, fleet_scale_config, load_swing_config,
    register_fleet_scale_scenarios, register_sharded_scenarios, run_sharded_schedule,
    run_sharded_schedule_with, sharded_chaos_4_config, sharded_fleet_controlled_config,
    sharded_multiput_config, shrink_sharded_schedule, AutotuneTickRecord, FleetEngine,
    ShardedCounterexample, ShardedFaultSchedule, ShardedRunReport, ShardedScheduleConfig,
    ShardedSimnetScenario,
};
pub use shrink::{find_counterexample, shrink_schedule, Counterexample};
pub use workload::{TraceWorkload, TraceWorkloadConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_schedule_passes_all_oracles() {
        let config = ScheduleConfig {
            horizon: 12,
            intensity: 0.0,
            ..ScheduleConfig::default()
        };
        let schedule = FaultSchedule::generate(1, &config);
        assert!(schedule.events.is_empty());
        let report = run_schedule(&schedule, &config).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.outcome.completed > 0);
        assert!(report.outcome.availability > 0.0);
        assert_eq!(report.trace.len(), 13); // horizon steps + settle record
    }

    #[test]
    fn same_seed_produces_byte_identical_traces() {
        let config = ScheduleConfig {
            horizon: 20,
            intensity: 0.5,
            ..ScheduleConfig::default()
        };
        let schedule = FaultSchedule::generate(11, &config);
        let a = run_schedule(&schedule, &config).unwrap();
        let b = run_schedule(&schedule, &config).unwrap();
        let json_a = serde_json::to_string(&a.trace).unwrap();
        let json_b = serde_json::to_string(&b.trace).unwrap();
        assert_eq!(json_a, json_b);
        assert_eq!(a, b);
    }

    #[test]
    fn injected_double_commit_is_caught_and_shrinks() {
        let config = ScheduleConfig {
            horizon: 16,
            intensity: 0.3,
            inject_double_commit_at: Some(6),
            ..ScheduleConfig::default()
        };
        let schedule = FaultSchedule::generate(5, &config);
        let counterexample = find_counterexample(&schedule, &config)
            .unwrap()
            .expect("the injected bug must be caught");
        assert_eq!(counterexample.violation.kind, InvariantKind::Agreement);
        // The minimal schedule keeps the injection and little else.
        assert!(counterexample
            .schedule
            .events
            .iter()
            .any(|e| e.event.kind() == FaultKind::InjectDoubleCommit));
        assert!(counterexample.schedule.events.len() <= schedule.events.len());
        // Round trip through JSON and replay.
        let json = counterexample.to_json().unwrap();
        let back = Counterexample::from_json(&json).unwrap();
        let replayed = back.replay().unwrap().expect("replay must violate again");
        assert_eq!(replayed.kind, InvariantKind::Agreement);
    }
}
