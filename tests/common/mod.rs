//! The archived single-group counterexamples, built in code. Their JSON
//! documents are committed under `tests/fixtures/`; `tests/fleet.rs`
//! replays the committed files and fails when one is missing, does not
//! decode or no longer matches what these functions build. The smoke
//! configurations are shared by the simnet sweep and the recorded-digest
//! replay test. Each test binary uses a different subset of this module.

#![allow(dead_code)]

use tolerance::consensus::AttackerKind;
use tolerance::core::simnet::{
    adversary_config, Counterexample, FaultEvent, FaultSchedule, InvariantKind, NetworkCondition,
    ScheduleConfig, ScheduledFault, Violation,
};

/// Seed 11 with a double commit injected at step 5 (a test-only Byzantine
/// mode: a replica corrupts its execution while claiming to be correct).
pub fn double_commit_case() -> (FaultSchedule, ScheduleConfig) {
    let config = ScheduleConfig {
        horizon: 16,
        intensity: 0.4,
        inject_double_commit_at: Some(5),
        ..ScheduleConfig::default()
    };
    (FaultSchedule::generate(11, &config), config)
}

/// Three of five replicas crashed at step 1 with no closers (Δ_R past the
/// horizon, no system controller) under a GST schedule: requests submitted
/// before GST can never commit.
pub fn liveness_after_gst_case() -> (FaultSchedule, ScheduleConfig) {
    let config = ScheduleConfig {
        horizon: 30,
        delta_r: 100,
        gst: Some(4),
        post_gst_liveness_steps: 8,
        ..ScheduleConfig::default()
    };
    let schedule = FaultSchedule::scripted(
        0,
        (1..=3)
            .map(|node| ScheduledFault {
                step: 1,
                event: FaultEvent::CrashReplica { node },
            })
            .collect(),
    );
    (schedule, config)
}

/// The amnesiac-recovery counterexample found by the adversary matrix
/// sweep (`adversary/lying-donor/gst`, seed 19), shrunk to its kernel. The
/// two fixes it pins (`recovery_floor` and the recovery-aware view-change
/// quorum) make it pass today, so the violation is the one recorded when
/// it was found: with both fixes reverted, shrinking the generated seed-19
/// schedule yields exactly this document.
pub fn lying_donor_seed19() -> Counterexample {
    let burst = |step, requests| ScheduledFault {
        step,
        event: FaultEvent::ClientBurst { requests },
    };
    let recover = ScheduledFault {
        step: 9,
        event: FaultEvent::RecoverReplica { node: 3 },
    };
    Counterexample {
        seed: 19,
        config: adversary_config(AttackerKind::LyingDonor, NetworkCondition::Gst),
        schedule: FaultSchedule::scripted(19, vec![burst(1, 1), burst(8, 1), recover, burst(9, 3)]),
        violation: Violation {
            kind: InvariantKind::Agreement,
            step: 9,
            detail: "replicas 0 and 1 committed different digests at log position 9: \
                     Digest(16389862528586635698) vs Digest(478470314683119195)"
                .into(),
        },
    }
}

/// The single-group configurations of the simnet smoke sweep.
pub fn smoke_configs() -> Vec<(&'static str, ScheduleConfig)> {
    vec![
        (
            "light",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.2,
                ..ScheduleConfig::default()
            },
        ),
        (
            "heavy",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.8,
                ..ScheduleConfig::default()
            },
        ),
        (
            "full-stack",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.5,
                system_controller: true,
                ..ScheduleConfig::default()
            },
        ),
        (
            // The data-plane configuration: leader batching plus an
            // aggressive checkpoint period, so recovery and view changes
            // run from *truncated* logs (state transfer from the stable
            // checkpoint, no re-execution of compacted requests) under the
            // same chaos schedules and oracles.
            "gc-batch",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.5,
                checkpoint_period: 8,
                batch_size: 4,
                ..ScheduleConfig::default()
            },
        ),
        (
            // The PR-6 pipelined data plane: a watermark window above 1
            // keeps several uncommitted sequences in flight, so view
            // changes, recoveries and state transfers triggered by the
            // chaos schedule must cope with multiple concurrently proposed
            // batches (and the aggressive checkpoint period keeps those
            // interacting with compaction).
            "pipelined",
            ScheduleConfig {
                horizon: 40,
                intensity: 0.5,
                checkpoint_period: 8,
                batch_size: 4,
                pipeline_window: 4,
                ..ScheduleConfig::default()
            },
        ),
    ]
}

/// The fixed seed set of the smoke suite (the CI job runs exactly this).
pub fn smoke_seeds() -> Vec<u64> {
    (0..18).collect()
}
