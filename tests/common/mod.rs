//! The archived single-group counterexamples, built in code. Their JSON
//! documents are committed under `tests/fixtures/`; `tests/fleet.rs`
//! replays the committed files and fails when one is missing, does not
//! decode or no longer matches what these functions build.

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
