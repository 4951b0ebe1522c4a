//! The deterministic executor: drives the full two-level stack through a
//! fault schedule.
//!
//! One run wires together the three layers of the reproduction:
//!
//! * a [`MinBftCluster`] over the discrete-event network (consensus layer),
//! * one [`NodeController`](crate::controller::NodeController) per replica
//!   with the BTR threshold strategy of Theorem 1 (local control level),
//!   fed by alert samples from the paper's observation model, and
//! * optionally the [`SystemController`](crate::controller::SystemController)
//!   of Algorithm 2 (global control level), which evicts crashed replicas
//!   and grows the membership.
//!
//! The executor applies the schedule's fault events step by step, runs the
//! invariant oracles after every step, and records a [`TraceRecord`] per
//! step; all three come from the per-group core it shares with the fleet
//! engine (`simnet::group`). Its own parts are the client driver (one
//! closed-loop client plus a burst pool, unrouted) and the run loop.
//! Everything — schedule generation, alert sampling, network jitter,
//! controller decisions — is derived from the schedule's seed, so the same
//! `(seed, config)` pair produces a byte-identical trace on every run,
//! regardless of how many runs execute in parallel around it.

use crate::error::Result;
use crate::metrics::MetricReport;
use crate::runtime::AsMetricReport;
use crate::simnet::group::{self, Control, Group};
use crate::simnet::oracle::{InvariantKind, Violation};
use crate::simnet::schedule::{FaultSchedule, ScheduleConfig};
use serde::{Deserialize, Serialize};
use tolerance_consensus::minbft::{MinBftCluster, Operation};
use tolerance_consensus::NodeId;

/// The per-step snapshot that makes up the run's event trace. Two runs are
/// considered identical exactly when their serialized traces are identical;
/// the simulated clock is recorded via its IEEE-754 bits so the comparison
/// is exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The step this record closes.
    pub step: u32,
    /// `f64::to_bits` of the simulated time after the step.
    pub time_bits: u64,
    /// Membership after the step.
    pub membership: Vec<NodeId>,
    /// Total commit records so far.
    pub commits: u64,
    /// View changes so far.
    pub view_changes: u64,
    /// Completed client requests so far.
    pub completed: u64,
    /// Messages handed to the network so far.
    pub net_sent: u64,
    /// Replicas currently marked faulty by the schedule.
    pub faulty: Vec<NodeId>,
}

/// Aggregate outcome of a run (the scenario-facing summary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimnetOutcome {
    /// Steps actually executed (less than the horizon when a violation
    /// stopped the run early).
    pub steps: u64,
    /// Client requests issued.
    pub issued: u64,
    /// Client requests completed.
    pub completed: u64,
    /// Replica recoveries performed (controller-driven and scheduled).
    pub recoveries: u64,
    /// Mean steps from compromise to recovery (0 when no compromise).
    pub mean_recovery_steps: f64,
    /// Distinct sequence numbers committed.
    pub committed_sequences: u64,
    /// Completed / issued.
    pub availability: f64,
}

impl AsMetricReport for SimnetOutcome {
    fn metric_report(&self) -> MetricReport {
        MetricReport {
            availability: self.availability,
            time_to_recovery: self.mean_recovery_steps,
            recovery_frequency: if self.steps == 0 {
                0.0
            } else {
                self.recoveries as f64 / self.steps as f64
            },
            steps: self.steps,
        }
    }
}

/// The result of executing one schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Aggregate outcome.
    pub outcome: SimnetOutcome,
    /// The per-step event trace.
    pub trace: Vec<TraceRecord>,
    /// The first invariant violation, if any (the run stops there).
    pub violation: Option<Violation>,
}

impl AsMetricReport for RunReport {
    fn metric_report(&self) -> MetricReport {
        self.outcome.metric_report()
    }
}

/// Executes `schedule` against a freshly built stack configured by `config`.
///
/// # Errors
///
/// Propagates model-construction and LP failures; invariant violations are
/// reported inside the [`RunReport`], not as errors (the shrinker needs
/// them as data).
pub fn run_schedule(schedule: &FaultSchedule, config: &ScheduleConfig) -> Result<RunReport> {
    SimHarness::new(schedule, config)?.run()
}

struct SimHarness<'a> {
    schedule: &'a FaultSchedule,
    config: &'a ScheduleConfig,
    cluster: MinBftCluster,
    group: Group,
    control: Control,
}

impl<'a> SimHarness<'a> {
    fn new(schedule: &'a FaultSchedule, config: &'a ScheduleConfig) -> Result<Self> {
        let mut cluster = MinBftCluster::new(config.minbft_config(schedule.seed));
        // One primary closed-loop client plus a small pool for bursts.
        let clients = (0..4).map(|_| cluster.add_client()).collect();
        Ok(SimHarness {
            schedule,
            config,
            cluster,
            group: Group::new(config.initial_replicas, clients),
            control: Control::new(schedule.seed, config, 1)?,
        })
    }

    fn submit(&mut self, client: NodeId, operation: Operation, step: u32) {
        self.group
            .submit(&mut self.cluster, client, operation, step);
    }

    /// Drains the control-plane effects of applied events, then runs one
    /// control tick of both levels.
    fn control_tick(&mut self, step: u32) {
        self.control.drain_notes(0, &mut self.group);
        self.control
            .tick(&mut [(&mut self.cluster, &mut self.group)], step);
    }

    fn drive_clients(&mut self, step: u32) {
        let primary = self.group.clients[0];
        if !self.cluster.has_outstanding_request(primary) {
            self.submit(primary, Operation::Write(u64::from(step) + 1), step);
        }
        for index in 1..self.group.clients.len() {
            if self.group.pending_bursts == 0 {
                break;
            }
            let client = self.group.clients[index];
            if !self.cluster.has_outstanding_request(client) {
                self.group.pending_bursts -= 1;
                let value =
                    0x1000_0000 + u64::from(step) * 16 + u64::from(self.group.pending_bursts);
                self.submit(client, Operation::Write(value), step);
            }
        }
    }

    fn check_invariants(&mut self, step: u32) -> Option<Violation> {
        let (cluster, config) = (&self.cluster, self.config);
        self.group
            .check_safety(cluster, config, 1, step)
            .or_else(|| self.group.check_liveness_after_gst(cluster, config, step))
    }

    /// Runs the settle window until no client waits (at least `min_rounds`
    /// rounds, at most ten), nudging stragglers after each.
    fn drain(&mut self, min_rounds: u32) {
        let settle_window = 5.0_f64.max(self.config.step_duration * 4.0);
        for round in 0..10 {
            self.cluster.run_until(self.cluster.now() + settle_window);
            group::catch_up_stragglers(&mut self.cluster);
            if round + 1 >= min_rounds && self.group.outstanding_clients(&self.cluster).is_empty() {
                break;
            }
        }
    }

    /// The settle phase: heal everything, recover every still-marked
    /// replica, then require the service to come back (a probe request must
    /// complete and the logs must be consistent). This is the operational
    /// form of the eventual-service-liveness guarantee.
    fn settle(&mut self) -> Option<Violation> {
        let horizon = self.config.horizon;
        group::stabilize(&mut self.cluster, self.config);
        self.group.recover_marked(&mut self.cluster, horizon);
        self.control.drain_notes(0, &mut self.group);
        self.drain(2);
        let outstanding = self.group.outstanding_clients(&self.cluster);
        if !outstanding.is_empty() {
            return Some(Violation {
                kind: InvariantKind::Liveness,
                step: u32::MAX,
                detail: format!(
                    "clients {outstanding:?} still have unanswered requests after all faults \
                     were healed"
                ),
            });
        }
        // Probe: a fresh request must complete now that faults are ≤ f.
        let primary = self.group.clients[0];
        self.submit(primary, Operation::Write(0xdead_beef), horizon);
        self.drain(1);
        if self.cluster.has_outstanding_request(primary) {
            return Some(Violation {
                kind: InvariantKind::Liveness,
                step: u32::MAX,
                detail: "the settle-phase probe request never completed".into(),
            });
        }
        if let Some(violation) = self.check_invariants(horizon) {
            return Some(violation);
        }
        if !self.cluster.logs_are_consistent() {
            return Some(Violation {
                kind: InvariantKind::Agreement,
                step: u32::MAX,
                detail: "healthy logs diverged by the end of the settle phase".into(),
            });
        }
        None
    }

    fn run(mut self) -> Result<RunReport> {
        let mut violation: Option<Violation> = None;
        let mut steps_run: u64 = 0;
        // A GST schedule starts in the asynchronous phase.
        self.cluster
            .set_network_config(self.config.ambient_network(0));
        for step in 0..self.config.horizon {
            steps_run = u64::from(step) + 1;
            if self.config.gst == Some(step) {
                // Global stabilization (the generator draws no network
                // faults past this step).
                group::stabilize(&mut self.cluster, self.config);
            }
            self.group.apply_due_events(
                &mut self.cluster,
                self.config,
                &self.schedule.events,
                step,
            );
            self.control_tick(step);
            self.drive_clients(step);
            self.cluster
                .run_until(f64::from(step + 1) * self.config.step_duration);
            violation = self.check_invariants(step);
            self.group.push_trace(&self.cluster, step);
            if violation.is_some() {
                break;
            }
        }
        if violation.is_none() {
            violation = self.settle();
            self.group.push_trace(&self.cluster, self.config.horizon);
        }
        Ok(RunReport {
            outcome: group::outcome(steps_run, std::iter::once((&self.cluster, &self.group))),
            trace: self.group.trace,
            violation,
        })
    }
}
