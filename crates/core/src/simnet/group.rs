//! The per-group simulation core shared by both simulators.
//!
//! The single-group executor ([`crate::simnet::executor`]) and the fleet
//! engine ([`crate::simnet::sharded`]) drive their clients differently, but
//! a MinBFT group's ground truth is the same in both: the supervisors of
//! the fault schedule, the invariant checker, the stack of added replicas,
//! the recovery counters, the burst backlog, the outstanding-request
//! bookkeeping of the liveness-after-GST oracle and the trace. A [`Group`]
//! holds that state next to its [`MinBftCluster`] and implements, once for
//! both simulators, fault application, the per-group oracles, the trace
//! record, straggler catch-up and the settle-phase recovery pass.
//! [`Control`] is the shared control side: IDS sampling and one
//! [`ControlPlane`] tick over any number of groups.

use crate::controlplane::{ClusterActuator, ControlPlane, ControlPlaneConfig, NodeReport};
use crate::error::Result;
use crate::node_model::{NodeModel, NodeParameters, NodeState};
use crate::observation::ObservationModel;
use crate::simnet::adversary;
use crate::simnet::executor::{SimnetOutcome, TraceRecord};
use crate::simnet::oracle::{InvariantChecker, InvariantKind, Violation};
use crate::simnet::schedule::{FaultEvent, ScheduleConfig, ScheduledFault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use tolerance_consensus::crypto::Digest;
use tolerance_consensus::minbft::{MinBftCluster, Operation};
use tolerance_consensus::{ByzantineMode, NodeId};

/// Per-replica supervision state: the ground truth of the fault schedule
/// (the belief-tracking controllers live in the [`ControlPlane`]).
struct Supervisor {
    state: NodeState,
    compromised_at: Option<u32>,
    schedule_crashed: bool,
    /// IDS-signature degradation of the current compromise: `0.0` samples
    /// the full compromised alert distribution, larger values mix it toward
    /// healthy (protocol-aware attackers are quieter, see
    /// [`adversary::attacker_ids_lambda`]).
    ids_lambda: f64,
}

impl Supervisor {
    fn new() -> Self {
        Supervisor {
            state: NodeState::Healthy,
            compromised_at: None,
            schedule_crashed: false,
            ids_lambda: 0.0,
        }
    }

    /// Whether the schedule left this replica crashed or compromised.
    fn marked(&self) -> bool {
        self.schedule_crashed || self.state != NodeState::Healthy
    }
}

/// A control-plane side effect of a fault event, buffered until the
/// harness touches the [`ControlPlane`] (serially, at the next barrier).
enum PlaneNote {
    /// A replica recovered on schedule; its controller resets.
    Recovered(NodeId),
    /// A replica was evicted; its controller is dropped.
    Forget(NodeId),
}

/// One simulated MinBFT group's ground truth (see the module docs). The
/// group's cluster lives beside it and is passed into every call.
pub(crate) struct Group {
    supervisors: BTreeMap<NodeId, Supervisor>,
    checker: InvariantChecker,
    added_stack: Vec<NodeId>,
    recoveries: u64,
    recovery_delays: Vec<u32>,
    /// Scheduled client-burst requests not yet submitted.
    pub(crate) pending_bursts: u32,
    /// Every client whose completions this group counts.
    pub(crate) clients: Vec<NodeId>,
    /// Step at which each client's currently outstanding request was
    /// submitted (pruned on completion) — the bookkeeping of the
    /// liveness-after-GST oracle. Clients submit one request at a time, so
    /// per-client tracking is exact.
    outstanding_since: BTreeMap<NodeId, u32>,
    /// Requests submitted on this group.
    issued: u64,
    /// Cursor into the group's fault schedule (events are step-sorted).
    cursor: usize,
    /// Control-plane effects of applied events, drained by [`Control`].
    plane_notes: Vec<PlaneNote>,
    /// The group's trace, one record per step plus the settle record.
    pub(crate) trace: Vec<TraceRecord>,
}

impl Group {
    /// A group of `initial_replicas` healthy replicas counting `clients`.
    pub(crate) fn new(initial_replicas: usize, clients: Vec<NodeId>) -> Self {
        Group {
            supervisors: (0..initial_replicas as NodeId)
                .map(|id| (id, Supervisor::new()))
                .collect(),
            checker: InvariantChecker::new(),
            added_stack: Vec::new(),
            recoveries: 0,
            recovery_delays: Vec::new(),
            pending_bursts: 0,
            clients,
            outstanding_since: BTreeMap::new(),
            issued: 0,
            cursor: 0,
            plane_notes: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Submits `operation` from `client` at `step` and records it for the
    /// validity and liveness-after-GST oracles.
    pub(crate) fn submit(
        &mut self,
        cluster: &mut MinBftCluster,
        client: NodeId,
        operation: Operation,
        step: u32,
    ) -> Digest {
        let digest = cluster.submit(client, operation).digest();
        self.checker.record_submission(digest);
        self.issued += 1;
        self.outstanding_since.insert(client, step);
        digest
    }

    /// Recovers `node` outside a control tick (a schedule event or the
    /// settle phase); the controller reset is noted for the plane.
    fn recover_node(&mut self, cluster: &mut MinBftCluster, node: NodeId, step: u32) {
        let mut actuator = GroupActuator {
            cluster,
            group: self,
            step,
        };
        if actuator.recover(node) {
            self.plane_notes.push(PlaneNote::Recovered(node));
        }
    }

    /// Marks `node` compromised at `step` with IDS signature `ids_lambda`.
    fn compromise(&mut self, node: NodeId, step: u32, ids_lambda: f64) {
        if let Some(supervisor) = self.supervisors.get_mut(&node) {
            supervisor.state = NodeState::Compromised;
            supervisor.compromised_at.get_or_insert(step);
            supervisor.ids_lambda = ids_lambda;
        }
    }

    /// Applies every event of `events` due at `step`, advancing the
    /// group's schedule cursor.
    pub(crate) fn apply_due_events(
        &mut self,
        cluster: &mut MinBftCluster,
        config: &ScheduleConfig,
        events: &[ScheduledFault],
        step: u32,
    ) {
        while let Some(fault) = events.get(self.cursor) {
            if fault.step > step {
                break;
            }
            self.cursor += 1;
            self.apply_event(cluster, config, &fault.event, step);
        }
    }

    /// Applies one scheduled fault to the group.
    fn apply_event(
        &mut self,
        cluster: &mut MinBftCluster,
        config: &ScheduleConfig,
        event: &FaultEvent,
        step: u32,
    ) {
        // Storms perturb the *ambient* profile of the step (the
        // asynchronous profile before GST), and RestoreNetwork restores it,
        // so a storm never ends the pre-GST phase.
        let ambient = config.ambient_network(step);
        let corruptible = |cluster: &MinBftCluster, node: &NodeId| {
            cluster.membership().contains(node) && !cluster.is_crashed(*node)
        };
        match event {
            FaultEvent::Partition { group_a, group_b } => {
                cluster.partition_network(group_a, group_b);
            }
            FaultEvent::Heal => cluster.heal_network(),
            FaultEvent::LossStorm { loss_rate } => {
                let mut network = ambient;
                network.loss_rate = network.loss_rate.max(*loss_rate);
                cluster.set_network_config(network.clamped());
            }
            FaultEvent::DelayStorm { latency, jitter } => {
                let mut network = ambient;
                network.latency = network.latency.max(*latency);
                network.jitter = network.jitter.max(*jitter);
                cluster.set_network_config(network.clamped());
            }
            FaultEvent::RestoreNetwork => cluster.set_network_config(ambient),
            FaultEvent::CrashReplica { node } => {
                if cluster.membership().contains(node) {
                    cluster.crash_replica(*node);
                    if let Some(supervisor) = self.supervisors.get_mut(node) {
                        supervisor.schedule_crashed = true;
                        supervisor.state = NodeState::Crashed;
                    }
                }
            }
            FaultEvent::RecoverReplica { node } => self.recover_node(cluster, *node, step),
            FaultEvent::ByzantineFlip { node, mode } => {
                if corruptible(cluster, node) {
                    cluster.set_byzantine(*node, *mode);
                    // A flipped replica perturbs the IDS observation stream
                    // too (with a heavily degraded signature) — it is
                    // misbehaving, not invisible.
                    self.compromise(*node, step, adversary::BYZANTINE_FLIP_IDS_LAMBDA);
                }
            }
            FaultEvent::IntrusionBurst { node, mode } => {
                if corruptible(cluster, node) {
                    cluster.set_byzantine(*node, *mode);
                    // A full compromise has the loudest signature.
                    self.compromise(*node, step, 0.0);
                }
            }
            FaultEvent::AdoptAttacker { node, attacker } => {
                if corruptible(cluster, node) {
                    cluster.set_attacker(*node, Some(*attacker));
                    self.compromise(*node, step, adversary::attacker_ids_lambda(*attacker));
                }
            }
            FaultEvent::AddReplica => {
                if cluster.num_replicas() < config.max_replicas {
                    GroupActuator {
                        cluster,
                        group: self,
                        step,
                    }
                    .join();
                }
            }
            FaultEvent::EvictReplica { node } => {
                let target = node.or_else(|| self.added_stack.pop());
                if let Some(target) = target {
                    if cluster.membership().contains(&target) && cluster.num_replicas() > 3 {
                        cluster.evict_replica(target);
                        self.supervisors.remove(&target);
                        self.checker.forget_replica(target);
                        self.plane_notes.push(PlaneNote::Forget(target));
                    }
                }
            }
            FaultEvent::ClientBurst { requests } => self.pending_bursts += requests,
            FaultEvent::InjectDoubleCommit { node } => cluster.inject_double_commit(*node),
        }
    }

    /// The oracles that run before the liveness check: log agreement and
    /// validity, network accounting and the recovery bound. The bound is
    /// Δ_R steps of BTR slack plus the queueing delay of the k budget, which
    /// every replica of all `shards` groups competes for.
    pub(crate) fn check_safety(
        &mut self,
        cluster: &MinBftCluster,
        config: &ScheduleConfig,
        shards: usize,
        step: u32,
    ) -> Option<Violation> {
        if let Some(violation) = self.checker.check_logs(cluster, step) {
            return Some(violation);
        }
        if let Some(violation) = self.checker.check_network(cluster, step) {
            return Some(violation);
        }
        let bound = config.delta_r + (shards * config.initial_replicas) as u32 + 1;
        self.supervisors.iter().find_map(|(&id, supervisor)| {
            let at = supervisor.compromised_at?;
            (step.saturating_sub(at) > bound).then(|| Violation {
                kind: InvariantKind::RecoveryBound,
                step,
                detail: format!(
                    "replica {id} compromised at step {at} still unrecovered at step {step} \
                     (bound {bound})"
                ),
            })
        })
    }

    /// Liveness after GST: under partial synchrony, every request
    /// submitted before the network stabilized must complete within the
    /// bounded post-GST window. Prunes completed requests either way.
    pub(crate) fn check_liveness_after_gst(
        &mut self,
        cluster: &MinBftCluster,
        config: &ScheduleConfig,
        step: u32,
    ) -> Option<Violation> {
        self.outstanding_since
            .retain(|&client, _| cluster.has_outstanding_request(client));
        let gst = config.gst?;
        if step < gst || step - gst <= config.post_gst_liveness_steps {
            return None;
        }
        self.outstanding_since
            .iter()
            .find(|&(_, &since)| since < gst)
            .map(|(&client, &since)| Violation {
                kind: InvariantKind::LivenessAfterGst,
                step,
                detail: format!(
                    "client {client}'s request from step {since} (before GST at step {gst}) \
                     still uncommitted {} steps after stabilization (bound {})",
                    step - gst,
                    config.post_gst_liveness_steps
                ),
            })
    }

    /// Appends the group's trace record of `step`.
    pub(crate) fn push_trace(&mut self, cluster: &MinBftCluster, step: u32) {
        let faulty: Vec<NodeId> = self
            .supervisors
            .iter()
            .filter(|(_, s)| s.marked())
            .map(|(&id, _)| id)
            .collect();
        self.trace.push(TraceRecord {
            step,
            time_bits: cluster.now().to_bits(),
            membership: cluster.membership().to_vec(),
            commits: cluster.commit_trace().len() as u64,
            view_changes: cluster.view_changes(),
            completed: self.completed(cluster),
            net_sent: cluster.network_stats().sent,
            faulty,
        });
    }

    /// Completed requests across the group's clients.
    pub(crate) fn completed(&self, cluster: &MinBftCluster) -> u64 {
        self.clients
            .iter()
            .map(|&c| cluster.completed_requests(c))
            .sum()
    }

    /// The group's clients that still wait for a reply.
    pub(crate) fn outstanding_clients(&self, cluster: &MinBftCluster) -> Vec<NodeId> {
        self.clients
            .iter()
            .copied()
            .filter(|&c| cluster.has_outstanding_request(c))
            .collect()
    }

    /// The settle phase's first pass: recover every replica the schedule
    /// left crashed, compromised or Byzantine.
    pub(crate) fn recover_marked(&mut self, cluster: &mut MinBftCluster, step: u32) {
        for id in cluster.membership().to_vec() {
            let marked = self.supervisors.get(&id).is_some_and(Supervisor::marked);
            if marked
                || cluster.byzantine_mode(id) != Some(ByzantineMode::Correct)
                || cluster.is_crashed(id)
            {
                self.recover_node(cluster, id, step);
            }
        }
    }
}

/// Global stabilization: partitions heal and the bounded-delay profile
/// holds from here on (at GST and at the start of the settle phase).
pub(crate) fn stabilize(cluster: &mut MinBftCluster, config: &ScheduleConfig) {
    cluster.heal_network();
    cluster.set_network_config(config.network);
}

/// Re-triggers state transfer for replicas whose transfer was lost to a
/// storm or partition and for replicas whose log lags behind (in-flight
/// quorums they missed cannot be replayed; recovery is how the architecture
/// catches such replicas up, cf. the BTR constraint).
pub(crate) fn catch_up_stragglers(cluster: &mut MinBftCluster) {
    let members: Vec<NodeId> = cluster.membership().to_vec();
    let longest = members
        .iter()
        .filter_map(|&id| cluster.executed_len(id))
        .max()
        .unwrap_or(0);
    for id in members {
        let lagging = cluster
            .executed_len(id)
            .is_some_and(|len| len + 2 < longest);
        if cluster.needs_state(id) || lagging {
            cluster.recover_replica(id);
        }
    }
}

/// The aggregate outcome of a run over `groups` after `steps` steps.
pub(crate) fn outcome<'a>(
    steps: u64,
    groups: impl Iterator<Item = (&'a MinBftCluster, &'a Group)> + Clone,
) -> SimnetOutcome {
    let issued: u64 = groups.clone().map(|(_, g)| g.issued).sum();
    let completed: u64 = groups.clone().map(|(c, g)| g.completed(c)).sum();
    let delays: Vec<u32> = groups
        .clone()
        .flat_map(|(_, g)| g.recovery_delays.iter().copied())
        .collect();
    SimnetOutcome {
        // The steps actually executed (a violation stops the run early,
        // and the recovery-frequency metric divides by this).
        steps,
        issued,
        completed,
        recoveries: groups.clone().map(|(_, g)| g.recoveries).sum(),
        mean_recovery_steps: if delays.is_empty() {
            0.0
        } else {
            delays.iter().map(|&d| f64::from(d)).sum::<f64>() / delays.len() as f64
        },
        committed_sequences: groups
            .map(|(c, _)| InvariantChecker::committed_sequences(c))
            .sum(),
        availability: if issued == 0 {
            1.0
        } else {
            completed as f64 / issued as f64
        },
    }
}

/// The harness-side actuator: the [`ControlPlane`] actuates through this
/// view, which adds the fault-schedule bookkeeping (restart-vs-rebuild
/// choice, recovery-latency accounting, supervisor lifecycle) on top of
/// the simulated cluster.
struct GroupActuator<'a> {
    cluster: &'a mut MinBftCluster,
    group: &'a mut Group,
    step: u32,
}

impl ClusterActuator for GroupActuator<'_> {
    fn replica_count(&self) -> usize {
        self.cluster.num_replicas()
    }

    fn contains(&self, node: NodeId) -> bool {
        self.cluster.membership().contains(&node)
    }

    fn recover(&mut self, node: NodeId) -> bool {
        if !self.cluster.membership().contains(&node) {
            return false;
        }
        // Fail-stop crashes restart with their state intact; everything
        // else (compromise, Byzantine behaviour, BTR refresh) is the full
        // rebuild + state transfer.
        let crashed_only = self
            .group
            .supervisors
            .get(&node)
            .is_some_and(|s| s.schedule_crashed && s.state == NodeState::Crashed);
        let recovered = if crashed_only {
            self.cluster.restart_replica(node);
            true
        } else {
            self.cluster.recover_replica(node)
        };
        if !recovered {
            // Deferred: no state donor existed. The supervisor stays marked
            // (compromised/crashed), so the next BTR tick or schedule event
            // retries and the recovery-bound oracle keeps watching.
            return false;
        }
        self.group.recoveries += 1;
        if let Some(supervisor) = self.group.supervisors.get_mut(&node) {
            supervisor.state = NodeState::Healthy;
            supervisor.schedule_crashed = false;
            supervisor.ids_lambda = 0.0;
            if let Some(at) = supervisor.compromised_at.take() {
                self.group
                    .recovery_delays
                    .push(self.step.saturating_sub(at));
            }
        }
        true
    }

    fn join(&mut self) -> Option<NodeId> {
        let id = self.cluster.add_replica();
        self.group.supervisors.insert(id, Supervisor::new());
        self.group.added_stack.push(id);
        Some(id)
    }

    fn evict(&mut self, node: NodeId) -> bool {
        if !self.cluster.membership().contains(&node) {
            return false;
        }
        self.cluster.evict_replica(node);
        self.group.supervisors.remove(&node);
        self.group.added_stack.retain(|&n| n != node);
        true
    }
}

/// The control side of a simulation: the shared [`ControlPlane`] (one
/// global k budget and one system controller over every group) plus the
/// deterministic IDS sampling that feeds it.
pub(crate) struct Control {
    plane: ControlPlane,
    alert_model: ObservationModel,
    /// Per-λ degraded alert models (see [`adversary::degraded_model_table`]).
    degraded_models: Vec<(u64, ObservationModel)>,
    rng: StdRng,
}

impl Control {
    /// The control side of a run of `shards` groups configured by `config`.
    pub(crate) fn new(seed: u64, config: &ScheduleConfig, shards: usize) -> Result<Self> {
        let alert_model = ObservationModel::paper_default();
        let node_model = NodeModel::new(NodeParameters::default(), alert_model.clone())?;
        let plane = ControlPlane::with_shards(
            ControlPlaneConfig {
                recovery_threshold: config.recovery_threshold,
                delta_r: Some(config.delta_r),
                parallel_recoveries: config.parallel_recoveries,
                system_controller: config.system_controller,
                min_replicas: 4,
                max_replicas: config.max_replicas,
                fault_threshold: config.fault_threshold().max(1),
                availability_target: 0.9,
                node_survival_probability: 0.95,
            },
            node_model,
            shards,
        )?;
        Ok(Control {
            plane,
            degraded_models: adversary::degraded_model_table(&alert_model)?,
            alert_model,
            rng: StdRng::seed_from_u64(seed ^ 0x51e7_c0de_0bad_cafe),
        })
    }

    /// Applies the control-plane effects group `shard` buffered since the
    /// last drain, in the order they were raised.
    pub(crate) fn drain_notes(&mut self, shard: usize, group: &mut Group) {
        for note in group.plane_notes.drain(..) {
            match note {
                PlaneNote::Recovered(node) => self.plane.controller(shard, node).notify_recovered(),
                PlaneNote::Forget(node) => self.plane.forget(shard, node),
            }
        }
    }

    /// One control tick of both levels over every group (index = shard).
    /// The harness contributes the IDS sampling — one weighted-alert draw
    /// per reporting replica, group-major in membership order — and the
    /// ground-truth crash/compromise state; the plane contributes belief
    /// tracking, the k-parallel-recovery constraint and the Algorithm-2
    /// replication decision, actuated through [`GroupActuator`].
    pub(crate) fn tick(&mut self, groups: &mut [(&mut MinBftCluster, &mut Group)], step: u32) {
        let mut observations: Vec<Vec<(NodeId, NodeReport<'static>)>> = Vec::new();
        for (cluster, group) in groups.iter() {
            let reports = cluster.membership().iter().map(|&id| {
                let report = match group.supervisors.get(&id) {
                    None => NodeReport::Silent,
                    Some(supervisor) if supervisor.schedule_crashed => NodeReport::Silent,
                    Some(supervisor) => {
                        let sample_state = match supervisor.state {
                            NodeState::Compromised => NodeState::Compromised,
                            _ => NodeState::Healthy,
                        };
                        // Protocol-aware attackers sample from a degraded
                        // compromise signature. The model choice never
                        // changes how many RNG draws happen.
                        let model = adversary::degraded_model(
                            &self.degraded_models,
                            &self.alert_model,
                            supervisor.ids_lambda,
                        );
                        NodeReport::Sample(model.sample(sample_state, &mut self.rng))
                    }
                };
                (id, report)
            });
            observations.push(reports.collect());
        }
        let views: Vec<&[(NodeId, NodeReport<'_>)]> =
            observations.iter().map(Vec::as_slice).collect();
        let mut actuators: Vec<GroupActuator<'_>> = groups
            .iter_mut()
            .map(|(cluster, group)| GroupActuator {
                cluster,
                group,
                step,
            })
            .collect();
        let mut actuators: Vec<&mut GroupActuator<'_>> = actuators.iter_mut().collect();
        self.plane
            .tick_shards(&views, &mut actuators, &mut self.rng);
    }
}
