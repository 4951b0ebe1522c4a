//! The transport-agnostic control runtime: one `tick` for every cluster.
//!
//! A [`ControlPlane`] owns the per-replica [`NodeController`]s and the
//! optional [`SystemController`], and advances both control levels by one
//! time-step per tick: belief updates from the IDS observation channel, the
//! k-parallel-recovery constraint of Proposition 1, crash eviction and the
//! Algorithm-2 replication decision — all actuated through a pluggable
//! [`ClusterActuator`]. The simnet executors call the same tick
//! (deterministic, against the simulated cluster) as the live controlled
//! scenarios (wall-clock, against the threaded cluster), which is exactly
//! the paper's claim that one control architecture steers the real service.
//!
//! One plane can steer several MinBFT groups (the shards of a fleet,
//! [`ControlPlane::tick_shards`]). Each shard keeps its own node
//! controllers, but the recovery budget `k` is allocated fleet-wide: every
//! tick the recovery requests of all shards compete for the same `k` slots,
//! prioritized by the *deciding* belief, so an intrusion burst in one shard
//! cannot starve recovery in another beyond the shared budget. One
//! [`SystemController`] sees the concatenated belief report of every shard,
//! evicts non-reporting replicas wherever they live, and gives JOIN spares
//! to the neediest shard. [`ControlPlane::tick`] is the one-shard call.

use crate::controller::{NodeController, SystemController};
use crate::controlplane::actuator::ClusterActuator;
use crate::error::Result;
use crate::node_model::{NodeAction, NodeModel, NodeParameters};
use crate::observation::ObservationModel;
use crate::recovery::ThresholdStrategy;
use crate::replication::{ReplicationConfig, ReplicationProblem};
use rand::Rng;
use std::collections::BTreeMap;
use tolerance_consensus::NodeId;

/// Configuration of a [`ControlPlane`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControlPlaneConfig {
    /// Belief threshold of the node controllers.
    pub recovery_threshold: f64,
    /// BTR period `Δ_R` (maximum steps between recoveries of one node).
    pub delta_r: Option<u32>,
    /// Parallel-recovery constraint `k` of Proposition 1 (at most this
    /// many recoveries actuate per tick across all shards; the rest
    /// re-request next tick).
    pub parallel_recoveries: usize,
    /// Whether the global replication controller (Algorithm 2) runs.
    pub system_controller: bool,
    /// Smallest membership the system controller may shrink a shard to.
    pub min_replicas: usize,
    /// Largest membership the system controller may grow a shard to. JOINs
    /// also stop once the fleet holds `max_replicas` × shards replicas.
    pub max_replicas: usize,
    /// Fault threshold `f` the replication problem of Algorithm 2 is solved
    /// for (`N_t ≥ 2f + 1 + k`, Proposition 1).
    pub fault_threshold: usize,
    /// Availability target of the replication CMDP (its constraint).
    pub availability_target: f64,
    /// Per-step node survival probability of the replication CMDP.
    pub node_survival_probability: f64,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            recovery_threshold: 0.76,
            delta_r: Some(12),
            parallel_recoveries: 1,
            system_controller: true,
            min_replicas: 4,
            max_replicas: 8,
            fault_threshold: 1,
            availability_target: 0.9,
            node_survival_probability: 0.95,
        }
    }
}

/// One node's observation input for a control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeReport<'a> {
    /// The node failed to report (crashed); the system controller treats
    /// it as evictable (Section V-B).
    Silent,
    /// One weighted IDS-alert sample for the whole time-step (the simnet
    /// path — one deterministic draw per step).
    Sample(u64),
    /// The stream of weighted IDS-alert events observed since the previous
    /// tick (the live path — folded through the incremental belief tracker
    /// at `O(|S|)` per event).
    Events(&'a [u64]),
}

/// What one control tick did to one shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TickReport {
    /// Per-node compromise beliefs after the update — exactly the report
    /// vector the system controller consumed, so a node whose recovery was
    /// requested this tick already shows the post-recovery prior
    /// (`None` = no report).
    pub beliefs: Vec<(NodeId, Option<f64>)>,
    /// Nodes whose controllers requested a recovery this tick (before the
    /// k-truncation), in deciding-belief priority order.
    pub requested: Vec<NodeId>,
    /// Nodes whose recovery was actuated successfully.
    pub recovered: Vec<NodeId>,
    /// Nodes evicted by the system controller (crash eviction).
    pub evicted: Vec<NodeId>,
    /// Replica joined by the system controller, if any.
    pub joined: Option<NodeId>,
    /// The fleet-wide expected-healthy estimate the system controller
    /// acted on.
    pub estimated_healthy: Option<usize>,
}

/// The two-level control runtime (see the module docs).
#[derive(Debug, Clone)]
pub struct ControlPlane {
    config: ControlPlaneConfig,
    node_model: NodeModel,
    strategy: ThresholdStrategy,
    controllers: BTreeMap<(usize, NodeId), NodeController>,
    system: Option<SystemController>,
}

impl ControlPlane {
    /// Builds a one-shard control plane over the paper's default node
    /// model and observation model.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and LP failures.
    pub fn new(config: ControlPlaneConfig) -> Result<Self> {
        let alert_model = ObservationModel::paper_default();
        let node_model = NodeModel::new(NodeParameters::default(), alert_model)?;
        Self::with_model(config, node_model)
    }

    /// Builds a one-shard control plane over an explicit node model (e.g.
    /// one whose observation model was estimated empirically).
    ///
    /// # Errors
    ///
    /// Propagates strategy-construction and LP failures.
    pub fn with_model(config: ControlPlaneConfig, node_model: NodeModel) -> Result<Self> {
        Self::with_shards(config, node_model, 1)
    }

    /// Builds a control plane for a fleet of `shards` groups. The system
    /// controller's replication problem is solved for the whole fleet,
    /// `max_replicas` × `shards` replicas.
    ///
    /// # Errors
    ///
    /// Propagates strategy-construction and LP failures.
    pub fn with_shards(
        config: ControlPlaneConfig,
        node_model: NodeModel,
        shards: usize,
    ) -> Result<Self> {
        let strategy = ThresholdStrategy::new(vec![config.recovery_threshold], config.delta_r)?;
        let system = if config.system_controller {
            let strategy = ReplicationProblem::new(ReplicationConfig {
                s_max: config.max_replicas * shards.max(1),
                fault_threshold: config.fault_threshold.max(1),
                availability_target: config.availability_target,
                node_survival_probability: config.node_survival_probability,
            })?
            .solve()?;
            Some(SystemController::new(strategy))
        } else {
            None
        };
        Ok(ControlPlane {
            config,
            node_model,
            strategy,
            controllers: BTreeMap::new(),
            system,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ControlPlaneConfig {
        &self.config
    }

    /// The node controller of `node` in `shard`, creating it on first
    /// access.
    pub fn controller(&mut self, shard: usize, node: NodeId) -> &mut NodeController {
        let node_model = &self.node_model;
        let strategy = &self.strategy;
        self.controllers
            .entry((shard, node))
            .or_insert_with(|| NodeController::new(node_model.clone(), strategy.clone()))
    }

    /// Read-only view of a node's controller, if it exists.
    pub fn controller_of(&self, shard: usize, node: NodeId) -> Option<&NodeController> {
        self.controllers.get(&(shard, node))
    }

    /// Drops the controller of an evicted node.
    pub fn forget(&mut self, shard: usize, node: NodeId) {
        self.controllers.remove(&(shard, node));
    }

    /// Total recoveries requested across all node controllers so far.
    pub fn total_recoveries(&self) -> u64 {
        self.controllers.values().map(|c| c.recoveries()).sum()
    }

    /// The system controller, if one runs.
    pub fn system(&self) -> Option<&SystemController> {
        self.system.as_ref()
    }

    /// One control time-step of a one-shard plane.
    ///
    /// `observations` lists the current membership **in membership order**
    /// with each node's IDS input; ordering matters because the system
    /// controller's eviction decision indexes into it, and because the
    /// deterministic simnet path replays `rng` draws in this order.
    pub fn tick<A: ClusterActuator + ?Sized, R: Rng + ?Sized>(
        &mut self,
        observations: &[(NodeId, NodeReport<'_>)],
        actuator: &mut A,
        rng: &mut R,
    ) -> TickReport {
        self.tick_shards(&[observations], &mut [actuator], rng)
            .pop()
            .expect("one report per shard")
    }

    /// One control time-step across every shard: `observations[s]` lists
    /// shard `s`'s membership in membership order with each node's IDS
    /// input, and `actuators[s]` is that shard's actuation surface. Returns
    /// one report per shard.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree.
    pub fn tick_shards<A: ClusterActuator + ?Sized, R: Rng + ?Sized>(
        &mut self,
        observations: &[&[(NodeId, NodeReport<'_>)]],
        actuators: &mut [&mut A],
        rng: &mut R,
    ) -> Vec<TickReport> {
        assert_eq!(
            observations.len(),
            actuators.len(),
            "one actuator per shard"
        );
        let mut reports = vec![TickReport::default(); observations.len()];
        // Local level: fold every shard's observations through its node
        // controllers and collect the fleet-wide recovery requests.
        let mut requests: Vec<(usize, NodeId, f64)> = Vec::new();
        for (shard, shard_observations) in observations.iter().enumerate() {
            for &(id, observation) in *shard_observations {
                let action = match observation {
                    NodeReport::Silent => {
                        reports[shard].beliefs.push((id, None));
                        continue;
                    }
                    NodeReport::Sample(alerts) => {
                        self.controller(shard, id).observe_and_decide(alerts)
                    }
                    NodeReport::Events(events) => self.controller(shard, id).observe_events(events),
                };
                let controller = &self.controllers[&(shard, id)];
                reports[shard].beliefs.push((id, Some(controller.belief())));
                if action == NodeAction::Recover {
                    // Priority by the *deciding* belief: `belief()` was
                    // already reset to the attack prior when the decision
                    // fired, which would make every requester tie and
                    // degrade the k-slot priority to node-id order.
                    requests.push((shard, id, controller.last_request_belief()));
                }
            }
        }
        // Highest beliefs first, fleet-wide; at most k recoveries actuate
        // per tick (Proposition 1). Requests beyond k — and requests the
        // actuator refused (e.g. no state donor) — are *deferred*: the
        // controller's deciding belief is restored so the request re-fires
        // on the next tick instead of waiting for the belief to re-climb or
        // Δ_R to elapse.
        requests.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        let slots = self.config.parallel_recoveries.max(1);
        let mut recovered = 0;
        for (shard, id, _) in requests {
            reports[shard].requested.push(id);
            // A refusal does not consume a slot: the next request in
            // priority order still gets its chance, so one un-actuatable
            // node (e.g. no frontier donor) cannot starve the others.
            let actuated = recovered < slots && actuators[shard].recover(id);
            if let Some(controller) = self.controllers.get_mut(&(shard, id)) {
                if actuated {
                    controller.notify_recovered();
                } else {
                    controller.notify_deferred();
                }
            }
            if actuated {
                reports[shard].recovered.push(id);
                recovered += 1;
            }
        }
        // Global level: one system controller over the concatenated belief
        // report; its eviction decision indexes into that concatenation.
        if let Some(system) = &mut self.system {
            let index: Vec<(usize, NodeId)> = observations
                .iter()
                .enumerate()
                .flat_map(|(shard, obs)| obs.iter().map(move |&(id, _)| (shard, id)))
                .collect();
            let beliefs: Vec<Option<f64>> = reports
                .iter()
                .flat_map(|report| report.beliefs.iter().map(|&(_, belief)| belief))
                .collect();
            let decision = system.decide(&beliefs, rng);
            for report in &mut reports {
                report.estimated_healthy = Some(decision.estimated_healthy);
            }
            let mut evict: Vec<(usize, NodeId)> = decision
                .evict
                .iter()
                .filter_map(|&i| index.get(i).copied())
                .collect();
            evict.sort_unstable();
            for (shard, id) in evict {
                let actuator = &mut actuators[shard];
                if actuator.contains(id)
                    && actuator.replica_count() > self.config.min_replicas
                    && actuator.evict(id)
                {
                    self.controllers.remove(&(shard, id));
                    reports[shard].evicted.push(id);
                }
            }
            let total: usize = actuators.iter().map(|a| a.replica_count()).sum();
            if decision.add_node && total < self.config.max_replicas * actuators.len() {
                // The neediest shard: fewest healthy-looking reporters, ties
                // broken by smallest membership, then shard index.
                let target = (0..actuators.len())
                    .filter(|&shard| actuators[shard].replica_count() < self.config.max_replicas)
                    .min_by_key(|&shard| {
                        let healthy = reports[shard]
                            .beliefs
                            .iter()
                            .filter(|(_, b)| b.is_some_and(|b| b < 0.5))
                            .count();
                        (healthy, actuators[shard].replica_count(), shard)
                    });
                if let Some(shard) = target {
                    if let Some(id) = actuators[shard].join() {
                        self.controller(shard, id);
                        reports[shard].joined = Some(id);
                    }
                }
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// A scripted in-memory cluster: actuation becomes bookkeeping.
    struct FakeCluster {
        members: BTreeSet<NodeId>,
        next: NodeId,
        refuse_recovery: bool,
        recovered: Vec<NodeId>,
    }

    impl FakeCluster {
        fn new(n: NodeId) -> Self {
            FakeCluster {
                members: (0..n).collect(),
                next: n,
                refuse_recovery: false,
                recovered: Vec::new(),
            }
        }
    }

    impl ClusterActuator for FakeCluster {
        fn replica_count(&self) -> usize {
            self.members.len()
        }
        fn contains(&self, node: NodeId) -> bool {
            self.members.contains(&node)
        }
        fn recover(&mut self, node: NodeId) -> bool {
            if self.refuse_recovery || !self.members.contains(&node) {
                return false;
            }
            self.recovered.push(node);
            true
        }
        fn join(&mut self) -> Option<NodeId> {
            let id = self.next;
            self.next += 1;
            self.members.insert(id);
            Some(id)
        }
        fn evict(&mut self, node: NodeId) -> bool {
            self.members.remove(&node)
        }
    }

    fn observations(cluster: &FakeCluster, alerts: u64) -> Vec<(NodeId, u64)> {
        cluster.members.iter().map(|&id| (id, alerts)).collect()
    }

    #[test]
    fn sustained_alerts_trigger_a_recovery_through_the_actuator() {
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: false,
            delta_r: None,
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut recovered = false;
        for _ in 0..12 {
            let observed: Vec<(NodeId, NodeReport<'_>)> = observations(&cluster, 10)
                .into_iter()
                .map(|(id, alerts)| (id, NodeReport::Sample(alerts)))
                .collect();
            let tick = plane.tick(&observed, &mut cluster, &mut rng);
            assert!(
                tick.recovered.len() <= 1,
                "the k = 1 constraint bounds per-tick recoveries"
            );
            if !tick.recovered.is_empty() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "max-priority alerts must actuate a recovery");
        assert_eq!(cluster.recovered.len(), 1);
        // The recovered node's belief reset to the attack prior.
        let id = cluster.recovered[0];
        assert!(plane.controller_of(0, id).unwrap().belief() < 0.2);
    }

    #[test]
    fn deferred_recoveries_keep_requesting() {
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: false,
            delta_r: Some(3),
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(4);
        cluster.refuse_recovery = true;
        let mut rng = StdRng::seed_from_u64(2);
        let mut requested_ticks = 0;
        let mut first_request = None;
        for tick_index in 0..8 {
            let observed: Vec<(NodeId, NodeReport<'_>)> = cluster
                .members
                .iter()
                .map(|&id| (id, NodeReport::Sample(0)))
                .collect();
            let tick = plane.tick(&observed, &mut cluster, &mut rng);
            assert!(tick.recovered.is_empty(), "actuation was refused");
            if !tick.requested.is_empty() {
                first_request.get_or_insert(tick_index);
                requested_ticks += 1;
            }
        }
        // Deferral semantics: once a node's recovery request is refused it
        // stays due and re-fires on *every* subsequent tick (the belief /
        // BTR clock is restored by `notify_deferred`), not just every Δ_R.
        let first = first_request.expect("the BTR clock must force a request");
        assert_eq!(
            requested_ticks,
            8 - first,
            "a refused recovery must re-request on every subsequent tick"
        );
    }

    #[test]
    fn system_level_evicts_silent_nodes_and_restores_n_via_join() {
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: true,
            min_replicas: 3,
            max_replicas: 8,
            // f = 2 with a strict availability target: Algorithm 2 adds
            // with high probability whenever ≤ 3 nodes are estimated
            // healthy, which a 4-node cluster with one silent member
            // always hits.
            fault_threshold: 2,
            availability_target: 0.98,
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        // Node 2 stops reporting: it must be evicted, and with few healthy
        // nodes the replication controller must eventually JOIN a fresh one.
        let mut evicted = false;
        let mut joined = false;
        for _ in 0..20 {
            let observed: Vec<(NodeId, NodeReport<'_>)> = cluster
                .members
                .iter()
                .map(|&id| {
                    if id == 2 && !evicted {
                        (id, NodeReport::Silent)
                    } else {
                        (id, NodeReport::Sample(2))
                    }
                })
                .collect();
            let tick = plane.tick(&observed, &mut cluster, &mut rng);
            if tick.evicted.contains(&2) {
                evicted = true;
                assert!(!cluster.contains(2));
                assert!(plane.controller_of(0, 2).is_none(), "controller dropped");
            }
            if tick.joined.is_some() {
                joined = true;
            }
            if evicted && joined && cluster.replica_count() >= 4 {
                break;
            }
        }
        assert!(evicted, "the silent node must be evicted");
        assert!(joined, "the system controller must restore n via JOIN");
        assert!(cluster.replica_count() >= 4);
    }

    #[test]
    fn event_stream_reports_drive_the_same_loop() {
        let mut plane = ControlPlane::new(ControlPlaneConfig {
            system_controller: false,
            delta_r: None,
            ..ControlPlaneConfig::default()
        })
        .unwrap();
        let mut cluster = FakeCluster::new(4);
        let mut rng = StdRng::seed_from_u64(4);
        let burst = [10u64, 10, 10, 9, 10];
        let quiet = [0u64, 1];
        let mut recovered = false;
        for _ in 0..6 {
            let observed: Vec<(NodeId, NodeReport<'_>)> = cluster
                .members
                .iter()
                .map(|&id| {
                    if id == 1 {
                        (id, NodeReport::Events(&burst))
                    } else {
                        (id, NodeReport::Events(&quiet))
                    }
                })
                .collect();
            let tick = plane.tick(&observed, &mut cluster, &mut rng);
            if tick.recovered.contains(&1) {
                recovered = true;
                break;
            }
            assert!(
                !tick.recovered.iter().any(|&id| id != 1),
                "quiet nodes must not recover"
            );
        }
        assert!(recovered, "a dense alert burst must actuate recovery");
    }

    fn fleet_plane(config: ControlPlaneConfig) -> ControlPlane {
        let node_model =
            NodeModel::new(NodeParameters::default(), ObservationModel::paper_default()).unwrap();
        ControlPlane::with_shards(config, node_model, 2).unwrap()
    }

    /// One fleet tick over two fake shards, reporting `report(shard, id)`.
    fn fleet_tick<'a>(
        plane: &mut ControlPlane,
        shards: &mut [FakeCluster; 2],
        rng: &mut StdRng,
        report: impl Fn(usize, NodeId) -> NodeReport<'a>,
    ) -> Vec<TickReport> {
        let observations: Vec<Vec<(NodeId, NodeReport<'a>)>> = shards
            .iter()
            .enumerate()
            .map(|(shard, fake)| {
                fake.members
                    .iter()
                    .map(|&id| (id, report(shard, id)))
                    .collect()
            })
            .collect();
        let views: Vec<&[(NodeId, NodeReport<'a>)]> =
            observations.iter().map(Vec::as_slice).collect();
        let (left, right) = shards.split_at_mut(1);
        plane.tick_shards(&views, &mut [&mut left[0], &mut right[0]], rng)
    }

    /// Shard 0 node 1 sees a dense burst, shard 1 node 2 a slightly
    /// sparser one; everyone else reports `quiet`.
    fn two_hot_nodes<'a>(
        hot: &'a [u64],
        warm: &'a [u64],
        quiet: &'a [u64],
    ) -> impl Fn(usize, NodeId) -> NodeReport<'a> {
        move |shard, id| match (shard, id) {
            (0, 1) => NodeReport::Events(hot),
            (1, 2) => NodeReport::Events(warm),
            _ => NodeReport::Events(quiet),
        }
    }

    #[test]
    fn global_budget_prioritizes_the_higher_belief_shard_and_defers_the_other() {
        // Global k = 1 with simultaneous compromises in two shards: the
        // shard whose controller decided on the higher belief recovers
        // first; the deferred shard's request re-fires on the next tick.
        let mut plane = fleet_plane(ControlPlaneConfig {
            system_controller: false,
            delta_r: None,
            ..ControlPlaneConfig::default()
        });
        let mut shards = [FakeCluster::new(4), FakeCluster::new(4)];
        let mut rng = StdRng::seed_from_u64(7);
        let (hot, warm, quiet) = ([10u64; 6], [10u64; 4], [0u64]);
        let mut first = None;
        for _ in 0..10 {
            let tick = fleet_tick(
                &mut plane,
                &mut shards,
                &mut rng,
                two_hot_nodes(&hot, &warm, &quiet),
            );
            if tick[0].requested.contains(&1) && tick[1].requested.contains(&2) {
                first = Some(tick);
                break;
            }
            assert!(
                tick[0].recovered.len() + tick[1].recovered.len() <= 1,
                "the global k = 1 budget bounds per-tick recoveries"
            );
        }
        let first = first.expect("both compromises must eventually request");
        // The denser burst (shard 0, node 1) decided on a higher belief and
        // wins the single slot; shard 1's request is deferred.
        assert_eq!(first[0].recovered, vec![1]);
        assert!(first[1].recovered.is_empty(), "{first:?}");

        // The deferred shard re-fires immediately on the next tick and now
        // wins the freed slot.
        let tick = fleet_tick(
            &mut plane,
            &mut shards,
            &mut rng,
            two_hot_nodes(&quiet, &quiet, &quiet),
        );
        assert!(
            tick[1].recovered.contains(&2),
            "the deferred shard must recover next tick: {tick:?}"
        );
        assert_eq!(shards[0].recovered, vec![1]);
        assert_eq!(shards[1].recovered, vec![2]);
    }

    #[test]
    fn refused_recoveries_do_not_consume_the_global_budget() {
        let mut plane = fleet_plane(ControlPlaneConfig {
            system_controller: false,
            delta_r: None,
            ..ControlPlaneConfig::default()
        });
        let mut shards = [FakeCluster::new(4), FakeCluster::new(4)];
        shards[0].refuse_recovery = true;
        let mut rng = StdRng::seed_from_u64(9);
        let (hot, warm, quiet) = ([10u64; 6], [10u64; 4], [0u64]);
        let mut recovered_other = false;
        for _ in 0..10 {
            let tick = fleet_tick(
                &mut plane,
                &mut shards,
                &mut rng,
                two_hot_nodes(&hot, &warm, &quiet),
            );
            if tick[1].recovered.contains(&2) {
                // Shard 0's refusal must not have eaten the only slot.
                recovered_other = true;
                assert!(tick[0].requested.contains(&1), "{tick:?}");
                break;
            }
        }
        assert!(
            recovered_other,
            "a refused recovery must hand the slot to the next shard"
        );
        assert!(shards[0].recovered.is_empty());
    }

    #[test]
    fn fleet_system_level_evicts_across_shards_and_joins_the_neediest() {
        let mut plane = fleet_plane(ControlPlaneConfig {
            system_controller: true,
            min_replicas: 3,
            max_replicas: 6,
            // f = 4 over the 8-replica fleet with a strict availability
            // target: Algorithm 2 adds whenever ≤ 6 nodes are estimated
            // healthy — exactly the fleet's state once one replica stops
            // reporting — and never at ≥ 7, so the spare allocation is
            // prompt and drift-free.
            fault_threshold: 4,
            availability_target: 0.98,
            ..ControlPlaneConfig::default()
        });
        let mut shards = [FakeCluster::new(4), FakeCluster::new(4)];
        let mut rng = StdRng::seed_from_u64(3);
        // Shard 1's node 2 stops reporting: the fleet controller must evict
        // it from shard 1 (not shard 0) and route the JOIN spare to the
        // shard that lost a member.
        let mut evicted = false;
        let mut joined_shard = None;
        for _ in 0..25 {
            let silent = !evicted;
            let tick = fleet_tick(&mut plane, &mut shards, &mut rng, |shard, id| {
                if shard == 1 && id == 2 && silent {
                    NodeReport::Silent
                } else {
                    NodeReport::Sample(2)
                }
            });
            if tick[1].evicted.contains(&2) {
                evicted = true;
                assert!(plane.controller_of(1, 2).is_none(), "controller dropped");
            }
            if let Some(shard) = tick.iter().position(|t| t.joined.is_some()) {
                joined_shard = Some(shard);
            }
            if evicted && joined_shard.is_some() {
                break;
            }
        }
        assert!(evicted, "the silent node must be evicted from its shard");
        assert!(!shards[1].contains(2));
        assert!(shards[0].contains(2), "shard 0's node 2 must be untouched");
        assert_eq!(
            joined_shard,
            Some(1),
            "the JOIN spare must go to the shard that lost a member"
        );
    }
}
