//! The live workloads: the threaded plane over in-process channels
//! (`kv-channel`), the same plane over loopback TCP (`kv-socket`), and the
//! paper's control loop steering the threaded plane under intrusions
//! (`intrusion-recovery`).
//!
//! Every workload is closed loop: one [`ClientDriver`] thread keeps each
//! client's single request in flight until f+1 matching replies arrive.
//! The driver sends through [`Counted`], a wrapper that counts first sends
//! and retransmissions per request id and records when new requests start.

use crate::micro::Shape;
use crate::stats::{self, quantile};
use crate::trace::Tracer;
use crate::{Estimator, RoundStats, Run};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tolerance_consensus::minbft::Message;
use tolerance_consensus::net::Delivery;
use tolerance_consensus::threaded::snapshots_consistent;
use tolerance_consensus::transport::{Transport, TransportHandle, WallClock};
use tolerance_consensus::workload::OpStream;
use tolerance_consensus::{
    ByzantineMode, ClientDriver, ClientReport, MembershipView, NodeId, ReplicaSnapshot,
    SocketHandle, SocketReplicaNode, SocketStats, SocketTransport, ThreadedCluster,
    ThreadedServiceConfig, CLIENT_ID_BASE,
};
use tolerance_core::controlplane::{
    ClusterActuator, ControlPlane, ControlledServiceConfig, IntrusionMode, NodeReport, TickReport,
};
use tolerance_core::node_model::NodeState;
use tolerance_core::observation::ObservationModel;

/// Length of one `run_for` call of the driver; the mailbox depth of the kv
/// workloads is sampled between calls.
const SLICE: f64 = 0.02;
/// Width of the windows `availability` counts: the share of the submission
/// window's full windows in which at least one new request started.
const WINDOW: f64 = 0.1;
/// Seconds the drain may take before outstanding requests count as failed.
const DRAIN_DEADLINE: f64 = 10.0;
/// Wall-clock length of one kv round. A kv run is as many rounds as fit in
/// its seconds, each with a fresh service, and reports its fastest tenth
/// (see [`Estimator::Fastest`]).
const KV_ROUND_SECONDS: f64 = 0.5;
/// Wall-clock length of one `intrusion-recovery` round: fixed, so a round's
/// tick count and hence its decision counts depend on the control seed only. Its
/// figures are taken over every round, since its stalls must count.
const ROUND_SECONDS: f64 = 5.0;

/// The transport plane of a kv workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plane {
    Channel,
    Socket,
}

/// The `kv-channel`/`kv-socket` service: 4 replicas (f = 1), 16 clients,
/// full batches of 16, pipeline window 4, 64 keys, half writes, no signing
/// sleep.
fn kv_config(seed: u64) -> ThreadedServiceConfig {
    ThreadedServiceConfig {
        replicas: 4,
        clients: 16,
        batch_size: 16,
        pipeline_window: 4,
        key_space: 64,
        write_ratio: 0.5,
        signature_time: 0.0,
        seed,
        ..ThreadedServiceConfig::default()
    }
}

/// What the client-side wrapper saw.
#[derive(Debug, Default)]
struct SubmitLog {
    /// Per client index: the lowest request id not yet sent.
    next_new: Vec<u64>,
    first_sends: u64,
    resends: u64,
    /// Transport time of the first request: the submission window opens.
    window_start: f64,
    /// Per [`WINDOW`] since `window_start`: how many new requests started.
    started: Vec<u32>,
    last_new: Option<f64>,
    /// Longest interval between two consecutive new requests, in seconds.
    max_gap: f64,
}

impl SubmitLog {
    fn note(&mut self, from: NodeId, message: &Message, now: f64) {
        let Message::Request(request) = message else {
            return;
        };
        let index = from.saturating_sub(CLIENT_ID_BASE) as usize;
        if index >= self.next_new.len() {
            self.next_new.resize(index + 1, 0);
        }
        if request.id < self.next_new[index] {
            self.resends += 1;
            return;
        }
        self.next_new[index] = request.id + 1;
        if self.first_sends == 0 {
            self.window_start = now;
        }
        self.first_sends += 1;
        let window = ((now - self.window_start) / WINDOW) as usize;
        if window >= self.started.len() {
            self.started.resize(window + 1, 0);
        }
        self.started[window] += 1;
        if let Some(last) = self.last_new {
            self.max_gap = self.max_gap.max(now - last);
        }
        self.last_new = Some(now);
    }

    /// Of the full windows of a `seconds`-long submission window: those in
    /// which a new request started, and all of them.
    fn availability(&self, seconds: f64) -> (u64, u64) {
        let windows = (seconds / WINDOW) as usize;
        let active = self
            .started
            .iter()
            .take(windows)
            .filter(|&&n| n > 0)
            .count();
        (active as u64, windows as u64)
    }
}

/// The client driver's transport: forwards everything to `inner` and logs
/// request broadcasts (the driver sends every request and retransmission as
/// one broadcast).
#[derive(Clone)]
struct Counted<T> {
    inner: T,
    log: Arc<Mutex<SubmitLog>>,
}

impl<T: Transport<Message> + WallClock> Transport<Message> for Counted<T> {
    fn send(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.inner.send(from, to, message);
    }

    fn broadcast(&mut self, from: NodeId, recipients: &[NodeId], message: &Message) {
        let now = self.inner.now();
        self.log
            .lock()
            .expect("submit log lock poisoned by a panicked driver")
            .note(from, message, now);
        self.inner.broadcast(from, recipients, message);
    }

    fn note_received(&mut self) {
        self.inner.note_received();
    }
}

impl<T: WallClock> WallClock for Counted<T> {
    fn now(&self) -> f64 {
        self.inner.now()
    }
}

/// The per-client operation streams, derived from the seed exactly as
/// `ClientDriver::new` derives them.
fn op_streams(config: &ThreadedServiceConfig) -> Vec<OpStream> {
    (0..config.clients)
        .map(|index| {
            OpStream::new(
                config.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                config.key_space,
                config.write_ratio,
            )
        })
        .collect()
}

fn client_ids(clients: usize) -> Vec<NodeId> {
    (0..clients).map(|i| CLIENT_ID_BASE + i as NodeId).collect()
}

/// A driver over `inner`, with its submit log.
fn counted_driver<T: Transport<Message> + WallClock>(
    inner: T,
    mailbox: Receiver<Delivery<Message>>,
    membership: MembershipView,
    config: &ThreadedServiceConfig,
) -> (ClientDriver<Counted<T>>, Arc<Mutex<SubmitLog>>) {
    let log = Arc::new(Mutex::new(SubmitLog::default()));
    let transport = Counted {
        inner,
        log: Arc::clone(&log),
    };
    let driver = ClientDriver::over_transport(
        transport,
        mailbox,
        membership,
        op_streams(config),
        config.request_timeout,
    );
    (driver, log)
}

/// A socket-plane service: every replica behind its own TCP listener, the
/// client pool behind the hub's listener, one outbound link from the hub
/// to each replica.
struct SocketService {
    hub: SocketTransport,
    membership: Vec<NodeId>,
    mailbox: Option<Receiver<Delivery<Message>>>,
    stops: Vec<Arc<AtomicBool>>,
    workers: Vec<JoinHandle<(ReplicaSnapshot, SocketStats)>>,
}

impl SocketService {
    fn start(config: &ThreadedServiceConfig) -> Self {
        let membership: Vec<NodeId> = (0..config.replicas as NodeId).collect();
        let mut nodes: Vec<SocketReplicaNode> = membership
            .iter()
            .map(|&id| {
                SocketReplicaNode::bind(id, membership.clone(), "127.0.0.1:0", config)
                    .expect("bind a loopback replica listener")
            })
            .collect();
        let addrs: Vec<SocketAddr> = nodes.iter().map(SocketReplicaNode::local_addr).collect();
        let mut hub = SocketTransport::bind("127.0.0.1:0", config.channel_capacity)
            .expect("bind the loopback client hub listener");
        let clients = client_ids(config.clients);
        let mailbox = hub.register_shared(&clients);
        let hub_addr = hub.local_addr();
        for (i, node) in nodes.iter_mut().enumerate() {
            for (j, &addr) in addrs.iter().enumerate() {
                if i != j {
                    node.add_peer(j as NodeId, addr);
                }
            }
            for &client in &clients {
                node.add_peer(client, hub_addr);
            }
        }
        for (j, &addr) in addrs.iter().enumerate() {
            hub.add_peer(j as NodeId, addr);
        }
        let stops = nodes.iter().map(SocketReplicaNode::stop_flag).collect();
        let workers = nodes
            .into_iter()
            .map(|mut node| {
                std::thread::spawn(move || {
                    let snapshot = node.run();
                    (snapshot, node.stats())
                })
            })
            .collect();
        SocketService {
            hub,
            membership,
            mailbox: Some(mailbox),
            stops,
            workers,
        }
    }

    /// Stops every replica and returns the snapshots plus the socket
    /// counters summed over the replicas and the hub.
    fn shutdown(self) -> (Vec<ReplicaSnapshot>, SocketStats) {
        for stop in &self.stops {
            stop.store(true, Ordering::Relaxed);
        }
        let mut total = self.hub.stats();
        let mut snapshots = Vec::new();
        for worker in self.workers {
            let (snapshot, stats) = worker.join().expect("socket replica thread panicked");
            snapshots.push(snapshot);
            total.sent += stats.sent;
            total.dropped += stats.dropped;
            total.decode_errors += stats.decode_errors;
            total.reconnects += stats.reconnects;
        }
        (snapshots, total)
    }
}

/// The checks every live round makes after its drain: the drain completed,
/// the replica logs agree, and execution was exactly once. Returns the
/// failed checks.
///
/// Exactly once: no replica's retained log holds a digest twice or a digest
/// no client completed, and the most advanced replica executed exactly as
/// many requests as clients completed (after a completed drain every
/// submitted request completed, so one extra execution anywhere, compacted
/// or retained, shows as a surplus).
fn check_round(drained: bool, report: &ClientReport, snapshots: &[ReplicaSnapshot]) -> Vec<String> {
    let mut problems = Vec::new();
    if !drained {
        problems.push("the drain did not complete: requests still outstanding".to_string());
    }
    if !snapshots_consistent(snapshots) {
        problems.push("replica logs diverge".to_string());
    }
    let completed: HashSet<_> = report.completed_digests.iter().copied().collect();
    if completed.len() != report.completed_digests.len() {
        problems.push("a request completed twice".to_string());
    }
    for snapshot in snapshots {
        let mut seen = HashSet::with_capacity(snapshot.executed.len());
        if !snapshot.executed.iter().all(|digest| seen.insert(*digest)) {
            problems.push(format!("replica {} executed a request twice", snapshot.id));
        }
        if let Some(digest) = snapshot.executed.iter().find(|d| !completed.contains(d)) {
            problems.push(format!(
                "replica {} executed {digest:?}, which no client completed",
                snapshot.id
            ));
        }
    }
    let executed = snapshots
        .iter()
        .map(|s| s.log_start + s.executed.len() as u64)
        .max()
        .unwrap_or(0);
    if drained && executed != report.completed {
        problems.push(format!(
            "the most advanced replica executed {executed} requests, clients completed {}",
            report.completed
        ));
    }
    problems
}

fn rounds_in(seconds: f64, round_seconds: f64) -> usize {
    ((seconds / round_seconds).round() as usize).max(1)
}

/// A running kv service with its client driver. One exists at a time, so
/// the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum KvService {
    Channel(
        ThreadedCluster,
        ClientDriver<Counted<TransportHandle<Message>>>,
    ),
    Socket(SocketService, ClientDriver<Counted<SocketHandle>>),
}

/// Transport counters of a round: sent, dropped, decode errors, reconnects.
type Traffic = [u64; 4];

impl KvService {
    /// Everything before the first request: replicas (and for the socket
    /// plane, listeners and peer links) plus the driver.
    fn start(plane: Plane, config: &ThreadedServiceConfig) -> (Self, Arc<Mutex<SubmitLog>>) {
        let ids = client_ids(config.clients);
        match plane {
            Plane::Channel => {
                let mut cluster = ThreadedCluster::new(config);
                let mailbox = cluster.register_clients(&ids);
                let (driver, log) =
                    counted_driver(cluster.handle(), mailbox, cluster.membership_view(), config);
                (KvService::Channel(cluster, driver), log)
            }
            Plane::Socket => {
                let mut service = SocketService::start(config);
                let mailbox = service
                    .mailbox
                    .take()
                    .expect("a fresh service has its mailbox");
                let membership = MembershipView::fixed(service.membership.clone());
                let (driver, log) =
                    counted_driver(service.hub.handle(), mailbox, membership, config);
                (KvService::Socket(service, driver), log)
            }
        }
    }

    fn measure(
        &mut self,
        seconds: f64,
        lane: &mut Option<&mut Tracer>,
        root: Option<u64>,
        trace: u64,
    ) -> Measured {
        match self {
            KvService::Channel(cluster, driver) => {
                let running = |elapsed| elapsed < seconds;
                let depth = || Some(cluster.mailbox_depth());
                measure(driver, running, depth, lane, root, trace)
            }
            KvService::Socket(_, driver) => {
                let running = |elapsed| elapsed < seconds;
                measure(driver, running, || None, lane, root, trace)
            }
        }
    }

    /// Stops the replicas; returns their snapshots and the round's traffic.
    fn shutdown(self) -> (Vec<ReplicaSnapshot>, Traffic) {
        match self {
            KvService::Channel(cluster, driver) => {
                drop(driver);
                let stats = cluster.stats();
                (cluster.shutdown(), [stats.sent, stats.dropped, 0, 0])
            }
            KvService::Socket(service, driver) => {
                drop(driver);
                let (snapshots, stats) = service.shutdown();
                let traffic = [
                    stats.sent,
                    stats.dropped,
                    stats.decode_errors,
                    stats.reconnects,
                ];
                (snapshots, traffic)
            }
        }
    }
}

/// What the measured part of a live round produced.
struct Measured {
    window: f64,
    completed_in_window: u64,
    drained: bool,
    report: ClientReport,
    depths: Vec<f64>,
}

/// Runs the closed loop in [`SLICE`]-long calls while `running(elapsed
/// seconds)` holds, sampling `depth` after each call, then drains.
#[allow(clippy::too_many_arguments)]
fn measure<T: Transport<Message> + WallClock>(
    driver: &mut ClientDriver<Counted<T>>,
    running: impl Fn(f64) -> bool,
    depth: impl Fn() -> Option<u64>,
    lane: &mut Option<&mut Tracer>,
    root: Option<u64>,
    trace: u64,
) -> Measured {
    let start = Instant::now();
    let mut depths = Vec::new();
    while running(start.elapsed().as_secs_f64()) {
        let slice = Instant::now();
        driver.run_for(SLICE);
        if let Some(t) = lane.as_deref_mut() {
            t.record("client.run_for", root, trace, slice, Instant::now());
        }
        depths.extend(depth().map(|d| d as f64));
    }
    let window = start.elapsed().as_secs_f64();
    let completed_in_window = driver.report().completed;
    let drain = Instant::now();
    let drained = driver.drain(DRAIN_DEADLINE);
    let drain_end = Instant::now();
    if let Some(t) = lane.as_deref_mut() {
        t.record("threaded.drain", root, trace, drain, drain_end);
    }
    Measured {
        window,
        completed_in_window,
        drained,
        report: driver.report(),
        depths,
    }
}

/// A finished live round: measured, drained, shut down.
struct LiveRound {
    measured: Measured,
    log: SubmitLog,
    snapshots: Vec<ReplicaSnapshot>,
    traffic: Traffic,
}

/// The live layers summed or pooled over a run's rounds.
#[derive(Default)]
struct LiveTotals {
    depths: Vec<f64>,
    first_sends: u64,
    resends: u64,
    max_gap: f64,
    completed: u64,
    executed: u64,
    sequences: u64,
    traffic: Traffic,
}

impl LiveTotals {
    /// Checks `round`'s outputs and folds it into `run` and the totals.
    fn add(&mut self, run: &mut Run, index: usize, round: LiveRound) {
        let measured = round.measured;
        let first_sends = round.log.first_sends;
        run.attempted += first_sends;
        run.failed += first_sends.saturating_sub(measured.report.completed);
        for problem in check_round(measured.drained, &measured.report, &round.snapshots) {
            run.fail(first_sends, format!("round {index}: {problem}"));
        }
        let latencies_ms: Vec<f64> = measured.report.latencies.iter().map(|s| s * 1e3).collect();
        let (served, units) = round.log.availability(measured.window);
        run.rounds.push(RoundStats::new(
            measured.completed_in_window,
            measured.window,
            &latencies_ms,
            served,
            units,
        ));
        let stats = run.rounds.last().expect("pushed above");
        run.info.push(format!(
            "round {index}: {:.0} req/s, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, \
             {served} of {units} windows served",
            stats.throughput_rps, stats.latency_p50_ms, stats.latency_p95_ms, stats.latency_p99_ms
        ));
        let (executed, sequences) = round
            .snapshots
            .iter()
            .map(|s| (s.log_start + s.executed.len() as u64, s.last_executed))
            .max()
            .unwrap_or((0, 0));
        self.executed += executed;
        self.sequences += sequences;
        self.depths.extend(measured.depths);
        self.first_sends += first_sends;
        self.resends += round.log.resends;
        self.max_gap = self.max_gap.max(round.log.max_gap);
        self.completed += measured.report.completed;
        for (total, count) in self.traffic.iter_mut().zip(round.traffic) {
            *total += count;
        }
    }

    fn finish(self, run: &mut Run, plane: Plane) {
        let per_req = |count: u64| count as f64 / self.completed.max(1) as f64;
        let [sent, dropped, decode_errors, reconnects] = self.traffic;
        let layers = match plane {
            Plane::Channel => vec![
                ("transport.msgs_per_req", per_req(sent)),
                ("transport.dropped", dropped as f64),
            ],
            Plane::Socket => vec![
                ("socket.frames_per_req", per_req(sent)),
                ("socket.dropped", dropped as f64),
                ("socket.decode_errors", decode_errors as f64),
                ("socket.reconnects", reconnects as f64),
            ],
        };
        run.layers.extend(layers);
        run.layers.extend([
            ("threaded.mailbox_depth_p50", quantile(&self.depths, 0.5)),
            ("threaded.mailbox_depth_p99", quantile(&self.depths, 0.99)),
            (
                "client.retransmit_ratio",
                self.resends as f64 / self.first_sends.max(1) as f64,
            ),
            ("client.max_stall_ms", self.max_gap * 1e3),
            (
                "minbft.reqs_per_sequence",
                self.executed as f64 / self.sequences.max(1) as f64,
            ),
        ]);
    }
}

/// Times one kv set-up: everything before the first request.
pub fn kv_setup(plane: Plane, seed: u64) -> f64 {
    let start = Instant::now();
    let (service, _log) = KvService::start(plane, &kv_config(seed));
    let setup = start.elapsed().as_secs_f64();
    service.shutdown();
    setup
}

/// Runs a kv workload: `seconds` split into rounds, each with a fresh
/// service.
pub fn kv(plane: Plane, seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Run {
    let config = kv_config(seed);
    let mut run = Run {
        generator_threads: 1,
        shape: Shape::of_service(&config),
        ..Run::default()
    };
    let setup_name = match plane {
        Plane::Channel => "threaded.setup",
        Plane::Socket => "socket.setup",
    };
    let rounds = rounds_in(seconds, KV_ROUND_SECONDS);
    let mut totals = LiveTotals::default();
    for index in 0..rounds {
        let trace = (index as u64) << 32;
        let start = Instant::now();
        let (mut service, log) = KvService::start(plane, &config);
        let setup_end = Instant::now();
        let root = tracer.as_deref_mut().map(|t| {
            let root = t.reserve();
            t.record(setup_name, Some(root), trace, start, setup_end);
            root
        });
        let measured = service.measure(seconds / rounds as f64, &mut tracer, root, trace);
        let shutdown = Instant::now();
        let (snapshots, traffic) = service.shutdown();
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            let end = Instant::now();
            t.record("threaded.shutdown", Some(root), trace, shutdown, end);
            t.record_as(root, "kv.round", None, trace, start, end);
        }
        let log = std::mem::take(&mut *log.lock().expect("submit log"));
        let round = LiveRound {
            measured,
            log,
            snapshots,
            traffic,
        };
        totals.add(&mut run, index, round);
    }
    totals.finish(&mut run, plane);
    run
}

/// The scripted faults of an `intrusion-recovery` round: at which share of
/// the round's ticks, against which membership index, and how.
const FAULTS: [(f64, usize, IntrusionMode); 2] = [
    (0.3, 1, IntrusionMode::Compromise),
    (0.6, 2, IntrusionMode::Crash),
];

/// The live cluster as the control plane's actuator, timing every
/// recover, evict and join call.
struct TimedActuator<'a> {
    cluster: &'a mut ThreadedCluster,
    calls: Vec<(Instant, Instant)>,
}

impl TimedActuator<'_> {
    fn timed<R>(&mut self, call: impl FnOnce(&mut ThreadedCluster) -> R) -> R {
        let start = Instant::now();
        let result = call(self.cluster);
        self.calls.push((start, Instant::now()));
        result
    }
}

impl ClusterActuator for TimedActuator<'_> {
    fn replica_count(&self) -> usize {
        ClusterActuator::replica_count(&*self.cluster)
    }

    fn contains(&self, node: NodeId) -> bool {
        ClusterActuator::contains(&*self.cluster, node)
    }

    fn recover(&mut self, node: NodeId) -> bool {
        self.timed(|cluster| ClusterActuator::recover(cluster, node))
    }

    fn join(&mut self) -> Option<NodeId> {
        self.timed(ClusterActuator::join)
    }

    fn evict(&mut self, node: NodeId) -> bool {
        self.timed(|cluster| ClusterActuator::evict(cluster, node))
    }
}

/// What the control loop did in one `intrusion-recovery` round.
#[derive(Default)]
struct ControlRound {
    events_folded: u64,
    recoveries: u64,
    evictions: u64,
    joins: u64,
    /// Canonical text of every tick that decided something.
    decisions: String,
    ticks: usize,
}

impl ControlRound {
    /// Records one tick's decisions and updates the ground truth: a
    /// recovery ends a compromise, an eviction removes the node.
    fn note(
        &mut self,
        tick: usize,
        report: &TickReport,
        compromised: &mut HashSet<NodeId>,
        crashed: &mut HashSet<NodeId>,
    ) {
        for id in &report.recovered {
            compromised.remove(id);
        }
        for id in &report.evicted {
            compromised.remove(id);
            crashed.remove(id);
        }
        self.recoveries += report.recovered.len() as u64;
        self.evictions += report.evicted.len() as u64;
        self.joins += u64::from(report.joined.is_some());
        if !report.requested.is_empty() || !report.evicted.is_empty() || report.joined.is_some() {
            self.decisions.push_str(&format!(
                "{tick}:r{:?}a{:?}e{:?}j{:?};",
                report.requested, report.recovered, report.evicted, report.joined
            ));
        }
    }

    /// The round's exact counts in canonical form.
    fn exact(&self) -> String {
        format!(
            "ticks={} recoveries={} evictions={} joins={} decisions={:016x}",
            self.ticks,
            self.recoveries,
            self.evictions,
            self.joins,
            stats::fnv1a(stats::FNV_OFFSET, self.decisions.as_bytes())
        )
    }
}

/// The seeds of the IDS samples and the controllers' randomness that the
/// `intrusion-recovery` rounds cycle through, one per round. The set is
/// fixed, so every run replays the same decision sequences whatever its
/// `--seed` (which seeds the clients' operations and the replicas' keys),
/// and seed-to-seed differences in stalls do not read as noise. Seed 4 is in
/// the set on purpose: it stalls every client for more than a second in
/// every round, a real availability defect the benchmark must keep showing.
/// Seed 5 is held out for later claims.
pub const CONTROL_SEEDS: [u64; 5] = [0, 1, 2, 3, 4];

/// Times one `intrusion-recovery` set-up: cluster, control plane and
/// driver.
pub fn intrusion_setup(seed: u64) -> f64 {
    let scenario = ControlledServiceConfig::default();
    let service = ThreadedServiceConfig {
        seed,
        ..scenario.service
    };
    let start = Instant::now();
    let controlled = Controlled::start(&scenario, &service);
    let setup = start.elapsed().as_secs_f64();
    drop(controlled.driver);
    controlled.cluster.shutdown();
    setup
}

/// Runs `intrusion-recovery`: rounds of [`ROUND_SECONDS`], each with its
/// own cluster and control plane and the next seed of `control_seeds`. A round must make the same decisions at the
/// same ticks as every other round with its control seed.
pub fn intrusion(
    seed: u64,
    control_seeds: &[u64],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Run {
    let scenario = ControlledServiceConfig::default();
    let service = ThreadedServiceConfig {
        seed,
        ..scenario.service
    };
    let mut run = Run {
        generator_threads: 2,
        shape: Shape::of_service(&service),
        estimator: Estimator::AllRounds,
        ..Run::default()
    };
    let mut totals = LiveTotals::default();
    let mut events_folded = 0;
    let mut first: Option<ControlRound> = None;
    for index in 0..rounds_in(seconds, ROUND_SECONDS) {
        let control_seed = control_seeds[index % control_seeds.len()];
        let (round, control) = intrusion_round(
            &scenario,
            &service,
            control_seed,
            index,
            tracer.as_deref_mut(),
        );
        let first_sends = round.log.first_sends;
        totals.add(&mut run, index, round);
        run.info.push(format!(
            "round {index} (control seed {control_seed}): decisions {}",
            control.decisions
        ));
        events_folded += control.events_folded;
        let exact = control.exact();
        match run.exact.get(&control_seed) {
            Some(earlier) if *earlier != exact => run.fail(
                first_sends,
                format!("round {index} decided differently from an earlier round with control seed {control_seed}: {exact} vs {earlier}"),
            ),
            _ => {
                run.exact.insert(control_seed, exact);
            }
        }
        // The decision counts reported per layer are those of the first
        // control seed.
        if first.is_none() {
            first = Some(control);
        }
    }
    totals.finish(&mut run, Plane::Channel);
    let first = first.expect("at least one round");
    run.layers.extend([
        ("controlplane.events_folded", events_folded as f64),
        ("controlplane.recoveries", first.recoveries as f64),
        ("controlplane.evictions", first.evictions as f64),
        ("controlplane.joins", first.joins as f64),
    ]);
    run
}

/// Everything before an `intrusion-recovery` round's first request.
struct Controlled {
    cluster: ThreadedCluster,
    /// The node and system controllers, with Algorithm 2 solved.
    plane: ControlPlane,
    /// When `ControlPlane::new` started and ended.
    plane_new: (Instant, Instant),
    driver: ClientDriver<Counted<TransportHandle<Message>>>,
    log: Arc<Mutex<SubmitLog>>,
}

impl Controlled {
    fn start(scenario: &ControlledServiceConfig, service: &ThreadedServiceConfig) -> Self {
        let mut cluster = ThreadedCluster::new(service);
        let plane_start = Instant::now();
        let plane = ControlPlane::new(scenario.control.clone())
            .expect("the default control plane solves Algorithm 2");
        let plane_end = Instant::now();
        let mailbox = cluster.register_clients(&client_ids(service.clients));
        let (driver, log) = counted_driver(
            cluster.handle(),
            mailbox,
            cluster.membership_view(),
            service,
        );
        Controlled {
            cluster,
            plane,
            plane_new: (plane_start, plane_end),
            driver,
            log,
        }
    }
}

/// One `intrusion-recovery` round: the driver thread runs the closed loop
/// while this thread ticks the control plane on deadlines
/// (`start + (i + 1) · interval` for tick `i`, so a late tick is followed by
/// prompt ones rather than drift) and injects the scripted faults at fixed
/// tick indices.
fn intrusion_round(
    scenario: &ControlledServiceConfig,
    service: &ThreadedServiceConfig,
    control_seed: u64,
    index: usize,
    mut tracer: Option<&mut Tracer>,
) -> (LiveRound, ControlRound) {
    let interval = scenario.control_interval;
    let ticks = (ROUND_SECONDS / interval).round() as usize;
    let trace = (index as u64) << 32;

    let setup_start = Instant::now();
    let Controlled {
        mut cluster,
        mut plane,
        plane_new: (plane_start, plane_end),
        mut driver,
        log,
    } = Controlled::start(scenario, service);
    let setup_end = Instant::now();
    let root = tracer.as_deref_mut().map(|t| {
        let root = t.reserve();
        let setup = t.record("threaded.setup", Some(root), trace, setup_start, setup_end);
        t.record(
            "controlplane.new",
            Some(setup),
            trace,
            plane_start,
            plane_end,
        );
        root
    });
    let mut control = ControlRound {
        ticks,
        ..ControlRound::default()
    };

    let alert_model = ObservationModel::paper_default();
    let mut rng = StdRng::seed_from_u64(control_seed ^ 0xc011_7201_b1a4_e5e3);
    let mut compromised: HashSet<NodeId> = HashSet::new();
    let mut crashed: HashSet<NodeId> = HashSet::new();
    let mut tick_depths = Vec::with_capacity(ticks);
    let stop = AtomicBool::new(false);
    let mut lane_tracer = tracer.as_deref().map(|t| t.fork(1 + index as u64));
    let start = Instant::now();
    let mut measured = std::thread::scope(|scope| {
        let driver_thread = scope.spawn(|| {
            let mut lane = lane_tracer.as_mut();
            let running = |_| !stop.load(Ordering::SeqCst);
            measure(&mut driver, running, || None, &mut lane, root, trace)
        });
        for tick in 0..ticks {
            let deadline = start + Duration::from_secs_f64(interval * (tick + 1) as f64);
            if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            for &(share, member, mode) in &FAULTS {
                if tick == (share * ticks as f64) as usize {
                    let members = cluster.membership();
                    let node = members[member % members.len()];
                    if cluster.compromise(node, ByzantineMode::Silent) {
                        match mode {
                            IntrusionMode::Compromise => compromised.insert(node),
                            IntrusionMode::Crash => crashed.insert(node),
                        };
                    }
                }
            }
            tick_depths.push(cluster.mailbox_depth() as f64);
            // The IDS: per reporting replica, a batch of weighted alerts
            // drawn from the distribution of its true state.
            let members = cluster.membership();
            let events: Vec<Vec<u64>> = members
                .iter()
                .map(|id| {
                    if crashed.contains(id) {
                        return Vec::new();
                    }
                    let state = if compromised.contains(id) {
                        NodeState::Compromised
                    } else {
                        NodeState::Healthy
                    };
                    (0..scenario.events_per_tick.max(1))
                        .map(|_| alert_model.sample(state, &mut rng))
                        .collect()
                })
                .collect();
            let observations: Vec<(NodeId, NodeReport<'_>)> = members
                .iter()
                .zip(&events)
                .map(|(&id, events)| {
                    if crashed.contains(&id) {
                        (id, NodeReport::Silent)
                    } else {
                        (id, NodeReport::Events(events))
                    }
                })
                .collect();
            control.events_folded += events.iter().map(|e| e.len() as u64).sum::<u64>();
            let mut actuator = TimedActuator {
                cluster: &mut cluster,
                calls: Vec::new(),
            };
            let tick_start = Instant::now();
            let report = plane.tick(&observations, &mut actuator, &mut rng);
            let tick_end = Instant::now();
            let calls = actuator.calls;
            if let Some(t) = tracer.as_deref_mut() {
                let tick_trace = trace | (tick as u64 + 1);
                let span = t.reserve();
                for &(s, e) in &calls {
                    t.record("controlplane.actuate", Some(span), tick_trace, s, e);
                }
                t.record_as(
                    span,
                    "controlplane.tick",
                    root,
                    tick_trace,
                    tick_start,
                    tick_end,
                );
            }
            control.note(tick, &report, &mut compromised, &mut crashed);
        }
        stop.store(true, Ordering::SeqCst);
        driver_thread.join().expect("driver thread panicked")
    });
    measured.depths = tick_depths;
    if let (Some(t), Some(lane), Some(root)) = (tracer, lane_tracer, root) {
        t.absorb(lane);
        t.record_as(
            root,
            "intrusion.round",
            None,
            trace,
            setup_start,
            Instant::now(),
        );
    }
    drop(driver);
    let stats = cluster.stats();
    let snapshots = cluster.shutdown();
    let log = std::mem::take(&mut *log.lock().expect("submit log"));
    let round = LiveRound {
        measured,
        log,
        snapshots,
        traffic: [stats.sent, stats.dropped, 0, 0],
    };
    (round, control)
}
