//! Real-socket transport: MinBFT over loopback/LAN TCP.
//!
//! The third [`Transport`] implementation. Where [`crate::net::SimNetwork`]
//! is deterministic simulation and [`crate::transport::ThreadedTransport`]
//! is in-process channels, a [`SocketTransport`] puts every replica behind
//! a real `TcpListener`, serializes every message through the
//! [`crate::wire`] codec, and pays serialization plus kernel round trips —
//! so a cluster runs as N separate OS processes (see the `minbft-node`
//! binary) and the throughput numbers include the costs the in-process
//! transports skip.
//!
//! Architecture (per process):
//!
//! * **Listener thread** — accepts inbound connections and spawns one
//!   *reader thread* per connection. Readers decode length-prefixed frames
//!   ([`crate::wire`]) and deliver them to the local node mailboxes; the
//!   first malformed frame drops the connection (counted, never a panic).
//! * **Per-peer writer threads** — each remote peer added via
//!   [`SocketTransport::add_peer`] gets a bounded outbound queue and a
//!   writer thread that owns the outbound `TcpStream`. A full queue drops
//!   the message (backpressure surfaces as loss, exactly like the other
//!   transports); a broken connection is re-dialed on the next send
//!   (reconnect-on-drop), so a restarted peer becomes reachable again
//!   without any bookkeeping by the protocol layer.
//! * **Local mailboxes** — nodes living in this process (replica threads,
//!   client driver pools) register bounded in-process mailboxes, exactly
//!   like the threaded transport; a send to a local node skips TCP.
//!
//! The peer directory is live: [`SocketTransport::add_peer`] /
//! [`SocketTransport::remove_peer`] register and unregister peers while
//! the cluster runs, which is what JOIN/EVICT need across processes.

use crate::crypto::{KeyDirectory, KeyPair};
use crate::minbft::{ControlMessage, Message, ProtocolParams, Replica};
use crate::net::Delivery;
use crate::threaded::{replica_main, ReplicaSnapshot, ThreadedServiceConfig};
use crate::transport::{Transport, TransportStats, WallClock};
use crate::wire::{decode_frame_body, encode_frame, frame_body_len};
use crate::NodeId;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a writer thread backs off after a failed dial before the next
/// outbound frame retries the connection. Long enough not to spin against a
/// dead peer, short enough that a restarted replica is reachable again well
/// under any protocol timeout.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(50);

/// Traffic and robustness counters of a [`SocketTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SocketStats {
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages dropped: unknown recipient, full outbound queue, or full
    /// local mailbox.
    pub dropped: u64,
    /// Inbound connections dropped because a frame failed to decode.
    pub decode_errors: u64,
    /// Outbound re-dials after a broken or refused connection.
    pub reconnects: u64,
}

#[derive(Debug, Default)]
struct Counters {
    sent: AtomicU64,
    dropped: AtomicU64,
    decode_errors: AtomicU64,
    reconnects: AtomicU64,
}

/// One remote peer: the bounded queue its writer thread drains.
struct PeerQueue {
    queue: SyncSender<Vec<u8>>,
    thread: JoinHandle<()>,
}

/// State shared between the hub, its handles, and the I/O threads.
struct Shared {
    /// Local in-process mailboxes (replica threads, client pools).
    locals: RwLock<HashMap<NodeId, SyncSender<Delivery<Message>>>>,
    /// Remote peers, keyed by node id.
    peers: RwLock<HashMap<NodeId, PeerQueue>>,
    counters: Counters,
    start: Instant,
    capacity: usize,
    shutdown: AtomicBool,
}

impl Shared {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Delivers a decoded message to a local mailbox (drop-counted).
    fn deliver_local(&self, from: NodeId, to: NodeId, message: Message) {
        let locals = self.locals.read().expect("locals lock");
        let Some(sender) = locals.get(&to) else {
            drop(locals);
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let delivery = Delivery {
            time: self.now(),
            from,
            to,
            message,
        };
        if sender.try_send(delivery).is_err() {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A TCP socket transport hub: one listener for this process's nodes, a
/// live directory of remote peers, and in-process mailboxes for local
/// nodes. Handles ([`SocketHandle`]) implement [`Transport`] +
/// [`WallClock`] and can be moved into replica/client threads.
pub struct SocketTransport {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    listener_thread: Option<JoinHandle<()>>,
}

impl SocketTransport {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port) and
    /// starts the accept thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: &str, capacity: usize) -> std::io::Result<Self> {
        assert!(capacity > 0, "queue capacity must be positive");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            locals: RwLock::new(HashMap::new()),
            peers: RwLock::new(HashMap::new()),
            counters: Counters::default(),
            start: Instant::now(),
            capacity,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let listener_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(SocketTransport {
            shared,
            local_addr,
            listener_thread: Some(listener_thread),
        })
    }

    /// The bound listener address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers a local node and returns its mailbox. Live, like the
    /// threaded transport: peers can reach the node as soon as this
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered.
    pub fn register(&mut self, node: NodeId) -> Receiver<Delivery<Message>> {
        let (sender, receiver) = sync_channel(self.shared.capacity);
        let mut locals = self.shared.locals.write().expect("locals lock");
        let previous = locals.insert(node, sender);
        assert!(previous.is_none(), "node {node} registered twice");
        receiver
    }

    /// Registers several local nodes onto one shared mailbox (a client
    /// driver pool).
    ///
    /// # Panics
    ///
    /// Panics if any node is already registered.
    pub fn register_shared(&mut self, nodes: &[NodeId]) -> Receiver<Delivery<Message>> {
        let (sender, receiver) = sync_channel(self.shared.capacity);
        let mut locals = self.shared.locals.write().expect("locals lock");
        for &node in nodes {
            let previous = locals.insert(node, sender.clone());
            assert!(previous.is_none(), "node {node} registered twice");
        }
        receiver
    }

    /// Unregisters a local node: subsequent deliveries count as drops.
    pub fn unregister(&mut self, node: NodeId) -> bool {
        let mut locals = self.shared.locals.write().expect("locals lock");
        locals.remove(&node).is_some()
    }

    /// Adds (or re-addresses) a remote peer: spawns a writer thread with a
    /// bounded outbound queue that dials `addr` lazily and re-dials after
    /// drops. Live — existing handles reach the peer immediately. The
    /// JOIN hook across processes.
    pub fn add_peer(&mut self, node: NodeId, addr: SocketAddr) {
        let (queue, rx) = sync_channel::<Vec<u8>>(self.shared.capacity);
        let writer_shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || writer_loop(addr, rx, writer_shared));
        let mut peers = self.shared.peers.write().expect("peers lock");
        if let Some(previous) = peers.insert(node, PeerQueue { queue, thread }) {
            // Dropping the queue disconnects the old writer's receiver; the
            // thread exits on its next poll. Detach rather than join (the
            // lock is held).
            drop(previous.queue);
            drop(previous.thread);
        }
    }

    /// Removes a remote peer; its writer thread drains and exits. The EVICT
    /// hook across processes. Returns whether the peer existed.
    pub fn remove_peer(&mut self, node: NodeId) -> bool {
        let mut peers = self.shared.peers.write().expect("peers lock");
        match peers.remove(&node) {
            Some(peer) => {
                drop(peer.queue);
                drop(peer.thread);
                true
            }
            None => false,
        }
    }

    /// A clonable sender handle (implements [`Transport`] + [`WallClock`]).
    pub fn handle(&self) -> SocketHandle {
        SocketHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Traffic and robustness counters.
    pub fn stats(&self) -> SocketStats {
        SocketStats {
            sent: self.shared.counters.sent.load(Ordering::Relaxed),
            dropped: self.shared.counters.dropped.load(Ordering::Relaxed),
            decode_errors: self.shared.counters.decode_errors.load(Ordering::Relaxed),
            reconnects: self.shared.counters.reconnects.load(Ordering::Relaxed),
        }
    }

    /// The `sent`/`dropped` counters in the shape the threaded service
    /// reports use.
    pub fn transport_stats(&self) -> TransportStats {
        let stats = self.stats();
        TransportStats {
            sent: stats.sent,
            dropped: stats.dropped,
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Wake the accept loop so it observes the flag: connect once to our
        // own listener (errors are irrelevant — the thread also exits if
        // the listener broke).
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        if let Some(thread) = self.listener_thread.take() {
            let _ = thread.join();
        }
        // Writer threads exit when their queues disconnect.
        self.shared.peers.write().expect("peers lock").clear();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let reader_shared = Arc::clone(&shared);
        std::thread::spawn(move || reader_loop(stream, reader_shared));
    }
}

/// Reads length-prefixed frames off one inbound connection until EOF, an
/// I/O error, or the first malformed frame (which is counted and drops the
/// connection — a misbehaving peer cannot make us panic or allocate
/// unboundedly, see [`crate::wire`]).
fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let mut prefix = [0u8; 4];
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if stream.read_exact(&mut prefix).is_err() {
            return; // EOF or broken connection: peer went away.
        }
        let body_len = match frame_body_len(prefix) {
            Ok(len) => len,
            Err(_) => {
                shared
                    .counters
                    .decode_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let mut body = vec![0u8; body_len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        match decode_frame_body(&body) {
            Ok((from, to, message)) => shared.deliver_local(from, to, message),
            Err(_) => {
                shared
                    .counters
                    .decode_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Owns one peer's outbound connection: drains the bounded queue, dialing
/// (and after failures re-dialing) the peer as needed. Exits when the queue
/// disconnects (peer removed / transport dropped).
fn writer_loop(addr: SocketAddr, queue: Receiver<Vec<u8>>, shared: Arc<Shared>) {
    let mut stream: Option<TcpStream> = None;
    let mut ever_connected = false;
    loop {
        let frame = match queue.recv_timeout(Duration::from_millis(100)) {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // One reconnect attempt per frame: a frame that cannot be written
        // is dropped (loss, like every transport here), but the connection
        // is re-established for the ones that follow.
        if stream.is_none() {
            match TcpStream::connect(addr) {
                Ok(fresh) => {
                    let _ = fresh.set_nodelay(true);
                    if ever_connected {
                        shared.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    ever_connected = true;
                    stream = Some(fresh);
                }
                Err(_) => {
                    shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(RECONNECT_BACKOFF);
                    continue;
                }
            }
        }
        if let Some(connection) = stream.as_mut() {
            if connection.write_all(&frame).is_err() {
                // Broken pipe: drop this frame, re-dial on the next one.
                stream = None;
                shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A clonable sender handle of a [`SocketTransport`].
#[derive(Clone)]
pub struct SocketHandle {
    shared: Arc<Shared>,
}

impl WallClock for SocketHandle {
    fn now(&self) -> f64 {
        self.shared.now()
    }
}

impl Transport<Message> for SocketHandle {
    fn send(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.shared.counters.sent.fetch_add(1, Ordering::Relaxed);
        // Local nodes (same process) skip TCP entirely.
        {
            let locals = self.shared.locals.read().expect("locals lock");
            if let Some(sender) = locals.get(&to) {
                let delivery = Delivery {
                    time: self.shared.now(),
                    from,
                    to,
                    message,
                };
                if sender.try_send(delivery).is_err() {
                    self.shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
        let frame = encode_frame(from, to, &message);
        let peers = self.shared.peers.read().expect("peers lock");
        let Some(peer) = peers.get(&to) else {
            drop(peers);
            self.shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match peer.queue.try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A socket-backed replica node: the building block of multi-process
// clusters (used by the `minbft-node` binary and the in-process tests).
// ---------------------------------------------------------------------------

/// One MinBFT replica served over its own [`SocketTransport`]: the unit a
/// `minbft-node` process runs. Peers (other replicas, the client process)
/// are added by address; the replica thread is the same
/// [`crate::threaded`] event loop the in-process service runs.
pub struct SocketReplicaNode {
    transport: SocketTransport,
    id: NodeId,
    config: ThreadedServiceConfig,
    membership: Vec<NodeId>,
    mailbox: Option<Receiver<Delivery<Message>>>,
    control: SyncSender<ControlMessage>,
    control_rx: Option<Receiver<ControlMessage>>,
    stop: Arc<AtomicBool>,
    tuning: Option<Arc<crate::metrics::SharedTuning>>,
}

impl SocketReplicaNode {
    /// Binds the replica's listener (`addr`; port 0 for ephemeral) and
    /// registers its mailbox. `membership` is the full initial replica set
    /// (including `id`).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    ///
    /// # Panics
    ///
    /// Panics if `membership` does not contain `id`.
    pub fn bind(
        id: NodeId,
        membership: Vec<NodeId>,
        addr: &str,
        config: &ThreadedServiceConfig,
    ) -> std::io::Result<Self> {
        assert!(membership.contains(&id), "member {id} not in membership");
        let mut transport = SocketTransport::bind(addr, config.channel_capacity)?;
        let mailbox = transport.register(id);
        let (control, control_rx) = sync_channel(64);
        Ok(SocketReplicaNode {
            transport,
            id,
            config: *config,
            membership,
            mailbox: Some(mailbox),
            control,
            control_rx: Some(control_rx),
            stop: Arc::new(AtomicBool::new(false)),
            tuning: None,
        })
    }

    /// Attaches shared tuning state: the replica loop re-reads the batch
    /// knobs from it every iteration, so a per-process autotune loop (fed
    /// by this node's metrics) actuates the socket plane the same way the
    /// in-process threaded cluster is actuated. Call before
    /// [`SocketReplicaNode::run`].
    pub fn set_tuning(&mut self, tuning: Arc<crate::metrics::SharedTuning>) {
        self.tuning = Some(tuning);
    }

    /// The listener address peers should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Registers a peer (replica or client pool) by address.
    pub fn add_peer(&mut self, node: NodeId, addr: SocketAddr) {
        self.transport.add_peer(node, addr);
    }

    /// The trusted control channel into the replica (recover, reconfigure,
    /// compromise) — the privileged-domain link, delivered reliably.
    pub fn control_sender(&self) -> SyncSender<ControlMessage> {
        self.control.clone()
    }

    /// The stop flag: setting it makes [`SocketReplicaNode::run`] return
    /// after its next poll.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Traffic counters.
    pub fn stats(&self) -> SocketStats {
        self.transport.stats()
    }

    /// Runs the replica event loop on the current thread until the stop
    /// flag is set (or the replica is evicted), and returns the shutdown
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if called twice (the mailbox is consumed by the first run).
    pub fn run(&mut self) -> ReplicaSnapshot {
        let mailbox = self.mailbox.take().expect("run consumed the mailbox");
        let control_rx = self
            .control_rx
            .take()
            .expect("run consumed the control channel");
        let mut directory = KeyDirectory::new();
        for &member in &self.membership {
            directory.register(&KeyPair::derive(member, self.config.seed));
        }
        let replica = Replica::new(
            self.id,
            self.membership.clone(),
            directory,
            self.config.seed,
        );
        let params = ProtocolParams {
            f: crate::hybrid_fault_threshold(self.membership.len(), 0),
            checkpoint_period: self.config.checkpoint_period,
            batch_size: self.config.batch_size.max(1),
            batch_delay: self.config.batch_delay,
            pipeline_window: self.config.pipeline_window,
            // One recovery in flight at a time, as on the threaded plane.
            recoveries: 1,
        };
        replica_main(
            replica,
            mailbox,
            control_rx,
            self.transport.handle(),
            params,
            self.config.request_timeout,
            self.config.signature_time,
            Arc::clone(&self.stop),
            Arc::new(AtomicBool::new(false)),
            self.tuning.clone(),
        )
    }
}

/// Runs the full service — replicas and clients — inside this process, but
/// with every replica behind its own [`SocketTransport`], so all protocol
/// traffic pays wire encoding plus real loopback TCP. The socket
/// counterpart of [`crate::threaded::run_threaded_service`], measured by
/// the throughput bench as the socket-vs-channel axis.
///
/// # Panics
///
/// Panics when a listener cannot bind or a replica thread dies.
pub fn run_socket_service(
    config: &ThreadedServiceConfig,
) -> crate::threaded::ThreadedServiceReport {
    use crate::threaded::{snapshots_consistent, ClientDriver, MembershipView};
    use crate::workload::OpStream;

    let membership: Vec<NodeId> = (0..config.replicas as NodeId).collect();
    let mut nodes: Vec<SocketReplicaNode> = membership
        .iter()
        .map(|&id| {
            SocketReplicaNode::bind(id, membership.clone(), "127.0.0.1:0", config)
                .expect("bind replica listener")
        })
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(SocketReplicaNode::local_addr).collect();

    let mut hub = SocketTransport::bind("127.0.0.1:0", config.channel_capacity)
        .expect("bind client hub listener");
    let client_ids: Vec<NodeId> = (0..config.clients)
        .map(|i| crate::minbft::CLIENT_ID_BASE + i as NodeId)
        .collect();
    let mailbox = hub.register_shared(&client_ids);
    let hub_addr = hub.local_addr();

    for (i, node) in nodes.iter_mut().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                node.add_peer(j as NodeId, addr);
            }
        }
        for &client in &client_ids {
            node.add_peer(client, hub_addr);
        }
    }
    for (j, &addr) in addrs.iter().enumerate() {
        hub.add_peer(j as NodeId, addr);
    }

    let stops: Vec<Arc<AtomicBool>> = nodes.iter().map(SocketReplicaNode::stop_flag).collect();
    let workers: Vec<JoinHandle<(ReplicaSnapshot, SocketStats)>> = nodes
        .into_iter()
        .map(|mut node| {
            std::thread::spawn(move || {
                let snapshot = node.run();
                (snapshot, node.stats())
            })
        })
        .collect();

    let streams: Vec<OpStream> = (0..config.clients)
        .map(|i| {
            OpStream::new(
                config.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                config.key_space,
                config.write_ratio,
            )
        })
        .collect();
    let mut driver = ClientDriver::over_transport(
        hub.handle(),
        mailbox,
        MembershipView::fixed(membership),
        streams,
        config.request_timeout,
    );
    let start = Instant::now();
    driver.run_for(config.duration);
    let duration = start.elapsed().as_secs_f64();
    driver.drain(10.0);
    let report = driver.report();

    for stop in &stops {
        stop.store(true, Ordering::Relaxed);
    }
    let mut snapshots = Vec::new();
    let mut sent = 0u64;
    let mut dropped = 0u64;
    for worker in workers {
        let (snapshot, stats) = worker.join().expect("replica thread");
        snapshots.push(snapshot);
        sent += stats.sent;
        dropped += stats.dropped;
    }
    let hub_stats = hub.stats();
    sent += hub_stats.sent;
    dropped += hub_stats.dropped;

    crate::threaded::ThreadedServiceReport {
        replicas: config.replicas,
        clients: config.clients,
        completed_requests: report.completed,
        duration,
        requests_per_second: report.completed as f64 / duration.max(1e-9),
        mean_latency: report.mean_latency(),
        consistent: snapshots_consistent(&snapshots),
        max_retained_log: snapshots
            .iter()
            .map(|s| s.executed.len())
            .max()
            .unwrap_or(0),
        max_executed: snapshots.iter().map(|s| s.last_executed).max().unwrap_or(0),
        transport: TransportStats { sent, dropped },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::{snapshots_consistent, ClientDriver, MembershipView};
    use crate::workload::OpStream;

    fn loopback(capacity: usize) -> SocketTransport {
        SocketTransport::bind("127.0.0.1:0", capacity).expect("bind loopback")
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let mut a = loopback(64);
        let mut b = loopback(64);
        let rx = b.register(1);
        a.add_peer(1, b.local_addr());
        let mut handle = a.handle();
        let message = Message::Reply {
            request_id: 7,
            value: 9,
            sequence: 3,
        };
        handle.send(0, 1, message.clone());
        let delivery = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(delivery.from, 0);
        assert_eq!(delivery.to, 1);
        assert_eq!(delivery.message, message);
        assert_eq!(a.stats().sent, 1);
    }

    #[test]
    fn local_nodes_bypass_tcp() {
        let mut hub = loopback(8);
        let rx = hub.register(5);
        let mut handle = hub.handle();
        handle.send(2, 5, Message::StateRequest { epoch: 0 });
        let delivery = rx.recv_timeout(Duration::from_secs(1)).expect("delivered");
        assert_eq!(delivery.to, 5);
    }

    #[test]
    fn unknown_peers_and_full_queues_count_as_drops() {
        let hub = loopback(1);
        let mut handle = hub.handle();
        handle.send(0, 99, Message::StateRequest { epoch: 0 });
        assert_eq!(hub.stats().dropped, 1, "unknown recipient drops");
    }

    #[test]
    fn malformed_frames_drop_the_connection_not_the_process() {
        let mut hub = loopback(8);
        let rx = hub.register(1);
        let addr = hub.local_addr();

        // A frame announcing an absurd length: rejected on the prefix.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&(u32::MAX).to_le_bytes())
            .expect("write prefix");
        // The transport closes the connection; our next read sees EOF.
        let mut buf = [0u8; 1];
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection closed");

        // Garbage payload under a plausible length: rejected by the decoder.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut frame = Vec::new();
        frame.extend_from_slice(&12u32.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes()); // from
        frame.extend_from_slice(&1u32.to_le_bytes()); // to
        frame.extend_from_slice(&[0xff; 4]); // no message variant
        stream.write_all(&frame).expect("write frame");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "connection closed");

        // A valid frame on a fresh connection still goes through: the hub
        // survived both attacks.
        let mut sender = loopback(8);
        sender.add_peer(1, addr);
        sender
            .handle()
            .send(0, 1, Message::StateRequest { epoch: 3 });
        let delivery = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(delivery.message, Message::StateRequest { epoch: 3 });
        // Both malformed connections were counted.
        let stats = hub.stats();
        assert_eq!(stats.decode_errors, 2);
    }

    #[test]
    fn writers_reconnect_after_the_peer_restarts() {
        let mut sender = loopback(8);
        // First incarnation of the peer.
        let mut first = loopback(8);
        let rx1 = first.register(1);
        let addr = first.local_addr();
        sender.add_peer(1, addr);
        let mut handle = sender.handle();
        handle.send(0, 1, Message::StateRequest { epoch: 1 });
        assert!(rx1.recv_timeout(Duration::from_secs(5)).is_ok());
        let port = addr.port();
        drop(first); // peer process "crashes"

        // Sends while the peer is down are dropped, not wedged.
        handle.send(0, 1, Message::StateRequest { epoch: 2 });

        // Peer restarts on the same port (retry briefly: the OS may lag
        // releasing it).
        let mut second = None;
        for _ in 0..100 {
            match SocketTransport::bind(&format!("127.0.0.1:{port}"), 8) {
                Ok(transport) => {
                    second = Some(transport);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut second = second.expect("rebind the port");
        let rx2 = second.register(1);
        // Keep sending until the writer re-dials successfully.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline {
            handle.send(0, 1, Message::StateRequest { epoch: 3 });
            if rx2.recv_timeout(Duration::from_millis(100)).is_ok() {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "writer reconnected to the restarted peer");
    }

    #[test]
    fn live_peer_removal_turns_sends_into_drops() {
        let mut sender = loopback(8);
        let mut receiver = loopback(8);
        let _rx = receiver.register(1);
        sender.add_peer(1, receiver.local_addr());
        assert!(sender.remove_peer(1));
        assert!(!sender.remove_peer(1));
        let before = sender.stats().dropped;
        sender
            .handle()
            .send(0, 1, Message::StateRequest { epoch: 0 });
        assert_eq!(sender.stats().dropped, before + 1);
    }

    /// A full 4-replica MinBFT cluster, each replica on its own socket
    /// transport (own listener, own port), clients on a fifth — all in one
    /// process, but every protocol message crosses a real TCP socket. The
    /// in-process rehearsal of the multi-process binary.
    #[test]
    fn four_replica_cluster_over_loopback_sockets_serves_clients() {
        let config = ThreadedServiceConfig {
            replicas: 4,
            clients: 4,
            batch_size: 4,
            batch_delay: 0.002,
            pipeline_window: 4,
            // Compaction off: the retained log is the complete execution
            // history, so the drain invariant can count every digest.
            checkpoint_period: 0,
            duration: 0.4,
            request_timeout: 2.0,
            ..Default::default()
        };
        let membership: Vec<NodeId> = (0..4).collect();
        let mut nodes: Vec<SocketReplicaNode> = membership
            .iter()
            .map(|&id| {
                SocketReplicaNode::bind(id, membership.clone(), "127.0.0.1:0", &config)
                    .expect("bind replica")
            })
            .collect();
        let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.local_addr()).collect();

        // Client pool on its own transport.
        let mut client_hub = loopback(config.channel_capacity);
        let client_ids: Vec<NodeId> = (0..config.clients)
            .map(|i| crate::minbft::CLIENT_ID_BASE + i as NodeId)
            .collect();
        let client_mailbox = client_hub.register_shared(&client_ids);
        let client_addr = client_hub.local_addr();

        // Full mesh: every replica dials every other replica and the client
        // hub; the client hub dials every replica.
        for (i, node) in nodes.iter_mut().enumerate() {
            for (j, &addr) in addrs.iter().enumerate() {
                if i != j {
                    node.add_peer(j as NodeId, addr);
                }
            }
            for &client in &client_ids {
                node.add_peer(client, client_addr);
            }
        }
        for (j, &addr) in addrs.iter().enumerate() {
            client_hub.add_peer(j as NodeId, addr);
        }

        let stops: Vec<Arc<AtomicBool>> = nodes.iter().map(|n| n.stop_flag()).collect();
        let handles: Vec<JoinHandle<ReplicaSnapshot>> = nodes
            .into_iter()
            .map(|mut node| std::thread::spawn(move || node.run()))
            .collect();

        let streams: Vec<OpStream> = (0..config.clients)
            .map(|i| OpStream::new(config.seed ^ i as u64, config.key_space, config.write_ratio))
            .collect();
        let mut driver = ClientDriver::over_transport(
            client_hub.handle(),
            client_mailbox,
            MembershipView::fixed(membership.clone()),
            streams,
            config.request_timeout,
        );
        driver.run_for(config.duration);
        assert!(driver.drain(10.0), "every in-flight request completed");
        let report = driver.report();
        assert!(
            report.completed > 0,
            "clients completed requests over TCP: {report:?}"
        );

        // Let the last commit round settle across all replicas before the
        // snapshot (replies precede peer commits by one message).
        std::thread::sleep(Duration::from_millis(200));
        for stop in &stops {
            stop.store(true, Ordering::Relaxed);
        }
        let snapshots: Vec<ReplicaSnapshot> = handles
            .into_iter()
            .map(|h| h.join().expect("replica thread"))
            .collect();
        assert!(snapshots_consistent(&snapshots), "logs agree");

        // Drain invariant: every completed request appears exactly once in
        // the longest covering log.
        let longest = snapshots
            .iter()
            .max_by_key(|s| s.log_start + s.executed.len() as u64)
            .expect("snapshots");
        for digest in &report.completed_digests {
            let occurrences = longest.executed.iter().filter(|&d| d == digest).count();
            assert_eq!(occurrences, 1, "digest {digest:?} appears exactly once");
        }
    }
}
