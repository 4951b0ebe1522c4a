//! The online two-level control plane: one runtime, two transports.
//!
//! Until PR 4, the paper's feedback controllers
//! ([`crate::controller::NodeController`] per replica,
//! [`crate::controller::SystemController`] globally) only steered the
//! *simulated* cluster inside the simnet harness, while the fast threaded
//! data plane ran uncontrolled. This module closes the loop on the live
//! service:
//!
//! * [`actuator::ClusterActuator`] — the unified actuation interface of
//!   both control levels: per-node **recovery** (restart + state transfer)
//!   and system-level **JOIN/EVICT** reconfiguration. Implemented by the
//!   simulated [`tolerance_consensus::MinBftCluster`] (direct method calls,
//!   deterministic, oracle-checked by simnet) and by the live
//!   [`tolerance_consensus::ThreadedCluster`] (control messages on the
//!   transport, wall-clock).
//! * [`runtime::ControlPlane`] — the transport-agnostic control runtime:
//!   per-replica belief tracking (single alert samples or whole IDS event
//!   streams through the incremental tracker of
//!   [`tolerance_pomdp::IncrementalBelief`]), the k-parallel-recovery
//!   constraint of Proposition 1, and the Algorithm-2 replication decision,
//!   all actuated through whichever [`actuator::ClusterActuator`] is
//!   plugged in. The simnet executors drive the *same* tick as the live
//!   threaded scenario. One plane also steers a sharded fleet: per-shard
//!   node controllers compete for one **global** recovery budget `k`
//!   (priority by deciding belief across shards), and one system
//!   controller evicts crashed replicas wherever they live and allocates
//!   JOIN spares to the neediest shard.
//! * [`scenario::ControlledServiceScenario`] — the `controlled/*` registry
//!   scenarios: a threaded MinBFT service under a scripted intrusion burst
//!   with the control plane closing the loop live, plus the simnet twin
//!   that passes the full oracle suite.
//! * [`autotune::AutotuneController`] — the *third* feedback loop, on the
//!   data plane itself: AIMD on leader batching and client concurrency
//!   (re-clamped online through the batch-fragmentation floor), retry
//!   budgets against retransmit storms, and mailbox-depth backpressure
//!   deciding admission. Deterministic per-window ticks in simnet, a real
//!   [`autotune::AutotuneLoop`] thread on the live planes.

pub mod actuator;
pub mod autotune;
pub mod runtime;
pub mod scenario;

pub use actuator::ClusterActuator;
pub use autotune::{
    Admission, AutotuneConfig, AutotuneController, AutotuneDecision, AutotuneLoop,
    AutotuneObservation,
};
pub use runtime::{ControlPlane, ControlPlaneConfig, NodeReport, TickReport};
pub use scenario::{
    register_controlled_scenarios, run_controlled_service, sim_intrusion_burst_config,
    ControlledServiceConfig, ControlledServiceReport, ControlledServiceScenario, IntrusionEvent,
    IntrusionMode,
};
