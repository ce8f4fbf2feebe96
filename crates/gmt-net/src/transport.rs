//! The pluggable transport abstraction.
//!
//! Everything above the wire — the reliability layer, the failure
//! detector, flow control, the aggregation datapath — talks to the
//! network through the object-safe [`Transport`] trait. The in-process
//! simulated fabric ([`Endpoint`]) implements it for tests and
//! experiments — deterministic, fault-injectable, optionally enforcing
//! the network cost model in wall time. The real backends,
//! [`TcpTransport`](crate::TcpTransport) (per-peer streams, one node per
//! OS process) and [`ShmTransport`](crate::ShmTransport) (same-host
//! shared-memory rings), share one implementation in
//! [`crate::framed`].
//!
//! # Contract
//!
//! A `Transport` connects one node to a fixed-size cluster of `nodes()`
//! peers addressed `0..nodes()` (the node's own id included; self-sends
//! loop back through the inbox). The guarantees the upper layers rely on:
//!
//! * **Per-link FIFO**: packets between a given (source, destination)
//!   pair that *are* delivered arrive in send order. The reliability
//!   layer's cumulative acks assume this.
//! * **No delivery guarantee**: `send` returning `Ok` means the packet
//!   was accepted, not that it will arrive. Loss, duplication and delay
//!   are legal (the sim injects them deliberately; TCP loses whole tails
//!   on connection death). `Err` is advisory — a failed send may still
//!   be retried by the caller's retransmit machinery.
//! * **Payload ownership**: `send` consumes the [`Payload`]; its drop —
//!   wherever it happens (receiver, failed send, shutdown drain) —
//!   returns any pooled buffer to its pool exactly once.
//!
//! # Shutdown/drain semantics
//!
//! [`Transport::shutdown`] must be **idempotent** and **bounded-time**:
//! it stops any background receive machinery (joining threads it owns),
//! after which `send` returns [`NetError::Closed`]. Packets already
//! queued in the inbox remain receivable via `try_recv` so a caller can
//! drain them; packets still buffered *below* the inbox (a wire thread's
//! heap, a socket buffer) are either delivered to the inbox or dropped —
//! and a drop must release any pooled buffer. Dropping a transport
//! mid-traffic must therefore neither hang nor leak pooled buffers;
//! `buffer_pools_whole_after_shutdown` (gmt-core) checks exactly this
//! over both backends.
//!
//! What the sim guarantees **beyond** the contract (and the real wires
//! do not): cost-modeled delivery, time-shaping faults, and loss only
//! when a fault plan asks for it. Code must not rely on any of these
//! outside sim-pinned tests.

use crate::doorbell::SharedBell;
use crate::fabric::{Endpoint, NetError, Packet, Tag};
use crate::fault::FaultPlan;
use crate::stats::TrafficStats;
use crate::NodeId;
use std::sync::Arc;
use std::time::Duration;

/// One node's attachment to an interconnect backend. Object-safe so the
/// runtime can hold `Arc<dyn Transport>` and run unchanged over the
/// simulated fabric or real sockets.
pub trait Transport: Send + Sync {
    /// This node's id (MPI rank).
    fn node(&self) -> NodeId;

    /// Number of nodes in the cluster.
    fn nodes(&self) -> usize;

    /// Non-blocking send; consumes the payload (pooled buffers return to
    /// their pool when the last handle drops). Per-link FIFO for
    /// delivered packets; no delivery guarantee (see module docs).
    fn send(&self, dst: NodeId, tag: Tag, payload: crate::Payload) -> Result<(), NetError>;

    /// Non-blocking receive from this node's inbox.
    fn try_recv(&self) -> Option<Packet>;

    /// Blocking receive with timeout.
    fn recv_timeout(&self, timeout: Duration) -> Option<Packet>;

    /// The inbound doorbell: rung whenever a packet becomes receivable
    /// here (see [`crate::doorbell`]). A receiver that polls
    /// [`Transport::try_recv`] parks on it between polls, and may ring
    /// it itself to hand the receiving thread other work.
    fn doorbell(&self) -> SharedBell;

    /// Packets currently queued in the inbox.
    fn pending(&self) -> usize;

    /// Whether the backend can observe that `node` is gone: an explicitly
    /// killed node (a fault plan's stand-in for a fabric link-down
    /// notification) or first-hand connection-loss evidence
    /// ([`Transport::link_down`]). Backends without such a signal return
    /// `false`; the failure detector then relies on retry exhaustion and
    /// heartbeat silence alone.
    fn observed_kill(&self, _node: NodeId) -> bool {
        false
    }

    /// Whether this transport has first-hand evidence that the link to
    /// `node` broke mid-run (see [`crate::framed`]). Distinct from [`Transport::observed_kill`]
    /// (which it implies on backends that report it) so the failure
    /// detector can attribute a death to connection loss rather than an
    /// injected kill. Sticky: once set it stays set. Default `false` for
    /// backends with no connections to lose.
    fn link_down(&self, _node: NodeId) -> bool {
        false
    }

    /// Enables or disables the transport's own warning log lines (e.g.
    /// TCP connection-loss reports naming the peer and the I/O error).
    /// The runtime forwards its `log_net_warnings` config here at boot;
    /// backends with nothing to log ignore it. Default no-op.
    fn set_log_warnings(&self, _on: bool) {}

    /// Traffic counters. For the sim every endpoint shares the fabric's
    /// table; a TCP transport only maintains its own node's row (plus
    /// loopback-mesh siblings sharing one table in-process).
    fn stats(&self) -> &TrafficStats;

    /// Shared handle to the traffic counters (outlives the transport).
    fn stats_arc(&self) -> Arc<TrafficStats>;

    /// Backend-specific counters beyond the shared [`TrafficStats`]
    /// schema, as `(metric name, value)` pairs — e.g. the shm backend's
    /// `net.shm.*` doorbell and ring-occupancy counters. The runtime
    /// folds them into metrics snapshots verbatim. Default: none.
    fn backend_counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Installs a seeded [`FaultPlan`] on this node's send path, where
    /// the backend keeps one per node: the framed core's frame shim
    /// (see [`crate::framed`]). Default: ignored — the sim fabric
    /// installs plans fabric-wide through
    /// [`Fabric::install_faults`](crate::Fabric::install_faults).
    fn install_faults(&self, _plan: FaultPlan) {}

    /// Removes the plan [`Transport::install_faults`] installed.
    fn clear_faults(&self) {}

    /// Stops receive machinery and closes links. Idempotent, bounded-time
    /// (joins only threads the transport owns), releases pooled buffers
    /// it still holds; subsequent sends return [`NetError::Closed`] and
    /// already-queued inbox packets stay receivable. The sim endpoint is
    /// a no-op here — its drain runs in [`Fabric`](crate::Fabric)'s
    /// `Drop`, which honors the same contract.
    fn shutdown(&self) {}
}

impl Transport for Endpoint {
    fn node(&self) -> NodeId {
        Endpoint::node(self)
    }

    fn nodes(&self) -> usize {
        Endpoint::nodes(self)
    }

    fn send(&self, dst: NodeId, tag: Tag, payload: crate::Payload) -> Result<(), NetError> {
        Endpoint::send(self, dst, tag, payload)
    }

    fn try_recv(&self) -> Option<Packet> {
        Endpoint::try_recv(self)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
        Endpoint::recv_timeout(self, timeout)
    }

    fn doorbell(&self) -> SharedBell {
        Endpoint::doorbell(self)
    }

    fn pending(&self) -> usize {
        Endpoint::pending(self)
    }

    fn observed_kill(&self, node: NodeId) -> bool {
        Endpoint::observed_kill(self, node)
    }

    fn stats(&self) -> &TrafficStats {
        Endpoint::stats(self)
    }

    fn stats_arc(&self) -> Arc<TrafficStats> {
        Endpoint::stats_arc(self)
    }
}

/// Which backend a runtime should attach to, resolved from the
/// `GMT_TRANSPORT` environment variable (the CI transport matrix knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportSelect {
    /// The in-process simulated fabric (default).
    Sim,
    /// A TCP mesh over 127.0.0.1, one stream per peer pair.
    TcpLoopback,
    /// Same-host shared-memory rings with a futex doorbell.
    Shm,
}

impl TransportSelect {
    /// Reads `GMT_TRANSPORT`: unset/empty/`sim` → [`Sim`]; `tcp` or
    /// `tcp-loopback` → [`TcpLoopback`]; `shm` → [`Shm`]; anything else
    /// is an error (a typo in a CI matrix must fail loudly, not
    /// silently run sim).
    ///
    /// [`Sim`]: TransportSelect::Sim
    /// [`TcpLoopback`]: TransportSelect::TcpLoopback
    /// [`Shm`]: TransportSelect::Shm
    pub fn from_env() -> Result<TransportSelect, String> {
        match std::env::var("GMT_TRANSPORT") {
            Err(_) => Ok(TransportSelect::Sim),
            Ok(v) => match v.as_str() {
                "" | "sim" => Ok(TransportSelect::Sim),
                "tcp" | "tcp-loopback" => Ok(TransportSelect::TcpLoopback),
                "shm" => Ok(TransportSelect::Shm),
                other => Err(format!(
                    "GMT_TRANSPORT={other:?} is not a transport (expected sim, tcp, \
                     tcp-loopback or shm)"
                )),
            },
        }
    }
}
