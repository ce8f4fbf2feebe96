//! Node bring-up, thread specialization and the cluster facade.
//!
//! "Each node executes an instance of GMT, and the various instances
//! communicate through commands" (§IV-A). A [`Cluster`] hosts all node
//! instances in one process, wired through a pluggable
//! [`gmt_net::Transport`] backend — the simulated [`gmt_net::Fabric`]
//! (default; deterministic, fault-injectable) or a TCP loopback mesh
//! (`GMT_TRANSPORT=tcp-loopback`). A [`NodeRuntime`] is the
//! multi-process shape: one node per OS process over a transport built
//! by [`gmt_net::connect`], booted by `gmt-launch`. Either way,
//! every node runs its configured worker threads, helper threads and
//! the single communication server, exactly as in Figure 1.

use crate::aggregation::{AggShared, AggStats};
use crate::commserver;
use crate::config::Config;
use crate::helper;
use crate::metrics::{NodeMetrics, ThreadTracer};
use crate::task::{Itb, ReadyQueue, RootTask, TaskControl};
use crate::worker;
use crate::{memory::NodeMemory, NodeId};
use crossbeam::queue::SegQueue;
use gmt_metrics::MetricsSnapshot;
use gmt_net::{
    loopback_mesh, shm_mesh, DeliveryMode, Doorbell, Fabric, FaultPlan, Payload, TrafficStats,
    Transport, TransportSelect,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// One node's view of cluster membership: per-peer death flags plus a
/// monotonic **epoch** counting confirmed deaths. Because every death is
/// disseminated until all survivors confirm it, converged dead sets imply
/// converged epochs — comparing a stored epoch against the current one is
/// a constant-time "has anybody died since?" check, which is how barriers
/// avoid hanging on dead participants.
#[derive(Debug)]
pub struct Membership {
    dead: Vec<AtomicBool>,
    epoch: AtomicU64,
}

/// A consistent point-in-time membership view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Deaths confirmed so far (monotonic).
    pub epoch: u64,
    /// The confirmed-dead node ids, ascending.
    pub dead: Vec<NodeId>,
}

impl Membership {
    fn new(nodes: usize) -> Self {
        Membership {
            dead: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Whether `node` is confirmed dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead[node].load(Ordering::Acquire)
    }

    /// Marks `node` dead; returns `true` (and bumps the epoch) only on the
    /// first confirmation. The flag is set before the epoch moves, so a
    /// reader that observes the new epoch also observes the death.
    pub(crate) fn mark_dead(&self, node: NodeId) -> bool {
        if !self.dead[node].swap(true, Ordering::AcqRel) {
            self.epoch.fetch_add(1, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Deaths confirmed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Confirmed-dead node ids, ascending.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        (0..self.dead.len()).filter(|&n| self.is_dead(n)).collect()
    }

    /// A consistent snapshot: the epoch is re-read after collecting the
    /// dead set and the collection retried if a death landed in between.
    pub fn view(&self) -> MembershipView {
        loop {
            let epoch = self.epoch();
            let dead = self.dead_nodes();
            if self.epoch() == epoch {
                return MembershipView { epoch, dead };
            }
        }
    }
}

/// Registry of remote operations awaiting an application-level completion
/// (a reply or ack command), keyed by `(token, destination)` with a
/// multiplicity — one task reuses one token value for all of its
/// concurrent operations.
///
/// This is the communication server's handle for *error-completing*
/// operations toward a peer confirmed dead. Transport-level tracking (the
/// reliable link's unacked queue) cannot cover an operation whose request
/// was delivered and transport-acked but whose application reply died
/// with the peer — a `Spawn` awaiting its remote iteration block, a `Get`
/// whose answer was in flight. So every request registers here at emit
/// time and is acquitted by the helper that processes its completion;
/// whatever is still registered toward a peer when its death is confirmed
/// fails with `RemoteDead`. Sharded by token to keep the hot path
/// (one register + one acquit per remote operation) off a single lock.
pub(crate) struct OutstandingOps {
    shards: Vec<Mutex<HashMap<(u64, NodeId), u32>>>,
}

impl OutstandingOps {
    const SHARDS: usize = 16;

    fn new() -> Self {
        OutstandingOps { shards: (0..Self::SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard(&self, token: u64) -> &Mutex<HashMap<(u64, NodeId), u32>> {
        // Tokens are `Arc` pointers: shift out the alignment bits before
        // folding into a shard index.
        &self.shards[((token >> 4) as usize) & (Self::SHARDS - 1)]
    }

    /// Records one emitted operation toward `dst` awaiting completion.
    pub fn register(&self, token: u64, dst: NodeId) {
        *self.shard(token).lock().entry((token, dst)).or_insert(0) += 1;
    }

    /// Removes one registered operation on receipt of its completion from
    /// `src`. Returns `false` if the entry was already taken — the death
    /// sweep error-completed the token first, so the caller must neither
    /// complete it again nor apply the reply's data.
    pub fn acquit(&self, token: u64, src: NodeId) -> bool {
        let mut map = self.shard(token).lock();
        match map.get_mut(&(token, src)) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    map.remove(&(token, src));
                }
                true
            }
            None => false,
        }
    }

    /// Removes up to `n` registered operations for `(token, src)` at once
    /// (vectorized ack path). Returns how many were actually acquitted —
    /// fewer than `n` means the death sweep already error-completed the
    /// rest, and the caller must only complete the returned count.
    pub fn acquit_n(&self, token: u64, src: NodeId, n: u32) -> u32 {
        if n == 0 {
            return 0;
        }
        let mut map = self.shard(token).lock();
        match map.get_mut(&(token, src)) {
            Some(have) => {
                let taken = n.min(*have);
                *have -= taken;
                if *have == 0 {
                    map.remove(&(token, src));
                }
                taken
            }
            None => 0,
        }
    }

    /// Removes every operation toward `peer`, returning `(token,
    /// multiplicity)` pairs for the caller to error-complete.
    pub fn drain_peer(&self, peer: NodeId) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.lock().retain(|&(token, dst), count| {
                if dst == peer {
                    out.push((token, *count));
                    false
                } else {
                    true
                }
            });
        }
        out
    }
}

impl std::fmt::Debug for OutstandingOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutstandingOps").finish()
    }
}

/// State shared by every node of one cluster.
#[derive(Debug)]
pub struct ClusterShared {
    /// Allocation-id source. The real GMT derives unique ids from a
    /// collective allocation protocol; a counter is the local
    /// equivalent. Minting steps by [`alloc_stride`](Self::alloc_stride)
    /// so multi-process nodes (which cannot share one counter) carve
    /// disjoint, interleaved id sequences: node `k` of `N` starts at
    /// `k + 1` and steps by `N`. Ids stay *dense* either way —
    /// `NodeMemory`'s two-level segment table indexes by id and caps out
    /// at a few million, so high-bit namespacing is not an option.
    pub next_alloc_id: AtomicU64,
    /// Step between consecutive ids minted by this runtime instance:
    /// `1` in-process (one shared counter), the cluster size when each
    /// node is its own process.
    pub alloc_stride: u64,
    /// True when peers live in **other OS processes** (`NodeRuntime` /
    /// gmt-launch). Spawn commands then ship parFor bodies by value —
    /// vtable offset plus captured bytes ([`ParForBody::to_wire_bytes`])
    /// — instead of the in-process `Arc` pointer, which would be a
    /// foreign address on arrival.
    pub cross_process: bool,
}

/// Everything the threads of one node share.
pub struct NodeShared {
    pub node_id: NodeId,
    pub nodes: usize,
    pub config: Config,
    pub memory: NodeMemory,
    pub agg: Arc<AggShared>,
    /// Iteration blocks awaiting workers (§IV-D). Push through
    /// [`NodeShared::push_itb`], which wakes a parked worker.
    pub itb_queue: SegQueue<Arc<Itb>>,
    /// Root tasks submitted from outside the runtime. Push through
    /// [`NodeShared::push_root`], which wakes a parked worker.
    pub root_queue: SegQueue<RootTask>,
    /// Received aggregation buffers awaiting helpers: (source node, bytes).
    /// Payloads are pooled: dropping one (after processing) returns the
    /// buffer to the *sending* node's channel pool. Push through
    /// [`NodeShared::push_helper_in`], which wakes a parked helper.
    pub helper_in: SegQueue<(NodeId, Payload)>,
    /// One wake queue per worker (index = worker channel); each worker
    /// parks on its queue's doorbell.
    pub(crate) ready_queues: Vec<Arc<ReadyQueue>>,
    /// One doorbell per helper, which it parks on.
    pub(crate) helper_bells: Vec<Doorbell>,
    /// Set once at shutdown.
    pub stop: AtomicBool,
    pub cluster: Arc<ClusterShared>,
    /// This node's instrument registry and resolved handles (`worker.*`,
    /// `helper.*`, `comm.*`, `reliable.*`, plus the aggregation layer's
    /// `agg.*` registered into the same registry).
    pub metrics: Arc<NodeMetrics>,
    /// Shared view of the fabric's traffic counters, folded into
    /// [`NodeHandle::metrics_snapshot`] as `net.*`.
    pub net: Arc<TrafficStats>,
    /// The transport this node is attached to, kept so
    /// [`NodeHandle::metrics_snapshot`] can fold backend-specific
    /// counters (`net.shm.*`) in alongside the shared `net.*` schema.
    pub transport: Arc<dyn Transport>,
    /// This node's membership view: per-peer death flags plus the epoch,
    /// maintained by the communication server's failure detector.
    pub membership: Membership,
    /// Stuck-task watchdog registry: weak handles to every task spawned on
    /// this node, swept periodically by the communication server.
    pub watch: Mutex<Vec<Weak<TaskControl>>>,
    /// Workers parked by flow-control admission (`emit` toward a
    /// backpressured peer). The communication server drains and wakes
    /// these when a window reopens, a peer dies, or the node stops;
    /// spurious wakeups are harmless by the worker loop's design.
    pub flow_waiters: SegQueue<Arc<TaskControl>>,
    /// Set (never cleared) once any task on this node runs with an
    /// operation deadline — config-wide or per-task. While clear, helpers
    /// skip the reply-abandon handshake entirely, so undeadlined programs
    /// pay one Acquire load per reply at most.
    pub deadlines_armed: AtomicBool,
    /// Per-peer "gmt_free toward this dead peer already warned" latches
    /// (satellite of the swallowed-`RemoteDead` accounting).
    pub free_warned: Vec<AtomicBool>,
    /// Remote operations awaiting application-level completion, for
    /// error-completion when their destination is confirmed dead.
    pub(crate) outstanding: OutstandingOps,
}

impl NodeShared {
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Sets the stop flag and wakes every parked runtime thread of this
    /// node so it observes it.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for q in &self.ready_queues {
            q.bell().ring();
        }
        for bell in &self.helper_bells {
            bell.ring();
        }
        (*self.transport.doorbell()).as_ref().ring();
    }

    /// Queues a root task and wakes a parked worker to take it.
    pub fn push_root(&self, root: RootTask) {
        self.root_queue.push(root);
        Self::ring_one(self.ready_queues.iter().map(|q| q.bell()));
    }

    /// Queues an iteration block and wakes a parked worker to peel it.
    pub fn push_itb(&self, itb: Arc<Itb>) {
        self.itb_queue.push(itb);
        Self::ring_one(self.ready_queues.iter().map(|q| q.bell()));
    }

    /// Queues a received buffer and wakes a parked helper to apply it.
    pub fn push_helper_in(&self, src: NodeId, payload: Payload) {
        self.helper_in.push((src, payload));
        Self::ring_one(self.helper_bells.iter());
    }

    /// Wakes the first parked thread among `bells`. One wake per queued
    /// item suffices: a thread that is not parked re-checks the shared
    /// queue before it parks (see [`gmt_net::doorbell`]).
    fn ring_one<'a>(bells: impl Iterator<Item = &'a Doorbell>) {
        for bell in bells {
            if bell.ring() {
                return;
            }
        }
    }

    /// Whether `node` was confirmed dead by the failure detector.
    pub fn peer_is_dead(&self, node: NodeId) -> bool {
        self.membership.is_dead(node)
    }

    /// The confirmed-dead set as a bitmask — the form degraded layouts
    /// capture at allocation time.
    ///
    /// # Panics
    ///
    /// Panics past 64 nodes with deaths present (the mask cannot name
    /// them; degraded allocation is capped there).
    pub fn dead_mask(&self) -> u64 {
        let dead = self.membership.dead_nodes();
        if dead.is_empty() {
            return 0;
        }
        assert!(self.nodes <= 64, "degraded allocation supports at most 64 nodes");
        dead.iter().fold(0u64, |m, &n| m | 1 << n)
    }

    /// Marks `node` dead in the membership view; `true` only on the first
    /// confirmation (the epoch bumps exactly once per death).
    pub(crate) fn mark_peer_dead(&self, node: NodeId) -> bool {
        self.membership.mark_dead(node)
    }

    /// Registers a freshly spawned task with the stuck-task watchdog.
    /// A full list drops its finished tasks before it grows, so it holds
    /// at most about twice the live tasks between watchdog sweeps.
    pub(crate) fn register_task(&self, ctl: &Arc<TaskControl>) {
        let mut watch = self.watch.lock();
        if watch.len() == watch.capacity() {
            watch.retain(|w| w.strong_count() > 0);
            let live = watch.len();
            watch.reserve(live);
        }
        watch.push(Arc::downgrade(ctl));
    }

    /// Watchdog sweep: prunes finished tasks, reports tasks parked on
    /// remote completions for longer than the configured deadline, and —
    /// when an operation deadline is armed — **enforces** it by
    /// force-waking tasks parked past it (their `wait_commands` then
    /// returns [`GmtError::DeadlineExceeded`]).
    /// Returns how many tasks are currently stuck. One diagnostic is
    /// printed per park (not per sweep), gated on `log_net_warnings`.
    ///
    /// Tasks parked toward a **backpressured** peer are exempt from both
    /// the stuck count and deadline enforcement (their park clock keeps
    /// restarting, counted in `watchdog.backpressure_deferrals`): a
    /// throttled link must not read as stuck tasks or trip
    /// `op_deadline_ns` false positives.
    ///
    /// [`GmtError::DeadlineExceeded`]: crate::error::GmtError::DeadlineExceeded
    pub fn sweep_stuck_tasks(&self, now_ns: u64) -> usize {
        let deadline = self.config.stuck_task_deadline_ns;
        let op_deadline = self.config.op_deadline_ns;
        let flow = self.agg.flow();
        let any_backpressured = flow.any();
        let mut stuck = 0usize;
        let mut watch = self.watch.lock();
        watch.retain(|w| {
            let Some(ctl) = w.upgrade() else { return false };
            if let Some((since_ns, dst, opcode, pending)) = ctl.parked_info() {
                // A task waiting on a *backpressured* peer is slow, not
                // stuck: the peer is alive, its window is just full. The
                // park clock restarts so neither the stuck report nor
                // op-deadline enforcement fires while flow control is
                // the cause — both re-arm from now once the peer
                // recovers (or its death converts the wait to an error).
                if any_backpressured {
                    if let Some(d) = dst {
                        if flow.is_backpressured(d) {
                            self.metrics.backpressure_deferrals.add(self.metrics.comm_shard(), 1);
                            ctl.note_parked(now_ns);
                            return true;
                        }
                    }
                }
                let age = now_ns.saturating_sub(since_ns);
                let enforce = match ctl.op_deadline() {
                    0 => op_deadline,
                    per_task => per_task,
                };
                if enforce > 0 && age >= enforce && ctl.expire_deadline() {
                    self.metrics.deadline_expired.add(self.metrics.comm_shard(), 1);
                    if self.config.log_net_warnings {
                        eprintln!(
                            "[gmt] warn: node {}: operation deadline ({} ms) expired; \
                             force-waking task with {pending} completion(s) in flight",
                            self.node_id,
                            enforce / 1_000_000,
                        );
                    }
                    return true;
                }
                if age >= deadline {
                    stuck += 1;
                    if self.config.log_net_warnings && ctl.claim_warning() {
                        let toward = match dst {
                            Some(d) => format!("last command {} toward node {d}", {
                                crate::command::op_name(opcode)
                            }),
                            None => "no command recorded".to_string(),
                        };
                        eprintln!(
                            "[gmt] warn: node {}: task stuck for {} ms waiting on {pending} \
                             completion(s); {toward}",
                            self.node_id,
                            age / 1_000_000,
                        );
                    }
                }
            }
            true
        });
        stuck
    }
}

impl std::fmt::Debug for NodeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeShared").field("node_id", &self.node_id).finish()
    }
}

/// Handle to one node of a running cluster.
pub struct NodeHandle {
    shared: Arc<NodeShared>,
}

impl NodeHandle {
    /// Submits a root task ("task zero") to this node and blocks the
    /// calling (external) thread until it completes, returning its result.
    ///
    /// The closure runs as a GMT task on one of this node's workers, with
    /// full access to the GMT API through the provided [`TaskCtx`].
    ///
    /// # Panics
    ///
    /// If the task panicked, the panic payload is carried back and resumed
    /// on the calling thread with its original message. Panics with a
    /// generic message if the runtime shut down under the task.
    ///
    /// [`TaskCtx`]: crate::api::TaskCtx
    pub fn run<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&crate::api::TaskCtx<'_>) -> R + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        self.shared.push_root(RootTask {
            f: Box::new(move |ctx| {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
                let _ = tx.send(r);
            }),
        });
        match rx.recv() {
            Ok(Ok(r)) => r,
            // Re-raise the task's own panic (payload intact) on the
            // submitting thread instead of a generic channel error.
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(_) => panic!("GMT root task did not complete (runtime shut down)"),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.shared.node_id
    }

    /// Aggregation counters of this node (snapshot summed over the
    /// per-thread statistic shards).
    pub fn agg_stats(&self) -> AggStats {
        self.shared.agg.stats()
    }

    /// Transport failures the communication server observed.
    pub fn net_errors(&self) -> u64 {
        self.shared.metrics.net_errors.sum()
    }

    /// This node's instrument handles (live counters/gauges/histograms).
    pub fn metrics(&self) -> &Arc<NodeMetrics> {
        &self.shared.metrics
    }

    /// A serializable point-in-time view of every instrument of this
    /// node — runtime registry (`worker.*`, `agg.*`, `helper.*`,
    /// `comm.*`, `reliable.*`) plus this node's fabric traffic counters
    /// folded in as `net.*`. `MetricsSnapshot::to_json()` renders it as
    /// JSON.
    ///
    /// Counter shards are summed without stopping writers, so totals are
    /// exact once the node is quiescent (same contract as
    /// [`NodeHandle::agg_stats`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.registry().snapshot();
        let t = self.shared.net.node(self.shared.node_id);
        snap.push_counter("net.sent_msgs", t.sent_msgs);
        snap.push_counter("net.sent_bytes", t.sent_bytes);
        snap.push_counter("net.recv_msgs", t.recv_msgs);
        snap.push_counter("net.recv_bytes", t.recv_bytes);
        snap.push_counter("net.dropped_msgs", t.dropped_msgs);
        snap.push_counter("net.duplicated_msgs", t.duplicated_msgs);
        snap.push_counter("net.retransmits", t.retransmits);
        snap.push_counter("net.tcp.conn_lost", t.conn_lost);
        for (name, value) in self.shared.transport.backend_counters() {
            snap.push_counter(&name, value);
        }
        snap
    }

    /// Peers this node has confirmed dead (retry exhaustion, heartbeat
    /// timeout, observed kill, or a death notice from another survivor).
    pub fn dead_peers(&self) -> Vec<NodeId> {
        self.shared.membership.dead_nodes()
    }

    /// This node's membership epoch (confirmed deaths so far). Survivors
    /// of the same cluster converge to identical epochs once death
    /// notices have propagated.
    pub fn membership_epoch(&self) -> u64 {
        self.shared.membership.epoch()
    }

    /// A consistent snapshot of this node's membership view.
    pub fn membership(&self) -> MembershipView {
        self.shared.membership.view()
    }

    /// Runs a watchdog sweep now and returns the number of tasks parked on
    /// remote completions past the configured deadline. Tasks waiting on
    /// a [backpressured](Self::backpressured_peers) peer are reported
    /// separately, never as stuck.
    pub fn stuck_tasks(&self) -> usize {
        let now = self.shared.agg.tick();
        self.shared.sweep_stuck_tasks(now)
    }

    /// Peers this node currently holds traffic for because their
    /// in-flight window is full (slow or throttled, but **alive** —
    /// disjoint from [`dead_peers`](Self::dead_peers)).
    pub fn backpressured_peers(&self) -> Vec<NodeId> {
        self.shared.agg.flow().backpressured_peers()
    }

    /// Live global allocations on this node.
    pub fn live_allocations(&self) -> usize {
        self.shared.memory.live_allocations()
    }

    /// Low-level access to the node's shared state (benchmark harness and
    /// tests; not part of the paper's API surface).
    pub fn shared(&self) -> &Arc<NodeShared> {
        &self.shared
    }
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHandle").field("node", &self.shared.node_id).finish()
    }
}

/// A running in-process GMT cluster (every node as threads of this
/// process, over the sim fabric or a TCP loopback mesh).
pub struct Cluster {
    nodes: Vec<NodeHandle>,
    /// `Some` on the sim backend only; its `Drop` is the sim's bounded
    /// drain. TCP-backed clusters drain per-transport instead.
    fabric: Option<Fabric>,
    /// One transport per node; explicitly shut down (drained) after the
    /// comm threads join.
    transports: Vec<Arc<dyn Transport>>,
    /// Cluster-wide traffic counters (all transports of one in-process
    /// cluster share a single table on either backend).
    net: Arc<TrafficStats>,
    threads: Vec<JoinHandle<()>>,
    stopped: bool,
    #[cfg(feature = "trace")]
    trace: Option<trace_hub::TraceHub>,
}

/// Cluster-wide event-trace collection: one SPSC lane per runtime thread,
/// exported as Chrome `trace_event` JSON after every thread joined.
#[cfg(feature = "trace")]
mod trace_hub {
    use gmt_metrics::trace::TraceSink;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    pub(super) struct TraceHub {
        pub sink: Arc<TraceSink>,
        pub path: PathBuf,
        lanes_per_node: usize,
    }

    impl TraceHub {
        /// Builds the hub when `GMT_TRACE` is set. Accepted forms:
        /// `chrome:/path/run.json`, a bare path, or a directory spec
        /// ending in `/` (a unique file name per run is generated, so
        /// parallel tests sharing the env var do not clobber each other).
        pub fn from_env(
            nodes: usize,
            workers: usize,
            helpers: usize,
            capacity: usize,
        ) -> Option<TraceHub> {
            let spec = std::env::var("GMT_TRACE").ok()?;
            let raw = spec.strip_prefix("chrome:").unwrap_or(&spec);
            if raw.is_empty() {
                return None;
            }
            let path = if raw.ends_with('/') {
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let n = SEQ.fetch_add(1, Ordering::Relaxed);
                PathBuf::from(raw).join(format!("gmt-trace-{}-{n}.json", std::process::id()))
            } else {
                PathBuf::from(raw)
            };
            let lanes_per_node = workers + helpers + 1;
            let mut sink = TraceSink::new(capacity);
            for node in 0..nodes {
                for w in 0..workers {
                    sink.add_lane(format!("n{node}.worker{w}"), node as u64, w as u64);
                }
                for h in 0..helpers {
                    sink.add_lane(format!("n{node}.helper{h}"), node as u64, (workers + h) as u64);
                }
                sink.add_lane(format!("n{node}.comm"), node as u64, (workers + helpers) as u64);
            }
            Some(TraceHub { sink: Arc::new(sink), path, lanes_per_node })
        }

        /// The tracer for `lane_in_node` (channel index; comm server =
        /// workers + helpers) of `node`.
        pub fn tracer(&self, node: usize, lane_in_node: usize) -> super::ThreadTracer {
            super::ThreadTracer::new(self.sink.writer(node * self.lanes_per_node + lane_in_node))
        }
    }
}

/// One booted node: its shared state plus the runtime threads serving
/// it (workers, helpers, comm server — in that spawn order).
struct NodeBoot {
    shared: Arc<NodeShared>,
    threads: Vec<JoinHandle<()>>,
}

/// Brings up one node over an already-built transport: allocates its
/// shared state and spawns its worker/helper/comm threads. Common to
/// [`Cluster`] (N nodes in-process) and [`NodeRuntime`] (one node per
/// process).
fn boot_node(
    node_id: NodeId,
    nodes: usize,
    config: &Config,
    cluster_shared: &Arc<ClusterShared>,
    transport: Arc<dyn Transport>,
    make_tracer: &dyn Fn(usize, usize) -> ThreadTracer,
) -> Result<NodeBoot, String> {
    let threads_per_node = config.num_workers + config.num_helpers;
    transport.set_log_warnings(config.log_net_warnings);
    let metrics = NodeMetrics::new(config.num_workers, config.num_helpers);
    let agg = AggShared::new_in_registry(
        nodes,
        threads_per_node,
        config.num_buf_per_channel,
        config.buffer_size,
        config.cmd_block_entries,
        config.cmd_block_timeout_ns,
        config.aggregation_timeout_ns,
        if config.reliable { crate::reliable::HEADER_LEN } else { 0 },
        config.combine_window,
        metrics.registry(),
        transport.doorbell(),
    );
    let shared = Arc::new(NodeShared {
        node_id,
        nodes,
        config: config.clone(),
        memory: NodeMemory::new(),
        agg,
        itb_queue: SegQueue::new(),
        root_queue: SegQueue::new(),
        helper_in: SegQueue::new(),
        ready_queues: (0..config.num_workers).map(|_| Arc::new(ReadyQueue::new())).collect(),
        helper_bells: (0..config.num_helpers).map(|_| Doorbell::new()).collect(),
        stop: AtomicBool::new(false),
        cluster: Arc::clone(cluster_shared),
        metrics,
        net: transport.stats_arc(),
        transport: Arc::clone(&transport),
        membership: Membership::new(nodes),
        watch: Mutex::new(Vec::new()),
        flow_waiters: SegQueue::new(),
        deadlines_armed: AtomicBool::new(config.op_deadline_ns > 0),
        free_warned: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
        outstanding: OutstandingOps::new(),
    });
    let mut threads = Vec::with_capacity(threads_per_node + 1);
    for w in 0..config.num_workers {
        let s = Arc::clone(&shared);
        let tracer = make_tracer(node_id, w);
        threads.push(
            std::thread::Builder::new()
                .name(format!("gmt-n{node_id}-w{w}"))
                .spawn(move || worker::worker_main(s, w, tracer))
                .map_err(|e| format!("spawning worker: {e}"))?,
        );
    }
    for h in 0..config.num_helpers {
        let s = Arc::clone(&shared);
        let chan = config.num_workers + h;
        let tracer = make_tracer(node_id, chan);
        threads.push(
            std::thread::Builder::new()
                .name(format!("gmt-n{node_id}-h{h}"))
                .spawn(move || helper::helper_main(s, chan, tracer))
                .map_err(|e| format!("spawning helper: {e}"))?,
        );
    }
    let s = Arc::clone(&shared);
    let tracer = make_tracer(node_id, threads_per_node);
    threads.push(
        std::thread::Builder::new()
            .name(format!("gmt-n{node_id}-comm"))
            .spawn(move || commserver::comm_main(s, transport, tracer))
            .map_err(|e| format!("spawning comm server: {e}"))?,
    );
    Ok(NodeBoot { shared, threads })
}

impl Cluster {
    /// Starts `nodes` GMT node instances with the given per-node config,
    /// on the backend the `GMT_TRANSPORT` environment variable selects
    /// (`sim`, the default, `tcp-loopback`, or `shm` — the CI transport
    /// matrix). A config with a network cost model always runs on the
    /// sim: throttled delivery is what enforces the model.
    ///
    /// Tests that inject faults or read [`Cluster::fabric`] must pin the
    /// backend with [`Cluster::start_sim`] instead.
    pub fn start(nodes: usize, config: Config) -> Result<Cluster, String> {
        let select = if config.network.is_some() {
            TransportSelect::Sim
        } else {
            TransportSelect::from_env()?
        };
        Self::start_with(nodes, config, select)
    }

    /// Starts a cluster pinned to the simulated fabric, regardless of
    /// `GMT_TRANSPORT`. Deterministic fault injection
    /// ([`Cluster::fabric`], `install_faults`, `set_link`) and network
    /// cost models only exist here.
    pub fn start_sim(nodes: usize, config: Config) -> Result<Cluster, String> {
        Self::start_with(nodes, config, TransportSelect::Sim)
    }

    /// Starts a cluster pinned to the TCP loopback mesh: real sockets,
    /// real framing, one process. The comm stack (reliability,
    /// membership, flow control) runs unchanged; fault injection and
    /// cost models are not available.
    pub fn start_tcp_loopback(nodes: usize, config: Config) -> Result<Cluster, String> {
        Self::start_with(nodes, config, TransportSelect::TcpLoopback)
    }

    /// Starts a cluster pinned to the shared-memory ring mesh: real
    /// frames through lock-free SPSC rings with a futex doorbell, one
    /// process. The comm stack runs unchanged; seeded [`FaultPlan`]s
    /// work via the frame shim, cost models do not.
    pub fn start_shm(nodes: usize, config: Config) -> Result<Cluster, String> {
        Self::start_with(nodes, config, TransportSelect::Shm)
    }

    fn start_with(
        nodes: usize,
        config: Config,
        select: TransportSelect,
    ) -> Result<Cluster, String> {
        if nodes == 0 {
            return Err("a cluster needs at least one node".into());
        }
        config.validate()?;
        if select != TransportSelect::Sim && config.network.is_some() {
            return Err("a network cost model needs the sim backend (throttled delivery); \
                 use Cluster::start_sim"
                .into());
        }
        // Sim keeps the owning Fabric alive alongside its endpoints.
        fn erase<T: Transport + 'static>(mesh: Vec<T>) -> Vec<Arc<dyn Transport>> {
            mesh.into_iter().map(|t| Arc::new(t) as Arc<dyn Transport>).collect()
        }
        let (fabric, transports) = match select {
            TransportSelect::Sim => {
                let mode = match config.network {
                    Some(model) => DeliveryMode::Throttled(model),
                    None => DeliveryMode::Instant,
                };
                let fabric = Fabric::new(nodes, mode);
                let transports = erase(fabric.endpoints());
                (Some(fabric), transports)
            }
            TransportSelect::TcpLoopback => (
                None,
                erase(
                    loopback_mesh(nodes)
                        .map_err(|e| format!("building the TCP loopback mesh: {e}"))?,
                ),
            ),
            TransportSelect::Shm => (
                None,
                erase(
                    shm_mesh(nodes)
                        .map_err(|e| format!("building the shared-memory ring mesh: {e}"))?,
                ),
            ),
        };
        let net = transports[0].stats_arc();
        let cluster_shared = Arc::new(ClusterShared {
            next_alloc_id: AtomicU64::new(1),
            alloc_stride: 1,
            cross_process: false,
        });
        #[cfg(feature = "trace")]
        let trace = trace_hub::TraceHub::from_env(
            nodes,
            config.num_workers,
            config.num_helpers,
            config.trace_capacity,
        );
        // Resolves the tracer of one runtime thread; a no-op handle when
        // the `trace` feature is off or GMT_TRACE is not set.
        let make_tracer = |node: usize, lane: usize| -> ThreadTracer {
            #[cfg(feature = "trace")]
            if let Some(hub) = &trace {
                return hub.tracer(node, lane);
            }
            #[cfg(not(feature = "trace"))]
            let _ = (node, lane);
            ThreadTracer::disabled()
        };
        let mut handles = Vec::with_capacity(nodes);
        let mut threads = Vec::new();
        for (node_id, transport) in transports.iter().enumerate() {
            let boot = boot_node(
                node_id,
                nodes,
                &config,
                &cluster_shared,
                Arc::clone(transport),
                &make_tracer,
            )?;
            threads.extend(boot.threads);
            handles.push(NodeHandle { shared: boot.shared });
        }
        Ok(Cluster {
            nodes: handles,
            fabric,
            transports,
            net,
            threads,
            stopped: false,
            #[cfg(feature = "trace")]
            trace,
        })
    }

    /// Handle to node `i`.
    pub fn node(&self, i: NodeId) -> &NodeHandle {
        &self.nodes[i]
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Network traffic counters (messages/bytes per node), whichever
    /// backend carries them.
    pub fn net_stats(&self) -> &TrafficStats {
        &self.net
    }

    /// The underlying simulated fabric (fault injection in tests).
    ///
    /// # Panics
    ///
    /// If the cluster runs on the TCP or shm backend — fault-injecting
    /// tests must pin the sim with [`Cluster::start_sim`].
    pub fn fabric(&self) -> &Fabric {
        self.fabric.as_ref().expect(
            "this cluster runs on a real transport backend (GMT_TRANSPORT); fabric-level \
             fault injection and cost models need the sim — start it with Cluster::start_sim \
             (seeded FaultPlans work on every backend via Cluster::install_faults)",
        )
    }

    /// Installs a seeded [`FaultPlan`] on whichever backend this cluster
    /// runs: the sim fabric's wire thread, or every TCP/shm transport's
    /// userspace frame shim. Drop/dup/flap/kill replay identically from
    /// a seed on all three; time-shaping faults (jitter, throttle,
    /// stall) need the cost model and only act on the sim. Over TCP a
    /// kill also severs the victim's streams, and over shm its rings
    /// (real crash semantics), which [`Cluster::clear_faults`] cannot
    /// undo.
    pub fn install_faults(&self, plan: FaultPlan) {
        match &self.fabric {
            Some(f) => f.install_faults(plan),
            None => self.transports.iter().for_each(|t| t.install_faults(plan.clone())),
        }
    }

    /// Removes any installed fault plan from every node's send path.
    pub fn clear_faults(&self) {
        match &self.fabric {
            Some(f) => f.clear_faults(),
            None => self.transports.iter().for_each(|t| t.clear_faults()),
        }
    }

    /// Stops every node and joins all runtime threads.
    ///
    /// Outstanding root tasks are not awaited: callers own their joins via
    /// [`NodeHandle::run`]'s blocking behaviour.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for n in &self.nodes {
            n.shared.request_stop();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Drain the transports after every comm thread is gone (the
        // Transport contract: bounded, idempotent, pools stay whole).
        // On the sim this is a no-op per endpoint — the fabric's own
        // `Drop` performs the wire-thread drain when `self.fabric` goes.
        // Transports close sequentially, so a loopback sibling's reader
        // sees EOF from already-closed peers: silence the link-down
        // warnings first — nobody is left to act on them.
        for t in &self.transports {
            t.set_log_warnings(false);
        }
        for t in &self.transports {
            t.shutdown();
        }
        #[cfg(feature = "trace")]
        if let Some(hub) = self.trace.take() {
            // Every runtime thread has joined, so all `LaneWriter`s are
            // dropped and the sink is sole-owned again.
            match Arc::into_inner(hub.sink) {
                Some(mut sink) => {
                    let json = sink.chrome_trace_json();
                    if let Some(parent) = hub.path.parent() {
                        let _ = std::fs::create_dir_all(parent);
                    }
                    match std::fs::write(&hub.path, json) {
                        Ok(()) => eprintln!("[gmt] trace written to {}", hub.path.display()),
                        Err(e) => {
                            eprintln!("[gmt] warn: writing trace {}: {e}", hub.path.display())
                        }
                    }
                }
                None => eprintln!("[gmt] warn: trace sink still shared; export skipped"),
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("nodes", &self.nodes.len()).finish()
    }
}

/// One GMT node running in *this* process as part of a multi-process
/// cluster — the shape `gmt-launch` boots N of.
///
/// Where [`Cluster`] owns every node, a `NodeRuntime` owns exactly one:
/// the same worker/helper/comm thread complement, attached to an
/// externally-built [`Transport`] (normally from
/// [`gmt_net::connect`]) whose `node()`/`nodes()` determine this
/// node's identity. The reliability, membership and flow-control layers
/// run unchanged; every peer is simply in another process.
///
/// Allocation ids are minted process-locally with a stride (node `k` of
/// `N` mints `k+1, k+1+N, k+2N+1, …`), so no cross-process counter is
/// needed and ids from different nodes never collide.
pub struct NodeRuntime {
    node: NodeHandle,
    transport: Arc<dyn Transport>,
    threads: Vec<JoinHandle<()>>,
    stopped: bool,
}

impl NodeRuntime {
    /// Boots this process's node over `transport`.
    ///
    /// Fails on an invalid config or one with a network cost model —
    /// cost models are enforced by the sim fabric's throttled delivery,
    /// which has no multi-process equivalent.
    pub fn start(transport: Arc<dyn Transport>, config: Config) -> Result<NodeRuntime, String> {
        config.validate()?;
        if config.network.is_some() {
            return Err("a network cost model needs the sim backend (Cluster::start_sim)".into());
        }
        let node_id = transport.node();
        let nodes = transport.nodes();
        let cluster_shared = Arc::new(ClusterShared {
            next_alloc_id: AtomicU64::new(1 + node_id as u64),
            alloc_stride: nodes as u64,
            cross_process: true,
        });
        let make_tracer = |_node: usize, _lane: usize| ThreadTracer::disabled();
        let boot = boot_node(
            node_id,
            nodes,
            &config,
            &cluster_shared,
            Arc::clone(&transport),
            &make_tracer,
        )?;
        Ok(NodeRuntime {
            node: NodeHandle { shared: boot.shared },
            transport,
            threads: boot.threads,
            stopped: false,
        })
    }

    /// Handle to this process's node (submit root tasks, read metrics).
    pub fn node(&self) -> &NodeHandle {
        &self.node
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.node.shared().nodes
    }

    /// Stops this node's threads and drains its transport. Peers are
    /// *not* told — coordinate end-of-job first (gmt-launch uses the
    /// rendezvous control channel), or surviving peers will eventually
    /// declare this node dead.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.node.shared().request_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.transport.shutdown();
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("node", &self.node.id())
            .field("nodes", &self.nodes())
            .finish()
    }
}
