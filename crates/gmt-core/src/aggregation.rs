//! Multi-level command aggregation (the paper's Figure 3 and §IV-C).
//!
//! The pipeline, exactly as in the paper:
//!
//! 1. Each worker/helper thread owns per-destination **command blocks**
//!    (pre-aggregation): commands are encoded into the block without any
//!    synchronization.
//! 2. A block is pushed into the node-wide, per-destination **aggregation
//!    queue** when it is full (entries or bytes) or older than a timeout.
//! 3. When an aggregation queue holds a buffer's worth of commands (or
//!    times out), the noticing thread pops blocks and packs them into a
//!    pooled **aggregation buffer**.
//!
//!    Besides *full* and *aged* there is a third flush trigger, which the
//!    paper's timeouts stand in for: **quiescence**. A thread that has
//!    nothing else to run calls [`CommandSink::flush_idle`] before it
//!    parks, which ships everything it holds at once — waiting out a
//!    timeout then buys no batching, only latency. The timeouts
//!    therefore act only while the thread still has other tasks to run.
//! 4. The filled buffer goes into the thread's **channel queue** (SPSC to
//!    the communication server), which hands it to the fabric **without
//!    copying**: the buffer travels as a pooled [`gmt_net::Payload`] whose
//!    drop — after the receiving node's helper processed it — returns it
//!    to this channel's pool ([`ChannelPool`] implements
//!    [`gmt_net::BufRelease`]). This models a NIC sending straight from a
//!    registered buffer and completing it back to the sender.
//!
//! Blocks and buffers come from fixed pools and are recycled "to save
//! memory space and eliminate allocation overhead".
//!
//! Two further hot-path design points (measured in
//! `gmt-bench/benches/aggregation.rs`):
//!
//! * **Coarse clock** — block ages are stamped from a node-wide
//!   [`AtomicU64`] ticked by [`AggShared::tick`] (called from `pump()` and
//!   the communication-server sweep), so [`CommandSink::emit`] never calls
//!   `Instant::now()`. Timeout precision degrades only to the pump
//!   interval, which is exactly the granularity at which timeouts are
//!   *checked* anyway.
//! * **Sharded statistics** — counters live in the node's metrics
//!   registry ([`gmt_metrics::Registry`]), one cache-padded cell per
//!   channel, and are summed on demand by [`AggShared::stats`], so `emit`
//!   performs no RMW on any shared cache line. [`AggShared::new`] creates
//!   a private registry (standalone use: unit tests, benchmarks);
//!   [`AggShared::new_in_registry`] registers the same instruments in the
//!   node-wide registry so they appear in
//!   [`NodeHandle::metrics_snapshot`](crate::runtime::NodeHandle::metrics_snapshot).

use crate::command::Command;
use crate::NodeId;
use crossbeam::queue::{ArrayQueue, SegQueue};
use gmt_metrics::{Counter, Histogram, Registry};
use gmt_net::{BufRelease, Doorbell, Payload, SharedBell};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wire size of the smallest command (`Ack`); bounds how many blocks one
/// aggregation buffer's worth of queued bytes can consist of.
const MIN_CMD_BYTES: usize = 9;

/// Fixed part of an `AddN` on the wire (opcode + array + offset + delta +
/// token-run length); each absorbed token adds 8 bytes.
const ADD_N_FIXED_BYTES: usize = 1 + 8 + 8 + 8 + 4;

/// Upper bound on tokens merged into one `AddN`, independent of buffer
/// size (keeps per-entry token runs small and cache-friendly).
const MAX_COMBINE_TOKENS: usize = 64;

/// First retry delay after `aggregate` finds its buffer pool empty.
const POOL_BACKOFF_MIN_NS: u64 = 10_000;

/// Ceiling of the empty-pool retry backoff: buffers come back on the
/// receiver's schedule, so there is no point in hammering the pool, but a
/// bounded cap keeps the retry latency within one pump interval or two.
const POOL_BACKOFF_MAX_NS: u64 = 1_000_000;

/// A shed (deferred) combine-table flush toward a backpressured peer is
/// forced through once the table ages past this many block timeouts —
/// bounds how long fire-and-forget adds can be delayed, preserving the
/// `wait_commands` liveness contract even under persistent backpressure.
const SHED_MAX_AGE_MULT: u64 = 8;

/// Per-destination aggregation queue: command blocks from all threads of a
/// node, bound for one remote node.
pub struct AggQueue {
    blocks: SegQueue<Vec<u8>>,
    /// Total encoded bytes currently queued.
    bytes: AtomicUsize,
    /// Monotonic ns timestamp of the oldest unaggregated push (0 = none).
    oldest_push_ns: AtomicU64,
}

impl AggQueue {
    fn new() -> Self {
        AggQueue {
            blocks: SegQueue::new(),
            bytes: AtomicUsize::new(0),
            oldest_push_ns: AtomicU64::new(0),
        }
    }

    /// Bytes of commands waiting in this queue.
    pub fn queued_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The fixed buffer pool of one channel. Spent payloads flow back here via
/// the [`BufRelease`] hook, wherever in the cluster they were dropped.
pub struct ChannelPool {
    free: ArrayQueue<Vec<u8>>,
    capacity: usize,
}

impl BufRelease for ChannelPool {
    fn release(&self, mut buf: Vec<u8>) {
        buf.clear();
        // Pool capacity equals the number of buffers in circulation and
        // each payload releases exactly once, so this cannot overflow.
        self.free.push(buf).expect("buffer pool overflow");
    }
}

/// SPSC-style channel between one worker/helper thread and the
/// communication server, with its fixed buffer pool.
pub struct ChannelQueue {
    /// Filled aggregation buffers awaiting transmission.
    filled: ArrayQueue<(NodeId, Vec<u8>)>,
    /// Recycled empty buffers; `Arc` so in-flight payloads can return
    /// their buffer after the channel-owning thread moved on.
    pool: Arc<ChannelPool>,
}

impl ChannelQueue {
    fn new(num_buffers: usize, buffer_size: usize) -> Self {
        let free = ArrayQueue::new(num_buffers);
        for _ in 0..num_buffers {
            free.push(Vec::with_capacity(buffer_size)).expect("pool fits");
        }
        ChannelQueue {
            filled: ArrayQueue::new(num_buffers),
            pool: Arc::new(ChannelPool { free, capacity: num_buffers }),
        }
    }

    /// Communication-server side: takes the next filled buffer, already
    /// wrapped as a pooled [`Payload`] — dropping it (anywhere, any
    /// thread) returns the buffer to this channel's pool. No copy is made
    /// between here and the fabric.
    pub fn pop_filled(&self) -> Option<(NodeId, Payload)> {
        self.filled.pop().map(|(dst, buf)| {
            (dst, Payload::pooled(buf, Arc::clone(&self.pool) as Arc<dyn BufRelease>))
        })
    }

    /// Number of filled buffers waiting.
    pub fn backlog(&self) -> usize {
        self.filled.len()
    }

    /// Buffers currently resting in the pool (== capacity when the
    /// channel is quiescent and every payload has been dropped).
    pub fn free_buffers(&self) -> usize {
        self.pool.free.len()
    }

    /// Total buffers owned by this channel.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity
    }
}

/// Snapshot of the aggregation counters, summed over all per-channel
/// shards by [`AggShared::stats`]. Totals are exact once the emitting
/// threads are quiescent (each shard is written by one thread only).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AggStats {
    pub commands: u64,
    pub blocks_pushed: u64,
    pub buffers_filled: u64,
    /// Buffers dispatched because a timeout fired rather than being full.
    pub timeout_flushes: u64,
    /// Buffers dispatched because the emitting thread ran out of work
    /// (the quiescence flush, [`CommandSink::flush_idle`]).
    pub idle_flushes: u64,
    /// Command blocks dropped (freed) because the block pool was full.
    pub block_pool_drops: u64,
    /// Fire-and-forget adds absorbed into an existing combining-table
    /// entry (each hit is one command that never reached the wire).
    pub combine_hits: u64,
    /// Combining-table entries flushed as `AddN` wire commands.
    pub combine_flushes: u64,
    /// `aggregate` attempts skipped because the empty-pool backoff gate
    /// was still closed (satellite of the flow-control work: the retry
    /// path no longer busy-spins on a dry pool).
    pub pool_dry_waits: u64,
    /// Combine-table age-flushes deferred because the destination peer
    /// was backpressured (load shedding).
    pub sheds: u64,
}

/// Node-wide per-destination flow-control state, published by the
/// communication server (the only writer) and read by emitters and the
/// watchdog. A destination is *backpressured* when the reliability layer
/// is holding buffers for it because its in-flight window is full — the
/// peer is slow or its link is throttled, but it is **not** dead.
///
/// `active` counts backpressured destinations so the hot path can rule
/// out flow checks with one relaxed load when nothing is backpressured.
pub struct FlowState {
    backpressured: Vec<AtomicBool>,
    active: AtomicUsize,
}

impl FlowState {
    fn new(destinations: usize) -> Self {
        FlowState {
            backpressured: (0..destinations).map(|_| AtomicBool::new(false)).collect(),
            active: AtomicUsize::new(0),
        }
    }

    /// Marks `dst` backpressured (or clears it). Called only from the
    /// communication-server thread, so the flag/count pair needs no
    /// stronger ordering than release.
    pub fn set_backpressured(&self, dst: NodeId, on: bool) {
        let prev = self.backpressured[dst].swap(on, Ordering::Release);
        if prev != on {
            if on {
                self.active.fetch_add(1, Ordering::Release);
            } else {
                self.active.fetch_sub(1, Ordering::Release);
            }
        }
    }

    /// Is the window toward `dst` currently full?
    #[inline]
    pub fn is_backpressured(&self, dst: NodeId) -> bool {
        self.backpressured[dst].load(Ordering::Acquire)
    }

    /// Is *any* destination backpressured? One relaxed load — the hot
    /// path's fast-out.
    #[inline]
    pub fn any(&self) -> bool {
        self.active.load(Ordering::Relaxed) > 0
    }

    /// Every currently backpressured destination (watchdog reporting).
    pub fn backpressured_peers(&self) -> Vec<NodeId> {
        if !self.any() {
            return Vec::new();
        }
        (0..self.backpressured.len()).filter(|&d| self.is_backpressured(d)).collect()
    }
}

/// The aggregation layer's registry instruments: sharded counters (one
/// cell per channel, written by that channel's thread only) plus the
/// fill-level histogram recorded at every buffer flush.
struct AggMetrics {
    commands: Counter,
    blocks_pushed: Counter,
    buffers_filled: Counter,
    timeout_flushes: Counter,
    idle_flushes: Counter,
    block_pool_drops: Counter,
    /// `aggregate` found the channel's buffer pool empty and left the
    /// blocks queued for a later retry.
    pool_waits: Counter,
    /// `aggregate` attempts skipped outright because the empty-pool
    /// backoff gate had not expired yet.
    pool_dry_waits: Counter,
    /// Combine-table age-flushes deferred toward backpressured peers.
    sheds: Counter,
    combine_hits: Counter,
    combine_flushes: Counter,
    /// Buffer length (header included) at flush, bucketed by fractions of
    /// `buffer_size` — the paper's buffer-occupancy view (Figure 9).
    flush_fill: Histogram,
}

impl AggMetrics {
    fn register(registry: &Registry, buffer_size: usize) -> Self {
        let mut bounds: Vec<u64> = [8usize, 4, 2]
            .iter()
            .map(|d| (buffer_size / d) as u64)
            .chain([(buffer_size * 3 / 4) as u64, buffer_size as u64])
            .filter(|&b| b > 0)
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        AggMetrics {
            commands: registry.counter("agg.commands"),
            blocks_pushed: registry.counter("agg.blocks_pushed"),
            buffers_filled: registry.counter("agg.buffers_filled"),
            timeout_flushes: registry.counter("agg.timeout_flushes"),
            idle_flushes: registry.counter("agg.idle_flushes"),
            block_pool_drops: registry.counter("agg.block_pool_drops"),
            pool_waits: registry.counter("agg.pool_waits"),
            pool_dry_waits: registry.counter("agg.pool_dry_waits"),
            sheds: registry.counter("net.flow.sheds"),
            combine_hits: registry.counter("agg.combine_hits"),
            combine_flushes: registry.counter("agg.combine_flushes"),
            flush_fill: registry.histogram("agg.flush_fill_bytes", &bounds),
        }
    }
}

/// Node-wide shared aggregation state.
pub struct AggShared {
    buffer_size: usize,
    /// Bytes reserved (zeroed) at the front of every aggregation buffer
    /// for the transport header the reliability layer patches in before
    /// the send. 0 when reliability is off.
    header_reserve: usize,
    cmd_block_entries: usize,
    cmd_block_timeout_ns: u64,
    aggregation_timeout_ns: u64,
    /// Maximum distinct `(array, offset)` cells tracked per destination
    /// in each sink's combining table; 0 disables combining.
    combine_window: usize,
    /// Maximum tokens merged into one entry before it flushes as `AddN`
    /// (bounded so the command always fits one aggregation buffer).
    combine_cap: usize,
    start: Instant,
    /// Coarse monotonic clock (ns since `start`), ticked by [`Self::tick`]
    /// from pump loops and the communication server. Hot paths read it
    /// with a relaxed load instead of calling `Instant::now()`.
    clock_ns: AtomicU64,
    queues: Vec<AggQueue>,
    block_pool: ArrayQueue<Vec<u8>>,
    channels: Vec<ChannelQueue>,
    metrics: AggMetrics,
    /// Per-destination backpressure flags (written by the communication
    /// server, read by emitters, pump and the watchdog).
    flow: FlowState,
    /// The communication server's doorbell, rung after every push of a
    /// filled buffer onto a channel queue.
    comm_bell: SharedBell,
}

impl AggShared {
    /// `destinations` = number of nodes in the cluster (the self entry
    /// exists but stays unused); `threads` = workers + helpers;
    /// `header_reserve` = bytes zero-reserved at the front of every buffer
    /// for the transport header (0 disables the reserve).
    ///
    /// The statistics instruments go into a private, throwaway registry:
    /// counter handles keep working after a registry drops, so standalone
    /// instances (tests, benchmarks) behave exactly as before — the
    /// counters just are not visible in any node snapshot — and filled
    /// buffers ring a private doorbell nobody parks on. The runtime uses
    /// [`Self::new_in_registry`] instead.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        destinations: usize,
        threads: usize,
        num_buf_per_channel: usize,
        buffer_size: usize,
        cmd_block_entries: usize,
        cmd_block_timeout_ns: u64,
        aggregation_timeout_ns: u64,
        header_reserve: usize,
        combine_window: usize,
    ) -> Arc<Self> {
        Self::new_in_registry(
            destinations,
            threads,
            num_buf_per_channel,
            buffer_size,
            cmd_block_entries,
            cmd_block_timeout_ns,
            aggregation_timeout_ns,
            header_reserve,
            combine_window,
            &Registry::new(threads),
            Arc::new(Doorbell::new()),
        )
    }

    /// Like [`Self::new`], but registers the aggregation instruments
    /// (`agg.*`) in `registry`, which must have at least `threads` counter
    /// shards, and rings `comm_bell` whenever a filled buffer is ready
    /// for the communication server.
    #[allow(clippy::too_many_arguments)]
    pub fn new_in_registry(
        destinations: usize,
        threads: usize,
        num_buf_per_channel: usize,
        buffer_size: usize,
        cmd_block_entries: usize,
        cmd_block_timeout_ns: u64,
        aggregation_timeout_ns: u64,
        header_reserve: usize,
        combine_window: usize,
        registry: &Registry,
        comm_bell: SharedBell,
    ) -> Arc<Self> {
        assert!(header_reserve < buffer_size, "header reserve must leave room for commands");
        assert!(registry.shards() >= threads, "registry has fewer shards than channels");
        // Enough recycled blocks for every thread to have one per
        // destination, plus — per destination — a buffer's worth of full
        // blocks that can sit in the aggregation queue before a drain
        // fires. A full block holds at least `cmd_block_entries` commands
        // of `MIN_CMD_BYTES` each, which bounds blocks-per-buffer. Sized
        // this way, steady-state recycling never drops a block
        // (`AggStats::block_pool_drops` stays 0).
        let full_block_bytes = (cmd_block_entries * MIN_CMD_BYTES).max(1);
        let blocks_per_buffer = buffer_size / full_block_bytes + 2;
        let pool_cap = (threads * destinations * 2 + destinations * blocks_per_buffer).max(16);
        let block_pool = ArrayQueue::new(pool_cap);
        // A full combining entry must encode into a command that fits one
        // buffer's command capacity.
        let combine_cap = ((buffer_size - header_reserve).saturating_sub(ADD_N_FIXED_BYTES) / 8)
            .clamp(1, MAX_COMBINE_TOKENS);
        Arc::new(AggShared {
            buffer_size,
            header_reserve,
            cmd_block_entries,
            cmd_block_timeout_ns,
            aggregation_timeout_ns,
            combine_window,
            combine_cap,
            start: Instant::now(),
            clock_ns: AtomicU64::new(1),
            queues: (0..destinations).map(|_| AggQueue::new()).collect(),
            block_pool,
            channels: (0..threads)
                .map(|_| ChannelQueue::new(num_buf_per_channel, buffer_size))
                .collect(),
            metrics: AggMetrics::register(registry, buffer_size),
            flow: FlowState::new(destinations),
            comm_bell,
        })
    }

    /// Advances the coarse clock to the current elapsed time and returns
    /// it. Called from `pump()` and each communication-server sweep; any
    /// number of threads may tick concurrently (stores are monotonic
    /// enough: a stale store can only *lower* the clock by one tick
    /// interval, which is within the documented timeout slack).
    pub fn tick(&self) -> u64 {
        let now = self.start.elapsed().as_nanos() as u64;
        self.clock_ns.store(now.max(1), Ordering::Relaxed);
        now.max(1)
    }

    /// The coarse clock's latest tick: one relaxed load, no syscall.
    #[inline]
    fn coarse_now_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }

    /// Public read of the coarse clock (same relaxed load as the hot
    /// paths use); the reliability layer and watchdog time against this.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.coarse_now_ns()
    }

    /// Bytes reserved for the transport header at the front of every
    /// aggregation buffer this instance produces.
    #[inline]
    pub fn header_reserve(&self) -> usize {
        self.header_reserve
    }

    /// Bytes of one buffer available to commands (after the reserve).
    #[inline]
    fn cmd_capacity(&self) -> usize {
        self.buffer_size - self.header_reserve
    }

    /// Sums the per-channel statistic shards into a snapshot.
    pub fn stats(&self) -> AggStats {
        AggStats {
            commands: self.metrics.commands.sum(),
            blocks_pushed: self.metrics.blocks_pushed.sum(),
            buffers_filled: self.metrics.buffers_filled.sum(),
            timeout_flushes: self.metrics.timeout_flushes.sum(),
            idle_flushes: self.metrics.idle_flushes.sum(),
            block_pool_drops: self.metrics.block_pool_drops.sum(),
            combine_hits: self.metrics.combine_hits.sum(),
            combine_flushes: self.metrics.combine_flushes.sum(),
            pool_dry_waits: self.metrics.pool_dry_waits.sum(),
            sheds: self.metrics.sheds.sum(),
        }
    }

    /// The node's flow-control state (backpressure flags per peer).
    #[inline]
    pub fn flow(&self) -> &FlowState {
        &self.flow
    }

    /// The channel queue of thread `idx` (communication-server side).
    pub fn channel(&self, idx: usize) -> &ChannelQueue {
        &self.channels[idx]
    }

    /// Number of channel queues (== worker + helper threads).
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// The aggregation queue for destination `dst` (introspection).
    pub fn queue(&self, dst: NodeId) -> &AggQueue {
        &self.queues[dst]
    }

    fn take_block(&self) -> Vec<u8> {
        self.block_pool.pop().unwrap_or_else(|| Vec::with_capacity(self.buffer_size / 4))
    }

    /// Returns `true` if the block was dropped because the pool was full
    /// (the caller counts drops in its statistics shard).
    fn recycle_block(&self, mut block: Vec<u8>) -> bool {
        block.clear();
        self.block_pool.push(block).is_err()
    }
}

/// Why `aggregate` packs a buffer (counted apart in the statistics).
#[derive(Clone, Copy)]
enum Flush {
    /// A buffer's worth of commands is queued.
    Full,
    /// A block or queue timeout fired (`agg.timeout_flushes`).
    Aged,
    /// The emitting thread ran out of work (`agg.idle_flushes`).
    Idle,
}

/// A thread-local command block being filled for one destination.
struct ActiveBlock {
    buf: Vec<u8>,
    entries: usize,
    born_ns: u64,
}

/// One cell of the combining table: the merged delta of every
/// fire-and-forget `Add` to `(array, offset)` seen since the last flush,
/// plus the completion tokens (8 LE bytes each) those adds carried.
struct CombineEntry {
    array: u64,
    offset: u64,
    delta: i64,
    tokens: Vec<u8>,
}

/// Per-destination merge-at-source table (see `CommandSink::emit`).
/// `entries[..live]` are occupied; dead entries keep their token buffers
/// allocated for reuse.
#[derive(Default)]
struct CombineTable {
    entries: Vec<CombineEntry>,
    live: usize,
    /// Coarse-clock stamp of the first add since the last flush (0 =
    /// empty); pump flushes tables older than the command-block timeout.
    born_ns: u64,
}

/// Per-thread front end of the aggregation pipeline.
///
/// Owned by exactly one worker or helper thread; `emit` requires `&mut`
/// and touches only thread-local state until a block is handed off.
pub struct CommandSink {
    shared: Arc<AggShared>,
    /// This thread's channel-queue index.
    chan: usize,
    active: Vec<Option<ActiveBlock>>,
    /// Per-destination combining tables (empty when combining is off).
    combine: Vec<CombineTable>,
    /// Current empty-pool retry backoff (0 = pool was not dry last time).
    /// `Cell` because `aggregate` takes `&self`; the sink is owned by one
    /// thread, so interior mutability is purely local.
    pool_backoff_ns: Cell<u64>,
    /// Coarse-clock time before which `aggregate` skips the pool pop.
    pool_retry_at_ns: Cell<u64>,
}

impl CommandSink {
    pub fn new(shared: Arc<AggShared>, chan: usize) -> Self {
        let dests = shared.queues.len();
        CommandSink {
            shared,
            chan,
            active: (0..dests).map(|_| None).collect(),
            combine: (0..dests).map(|_| CombineTable::default()).collect(),
            pool_backoff_ns: Cell::new(0),
            pool_retry_at_ns: Cell::new(0),
        }
    }

    /// This sink's statistics instruments (this thread writes only its
    /// own counter shard, `self.chan`).
    #[inline]
    fn metrics(&self) -> &AggMetrics {
        &self.shared.metrics
    }

    /// Appends `cmd` to the command block for `dst` (step 2 of Figure 3),
    /// handing the block to the aggregation queue if it fills up.
    ///
    /// Fire-and-forget atomic adds (`Add` with `dest == 0`) are diverted
    /// into the per-destination combining table first: adds to the same
    /// `(array, offset)` merge into one delta (commutativity makes this
    /// exact) and leave as a single [`Command::AddN`] carrying every
    /// absorbed completion token. Purely pre-wire — the merged command is
    /// one entry in one buffer, so reliability seq/dedup semantics are
    /// untouched. A combined add may ship later than commands emitted
    /// after it (bounded by the block timeout); GMT never ordered
    /// independent commands anyway.
    ///
    /// Hot path: no `Instant::now()` (block birth is stamped from the
    /// coarse clock) and no shared-cacheline RMW (counters go to this
    /// thread's padded shard).
    #[inline]
    pub fn emit(&mut self, dst: NodeId, cmd: &Command<'_>) {
        if self.shared.combine_window > 0 {
            if let Command::Add { token, array, offset, delta, dest: 0 } = *cmd {
                self.combine_add(dst, token, array, offset, delta);
                return;
            }
        }
        self.encode_cmd(dst, cmd);
    }

    /// Merges one fire-and-forget add into the combining table for `dst`,
    /// flushing an entry (token cap) or the whole table (window overflow)
    /// as needed.
    fn combine_add(&mut self, dst: NodeId, token: u64, array: u64, offset: u64, delta: i64) {
        let cap_bytes = self.shared.combine_cap * 8;
        let table = &mut self.combine[dst];
        if let Some(i) =
            table.entries[..table.live].iter().position(|e| e.array == array && e.offset == offset)
        {
            let e = &mut table.entries[i];
            e.delta = e.delta.wrapping_add(delta);
            e.tokens.extend_from_slice(&token.to_le_bytes());
            self.shared.metrics.combine_hits.add(self.chan, 1);
            if e.tokens.len() >= cap_bytes {
                // Entry full: flush it alone, keeping the rest merging.
                let tokens = std::mem::take(&mut e.tokens);
                let (array, offset, delta) = (e.array, e.offset, e.delta);
                table.live -= 1;
                table.entries.swap(i, table.live);
                if table.live == 0 {
                    table.born_ns = 0;
                }
                self.shared.metrics.combine_flushes.add(self.chan, 1);
                self.encode_cmd(dst, &Command::AddN { array, offset, delta, tokens: &tokens });
                // Hand the token buffer back to the (now dead) slot.
                let table = &mut self.combine[dst];
                let mut tokens = tokens;
                tokens.clear();
                table.entries[table.live].tokens = tokens;
            }
            return;
        }
        if table.live == self.shared.combine_window {
            self.flush_combine(dst);
        }
        let now = self.shared.coarse_now_ns();
        let table = &mut self.combine[dst];
        if table.live == 0 {
            table.born_ns = now;
        }
        if table.live == table.entries.len() {
            table.entries.push(CombineEntry {
                array,
                offset,
                delta,
                tokens: Vec::with_capacity(cap_bytes),
            });
        } else {
            let e = &mut table.entries[table.live];
            e.array = array;
            e.offset = offset;
            e.delta = delta;
            e.tokens.clear();
        }
        table.entries[table.live].tokens.extend_from_slice(&token.to_le_bytes());
        table.live += 1;
    }

    /// Flushes every live combining-table entry for `dst` into the
    /// command block as `AddN` commands.
    fn flush_combine(&mut self, dst: NodeId) {
        if self.combine[dst].live == 0 {
            return;
        }
        let mut table = std::mem::take(&mut self.combine[dst]);
        for e in &mut table.entries[..table.live] {
            let cmd = Command::AddN {
                array: e.array,
                offset: e.offset,
                delta: e.delta,
                tokens: &e.tokens,
            };
            self.encode_cmd(dst, &cmd);
            e.tokens.clear();
        }
        self.shared.metrics.combine_flushes.add(self.chan, table.live as u64);
        table.live = 0;
        table.born_ns = 0;
        self.combine[dst] = table;
    }

    /// Encodes `cmd` into the active block for `dst` (no combining).
    #[inline]
    fn encode_cmd(&mut self, dst: NodeId, cmd: &Command<'_>) {
        let size = cmd.encoded_len();
        let cap = self.shared.cmd_capacity();
        assert!(size <= cap, "command of {size} bytes exceeds aggregation buffer capacity {cap}");
        self.metrics().commands.add(self.chan, 1);
        // A command never splits across blocks: push the block first if
        // this one would overflow it.
        if let Some(active) = &self.active[dst] {
            if active.buf.len() + size > cap {
                self.push_block(dst);
            }
        }
        let active = self.active[dst].get_or_insert_with(|| ActiveBlock {
            buf: self.shared.take_block(),
            entries: 0,
            born_ns: self.shared.coarse_now_ns(),
        });
        cmd.encode(&mut active.buf);
        active.entries += 1;
        if active.entries >= self.shared.cmd_block_entries || active.buf.len() >= cap {
            self.push_block(dst);
        }
    }

    /// Moves the active block for `dst` into the aggregation queue
    /// (step 3), triggering aggregation if a buffer's worth is ready.
    fn push_block(&mut self, dst: NodeId) {
        let Some(active) = self.active[dst].take() else { return };
        if active.buf.is_empty() {
            if self.shared.recycle_block(active.buf) {
                self.metrics().block_pool_drops.add(self.chan, 1);
            }
            return;
        }
        let shared = &self.shared;
        let q = &shared.queues[dst];
        let len = active.buf.len();
        q.blocks.push(active.buf);
        q.bytes.fetch_add(len, Ordering::AcqRel);
        // Stamp *after* the push, unconditionally. Invariant: a non-empty
        // queue eventually has a non-zero stamp — only `aggregate` stores
        // zero, and it rechecks emptiness afterwards. (A CAS-if-zero here
        // loses against a concurrent drain: the CAS fails on the stale
        // stamp, the drain misses our block and resets to zero, and the
        // block would never time out.)
        q.oldest_push_ns.store(shared.coarse_now_ns(), Ordering::Release);
        self.metrics().blocks_pushed.add(self.chan, 1);
        if q.bytes.load(Ordering::Acquire) >= shared.cmd_capacity() {
            // Best-effort: on pool starvation the blocks stay queued and
            // the next push or pump retries.
            self.aggregate(dst, Flush::Full);
        }
    }

    /// Packs queued blocks for `dst` into one aggregation buffer and hands
    /// it to this thread's channel queue (steps 4–8 of Figure 3).
    ///
    /// Non-blocking: returns `false` if the channel pool had no free
    /// buffer, leaving the blocks queued for a later retry (the next
    /// threshold push or timeout pump). Blocking here would be a
    /// distributed deadlock: with zero-copy sends, buffers return only
    /// when the *receiving* helper drops the payload, and that helper may
    /// itself be aggregating replies from a starved pool.
    ///
    /// A dry pool opens a bounded exponential backoff gate (timed on the
    /// coarse clock): retries before the gate expires are skipped without
    /// touching the pool at all, so a starved emitter stops hammering the
    /// shared `ArrayQueue` head. `agg.pool_waits` counts genuine dry
    /// pops, `agg.pool_dry_waits` counts gated skips.
    fn aggregate(&self, dst: NodeId, cause: Flush) -> bool {
        let shared = &self.shared;
        let chan = &shared.channels[self.chan];
        let q = &shared.queues[dst];
        let now = shared.coarse_now_ns();
        if now < self.pool_retry_at_ns.get() {
            self.metrics().pool_dry_waits.add(self.chan, 1);
            return false;
        }
        let Some(mut buf) = chan.pool.free.pop() else {
            self.metrics().pool_waits.add(self.chan, 1);
            let backoff = self
                .pool_backoff_ns
                .get()
                .saturating_mul(2)
                .clamp(POOL_BACKOFF_MIN_NS, POOL_BACKOFF_MAX_NS);
            self.pool_backoff_ns.set(backoff);
            self.pool_retry_at_ns.set(now.saturating_add(backoff));
            return false;
        };
        self.pool_backoff_ns.set(0);
        self.pool_retry_at_ns.set(0);
        debug_assert!(buf.is_empty());
        // Reserve (zeroed) space for the transport header; the
        // communication server patches it in place before the send.
        buf.resize(shared.header_reserve, 0);
        while buf.len() < shared.buffer_size {
            match q.blocks.pop() {
                Some(block) => {
                    if buf.len() + block.len() <= shared.buffer_size {
                        q.bytes.fetch_sub(block.len(), Ordering::AcqRel);
                        buf.extend_from_slice(&block);
                        if shared.recycle_block(block) {
                            self.metrics().block_pool_drops.add(self.chan, 1);
                        }
                    } else {
                        // Does not fit: requeue and stop. Reordering is
                        // fine — GMT does not order independent commands.
                        let len = block.len();
                        q.blocks.push(block);
                        // The queue is still non-empty; keep its timestamp.
                        let _ = len;
                        break;
                    }
                }
                None => break,
            }
        }
        if q.blocks.is_empty() {
            q.oldest_push_ns.store(0, Ordering::Release);
            // Close the race with a producer that pushed between the
            // emptiness check and the reset: restore a stamp if anything
            // is queued now (see the invariant note in `push_block`).
            if !q.blocks.is_empty() {
                q.oldest_push_ns.store(shared.coarse_now_ns(), Ordering::Release);
            }
        } else {
            q.oldest_push_ns.store(shared.coarse_now_ns(), Ordering::Release);
        }
        if buf.len() <= shared.header_reserve {
            // No commands packed (a racing drain got there first).
            buf.clear();
            chan.pool.free.push(buf).expect("buffer pool overflow");
            return true;
        }
        self.metrics().buffers_filled.add(self.chan, 1);
        self.metrics().flush_fill.record(buf.len() as u64);
        match cause {
            Flush::Full => {}
            Flush::Aged => self.metrics().timeout_flushes.add(self.chan, 1),
            Flush::Idle => self.metrics().idle_flushes.add(self.chan, 1),
        }
        // Hand to the communication server. The pool bounds in-flight
        // buffers, so this cannot overflow unless buffers leak.
        let mut item = (dst, buf);
        loop {
            match chan.filled.push(item) {
                Ok(()) => break,
                Err(back) => {
                    item = back;
                    std::thread::yield_now();
                }
            }
        }
        (*shared.comm_bell).as_ref().ring();
        true
    }

    /// Periodic maintenance, called from the owning thread's main loop:
    /// ticks the coarse clock, pushes aged command blocks and drains aged
    /// aggregation queues.
    pub fn pump(&mut self) {
        let now = self.shared.tick();
        for dst in 0..self.active.len() {
            // Combining tables age on the block timeout: workers pump
            // every scheduler loop, so a merged add is delayed at most
            // one timeout past its emit — the liveness `wait_commands`
            // depends on. Exception: toward a backpressured peer, the
            // age-flush is deferred (the table keeps
            // merging, shedding fire-and-forget load off the full
            // window) until the peer recovers or the table ages past
            // `SHED_MAX_AGE_MULT` timeouts — the liveness bound holds,
            // just stretched while the peer is quarantined.
            let t = &self.combine[dst];
            if t.live > 0 && now.saturating_sub(t.born_ns) >= self.shared.cmd_block_timeout_ns {
                let shed = self.shared.flow.is_backpressured(dst)
                    && now.saturating_sub(t.born_ns)
                        < self.shared.cmd_block_timeout_ns.saturating_mul(SHED_MAX_AGE_MULT);
                if shed {
                    self.metrics().sheds.add(self.chan, 1);
                } else {
                    self.flush_combine(dst);
                }
            }
            let aged = matches!(&self.active[dst], Some(a) if a.entries > 0
                && now.saturating_sub(a.born_ns) >= self.shared.cmd_block_timeout_ns);
            if aged {
                self.push_block(dst);
            }
            let q = &self.shared.queues[dst];
            let oldest = q.oldest_push_ns.load(Ordering::Acquire);
            if oldest != 0 && now.saturating_sub(oldest) >= self.shared.aggregation_timeout_ns {
                self.aggregate(dst, Flush::Aged);
            }
        }
    }

    /// The quiescence flush: the owning thread has no task to run and no
    /// work to take, so nothing it holds can gain batching by waiting.
    /// Flushes every combining table, pushes every partial block and
    /// packs every non-empty aggregation queue into buffers at once —
    /// never blocking, like `aggregate`.
    ///
    /// Two things may stay behind: combined adds toward a backpressured
    /// peer (shed as in [`Self::pump`]) and blocks stranded by a dry
    /// buffer pool. Returns the coarse-clock time by which the thread
    /// should pump again for those, or `None` when nothing is left.
    pub fn flush_idle(&mut self) -> Option<u64> {
        let now = self.shared.coarse_now_ns();
        let mut pump_at: Option<u64> = None;
        for dst in 0..self.active.len() {
            if self.combine[dst].live > 0 {
                if self.shared.flow.is_backpressured(dst) {
                    let at = now.saturating_add(self.shared.cmd_block_timeout_ns);
                    pump_at = Some(pump_at.map_or(at, |p| p.min(at)));
                } else {
                    self.flush_combine(dst);
                }
            }
            self.push_block(dst);
            // `aggregate` packs one buffer per call: keep packing while
            // blocks remain (a dry pool may have left more than one
            // buffer's worth behind).
            for _ in 0..=self.shared.channels[self.chan].pool.capacity {
                if self.shared.queues[dst].queued_bytes() == 0 {
                    break;
                }
                if !self.aggregate(dst, Flush::Idle) {
                    let at = self.pool_retry_at_ns.get().max(now);
                    pump_at = Some(pump_at.map_or(at, |p| p.min(at)));
                    break;
                }
            }
        }
        pump_at
    }

    /// Pushes every active block and drains every queue this thread can
    /// see — used at shutdown and by tests.
    ///
    /// Waits (spin-yield) for pool buffers to come back when more than a
    /// pool's worth is queued, but gives up on a destination after a long
    /// stretch with no free buffer: that only happens when nobody is
    /// draining any more (peers already shut down), where the seed's
    /// behaviour would be to spin forever.
    pub fn flush_all(&mut self) {
        const MAX_STALLS: u32 = 1 << 20;
        for dst in 0..self.active.len() {
            self.flush_combine(dst);
            self.push_block(dst);
            let mut stalls: u32 = 0;
            while self.shared.queues[dst].queued_bytes() > 0 {
                if self.aggregate(dst, Flush::Idle) {
                    stalls = 0;
                } else {
                    stalls += 1;
                    if stalls > MAX_STALLS {
                        break;
                    }
                    // The empty-pool backoff gate times against the
                    // coarse clock, and at shutdown nobody else may be
                    // ticking it — advance it here so the gate can open.
                    self.shared.tick();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Immediately pushes the active block for `dst` (no aggregation),
    /// flushing pending combined adds into it first.
    pub fn flush_block(&mut self, dst: NodeId) {
        self.flush_combine(dst);
        self.push_block(dst);
    }

    pub fn shared(&self) -> &Arc<AggShared> {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(buffer_size: usize, entries: usize) -> Arc<AggShared> {
        AggShared::new(3, 2, 4, buffer_size, entries, u64::MAX / 2, u64::MAX / 2, 0, 0)
    }

    fn ack(token: u64) -> Command<'static> {
        Command::Ack { token }
    }

    /// Drains one channel like the communication server would, returning
    /// (dst, decoded command count) per buffer. Dropping each payload
    /// returns its buffer to the channel pool.
    fn drain(shared: &AggShared, chan: usize) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        while let Some((dst, payload)) = shared.channel(chan).pop_filled() {
            let n = crate::command::CommandIter::new(&payload).count();
            out.push((dst, n));
        }
        out
    }

    #[test]
    fn commands_accumulate_in_thread_local_block() {
        let shared = test_shared(1024, 100);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..10 {
            sink.emit(1, &ack(i));
        }
        // Nothing pushed yet: block not full, no timeout.
        assert_eq!(shared.queue(1).queued_bytes(), 0);
        assert_eq!(shared.stats().commands, 10);
        assert_eq!(shared.stats().blocks_pushed, 0);
    }

    #[test]
    fn full_block_moves_to_aggregation_queue() {
        let shared = test_shared(4096, 4);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..4 {
            sink.emit(2, &ack(i));
        }
        assert_eq!(shared.stats().blocks_pushed, 1);
        // 4 acks × 9 bytes each, below buffer size: no aggregation yet.
        assert_eq!(shared.queue(2).queued_bytes(), 36);
        assert!(drain(&shared, 0).is_empty());
    }

    #[test]
    fn buffer_threshold_triggers_aggregation() {
        // Buffer of 64 bytes; each ack is 9 bytes; blocks of 2 commands.
        let shared = test_shared(64, 2);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..8 {
            sink.emit(1, &ack(i));
        }
        // 4 blocks × 18 bytes = 72 ≥ 64 → aggregation fired.
        let drained = drain(&shared, 0);
        assert_eq!(drained.len(), 1);
        let (dst, n) = drained[0];
        assert_eq!(dst, 1);
        // 64-byte buffer fits 3 blocks (54 bytes) = 6 commands.
        assert_eq!(n, 6);
        // The 4th block was requeued.
        assert_eq!(shared.queue(1).queued_bytes(), 18);
    }

    #[test]
    fn flush_all_delivers_every_command() {
        let shared = test_shared(128, 5);
        let mut sink = CommandSink::new(Arc::clone(&shared), 1);
        let mut emitted = 0;
        for dst in [0usize, 1, 2] {
            for i in 0..13 {
                sink.emit(dst, &ack(i));
                emitted += 1;
            }
        }
        sink.flush_all();
        let mut total = 0;
        for (_, n) in drain(&shared, 1) {
            total += n;
        }
        assert_eq!(total, emitted);
        for dst in 0..3 {
            assert_eq!(shared.queue(dst).queued_bytes(), 0);
        }
    }

    #[test]
    fn pump_flushes_aged_blocks_and_queues() {
        let shared = AggShared::new(
            2, 1, 4, 1024, 100, /*block timeout*/ 0, /*agg timeout*/ 0, 0, 0,
        );
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &ack(42));
        // Timeouts of zero: the next pump must push and aggregate.
        sink.pump();
        let drained = drain(&shared, 0);
        assert_eq!(drained, vec![(1, 1)]);
        assert_eq!(shared.stats().timeout_flushes, 1);
    }

    #[test]
    fn flush_idle_ships_everything_without_a_timeout() {
        // Timeouts that never fire: only the quiescence flush can ship.
        let shared = AggShared::new(3, 1, 4, 1024, 100, u64::MAX / 2, u64::MAX / 2, 0, 4);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &ack(1));
        sink.emit(2, &ack(2));
        sink.emit(2, &Command::Add { token: 3, array: 9, offset: 8, delta: 1, dest: 0 });
        sink.pump();
        assert!(drain(&shared, 0).is_empty(), "nothing aged yet");
        assert_eq!(sink.flush_idle(), None, "nothing stranded");
        let mut drained = drain(&shared, 0);
        drained.sort_unstable();
        assert_eq!(drained, vec![(1, 1), (2, 2)], "blocks and the combined add all left");
        let stats = shared.stats();
        assert_eq!((stats.idle_flushes, stats.timeout_flushes), (2, 0));
        assert_eq!(sink.flush_idle(), None, "an empty sink flushes nothing");
        assert_eq!(shared.stats().buffers_filled, 2);
    }

    #[test]
    fn flush_idle_reports_blocks_stranded_by_a_dry_pool() {
        let shared = AggShared::new(2, 1, 1, 1024, 100, u64::MAX / 2, u64::MAX / 2, 0, 0);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &ack(1));
        assert_eq!(sink.flush_idle(), None);
        // The only buffer is in flight (not dropped yet): the next flush
        // strands its block and asks for a pump at the pool backoff.
        let in_flight = shared.channel(0).pop_filled().expect("first buffer");
        sink.emit(1, &ack(2));
        let now = shared.tick();
        let retry = sink.flush_idle().expect("stranded block");
        assert!(retry > now, "retry at the pool backoff, not now");
        assert!(shared.queue(1).queued_bytes() > 0);
        drop(in_flight);
        shared.tick();
        while shared.queue(1).queued_bytes() > 0 {
            std::thread::sleep(std::time::Duration::from_micros(50));
            shared.tick();
            sink.flush_idle();
        }
        assert_eq!(drain(&shared, 0), vec![(1, 1)]);
    }

    #[test]
    fn large_commands_get_their_own_blocks() {
        let shared = test_shared(256, 1000);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        let data = vec![7u8; 200];
        let cmd = Command::Put { token: 0, array: 1, offset: 0, data: &data };
        sink.emit(1, &cmd); // 229 bytes: nearly fills a block
        sink.emit(1, &cmd); // would overflow: first block pushed
        sink.flush_all();
        let total: usize = drain(&shared, 0).iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds aggregation buffer")]
    fn oversized_command_is_rejected() {
        let shared = test_shared(256, 10);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        let data = vec![0u8; 1000];
        sink.emit(1, &Command::Put { token: 0, array: 1, offset: 0, data: &data });
    }

    #[test]
    fn buffers_are_recycled_not_leaked() {
        let shared = test_shared(64, 1);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        // Many rounds; each round drains like the comm server.
        for round in 0..50 {
            for i in 0..8 {
                sink.emit(1, &ack(round * 8 + i));
            }
            sink.flush_all();
            let n: usize = drain(&shared, 0).iter().map(|&(_, n)| n).sum();
            assert_eq!(n, 8, "round {round}");
        }
        assert_eq!(shared.stats().commands, 400);
        // Every dropped payload returned its buffer: pool is whole again.
        assert_eq!(shared.channel(0).free_buffers(), shared.channel(0).pool_capacity());
    }

    #[test]
    fn multiple_threads_share_aggregation_queue() {
        let shared = test_shared(100_000, 1); // every command becomes a block
        let s1 = Arc::clone(&shared);
        let s2 = Arc::clone(&shared);
        let t1 = std::thread::spawn(move || {
            let mut sink = CommandSink::new(s1, 0);
            for i in 0..500 {
                sink.emit(1, &Command::Ack { token: i });
            }
        });
        let t2 = std::thread::spawn(move || {
            let mut sink = CommandSink::new(s2, 1);
            for i in 500..1000 {
                sink.emit(1, &Command::Ack { token: i });
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        // 1000 blocks of 9 bytes queued; drain via a third sink.
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.flush_all();
        let mut tokens: Vec<u64> = Vec::new();
        for chan in 0..shared.channels() {
            while let Some((_, payload)) = shared.channel(chan).pop_filled() {
                for cmd in crate::command::CommandIter::new(&payload) {
                    if let Command::Ack { token } = cmd {
                        tokens.push(token);
                    }
                }
            }
        }
        tokens.sort_unstable();
        assert_eq!(tokens, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn popped_payloads_are_pooled_and_release_on_drop() {
        let shared = test_shared(64, 2);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..8 {
            sink.emit(1, &ack(i));
        }
        sink.flush_all();
        let chan = shared.channel(0);
        let before_free = chan.free_buffers();
        let (_, payload) = chan.pop_filled().expect("a filled buffer");
        assert!(payload.is_pooled());
        assert_eq!(chan.free_buffers(), before_free);
        drop(payload);
        assert_eq!(chan.free_buffers(), before_free + 1);
    }

    #[test]
    fn block_pool_sized_for_zero_steady_state_drops() {
        // Full blocks (entries-limited) recycled across many rounds: the
        // pool sizing formula must absorb every block in circulation.
        // 20 acks/dst/round = 180 queued bytes/dst → one 256-byte buffer
        // per destination per flush, within the 4-buffer channel pool (a
        // single-threaded test must not outrun its own drain).
        let shared = test_shared(256, 4);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for round in 0..200u64 {
            for dst in [0usize, 1, 2] {
                for i in 0..20 {
                    sink.emit(dst, &ack(round * 20 + i));
                }
            }
            sink.flush_all();
            drain(&shared, 0);
        }
        let stats = shared.stats();
        assert_eq!(stats.commands, 200 * 3 * 20);
        assert_eq!(stats.block_pool_drops, 0, "steady-state recycling must not drop blocks");
    }

    #[test]
    fn coarse_clock_timeout_fires_within_one_pump() {
        // Real (small) timeouts: each pipeline level must flush within
        // one pump of aging past its timeout, with ages measured purely
        // by the coarse clock (no per-emit Instant reads). The block is
        // re-stamped when it enters the aggregation queue, so the two
        // levels age across two pump intervals.
        let shared = AggShared::new(2, 1, 4, 1024, 100, 1_000, 1_000, 0, 0);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &ack(7));
        assert!(drain(&shared, 0).is_empty());
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump(); // block aged past cmd_block_timeout → pushed
        assert!(shared.queue(1).queued_bytes() > 0 || shared.channel(0).backlog() > 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump(); // queue aged past aggregation_timeout → flushed
        assert_eq!(drain(&shared, 0), vec![(1, 1)]);
        assert!(shared.stats().timeout_flushes >= 1);
    }

    #[test]
    fn header_reserve_prefixes_every_buffer() {
        // With a 17-byte reserve, every filled buffer starts with 17 zero
        // bytes and the commands decode from the slice after them; the
        // buffer still returns whole to the pool.
        const HDR: usize = 17;
        let shared = AggShared::new(2, 1, 4, 256, 4, u64::MAX / 2, u64::MAX / 2, HDR, 0);
        assert_eq!(shared.header_reserve(), HDR);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..8 {
            sink.emit(1, &ack(i));
        }
        sink.flush_all();
        let chan = shared.channel(0);
        let mut decoded = 0usize;
        while let Some((dst, payload)) = chan.pop_filled() {
            assert_eq!(dst, 1);
            assert!(payload[..HDR].iter().all(|&b| b == 0), "reserve not zeroed");
            decoded += crate::command::CommandIter::new(&payload[HDR..]).count();
        }
        assert_eq!(decoded, 8);
        assert_eq!(chan.free_buffers(), chan.pool_capacity());
    }

    #[test]
    fn pool_stress_never_leaks_or_exceeds_capacity() {
        // Two emitter threads + one drainer hammering the buffer pools
        // through both the full-flush and timeout-flush paths. At
        // quiescence every buffer must be back in its pool.
        use std::sync::atomic::AtomicBool;
        let shared = AggShared::new(3, 2, 4, 128, 4, 0, 0, 0, 0);
        let stop = Arc::new(AtomicBool::new(false));
        let per_thread = 3_000u64;

        let drainer = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut commands = 0usize;
                let mut stopping = false;
                loop {
                    let mut idle = true;
                    for chan in 0..shared.channels() {
                        let q = shared.channel(chan);
                        assert!(q.free_buffers() <= q.pool_capacity(), "pool overflow");
                        if let Some((_, payload)) = q.pop_filled() {
                            commands += crate::command::CommandIter::new(&payload).count();
                            idle = false;
                            // payload drop returns the buffer to the pool
                        }
                    }
                    if idle {
                        // `stop` is set after the emitters joined, so a
                        // sweep *begun after observing it* that still
                        // finds nothing means the channels are drained
                        // (an idle sweep racing the last pushes is not
                        // enough — hence the two-step exit).
                        if stopping {
                            break;
                        }
                        stopping = stop.load(Ordering::Acquire);
                    }
                }
                commands
            })
        };

        let emitters: Vec<_> = (0..2)
            .map(|chan| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut sink = CommandSink::new(shared, chan);
                    for i in 0..per_thread {
                        sink.emit((i % 3) as NodeId, &ack(i));
                        if i % 7 == 0 {
                            sink.pump(); // timeout 0: exercises timeout flushes
                        }
                    }
                    sink.flush_all();
                })
            })
            .collect();
        for e in emitters {
            e.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let commands = drainer.join().unwrap();

        assert_eq!(commands as u64, 2 * per_thread);
        assert_eq!(shared.stats().commands, 2 * per_thread);
        for chan in 0..shared.channels() {
            let q = shared.channel(chan);
            assert_eq!(q.backlog(), 0);
            assert_eq!(q.free_buffers(), q.pool_capacity(), "channel {chan} leaked buffers");
        }
    }

    /// An AggShared with combining enabled (window 16) and huge timeouts.
    fn combining_shared(buffer_size: usize) -> Arc<AggShared> {
        AggShared::new(3, 2, 4, buffer_size, 64, u64::MAX / 2, u64::MAX / 2, 0, 16)
    }

    fn add(token: u64, offset: u64, delta: i64) -> Command<'static> {
        Command::Add { token, array: 1, offset, delta, dest: 0 }
    }

    /// Drains every wire command from one channel.
    fn drain_cmds(shared: &AggShared, chan: usize) -> Vec<(u64, u64, i64, Vec<u64>)> {
        // (array, offset, delta, tokens) per AddN; plain Adds map to a
        // one-token entry so tests can compare the two modes.
        let mut out = Vec::new();
        while let Some((_, payload)) = shared.channel(chan).pop_filled() {
            for cmd in crate::command::CommandIter::new(&payload) {
                match cmd {
                    Command::AddN { array, offset, delta, tokens } => {
                        out.push((array, offset, delta, crate::command::tokens(tokens).collect()))
                    }
                    Command::Add { token, array, offset, delta, .. } => {
                        out.push((array, offset, delta, vec![token]))
                    }
                    other => panic!("unexpected command {other:?}"),
                }
            }
        }
        out
    }

    #[test]
    fn combining_merges_same_cell_adds_into_one_command() {
        let shared = combining_shared(1024);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for t in 0..5 {
            sink.emit(1, &add(100 + t, 8, 3));
        }
        sink.emit(1, &add(200, 16, -1)); // different cell
        sink.flush_all();
        let mut got = drain_cmds(&shared, 0);
        got.sort_by_key(|&(_, offset, _, _)| offset);
        assert_eq!(got.len(), 2, "two cells → two wire commands");
        assert_eq!(got[0], (1, 8, 15, vec![100, 101, 102, 103, 104]));
        assert_eq!(got[1], (1, 16, -1, vec![200]));
        let stats = shared.stats();
        assert_eq!(stats.combine_hits, 4, "4 of 5 same-cell adds absorbed");
        assert_eq!(stats.combine_flushes, 2);
        assert_eq!(stats.commands, 2, "only wire commands are counted");
    }

    #[test]
    fn combining_off_passes_adds_through() {
        let shared = test_shared(1024, 64); // window 0
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for t in 0..5 {
            sink.emit(1, &add(t, 8, 3));
        }
        sink.flush_all();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got.len(), 5);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g, &(1, 8, 3, vec![i as u64]));
        }
        assert_eq!(shared.stats().combine_hits, 0);
    }

    #[test]
    fn window_overflow_flushes_whole_table() {
        let shared = combining_shared(4096);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        // 17 distinct cells: the 17th insert overflows the 16-wide table.
        for i in 0..17u64 {
            sink.emit(1, &add(i, i * 8, 1));
        }
        assert_eq!(shared.stats().combine_flushes, 16);
        sink.flush_all();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got.len(), 17);
    }

    #[test]
    fn full_entry_flushes_alone_and_merging_continues() {
        // Buffer 64 → combine_cap = (64 - 29) / 8 = 4 tokens per entry.
        let shared = combining_shared(64);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for t in 0..6 {
            sink.emit(1, &add(t, 8, 1));
        }
        sink.flush_all();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got.len(), 2);
        let total: i64 = got.iter().map(|g| g.2).sum();
        assert_eq!(total, 6);
        let mut tokens: Vec<u64> = got.iter().flat_map(|g| g.3.iter().copied()).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..6).collect::<Vec<_>>());
        assert!(got.iter().any(|g| g.3.len() == 4), "one entry flushed at the token cap");
    }

    #[test]
    fn blocking_adds_bypass_combining() {
        let shared = combining_shared(1024);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        // dest != 0: the caller wants the old value, must not merge.
        sink.emit(1, &Command::Add { token: 1, array: 1, offset: 8, delta: 1, dest: 0xBEEF });
        sink.emit(1, &Command::Add { token: 2, array: 1, offset: 8, delta: 1, dest: 0xBEEF });
        sink.flush_all();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got.len(), 2);
        assert_eq!(shared.stats().combine_hits, 0);
    }

    #[test]
    fn pump_flushes_aged_combining_table() {
        let shared = AggShared::new(2, 1, 4, 1024, 100, 1_000, 1_000, 0, 16);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &add(9, 8, 2));
        sink.emit(1, &add(10, 8, 2));
        assert!(drain_cmds(&shared, 0).is_empty(), "still merging");
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump(); // table aged → AddN into a block
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump(); // block + queue age out
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got, vec![(1, 8, 4, vec![9, 10])]);
    }

    #[test]
    fn flow_state_tracks_backpressured_peers() {
        let flow = FlowState::new(4);
        assert!(!flow.any());
        flow.set_backpressured(2, true);
        flow.set_backpressured(2, true); // idempotent
        assert!(flow.any());
        assert!(flow.is_backpressured(2));
        assert_eq!(flow.backpressured_peers(), vec![2]);
        flow.set_backpressured(1, true);
        assert_eq!(flow.backpressured_peers(), vec![1, 2]);
        flow.set_backpressured(2, false);
        flow.set_backpressured(2, false); // idempotent clear
        flow.set_backpressured(1, false);
        assert!(!flow.any());
        assert!(flow.backpressured_peers().is_empty());
    }

    #[test]
    fn dry_pool_retries_are_gated_by_backoff() {
        // 64-byte buffers, 4 per channel; hold every popped payload so
        // the pool runs dry, then keep crossing the aggregation
        // threshold. With the coarse clock frozen, the first dry pop
        // opens the backoff gate and every further attempt must be
        // swallowed by the gate instead of hitting the pool.
        let shared = test_shared(64, 2);
        shared.tick();
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        let mut held = Vec::new();
        let mut i = 0u64;
        while shared.channel(0).free_buffers() > 0 {
            sink.emit(1, &ack(i));
            i += 1;
            while let Some((_, p)) = shared.channel(0).pop_filled() {
                held.push(p);
            }
        }
        let dry_pops_before = shared.metrics.pool_waits.sum();
        for _ in 0..50 {
            for _ in 0..8 {
                sink.emit(1, &ack(i));
                i += 1;
            }
        }
        let dry_pops = shared.metrics.pool_waits.sum() - dry_pops_before;
        let stats = shared.stats();
        assert!(dry_pops >= 1, "the pool must have been found dry");
        assert!(stats.pool_dry_waits > 0, "the gate must swallow retries");
        assert!(
            stats.pool_dry_waits > dry_pops,
            "gated skips ({}) must outnumber dry pops ({dry_pops}) while the clock is frozen",
            stats.pool_dry_waits,
        );
        // Release the buffers and advance the clock past the gate: the
        // next threshold crossing must fill a buffer again, and a
        // successful pop resets the backoff.
        drop(held);
        shared.tick();
        let filled_before = shared.metrics.buffers_filled.sum();
        for _ in 0..8 {
            sink.emit(1, &ack(i));
            i += 1;
        }
        assert!(
            shared.metrics.buffers_filled.sum() > filled_before,
            "aggregation must resume once buffers return and the gate expires"
        );
        assert_eq!(sink.pool_backoff_ns.get(), 0, "success resets the backoff");
        drain(&shared, 0);
    }

    #[test]
    fn backpressured_peer_sheds_combine_age_flush() {
        // 10 ms timeouts so a 12 ms sleep lands the table's age inside
        // the shed window [timeout, 8 * timeout) even on a loaded host.
        let shared = AggShared::new(2, 1, 4, 1024, 100, 10_000_000, 10_000_000, 0, 16);
        shared.flow().set_backpressured(1, true);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &add(9, 8, 2));
        std::thread::sleep(std::time::Duration::from_millis(12));
        sink.pump(); // aged, but backpressured → deferred, keeps merging
        assert!(drain_cmds(&shared, 0).is_empty(), "flush deferred while backpressured");
        assert!(shared.stats().sheds >= 1);
        sink.emit(1, &add(10, 8, 2)); // absorbed into the still-live entry
        assert_eq!(shared.stats().combine_hits, 1);
        shared.flow().set_backpressured(1, false);
        std::thread::sleep(std::time::Duration::from_millis(12));
        sink.pump(); // recovered → table flushes into a block
        std::thread::sleep(std::time::Duration::from_millis(12));
        sink.pump(); // block + queue age out
        std::thread::sleep(std::time::Duration::from_millis(12));
        sink.pump();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got, vec![(1, 8, 4, vec![9, 10])]);
    }

    #[test]
    fn shed_deferral_is_bounded() {
        // The peer never recovers, but the table still flushes once it
        // ages past SHED_MAX_AGE_MULT block timeouts (2 ms ≫ 8 µs).
        let shared = AggShared::new(2, 1, 4, 1024, 100, 1_000, 1_000, 0, 16);
        shared.flow().set_backpressured(1, true);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &add(5, 8, 1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump(); // past the deferral bound → forced flush
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump();
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got, vec![(1, 8, 1, vec![5])]);
    }
}
