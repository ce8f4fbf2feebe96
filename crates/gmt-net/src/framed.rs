//! The framed-transport core under the TCP and shm backends.
//!
//! Both real backends move `[len u32 LE][tag u32 LE]` frames plus `len`
//! payload bytes between a fixed set of nodes, and differ only in the
//! medium. [`FramedTransport`] implements [`Transport`] once over a
//! backend's [`FrameLink`], which supplies only: writing one frame (once
//! per copy), its receive step (shm polls its rings and parks on its
//! doorbell; TCP's reader thread feeds the inbox), the frames pending
//! below the inbox, severing one peer on a kill fault, closing on
//! shutdown, and its backend counters.
//!
//! The core owns the rest: the send preamble and zero-copy self-send,
//! the inbox and receive pool, the frame header codec, the background
//! thread (TCP's reader, shm's monitor) and an idempotent shutdown. It
//! guarantees per-link FIFO (the inbox is read before anything below
//! it), pooled receive payloads, and a bounded shutdown: later sends
//! fail `Closed`, inbox packets stay receivable, and frames still below
//! the inbox are dropped as plain bytes, so no pooled buffer leaks.
//!
//! # Fault shim
//!
//! [`Transport::install_faults`] applies a seeded [`FaultPlan`] in
//! userspace at the frame layer: drop skips the write, duplicate writes
//! the frame twice, a flap window drops every frame inside it. The sim
//! fabric's decision function and per-link counters drive it, so a seed
//! replays the same loss pattern on every backend. A kill severs both
//! directions to the killed peer for good — in-flight frames are lost
//! and the victim sees the cut first-hand, as after a real crash, and
//! [`Transport::clear_faults`] cannot undo it. Jitter, throttle and
//! stall need the cost model and stay sim-only. Over TCP an installed
//! shim also fragments every frame across writes, so reassembly over
//! partial reads runs deterministically.
//!
//! # Connection-loss evidence
//!
//! Whatever breaks a link — EOF, a reset or a failed write on TCP; a
//! `GONE` slot, a severed ring or a vanished pid on shm — takes one
//! path: a sticky per-peer flag behind [`Transport::link_down`] and
//! [`Transport::observed_kill`], one `conn_lost` count per peer, and,
//! when the runtime enables warnings, a line naming the peer and the
//! cause. The failure detector treats it like an observed kill, so a
//! crashed peer is declared dead in detection time, not retry-budget
//! time. Evidence stops once our own shutdown began: tearing down our
//! links makes peers lose us, not the reverse.

use crate::fabric::{NetError, Packet, Tag};
use crate::fault::{FaultPlan, InstalledPlan};
use crate::payload::{BufRelease, Payload};
use crate::stats::TrafficStats;
use crate::tcp::Bootstrap;
use crate::transport::Transport;
use crate::NodeId;
use crossbeam::channel::{self, Receiver, Sender};
use crossbeam::queue::SegQueue;
use parking_lot::{Mutex, RwLock};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame header: payload length + tag, both `u32` little-endian.
pub(crate) const FRAME_HEADER: usize = 8;

/// Refuse frames larger than this (a corrupt or hostile length prefix
/// must not allocate gigabytes). The aggregation layer's buffers are a
/// few KiB; 64 MiB leaves room for any future bulk path.
pub const MAX_FRAME: usize = 64 << 20;

/// Encodes a frame header.
pub(crate) fn encode_header(len: usize, tag: Tag) -> [u8; FRAME_HEADER] {
    let mut hdr = [0u8; FRAME_HEADER];
    hdr[..4].copy_from_slice(&(len as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&tag.to_le_bytes());
    hdr
}

/// Decodes a frame header into `(payload length, tag)`; `None` for a
/// length past [`MAX_FRAME`] — a stream that says so can never
/// re-synchronize.
pub(crate) fn decode_header(hdr: &[u8]) -> Option<(usize, Tag)> {
    let len = u32::from_le_bytes(hdr[..4].try_into().expect("4-byte slice")) as usize;
    let tag = Tag::from_le_bytes(hdr[4..FRAME_HEADER].try_into().expect("4-byte slice"));
    (len <= MAX_FRAME).then_some((len, tag))
}

/// Receive buffers cached per transport; beyond this, spent buffers are
/// freed instead of re-pooled.
const RECV_POOL_CAP: usize = 256;

/// How long construction-time handshakes (rendezvous registration, mesh
/// accepts, hello reads, shm attach) may take before giving up with an
/// error — a crashed peer must fail the launch, not hang it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// The handshake deadline, overridable via `GMT_RDV_TIMEOUT_MS` so tests
/// and chaos harnesses can fail a doomed launch in milliseconds instead
/// of the default 60 s.
pub(crate) fn handshake_timeout() -> Duration {
    std::env::var("GMT_RDV_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(HANDSHAKE_TIMEOUT)
}

/// Re-runs `probe` every 2 ms until it succeeds, or returns its last
/// error once `deadline` passed — the handshake and barrier waits.
pub(crate) fn poll_until<T, E>(
    deadline: Instant,
    mut probe: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    loop {
        let outcome = probe();
        if outcome.is_ok() || Instant::now() >= deadline {
            return outcome;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Pool of receive buffers. Incoming frames are copied into a pooled
/// `Vec` and delivered as a pooled [`Payload`], so the receive side
/// recycles buffers exactly like the sim's channel pools do.
pub(crate) struct RecvPool {
    bufs: SegQueue<Vec<u8>>,
}

impl BufRelease for RecvPool {
    fn release(&self, mut buf: Vec<u8>) {
        if self.bufs.len() < RECV_POOL_CAP {
            buf.clear();
            self.bufs.push(buf);
        }
    }
}

/// The state a framed transport shares with its background thread:
/// identity, stats, the inbox and receive pool, the stop flag and the
/// sticky link-down evidence. A [`FrameLink`] gets it on every call.
pub struct FrameCore {
    pub(crate) node: NodeId,
    pub(crate) nodes: usize,
    pub(crate) stats: Arc<TrafficStats>,
    /// Sticky per-peer connection-loss evidence (see the module docs).
    link_down: Vec<AtomicBool>,
    /// Whether connection-loss events print a warning line; the runtime
    /// wires its `log_net_warnings` config here at boot.
    log_warnings: AtomicBool,
    stop: AtomicBool,
    inbox_tx: Sender<Packet>,
    pub(crate) inbox_rx: Receiver<Packet>,
    pool: Arc<RecvPool>,
}

impl FrameCore {
    /// Whether this transport's shutdown began.
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    pub(crate) fn link_down(&self, peer: NodeId) -> bool {
        self.link_down[peer].load(Ordering::Acquire)
    }

    /// Records first-hand evidence that the link to `peer` broke: a
    /// sticky link-down flag (feeds [`Transport::observed_kill`]), one
    /// `conn_lost` count per peer, and a warning line when enabled.
    /// Suppressed once our own shutdown began.
    pub(crate) fn note_conn_lost(&self, peer: NodeId, cause: &str) {
        if self.stopped() {
            return;
        }
        if self.link_down[peer].swap(true, Ordering::AcqRel) {
            return; // first evidence for this peer already recorded
        }
        self.stats.record_conn_lost(self.node);
        if self.log_warnings.load(Ordering::Relaxed) {
            eprintln!("[gmt-net] node {}: connection to node {peer} lost: {cause}", self.node);
        }
    }

    /// A send toward `peer` found its link broken just now: records the
    /// evidence and returns the error the send reports. Recovering the
    /// peer is the reliability layer's job.
    pub(crate) fn lost(&self, peer: NodeId, cause: &str) -> NetError {
        self.note_conn_lost(peer, cause);
        NetError::LinkDown { src: self.node, dst: peer }
    }

    /// Puts a packet in the inbox. An unbounded channel cannot be full,
    /// and it lives as long as this core, so the send cannot fail.
    pub(crate) fn spill(&self, pkt: Packet) {
        let _ = self.inbox_tx.send(pkt);
    }

    /// An empty receive buffer from the pool.
    pub(crate) fn recv_buf(&self) -> Vec<u8> {
        self.pool.bufs.pop().unwrap_or_default()
    }

    /// Wraps a received frame body (a [`FrameCore::recv_buf`] buffer) as
    /// a pooled packet from `src`, counting it received.
    pub(crate) fn packet(&self, src: NodeId, tag: Tag, buf: Vec<u8>) -> Packet {
        self.stats.record_recv(self.node, buf.len());
        let payload = Payload::pooled(buf, Arc::clone(&self.pool) as Arc<dyn BufRelease>);
        Packet { src, dst: self.node, tag, payload }
    }

    /// One receive attempt: the inbox first (self-sends and spills are
    /// older than anything still below it, so per-link FIFO holds), then
    /// the link's own frames — unless shutdown began, after which only
    /// the inbox stays receivable.
    pub(crate) fn try_recv(&self, link: &impl FrameLink) -> Option<Packet> {
        if let Ok(pkt) = self.inbox_rx.try_recv() {
            return Some(pkt);
        }
        if self.stopped() {
            return None;
        }
        link.poll(self)
    }
}

/// The medium under a [`FramedTransport`]: what a backend supplies (see
/// the module docs). Every method gets the shared [`FrameCore`].
pub trait FrameLink: Send + Sync + 'static {
    /// Writes `copies` back-to-back copies of one frame toward `dst`
    /// (never this node). `shimmed` says a fault shim is installed. A
    /// link that breaks while writing reports it through
    /// `FrameCore::lost`.
    fn write(
        &self,
        core: &FrameCore,
        dst: NodeId,
        tag: Tag,
        bytes: &[u8],
        copies: usize,
        shimmed: bool,
    ) -> Result<(), NetError>;

    /// Pops one frame still below the inbox. Default: none — the
    /// backend's thread delivers straight into the inbox.
    fn poll(&self, _core: &FrameCore) -> Option<Packet> {
        None
    }

    /// Blocking receive with timeout. Default: wait on the inbox.
    fn recv_timeout(&self, core: &FrameCore, timeout: Duration) -> Option<Packet> {
        core.inbox_rx.recv_timeout(timeout).ok()
    }

    /// Frames below the inbox (counted by [`Transport::pending`]).
    fn pending(&self, _core: &FrameCore) -> usize {
        0
    }

    /// Cuts both directions between this node and `peer` for good.
    fn sever(&self, core: &FrameCore, peer: NodeId);

    /// Closes the medium at shutdown; the stop flag is already set.
    fn close(&self, core: &FrameCore);

    /// See [`Transport::backend_counters`].
    fn backend_counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// One node's attachment to a framed mesh: the [`Transport`]
/// implementation shared by [`TcpTransport`](crate::TcpTransport) and
/// [`ShmTransport`](crate::ShmTransport). See the module docs.
pub struct FramedTransport<L: FrameLink> {
    core: Arc<FrameCore>,
    link: L,
    shim: RwLock<Option<InstalledPlan>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl<L: FrameLink> FramedTransport<L> {
    /// Assembles node `node`'s transport over `link` and spawns its
    /// background thread `thread_name` running `body`, which must return
    /// once [`FrameCore::stopped`] holds.
    pub(crate) fn new(
        node: NodeId,
        nodes: usize,
        stats: Arc<TrafficStats>,
        link: L,
        thread_name: String,
        body: impl FnOnce(Arc<FrameCore>) + Send + 'static,
    ) -> io::Result<FramedTransport<L>> {
        let (inbox_tx, inbox_rx) = channel::unbounded();
        let core = Arc::new(FrameCore {
            node,
            nodes,
            stats,
            link_down: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            log_warnings: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            inbox_tx,
            inbox_rx,
            pool: Arc::new(RecvPool { bufs: SegQueue::new() }),
        });
        let thread = {
            let core = Arc::clone(&core);
            std::thread::Builder::new().name(thread_name).spawn(move || body(core))?
        };
        Ok(FramedTransport {
            core,
            link,
            shim: RwLock::new(None),
            thread: Mutex::new(Some(thread)),
        })
    }
}

impl<L: FrameLink> Transport for FramedTransport<L> {
    fn node(&self) -> NodeId {
        self.core.node
    }

    fn nodes(&self) -> usize {
        self.core.nodes
    }

    fn send(&self, dst: NodeId, tag: Tag, payload: Payload) -> Result<(), NetError> {
        let core = &*self.core;
        if dst >= core.nodes {
            return Err(NetError::NoSuchNode { dst, nodes: core.nodes });
        }
        if core.stopped() {
            return Err(NetError::Closed);
        }
        let bytes = payload.as_slice();
        let len = bytes.len();
        assert!(len <= MAX_FRAME, "frame larger than MAX_FRAME");
        core.stats.record_send(core.node, len);

        // Fault shim, applied before the bytes reach the medium.
        let mut duplicate = false;
        let shimmed = {
            let shim = self.shim.read();
            if let Some(plan) = shim.as_ref() {
                let d = plan.decide(core.node, dst);
                if d.drop {
                    // Silent loss: the sender's NIC does not know the
                    // switch ate the frame. Dropping the payload here
                    // releases any pooled buffer.
                    core.stats.record_drop(core.node);
                    return Ok(());
                }
                duplicate = d.duplicate;
            }
            shim.is_some()
        };
        if duplicate {
            core.stats.record_dup(core.node);
        }

        if dst == core.node {
            // Self-send: loop straight into the inbox, zero-copy.
            if duplicate {
                core.spill(Packet { src: core.node, dst, tag, payload: payload.clone() });
                core.stats.record_recv(core.node, len);
            }
            core.stats.record_recv(core.node, len);
            core.spill(Packet { src: core.node, dst, tag, payload });
            return Ok(());
        }

        self.link.write(core, dst, tag, bytes, if duplicate { 2 } else { 1 }, shimmed)
    }

    fn try_recv(&self) -> Option<Packet> {
        self.core.try_recv(&self.link)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
        self.link.recv_timeout(&self.core, timeout)
    }

    fn pending(&self) -> usize {
        self.core.inbox_rx.len() + self.link.pending(&self.core)
    }

    fn observed_kill(&self, node: NodeId) -> bool {
        self.link_down(node) || self.shim.read().as_ref().is_some_and(|s| s.plan.is_killed(node))
    }

    fn link_down(&self, node: NodeId) -> bool {
        self.core.link_down(node)
    }

    fn set_log_warnings(&self, on: bool) {
        self.core.log_warnings.store(on, Ordering::Relaxed);
    }

    fn stats(&self) -> &TrafficStats {
        &self.core.stats
    }

    fn stats_arc(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.core.stats)
    }

    fn backend_counters(&self) -> Vec<(String, u64)> {
        self.link.backend_counters()
    }

    /// Installs `plan` as this sender's frame shim (see the module
    /// docs), severing every link a kill fault touches. Replaces any
    /// previous plan; decisions restart from packet 0 like the fabric's
    /// `install_faults`.
    fn install_faults(&self, plan: FaultPlan) {
        let core = &*self.core;
        let self_killed = plan.is_killed(core.node);
        for peer in (0..core.nodes).filter(|&p| p != core.node) {
            if self_killed || plan.is_killed(peer) {
                self.link.sever(core, peer);
            }
        }
        *self.shim.write() = Some(InstalledPlan::new(plan, 1, core.nodes));
    }

    fn clear_faults(&self) {
        *self.shim.write() = None;
    }

    fn shutdown(&self) {
        if self.core.stop.swap(true, Ordering::AcqRel) {
            return; // idempotent
        }
        self.link.close(&self.core);
        // The background thread polls `stop`, so this join is bounded.
        if let Some(h) = self.thread.lock().take() {
            h.join().ok();
        }
    }
}

impl<L: FrameLink> Drop for FramedTransport<L> {
    fn drop(&mut self) {
        Transport::shutdown(self);
    }
}

/// Done byte on a TCP control stream.
const CONTROL_DONE: u8 = 0xD0;

/// The end-of-job done barrier left over after [`connect`]: the
/// rendezvous streams on TCP (node 0 keeps one per peer, each peer its
/// stream to node 0), the segment's done words on shm. The launcher uses
/// it so peers know when to shut down — a runtime has no
/// application-level "job finished" broadcast. Node 0 waits on every
/// peer, peers wait on node 0, and a counterpart that is gone (EOF, a
/// `GONE` slot, a vanished pid) counts as done: it cannot be waited on.
pub struct Control(pub(crate) Barrier);

pub(crate) enum Barrier {
    /// The TCP streams to the counterparts, labeled with their node ids
    /// so barrier timeouts can name who went missing.
    Streams(Vec<(NodeId, TcpStream)>),
    /// The shm segment's per-node done words.
    Segment(crate::shm::DoneWords),
}

impl Control {
    /// Signals done to the other side(s). Errors are swallowed — a peer
    /// that already exited has effectively acknowledged.
    pub fn signal_done(&mut self) {
        match &mut self.0 {
            Barrier::Segment(words) => words.signal_done(),
            Barrier::Streams(streams) => {
                for (_, s) in streams {
                    s.write_all(&[CONTROL_DONE]).ok();
                    s.flush().ok();
                }
            }
        }
    }

    /// Waits at most `timeout` for the other side(s) to signal done or
    /// disappear, and returns the ids of nodes that did neither — the
    /// barrier reports *who* went missing instead of hanging the
    /// launcher.
    pub fn wait_done_timeout(&mut self, timeout: Duration) -> Result<(), Vec<NodeId>> {
        let mut waiting = match &self.0 {
            Barrier::Streams(streams) => streams.iter().map(|(id, _)| *id).collect(),
            Barrier::Segment(words) => words.counterparts(),
        };
        poll_until(Instant::now() + timeout, || {
            waiting.retain(|&id| !self.done(id));
            if waiting.is_empty() {
                Ok(())
            } else {
                Err(waiting.clone())
            }
        })
    }

    /// Whether counterpart `id` signalled done (consuming its done byte
    /// on TCP) or is gone.
    fn done(&mut self, id: NodeId) -> bool {
        let s = match &mut self.0 {
            Barrier::Segment(words) => return words.done(id),
            Barrier::Streams(streams) => {
                &mut streams.iter_mut().find(|(peer, _)| *peer == id).expect("counterpart").1
            }
        };
        s.set_nonblocking(true).ok();
        let read = s.read(&mut [0u8; 1]);
        s.set_nonblocking(false).ok();
        // A byte, EOF or a dead connection all count as done.
        !matches!(read, Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted))
    }
}

/// Joins this process to an N-node framed mesh as `node`: a
/// [`Bootstrap::Shm`] attaches the shared-memory segment
/// ([`crate::shm::attach`]), every other form runs the TCP
/// [`rendezvous`](crate::tcp::rendezvous). Returns the transport and its
/// done barrier.
pub fn connect(
    node: NodeId,
    nodes: usize,
    bootstrap: &Bootstrap,
) -> io::Result<(Arc<dyn Transport>, Control)> {
    Ok(match bootstrap {
        Bootstrap::Shm(path) => {
            let (t, c) = crate::shm::attach(node, nodes, path)?;
            (Arc::new(t), c)
        }
        _ => {
            let (t, c) = crate::tcp::rendezvous(node, nodes, bootstrap)?;
            (Arc::new(t), c)
        }
    })
}

/// The conformance suite: every test body runs over both backends
/// (`tcp::*` on a TCP loopback mesh, `shm::*` on a shared-memory ring
/// mesh). Backend-specific behaviour is tested in `tcp.rs` and `shm.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    type Mesh<T> = fn(usize) -> io::Result<Vec<T>>;

    fn payload(bytes: Vec<u8>) -> Payload {
        Payload::from(bytes)
    }

    /// Polls until `cond` holds, failing the test at the deadline.
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn frames_roundtrip<T: Transport>(mesh: Mesh<T>) {
        let mesh = mesh(2).expect("mesh");
        let (a, b) = (&mesh[0], &mesh[1]);
        for len in [0usize, 1, 7, 4096, 100_000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            a.send(1, 42, payload(bytes.clone())).expect("send");
            let got = b.recv_timeout(Duration::from_secs(10)).expect("frame arrives");
            assert_eq!((got.src, got.dst, got.tag), (0, 1, 42));
            assert_eq!(got.payload.as_slice(), &bytes[..]);
            assert!(got.payload.is_pooled(), "receive side must pool buffers");
        }
        assert_eq!(a.stats().node(0).sent_msgs, 5);
        assert_eq!(b.stats().node(1).recv_msgs, 5);
    }

    fn self_send_loops_back<T: Transport>(mesh: Mesh<T>) {
        for nodes in [1, 2] {
            let mesh = mesh(nodes).expect("mesh");
            mesh[0].send(0, 7, payload(vec![1, 2, 3])).expect("send");
            let got = mesh[0].recv_timeout(Duration::from_secs(5)).expect("self packet");
            assert_eq!((got.src, got.dst, got.tag), (0, 0, 7));
            assert_eq!(got.payload.as_slice(), &[1, 2, 3]);
        }
    }

    fn per_link_fifo_is_preserved<T: Transport>(mesh: Mesh<T>) {
        let mesh = mesh(2).expect("mesh");
        for i in 0..500u32 {
            mesh[0].send(1, i, payload(i.to_le_bytes().to_vec())).expect("send");
        }
        for i in 0..500u32 {
            let got = mesh[1].recv_timeout(Duration::from_secs(10)).expect("packet");
            assert_eq!(got.tag, i, "frames arrived out of order");
            assert_eq!(got.payload.as_slice(), &i.to_le_bytes());
        }
    }

    fn shim_drop_blackholes_and_counts<T: Transport>(mesh: Mesh<T>) {
        let mesh = mesh(2).expect("mesh");
        mesh[0].install_faults(FaultPlan::new(0xD0D0).drop(0, 1, 1.0));
        for i in 0..10u32 {
            mesh[0].send(1, i, payload(vec![1, 2, 3])).expect("drop is a successful send");
        }
        assert_eq!(mesh[0].stats().node(0).dropped_msgs, 10);
        assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
        mesh[0].clear_faults();
        mesh[0].send(1, 99, payload(vec![4])).expect("send");
        let got = mesh[1].recv_timeout(Duration::from_secs(10)).expect("clear_faults restores");
        assert_eq!(got.tag, 99);
    }

    fn shim_dup_delivers_twice<T: Transport>(mesh: Mesh<T>) {
        let mesh = mesh(2).expect("mesh");
        mesh[0].install_faults(FaultPlan::new(0xD1D1).dup(0, 1, 1.0));
        mesh[0].send(1, 5, payload(vec![9u8; 33])).expect("send");
        let first = mesh[1].recv_timeout(Duration::from_secs(10)).expect("first copy");
        let second = mesh[1].recv_timeout(Duration::from_secs(10)).expect("second copy");
        assert_eq!((first.tag, second.tag), (5, 5));
        assert_eq!(first.payload, second.payload);
        assert_eq!(mesh[0].stats().node(0).duplicated_msgs, 1);
    }

    fn killed_peer_is_observed_and_blackholed<T: Transport>(mesh: Mesh<T>) {
        let mesh = mesh(3).expect("mesh");
        mesh[0].install_faults(FaultPlan::new(0xC0DE).kill(1));
        assert!(mesh[0].observed_kill(1));
        assert!(!mesh[0].observed_kill(0));
        assert!(!mesh[0].observed_kill(2));
        // Blackholed sends still succeed (the shim drops them silently,
        // like the fabric), and nothing arrives.
        mesh[0].send(1, 0, payload(vec![1])).expect("blackholed send succeeds");
        assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
        // The unrelated link still works.
        mesh[0].send(2, 1, payload(vec![2])).expect("send");
        assert!(mesh[2].recv_timeout(Duration::from_secs(10)).is_some());
    }

    fn kill_fault_severs_both_sides<T: Transport>(mesh: Mesh<T>) {
        let mesh = mesh(2).expect("mesh");
        mesh[0].install_faults(FaultPlan::new(0xDEAD).kill(1));
        // The killer's view: blackholed sends still succeed, the kill is
        // observed through the plan.
        assert!(mesh[0].observed_kill(1));
        mesh[0].send(1, 1, payload(vec![1])).expect("blackholed send succeeds");
        assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
        // The victim's view: the link died under it — exactly what a
        // real crash of node 0 would look like — and that loss is
        // first-hand evidence, with no fault plan installed on its side.
        wait_for("victim to observe the severed link", || mesh[1].link_down(0));
        assert!(mesh[1].observed_kill(0));
        assert!(mesh[1].stats().node(1).conn_lost >= 1);
    }

    fn flap_window_drops_frames_then_recovers<T: Transport>(mesh: Mesh<T>) {
        let mesh = mesh(2).expect("mesh");
        // Link 0->1 is down for the first 200 ms after install.
        mesh[0].install_faults(FaultPlan::new(3).flap(0, 1, 0, 200_000_000));
        mesh[0].send(1, 5, payload(vec![2u8; 16])).expect("flapped send succeeds");
        assert_eq!(mesh[0].stats().node(0).dropped_msgs, 1, "in-window frame must drop");
        assert!(mesh[1].recv_timeout(Duration::from_millis(100)).is_none());
        std::thread::sleep(Duration::from_millis(150));
        mesh[0].send(1, 6, payload(vec![3u8; 16])).expect("send");
        let got = mesh[1].recv_timeout(Duration::from_secs(10)).expect("post-window frame");
        assert_eq!(got.tag, 6, "the dropped frame must not reappear");
        // A flap is not a kill: no sticky evidence on either side.
        assert!(!mesh[0].observed_kill(1));
        assert!(!mesh[1].link_down(0));
    }

    fn shutdown_mid_traffic_neither_hangs_nor_errors<T: Transport + 'static>(mesh: Mesh<T>) {
        let mesh = Arc::new(mesh(2).expect("mesh"));
        let hammer = std::thread::spawn({
            let mesh = Arc::clone(&mesh);
            // Sends until the transport reports closed or down.
            move || loop {
                match mesh[0].send(1, 0, payload(vec![5u8; 512])) {
                    Ok(()) => {}
                    Err(NetError::Closed) | Err(NetError::LinkDown { .. }) => return,
                    Err(e) => panic!("unexpected send error: {e:?}"),
                }
            }
        });
        // Receive some traffic, then shut down while the peer still sends.
        for _ in 0..50 {
            if mesh[1].recv_timeout(Duration::from_secs(10)).is_none() {
                break;
            }
        }
        mesh[1].shutdown();
        mesh[1].shutdown(); // idempotent
        assert!(matches!(mesh[1].send(0, 0, payload(vec![1])), Err(NetError::Closed)));
        // Already-queued packets stay receivable after shutdown.
        while mesh[1].try_recv().is_some() {}
        // The sender sees its peer gone.
        hammer.join().expect("sender thread");
        mesh[0].shutdown();
        assert!(matches!(mesh[0].send(1, 0, payload(vec![1])), Err(NetError::Closed)));
    }

    fn lost_peer_is_evidence_counted_once<T: Transport>(mesh: Mesh<T>) {
        let mut mesh = mesh(2).expect("mesh");
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        a.send(1, 0, payload(vec![1])).expect("send");
        b.recv_timeout(Duration::from_secs(10)).expect("frame");
        assert!(!a.link_down(1) && !a.observed_kill(1), "no evidence before the loss");

        // b dies (shutdown closes its links like a process exit would).
        b.shutdown();
        wait_for("peer loss to become link-down evidence", || a.link_down(1));
        assert!(a.observed_kill(1), "observed_kill must reflect link-down evidence");
        assert!(!a.link_down(0), "a node never loses the link to itself");

        // The send path hits the dead link too; the loss stays counted
        // once per peer no matter how many paths observe it.
        loop {
            match a.send(1, 0, payload(vec![7u8; 64])) {
                Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                Err(NetError::LinkDown { src: 0, dst: 1 }) => break,
                Err(e) => panic!("unexpected send error: {e:?}"),
            }
        }
        assert_eq!(a.stats().node(0).conn_lost, 1);
        // The node that shut down records nothing (its own stop
        // suppresses evidence), and neither does a's own shutdown.
        assert_eq!(a.stats().node(1).conn_lost, 0);
        a.shutdown();
        assert_eq!(a.stats().node(0).conn_lost, 1);
    }

    /// Three nodes join through [`connect`]; node 1 signals done and
    /// node 2 stays silent, so node 0's bounded wait names exactly
    /// node 2 instead of hanging.
    fn done_barrier_timeout_names_the_missing_node(boot: fn(PathBuf) -> Bootstrap) {
        let dir = std::env::temp_dir().join(format!(
            "gmt-barrier-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let boot = boot(dir.join("bootstrap"));
        let handles: Vec<_> = (0..3)
            .map(|node| {
                let boot = boot.clone();
                std::thread::spawn(move || connect(node, 3, &boot).expect("connect"))
            })
            .collect();
        let mut ends: Vec<(Arc<dyn Transport>, Control)> =
            handles.into_iter().map(|h| h.join().expect("node thread")).collect();
        ends[1].1.signal_done();
        let t0 = Instant::now();
        assert_eq!(ends[0].1.wait_done_timeout(Duration::from_millis(300)), Err(vec![2]));
        assert!(t0.elapsed() < Duration::from_secs(5));
        ends[1].1.signal_done();
        ends[2].1.signal_done();
        assert_eq!(ends[0].1.wait_done_timeout(Duration::from_secs(5)), Ok(()));
        // Peers that went away count as done (EOF, or a GONE slot).
        ends.truncate(1);
        assert_eq!(ends[0].1.wait_done_timeout(Duration::from_secs(5)), Ok(()));
        std::fs::remove_dir_all(&dir).ok();
    }

    macro_rules! over_both_backends {
        ($($body:ident),* $(,)?) => {
            mod tcp {
                $( #[test] fn $body() { super::$body(crate::tcp::loopback_mesh) } )*

                #[test]
                fn done_barrier_timeout_names_the_missing_node() {
                    super::done_barrier_timeout_names_the_missing_node(crate::Bootstrap::File)
                }
            }
            mod shm {
                $( #[test] fn $body() { super::$body(crate::shm::shm_mesh) } )*

                #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
                #[test]
                fn done_barrier_timeout_names_the_missing_node() {
                    super::done_barrier_timeout_names_the_missing_node(crate::Bootstrap::Shm)
                }
            }
        };
    }

    over_both_backends!(
        frames_roundtrip,
        self_send_loops_back,
        per_link_fifo_is_preserved,
        shim_drop_blackholes_and_counts,
        shim_dup_delivers_twice,
        killed_peer_is_observed_and_blackholed,
        kill_fault_severs_both_sides,
        flap_window_drops_frames_then_recovers,
        shutdown_mid_traffic_neither_hangs_nor_errors,
        lost_peer_is_evidence_counted_once,
    );
}
