//! Same-host shared-memory ring transport.
//!
//! The TCP loopback backend pays two syscalls, two copies and a
//! reader-thread wakeup per frame — a 7.5× tax on latency-bound storms
//! (EXPERIMENTS.md). On one host none of that is necessary: this module
//! moves frames through lock-free SPSC byte rings in a single shared
//! segment, so the hot path is two `memcpy`s and a release store. The
//! only kernel involvement is a futex doorbell, rung exclusively on
//! empty→non-empty transitions when the receiver is actually parked.
//!
//! # Segment layout
//!
//! One segment serves the whole cluster (heap-allocated for the
//! in-process mesh, a mapped file for real processes). All offsets are
//! 128-byte aligned and derived from `(nodes, ring_cap)`:
//!
//! ```text
//! [SegHeader 128 B]                      magic, nodes, ring_cap, creator pid
//! [NodeSlot  128 B] × nodes              pid, liveness state, doorbell,
//!                                        sleeping flag, done word
//! [Ring hdr 384 B + ring_cap B] × nodes² ring (src,dst) at src*nodes+dst
//! ```
//!
//! Each directed pair owns one ring: `head`/`tail` are monotonically
//! increasing byte cursors on separate cache lines (position = cursor
//! mod `ring_cap`, a power of two), so the single producer and single
//! consumer never contend on a line. Frames are `[len u32 LE][tag u32
//! LE][payload]`, written with wraparound split copies and published by
//! a release store of `tail`; the consumer copies the payload into a
//! pooled receive buffer and retires it with a release store of
//! `head`. Self-rings exist but stay empty — self-sends loop through
//! the inbox like every other backend.
//!
//! # Doorbell protocol
//!
//! A receiver that finds all rings empty spins briefly, then arms the
//! Dekker handshake: publish `sleeping = 1`, fence, re-check every ring
//! plus the inbox, and only then `FUTEX_WAIT` on its doorbell word with
//! the value read *before* arming. A sender, after publishing `tail`,
//! fences and reads `sleeping`; if set it bumps the doorbell and wakes
//! the futex (counted in `net.shm.doorbell_wakes`), otherwise — when
//! the ring was empty before the frame — the wake was provably
//! unnecessary and is counted as `net.shm.doorbell_suppressed`. A
//! sender that lands between the receiver's value read and its wait
//! changes the doorbell value, so the wait returns immediately: no lost
//! wakeups, no spurious-wake hazard.
//!
//! A full ring blocks the sender (counted once per blocked send in
//! `net.shm.full_waits`) — but while waiting it drains its *own*
//! inbound rings into the inbox spill, so two nodes mid-storm sending
//! into each other's full rings make progress instead of deadlocking
//! (TCP gets the same property from its reader thread).
//!
//! # Crash evidence and cleanup
//!
//! Every node advertises its pid and a liveness state word in its slot.
//! A monitor thread turns three observations into the framed core's
//! link-down evidence: a peer that stored `GONE` (clean shutdown), a
//! severed ring (a kill fault severs both directions) and a pid whose
//! process is gone (a SIGKILL leaves the state `ALIVE`; `/proc/<pid>`
//! vanishing is the ground truth).
//!
//! The segment file itself is created `O_EXCL` by node 0 (stale files
//! from a crashed previous run are removed first unless their creator
//! pid is still alive) and unlinked as soon as every peer has mapped
//! it: from then on only the mappings keep it alive, so no exit path —
//! including SIGKILL of the whole tree — can leak it. The launcher's
//! temp-file guard doubles as a backstop for launches that die between
//! create and attach.

use crate::fabric::{NetError, Packet, Tag};
use crate::framed::{
    decode_header, encode_header, handshake_timeout, poll_until, Barrier, Control, FrameCore,
    FrameLink, FramedTransport, FRAME_HEADER,
};
use crate::stats::TrafficStats;
use crate::NodeId;
use parking_lot::Mutex;
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Segment magic ("GMTS"), stored *last* by the creator so a reader that
/// sees it knows every other header field is initialized.
const SEG_MAGIC: u32 = 0x474D_5453;

/// Liveness states in a node's slot.
const STATE_EMPTY: u32 = 0;
const STATE_ALIVE: u32 = 1;
const STATE_GONE: u32 = 2;

/// Fixed-size pieces of the segment layout (all 128-aligned so the ring
/// headers' cache-line separation holds at any node count).
const HDR_BYTES: usize = 128;
const SLOT_BYTES: usize = 128;
const RING_HDR_BYTES: usize = 384;

/// Per-directed-link ring capacity: default, floor (must hold at least
/// one max-size aggregation buffer plus header) and ceiling.
const DEFAULT_RING_BYTES: usize = 1 << 20;
const MIN_RING_BYTES: usize = 1 << 16;
const MAX_RING_BYTES: usize = 1 << 28;

/// How many spin iterations a receiver burns before arming the doorbell,
/// and how long a sender sleeps between full-ring retries. Both are
/// deliberately small: CI hosts may have a single core, where the
/// blocked side must yield for the other side to make progress.
const SPIN_ROUNDS: usize = 64;
const FULL_RETRY: Duration = Duration::from_micros(50);

/// Monitor poll period — the crash-evidence latency floor. 2 ms keeps
/// shm detection in the same band as TCP's sub-millisecond EOF without
/// burning a core on `/proc` stats.
const MONITOR_PERIOD: Duration = Duration::from_millis(2);

/// Per-directed-link ring bytes, overridable via `GMT_SHM_RING_BYTES`
/// (rounded up to a power of two and clamped; the SPSC cursors rely on
/// power-of-two wraparound).
fn ring_bytes_from_env() -> usize {
    std::env::var("GMT_SHM_RING_BYTES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_RING_BYTES)
        .clamp(MIN_RING_BYTES, MAX_RING_BYTES)
        .next_power_of_two()
}

/// Whether a process with this pid still exists. Own pid short-circuits
/// (the in-process mesh writes the same pid in every slot); elsewhere
/// `/proc/<pid>` is the ground truth — a SIGKILLed peer never gets to
/// update its state word, so this is the detection path for real kills.
fn pid_alive(pid: u64) -> bool {
    if pid == std::process::id() as u64 {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        true
    }
}

/// Raw-syscall shims: the workspace vendors no libc binding, so mmap and
/// futex go through the stable kernel ABI directly on x86-64 Linux. The
/// fallback keeps the heap mesh functional anywhere (futex waits degrade
/// to bounded sleeps); cross-process attach needs the real thing.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    const SYS_MMAP: i64 = 9;
    const SYS_MUNMAP: i64 = 11;
    const SYS_FUTEX: i64 = 202;
    const FUTEX_WAIT: i64 = 0;
    const FUTEX_WAKE: i64 = 1;
    const PROT_READ_WRITE: i64 = 0x3;
    const MAP_SHARED: i64 = 0x1;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// One raw syscall. rcx/r11 are clobbered by the `syscall`
    /// instruction itself; errors come back as `-errno`.
    unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
        let ret: i64;
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub(super) const FILE_MMAP_SUPPORTED: bool = true;

    /// Maps `len` bytes of `file` shared read-write.
    pub(super) fn map_file(file: &std::fs::File, len: usize) -> std::io::Result<*mut u8> {
        use std::os::unix::io::AsRawFd;
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len as i64,
                PROT_READ_WRITE,
                MAP_SHARED,
                file.as_raw_fd() as i64,
                0,
            )
        };
        if (-4095..0).contains(&ret) {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as *mut u8)
        }
    }

    pub(super) unsafe fn unmap(ptr: *mut u8, len: usize) {
        unsafe { syscall6(SYS_MUNMAP, ptr as i64, len as i64, 0, 0, 0, 0) };
    }

    /// `FUTEX_WAIT`: sleeps while `*word == expected`, at most `timeout`.
    /// EAGAIN (value changed), EINTR and ETIMEDOUT are all fine — every
    /// caller re-checks its condition in a loop.
    pub(super) fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        unsafe {
            syscall6(
                SYS_FUTEX,
                word.as_ptr() as i64,
                FUTEX_WAIT,
                i64::from(expected),
                std::ptr::from_ref(&ts) as i64,
                0,
                0,
            );
        }
    }

    /// `FUTEX_WAKE`: wakes up to `n` waiters on `word`.
    pub(super) fn futex_wake(word: &AtomicU32, n: i32) {
        unsafe { syscall6(SYS_FUTEX, word.as_ptr() as i64, FUTEX_WAKE, i64::from(n), 0, 0, 0) };
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    pub(super) const FILE_MMAP_SUPPORTED: bool = false;

    pub(super) fn map_file(_file: &std::fs::File, _len: usize) -> std::io::Result<*mut u8> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "shm cross-process attach needs the x86-64 Linux syscall shim",
        ))
    }

    pub(super) unsafe fn unmap(_ptr: *mut u8, _len: usize) {}

    /// Degraded doorbell: a bounded sleep instead of a futex wait. The
    /// heap mesh stays correct (the receiver re-polls on wake), just
    /// with millisecond idle latency instead of a targeted wake.
    pub(super) fn futex_wait(_word: &AtomicU32, _expected: u32, timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
    }

    pub(super) fn futex_wake(_word: &AtomicU32, _n: i32) {}
}

/// Segment header (one per segment). `magic` is stored last with release
/// ordering by the creator; a reader that acquires it sees the rest.
#[repr(C, align(128))]
struct SegHeader {
    magic: AtomicU32,
    nodes: AtomicU32,
    ring_cap: AtomicU32,
    _pad0: u32,
    creator_pid: AtomicU64,
    _pad1: [u8; 104],
}

/// One node's liveness-and-doorbell slot.
#[repr(C, align(128))]
struct NodeSlot {
    /// OS pid of the attached process (`/proc` liveness ground truth).
    pid: AtomicU64,
    /// `STATE_EMPTY` → `STATE_ALIVE` on attach → `STATE_GONE` on clean
    /// shutdown. A SIGKILL leaves `ALIVE`; the pid check catches it.
    state: AtomicU32,
    /// Futex word; bumped by senders to wake a parked receiver.
    doorbell: AtomicU32,
    /// Dekker flag: set while the receiver is arming/inside a futex
    /// wait, so senders know a wake is needed at all.
    sleeping: AtomicU32,
    /// End-of-job barrier word ([`Control`]).
    done: AtomicU32,
    _pad: [u8; 104],
}

/// SPSC ring header. `head` (consumer) and `tail` (producer) are total
/// byte counts — never wrapped — on their own cache lines.
#[repr(C, align(128))]
struct RingHdr {
    head: AtomicU64,
    _pad0: [u8; 120],
    tail: AtomicU64,
    _pad1: [u8; 120],
    /// Sticky kill switch: set once, the ring is never read or written
    /// again (an injected kill loses in-flight frames like a crash).
    sever: AtomicU32,
    _pad2: u32,
    /// Whole frames currently in the ring (for [`Transport::pending`]).
    frames: AtomicU64,
    _pad3: [u8; 112],
}

/// Where the segment bytes live.
enum SegMem {
    Heap { ptr: *mut u8, layout: std::alloc::Layout },
    Mmap { ptr: *mut u8, len: usize },
}

/// A mapped (or heap-backed) segment plus the geometry to index it.
struct Segment {
    mem: SegMem,
    nodes: usize,
    ring_cap: usize,
}

// The raw base pointer targets shared memory laid out as atomics; all
// mutation goes through `&AtomicU*` references derived from it.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    fn size_for(nodes: usize, ring_cap: usize) -> usize {
        HDR_BYTES + nodes * SLOT_BYTES + nodes * nodes * (RING_HDR_BYTES + ring_cap)
    }

    /// In-process segment for the `shm` mesh backend: same layout, heap
    /// storage, zeroed (zeroed bytes are exactly the pre-attach state).
    fn heap(nodes: usize, ring_cap: usize) -> Segment {
        let size = Self::size_for(nodes, ring_cap);
        let layout = std::alloc::Layout::from_size_align(size, 128).expect("segment layout");
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "segment allocation failed ({size} bytes)");
        Segment { mem: SegMem::Heap { ptr, layout }, nodes, ring_cap }
    }

    /// Maps a segment file of this geometry shared read-write (the
    /// mapping outlives the file handle).
    fn map(file: &std::fs::File, nodes: usize, ring_cap: usize) -> io::Result<Segment> {
        let len = Self::size_for(nodes, ring_cap);
        let ptr = sys::map_file(file, len)?;
        Ok(Segment { mem: SegMem::Mmap { ptr, len }, nodes, ring_cap })
    }

    /// Initializes a zeroed segment as this process: header fields,
    /// then slots `0..alive` marked `ALIVE` under our pid, then the magic
    /// last so attachers never see a half-built segment.
    fn init(&self, alive: usize) {
        let pid = u64::from(std::process::id());
        let hdr = self.header();
        hdr.nodes.store(self.nodes as u32, Ordering::Relaxed);
        hdr.ring_cap.store(self.ring_cap as u32, Ordering::Relaxed);
        hdr.creator_pid.store(pid, Ordering::Relaxed);
        for node in 0..alive {
            let slot = self.slot(node);
            slot.pid.store(pid, Ordering::Relaxed);
            slot.state.store(STATE_ALIVE, Ordering::Release);
        }
        hdr.magic.store(SEG_MAGIC, Ordering::Release);
    }

    fn base(&self) -> *mut u8 {
        match &self.mem {
            SegMem::Heap { ptr, .. } => *ptr,
            SegMem::Mmap { ptr, .. } => *ptr,
        }
    }

    fn header(&self) -> &SegHeader {
        unsafe { &*(self.base() as *const SegHeader) }
    }

    fn slot(&self, node: NodeId) -> &NodeSlot {
        debug_assert!(node < self.nodes);
        unsafe { &*(self.base().add(HDR_BYTES + node * SLOT_BYTES) as *const NodeSlot) }
    }

    fn ring(&self, src: NodeId, dst: NodeId) -> RingRef<'_> {
        debug_assert!(src < self.nodes && dst < self.nodes);
        let idx = src * self.nodes + dst;
        let off = HDR_BYTES + self.nodes * SLOT_BYTES + idx * (RING_HDR_BYTES + self.ring_cap);
        let base = unsafe { self.base().add(off) };
        RingRef {
            hdr: unsafe { &*(base as *const RingHdr) },
            data: unsafe { base.add(RING_HDR_BYTES) },
            cap: self.ring_cap,
        }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        match self.mem {
            SegMem::Heap { ptr, layout } => unsafe { std::alloc::dealloc(ptr, layout) },
            SegMem::Mmap { ptr, len } => unsafe { sys::unmap(ptr, len) },
        }
    }
}

/// One directed ring: header reference plus the data area.
#[derive(Clone, Copy)]
struct RingRef<'a> {
    hdr: &'a RingHdr,
    data: *mut u8,
    cap: usize,
}

impl RingRef<'_> {
    #[inline]
    fn pos(&self, cursor: u64) -> usize {
        (cursor & (self.cap as u64 - 1)) as usize
    }

    /// Copies `bytes` into the ring at byte cursor `at`, splitting
    /// across the wrap point. SPSC discipline (the producer owns
    /// `[tail, head+cap)`) makes the region exclusively ours.
    #[inline]
    unsafe fn write_at(&self, at: u64, bytes: &[u8]) {
        let pos = self.pos(at);
        let first = bytes.len().min(self.cap - pos);
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.data.add(pos), first);
            if first < bytes.len() {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr().add(first),
                    self.data,
                    bytes.len() - first,
                );
            }
        }
    }

    /// Copies `len` ring bytes starting at cursor `at` into `out`.
    #[inline]
    unsafe fn read_at(&self, at: u64, out: *mut u8, len: usize) {
        let pos = self.pos(at);
        let first = len.min(self.cap - pos);
        unsafe {
            std::ptr::copy_nonoverlapping(self.data.add(pos) as *const u8, out, first);
            if first < len {
                std::ptr::copy_nonoverlapping(self.data as *const u8, out.add(first), len - first);
            }
        }
    }
}

/// Backend-specific counters surfaced as `net.shm.*` through
/// [`Transport::backend_counters`].
#[derive(Default)]
struct ShmCounters {
    /// Futex wakes actually issued (receiver was parked).
    doorbell_wakes: AtomicU64,
    /// Empty→non-empty transitions where the receiver was running and no
    /// wake was needed — the syscalls the doorbell protocol saved.
    doorbell_suppressed: AtomicU64,
    /// Sends that found their ring full and had to wait (counted once
    /// per blocked send, not per retry).
    full_waits: AtomicU64,
    /// High-water mark of post-send ring occupancy, in bytes.
    occ_watermark: AtomicU64,
    /// Post-send occupancy histogram in eighths of the ring capacity.
    occ_hist: [AtomicU64; 8],
}

/// A node's shared-memory ring mesh under the framed core.
pub type ShmTransport = FramedTransport<ShmLink>;

/// The shm medium: this node's view of the segment plus the locks that
/// keep each ring single-producer, single-consumer.
pub struct ShmLink {
    seg: Arc<Segment>,
    counters: ShmCounters,
    /// Per-destination producer locks: the SPSC tail allows one writer,
    /// but any runtime thread may call `send`.
    tx: Vec<Mutex<()>>,
    /// Round-robin scan start for the consumer side, and the lock that
    /// makes ring consumption single-threaded.
    rx: Mutex<usize>,
}

impl ShmLink {
    /// Bumps `peer`'s doorbell and wakes its futex unconditionally —
    /// shutdown/kill paths use this so a parked peer re-checks state.
    fn ring_doorbell(&self, peer: NodeId) {
        let slot = self.seg.slot(peer);
        slot.doorbell.fetch_add(1, Ordering::SeqCst);
        sys::futex_wake(&slot.doorbell, i32::MAX);
    }

    /// Whether any inbound ring has a published frame.
    fn any_ring_pending(&self, core: &FrameCore) -> bool {
        self.inbound(core)
            .any(|r| r.hdr.tail.load(Ordering::Acquire) != r.hdr.head.load(Ordering::Relaxed))
    }

    /// The unsevered rings into this node.
    fn inbound<'a>(&'a self, core: &FrameCore) -> impl Iterator<Item = RingRef<'a>> {
        let node = core.node;
        (0..core.nodes)
            .filter(move |&p| p != node)
            .map(move |p| self.seg.ring(p, node))
            .filter(|r| r.hdr.sever.load(Ordering::Acquire) == 0)
    }

    /// Writes one frame into the ring toward `dst`, blocking while the
    /// ring is full. Returns whether the ring was empty before the
    /// frame (the doorbell's empty→non-empty edge). The caller holds
    /// `tx[dst]`.
    fn push_frame(
        &self,
        core: &FrameCore,
        ring: RingRef<'_>,
        dst: NodeId,
        tag: Tag,
        bytes: &[u8],
    ) -> Result<bool, NetError> {
        let need = (FRAME_HEADER + bytes.len()) as u64;
        let tail = ring.hdr.tail.load(Ordering::Relaxed);
        let mut waited = false;
        let head = loop {
            if ring.hdr.sever.load(Ordering::Acquire) != 0 {
                return Err(core.lost(dst, "link severed"));
            }
            // A peer that stored GONE, or whose process the monitor saw
            // die: a full ring toward a corpse would otherwise spin
            // forever.
            if self.seg.slot(dst).state.load(Ordering::Acquire) == STATE_GONE || core.link_down(dst)
            {
                return Err(core.lost(dst, "peer gone"));
            }
            if core.stopped() {
                return Err(NetError::Closed);
            }
            let head = ring.hdr.head.load(Ordering::Acquire);
            if ring.cap as u64 - (tail - head) >= need {
                break head;
            }
            if !waited {
                waited = true;
                self.counters.full_waits.fetch_add(1, Ordering::Relaxed);
            }
            // Make progress on our own inbound rings while we wait: the
            // peer may itself be blocked sending to us.
            if !self.drain_rings_to_inbox(core) {
                std::thread::sleep(FULL_RETRY);
            }
        };
        // SAFETY: the caller holds `tx[dst]`, so this is the ring's one
        // producer, and the loop above saw `need` free bytes from `tail`
        // on: the consumer reads none of them until the release below.
        unsafe {
            ring.write_at(tail, &encode_header(bytes.len(), tag));
            ring.write_at(tail + FRAME_HEADER as u64, bytes);
        }
        ring.hdr.tail.store(tail + need, Ordering::Release);
        ring.hdr.frames.fetch_add(1, Ordering::Release);
        Ok(head == tail)
    }

    /// Scans inbound rings round-robin and pops at most one frame.
    fn poll_rings(&self, core: &FrameCore) -> Option<Packet> {
        let (node, nodes) = (core.node, core.nodes);
        if nodes == 1 {
            return None;
        }
        let mut next = self.rx.lock();
        for i in 0..nodes {
            let peer = (*next + i) % nodes;
            if peer == node {
                continue;
            }
            let ring = self.seg.ring(peer, node);
            if ring.hdr.sever.load(Ordering::Acquire) != 0 {
                continue;
            }
            let head = ring.hdr.head.load(Ordering::Relaxed);
            let tail = ring.hdr.tail.load(Ordering::Acquire);
            if tail == head {
                continue;
            }
            match self.pop_frame(core, ring, peer, head, tail) {
                Ok(pkt) => {
                    *next = (peer + 1) % nodes;
                    return Some(pkt);
                }
                Err(()) => {
                    // A corrupt length can never re-synchronize; sever
                    // the ring like the TCP reader closes the stream.
                    ring.hdr.sever.store(1, Ordering::Release);
                    core.note_conn_lost(peer, "corrupt frame length prefix");
                    continue;
                }
            }
        }
        None
    }

    /// Decodes the frame at `head` into a pooled payload and retires it.
    /// The caller holds `rx` and has observed `tail != head`.
    fn pop_frame(
        &self,
        core: &FrameCore,
        ring: RingRef<'_>,
        src: NodeId,
        head: u64,
        tail: u64,
    ) -> Result<Packet, ()> {
        let avail = (tail - head) as usize;
        let mut hdr = [0u8; FRAME_HEADER];
        if avail < FRAME_HEADER {
            return Err(()); // torn header: producer protocol violated
        }
        // SAFETY: the caller holds `rx` (the ring's one consumer) and
        // acquired `tail`; the header's bytes lie in the published
        // `[head, tail)` span and `hdr` has room for them.
        unsafe { ring.read_at(head, hdr.as_mut_ptr(), FRAME_HEADER) };
        let (len, tag) = decode_header(&hdr).ok_or(())?;
        if FRAME_HEADER + len > ring.cap || FRAME_HEADER + len > avail {
            return Err(());
        }
        let mut buf = core.recv_buf();
        buf.reserve(len);
        // SAFETY: the body lies in the published span (checked against
        // `avail` above), `buf` has capacity for `len` bytes, and all of
        // them are written before `set_len`.
        unsafe {
            ring.read_at(head + FRAME_HEADER as u64, buf.as_mut_ptr(), len);
            buf.set_len(len);
        }
        ring.hdr.head.store(head + (FRAME_HEADER + len) as u64, Ordering::Release);
        ring.hdr.frames.fetch_sub(1, Ordering::Release);
        Ok(core.packet(src, tag, buf))
    }

    /// Moves every currently-available inbound frame into the inbox
    /// spill (used by senders blocked on a full ring). Returns whether
    /// anything moved.
    fn drain_rings_to_inbox(&self, core: &FrameCore) -> bool {
        let mut moved = false;
        while let Some(pkt) = self.poll_rings(core) {
            core.spill(pkt);
            moved = true;
        }
        moved
    }

    /// Post-publish doorbell decision plus occupancy accounting.
    fn after_publish(&self, dst: NodeId, ring: RingRef<'_>, was_empty: bool) {
        // Pairs with the receiver's fence between `sleeping = 1` and its
        // final ring re-check: either it sees our tail, or we see its
        // sleeping flag.
        fence(Ordering::SeqCst);
        let slot = self.seg.slot(dst);
        if slot.sleeping.load(Ordering::SeqCst) != 0 {
            slot.doorbell.fetch_add(1, Ordering::SeqCst);
            sys::futex_wake(&slot.doorbell, i32::MAX);
            self.counters.doorbell_wakes.fetch_add(1, Ordering::Relaxed);
        } else if was_empty {
            self.counters.doorbell_suppressed.fetch_add(1, Ordering::Relaxed);
        }
        let occ = ring
            .hdr
            .tail
            .load(Ordering::Relaxed)
            .saturating_sub(ring.hdr.head.load(Ordering::Relaxed));
        self.counters.occ_watermark.fetch_max(occ, Ordering::Relaxed);
        let bucket = ((occ * 8) / ring.cap as u64).min(7) as usize;
        self.counters.occ_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

impl FrameLink for ShmLink {
    fn write(
        &self,
        core: &FrameCore,
        dst: NodeId,
        tag: Tag,
        bytes: &[u8],
        copies: usize,
        _shimmed: bool,
    ) -> Result<(), NetError> {
        assert!(
            bytes.len() + FRAME_HEADER <= self.seg.ring_cap,
            "frame ({} bytes) larger than the shm ring ({} bytes); raise GMT_SHM_RING_BYTES",
            bytes.len(),
            self.seg.ring_cap,
        );
        let ring = self.seg.ring(core.node, dst);
        let mut was_empty = false;
        {
            let _guard = self.tx[dst].lock();
            for _ in 0..copies {
                was_empty |= self.push_frame(core, ring, dst, tag, bytes)?;
            }
        }
        self.after_publish(dst, ring, was_empty);
        Ok(())
    }

    fn poll(&self, core: &FrameCore) -> Option<Packet> {
        self.poll_rings(core)
    }

    fn recv_timeout(&self, core: &FrameCore, timeout: Duration) -> Option<Packet> {
        let deadline = Instant::now() + timeout;
        let inbox = &core.inbox_rx;
        loop {
            if let Some(pkt) = core.try_recv(self) {
                return Some(pkt);
            }
            if core.stopped() {
                let left = deadline.saturating_duration_since(Instant::now());
                return inbox.recv_timeout(left).ok();
            }
            // Short spin: under load the next frame lands within
            // microseconds and parking would cost two syscalls.
            let mut ready = false;
            for _ in 0..SPIN_ROUNDS {
                if self.any_ring_pending(core) || !inbox.is_empty() {
                    ready = true;
                    break;
                }
                std::hint::spin_loop();
            }
            if ready {
                continue;
            }
            // Park on the doorbell. Order matters: read the ticket,
            // publish `sleeping`, fence, re-check everything — a sender
            // publishing concurrently either sees `sleeping` (and rings)
            // or its frame is visible to the re-check (see the module
            // docs' doorbell protocol).
            let slot = self.seg.slot(core.node);
            let ticket = slot.doorbell.load(Ordering::Acquire);
            slot.sleeping.store(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if self.any_ring_pending(core) || !inbox.is_empty() || core.stopped() {
                slot.sleeping.store(0, Ordering::SeqCst);
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                slot.sleeping.store(0, Ordering::SeqCst);
                return None;
            }
            sys::futex_wait(&slot.doorbell, ticket, left);
            slot.sleeping.store(0, Ordering::SeqCst);
            if Instant::now() >= deadline {
                return core.try_recv(self);
            }
        }
    }

    fn pending(&self, core: &FrameCore) -> usize {
        self.inbound(core).map(|r| r.hdr.frames.load(Ordering::Relaxed) as usize).sum()
    }

    /// Severs both ring directions, then rings both doorbells so parked
    /// receivers on either side re-check state.
    fn sever(&self, core: &FrameCore, peer: NodeId) {
        self.seg.ring(core.node, peer).hdr.sever.store(1, Ordering::Release);
        self.seg.ring(peer, core.node).hdr.sever.store(1, Ordering::Release);
        self.ring_doorbell(peer);
        self.ring_doorbell(core.node);
    }

    /// Advertises the clean exit (peers' monitors turn it into link-down
    /// evidence exactly like a TCP EOF), then rings every doorbell, our
    /// own included, so parked receivers and blocked producers re-check
    /// state instead of sleeping out their timeouts.
    fn close(&self, core: &FrameCore) {
        self.seg.slot(core.node).state.store(STATE_GONE, Ordering::Release);
        for peer in 0..core.nodes {
            self.ring_doorbell(peer);
        }
    }

    fn backend_counters(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        let mut out = vec![
            ("net.shm.doorbell_wakes".to_string(), c.doorbell_wakes.load(Ordering::Relaxed)),
            (
                "net.shm.doorbell_suppressed".to_string(),
                c.doorbell_suppressed.load(Ordering::Relaxed),
            ),
            ("net.shm.full_waits".to_string(), c.full_waits.load(Ordering::Relaxed)),
            (
                "net.shm.ring_occ_watermark_bytes".to_string(),
                c.occ_watermark.load(Ordering::Relaxed),
            ),
        ];
        for (i, bucket) in c.occ_hist.iter().enumerate() {
            out.push((format!("net.shm.ring_occ_bucket{i}"), bucket.load(Ordering::Relaxed)));
        }
        out
    }
}

/// Attaches node `node` to an initialized segment (own slot already
/// `ALIVE`) and spawns its crash-evidence monitor.
fn from_segment(
    node: NodeId,
    seg: Arc<Segment>,
    stats: Arc<TrafficStats>,
) -> io::Result<ShmTransport> {
    let nodes = seg.nodes;
    let link = ShmLink {
        seg: Arc::clone(&seg),
        counters: ShmCounters::default(),
        tx: (0..nodes).map(|_| Mutex::new(())).collect(),
        rx: Mutex::new(0),
    };
    FramedTransport::new(node, nodes, stats, link, format!("gmt-shm-mon-{node}"), move |core| {
        monitor_loop(&core, &seg)
    })
}

/// The crash-evidence monitor: turns peer state words, severed rings
/// and vanished pids into the sticky link-down evidence the failure
/// detector consumes — without requiring anyone to call `recv`.
fn monitor_loop(core: &FrameCore, seg: &Segment) {
    loop {
        if core.stopped() {
            return;
        }
        for peer in 0..core.nodes {
            if peer == core.node || core.link_down(peer) {
                continue;
            }
            let slot = seg.slot(peer);
            let state = slot.state.load(Ordering::Acquire);
            if state == STATE_GONE {
                core.note_conn_lost(peer, "closed by peer (shutdown)");
                continue;
            }
            if seg.ring(peer, core.node).hdr.sever.load(Ordering::Acquire) != 0
                || seg.ring(core.node, peer).hdr.sever.load(Ordering::Acquire) != 0
            {
                core.note_conn_lost(peer, "link severed");
                continue;
            }
            if state == STATE_ALIVE {
                let pid = slot.pid.load(Ordering::Acquire);
                if pid != 0 && !pid_alive(pid) {
                    core.note_conn_lost(peer, "process exit");
                }
            }
        }
        std::thread::sleep(MONITOR_PERIOD);
    }
}

/// Builds an N-node shared-memory mesh inside one process — the `shm`
/// CI backend. One heap segment, one shared [`TrafficStats`] table, so
/// cluster-wide counters behave exactly as over the sim fabric.
pub fn shm_mesh(nodes: usize) -> io::Result<Vec<ShmTransport>> {
    shm_mesh_with(nodes, ring_bytes_from_env())
}

/// [`shm_mesh`] with an explicit per-link ring capacity (rounded up to
/// a power of two) — tests use tiny rings to exercise the full-ring
/// path deterministically.
pub fn shm_mesh_with(nodes: usize, ring_bytes: usize) -> io::Result<Vec<ShmTransport>> {
    assert!(nodes > 0, "a mesh needs at least one node");
    let ring_cap = ring_bytes.clamp(MIN_RING_BYTES, MAX_RING_BYTES).next_power_of_two();
    let seg = Arc::new(Segment::heap(nodes, ring_cap));
    seg.init(nodes);
    let stats = Arc::new(TrafficStats::new(nodes));
    (0..nodes).map(|node| from_segment(node, Arc::clone(&seg), Arc::clone(&stats))).collect()
}

/// The shm end of the [`Control`] done barrier: per-node `done` words
/// in the segment. A peer that stored `GONE` or whose process vanished
/// counts as done, mirroring the TCP rule that EOF is an
/// acknowledgement.
pub(crate) struct DoneWords {
    seg: Arc<Segment>,
    node: NodeId,
}

impl DoneWords {
    /// Marks this node done. Idempotent; errors cannot happen (the word
    /// is ours alone).
    pub(crate) fn signal_done(&self) {
        self.seg.slot(self.node).done.store(1, Ordering::Release);
    }

    /// Node 0 waits on every peer, peers wait on node 0.
    pub(crate) fn counterparts(&self) -> Vec<NodeId> {
        if self.node == 0 {
            (1..self.seg.nodes).collect()
        } else {
            vec![0]
        }
    }

    /// Whether `peer` signalled done, stored `GONE` or lost its process.
    pub(crate) fn done(&self, peer: NodeId) -> bool {
        let slot = self.seg.slot(peer);
        let state = slot.state.load(Ordering::Acquire);
        let pid = slot.pid.load(Ordering::Acquire);
        slot.done.load(Ordering::Acquire) != 0
            || state == STATE_GONE
            || (state == STATE_ALIVE && pid != 0 && !pid_alive(pid))
    }
}

/// Reads a segment file's header without mapping it: `(magic, nodes,
/// ring_cap, creator_pid)`.
fn read_header(path: &Path) -> Option<(u32, usize, usize, u64)> {
    let bytes = std::fs::read(path).ok()?;
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    (bytes.len() >= 24).then(|| {
        let pid = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        (word(0), word(4) as usize, word(8) as usize, pid)
    })
}

/// Attaches one process to the cluster segment at `path` — the
/// multi-process path behind the `shm:<path>` bootstrap. Node 0 creates
/// the file `O_EXCL` (removing a stale one first, unless its recorded
/// creator is still alive), sizes it, maps it, initializes the header
/// and publishes the magic last; peers poll for the magic, map, and
/// mark themselves `ALIVE`. Everyone returns only once all slots are
/// `ALIVE`, at which point node 0 unlinks the file — the mappings keep
/// the memory alive, so no crash can leak the segment. The deadline is
/// [`handshake_timeout`]'s (`GMT_RDV_TIMEOUT_MS`).
pub fn attach(node: NodeId, nodes: usize, path: &Path) -> io::Result<(ShmTransport, Control)> {
    assert!(nodes > 0 && node < nodes, "node {node} of {nodes}");
    if !sys::FILE_MMAP_SUPPORTED {
        return Err(io::Error::new(
            ErrorKind::Unsupported,
            "shm cross-process attach needs the x86-64 Linux syscall shim",
        ));
    }
    let deadline = Instant::now() + handshake_timeout();
    let seg = if node == 0 {
        let ring_cap = ring_bytes_from_env();
        if path.exists() {
            match read_header(path) {
                Some((SEG_MAGIC, _, _, creator)) if pid_alive(creator) => {
                    return Err(io::Error::new(
                        ErrorKind::AddrInUse,
                        format!("shm segment {} is in use by live pid {creator}", path.display()),
                    ));
                }
                // Stale leftovers from a crashed run (or garbage): safe
                // to reclaim.
                _ => std::fs::remove_file(path)?,
            }
        }
        let file =
            std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(path)?;
        file.set_len(Segment::size_for(nodes, ring_cap) as u64)?;
        let seg = Segment::map(&file, nodes, ring_cap)?;
        seg.init(1);
        seg
    } else {
        let (hdr_nodes, ring_cap) = poll_until(deadline, || match read_header(path) {
            Some((SEG_MAGIC, nodes, cap, _)) => Ok((nodes, cap)),
            _ => Err(io::Error::new(
                ErrorKind::TimedOut,
                format!("shm attach: segment {} never initialized", path.display()),
            )),
        })?;
        if hdr_nodes != nodes {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("shm segment is for {hdr_nodes} nodes, expected {nodes}"),
            ));
        }
        let file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
        let seg = Segment::map(&file, nodes, ring_cap)?;
        let slot = seg.slot(node);
        slot.pid.store(u64::from(std::process::id()), Ordering::Relaxed);
        if slot
            .state
            .compare_exchange(STATE_EMPTY, STATE_ALIVE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(io::Error::new(
                ErrorKind::AddrInUse,
                format!("node {node} attached to this segment twice"),
            ));
        }
        seg
    };
    poll_until(deadline, || {
        let missing: Vec<NodeId> = (0..nodes)
            .filter(|&n| seg.slot(n).state.load(Ordering::Acquire) != STATE_ALIVE)
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let what = format!("shm attach: waiting for nodes {missing:?} to attach");
        Err(io::Error::new(ErrorKind::TimedOut, what))
    })?;
    if node == 0 {
        // Every peer holds a mapping now; the name is no longer needed
        // and unlinking it here means no exit path can leak it.
        std::fs::remove_file(path).ok();
    }
    let seg = Arc::new(seg);
    let stats = Arc::new(TrafficStats::new(nodes));
    let transport = from_segment(node, Arc::clone(&seg), stats)?;
    Ok((transport, Control(Barrier::Segment(DoneWords { seg, node }))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Payload, Transport};

    fn payload(bytes: Vec<u8>) -> Payload {
        Payload::from(bytes)
    }

    fn counter(t: &ShmTransport, name: &str) -> u64 {
        t.backend_counters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no counter {name}"))
    }

    #[test]
    fn full_ring_blocks_then_delivers_everything() {
        // Minimum ring (64 KiB); 16 KiB frames fill it after a handful
        // of sends, forcing the full-ring wait path.
        let mesh = Arc::new(shm_mesh_with(2, MIN_RING_BYTES).unwrap());
        let frames = 64usize;
        let rx = std::thread::spawn({
            let mesh = Arc::clone(&mesh);
            move || {
                // Delay so the sender definitely fills the ring first.
                std::thread::sleep(Duration::from_millis(100));
                let mut got = 0;
                while got < 64 {
                    if mesh[1].recv_timeout(Duration::from_secs(10)).is_some() {
                        got += 1;
                    }
                }
                got
            }
        });
        for i in 0..frames {
            mesh[0].send(1, i as Tag, payload(vec![0xAB; 16 * 1024])).unwrap();
        }
        assert_eq!(rx.join().unwrap(), 64);
        assert!(counter(&mesh[0], "net.shm.full_waits") > 0, "small ring must have filled");
    }

    #[test]
    fn doorbell_wakes_a_parked_receiver() {
        let mesh = Arc::new(shm_mesh(2).unwrap());
        let rx = std::thread::spawn({
            let mesh = Arc::clone(&mesh);
            move || mesh[1].recv_timeout(Duration::from_secs(10))
        });
        // Long past the spin window: the receiver is parked in the futex.
        std::thread::sleep(Duration::from_millis(150));
        mesh[0].send(1, 1, payload(vec![1])).unwrap();
        let pkt = rx.join().unwrap().expect("doorbell must wake the receiver");
        assert_eq!(pkt.tag, 1);
        assert!(counter(&mesh[0], "net.shm.doorbell_wakes") >= 1, "the wake must be counted");
    }

    #[test]
    fn idle_sends_suppress_the_doorbell() {
        let mesh = shm_mesh(2).unwrap();
        // Receiver is not parked: empty-edge sends count as suppressed.
        mesh[0].send(1, 0, payload(vec![1])).unwrap();
        mesh[1].recv_timeout(Duration::from_secs(5)).unwrap();
        mesh[0].send(1, 1, payload(vec![2])).unwrap();
        mesh[1].recv_timeout(Duration::from_secs(5)).unwrap();
        let wakes = counter(&mesh[0], "net.shm.doorbell_wakes");
        let suppressed = counter(&mesh[0], "net.shm.doorbell_suppressed");
        assert!(
            wakes + suppressed >= 2,
            "every empty-edge send decides wake ({wakes}) or suppress ({suppressed})"
        );
    }

    #[test]
    fn pending_counts_ring_frames_and_inbox() {
        let mesh = shm_mesh(2).unwrap();
        for i in 0..5u32 {
            mesh[0].send(1, i, payload(vec![1])).unwrap();
        }
        mesh[1].send(1, 99, payload(vec![2])).unwrap(); // self-send → inbox
        let deadline = Instant::now() + Duration::from_secs(5);
        while mesh[1].pending() < 6 {
            assert!(Instant::now() < deadline, "pending never reached 6");
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..6 {
            assert!(mesh[1].recv_timeout(Duration::from_secs(5)).is_some());
        }
        assert_eq!(mesh[1].pending(), 0);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn attach_builds_a_mesh_over_a_mapped_file() {
        let dir = std::env::temp_dir().join(format!("gmt-shm-attach-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mesh.seg");
        let handles: Vec<_> = (0..3)
            .map(|node| {
                let path = path.clone();
                std::thread::spawn(move || attach(node, 3, &path).unwrap())
            })
            .collect();
        let ends: Vec<(ShmTransport, Control)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The creator unlinked the file once everyone attached.
        assert!(!path.exists(), "segment file must be unlinked after attach");
        // Frames flow over the mapped segment between the attachments.
        ends[1].0.send(2, 42, payload(b"over the mmap".to_vec())).unwrap();
        let pkt = ends[2].0.recv_timeout(Duration::from_secs(5)).expect("frame arrives");
        assert_eq!((pkt.src, pkt.tag), (1, 42));
        assert_eq!(pkt.payload.as_slice(), b"over the mmap");
        std::fs::remove_dir_all(&dir).ok();
    }
}
