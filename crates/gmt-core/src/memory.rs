//! Per-node global-memory segments.
//!
//! Each node stores its share of every global array in a [`Segment`]. The
//! paper's helpers "manage the global address space"; here any helper (and,
//! for node-local accesses, any worker-side task) may touch a segment
//! concurrently, so all access goes through relaxed atomic loads/stores —
//! racy GMT programs observe the same word-level outcomes they would on
//! real shared memory instead of Rust-level undefined behaviour.
//! Word-width atomics (`atomic_add`, `atomic_cas`) require 8-byte-aligned
//! offsets, like the hardware they model.

use crate::handle::Layout;
use crate::NodeId;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// One node's storage for one global array.
pub struct Segment {
    /// Backing store, 8-byte aligned by construction (`Vec<u64>` words).
    words: Box<[AtomicU64]>,
    len: usize,
}

impl Segment {
    /// Allocates a zero-initialized segment of `len` bytes.
    pub fn new(len: usize) -> Self {
        let nwords = len.div_ceil(8);
        let words: Box<[AtomicU64]> = (0..nwords).map(|_| AtomicU64::new(0)).collect();
        Segment { words, len }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn byte_ptr(&self) -> *const AtomicU8 {
        self.words.as_ptr().cast::<AtomicU8>()
    }

    /// Copies `dst.len()` bytes starting at `offset` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the segment.
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        assert!(
            offset.checked_add(dst.len()).is_some_and(|e| e <= self.len),
            "segment read [{offset}, {offset}+{}) out of bounds ({} bytes)",
            dst.len(),
            self.len
        );
        // Relaxed atomics throughout: defined behaviour under races. The
        // bulk of the copy runs word-at-a-time over the aligned middle —
        // one atomic load per 8 bytes — with per-byte atomics only on the
        // unaligned head and tail. Byte and word views agree because the
        // backing store is little-endian words.
        let base = self.byte_ptr();
        let len = dst.len();
        let head = ((8 - (offset & 7)) & 7).min(len);
        for (i, d) in dst[..head].iter_mut().enumerate() {
            *d = unsafe { &*base.add(offset + i) }.load(Ordering::Relaxed);
        }
        let mut pos = head;
        while pos + 8 <= len {
            let w = self.words[(offset + pos) / 8].load(Ordering::Relaxed);
            dst[pos..pos + 8].copy_from_slice(&w.to_le_bytes());
            pos += 8;
        }
        for (i, d) in dst[pos..].iter_mut().enumerate() {
            *d = unsafe { &*base.add(offset + pos + i) }.load(Ordering::Relaxed);
        }
    }

    /// Copies `src` into the segment starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the segment.
    pub fn write(&self, offset: usize, src: &[u8]) {
        assert!(
            offset.checked_add(src.len()).is_some_and(|e| e <= self.len),
            "segment write [{offset}, {offset}+{}) out of bounds ({} bytes)",
            src.len(),
            self.len
        );
        // Same shape as `read`: byte head/tail, aligned word middle.
        let base = self.byte_ptr();
        let len = src.len();
        let head = ((8 - (offset & 7)) & 7).min(len);
        for (i, s) in src[..head].iter().enumerate() {
            unsafe { &*base.add(offset + i) }.store(*s, Ordering::Relaxed);
        }
        let mut pos = head;
        while pos + 8 <= len {
            let w = u64::from_le_bytes(src[pos..pos + 8].try_into().unwrap());
            self.words[(offset + pos) / 8].store(w, Ordering::Relaxed);
            pos += 8;
        }
        for (i, s) in src[pos..].iter().enumerate() {
            unsafe { &*base.add(offset + pos + i) }.store(*s, Ordering::Relaxed);
        }
    }

    #[inline]
    fn word_at(&self, offset: usize) -> &AtomicU64 {
        assert_eq!(offset % 8, 0, "atomic access requires 8-byte alignment (offset {offset})");
        assert!(offset + 8 <= self.len, "atomic access at {offset} out of bounds ({})", self.len);
        &self.words[offset / 8]
    }

    /// Atomically adds `delta` to the i64 at `offset`; returns the old
    /// value (the paper's `gmt_atomicAdd`).
    pub fn atomic_add(&self, offset: usize, delta: i64) -> i64 {
        self.word_at(offset).fetch_add(delta as u64, Ordering::AcqRel) as i64
    }

    /// Applies a sorted run of atomic fetch-adds given as parallel
    /// `(offsets, deltas)` columns, pre-merging same-offset entries into
    /// a single RMW (exact, by commutativity — the same argument that
    /// lets the command sink merge at the source). Returns the number of
    /// RMWs actually performed; `offsets.len() - performed` adds were
    /// absorbed by the merge.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned or out-of-bounds offset (as
    /// [`Segment::atomic_add`]) and if `offsets` is not sorted — the
    /// caller buckets and sorts, this kernel only walks runs.
    pub fn atomic_add_batch(&self, offsets: &[u64], deltas: &[i64]) -> usize {
        debug_assert_eq!(offsets.len(), deltas.len());
        let mut performed = 0;
        let mut i = 0;
        while i < offsets.len() {
            let offset = offsets[i];
            let mut merged = deltas[i];
            let mut j = i + 1;
            while j < offsets.len() && offsets[j] == offset {
                merged = merged.wrapping_add(deltas[j]);
                j += 1;
            }
            assert!(j >= offsets.len() || offsets[j] > offset, "atomic_add_batch: unsorted run");
            self.atomic_add(offset as usize, merged);
            performed += 1;
            i = j;
        }
        performed
    }

    /// Applies a run of writes in one call (each through the word-wise
    /// copy fast path of [`Segment::write`]); the batched helper datapath
    /// resolves the segment once for the whole run instead of once per
    /// command.
    pub fn write_batch<'a>(&self, ops: impl IntoIterator<Item = (usize, &'a [u8])>) {
        for (offset, data) in ops {
            self.write(offset, data);
        }
    }

    /// Reads a run of ranges in one call (the gather dual of
    /// [`Segment::write_batch`]), each through the word-wise copy fast
    /// path of [`Segment::read`].
    pub fn gather_batch<'a>(&self, ops: impl IntoIterator<Item = (usize, &'a mut [u8])>) {
        for (offset, dst) in ops {
            self.read(offset, dst);
        }
    }

    /// Atomic compare-and-swap on the i64 at `offset`; returns the old
    /// value (the paper's `gmt_atomicCAS`).
    pub fn atomic_cas(&self, offset: usize, expected: i64, new: i64) -> i64 {
        match self.word_at(offset).compare_exchange(
            expected as u64,
            new as u64,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(old) => old as i64,
            Err(old) => old as i64,
        }
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("len", &self.len).finish()
    }
}

/// Slots per second-level chunk of the allocation table.
const SLOTS_PER_CHUNK: usize = 1024;
/// First-level chunk-pointer entries (capacity: 4M allocation ids).
const N_CHUNKS: usize = 4096;

/// Sentinel marking a freed slot. Allocation ids are minted from a
/// monotonic cluster-wide counter and never reused, so the id itself is
/// the generation: a slot goes null → live → tombstone exactly once.
fn tombstone() -> *mut Segment {
    std::ptr::dangling_mut::<Segment>()
}

/// Second-level chunk: a fixed run of segment-pointer slots.
struct Chunk {
    slots: [AtomicPtr<Segment>; SLOTS_PER_CHUNK],
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk { slots: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())) })
    }
}

/// All segments owned by one node, indexed by allocation id.
///
/// Lookup is lock-free: two `Acquire` pointer loads (chunk, then slot) —
/// no lock, no hashing — which every command executed by a helper and
/// every worker-side local fast path pays. Allocation ids are dense and
/// monotonic (cluster-wide counter starting at 1), so a two-level slot
/// table replaces the old `RwLock<HashMap>` outright.
///
/// Freed segments are *retired*, not dropped in place: `free` swings the
/// slot to a tombstone and queues the segment, so a reader that raced
/// the free always dereferences a live segment; GMT programs that touch
/// an array after freeing it still panic via the tombstone check.
///
/// Retired segments are reclaimed by **quiescent-state reclamation**.
/// The node's workers and helpers — the threads that run `with` — are
/// registered [`QsbrReader`]s: each announces a quiescent point at the
/// top of its loop (it holds no segment reference there) and goes
/// offline while parked. A segment is dropped once every online reader
/// has passed a quiescent point after its retirement. Any other thread
/// that calls `with` pins the table for the duration of the call
/// instead, which holds every reclamation back meanwhile.
pub struct NodeMemory {
    chunks: Box<[AtomicPtr<Chunk>]>,
    live: AtomicUsize,
    /// Identifies this table in the reader thread-local.
    domain: usize,
    /// Bumped by every retirement; a retired segment carries the value
    /// its retirement produced.
    epoch: AtomicU64,
    /// Per registered reader: the epoch it saw at its last quiescent
    /// point, or [`OFFLINE`] while parked.
    readers: Mutex<Vec<Arc<AtomicU64>>>,
    // Each segment must stay at the address its slot-table pointer was
    // minted from (racing readers may still hold it), so the retired
    // queue stores the original boxes rather than moving segments.
    #[allow(clippy::vec_box)]
    retired: Mutex<Vec<(u64, Box<Segment>)>>,
    /// `retired.len()`, readable without the lock (the hot path's
    /// nothing-to-reclaim check).
    retired_len: AtomicUsize,
    /// Threads that are not online readers of this table and are inside
    /// `with` right now.
    pinned: AtomicUsize,
}

/// A reader's published epoch while it is parked: it holds no segment
/// reference, so it holds back no reclamation.
const OFFLINE: u64 = u64::MAX;

/// Source of [`NodeMemory::domain`] ids (0 = none).
static NEXT_DOMAIN: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// The domain of the table this thread is an online reader of.
    static ONLINE_IN: Cell<usize> = const { Cell::new(0) };
}

/// A registered reader thread of one [`NodeMemory`] (a worker or helper),
/// online from registration until dropped or [`offline`](Self::offline).
/// Not `Send`: the registration is the calling thread's.
pub struct QsbrReader<'a> {
    mem: &'a NodeMemory,
    seen: Arc<AtomicU64>,
    _thread_bound: std::marker::PhantomData<*const ()>,
}

impl QsbrReader<'_> {
    /// A quiescent point: the thread holds no segment reference. Lets
    /// every segment retired so far go, and reclaims what it can.
    #[inline]
    pub fn quiescent(&self) {
        // Release: the reclaimer that acquires this value sees every
        // access this thread made before it. Reading the epoch also
        // orders later slot loads after the retirements it counts.
        self.seen.store(self.mem.epoch.load(Ordering::Acquire), Ordering::Release);
        self.mem.try_reclaim();
    }

    /// Goes offline before parking: the thread holds back no
    /// reclamation until [`online`](Self::online).
    pub fn offline(&self) {
        ONLINE_IN.with(|d| d.set(0));
        self.seen.store(OFFLINE, Ordering::SeqCst);
        self.mem.try_reclaim();
    }

    /// Comes back online after a park, before touching any segment.
    pub fn online(&self) {
        self.seen.store(self.mem.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        // A reclaimer that read OFFLINE before our store came after the
        // tombstone swap of whatever it drops; this fence orders our
        // slot loads after that swap, so they see the tombstone.
        fence(Ordering::SeqCst);
        ONLINE_IN.with(|d| d.set(self.mem.domain));
    }
}

impl Drop for QsbrReader<'_> {
    fn drop(&mut self) {
        ONLINE_IN.with(|d| d.set(0));
        self.mem.readers.lock().retain(|r| !Arc::ptr_eq(r, &self.seen));
        self.mem.try_reclaim();
    }
}

/// Releases a non-reader's pin on drop, so a panicking `with` unpins.
struct Pin<'a>(&'a AtomicUsize);

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl Default for NodeMemory {
    fn default() -> Self {
        NodeMemory::new()
    }
}

impl NodeMemory {
    pub fn new() -> Self {
        NodeMemory {
            chunks: (0..N_CHUNKS).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
            live: AtomicUsize::new(0),
            domain: NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            readers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            retired_len: AtomicUsize::new(0),
            pinned: AtomicUsize::new(0),
        }
    }

    /// Registers the calling thread as an online reader (see the type
    /// docs). The thread must announce quiescent points through the
    /// returned guard, and may register with one table only.
    pub fn register_reader(&self) -> QsbrReader<'_> {
        let seen = {
            let mut readers = self.readers.lock();
            let seen = Arc::new(AtomicU64::new(self.epoch.load(Ordering::SeqCst)));
            readers.push(Arc::clone(&seen));
            seen
        };
        ONLINE_IN.with(|d| {
            assert_eq!(d.get(), 0, "a thread reads at most one node memory");
            d.set(self.domain);
        });
        QsbrReader { mem: self, seen, _thread_bound: std::marker::PhantomData }
    }

    /// Queues a segment the slot table no longer points to; it is
    /// dropped once no reader can still hold it.
    fn retire(&self, seg: Box<Segment>) {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let mut retired = self.retired.lock();
            retired.push((epoch, seg));
            self.retired_len.store(retired.len(), Ordering::Release);
        }
        self.try_reclaim();
    }

    /// Drops every retired segment that every online reader has passed
    /// a quiescent point after, unless a non-reader is inside `with`.
    fn try_reclaim(&self) {
        if self.retired_len.load(Ordering::Acquire) == 0 {
            return;
        }
        let Some(mut retired) = self.retired.try_lock() else { return };
        let oldest_seen =
            self.readers.lock().iter().map(|r| r.load(Ordering::SeqCst)).min().unwrap_or(OFFLINE);
        // A pin taken after this load sees the tombstones: the pinning
        // thread fences between its pin and its slot load.
        if self.pinned.load(Ordering::SeqCst) != 0 {
            return;
        }
        retired.retain(|&(epoch, _)| epoch > oldest_seen);
        self.retired_len.store(retired.len(), Ordering::Release);
    }

    /// Retired segments not reclaimed yet.
    pub fn retired_segments(&self) -> usize {
        self.retired_len.load(Ordering::Acquire)
    }

    #[inline]
    fn split(id: u64) -> (usize, usize) {
        let id = id as usize;
        assert!(
            id < N_CHUNKS * SLOTS_PER_CHUNK,
            "allocation id {id} exceeds the slot table capacity"
        );
        (id / SLOTS_PER_CHUNK, id % SLOTS_PER_CHUNK)
    }

    /// The slot for `id`, installing its chunk if this is the first
    /// allocation to land there.
    fn slot(&self, id: u64, install: bool) -> Option<&AtomicPtr<Segment>> {
        let (ci, si) = Self::split(id);
        let mut chunk = self.chunks[ci].load(Ordering::Acquire);
        if chunk.is_null() {
            if !install {
                return None;
            }
            let fresh = Box::into_raw(Chunk::new());
            match self.chunks[ci].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => chunk = fresh,
                Err(won) => {
                    // Another allocator installed the chunk first.
                    drop(unsafe { Box::from_raw(fresh) });
                    chunk = won;
                }
            }
        }
        Some(&unsafe { &*chunk }.slots[si])
    }

    /// Allocates this node's share of array `id` according to `layout`.
    /// Zero-sized shares still insert an entry so frees stay symmetric.
    pub fn alloc(&self, id: u64, layout: &Layout, node: NodeId) {
        let size = layout.segment_size(node) as usize;
        let seg = Box::into_raw(Box::new(Segment::new(size)));
        let slot = self.slot(id, true).expect("chunk installed");
        let prev = slot.swap(seg, Ordering::AcqRel);
        debug_assert!(prev.is_null(), "allocation id {id} reused");
        self.live.fetch_add(1, Ordering::Relaxed);
    }

    /// Frees this node's share of array `id`. Returns whether it existed.
    pub fn free(&self, id: u64) -> bool {
        let Some(slot) = self.slot(id, false) else { return false };
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            if cur.is_null() || cur == tombstone() {
                return false;
            }
            // SeqCst: reclamation's argument orders this swap before the
            // epoch bump and the reader fences (see `QsbrReader`).
            match slot.compare_exchange(cur, tombstone(), Ordering::SeqCst, Ordering::Acquire) {
                Ok(seg) => {
                    self.live.fetch_sub(1, Ordering::Relaxed);
                    // Retire rather than drop: a concurrent `with` may
                    // still hold a reference into this segment.
                    // SAFETY: `seg` came from `Box::into_raw` in `alloc`,
                    // and the successful swap made us its only owner.
                    self.retire(unsafe { Box::from_raw(seg) });
                    return true;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Runs `f` with the segment for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the array is unknown on this node (use-after-free or
    /// never-allocated — both programming errors in GMT as well).
    pub fn with<R>(&self, id: u64, f: impl FnOnce(&Segment) -> R) -> R {
        self.with_batch(id, f)
    }

    /// Runs `f` with the segment for `id`, resolved **once** for a whole
    /// run of commands. Identical semantics to [`NodeMemory::with`] —
    /// the distinct name marks the call sites where the batched helper
    /// datapath amortizes the generation-checked lookup across a
    /// same-segment run instead of paying it per command.
    ///
    /// # Panics
    ///
    /// Panics if the array is unknown on this node (use-after-free or
    /// never-allocated — both programming errors in GMT as well).
    #[inline]
    pub fn with_batch<R>(&self, id: u64, f: impl FnOnce(&Segment) -> R) -> R {
        let _pin = (ONLINE_IN.with(Cell::get) != self.domain).then(|| {
            self.pinned.fetch_add(1, Ordering::SeqCst);
            // Pairs with `try_reclaim`'s pin check: either it sees this
            // pin, or the slot load below sees the tombstone.
            fence(Ordering::SeqCst);
            Pin(&self.pinned)
        });
        let seg =
            self.slot(id, false).map(|s| s.load(Ordering::Acquire)).unwrap_or(std::ptr::null_mut());
        if seg.is_null() || seg == tombstone() {
            panic!("global array {id} is not allocated on this node");
        }
        // SAFETY: a retired segment is dropped only after every online
        // reader passed a quiescent point — this thread is one and is
        // inside `with`, so it has not — or, for any other thread, while
        // nothing is pinned; our pin is held until `f` returns.
        f(unsafe { &*seg })
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

impl Drop for NodeMemory {
    fn drop(&mut self) {
        for c in self.chunks.iter() {
            let chunk = c.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if chunk.is_null() {
                continue;
            }
            let chunk = unsafe { Box::from_raw(chunk) };
            for slot in chunk.slots.iter() {
                let seg = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
                if !seg.is_null() && seg != tombstone() {
                    drop(unsafe { Box::from_raw(seg) });
                }
            }
        }
        // Retired segments drop with the struct.
    }
}

impl std::fmt::Debug for NodeMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMemory").field("live", &self.live_allocations()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Distribution;

    #[test]
    fn read_write_roundtrip() {
        let s = Segment::new(64);
        s.write(5, &[1, 2, 3, 4]);
        let mut buf = [0u8; 6];
        s.read(4, &mut buf);
        assert_eq!(buf, [0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn zero_initialized() {
        let s = Segment::new(33);
        let mut buf = vec![0xFFu8; 33];
        s.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn odd_sized_segment_edges_work() {
        let s = Segment::new(13);
        s.write(12, &[9]);
        let mut b = [0u8];
        s.read(12, &mut b);
        assert_eq!(b, [9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_past_end_panics() {
        let s = Segment::new(8);
        let mut b = [0u8; 4];
        s.read(6, &mut b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_past_end_panics() {
        let s = Segment::new(8);
        s.write(7, &[1, 2]);
    }

    #[test]
    fn unaligned_bulk_copies_roundtrip() {
        // Exercise every head/middle/tail split of the word-wise fast
        // path against a reference pattern.
        let s = Segment::new(64);
        let pattern: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        for offset in 0..9 {
            for len in [0, 1, 5, 7, 8, 9, 15, 16, 17, 24, 40] {
                if offset + len > 64 {
                    continue;
                }
                s.write(0, &[0xAA; 64]);
                s.write(offset, &pattern[..len]);
                let mut back = vec![0u8; len];
                s.read(offset, &mut back);
                assert_eq!(back, &pattern[..len], "offset {offset} len {len}");
                // Bytes outside the write are untouched.
                let mut whole = vec![0u8; 64];
                s.read(0, &mut whole);
                assert!(whole[..offset].iter().all(|&b| b == 0xAA));
                assert!(whole[offset + len..].iter().all(|&b| b == 0xAA));
            }
        }
    }

    #[test]
    fn atomic_add_returns_old_value() {
        let s = Segment::new(16);
        assert_eq!(s.atomic_add(8, 5), 0);
        assert_eq!(s.atomic_add(8, -2), 5);
        assert_eq!(s.atomic_add(8, 0), 3);
    }

    #[test]
    fn atomic_cas_success_and_failure() {
        let s = Segment::new(8);
        assert_eq!(s.atomic_cas(0, 0, 42), 0); // success: old was 0
        assert_eq!(s.atomic_cas(0, 0, 99), 42); // failure: old is 42
        assert_eq!(s.atomic_cas(0, 42, 7), 42); // success
        let mut b = [0u8; 8];
        s.read(0, &mut b);
        assert_eq!(i64::from_le_bytes(b), 7);
    }

    #[test]
    #[should_panic(expected = "alignment")]
    fn atomic_requires_alignment() {
        let s = Segment::new(16);
        s.atomic_add(3, 1);
    }

    #[test]
    fn atomics_and_byte_views_agree_on_le_layout() {
        let s = Segment::new(8);
        s.atomic_add(0, 0x0102_0304);
        let mut b = [0u8; 8];
        s.read(0, &mut b);
        assert_eq!(i64::from_le_bytes(b), 0x0102_0304);
        // Byte-written values are visible to atomics.
        s.write(0, &(-1i64).to_le_bytes());
        assert_eq!(s.atomic_add(0, 1), -1);
    }

    #[test]
    fn concurrent_atomic_adds_do_not_lose_updates() {
        let s = std::sync::Arc::new(Segment::new(8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.atomic_add(0, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.atomic_add(0, 0), 40_000);
    }

    #[test]
    fn node_memory_alloc_free_lifecycle() {
        let m = NodeMemory::new();
        let layout = Layout::new(100, Distribution::Partition, 0, 2);
        m.alloc(1, &layout, 0);
        assert_eq!(m.live_allocations(), 1);
        // ceil(100/2)=50 rounds up to the 56-byte word-aligned block.
        m.with(1, |s| assert_eq!(s.len(), 56));
        assert!(m.free(1));
        assert!(!m.free(1));
        assert_eq!(m.live_allocations(), 0);
    }

    #[test]
    fn non_owner_gets_zero_sized_segment() {
        let m = NodeMemory::new();
        let layout = Layout::new(100, Distribution::Local, 1, 2);
        m.alloc(7, &layout, 0); // node 0 owns nothing
        m.with(7, |s| assert!(s.is_empty()));
    }

    #[test]
    fn readers_racing_a_free_stay_safe() {
        // A reader holding the segment across a concurrent free must keep
        // seeing valid memory (the segment is retired, not dropped).
        let m = std::sync::Arc::new(NodeMemory::new());
        let layout = Layout::new(8, Distribution::Partition, 0, 1);
        m.alloc(11, &layout, 0);
        let m2 = std::sync::Arc::clone(&m);
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done2 = std::sync::Arc::clone(&done);
        let reader = std::thread::spawn(move || {
            let mut sum = 0i64;
            while !done2.load(Ordering::Relaxed) {
                // May panic with "not allocated" once the free lands —
                // that is the correct post-free behaviour; stop then.
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m2.with(11, |s| s.atomic_add(0, 0))
                }));
                match r {
                    Ok(v) => sum = sum.wrapping_add(v),
                    Err(_) => break,
                }
            }
            sum
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(m.free(11));
        done.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(m.live_allocations(), 0);
    }

    #[test]
    fn retired_segments_wait_for_every_online_reader() {
        let m = std::sync::Arc::new(NodeMemory::new());
        let layout = Layout::new(8, Distribution::Partition, 0, 1);
        // No reader registered: a free reclaims at once.
        m.alloc(1, &layout, 0);
        assert!(m.free(1));
        assert_eq!(m.retired_segments(), 0);
        // A reader on another thread holds the next retirement back until
        // it passes a quiescent point; an offline reader never does.
        let (to_reader, reader_rx) = std::sync::mpsc::channel::<&str>();
        let (to_main, main_rx) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn({
            let m = std::sync::Arc::clone(&m);
            move || {
                let r = m.register_reader();
                to_main.send(()).unwrap();
                for step in reader_rx {
                    match step {
                        "quiescent" => r.quiescent(),
                        "offline" => r.offline(),
                        _ => r.online(),
                    }
                    to_main.send(()).unwrap();
                }
            }
        });
        let step = |what| {
            to_reader.send(what).unwrap();
            main_rx.recv().unwrap();
        };
        main_rx.recv().unwrap();
        m.alloc(2, &layout, 0);
        assert!(m.free(2));
        assert_eq!(m.retired_segments(), 1, "the online reader may still hold it");
        step("quiescent");
        assert_eq!(m.retired_segments(), 0, "reclaimed at the reader's quiescent point");
        step("offline");
        m.alloc(3, &layout, 0);
        assert!(m.free(3));
        assert_eq!(m.retired_segments(), 0, "an offline reader holds nothing back");
        step("online");
        m.alloc(4, &layout, 0);
        assert!(m.free(4));
        assert_eq!(m.retired_segments(), 1);
        drop(to_reader);
        reader.join().unwrap();
        assert_eq!(m.retired_segments(), 0, "a departing reader releases its hold");
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn access_after_free_panics() {
        let m = NodeMemory::new();
        let layout = Layout::new(8, Distribution::Partition, 0, 1);
        m.alloc(3, &layout, 0);
        m.free(3);
        m.with(3, |_| ());
    }

    #[test]
    fn atomic_add_batch_merges_same_offset_runs() {
        let s = Segment::new(32);
        s.atomic_add(8, 100);
        // Sorted by offset; three adds to offset 8 merge into one RMW.
        let offsets = [0u64, 8, 8, 8, 16];
        let deltas = [1i64, 2, 3, -4, 7];
        assert_eq!(s.atomic_add_batch(&offsets, &deltas), 3);
        assert_eq!(s.atomic_add(0, 0), 1);
        assert_eq!(s.atomic_add(8, 0), 101);
        assert_eq!(s.atomic_add(16, 0), 7);
    }

    #[test]
    fn atomic_add_batch_matches_scalar_adds() {
        let batched = Segment::new(64);
        let scalar = Segment::new(64);
        let mut ops: Vec<(u64, i64)> =
            (0..40).map(|i: i64| (((i * 13) % 8 * 8) as u64, i.wrapping_mul(0x9e37) - 7)).collect();
        ops.sort_unstable_by_key(|&(o, _)| o);
        let offsets: Vec<u64> = ops.iter().map(|&(o, _)| o).collect();
        let deltas: Vec<i64> = ops.iter().map(|&(_, d)| d).collect();
        batched.atomic_add_batch(&offsets, &deltas);
        for &(o, d) in &ops {
            scalar.atomic_add(o as usize, d);
        }
        for cell in 0..8 {
            assert_eq!(batched.atomic_add(cell * 8, 0), scalar.atomic_add(cell * 8, 0));
        }
    }

    #[test]
    #[should_panic(expected = "unsorted run")]
    fn atomic_add_batch_rejects_unsorted_input() {
        let s = Segment::new(32);
        s.atomic_add_batch(&[8, 0], &[1, 1]);
    }

    #[test]
    fn write_and_gather_batch_roundtrip() {
        let s = Segment::new(64);
        // Overlap-free run with unaligned offsets and lengths.
        let writes: [(usize, &[u8]); 3] = [(3, &[1, 2, 3, 4, 5]), (16, &[9; 8]), (33, &[7])];
        s.write_batch(writes.iter().map(|&(o, d)| (o, d)));
        let mut a = [0u8; 5];
        let mut b = [0u8; 8];
        let mut c = [0u8; 1];
        {
            let outs: [(usize, &mut [u8]); 3] = [(3, &mut a), (16, &mut b), (33, &mut c)];
            s.gather_batch(outs);
        }
        assert_eq!(a, [1, 2, 3, 4, 5]);
        assert_eq!(b, [9; 8]);
        assert_eq!(c, [7]);
    }
}
