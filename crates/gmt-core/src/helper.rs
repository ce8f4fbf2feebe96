//! Helper threads: manage the global address space and synchronization
//! (§IV-A). Helpers parse incoming aggregation buffers, execute commands
//! against local segments, and generate reply commands that flow back
//! through the same aggregation pipeline.
//!
//! Two receive datapaths exist, selected by `Config::batch_apply`:
//!
//! * **Batched** (default): a three-stage pipeline over each received
//!   buffer — *decode* (one pass extracts every request command into
//!   struct-of-arrays staging, [`BatchStage`]), *bucket* (requests are
//!   grouped by target segment so each same-segment run resolves the
//!   segment once via [`NodeMemory::with_batch`]), *apply* (runs go
//!   through the vectorized [`Segment`] kernels: same-offset atomic adds
//!   pre-merged into one RMW, word-wise batch copies, `GetReply`s
//!   streamed through one sink access per run, token acknowledgements
//!   assembled straight from the staged token columns). Reply-side
//!   opcodes stay scalar but gain run-detection for same-token `Ack`
//!   bursts. Control commands (`Alloc`/`Free`/`Spawn`) act as barriers:
//!   the staged batch applies before them, preserving their order
//!   relative to data commands.
//! * **Scalar** (`batch_apply = false`): the original
//!   one-command-at-a-time loop, kept as the ablation baseline. The two
//!   paths are observably equivalent (same memory contents, same
//!   completion multiplicities); `tests/batch_equivalence.rs` pins this
//!   with randomized mixed-opcode workloads.
//!
//! [`BatchStage`]: crate::command::BatchStage
//! [`NodeMemory::with_batch`]: crate::memory::NodeMemory::with_batch
//! [`Segment`]: crate::memory::Segment

use crate::aggregation::CommandSink;
use crate::command::{BatchStage, Command, CommandIter};
use crate::handle::{Distribution, Layout};
use crate::idle::{park_timeout, Idle};
use crate::metrics::ThreadTracer;
use crate::runtime::NodeShared;
use crate::task::{complete_token, complete_token_n, Itb, ParForBody, ParentRef};
use crate::tls;
use crate::NodeId;
use std::sync::Arc;

/// Per-helper-thread working memory, reused across buffers. Every vector
/// is grow-only while one buffer is processed and shrunk back to a cap
/// derived from `buffer_size` between buffers ([`HelperScratch::shrink`]),
/// so one pathological buffer cannot pin its high-water allocation on the
/// thread forever.
struct HelperScratch {
    /// SoA staging columns of the batch decoder (stage 1).
    stage: BatchStage,
    /// Index permutation used to bucket one class by segment (stage 2).
    order: Vec<u32>,
    /// Same-offset pre-merge staging for atomic adds, sorted by offset
    /// before [`crate::memory::Segment::atomic_add_batch`] runs.
    merge: Vec<(u64, i64)>,
    merge_offsets: Vec<u64>,
    merge_deltas: Vec<i64>,
    /// `GetReply` payload gather area.
    scratch: Vec<u8>,
    /// Token-only acknowledgements of the buffer (one vectorized `AckN`).
    acks: Vec<u8>,
}

impl HelperScratch {
    fn new() -> Self {
        HelperScratch {
            stage: BatchStage::new(),
            order: Vec::new(),
            merge: Vec::new(),
            merge_offsets: Vec::new(),
            merge_deltas: Vec::new(),
            scratch: Vec::new(),
            acks: Vec::new(),
        }
    }

    /// Caps every reusable allocation at sizes derived from
    /// `buffer_size`; called between buffers, when everything is empty.
    /// (The scalar path used to keep `scratch` at its high-water mark for
    /// the thread's lifetime — one huge `Get` pinned that allocation per
    /// helper forever.)
    fn shrink(&mut self, buffer_size: usize) {
        if self.scratch.capacity() > buffer_size {
            self.scratch.truncate(buffer_size);
            self.scratch.shrink_to(buffer_size);
        }
        if self.acks.capacity() > buffer_size {
            self.acks.shrink_to(buffer_size);
        }
        // A buffer of `buffer_size` bytes holds fewer commands than
        // `buffer_size / 8` (the smallest command is 9 bytes on the
        // wire), which bounds every staging column.
        let max_entries = buffer_size / 8;
        self.stage.shrink(max_entries);
        if self.merge_offsets.capacity() > max_entries {
            self.merge_offsets.shrink_to(max_entries);
        }
        if self.merge_deltas.capacity() > max_entries {
            self.merge_deltas.shrink_to(max_entries);
        }
        if self.order.capacity() > max_entries {
            self.order.shrink_to(max_entries);
        }
        if self.merge.capacity() > max_entries {
            self.merge.shrink_to(max_entries);
        }
    }
}

/// Executes every command in one received aggregation buffer through the
/// scalar (one-at-a-time) datapath — the `batch_apply = false` ablation
/// baseline. Returns the number of commands executed. `chan` is the
/// executing helper's counter shard.
///
/// `src` is the node the buffer came from (replies go back there).
/// `scratch` holds `GetReply` payloads; `acks` collects the completion
/// tokens of every token-only acknowledgement (Put/Alloc/Free/AddN) so
/// one vectorized [`Command::AckN`] answers the whole buffer instead of
/// one `Ack` per command.
fn process_buffer_scalar(
    node: &Arc<NodeShared>,
    src: NodeId,
    buf: &[u8],
    scratch: &mut Vec<u8>,
    acks: &mut Vec<u8>,
    chan: usize,
) -> u64 {
    debug_assert!(acks.is_empty());
    let mut executed = 0u64;
    for cmd in CommandIter::new(buf) {
        node.metrics.cmd_counter(cmd.opcode()).add(chan, 1);
        executed += 1;
        match cmd {
            // ---- requests: execute against local memory, reply --------
            Command::Put { token, array, offset, data } => {
                node.memory.with(array, |s| s.write(offset as usize, data));
                acks.extend_from_slice(&token.to_le_bytes());
            }
            Command::Get { token, array, offset, len, dest } => {
                let len = len as usize;
                // Grow-only within the buffer: `Segment::read` overwrites
                // every byte of the slice, so zero-filling (or clearing
                // stale bytes from an earlier reply) would be pure waste.
                if scratch.len() < len {
                    scratch.resize(len, 0);
                }
                let out = &mut scratch[..len];
                node.memory.with(array, |s| s.read(offset as usize, out));
                reply(src, &Command::GetReply { token, dest, data: out });
            }
            Command::Add { token, array, offset, delta, dest } => {
                let old = node.memory.with(array, |s| s.atomic_add(offset as usize, delta));
                reply(src, &Command::AtomicReply { token, dest, old });
            }
            Command::AddN { array, offset, delta, tokens } => {
                // The merged delta of several fire-and-forget adds:
                // applied once, acknowledged once per absorbed token.
                node.memory.with(array, |s| s.atomic_add(offset as usize, delta));
                acks.extend_from_slice(tokens);
            }
            Command::Cas { token, array, offset, expected, new, dest } => {
                let old = node.memory.with(array, |s| s.atomic_cas(offset as usize, expected, new));
                reply(src, &Command::AtomicReply { token, dest, old });
            }
            other => execute_control_or_reply(node, src, &other, acks),
        }
    }
    flush_acks(node, src, acks);
    executed
}

/// Executes one control command (`Alloc`/`Free`/`Spawn`) or reply command
/// — the opcodes both datapaths handle scalar.
fn execute_control_or_reply(
    node: &Arc<NodeShared>,
    src: NodeId,
    cmd: &Command<'_>,
    acks: &mut Vec<u8>,
) {
    match *cmd {
        Command::Alloc { token, id, nbytes, dist, origin, dead_mask } => {
            let dist = Distribution::from_u8(dist).expect("valid distribution on wire");
            let layout = Layout::degraded(nbytes, dist, origin as NodeId, node.nodes, dead_mask);
            node.memory.alloc(id, &layout, node.node_id);
            acks.extend_from_slice(&token.to_le_bytes());
        }
        Command::Free { token, id } => {
            node.memory.free(id);
            acks.extend_from_slice(&token.to_le_bytes());
        }
        Command::Spawn { token, body, start, count, chunk, args } => {
            let (body, args) = if node.cluster.cross_process {
                // `body` is a vtable offset and `args` packs the closure's
                // captured bytes ahead of the user args — rebuild both.
                // The reliability layer has already verified delivery, so
                // a malformed packing is a protocol bug, not line noise.
                unsafe { ParForBody::from_wire_bytes(body, args) }
                    .expect("malformed cross-process Spawn body")
            } else {
                // Safety: the wire pointer carries one strong reference,
                // minted by the issuing parFor.
                (unsafe { ParForBody::from_wire(body) }, Arc::from(args))
            };
            node.push_itb(Itb::new(
                body,
                args,
                start,
                count,
                chunk,
                ParentRef { node: src, token },
            ));
            // The Ack is sent by whichever worker completes the last
            // iteration of the block.
        }

        // ---- replies: complete operations of local tasks ----------
        //
        // Every completion first *acquits* its registry entry: if the
        // acquit fails, the comm server's death sweep already
        // error-completed the token (the reply raced a — possibly
        // false-positive — death confirmation against `src`), so the
        // token reference is gone and the reply must be dropped whole.
        Command::Ack { token } => complete_ack_run(node, src, token, 1),
        Command::AckN { tokens } => {
            // Runs of equal tokens (one task's merged adds, or its
            // burst of puts) acquit and complete in one batch each.
            let mut it = crate::command::tokens(tokens).peekable();
            while let Some(token) = it.next() {
                let mut n = 1u32;
                while it.peek() == Some(&token) {
                    it.next();
                    n += 1;
                }
                complete_ack_run(node, src, token, n);
            }
        }
        Command::GetReply { token, dest, data } => {
            // Safety: `dest` points into the buffer registered by the
            // issuing task, which stays parked (and its stack alive)
            // until this completion — unless it abandoned the
            // operation after a deadline expiry, in which case the
            // write guard below refuses the write.
            if node.outstanding.acquit(token, src) {
                unsafe {
                    reply_write(node, token, || {
                        std::ptr::copy_nonoverlapping(data.as_ptr(), dest as *mut u8, data.len());
                    });
                    complete_token(token);
                }
            }
        }
        Command::AtomicReply { token, dest, old } => {
            // Safety: as above; `dest` is an aligned i64 slot on the
            // parked task's stack (0 = fire-and-forget).
            if node.outstanding.acquit(token, src) {
                unsafe {
                    if dest != 0 {
                        reply_write(node, token, || {
                            (dest as *mut i64).write(old);
                        });
                    }
                    complete_token(token);
                }
            }
        }
        Command::Put { .. }
        | Command::Get { .. }
        | Command::Add { .. }
        | Command::AddN { .. }
        | Command::Cas { .. } => unreachable!("request opcodes are handled by the datapaths"),
    }
}

/// Acquits and completes `n` references of `token` in one batch (one
/// `fetch_sub` instead of *n*); a shortfall means the death sweep already
/// error-completed the rest.
fn complete_ack_run(node: &Arc<NodeShared>, src: NodeId, token: u64, n: u32) {
    let acquitted = node.outstanding.acquit_n(token, src, n);
    // Safety: each acquit guarantees one uncompleted mint of `token`.
    unsafe { complete_token_n(token, acquitted) };
}

/// Executes every command in one received aggregation buffer through the
/// batched datapath (decode → bucket → apply; see the module docs).
/// Returns the number of commands executed.
fn process_buffer_batched(
    node: &Arc<NodeShared>,
    src: NodeId,
    buf: &[u8],
    hs: &mut HelperScratch,
    chan: usize,
) -> u64 {
    debug_assert!(hs.acks.is_empty() && hs.stage.is_empty());
    let mut executed = 0u64;
    let mut segments_resolved = 0u64;
    // Run-detection for same-token `Ack` bursts: consecutive plain acks
    // carrying one token settle with a single batched completion, like
    // the equal-token runs inside an `AckN`. Staged requests between two
    // acks do not break the run (their completions are unrelated).
    let mut ack_run: Option<(u64, u32)> = None;
    for cmd in CommandIter::new(buf) {
        node.metrics.cmd_counter(cmd.opcode()).add(chan, 1);
        executed += 1;
        if hs.stage.stage(&cmd, buf) {
            continue;
        }
        if let Command::Ack { token } = cmd {
            match &mut ack_run {
                Some((t, n)) if *t == token => *n += 1,
                Some((t, n)) => {
                    complete_ack_run(node, src, *t, *n);
                    (*t, *n) = (token, 1);
                }
                None => ack_run = Some((token, 1)),
            }
            continue;
        }
        if matches!(cmd, Command::Alloc { .. } | Command::Free { .. } | Command::Spawn { .. }) {
            // Control barrier: staged data commands must apply before an
            // alloc/free/spawn that follows them in the buffer.
            segments_resolved += apply_staged(node, src, buf, hs, chan);
        } else if let Some((t, n)) = ack_run.take() {
            // Another reply opcode breaks an ack run.
            complete_ack_run(node, src, t, n);
        }
        execute_control_or_reply(node, src, &cmd, &mut hs.acks);
    }
    if let Some((t, n)) = ack_run.take() {
        complete_ack_run(node, src, t, n);
    }
    segments_resolved += apply_staged(node, src, buf, hs, chan);
    node.metrics.batch_buffers.add(chan, 1);
    if segments_resolved > 0 {
        node.metrics.batch_segments_per_buffer.record(segments_resolved);
    }
    flush_acks(node, src, &mut hs.acks);
    executed
}

/// Builds the bucketing permutation for one class: `order` becomes the
/// stable by-array ordering of `0..arrays.len()`. Buffers usually carry
/// commands already grouped by array (one task hammers one array), so the
/// common case is a grouped check and an identity permutation — the
/// stable sort (which allocates) only runs on genuinely interleaved
/// buffers.
fn bucket_by_array(order: &mut Vec<u32>, arrays: &[u64]) {
    order.clear();
    order.extend(0..arrays.len() as u32);
    if !arrays.windows(2).all(|w| w[0] <= w[1]) {
        order.sort_by_key(|&i| arrays[i as usize]);
    }
}

/// Iterates the same-array runs of a bucketed class, resolving each run's
/// segment once and recording the run-length metric.
fn for_each_run(
    node: &Arc<NodeShared>,
    order: &[u32],
    arrays: &[u64],
    mut apply: impl FnMut(&crate::memory::Segment, &[u32]),
) -> u64 {
    let mut resolved = 0u64;
    let mut i = 0;
    while i < order.len() {
        let array = arrays[order[i] as usize];
        let mut j = i + 1;
        while j < order.len() && arrays[order[j] as usize] == array {
            j += 1;
        }
        node.metrics.batch_run_len.record((j - i) as u64);
        resolved += 1;
        node.memory.with_batch(array, |seg| apply(seg, &order[i..j]));
        i = j;
    }
    resolved
}

/// Sorts the `(offset, delta)` pre-merge staging and applies it through
/// [`Segment::atomic_add_batch`], counting merged RMWs.
///
/// [`Segment::atomic_add_batch`]: crate::memory::Segment::atomic_add_batch
fn apply_merged_adds(
    node: &Arc<NodeShared>,
    seg: &crate::memory::Segment,
    merge: &mut Vec<(u64, i64)>,
    offsets: &mut Vec<u64>,
    deltas: &mut Vec<i64>,
    chan: usize,
) {
    if merge.is_empty() {
        return;
    }
    // Unstable is fine: adds commute, and equal offsets merge anyway.
    merge.sort_unstable_by_key(|&(offset, _)| offset);
    offsets.clear();
    deltas.clear();
    offsets.extend(merge.iter().map(|&(o, _)| o));
    deltas.extend(merge.iter().map(|&(_, d)| d));
    let performed = seg.atomic_add_batch(offsets, deltas);
    node.metrics.batch_rmw_merged.add(chan, (offsets.len() - performed) as u64);
    merge.clear();
}

/// Applies everything staged so far (stages 2 + 3: bucket by segment,
/// vectorized apply per run), clears the stage, and returns the number of
/// segment resolutions performed.
///
/// Classes apply in a fixed order (puts, merged adds, `AddN`, cas, gets)
/// rather than buffer order; GMT never ordered independent in-flight
/// commands (the aggregation layer itself reorders blocks), so only the
/// relative order *within* a class is kept — stable bucketing preserves
/// it for the order-sensitive classes (duplicate-offset puts, cas).
fn apply_staged(
    node: &Arc<NodeShared>,
    src: NodeId,
    buf: &[u8],
    hs: &mut HelperScratch,
    chan: usize,
) -> u64 {
    if hs.stage.is_empty() {
        return 0;
    }
    let HelperScratch { stage, order, merge, merge_offsets, merge_deltas, scratch, acks } = hs;
    let mut resolved = 0u64;

    // ---- puts: word-wise batch copies, tokens into the ack column ----
    if !stage.put_arrays.is_empty() {
        bucket_by_array(order, &stage.put_arrays);
        resolved += for_each_run(node, order, &stage.put_arrays, |seg, run| {
            seg.write_batch(run.iter().map(|&k| {
                let k = k as usize;
                let (start, len) = stage.put_data[k];
                (stage.put_offsets[k] as usize, &buf[start as usize..(start + len) as usize])
            }));
        });
        for &t in &stage.put_tokens {
            acks.extend_from_slice(&t.to_le_bytes());
        }
    }

    // ---- atomic adds: same-offset pre-merge, one RMW per cell --------
    //
    // Fire-and-forget adds (`dest == 0` — the uncombined storm shape)
    // merge exactly like the sink's combining table does at the source
    // and acknowledge through the ack column (observably equivalent to
    // the scalar path's `AtomicReply { dest: 0 }`: both acquit and
    // complete the token without writing anything back). Blocking adds
    // need their individual old values, so they stay scalar inside the
    // resolved run.
    if !stage.add_arrays.is_empty() {
        bucket_by_array(order, &stage.add_arrays);
        resolved += for_each_run(node, order, &stage.add_arrays, |seg, run| {
            debug_assert!(merge.is_empty());
            for &k in run {
                let k = k as usize;
                if stage.add_dests[k] == 0 {
                    merge.push((stage.add_offsets[k], stage.add_deltas[k]));
                    acks.extend_from_slice(&stage.add_tokens[k].to_le_bytes());
                }
            }
            apply_merged_adds(node, seg, merge, merge_offsets, merge_deltas, chan);
            tls::with_sink(|sink| {
                for &k in run {
                    let k = k as usize;
                    if stage.add_dests[k] != 0 {
                        let old =
                            seg.atomic_add(stage.add_offsets[k] as usize, stage.add_deltas[k]);
                        sink.emit(
                            src,
                            &Command::AtomicReply {
                                token: stage.add_tokens[k],
                                dest: stage.add_dests[k],
                                old,
                            },
                        );
                    }
                }
            });
        });
    }

    // ---- AddN: merged-at-source deltas, re-merged across the buffer --
    if !stage.addn_arrays.is_empty() {
        bucket_by_array(order, &stage.addn_arrays);
        resolved += for_each_run(node, order, &stage.addn_arrays, |seg, run| {
            debug_assert!(merge.is_empty());
            for &k in run {
                let k = k as usize;
                merge.push((stage.addn_offsets[k], stage.addn_deltas[k]));
                // AckN assembles directly from the staged token column:
                // the wire token run is already the ack wire format.
                let (start, len) = stage.addn_tokens[k];
                acks.extend_from_slice(&buf[start as usize..(start + len) as usize]);
            }
            apply_merged_adds(node, seg, merge, merge_offsets, merge_deltas, chan);
        });
    }

    // ---- cas: order-sensitive and value-returning, scalar per op -----
    if !stage.cas_arrays.is_empty() {
        bucket_by_array(order, &stage.cas_arrays);
        resolved += for_each_run(node, order, &stage.cas_arrays, |seg, run| {
            tls::with_sink(|sink| {
                for &k in run {
                    let k = k as usize;
                    let old = seg.atomic_cas(
                        stage.cas_offsets[k] as usize,
                        stage.cas_expected[k],
                        stage.cas_new[k],
                    );
                    sink.emit(
                        src,
                        &Command::AtomicReply {
                            token: stage.cas_tokens[k],
                            dest: stage.cas_dests[k],
                            old,
                        },
                    );
                }
            });
        });
    }

    // ---- gets: gather runs into scratch, stream replies per chunk ----
    //
    // Chunked so the gather area stays bounded by one buffer's worth of
    // reply payload (plus one oversized get): a run's total could
    // otherwise reach commands-per-buffer × max payload.
    if !stage.get_arrays.is_empty() {
        let chunk_cap = node.config.buffer_size;
        bucket_by_array(order, &stage.get_arrays);
        resolved += for_each_run(node, order, &stage.get_arrays, |seg, run| {
            let mut i = 0;
            while i < run.len() {
                let mut total = 0usize;
                let mut end = i;
                while end < run.len() {
                    let len = stage.get_lens[run[end] as usize] as usize;
                    if end > i && total + len > chunk_cap {
                        break;
                    }
                    total += len;
                    end += 1;
                }
                if scratch.len() < total {
                    scratch.resize(total, 0);
                }
                let mut rest = &mut scratch[..total];
                seg.gather_batch(run[i..end].iter().map(|&k| {
                    let k = k as usize;
                    let (head, tail) =
                        std::mem::take(&mut rest).split_at_mut(stage.get_lens[k] as usize);
                    rest = tail;
                    (stage.get_offsets[k] as usize, head)
                }));
                // One sink access streams the whole chunk of replies.
                tls::with_sink(|sink| {
                    let mut pos = 0usize;
                    for &k in &run[i..end] {
                        let k = k as usize;
                        let len = stage.get_lens[k] as usize;
                        sink.emit(
                            src,
                            &Command::GetReply {
                                token: stage.get_tokens[k],
                                dest: stage.get_dests[k],
                                data: &scratch[pos..pos + len],
                            },
                        );
                        pos += len;
                    }
                });
                i = end;
            }
        });
    }

    stage.clear();
    resolved
}

/// Sends the batched token-only acknowledgements for one processed buffer:
/// a single token degenerates to a plain `Ack`; larger batches go out as
/// `AckN` commands chunked to the aggregation buffer capacity.
fn flush_acks(node: &Arc<NodeShared>, src: NodeId, acks: &mut Vec<u8>) {
    if acks.is_empty() {
        return;
    }
    if acks.len() == 8 {
        let token = u64::from_le_bytes(acks[..8].try_into().unwrap());
        reply(src, &Command::Ack { token });
    } else {
        // Whole tokens per chunk, within the buffer's command capacity.
        let cap = node.config.buffer_size - node.agg.header_reserve();
        let chunk_bytes = (cap.saturating_sub(5) / 8 * 8).max(8);
        for chunk in acks.chunks(chunk_bytes) {
            reply(src, &Command::AckN { tokens: chunk });
        }
    }
    acks.clear();
}

#[inline]
fn reply(dst: NodeId, cmd: &Command<'_>) {
    tls::with_sink(|s| s.emit(dst, cmd));
}

/// Performs a reply-data write through a task-provided destination
/// pointer, guarded against the task having abandoned the operation after
/// a deadline expiry (its stack frame may be gone by then).
///
/// While no deadline has ever been armed on this node the guard is one
/// `Acquire` load; once armed, the write brackets itself in the
/// writer-counter handshake of [`TaskControl::begin_reply_write`].
///
/// # Safety
///
/// `token` must be a live token minted by [`crate::task::token_from`]
/// whose completion has not happened yet (this function does not complete
/// it), and `write` must be safe to perform while the issuing task is
/// parked.
///
/// [`TaskControl::begin_reply_write`]: crate::task::TaskControl::begin_reply_write
#[inline]
unsafe fn reply_write(node: &Arc<NodeShared>, token: u64, write: impl FnOnce()) {
    use std::sync::atomic::Ordering;
    if !node.deadlines_armed.load(Ordering::Acquire) {
        write();
        return;
    }
    // Safety: the token holds a strong reference until `complete_token`,
    // so borrowing the TaskControl here (before completion) is sound.
    let ctl = unsafe { &*(token as *const crate::task::TaskControl) };
    if ctl.begin_reply_write() {
        write();
    }
    ctl.end_reply_write();
}

/// Entry point of a helper thread. `chan` is the index of this helper's
/// channel queue to the communication server.
pub fn helper_main(node: Arc<NodeShared>, chan: usize, tracer: ThreadTracer) {
    tls::install(CommandSink::new(Arc::clone(&node.agg), chan));
    let reader = node.memory.register_reader();
    let bell = &node.helper_bells[chan - node.config.num_workers];
    let mut hs = HelperScratch::new();
    let mut idle = Idle::default();
    let batch = node.config.batch_apply;
    let buffer_size = node.config.buffer_size;
    // Commands start after the transport header the sender reserved (the
    // communication server validated its presence before delivering).
    let hdr = node.agg.header_reserve();
    loop {
        // Top of the loop: no segment reference is held here.
        reader.quiescent();
        let mut progressed = false;
        while let Some((src, buf)) = node.helper_in.pop() {
            let t0 = tracer.now_ns();
            let executed = if batch {
                process_buffer_batched(&node, src, &buf[hdr..], &mut hs, chan)
            } else {
                process_buffer_scalar(&node, src, &buf[hdr..], &mut hs.scratch, &mut hs.acks, chan)
            };
            tracer.span("process_buffer", t0, executed);
            // Buffer boundary: release pathological high-water marks.
            hs.shrink(buffer_size);
            progressed = true;
        }
        tls::with_sink(|s| s.pump());
        // `helper_in` is drained: nothing more will join the replies in
        // the sink, so ship them now instead of at their timeout.
        let pump_at = tls::with_sink(|s| s.flush_idle());
        if progressed {
            idle.reset();
        } else {
            if node.stopping() {
                break;
            }
            idle.wait(|| {
                let timeout = park_timeout(node.agg.now_ns(), pump_at);
                reader.offline();
                bell.park(timeout, || !node.helper_in.is_empty() || node.stopping());
                reader.online();
                node.agg.tick();
            });
        }
    }
    drop(reader);
    if let Some(mut sink) = tls::uninstall() {
        sink.flush_all();
    }
}
