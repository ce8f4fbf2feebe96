//! Property-based tests for gmt-core's data-plane invariants.

use gmt_core::command::{Command, CommandIter};
use gmt_core::handle::{Distribution, Layout};
use gmt_core::memory::Segment;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Command wire format
// ---------------------------------------------------------------------

fn arb_command() -> impl Strategy<Value = OwnedCommand> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(token, array, offset, data)| OwnedCommand::Put {
                token,
                array,
                offset,
                data
            }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()).prop_map(
            |(token, array, offset, len, dest)| OwnedCommand::Get {
                token,
                array,
                offset,
                len,
                dest
            }
        ),
        any::<u64>().prop_map(|token| OwnedCommand::Ack { token }),
        (any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(token, dest, data)| OwnedCommand::GetReply { token, dest, data }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<i64>(), any::<u64>()).prop_map(
            |(token, array, offset, delta, dest)| OwnedCommand::Add {
                token,
                array,
                offset,
                delta,
                dest
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<i64>(), any::<i64>(), any::<u64>())
            .prop_map(|(token, array, offset, expected, new, dest)| OwnedCommand::Cas {
                token,
                array,
                offset,
                expected,
                new,
                dest
            }),
        (any::<u64>(), any::<u64>(), any::<i64>())
            .prop_map(|(token, dest, old)| OwnedCommand::AtomicReply { token, dest, old }),
        (any::<u64>(), any::<u64>(), any::<u64>(), 0u8..3, any::<u32>(), any::<u64>()).prop_map(
            |(token, id, nbytes, dist, origin, dead_mask)| OwnedCommand::Alloc {
                token,
                id,
                nbytes,
                dist,
                origin,
                dead_mask
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(token, id)| OwnedCommand::Free { token, id }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            1u32..1000,
            proptest::collection::vec(any::<u8>(), 0..100)
        )
            .prop_map(|(token, body, start, count, chunk, args)| OwnedCommand::Spawn {
                token,
                body,
                start,
                count,
                chunk,
                args
            }),
        (any::<u64>(), any::<u64>(), any::<i64>(), arb_token_run()).prop_map(
            |(array, offset, delta, tokens)| OwnedCommand::AddN { array, offset, delta, tokens }
        ),
        arb_token_run().prop_map(|tokens| OwnedCommand::AckN { tokens }),
    ]
}

/// A wire token run: whole little-endian u64s, as combining emits them.
fn arb_token_run() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u64>(), 1..20)
        .prop_map(|ts| ts.iter().flat_map(|t| t.to_le_bytes()).collect())
}

/// Owned mirror of `Command` so proptest can generate it.
#[derive(Debug, Clone, PartialEq)]
enum OwnedCommand {
    Put { token: u64, array: u64, offset: u64, data: Vec<u8> },
    Get { token: u64, array: u64, offset: u64, len: u32, dest: u64 },
    Ack { token: u64 },
    GetReply { token: u64, dest: u64, data: Vec<u8> },
    Add { token: u64, array: u64, offset: u64, delta: i64, dest: u64 },
    Cas { token: u64, array: u64, offset: u64, expected: i64, new: i64, dest: u64 },
    AtomicReply { token: u64, dest: u64, old: i64 },
    Alloc { token: u64, id: u64, nbytes: u64, dist: u8, origin: u32, dead_mask: u64 },
    Free { token: u64, id: u64 },
    Spawn { token: u64, body: u64, start: u64, count: u64, chunk: u32, args: Vec<u8> },
    AddN { array: u64, offset: u64, delta: i64, tokens: Vec<u8> },
    AckN { tokens: Vec<u8> },
}

impl OwnedCommand {
    fn as_wire(&self) -> Command<'_> {
        match self {
            OwnedCommand::Put { token, array, offset, data } => {
                Command::Put { token: *token, array: *array, offset: *offset, data }
            }
            OwnedCommand::Get { token, array, offset, len, dest } => Command::Get {
                token: *token,
                array: *array,
                offset: *offset,
                len: *len,
                dest: *dest,
            },
            OwnedCommand::Ack { token } => Command::Ack { token: *token },
            OwnedCommand::GetReply { token, dest, data } => {
                Command::GetReply { token: *token, dest: *dest, data }
            }
            OwnedCommand::Add { token, array, offset, delta, dest } => Command::Add {
                token: *token,
                array: *array,
                offset: *offset,
                delta: *delta,
                dest: *dest,
            },
            OwnedCommand::Cas { token, array, offset, expected, new, dest } => Command::Cas {
                token: *token,
                array: *array,
                offset: *offset,
                expected: *expected,
                new: *new,
                dest: *dest,
            },
            OwnedCommand::AtomicReply { token, dest, old } => {
                Command::AtomicReply { token: *token, dest: *dest, old: *old }
            }
            OwnedCommand::Alloc { token, id, nbytes, dist, origin, dead_mask } => Command::Alloc {
                token: *token,
                id: *id,
                nbytes: *nbytes,
                dist: *dist,
                origin: *origin,
                dead_mask: *dead_mask,
            },
            OwnedCommand::Free { token, id } => Command::Free { token: *token, id: *id },
            OwnedCommand::Spawn { token, body, start, count, chunk, args } => Command::Spawn {
                token: *token,
                body: *body,
                start: *start,
                count: *count,
                chunk: *chunk,
                args,
            },
            OwnedCommand::AddN { array, offset, delta, tokens } => {
                Command::AddN { array: *array, offset: *offset, delta: *delta, tokens }
            }
            OwnedCommand::AckN { tokens } => Command::AckN { tokens },
        }
    }
}

proptest! {
    /// Any command survives encode → decode bit-exactly, and its
    /// `encoded_len` is truthful.
    #[test]
    fn command_roundtrip(cmd in arb_command()) {
        let wire = cmd.as_wire();
        let mut buf = Vec::new();
        wire.encode(&mut buf);
        prop_assert_eq!(buf.len(), wire.encoded_len());
        let mut pos = 0;
        let back = Command::decode(&buf, &mut pos).expect("decodes");
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(back, wire);
    }

    /// A packed buffer of commands decodes to exactly the same sequence
    /// (aggregation never corrupts or reorders *within* one block).
    #[test]
    fn packed_buffer_roundtrip(cmds in proptest::collection::vec(arb_command(), 0..20)) {
        let mut buf = Vec::new();
        for c in &cmds {
            c.as_wire().encode(&mut buf);
        }
        let decoded = CommandIter::new(&buf).count();
        prop_assert_eq!(decoded, cmds.len());
        let mut pos = 0;
        for c in &cmds {
            let got = Command::decode(&buf, &mut pos).expect("decodes");
            prop_assert_eq!(got, c.as_wire());
        }
    }

    /// Truncating an encoded command anywhere never panics and never
    /// yields a phantom command.
    #[test]
    fn truncation_is_safe(cmd in arb_command(), cut in 0usize..1000) {
        let mut buf = Vec::new();
        cmd.as_wire().encode(&mut buf);
        if cut < buf.len() {
            buf.truncate(cut);
            let mut pos = 0;
            if let Some(got) = Command::decode(&buf, &mut pos) {
                // Only an Ack prefix of a longer command could decode; it
                // must still have consumed within bounds.
                prop_assert!(pos <= buf.len());
                let _ = got;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Layout / placement
// ---------------------------------------------------------------------

proptest! {
    /// Segment sizes sum to the allocation size; every byte has exactly
    /// one owner; extents tile any range contiguously.
    #[test]
    fn layout_partitions_bytes(
        nbytes in 1u64..100_000,
        nodes in 1usize..12,
        origin_seed in any::<u64>(),
        dist_sel in 0u8..3,
    ) {
        let origin = (origin_seed % nodes as u64) as usize;
        let dist = match dist_sel {
            0 => Distribution::Partition,
            1 => Distribution::Local,
            _ => Distribution::Remote,
        };
        let l = Layout::new(nbytes, dist, origin, nodes);
        let total: u64 = (0..nodes).map(|n| l.segment_size(n)).sum();
        prop_assert_eq!(total, nbytes);
        // Spot-check bytes resolve within their owner's segment.
        for probe in [0, nbytes / 3, nbytes / 2, nbytes - 1] {
            let (node, seg) = l.locate(probe);
            prop_assert!(node < nodes);
            prop_assert!(seg < l.segment_size(node));
        }
    }

    /// `extents` covers a random sub-range exactly once, in order.
    #[test]
    fn extents_tile_ranges(
        nbytes in 1u64..50_000,
        nodes in 1usize..9,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let l = Layout::new(nbytes, Distribution::Partition, 0, nodes);
        let (a, b) = (a % nbytes, b % nbytes);
        let (offset, end) = if a <= b { (a, b + 1) } else { (b, a + 1) };
        let len = end - offset;
        let extents = l.extents(offset, len);
        let covered: u64 = extents.iter().map(|e| e.len).sum();
        prop_assert_eq!(covered, len);
        let mut cursor = offset;
        for e in &extents {
            prop_assert_eq!(e.global_offset, cursor);
            prop_assert!(e.len > 0);
            let (node, seg) = l.locate(e.global_offset);
            prop_assert_eq!(node, e.node);
            prop_assert_eq!(seg, e.segment_offset);
            cursor += e.len;
        }
    }

    /// Aligned 8-byte words never straddle nodes (atomics' prerequisite).
    #[test]
    fn words_never_straddle(nbytes in 8u64..50_000, nodes in 1usize..9, w in any::<u64>()) {
        let l = Layout::new(nbytes, Distribution::Partition, 0, nodes);
        let word = (w % (nbytes / 8)) * 8;
        prop_assert_eq!(l.extents(word, 8).len(), 1);
    }
}

// ---------------------------------------------------------------------
// Memory segments vs a reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MemOp {
    Write { offset: usize, data: Vec<u8> },
    Read { offset: usize, len: usize },
    Add { word: usize, delta: i64 },
    Cas { word: usize, expected: i64, new: i64 },
}

fn arb_mem_ops(seg_len: usize) -> impl Strategy<Value = Vec<MemOp>> {
    let words = seg_len / 8;
    proptest::collection::vec(
        prop_oneof![
            (0..seg_len, proptest::collection::vec(any::<u8>(), 0..64)).prop_map(
                move |(offset, mut data)| {
                    data.truncate(seg_len - offset);
                    MemOp::Write { offset, data }
                }
            ),
            (0..seg_len, 0usize..64).prop_map(move |(offset, len)| MemOp::Read {
                offset,
                len: len.min(seg_len - offset),
            }),
            (0..words, any::<i64>()).prop_map(|(w, delta)| MemOp::Add { word: w * 8, delta }),
            (0..words, any::<i64>(), any::<i64>()).prop_map(|(w, e, n)| MemOp::Cas {
                word: w * 8,
                expected: e,
                new: n
            }),
        ],
        1..60,
    )
}

proptest! {
    /// A `Segment` behaves exactly like a plain byte array under any
    /// single-threaded sequence of writes, reads and atomics.
    #[test]
    fn segment_matches_reference_model(ops in arb_mem_ops(256)) {
        let seg = Segment::new(256);
        let mut model = vec![0u8; 256];
        for op in ops {
            match op {
                MemOp::Write { offset, data } => {
                    seg.write(offset, &data);
                    model[offset..offset + data.len()].copy_from_slice(&data);
                }
                MemOp::Read { offset, len } => {
                    let mut got = vec![0u8; len];
                    seg.read(offset, &mut got);
                    prop_assert_eq!(&got[..], &model[offset..offset + len]);
                }
                MemOp::Add { word, delta } => {
                    let old = seg.atomic_add(word, delta);
                    let m = i64::from_le_bytes(model[word..word + 8].try_into().unwrap());
                    prop_assert_eq!(old, m);
                    model[word..word + 8]
                        .copy_from_slice(&m.wrapping_add(delta).to_le_bytes());
                }
                MemOp::Cas { word, expected, new } => {
                    let old = seg.atomic_cas(word, expected, new);
                    let m = i64::from_le_bytes(model[word..word + 8].try_into().unwrap());
                    prop_assert_eq!(old, m);
                    if m == expected {
                        model[word..word + 8].copy_from_slice(&new.to_le_bytes());
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Vectorized ack completion
// ---------------------------------------------------------------------

proptest! {
    /// A vectorized `AckN` completes exactly what the equivalent stream
    /// of plain `Ack`s would: for any interleaving of tokens minted by a
    /// few tasks, the helper's run-length batching through
    /// `complete_token_n` drains the same pending counts and releases
    /// the same token references as completing each token individually.
    #[test]
    fn ackn_completion_equals_ack_stream(stream in proptest::collection::vec(0usize..3, 1..40)) {
        use gmt_core::task::{complete_token, complete_token_n, token_from, ReadyQueue, TaskControl};
        use std::sync::Arc;

        for batched in [false, true] {
            let ready = Arc::new(ReadyQueue::new());
            let ctls: Vec<_> =
                (0..3).map(|slot| TaskControl::new(Arc::clone(&ready), slot)).collect();
            // Mint one token per stream element, as the issuing tasks'
            // emit paths do (each mint = one pending op + one strong
            // reference; mints of the same task share the numeric token).
            let tokens: Vec<u64> = stream
                .iter()
                .map(|&i| {
                    ctls[i].add_pending(1);
                    token_from(&ctls[i])
                })
                .collect();
            if batched {
                // The helper's RLE grouping over an `AckN` token run.
                let mut k = 0;
                while k < tokens.len() {
                    let mut n = 1u32;
                    while k + (n as usize) < tokens.len() && tokens[k + n as usize] == tokens[k] {
                        n += 1;
                    }
                    unsafe { complete_token_n(tokens[k], n) };
                    k += n as usize;
                }
            } else {
                for &t in &tokens {
                    unsafe { complete_token(t) };
                }
            }
            for (i, ctl) in ctls.iter().enumerate() {
                prop_assert_eq!(ctl.pending(), 0, "task {} pending (batched={})", i, batched);
                // Every minted reference was released: only ours is left.
                prop_assert_eq!(
                    Arc::strong_count(ctl),
                    1,
                    "task {} leaked token refs (batched={})",
                    i,
                    batched
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end: random op sequences through a real cluster
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random put/get/atomic sequences executed by a GMT task agree with
    /// a flat reference array, across node counts and distributions.
    #[test]
    fn cluster_ops_match_reference(
        ops in arb_mem_ops(256),
        nodes in 1usize..4,
        dist_sel in 0u8..3,
    ) {
        use gmt_core::{Cluster, Config};
        let dist = match dist_sel {
            0 => Distribution::Partition,
            1 => Distribution::Local,
            _ => Distribution::Remote,
        };
        let cluster = Cluster::start(nodes, Config::small()).unwrap();
        let violations = cluster.node(0).run(move |ctx| {
            let arr = ctx.alloc(256, dist);
            let mut model = vec![0u8; 256];
            let mut bad = 0u32;
            for op in ops {
                match op {
                    MemOp::Write { offset, data } => {
                        ctx.put(&arr, offset as u64, &data).unwrap();
                        model[offset..offset + data.len()].copy_from_slice(&data);
                    }
                    MemOp::Read { offset, len } => {
                        let mut got = vec![0u8; len];
                        ctx.get(&arr, offset as u64, &mut got).unwrap();
                        if got != model[offset..offset + len] {
                            bad += 1;
                        }
                    }
                    MemOp::Add { word, delta } => {
                        let old = ctx.atomic_add(&arr, word as u64, delta).unwrap();
                        let m = i64::from_le_bytes(model[word..word + 8].try_into().unwrap());
                        if old != m {
                            bad += 1;
                        }
                        model[word..word + 8]
                            .copy_from_slice(&m.wrapping_add(delta).to_le_bytes());
                    }
                    MemOp::Cas { word, expected, new } => {
                        let old = ctx.atomic_cas(&arr, word as u64, expected, new).unwrap();
                        let m = i64::from_le_bytes(model[word..word + 8].try_into().unwrap());
                        if old != m {
                            bad += 1;
                        }
                        if m == expected {
                            model[word..word + 8].copy_from_slice(&new.to_le_bytes());
                        }
                    }
                }
            }
            ctx.free(arr);
            bad
        });
        cluster.shutdown();
        prop_assert_eq!(violations, 0);
    }
}
