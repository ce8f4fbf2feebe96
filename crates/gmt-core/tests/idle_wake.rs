//! The event-driven idle path: a thread that runs out of work flushes
//! what it holds at once and parks on its doorbell, and freed segments
//! are reclaimed while the cluster runs.

use gmt_core::{Cluster, Config, Distribution, SpawnPolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Blocking operations complete in round-trip time, not flush-timeout
/// time: with both timeouts at 10 s, only the quiescence flush (the
/// emitting worker and the replying helper have nothing else to run)
/// can ship the commands within the 1 s budget.
#[test]
fn blocking_ops_complete_without_waiting_for_flush_timeouts() {
    let config = Config {
        cmd_block_timeout_ns: 10_000_000_000,
        aggregation_timeout_ns: 10_000_000_000,
        ..Config::small()
    };
    let cluster = Cluster::start_sim(2, config).unwrap();
    let t0 = Instant::now();
    let (got, old, sum) = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(64, Distribution::Remote);
        ctx.put_value::<i64>(&arr, 1, 7).unwrap();
        let got = ctx.get_value::<i64>(&arr, 1).unwrap();
        let old = ctx.atomic_cas(&arr, 8, 7, 9).unwrap();
        let sums = ctx.alloc(8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Partition, 8, 1, move |ctx, i| {
            ctx.atomic_add(&sums, 0, i as i64).unwrap();
        });
        let sum = ctx.get_value::<i64>(&sums, 0).unwrap();
        ctx.free(arr);
        ctx.free(sums);
        (got, old, sum)
    });
    let elapsed = t0.elapsed();
    cluster.shutdown();
    assert_eq!((got, old, sum), (7, 7, 28));
    assert!(elapsed < Duration::from_secs(1), "blocking ops took {elapsed:?}");
}

/// Freed segments do not pile up: 2000 alloc/free cycles across both
/// nodes leave a bounded number of segments awaiting reclamation.
#[test]
fn freed_segments_are_reclaimed_while_running() {
    const CYCLES: usize = 2000;
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let shared: Vec<_> = (0..2).map(|n| Arc::clone(cluster.node(n).shared())).collect();
    let peak = cluster.node(0).run(move |ctx| {
        let mut peak = 0;
        for i in 0..CYCLES {
            let arr = ctx.alloc(1024, Distribution::Partition);
            ctx.put_value::<u64>(&arr, 0, i as u64).unwrap();
            ctx.free(arr);
            for node in &shared {
                peak = peak.max(node.memory.retired_segments());
            }
        }
        peak
    });
    let left: Vec<usize> =
        (0..2).map(|n| cluster.node(n).shared().memory.retired_segments()).collect();
    cluster.shutdown();
    assert!(peak <= 64, "a node held {peak} retired segments at once");
    assert!(left.iter().all(|&n| n <= 64), "retired segments left behind: {left:?}");
}
