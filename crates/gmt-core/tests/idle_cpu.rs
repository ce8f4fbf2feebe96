//! An idle cluster parks its runtime threads instead of polling. Alone
//! in its test binary: it reads CPU time per thread name from
//! `/proc/self/task`, and another cluster in the same process would be
//! counted too.

#![cfg(target_os = "linux")]

use gmt_core::{Cluster, Config};
use std::time::{Duration, Instant};

/// Total CPU time (ns) of this process's runtime threads (workers,
/// helpers and comm servers are named `gmt-n<node>-…`).
fn runtime_cpu_ns() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").flatten() {
        let path = task.path();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if !name.starts_with("gmt-n") {
            continue;
        }
        let stat = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
        total += stat.split_whitespace().next().and_then(|ns| ns.parse::<u64>().ok()).unwrap_or(0);
    }
    total
}

#[test]
fn idle_cluster_uses_almost_no_cpu() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    // Let start-up traffic (first heartbeats, acks) settle.
    cluster.node(0).run(|_| ());
    std::thread::sleep(Duration::from_millis(100));
    let window = Duration::from_millis(500);
    let (cpu0, t0) = (runtime_cpu_ns(), Instant::now());
    std::thread::sleep(window);
    let cores = (runtime_cpu_ns() - cpu0) as f64 / t0.elapsed().as_nanos() as f64;
    cluster.shutdown();
    assert!(cores < 0.05, "an idle 2-node cluster used {cores:.3} cores");
}
