//! Micro-probes of single layers, each through a public API: blocking
//! operations and an empty parFor on an idle cluster (`gmt-core::api`),
//! a bare frame ping-pong on the workload's transport (`gmt-net`), and
//! coroutine switch and create costs (`gmt-context`).

use crate::stats::median;
use crate::workload::Backend;
use gmt_context::{Coroutine, Yielder};
use gmt_core::{Cluster, Distribution, SpawnPolicy};
use gmt_net::{shm_mesh, DeliveryMode, Fabric, Transport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per latency probe: 1% of them lie beyond the p99.
const OPS: usize = 2000;
/// Untimed operations before each latency probe.
const WARMUP_OPS: usize = 200;
const PARFORS: usize = 200;
/// Cells of the probed remote array.
const CELLS: u64 = 64;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Round-trip samples (µs) of blocking runtime operations.
pub struct ApiSamples {
    pub get_us: Vec<f64>,
    pub cas_us: Vec<f64>,
    pub parfor_us: Vec<f64>,
}

/// One task on node 0 makes sequential blocking `get_value` and
/// `atomic_cas` calls to an array that lives on the other node, then
/// times empty-body parFors spread over the cluster.
pub fn api(cluster: &Cluster) -> ApiSamples {
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(CELLS * 8, Distribution::Remote);
        let mut get_us = Vec::with_capacity(OPS);
        let mut cas_us = Vec::with_capacity(OPS);
        for i in 0..WARMUP_OPS + OPS {
            let t = Instant::now();
            black_box(ctx.get_value::<u64>(&arr, i as u64 % CELLS).expect("probe get"));
            if i >= WARMUP_OPS {
                get_us.push(us_since(t));
            }
        }
        for i in 0..WARMUP_OPS + OPS {
            let t = Instant::now();
            black_box(ctx.atomic_cas(&arr, (i as u64 % CELLS) * 8, 0, 0).expect("probe cas"));
            if i >= WARMUP_OPS {
                cas_us.push(us_since(t));
            }
        }
        ctx.free(arr);
        let parfor_us = (0..PARFORS)
            .map(|_| {
                let t = Instant::now();
                ctx.parfor(SpawnPolicy::Partition, ctx.nodes() as u64, 1, |_, _| {});
                us_since(t)
            })
            .collect();
        ApiSamples { get_us, cas_us, parfor_us }
    })
}

const PING_TAG: u32 = 7;
const FRAME_BYTES: usize = 16;
const FRAME_TIMEOUT: Duration = Duration::from_secs(1);

/// Bare 16-byte frame round trips (µs) between two nodes of a fresh
/// mesh on `backend`, with no runtime attached.
pub fn frame_rtt_us(backend: Backend) -> Result<Vec<f64>, String> {
    match backend {
        Backend::Sim => {
            let fabric = Fabric::new(2, DeliveryMode::Instant);
            let eps = fabric.endpoints();
            ping_pong(&eps[0], &eps[1])
        }
        Backend::Shm => {
            let mesh = shm_mesh(2).map_err(|e| format!("building the shm mesh: {e}"))?;
            let r = ping_pong(&mesh[0], &mesh[1]);
            for t in &mesh {
                t.shutdown();
            }
            r
        }
    }
}

fn ping_pong(a: &dyn Transport, b: &dyn Transport) -> Result<Vec<f64>, String> {
    let rounds = WARMUP_OPS + OPS;
    std::thread::scope(|s| {
        let echo = s.spawn(|| -> Result<(), String> {
            for _ in 0..rounds {
                let pkt = b.recv_timeout(FRAME_TIMEOUT).ok_or("echo side timed out")?;
                b.send(a.node(), PING_TAG, pkt.payload).map_err(|e| format!("echo send: {e:?}"))?;
            }
            Ok(())
        });
        let mut rtt = Vec::with_capacity(OPS);
        let mut outcome = Ok(());
        for i in 0..rounds {
            let t = Instant::now();
            if let Err(e) = a.send(b.node(), PING_TAG, vec![0u8; FRAME_BYTES].into()) {
                outcome = Err(format!("ping send: {e:?}"));
                break;
            }
            if a.recv_timeout(FRAME_TIMEOUT).is_none() {
                outcome = Err("ping side timed out".to_string());
                break;
            }
            if i >= WARMUP_OPS {
                rtt.push(us_since(t));
            }
        }
        let echoed = echo.join().map_err(|_| "echo thread panicked".to_string())?;
        outcome.and(echoed).map(|()| rtt)
    })
}

const SWITCHES: u64 = 20_000;
const CREATES: u64 = 2_000;
const BATCHES: usize = 5;

/// Nanoseconds per `resume` + `yield_now` pair, median of batches.
pub fn ctx_switch_ns(stack_size: usize) -> Result<f64, String> {
    let batches = (0..BATCHES)
        .map(|_| {
            let mut co = Coroutine::new(stack_size, |y: &Yielder| {
                for _ in 0..SWITCHES {
                    y.yield_now();
                }
            })
            .map_err(|e| e.to_string())?;
            let t = Instant::now();
            for _ in 0..SWITCHES {
                co.resume();
            }
            let ns = t.elapsed().as_nanos() as f64 / SWITCHES as f64;
            co.resume();
            Ok(ns)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&batches))
}

/// Nanoseconds to create, run to completion and drop a coroutine with
/// a `stack_size` stack, median of batches.
pub fn ctx_create_ns(stack_size: usize) -> Result<f64, String> {
    let batches = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..CREATES {
                let mut co = Coroutine::new(stack_size, move |_: &Yielder| black_box(i))
                    .map_err(|e| e.to_string())?;
                co.resume();
                black_box(co.take_result());
            }
            Ok(t.elapsed().as_nanos() as f64 / CREATES as f64)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&batches))
}
