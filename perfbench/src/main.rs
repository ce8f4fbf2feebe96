//! `gmt-perfbench` — the paper's three kernels (BFS, GRW, CHMA) end to
//! end on an in-process 2-node cluster, with a per-layer ledger measured
//! from outside the runtime.
//!
//! ```text
//! gmt-perfbench --workload <bfs|grw|chma> --seed <n> --seconds <s> --trace <0|1>
//!               [--trace-out <file.json>]
//! ```
//!
//! Load is a closed loop from one client thread: the next kernel call
//! starts when the previous one returns. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics and
//! writes the benchmark's spans as a Chrome trace. The last line of
//! standard output is one JSON object with the results. See README.md
//! for the workloads and the layer → metric → workload map.

mod probe;
mod span;
mod stats;
mod sys;
mod workload;

use gmt_core::{Cluster, Config, MetricsSnapshot};
use gmt_metrics::trace::TraceSink;
use span::timed;
use stats::{bucket_quantile, median, quantile};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sys::{Role, ThreadCpu};
use workload::{Input, Kind, Lane, Loaded, SetupTimes};

/// Seconds of timed calls per cluster lifetime (epoch) of an end-to-end
/// run. Each epoch sets up anew, so `setup_s` is a median over many
/// set-ups, and the timed calls sample many fresh placements of the
/// runtime's threads on the cores: on 2 cores one placement can run a
/// kernel 1.5x slower than another for as long as the cluster lives.
/// Two seconds give a bfs epoch about 20 calls, enough for its own p90.
const EPOCH_SECONDS: f64 = 2.0;
/// Untimed calls after each set-up (first touch of pools and stacks).
const WARMUP_CALLS: usize = 1;
/// Timed calls per end-to-end run at least: ten beyond the p90.
const MIN_CALLS: usize = 100;
/// Share of an end-to-end run's epochs over whose calls the timings and
/// CPU time are taken: those with the fastest 90th-percentile call. A
/// burst of load from elsewhere on a shared host shows first in the tail
/// of the epochs it hits; dropping them keeps one burst from deciding
/// the run's `kernel_ms_p90`.
const KEPT_EPOCH_SHARE: f64 = 0.75;
/// Timed calls per half of a traced run at least.
const MIN_TRACED_CALLS: usize = 20;
/// Share of a traced run's seconds given to each of its two call loops.
const TRACED_LOOP_SHARE: f64 = 0.4;
/// Window over which an idle, started cluster's CPU use is measured.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
const TRACE_EVENTS: usize = 1 << 16;
const NO_PROC: &str = "/proc/self/task/*/schedstat is not readable";

/// Commands the helpers count by opcode (`helper.cmd.<op>`).
const HELPER_OPS: [&str; 12] = [
    "put",
    "get",
    "ack",
    "get-reply",
    "add",
    "cas",
    "atomic-reply",
    "alloc",
    "free",
    "spawn",
    "add-n",
    "ack-n",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("bfs, grw or chma"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// One reported metric; `Err` holds why it could not be measured.
struct Metric {
    name: String,
    unit: &'static str,
    value: Result<f64, String>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// A reference output (sequential or MPI baseline) was wrong.
    reference_failed: bool,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: Result<f64, String>) {
        let value =
            value
                .and_then(|v| if v.is_finite() { Ok(v) } else { Err(format!("not finite ({v})")) });
        self.metrics.push(Metric { name: name.into(), unit, value });
    }
}

/// `a / b`, or why not.
fn ratio(a: f64, b: f64, what: &str) -> Result<f64, String> {
    if b > 0.0 {
        Ok(a / b)
    } else {
        Err(format!("no {what} in the measured window"))
    }
}

/// Kernel calls made so far: timed samples and outcomes.
#[derive(Default)]
struct Calls {
    ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Calls {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: kernel call {} failed: {e}", self.attempted);
        }
    }

    /// Untimed calls; their failures still count.
    fn warm_up(&mut self, loaded: &Loaded, input: &Input) {
        for _ in 0..WARMUP_CALLS {
            self.record(loaded.call(input));
        }
    }

    /// Closed loop: timed calls until `until` has passed and the sample
    /// holds `min_samples`. A failed call stays in the sample.
    fn run(
        &mut self,
        loaded: &Loaded,
        input: &Input,
        lane: Lane,
        until: Instant,
        min_samples: usize,
    ) {
        while Instant::now() < until || self.ms.len() < min_samples {
            let (outcome, secs) = timed(lane, "kernel.call", self.attempted, || loaded.call(input));
            self.ms.push(secs * 1e3);
            self.record(outcome);
        }
    }
}

/// The timed calls and CPU time of one epoch.
struct Epoch {
    ms: Vec<f64>,
    /// `None` if `/proc` could not be read.
    cpu_ns: Option<u64>,
    /// A call of the epoch failed.
    failed: bool,
}

/// The calls of the epochs with the fastest 90th-percentile call: at
/// least `KEPT_EPOCH_SHARE` of them, and enough to hold `MIN_CALLS`
/// calls. An epoch with a failed call is always kept, so a failed call
/// never leaves the timing sample. Returns the pooled call times and
/// their CPU time.
fn fastest_epochs(mut epochs: Vec<Epoch>) -> (Vec<f64>, Option<u64>) {
    epochs.sort_by(|a, b| {
        b.failed.cmp(&a.failed).then(quantile(&a.ms, 0.9).total_cmp(&quantile(&b.ms, 0.9)))
    });
    let keep = (epochs.len() as f64 * KEPT_EPOCH_SHARE).ceil() as usize;
    let (mut ms, mut cpu_ns) = (Vec::new(), Some(0));
    for (i, e) in epochs.into_iter().enumerate() {
        if i >= keep && ms.len() >= MIN_CALLS && !e.failed {
            break;
        }
        ms.extend(e.ms);
        cpu_ns = cpu_ns.zip(e.cpu_ns).map(|(a, b)| a + b);
    }
    (ms, cpu_ns)
}

fn run_end_to_end(args: &Args) -> Result<Report, String> {
    let kind = args.kind;
    let mut calls = Calls::default();
    let mut setups = Vec::new();
    let mut epochs = Vec::new();
    let mut work_per_call = 0;
    let mut rss = Err("no epoch ran".to_string());
    let epoch_count = (args.seconds / EPOCH_SECONDS).round().max(1.0) as usize;
    let per_epoch = Duration::from_secs_f64(args.seconds / epoch_count as f64);
    for epoch in 0..epoch_count {
        let mut times = SetupTimes::default();
        let cluster = workload::start(kind, None, &mut times)?;
        let (loaded, input) = workload::setup_on(cluster, kind, args.seed, None, &mut times)?;
        setups.push(times.total());
        work_per_call = input.work_per_call;
        calls.warm_up(&loaded, &input);
        let before = ThreadCpu::read();
        let min = if epoch + 1 == epoch_count { MIN_CALLS } else { 0 };
        let (first, failed_before) = (calls.ms.len(), calls.failed);
        calls.run(&loaded, &input, None, Instant::now() + per_epoch, min);
        let cpu_ns = before.zip(ThreadCpu::read()).map(|(b, a)| a.since(&b).total_ns());
        let failed = calls.failed > failed_before;
        epochs.push(Epoch { ms: calls.ms[first..].to_vec(), cpu_ns, failed });
        // Peak RSS of a fresh process after one cluster lifetime. Later
        // epochs reuse the heap earlier clusters freed, in ways that make
        // a whole-run peak vary by a third between runs.
        if epoch == 0 {
            rss =
                sys::peak_rss_mib().ok_or_else(|| "/proc/self/status is not readable".to_string());
        }
        loaded.teardown(None);
    }
    let (ms, cpu_ns) = fastest_epochs(epochs);
    let p50 = median(&ms);
    let work = ms.len() as f64 * work_per_call as f64;
    let mut r = Report { attempted: calls.attempted, failed: calls.failed, ..Report::default() };
    r.put("kernel_rate_m", "M/s", ratio(work_per_call as f64 / 1e3, p50, "kernel time"));
    r.put("kernel_ms_p50", "ms", Ok(p50));
    r.put("kernel_ms_p90", "ms", Ok(quantile(&ms, 0.9)));
    let cpu_us = cpu_ns.map(|ns| ns as f64 / 1e3).ok_or_else(|| NO_PROC.to_string());
    r.put("cpu_us_per_work", "us", cpu_us.and_then(|us| ratio(us, work, "work")));
    r.put("rss_peak_mb", "MiB", rss);
    r.put("setup_s", "s", Ok(median(&setups)));
    Ok(r)
}

/// Counter deltas over a window, summed over the cluster's nodes.
struct Window {
    before: Vec<MetricsSnapshot>,
    after: Vec<MetricsSnapshot>,
}

fn snapshots(cluster: &Cluster) -> Vec<MetricsSnapshot> {
    (0..cluster.nodes()).map(|n| cluster.node(n).metrics_snapshot()).collect()
}

impl Window {
    /// A counter's growth; a counter a node does not have (say the
    /// `net.shm.*` ones on the sim fabric) counts as zero.
    fn count(&self, name: &str) -> f64 {
        let sum = |snaps: &[MetricsSnapshot]| -> u64 {
            snaps.iter().filter_map(|s| s.counter(name)).sum()
        };
        sum(&self.after).saturating_sub(sum(&self.before)) as f64
    }

    /// The `q`-quantile bucket bound of a histogram's growth.
    fn bucket(&self, name: &str, q: f64) -> Result<f64, String> {
        let mut bounds = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for (after, before) in self.after.iter().zip(&self.before) {
            let Some(a) = after.histogram(name) else { continue };
            counts.resize(a.counts.len(), 0);
            bounds.clone_from(&a.bounds);
            let b = before.histogram(name);
            for (i, c) in a.counts.iter().enumerate() {
                counts[i] += c - b.map_or(0, |b| b.counts[i]);
            }
        }
        bucket_quantile(&bounds, &counts, q)
            .map(|v| v as f64)
            .ok_or_else(|| format!("no {name} samples in the traced loop"))
    }
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let kind = args.kind;
    let mut sink = TraceSink::new(TRACE_EVENTS);
    let lane_id = sink.add_lane("perfbench client", 0, 0);
    let sink = Arc::new(sink);
    let writer = sink.writer(lane_id).expect("a fresh lane has no writer yet");
    let lane = Some(&writer);
    let mut r = Report::default();

    let mut times = SetupTimes::default();
    let cluster = workload::start(kind, lane, &mut times)?;
    let idle_before = ThreadCpu::read();
    let ((), idle_s) = timed(lane, "probe.idle", 0, || std::thread::sleep(IDLE_WINDOW));
    let idle = match (idle_before, ThreadCpu::read()) {
        (Some(b), Some(a)) => Ok(a.since(&b).total_ns() as f64 / 1e9 / idle_s),
        _ => Err(NO_PROC.to_string()),
    };
    let (loaded, input) = workload::setup_on(cluster, kind, args.seed, lane, &mut times)?;
    r.put("graph.gen_s", "s", Ok(times.gen_s));
    r.put("graph.distribute_s", "s", Ok(times.distribute_s));
    r.put("chma.populate_s", "s", Ok(times.populate_s));
    r.put("runtime.start_s", "s", Ok(times.start_s));
    r.put("runtime.idle_cpu_cores", "cores", idle);

    let loop_time = Duration::from_secs_f64(args.seconds * TRACED_LOOP_SHARE);
    let mut untraced = Calls::default();
    untraced.warm_up(&loaded, &input);
    untraced.run(&loaded, &input, None, Instant::now() + loop_time, MIN_TRACED_CALLS);
    let untraced_p50 = median(&untraced.ms);

    let mut traced = Calls::default();
    let cpu_before = ThreadCpu::read();
    let before = snapshots(&loaded.cluster);
    traced.run(&loaded, &input, lane, Instant::now() + loop_time, MIN_TRACED_CALLS);
    let w = Window { before, after: snapshots(&loaded.cluster) };
    let cpu = cpu_before.zip(ThreadCpu::read()).map(|(b, a)| a.since(&b));
    r.attempted = untraced.attempted + traced.attempted;
    r.failed = untraced.failed + traced.failed;

    let n = traced.ms.len() as f64;
    let work = n * input.work_per_call as f64;
    let per_call = |v: f64| Ok(v / n);
    let per_work = |v: f64| ratio(v, work, "work");
    let share = |role: Role| {
        cpu.as_ref()
            .ok_or_else(|| NO_PROC.to_string())
            .and_then(|c| ratio(c.role_ns(role) as f64, c.total_ns() as f64, "CPU time"))
    };

    r.put("worker.cpu_share", "ratio", share(Role::Worker));
    r.put("worker.ctx_switches_per_work", "count/work", per_work(w.count("worker.ctx_switches")));
    r.put("worker.task_parks_per_work", "count/work", per_work(w.count("worker.task_parks")));
    r.put("worker.wakeups_per_work", "count/work", per_work(w.count("worker.wakeups")));
    r.put("worker.tasks_spawned", "count/call", per_call(w.count("worker.tasks_spawned")));

    let buffers = w.count("agg.buffers_filled");
    r.put(
        "agg.cmds_per_buffer",
        "count/buffer",
        ratio(w.count("agg.commands"), buffers, "buffers"),
    );
    r.put(
        "agg.timeout_flush_share",
        "ratio",
        ratio(w.count("agg.timeout_flushes"), buffers, "buffers"),
    );
    r.put("agg.fill_bytes_p50", "bytes", w.bucket("agg.flush_fill_bytes", 0.5));
    r.put("agg.combine_hits", "count/call", per_call(w.count("agg.combine_hits")));
    r.put("agg.pool_dry_waits", "count/call", per_call(w.count("agg.pool_dry_waits")));

    r.put("comm.cpu_share", "ratio", share(Role::Comm));
    r.put("comm.buffers_sent_per_work", "count/work", per_work(w.count("comm.buffers_sent")));
    r.put("comm.bytes_per_work", "bytes/work", per_work(w.count("comm.bytes_sent")));
    r.put("comm.sweep_gap_ns_p50", "ns", w.bucket("comm.sweep_gap_ns", 0.5));
    let standalone = w.count("reliable.acks_standalone");
    let acks = standalone + w.count("reliable.acks_piggybacked");
    r.put("reliable.acks_standalone_share", "ratio", ratio(standalone, acks, "acks"));
    r.put("reliable.retransmits", "count/call", per_call(w.count("reliable.retransmits")));

    r.put("helper.cpu_share", "ratio", share(Role::Helper));
    let cmds: f64 = HELPER_OPS.iter().map(|op| w.count(&format!("helper.cmd.{op}"))).sum();
    r.put("helper.cmds_per_work", "count/work", per_work(cmds));
    for op in HELPER_OPS {
        r.put(
            format!("helper.cmd.{op}"),
            "count/call",
            per_call(w.count(&format!("helper.cmd.{op}"))),
        );
    }
    r.put("helper.batch.run_len_p50", "count", w.bucket("helper.batch.run_len", 0.5));
    r.put(
        "helper.batch.segments_per_buffer_p50",
        "count",
        w.bucket("helper.batch.segments_per_buffer", 0.5),
    );
    r.put("helper.batch.rmw_merged", "count/call", per_call(w.count("helper.batch.rmw_merged")));

    r.put(
        "net.shm.doorbell_wakes_per_work",
        "count/work",
        per_work(w.count("net.shm.doorbell_wakes")),
    );
    r.put("net.shm.full_waits", "count/call", per_call(w.count("net.shm.full_waits")));
    r.put("net.flow.parks", "count/call", per_call(w.count("net.flow.parks")));

    let (api, _) = timed(lane, "probe.api", 0, || probe::api(&loaded.cluster));
    let get_p50 = median(&api.get_us);
    r.put("api.get_rtt_us_p50", "us", Ok(get_p50));
    r.put("api.get_rtt_us_p99", "us", Ok(quantile(&api.get_us, 0.99)));
    r.put("api.cas_rtt_us_p50", "us", Ok(median(&api.cas_us)));
    r.put("api.parfor_us_p50", "us", Ok(median(&api.parfor_us)));

    r.put("runtime.shutdown_s", "s", Ok(loaded.teardown(lane)));

    let (frames, _) = timed(lane, "probe.frame_rtt", 0, || probe::frame_rtt_us(kind.backend()));
    let frames = frames?;
    let frame_p50 = median(&frames);
    r.put("net.frame_rtt_us_p50", "us", Ok(frame_p50));
    r.put("net.frame_rtt_us_p99", "us", Ok(quantile(&frames, 0.99)));
    r.put("net.api_overhead_ratio", "ratio", ratio(get_p50, frame_p50, "frame round trips"));
    let stack = Config::small().task_stack_size;
    r.put(
        "context.switch_ns",
        "ns",
        timed(lane, "probe.ctx_switch", 0, || probe::ctx_switch_ns(stack)).0,
    );
    r.put(
        "context.create_ns",
        "ns",
        timed(lane, "probe.ctx_create", 0, || probe::ctx_create_ns(stack)).0,
    );

    let (refs, _) = timed(lane, "references", 0, || workload::references(&input));
    match refs {
        Ok(refs) => {
            r.put("ref.seq_ms", "ms", Ok(refs.seq_ms));
            r.put("ref.mpi_ms", "ms", Ok(refs.mpi_ms));
            r.put("ref.gmt_over_mpi", "ratio", ratio(untraced_p50, refs.mpi_ms, "baseline time"));
        }
        Err(e) => {
            eprintln!("perfbench: reference check failed: {e}");
            r.reference_failed = true;
        }
    }
    r.put("trace.overhead", "ratio", ratio(median(&traced.ms), untraced_p50, "untraced calls"));

    drop(writer);
    if let Some(path) = &args.trace_out {
        let mut sink = Arc::into_inner(sink).expect("every lane writer is dropped");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, sink.chrome_trace_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("perfbench: Chrome trace written to {}", path.display());
    }
    Ok(r)
}

fn print_report(args: &Args, r: &Report) {
    println!(
        "perfbench {} seed {} on {} nodes ({:?} transport, closed loop, 1 client thread): \
         {} kernel calls, {} failed; work unit: {}",
        args.kind.name(),
        args.seed,
        workload::NODES,
        args.kind.backend(),
        r.attempted,
        r.failed,
        args.kind.work_unit(),
    );
    for m in &r.metrics {
        match &m.value {
            Ok(v) => println!("  {:<40} {:>16.6} {}", m.name, v, m.unit),
            Err(why) => println!("  {:<40} {:>16} {} (missing: {why})", m.name, "-", m.unit),
        }
    }
    // 0 on correct code, so the JSON carries it as `failed` / `attempted`
    // rather than as a metric with a bound relative to its median.
    let error_rate = r.failed as f64 / r.attempted as f64;
    println!("  {:<40} {:>16.6} ratio", "error_rate", error_rate);
    let mut json = String::new();
    for m in &r.metrics {
        if let Ok(v) = m.value {
            if !json.is_empty() {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
        }
    }
    let correct = r.failed == 0 && !r.reference_failed;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        r.attempted, r.failed
    );
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        let report = if args.trace { run_traced(&args) } else { run_end_to_end(&args) }?;
        print_report(&args, &report);
        Ok(())
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(ms: &[f64]) -> Epoch {
        Epoch { ms: ms.to_vec(), cpu_ns: Some(ms.len() as u64), failed: false }
    }

    #[test]
    fn fastest_epochs_drop_the_slowest_tails() {
        let flat = |ms| epoch(&[ms; MIN_CALLS]);
        // The fastest median, but the slowest 90th percentile.
        let mut bursty = vec![1.0; MIN_CALLS * 8 / 10];
        bursty.resize(MIN_CALLS, 100.0);
        let (ms, cpu) = fastest_epochs(vec![flat(3.0), epoch(&bursty), flat(2.0), flat(4.0)]);
        assert_eq!(ms.len(), 3 * MIN_CALLS);
        assert!(ms.iter().all(|&m| m <= 4.0));
        assert_eq!(cpu, Some(3 * MIN_CALLS as u64));
    }

    #[test]
    fn fastest_epochs_keep_every_failed_call() {
        let flat = |ms| epoch(&[ms; MIN_CALLS]);
        let mut failing = flat(9.0);
        failing.failed = true;
        let (ms, _) = fastest_epochs(vec![flat(1.0), flat(2.0), flat(3.0), failing, flat(4.0)]);
        assert_eq!(ms.len(), 4 * MIN_CALLS);
        assert!(ms.contains(&9.0) && !ms.contains(&4.0));
    }

    #[test]
    fn fastest_epochs_keep_enough_calls() {
        let few = |ms| epoch(&[ms; MIN_CALLS / 4]);
        let (ms, _) = fastest_epochs(vec![few(3.0), few(1.0), few(2.0), few(4.0)]);
        assert_eq!(ms.len(), MIN_CALLS);
    }

    #[test]
    fn fastest_epochs_lose_cpu_time_when_proc_is_unreadable() {
        let blind = Epoch { ms: vec![1.0; MIN_CALLS], cpu_ns: None, failed: false };
        assert_eq!(fastest_epochs(vec![blind]).1, None);
    }
}
