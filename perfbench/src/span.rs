//! Benchmark-side spans: every timed call into a layer goes through
//! [`timed`], which records a Chrome trace span when a lane is given.

use gmt_metrics::trace::LaneWriter;
use std::time::Instant;

/// Runs `f`, returning its output and wall time in seconds; records a
/// span named `name` (with payload `arg`) on `lane` if there is one.
pub fn timed<T>(
    lane: Option<&LaneWriter>,
    name: &'static str,
    arg: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start_ns = lane.map(LaneWriter::now_ns);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    if let (Some(w), Some(start)) = (lane, start_ns) {
        w.span(name, start, arg);
    }
    (out, secs)
}
