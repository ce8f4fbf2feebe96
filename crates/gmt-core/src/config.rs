//! Runtime configuration (the paper's Table IV).

use gmt_net::NetworkModel;

/// Configuration of one GMT node instance.
///
/// The defaults of [`Config::olympus`] mirror Table IV of the paper; the
/// reproduction host has a single core, so [`Config::small`] scales the
/// thread counts down while keeping every mechanism (aggregation levels,
/// task multiplexing, timeouts) in play.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Worker threads per node (Table IV: 15).
    pub num_workers: usize,
    /// Helper threads per node (Table IV: 15).
    pub num_helpers: usize,
    /// Aggregation buffers pre-allocated per channel queue (Table IV: 4).
    pub num_buf_per_channel: usize,
    /// Maximum concurrently live tasks per worker (Table IV: 1024).
    pub max_tasks_per_worker: usize,
    /// Aggregation buffer size in bytes (Table IV: 65536).
    pub buffer_size: usize,
    /// Maximum commands collected in one command block before it is pushed
    /// to the aggregation queue.
    pub cmd_block_entries: usize,
    /// Age (ns) after which a non-empty command block is pushed to the
    /// aggregation queue even if not full (the paper flushes blocks that
    /// "have been waiting longer than a predetermined time interval").
    ///
    /// The timer only acts while the emitting thread still has other
    /// runnable work: a thread that runs out of work flushes everything
    /// it holds at once before it parks (the quiescence flush), since
    /// waiting then buys no batching, only latency.
    ///
    /// Timeouts are checked against the runtime's coarse monotonic clock,
    /// which advances once per worker pump / comm-server sweep rather than
    /// per command, so the effective granularity is one pump interval.
    pub cmd_block_timeout_ns: u64,
    /// Age (ns) after which an aggregation queue is drained into a buffer
    /// and sent even if a full buffer's worth has not accumulated. Like
    /// [`Config::cmd_block_timeout_ns`], it only acts while the thread has
    /// other runnable work, at the same coarse-clock granularity.
    pub aggregation_timeout_ns: u64,
    /// Maximum distinct `(array, offset)` cells tracked per destination in
    /// the command sink's combining table, which merges fire-and-forget
    /// atomic adds to the same cell into one wire command. 0 disables
    /// combining. Tables flush on overflow, on block flush, and on the
    /// same coarse-clock timeout as command blocks.
    pub combine_window: usize,
    /// Process received aggregation buffers through the batched helper
    /// datapath: one decode pass extracts request commands into
    /// struct-of-arrays staging, requests are bucketed by target segment
    /// so each run pays the segment-table lookup once, and runs apply
    /// through vectorized kernels (same-offset atomic adds pre-merged
    /// into one RMW, word-wise batch copies, replies emitted per run).
    /// `false` restores the scalar one-command-at-a-time loop — the
    /// ablation baseline, observably equivalent by construction.
    pub batch_apply: bool,
    /// Stack size for user-level tasks, bytes.
    pub task_stack_size: usize,
    /// Network cost model enforced by the fabric, or `None` for instant
    /// delivery (functional testing).
    pub network: Option<NetworkModel>,
    /// Run the seq/ack/retransmit reliability layer on aggregation
    /// traffic. The paper assumes a lossless MPI fabric (no such layer);
    /// turning this off reproduces that assumption — and its failure mode:
    /// any lost buffer hangs every task parked on a token inside it.
    pub reliable: bool,
    /// Initial retransmit timeout (ns, coarse-clock granularity); doubles
    /// on every retry of the same packet.
    pub rto_base_ns: u64,
    /// Upper bound on the backed-off retransmit timeout (ns).
    pub rto_max_ns: u64,
    /// Retransmissions of one packet before its destination is declared
    /// dead and every operation addressed to it fails with
    /// [`GmtError::RemoteDead`](crate::error::GmtError::RemoteDead).
    pub max_retries: u32,
    /// How long the receiver may sit on an unsent cumulative ack hoping to
    /// piggyback it on return traffic before a standalone ack packet is
    /// emitted (ns).
    pub ack_delay_ns: u64,
    /// Per-peer flow-control window: the maximum unacked data buffers in
    /// flight toward one peer before further buffers are held back at the
    /// sender and the peer enters the **Backpressured** state (distinct
    /// from death — nothing fails, the window just stops growing).
    /// Receivers additionally advertise credit from their inbound backlog
    /// and the effective window is the smaller of the two. `0` disables
    /// flow control (pre-window behaviour: sender memory toward a slow
    /// peer is bounded only by pool exhaustion). Capped at `u16::MAX - 1`
    /// by the credit wire encoding.
    pub flow_window: usize,
    /// How long an emitting task may be parked waiting for a
    /// backpressured peer's window to reopen before the emit proceeds
    /// anyway (ns, coarse-clock granularity; the buffer then waits in the
    /// hold queue instead of the task spinning). `0` disables
    /// backpressure parking — emits never block on flow control.
    pub flow_park_ns: u64,
    /// Age (ns) past which a task parked on remote completions is reported
    /// by the stuck-task watchdog.
    pub stuck_task_deadline_ns: u64,
    /// Failure detector: a link with no outbound traffic for this long gets
    /// a standalone heartbeat packet. Busy links never emit heartbeats —
    /// liveness rides on data/ack traffic for free. `0` disables the
    /// detector entirely (no heartbeats, no suspicion, no silence deaths;
    /// retry-budget exhaustion still declares peers dead).
    pub heartbeat_idle_ns: u64,
    /// Failure detector: silence from a peer past this age raises a
    /// *suspicion* (counted, logged under `log_net_warnings`, cleared by
    /// any packet from the peer). Purely diagnostic — no tokens fail.
    pub suspect_after_ns: u64,
    /// Failure detector: silence past this age *confirms* the peer dead;
    /// its tokens are error-completed and a death notice is disseminated
    /// to all survivors so the cluster converges on one membership view.
    pub peer_death_timeout_ns: u64,
    /// Enforcement deadline (ns) for blocking remote operations: a task
    /// parked longer than this is force-woken and its wait returns
    /// [`GmtError::DeadlineExceeded`](crate::error::GmtError::DeadlineExceeded).
    /// `0` (the default) disables enforcement; per-task deadlines set via
    /// the `*_deadline` API variants override this value.
    pub op_deadline_ns: u64,
    /// Let the comm server consult the installed [`FaultPlan`] for explicit
    /// node kills and confirm them as deaths immediately, instead of
    /// waiting out the retry budget or heartbeat timeout. Mirrors a
    /// production fabric's link-down notification. Tests that exercise the
    /// timeout paths themselves turn this off.
    ///
    /// [`FaultPlan`]: gmt_net::FaultPlan
    pub observe_fabric_kills: bool,
    /// Events retained per thread lane by the ring-buffer tracer (a
    /// sliding window over the run's tail). Only consulted when the
    /// runtime is built with the `trace` cargo feature *and* `GMT_TRACE`
    /// is set; otherwise no ring is allocated.
    pub trace_capacity: usize,
    /// Emit `eprintln!` warnings for transport failures, dead peers and
    /// stuck tasks (the in-process stand-in for a logging hook).
    pub log_net_warnings: bool,
}

impl Config {
    /// The paper's Olympus configuration (Table IV).
    pub fn olympus() -> Self {
        Config {
            num_workers: 15,
            num_helpers: 15,
            num_buf_per_channel: 4,
            max_tasks_per_worker: 1024,
            buffer_size: 65_536,
            cmd_block_entries: 64,
            cmd_block_timeout_ns: 10_000,
            aggregation_timeout_ns: 30_000,
            combine_window: 16,
            batch_apply: true,
            task_stack_size: 64 * 1024,
            network: Some(NetworkModel::olympus()),
            reliable: true,
            rto_base_ns: 5_000_000,
            rto_max_ns: 80_000_000,
            max_retries: 8,
            ack_delay_ns: 200_000,
            flow_window: 32,
            flow_park_ns: 2_000_000,
            stuck_task_deadline_ns: 1_000_000_000,
            heartbeat_idle_ns: 50_000_000,
            suspect_after_ns: 500_000_000,
            peer_death_timeout_ns: 3_000_000_000,
            op_deadline_ns: 0,
            observe_fabric_kills: true,
            trace_capacity: 16_384,
            log_net_warnings: true,
        }
    }

    /// A configuration sized for a single-core test host: every mechanism
    /// enabled, thread counts minimal, instant network delivery.
    pub fn small() -> Self {
        Config {
            num_workers: 2,
            num_helpers: 1,
            num_buf_per_channel: 4,
            max_tasks_per_worker: 64,
            buffer_size: 8 * 1024,
            cmd_block_entries: 16,
            cmd_block_timeout_ns: 5_000,
            aggregation_timeout_ns: 10_000,
            combine_window: 16,
            batch_apply: true,
            task_stack_size: 64 * 1024,
            network: None,
            reliable: true,
            rto_base_ns: 1_000_000,
            rto_max_ns: 20_000_000,
            max_retries: 6,
            ack_delay_ns: 100_000,
            flow_window: 32,
            flow_park_ns: 2_000_000,
            stuck_task_deadline_ns: 1_000_000_000,
            heartbeat_idle_ns: 25_000_000,
            suspect_after_ns: 200_000_000,
            peer_death_timeout_ns: 1_000_000_000,
            op_deadline_ns: 0,
            observe_fabric_kills: true,
            trace_capacity: 8_192,
            log_net_warnings: true,
        }
    }

    /// Like [`Config::small`] but with the Olympus network model enforced
    /// in wall time, for latency-tolerance experiments.
    pub fn small_throttled() -> Self {
        Config { network: Some(NetworkModel::olympus()), ..Config::small() }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_workers == 0 {
            return Err("num_workers must be at least 1".into());
        }
        if self.num_helpers == 0 {
            return Err("num_helpers must be at least 1".into());
        }
        if self.max_tasks_per_worker == 0 {
            return Err("max_tasks_per_worker must be at least 1".into());
        }
        if self.num_buf_per_channel == 0 {
            return Err("num_buf_per_channel must be at least 1".into());
        }
        if self.buffer_size < 256 {
            return Err(format!("buffer_size {} too small (min 256)", self.buffer_size));
        }
        if self.cmd_block_entries == 0 {
            return Err("cmd_block_entries must be at least 1".into());
        }
        if self.task_stack_size < gmt_context::MIN_STACK_SIZE {
            return Err(format!(
                "task_stack_size {} below minimum {}",
                self.task_stack_size,
                gmt_context::MIN_STACK_SIZE
            ));
        }
        if self.reliable {
            if self.rto_base_ns == 0 {
                return Err("rto_base_ns must be nonzero with reliability enabled".into());
            }
            if self.rto_max_ns < self.rto_base_ns {
                return Err("rto_max_ns must be at least rto_base_ns".into());
            }
            if self.max_retries == 0 {
                return Err("max_retries must be at least 1 with reliability enabled".into());
            }
            if self.flow_window >= u16::MAX as usize {
                return Err(format!(
                    "flow_window {} does not fit the u16 credit encoding (max {})",
                    self.flow_window,
                    u16::MAX - 1
                ));
            }
            if self.heartbeat_idle_ns > 0 {
                if self.suspect_after_ns <= self.heartbeat_idle_ns {
                    return Err("suspect_after_ns must exceed heartbeat_idle_ns".into());
                }
                if self.peer_death_timeout_ns <= self.suspect_after_ns {
                    return Err("peer_death_timeout_ns must exceed suspect_after_ns".into());
                }
            }
        }
        Ok(())
    }

    /// Largest payload a single put/get command may carry so the command
    /// still fits in one aggregation buffer; larger transfers are split.
    pub fn max_inline_payload(&self) -> usize {
        // Leave generous room for the largest command header plus the
        // reliability header reserved at the front of every buffer.
        self.buffer_size - 64
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn olympus_matches_table_iv() {
        let c = Config::olympus();
        assert_eq!(c.num_workers, 15);
        assert_eq!(c.num_helpers, 15);
        assert_eq!(c.num_buf_per_channel, 4);
        assert_eq!(c.max_tasks_per_worker, 1024);
        assert_eq!(c.buffer_size, 65_536);
        c.validate().unwrap();
    }

    #[test]
    fn presets_validate() {
        Config::small().validate().unwrap();
        Config::small_throttled().validate().unwrap();
        Config::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for f in [
            |c: &mut Config| c.num_workers = 0,
            |c: &mut Config| c.num_helpers = 0,
            |c: &mut Config| c.max_tasks_per_worker = 0,
            |c: &mut Config| c.num_buf_per_channel = 0,
            |c: &mut Config| c.buffer_size = 16,
            |c: &mut Config| c.cmd_block_entries = 0,
            |c: &mut Config| c.task_stack_size = 64,
            |c: &mut Config| c.flow_window = u16::MAX as usize,
            |c: &mut Config| c.suspect_after_ns = c.heartbeat_idle_ns,
            |c: &mut Config| c.peer_death_timeout_ns = c.suspect_after_ns,
        ] {
            let mut c = Config::small();
            f(&mut c);
            assert!(c.validate().is_err(), "accepted bad config {c:?}");
        }
    }

    #[test]
    fn detector_off_skips_timer_ordering() {
        // heartbeat_idle_ns == 0 disables the detector; the suspicion /
        // death timer ordering is then irrelevant and must not reject.
        let mut c = Config::small();
        c.heartbeat_idle_ns = 0;
        c.suspect_after_ns = 0;
        c.peer_death_timeout_ns = 0;
        c.validate().unwrap();
    }

    #[test]
    fn max_inline_payload_fits_buffer() {
        let c = Config::small();
        assert!(c.max_inline_payload() < c.buffer_size);
        assert!(c.max_inline_payload() > c.buffer_size / 2);
    }
}
