//! Worker threads: execute application tasks (§IV-A, §IV-D).
//!
//! Each worker multiplexes up to `max_tasks_per_worker` coroutine tasks.
//! It prefers resuming re-readied tasks, then locally runnable ones, then
//! peels chunks from iteration blocks / root tasks. Between scheduling
//! steps it pumps its command sink so aged command blocks and aggregation
//! queues drain (the paper's time-interval flush triggers). With nothing
//! left to run it flushes everything at once (the quiescence flush) and
//! parks on its ready queue's doorbell, which task wakes and new root
//! tasks or iteration blocks ring.

use crate::aggregation::CommandSink;
use crate::api::TaskCtx;
use crate::command::Command;
use crate::idle::{park_timeout, Idle};
use crate::metrics::ThreadTracer;
use crate::runtime::NodeShared;
use crate::task::{complete_token, Itb, ParentRef, ReadyQueue, RootTask, TaskControl};
use crate::tls;
use gmt_context::{Coroutine, Resume, Stack};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// One live task: its coroutine plus the shared wake handle.
struct Task {
    coro: Coroutine<()>,
    ctl: Arc<TaskControl>,
    /// For parFor chunk tasks: the owning iteration block and this
    /// chunk's claimed iteration count. Completion is booked at
    /// retirement — normal *or* panicked — so a panicking iteration body
    /// cannot orphan the parent waiting on the block's ack.
    chunk: Option<(Arc<Itb>, u64)>,
}

struct Worker {
    node: Arc<NodeShared>,
    /// Channel index of this worker — also its counter shard.
    chan: usize,
    tracer: ThreadTracer,
    /// Wakeups from helpers (slot indices), MPSC onto this worker; its
    /// doorbell is the one this worker parks on.
    ready: Arc<ReadyQueue>,
    /// Task table; slot indices are stable for a task's lifetime.
    tasks: Vec<Option<Task>>,
    free_slots: Vec<usize>,
    /// Locally runnable slots.
    runnable: VecDeque<usize>,
    /// Recycled coroutine stacks.
    stacks: Vec<Stack>,
    live: usize,
}

impl Worker {
    fn new(node: Arc<NodeShared>, chan: usize, tracer: ThreadTracer) -> Self {
        Worker {
            ready: Arc::clone(&node.ready_queues[chan]),
            node,
            chan,
            tracer,
            tasks: Vec::new(),
            free_slots: Vec::new(),
            runnable: VecDeque::new(),
            stacks: Vec::new(),
            live: 0,
        }
    }

    fn take_stack(&mut self) -> Stack {
        self.stacks
            .pop()
            .unwrap_or_else(|| Stack::new(self.node.config.task_stack_size).expect("task stack"))
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(s) = self.free_slots.pop() {
            s
        } else {
            self.tasks.push(None);
            self.tasks.len() - 1
        }
    }

    fn install(&mut self, slot: usize, task: Task) {
        debug_assert!(self.tasks[slot].is_none());
        self.tasks[slot] = Some(task);
        self.runnable.push_back(slot);
        self.live += 1;
        self.node.metrics.tasks_spawned.add(self.chan, 1);
        self.node.metrics.live_tasks.inc();
    }

    /// Spawns a task executing `count` iterations claimed from `itb`.
    fn spawn_chunk(&mut self, itb: Arc<Itb>, range: std::ops::Range<u64>) {
        let slot = self.alloc_slot();
        let ctl = TaskControl::new(Arc::clone(&self.ready), slot);
        self.node.register_task(&ctl);
        let node = Arc::clone(&self.node);
        let ctl2 = Arc::clone(&ctl);
        let stack = self.take_stack();
        let n = range.end - range.start;
        let itb2 = Arc::clone(&itb);
        let coro = Coroutine::with_stack(stack, move |y| {
            let ctx = TaskCtx::new(&node, &ctl2, y);
            for i in range {
                (itb2.body.f)(&ctx, i, &itb2.args);
            }
            // Block completion is booked by the worker at retirement (see
            // `Task::chunk`), not here, so a panic cannot skip it.
        });
        self.install(slot, Task { coro, ctl, chunk: Some((itb, n)) });
    }

    /// Spawns a root task ("task zero").
    fn spawn_root(&mut self, root: RootTask) {
        let slot = self.alloc_slot();
        let ctl = TaskControl::new(Arc::clone(&self.ready), slot);
        self.node.register_task(&ctl);
        let node = Arc::clone(&self.node);
        let ctl2 = Arc::clone(&ctl);
        let stack = self.take_stack();
        let f = root.f;
        let coro = Coroutine::with_stack(stack, move |y| {
            let ctx = TaskCtx::new(&node, &ctl2, y);
            f(&ctx);
        });
        self.install(slot, Task { coro, ctl, chunk: None });
    }

    /// Resumes the task in `slot` until it yields or finishes.
    fn step(&mut self, slot: usize) {
        let Some(task) = self.tasks[slot].as_mut() else {
            // Stale wakeup: a late completion of an abandoned operation
            // re-readied a slot that was already retired (and possibly
            // reused). Ignore — `wait_commands` re-checks on wake, so
            // spurious resumes are harmless and missing ones impossible.
            return;
        };
        self.node.metrics.ctx_switches.add(self.chan, 1);
        let t0 = self.tracer.now_ns();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| task.coro.resume()));
        self.tracer.span("task_step", t0, slot as u64);
        match outcome {
            Ok(Resume::Yielded) => {
                let ctl = Arc::clone(&self.tasks[slot].as_ref().unwrap().ctl);
                if ctl.take_park_intent() {
                    // Blocking yield: run the park handshake; a helper
                    // will push the slot into `ready` on the last reply.
                    if ctl.prepare_park() {
                        // Stamp the park for the stuck-task watchdog.
                        ctl.note_parked(self.node.agg.now_ns());
                        self.node.metrics.task_parks.add(self.chan, 1);
                        self.node.metrics.parked_tasks.inc();
                        self.tracer.instant("park", slot as u64);
                    } else {
                        self.runnable.push_back(slot);
                    }
                } else {
                    // Cooperative yield: round-robin requeue.
                    self.runnable.push_back(slot);
                }
            }
            Ok(Resume::Finished) => self.retire(slot, false),
            Err(payload) => {
                // A panicking task must not take the worker down: report
                // and retire. Root tasks never reach this path — their
                // submission wrapper catches the panic and carries the
                // payload back to the submitter, which resumes it with
                // the original message.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                eprintln!(
                    "[gmt] task panicked on node {} and was retired: {msg}",
                    self.node.node_id
                );
                self.retire(slot, true);
            }
        }
    }

    fn retire(&mut self, slot: usize, panicked: bool) {
        let mut task = self.tasks[slot].take().expect("retiring live slot");
        if let Some((itb, n)) = task.chunk.take() {
            // Book the chunk against its iteration block whether the body
            // finished or panicked: the parent parFor waits for an ack of
            // the *block*, and a panicked chunk that never acked would
            // hang it forever. Iterations lost to a panic are logged (and
            // counted in `tasks_panicked`) but still count as executed
            // toward the block.
            if itb.complete(n) {
                notify_parent(&self.node, itb.parent);
            }
        }
        self.node.metrics.tasks_finished.add(self.chan, 1);
        if panicked {
            self.node.metrics.tasks_panicked.add(self.chan, 1);
        }
        self.node.metrics.live_tasks.dec();
        if task.ctl.pending() > 0 {
            // The task finished with operations still in flight (it never
            // awaited them — possible with `put_nb`/`get_nb` misuse, or a
            // dead link). Late replies may still write through raw
            // pointers into this stack, so leak it rather than recycle.
            eprintln!(
                "[gmt] node {}: task retired with {} operation(s) still pending; leaking its stack",
                self.node.node_id,
                task.ctl.pending()
            );
            std::mem::forget(task.coro);
        } else if !panicked {
            // Recycle the stack (bounded pool).
            if self.stacks.len() < 64 {
                self.stacks.push(task.coro.into_stack());
            }
        }
        self.free_slots.push(slot);
        self.live -= 1;
    }

    /// Whether this worker may take on new work right now. The cap is
    /// soft: when every live task is blocked we admit more work anyway,
    /// which keeps nested parFors deadlock-free (parents waiting on
    /// children must not starve the children of task slots).
    fn can_admit(&self) -> bool {
        self.live < self.node.config.max_tasks_per_worker
            || (self.runnable.is_empty() && self.ready.is_empty())
    }

    /// Tries to create one task from the node's pending work sources.
    fn acquire_work(&mut self) -> bool {
        if !self.can_admit() {
            return false;
        }
        if let Some(root) = self.node.root_queue.pop() {
            self.spawn_root(root);
            return true;
        }
        if let Some(itb) = self.node.itb_queue.pop() {
            if let Some(range) = itb.claim() {
                self.node.metrics.itb_claims.add(self.chan, 1);
                if itb.has_unclaimed() {
                    // Let other workers keep peeling this block.
                    self.node.push_itb(Arc::clone(&itb));
                }
                self.spawn_chunk(itb, range);
                return true;
            }
            // Fully claimed: drop our reference.
        }
        false
    }
}

/// Reports a finished iteration block to its parent task.
pub(crate) fn notify_parent(node: &Arc<NodeShared>, parent: ParentRef) {
    if parent.node == node.node_id {
        // Safety: the token was minted by the parFor issuer and is
        // completed exactly once, here.
        unsafe { complete_token(parent.token) };
    } else {
        tls::with_sink(|s| s.emit(parent.node, &Command::Ack { token: parent.token }));
    }
}

/// Entry point of a worker thread. `chan` doubles as the index of this
/// worker's channel queue to the communication server.
pub fn worker_main(node: Arc<NodeShared>, chan: usize, tracer: ThreadTracer) {
    tls::install(CommandSink::new(Arc::clone(&node.agg), chan));
    let reader = node.memory.register_reader();
    let mut w = Worker::new(Arc::clone(&node), chan, tracer);
    let mut idle = Idle::default();
    loop {
        // Top of the loop: no task holds a segment reference here.
        reader.quiescent();
        let mut progressed = false;
        // 1. Wakeups from helpers.
        while let Some(slot) = w.ready.pop() {
            w.node.metrics.wakeups.add(w.chan, 1);
            // Decrement the parked gauge only for a genuine unpark: a
            // stale wakeup can name a slot that was retired and reused by
            // a task that never parked, which used to skew the gauge.
            let genuine = w
                .tasks
                .get(slot)
                .and_then(Option::as_ref)
                .is_some_and(|t| t.ctl.take_gauge_parked());
            if genuine {
                w.node.metrics.parked_tasks.dec();
            }
            w.runnable.push_back(slot);
        }
        // 2. Run one task step.
        if let Some(slot) = w.runnable.pop_front() {
            w.step(slot);
            progressed = true;
        } else if w.acquire_work() {
            progressed = true;
        }
        // 3. Flush aged command blocks / aggregation queues.
        tls::with_sink(|s| s.pump());
        if progressed {
            idle.reset();
        } else {
            if w.node.stopping() {
                break;
            }
            // 4. Nothing to run: ship everything now, then park until a
            // wake, a new work item, or stranded blocks need a pump.
            let pump_at = tls::with_sink(|s| s.flush_idle());
            idle.wait(|| {
                let timeout = park_timeout(node.agg.now_ns(), pump_at);
                reader.offline();
                w.ready.bell().park(timeout, || {
                    !w.ready.is_empty()
                        || !node.root_queue.is_empty()
                        || !node.itb_queue.is_empty()
                        || node.stopping()
                });
                reader.online();
                node.agg.tick();
            });
        }
    }
    drop(reader);
    // Flush whatever is left so in-flight protocols can drain elsewhere.
    if let Some(mut sink) = tls::uninstall() {
        sink.flush_all();
    }
    // Tasks still waiting on replies at shutdown are *leaked*, not
    // cancelled: a late reply writes through raw pointers into the task's
    // stack, so freeing that stack while helpers may still run would be a
    // use-after-free. Orderly programs (every `run` joined before
    // `shutdown`) never hit this path.
    let mut leaked = 0usize;
    for slot in 0..w.tasks.len() {
        if let Some(task) = w.tasks[slot].take() {
            if task.ctl.pending() > 0 {
                std::mem::forget(task);
                leaked += 1;
            }
        }
    }
    if leaked > 0 {
        eprintln!(
            "[gmt] node {}: leaked {leaked} task(s) still blocked on remote replies at shutdown",
            w.node.node_id
        );
    }
}
