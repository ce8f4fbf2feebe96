//! Reliable delivery of aggregation buffers: sequence numbers, cumulative
//! acks, head-of-line retransmission and peer-death detection.
//!
//! The paper's GMT rides on MPI and simply assumes the fabric is lossless.
//! This reproduction's fabric can be adversarial ([`gmt_net::FaultPlan`]):
//! packets drop, duplicate and arrive late, links flap, nodes die. This
//! module restores exactly-once *processing* of aggregation buffers on top
//! of that, driven entirely by the (single-threaded) communication server —
//! no locks, no extra threads.
//!
//! Protocol, per ordered peer pair:
//!
//! * Every data buffer carries a [`HEADER_LEN`]-byte header patched into
//!   the space the aggregation layer reserved at its front:
//!   `[kind u8][seq u64 LE][ack u64 LE][credit u16 LE]`. Sequence numbers
//!   are 1-based and per-(src,dst); `ack` piggybacks the sender's
//!   cumulative receive state for the reverse direction on every outgoing
//!   buffer, and `credit` advertises how many more data buffers the
//!   sender of the packet is currently willing to absorb as a receiver
//!   ([`CREDIT_UNLIMITED`] when it does not care).
//! * The receiver deduplicates (cumulative counter + out-of-order set) and
//!   delivers new buffers immediately — GMT commands are independent, so
//!   ordering is not reconstructed, only duplicate suppression.
//! * Acks are cumulative. They ride on return traffic when there is any,
//!   otherwise a standalone [`KIND_ACK`] packet goes out once the ack has
//!   been pending longer than `ack_delay_ns`.
//! * The sender keeps every unacked buffer in a retransmit queue **as a
//!   shared payload handle**, so the pooled buffer cannot return to its
//!   pool until the peer acknowledged it.
//! * **Flow control**: with a nonzero `flow_window`, the sender stops
//!   stamping new data buffers once `min(flow_window, peer credit)`
//!   buffers are unacked. Further submissions are *held back* unstamped
//!   ([`ReliableLink::submit_data`] returns `None`) and the peer enters
//!   the **Backpressured** state — distinct from death: nothing is
//!   error-completed, the accrual detector is not tripped, and held
//!   buffers drain in order as acks open the window
//!   ([`ReliableLink::release_window`]). Before this window existed,
//!   backpressure against a slow link only fell out of pool exhaustion;
//!   the explicit window bounds per-peer sender memory and gives the
//!   runtime a state it can report and shed load against.
//! * Only the queue head is retransmitted (cumulative acks make the rest
//!   redundant), with exponential backoff from `rto_base_ns` to
//!   `rto_max_ns`. After `max_retries` retransmissions of the same buffer
//!   the peer is declared **dead**: every queued buffer's request tokens
//!   complete with [`GmtError::RemoteDead`] and all further traffic to or
//!   from that peer is dropped (a late reply from a "dead" peer must never
//!   touch a token that already completed with an error). When the
//!   failure detector is enabled, retry exhaustion alone does *not* kill
//!   a peer that has been heard from within `suspect_after_ns` — a slow
//!   peer that still acks keeps being retransmitted to at the capped
//!   backoff instead of being declared dead by an RTO miscalibration.
//!
//! On top of delivery sits the **failure detector + membership** layer
//! (SWIM-flavoured, sized for a fully-connected in-process cluster):
//!
//! * Liveness piggybacks on existing traffic: every valid packet from a
//!   peer refreshes its `last_heard` stamp, and every outbound data/ack
//!   packet refreshes `last_sent`. A healthy busy link costs **zero**
//!   extra packets. Only when a link has been outbound-idle past
//!   `heartbeat_idle_ns` does a standalone [`KIND_HEARTBEAT`] go out
//!   (doubling as a cumulative ack carrier).
//! * Inbound silence past `suspect_after_ns` raises a *suspicion*
//!   (diagnostic: counted and logged, cleared by the next packet);
//!   silence past `death_timeout_ns` *confirms* the peer dead, exactly
//!   like retry-budget exhaustion does.
//! * Every confirmed death — by retry exhaustion, by silence, by an
//!   observed fabric kill, or learned from another survivor — is
//!   **disseminated** as a [`KIND_NOTICE`] packet (the dead node's id in
//!   the seq field) to every remaining peer, re-sent for a fixed number
//!   of rounds since notices are not themselves acked. A notice about a
//!   not-yet-dead peer confirms it locally and triggers one round of
//!   gossip forwarding, so all survivors converge on an identical dead
//!   set — and therefore an identical membership epoch — within a
//!   bounded number of sweeps.
//!
//! All timing uses the runtime's coarse clock ([`AggShared::now_ns`]),
//! which the communication server ticks every sweep.
//!
//! [`GmtError::RemoteDead`]: crate::error::GmtError::RemoteDead
//! [`AggShared::now_ns`]: crate::aggregation::AggShared::now_ns

use crate::NodeId;
use gmt_net::Payload;
use std::collections::{BTreeSet, VecDeque};

/// Bytes of transport header at the front of every aggregation buffer when
/// reliability is enabled: `[kind u8][seq u64 LE][ack u64 LE][credit u16 LE]`.
pub const HEADER_LEN: usize = 19;

/// Credit value meaning "no receiver-imposed bound": the sender's own
/// `flow_window` (if any) is the only limit. Also what a node advertises
/// when flow control is disabled.
pub const CREDIT_UNLIMITED: u16 = u16::MAX;

/// Header kind: a data buffer (commands follow the header).
pub const KIND_DATA: u8 = 1;
/// Header kind: a standalone cumulative ack (no commands).
pub const KIND_ACK: u8 = 2;
/// Header kind: a liveness heartbeat for an idle link. Carries the
/// cumulative ack like [`KIND_ACK`]; `seq` is unused (0).
pub const KIND_HEARTBEAT: u8 = 3;
/// Header kind: a membership death notice. `seq` carries the dead node's
/// id; `ack` carries the sender's dead-peer count (informational — the
/// receiver's own count converges to the same value).
pub const KIND_NOTICE: u8 = 4;

/// How many times a death notice is re-sent to each survivor (notices are
/// not acked; repetition rides out the same loss the data path survives).
const NOTICE_ROUNDS: u32 = 3;

/// A parsed transport header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub kind: u8,
    pub seq: u64,
    pub ack: u64,
    /// Receive credit advertised by the packet's sender: how many more
    /// data buffers it is willing to absorb ([`CREDIT_UNLIMITED`] = no
    /// bound). Meaningless on [`KIND_NOTICE`] packets.
    pub credit: u16,
}

/// Encodes a header into its wire form.
pub fn encode_header(kind: u8, seq: u64, ack: u64, credit: u16) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0] = kind;
    h[1..9].copy_from_slice(&seq.to_le_bytes());
    h[9..17].copy_from_slice(&ack.to_le_bytes());
    h[17..19].copy_from_slice(&credit.to_le_bytes());
    h
}

/// Parses the transport header at the front of `buf`, or `None` if the
/// buffer is too short or the kind byte is unknown.
pub fn parse_header(buf: &[u8]) -> Option<Header> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    let kind = buf[0];
    if !(KIND_DATA..=KIND_NOTICE).contains(&kind) {
        return None;
    }
    Some(Header {
        kind,
        seq: u64::from_le_bytes(buf[1..9].try_into().unwrap()),
        ack: u64::from_le_bytes(buf[9..17].try_into().unwrap()),
        credit: u16::from_le_bytes(buf[17..19].try_into().unwrap()),
    })
}

/// One unacked data buffer awaiting acknowledgement.
struct Rtx {
    seq: u64,
    /// Shared handle keeping the pooled buffer alive (out of its pool)
    /// until the ack arrives.
    payload: Payload,
    /// Coarse-clock time of the last (re)transmission.
    sent_ns: u64,
    /// Retransmissions performed so far.
    attempts: u32,
}

/// Per-peer protocol state.
struct Peer {
    /// Next sequence number to assign (1-based).
    next_seq: u64,
    /// Unacked data buffers, in sequence order.
    rtx: VecDeque<Rtx>,
    /// Data buffers held back (unstamped) by flow control, in submission
    /// order. Non-empty iff `backpressured`.
    held: VecDeque<Payload>,
    /// Highest sequence received contiguously from this peer.
    cum_recv: u64,
    /// Received-out-of-order sequences above `cum_recv`.
    ooo: BTreeSet<u64>,
    /// When a pending ack must go out standalone (coarse ns; 0 = none).
    ack_due_ns: u64,
    /// Declared dead (retry exhaustion, silence, kill, or notice).
    dead: bool,
    /// In the Backpressured state: the flow window toward this peer is
    /// full and at least one buffer is (or recently was) held back.
    backpressured: bool,
    /// Latest receive credit this peer advertised.
    credit: u16,
    /// High-water mark of `rtx.len()` (introspection: the soak asserts
    /// it never exceeds the effective window).
    max_unacked: usize,
    /// Coarse time of the last valid packet from this peer (0 = not yet
    /// initialised; the first detector poll stamps it, so a quiet startup
    /// is not mistaken for silence).
    last_heard_ns: u64,
    /// Coarse time of the last packet *to* this peer (0 = uninitialised).
    last_sent_ns: u64,
    /// A suspicion is currently raised against this peer.
    suspected: bool,
}

impl Peer {
    fn new() -> Self {
        Peer {
            next_seq: 1,
            rtx: VecDeque::new(),
            held: VecDeque::new(),
            cum_recv: 0,
            ooo: BTreeSet::new(),
            ack_due_ns: 0,
            dead: false,
            backpressured: false,
            credit: CREDIT_UNLIMITED,
            max_unacked: 0,
            last_heard_ns: 0,
            last_sent_ns: 0,
            suspected: false,
        }
    }

    /// Refreshes liveness on a valid inbound packet, reporting whether a
    /// standing suspicion was cleared by it.
    fn heard(&mut self, now_ns: u64) -> bool {
        self.last_heard_ns = now_ns.max(1);
        std::mem::take(&mut self.suspected)
    }
}

/// Classification of an inbound packet.
#[derive(Debug, PartialEq, Eq)]
pub enum Recv {
    /// New data: process the commands after [`HEADER_LEN`].
    Deliver,
    /// Already-seen data: drop the payload (the ack will be repeated).
    Duplicate,
    /// Standalone ack: nothing to process.
    AckOnly,
    /// From a peer already declared dead: drop without looking further (a
    /// late reply could complete a token that already failed).
    FromDead,
    /// A liveness heartbeat (also carried a cumulative ack).
    Heartbeat,
    /// A death notice naming `dead`. The communication server decides how
    /// to apply it (via [`ReliableLink::confirm_death`]) so it can fail
    /// the drained tokens and count the event.
    Notice { dead: NodeId },
    /// Header missing or unknown kind.
    Malformed,
}

/// Why a peer was confirmed dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathReason {
    /// The retransmit budget toward the peer ran dry.
    RetryExhausted,
    /// The peer was silent past `death_timeout_ns`.
    HeartbeatTimeout,
}

/// Work the communication server must perform after a [`ReliableLink::poll`].
pub enum PollAction {
    /// Re-send this (shared) payload to `dst`.
    Retransmit { dst: NodeId, payload: Payload },
    /// Send this standalone ack packet to `dst`.
    SendAck { dst: NodeId, payload: Payload },
    /// Send this liveness heartbeat to `dst` (its link has been idle).
    Heartbeat { dst: NodeId, payload: Payload },
    /// `dst` has been silent past the suspicion threshold (diagnostic).
    Suspect { dst: NodeId },
    /// A previously suspected `dst` produced traffic again (diagnostic).
    SuspectCleared { dst: NodeId },
    /// Send this death notice to `dst` (membership dissemination).
    SendNotice { dst: NodeId, payload: Payload },
    /// `dst` was confirmed dead: fail the request tokens inside each
    /// unacked payload (after [`HEADER_LEN`]), then drop them.
    Dead { dst: NodeId, unacked: Vec<Payload>, reason: DeathReason },
}

/// Failure-detector timers (coarse-clock ns). `heartbeat_idle_ns == 0`
/// disables the detector: no heartbeats, no suspicion, no silence deaths.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    pub heartbeat_idle_ns: u64,
    pub suspect_after_ns: u64,
    pub death_timeout_ns: u64,
}

impl DetectorConfig {
    /// A disabled detector (delivery-layer death detection only).
    pub fn disabled() -> Self {
        DetectorConfig { heartbeat_idle_ns: 0, suspect_after_ns: 0, death_timeout_ns: 0 }
    }

    fn enabled(&self) -> bool {
        self.heartbeat_idle_ns > 0
    }
}

/// A pending round of death-notice dissemination for one dead peer.
struct NoticeRounds {
    dead: NodeId,
    remaining: u32,
    next_ns: u64,
}

/// The reliability state machine for one node, covering all its peers.
/// Owned and driven exclusively by the communication-server thread.
pub struct ReliableLink {
    me: NodeId,
    peers: Vec<Peer>,
    rto_base_ns: u64,
    rto_max_ns: u64,
    max_retries: u32,
    ack_delay_ns: u64,
    detector: DetectorConfig,
    /// Max unacked data buffers per peer before new submissions are held
    /// back (0 = flow control off).
    flow_window: usize,
    /// The receive credit this node currently advertises in every
    /// outgoing header (data, ack, heartbeat).
    local_credit: u16,
    /// Dead peers whose notices still have dissemination rounds left.
    notices: Vec<NoticeRounds>,
    /// Suspicions cleared by inbound packets since the last poll (drained
    /// into [`PollAction::SuspectCleared`] for counting/logging).
    cleared: Vec<NodeId>,
}

impl ReliableLink {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: NodeId,
        nodes: usize,
        rto_base_ns: u64,
        rto_max_ns: u64,
        max_retries: u32,
        ack_delay_ns: u64,
        flow_window: usize,
        detector: DetectorConfig,
    ) -> Self {
        ReliableLink {
            me,
            peers: (0..nodes).map(|_| Peer::new()).collect(),
            rto_base_ns,
            rto_max_ns,
            max_retries,
            ack_delay_ns,
            detector,
            flow_window,
            local_credit: CREDIT_UNLIMITED,
            notices: Vec::new(),
            cleared: Vec::new(),
        }
    }

    /// Whether `node` has been declared dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.peers[node].dead
    }

    /// Whether a deferred cumulative ack toward `node` is pending — the
    /// next data buffer prepared for `node` will piggyback it.
    pub fn has_pending_ack(&self, node: NodeId) -> bool {
        self.peers[node].ack_due_ns != 0
    }

    /// Unacked buffers queued toward `node` (introspection/tests).
    pub fn unacked(&self, node: NodeId) -> usize {
        self.peers[node].rtx.len()
    }

    /// High-water mark of the unacked count toward `node`.
    pub fn unacked_watermark(&self, node: NodeId) -> usize {
        self.peers[node].max_unacked
    }

    /// Whether `node` is currently in the Backpressured state (its flow
    /// window filled and submissions were held back). Distinct from
    /// death: cleared as soon as acks drain the held queue.
    pub fn is_backpressured(&self, node: NodeId) -> bool {
        self.peers[node].backpressured
    }

    /// Data buffers currently held back (unstamped) toward `node`.
    pub fn held_len(&self, node: NodeId) -> usize {
        self.peers[node].held.len()
    }

    /// Updates the receive credit this node advertises on every outgoing
    /// header. The communication server recomputes it each sweep from its
    /// inbound backlog.
    pub fn set_local_credit(&mut self, credit: u16) {
        self.local_credit = credit;
    }

    /// How many data buffers may currently be unacked toward `dst`:
    /// `min(flow_window, advertised credit)`, with a floor of one so a
    /// zero-credit peer can never wedge the link — the window reopens
    /// from the ack of that one probe buffer.
    fn effective_window(&self, dst: NodeId) -> usize {
        if self.flow_window == 0 {
            return usize::MAX;
        }
        let credit = (self.peers[dst].credit as usize).max(1);
        self.flow_window.min(credit)
    }

    /// Whether a suspicion is currently raised against `node` (tests).
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.peers[node].suspected
    }

    /// Peers confirmed dead so far, in id order.
    pub fn dead_peers(&self) -> Vec<NodeId> {
        (0..self.peers.len()).filter(|&n| self.peers[n].dead).collect()
    }

    fn dead_count(&self) -> u64 {
        self.peers.iter().filter(|p| p.dead).count() as u64
    }

    /// Stamps the transport header onto an outgoing data buffer, enqueues
    /// a shared handle for retransmission and returns the handle to put on
    /// the wire. The piggybacked ack clears any pending standalone ack.
    ///
    /// Bypasses the flow window — callers that want windowing go through
    /// [`Self::submit_data`]. The caller must have checked
    /// [`Self::is_dead`] first.
    pub fn prepare_data(&mut self, dst: NodeId, mut payload: Payload, now_ns: u64) -> Payload {
        let credit = self.local_credit;
        let p = &mut self.peers[dst];
        assert!(!p.dead, "prepare_data for a dead peer");
        let seq = p.next_seq;
        p.next_seq += 1;
        payload.patch(0, &encode_header(KIND_DATA, seq, p.cum_recv, credit));
        p.ack_due_ns = 0;
        p.last_sent_ns = now_ns.max(1);
        let wire = payload.share();
        p.rtx.push_back(Rtx { seq, payload, sent_ns: now_ns, attempts: 0 });
        p.max_unacked = p.max_unacked.max(p.rtx.len());
        wire
    }

    /// Flow-controlled variant of [`Self::prepare_data`]: stamps and
    /// returns the wire handle if the window toward `dst` is open *and*
    /// nothing is already held (held buffers keep submission order);
    /// otherwise holds the buffer back unstamped, moves the peer into the
    /// Backpressured state, and returns `None`. Held buffers drain via
    /// [`Self::release_window`].
    pub fn submit_data(&mut self, dst: NodeId, payload: Payload, now_ns: u64) -> Option<Payload> {
        let window = self.effective_window(dst);
        let p = &mut self.peers[dst];
        assert!(!p.dead, "submit_data for a dead peer");
        if p.held.is_empty() && p.rtx.len() < window {
            return Some(self.prepare_data(dst, payload, now_ns));
        }
        p.held.push_back(payload);
        p.backpressured = true;
        None
    }

    /// Stamps and appends to `out` every held buffer the (re-evaluated)
    /// window toward `dst` now admits. Returns `true` when this call
    /// cleared the Backpressured state — held queue drained and the
    /// window no longer full.
    pub fn release_window(&mut self, dst: NodeId, now_ns: u64, out: &mut Vec<Payload>) -> bool {
        if self.peers[dst].dead || !self.peers[dst].backpressured {
            return false;
        }
        loop {
            let window = self.effective_window(dst);
            let p = &mut self.peers[dst];
            if p.rtx.len() >= window {
                return false;
            }
            let Some(payload) = p.held.pop_front() else {
                p.backpressured = false;
                return true;
            };
            let wire = self.prepare_data(dst, payload, now_ns);
            out.push(wire);
        }
    }

    /// Processes an inbound packet from `src` and classifies it.
    pub fn on_packet(&mut self, src: NodeId, buf: &[u8], now_ns: u64) -> Recv {
        let Some(h) = parse_header(buf) else { return Recv::Malformed };
        if self.peers[src].dead {
            return Recv::FromDead;
        }
        if self.peers[src].heard(now_ns) {
            self.cleared.push(src);
        }
        if h.kind == KIND_NOTICE {
            // `ack` is the sender's dead count, not a cumulative ack —
            // it must not touch the retransmit queue (and `credit` is
            // meaningless on notices).
            let dead = h.seq as NodeId;
            if dead >= self.peers.len() {
                return Recv::Malformed;
            }
            return Recv::Notice { dead };
        }
        self.peers[src].credit = h.credit;
        self.process_ack(src, h.ack, now_ns);
        let p = &mut self.peers[src];
        match h.kind {
            KIND_ACK => Recv::AckOnly,
            KIND_HEARTBEAT => Recv::Heartbeat,
            KIND_DATA => {
                if h.seq <= p.cum_recv || p.ooo.contains(&h.seq) {
                    // Our ack got lost (or the fabric duplicated the
                    // packet): re-ack promptly so the sender stops.
                    p.ack_due_ns = now_ns.max(1);
                    Recv::Duplicate
                } else {
                    if h.seq == p.cum_recv + 1 {
                        p.cum_recv += 1;
                        while p.ooo.remove(&(p.cum_recv + 1)) {
                            p.cum_recv += 1;
                        }
                    } else {
                        p.ooo.insert(h.seq);
                    }
                    if p.ack_due_ns == 0 {
                        p.ack_due_ns = now_ns.saturating_add(self.ack_delay_ns).max(1);
                    }
                    Recv::Deliver
                }
            }
            _ => Recv::Malformed,
        }
    }

    /// Applies a cumulative ack from `src` to our retransmit queue toward
    /// it. Progress restarts the timer (and backoff) of the new queue
    /// head: the peer is demonstrably alive.
    fn process_ack(&mut self, src: NodeId, ack: u64, now_ns: u64) {
        let p = &mut self.peers[src];
        let mut advanced = false;
        while p.rtx.front().is_some_and(|r| r.seq <= ack) {
            p.rtx.pop_front();
            advanced = true;
        }
        if advanced {
            if let Some(front) = p.rtx.front_mut() {
                front.sent_ns = now_ns;
                front.attempts = 0;
            }
        }
    }

    fn rto(&self, attempts: u32) -> u64 {
        self.rto_base_ns
            .checked_shl(attempts.min(16))
            .map_or(self.rto_max_ns, |v| v.min(self.rto_max_ns))
    }

    /// Marks `dst` dead, drains its state, and schedules one dissemination
    /// cycle of death notices. Returns the unacked payloads whose tokens
    /// the caller must fail. The once-per-peer dissemination guard is the
    /// `dead` flag itself: a peer is only ever marked dead once.
    fn mark_dead_inner(&mut self, dst: NodeId) -> Vec<Payload> {
        let p = &mut self.peers[dst];
        debug_assert!(!p.dead);
        p.dead = true;
        p.ooo.clear();
        p.ack_due_ns = 0;
        p.suspected = false;
        p.backpressured = false;
        p.credit = CREDIT_UNLIMITED;
        // Held (never-stamped) buffers carry request tokens just like
        // unacked ones: both must be error-completed.
        let mut unacked: Vec<Payload> = p.rtx.drain(..).map(|r| r.payload).collect();
        unacked.extend(p.held.drain(..));
        self.notices.push(NoticeRounds { dead: dst, remaining: NOTICE_ROUNDS, next_ns: 0 });
        unacked
    }

    /// Confirms `node` dead from an out-of-band source — a received death
    /// notice or an observed fabric kill — and returns the unacked
    /// payloads whose tokens must be failed. `None` if `node` is this
    /// node itself or already dead (nothing to do, nothing to forward).
    pub fn confirm_death(&mut self, node: NodeId) -> Option<Vec<Payload>> {
        if node == self.me || self.peers[node].dead {
            return None;
        }
        Some(self.mark_dead_inner(node))
    }

    /// The earliest coarse-clock time at which [`Self::poll`] has timer
    /// work — a retransmit, standalone ack, heartbeat, suspicion or death
    /// check, or notice round — or `None` while no timer is armed. The
    /// communication server parks until then at most.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        if !self.cleared.is_empty() {
            return Some(0);
        }
        let det = self.detector;
        let mut next: Option<u64> = None;
        let mut arm = |at: u64| next = Some(next.map_or(at, |n| n.min(at)));
        for (dst, p) in self.peers.iter().enumerate() {
            if dst == self.me || p.dead {
                continue;
            }
            if let Some(front) = p.rtx.front() {
                arm(front.sent_ns.saturating_add(self.rto(front.attempts)));
            }
            if p.ack_due_ns != 0 {
                arm(p.ack_due_ns);
            }
            if det.enabled() {
                if p.last_heard_ns == 0 || p.last_sent_ns == 0 {
                    arm(0); // the first sweep initialises the stamps
                    continue;
                }
                arm(p.last_sent_ns.saturating_add(det.heartbeat_idle_ns));
                if !p.suspected {
                    arm(p.last_heard_ns.saturating_add(det.suspect_after_ns));
                }
                arm(p.last_heard_ns.saturating_add(det.death_timeout_ns));
            }
        }
        for n in &self.notices {
            arm(n.next_ns);
        }
        next
    }

    /// Timer sweep: appends retransmissions, standalone acks, heartbeats,
    /// suspicion transitions, death declarations and notice dissemination
    /// to `out`. Called once per communication-server sweep.
    pub fn poll(&mut self, now_ns: u64, out: &mut Vec<PollAction>) {
        for dst in self.cleared.split_off(0) {
            out.push(PollAction::SuspectCleared { dst });
        }
        let det = self.detector;
        let local_credit = self.local_credit;
        for dst in 0..self.peers.len() {
            if dst == self.me || self.peers[dst].dead {
                continue;
            }
            if det.enabled() {
                // Lazy liveness init: the first detector sweep defines
                // "now" as the baseline, so clusters idle at startup (or
                // with a clock that starts far from zero) see no silence.
                // Done before the retransmit check so the exhaustion
                // suppression below never reads an uninitialised stamp.
                let p = &mut self.peers[dst];
                if p.last_heard_ns == 0 {
                    p.last_heard_ns = now_ns.max(1);
                }
                if p.last_sent_ns == 0 {
                    p.last_sent_ns = now_ns.max(1);
                }
            }
            let expired = {
                let p = &self.peers[dst];
                p.rtx
                    .front()
                    .is_some_and(|f| now_ns.saturating_sub(f.sent_ns) >= self.rto(f.attempts))
            };
            if expired {
                if self.peers[dst].rtx.front().unwrap().attempts >= self.max_retries {
                    // With the detector on, retry exhaustion alone is not
                    // proof of death: a slow (throttled, backpressured)
                    // peer that produced *any* packet within the
                    // suspicion threshold keeps being retransmitted to at
                    // the capped backoff. True silence still kills —
                    // either right here once the peer stops acking, or
                    // via the detector's own silence timeout.
                    let heard_recently = det.enabled()
                        && now_ns.saturating_sub(self.peers[dst].last_heard_ns)
                            < det.suspect_after_ns;
                    if !heard_recently {
                        let unacked = self.mark_dead_inner(dst);
                        out.push(PollAction::Dead {
                            dst,
                            unacked,
                            reason: DeathReason::RetryExhausted,
                        });
                        continue;
                    }
                }
                let peer = &mut self.peers[dst];
                peer.last_sent_ns = now_ns.max(1);
                let front = peer.rtx.front_mut().unwrap();
                // Pin attempts at the budget: backoff stays capped and
                // the next expiry re-evaluates death vs. suppression.
                if front.attempts < self.max_retries {
                    front.attempts += 1;
                }
                front.sent_ns = now_ns;
                out.push(PollAction::Retransmit { dst, payload: front.payload.clone() });
            }
            let p = &mut self.peers[dst];
            if det.enabled() {
                let silence = now_ns.saturating_sub(p.last_heard_ns);
                if silence >= det.death_timeout_ns {
                    let unacked = self.mark_dead_inner(dst);
                    out.push(PollAction::Dead {
                        dst,
                        unacked,
                        reason: DeathReason::HeartbeatTimeout,
                    });
                    continue;
                }
                if silence >= det.suspect_after_ns && !p.suspected {
                    p.suspected = true;
                    out.push(PollAction::Suspect { dst });
                }
                if now_ns.saturating_sub(p.last_sent_ns) >= det.heartbeat_idle_ns {
                    p.last_sent_ns = now_ns.max(1);
                    p.ack_due_ns = 0;
                    let hb = encode_header(KIND_HEARTBEAT, 0, p.cum_recv, local_credit);
                    out.push(PollAction::Heartbeat { dst, payload: Payload::from(hb.to_vec()) });
                    continue;
                }
            }
            if p.ack_due_ns != 0 && now_ns >= p.ack_due_ns {
                p.ack_due_ns = 0;
                p.last_sent_ns = now_ns.max(1);
                let ack = encode_header(KIND_ACK, 0, p.cum_recv, local_credit);
                out.push(PollAction::SendAck { dst, payload: Payload::from(ack.to_vec()) });
            }
        }
        // Notice dissemination: each dead peer's notice goes to every
        // still-alive peer, NOTICE_ROUNDS times spaced rto_base_ns apart
        // (notices are unacked; repetition covers the loss budget).
        if !self.notices.is_empty() {
            let dead_count = self.dead_count();
            let alive: Vec<NodeId> =
                (0..self.peers.len()).filter(|&n| n != self.me && !self.peers[n].dead).collect();
            for i in 0..self.notices.len() {
                if now_ns < self.notices[i].next_ns {
                    continue;
                }
                let dead = self.notices[i].dead;
                self.notices[i].remaining -= 1;
                self.notices[i].next_ns = now_ns.saturating_add(self.rto_base_ns).max(1);
                let notice = encode_header(KIND_NOTICE, dead as u64, dead_count, CREDIT_UNLIMITED);
                for &dst in &alive {
                    self.peers[dst].last_sent_ns = now_ns.max(1);
                    out.push(PollAction::SendNotice {
                        dst,
                        payload: Payload::from(notice.to_vec()),
                    });
                }
            }
            self.notices.retain(|n| n.remaining > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_payload(extra: &[u8]) -> Payload {
        let mut v = vec![0u8; HEADER_LEN];
        v.extend_from_slice(extra);
        Payload::from(v)
    }

    /// Test shorthand: encode with unlimited credit (most tests predate
    /// — and are indifferent to — flow control).
    fn hdr(kind: u8, seq: u64, ack: u64) -> [u8; HEADER_LEN] {
        encode_header(kind, seq, ack, CREDIT_UNLIMITED)
    }

    fn link(nodes: usize) -> ReliableLink {
        // rto_base 100, rto_max 400, 2 retries, ack delay 50, no flow
        // window, no detector.
        ReliableLink::new(0, nodes, 100, 400, 2, 50, 0, DetectorConfig::disabled())
    }

    fn link_flow(nodes: usize, flow_window: usize) -> ReliableLink {
        // Same delivery params as `link`, with a flow window.
        ReliableLink::new(0, nodes, 100, 400, 2, 50, flow_window, DetectorConfig::disabled())
    }

    fn link_det(nodes: usize) -> ReliableLink {
        // Same delivery params; detector: heartbeat idle 100, suspect
        // after 300, death at 1000.
        let det = DetectorConfig {
            heartbeat_idle_ns: 100,
            suspect_after_ns: 300,
            death_timeout_ns: 1000,
        };
        ReliableLink::new(0, nodes, 100, 400, 2, 50, 0, det)
    }

    fn kinds(out: &[PollAction]) -> Vec<u8> {
        out.iter()
            .map(|a| match a {
                PollAction::Retransmit { .. } => KIND_DATA,
                PollAction::SendAck { .. } => KIND_ACK,
                PollAction::Heartbeat { .. } => KIND_HEARTBEAT,
                PollAction::SendNotice { .. } => KIND_NOTICE,
                PollAction::Suspect { .. } => 100,
                PollAction::SuspectCleared { .. } => 101,
                PollAction::Dead { .. } => 102,
            })
            .collect()
    }

    #[test]
    fn header_roundtrip() {
        let h = encode_header(KIND_DATA, 7, 12, 33);
        let parsed = parse_header(&h).unwrap();
        assert_eq!(parsed, Header { kind: KIND_DATA, seq: 7, ack: 12, credit: 33 });
        assert_eq!(parse_header(&h[..HEADER_LEN - 1]), None);
        assert_eq!(parse_header(&hdr(9, 0, 0)), None);
    }

    #[test]
    fn sequences_are_per_destination_and_one_based() {
        let mut l = link(3);
        let w1 = l.prepare_data(1, data_payload(b"a"), 10);
        let w2 = l.prepare_data(2, data_payload(b"b"), 10);
        let w3 = l.prepare_data(1, data_payload(b"c"), 10);
        assert_eq!(parse_header(&w1).unwrap().seq, 1);
        assert_eq!(parse_header(&w2).unwrap().seq, 1);
        assert_eq!(parse_header(&w3).unwrap().seq, 2);
        assert_eq!(l.unacked(1), 2);
        assert_eq!(l.unacked(2), 1);
    }

    #[test]
    fn duplicates_are_suppressed_and_reacked() {
        let mut l = link(2);
        let pkt = hdr(KIND_DATA, 1, 0);
        assert_eq!(l.on_packet(1, &pkt, 10), Recv::Deliver);
        assert_eq!(l.on_packet(1, &pkt, 20), Recv::Duplicate);
        // Duplicate forces a prompt standalone re-ack.
        let mut out = Vec::new();
        l.poll(20, &mut out);
        assert!(out.iter().any(|a| matches!(a,
            PollAction::SendAck { dst: 1, payload } if parse_header(payload).unwrap().ack == 1)));
    }

    #[test]
    fn out_of_order_data_is_delivered_once_and_acked_cumulatively() {
        let mut l = link(2);
        // 2 and 3 arrive before 1.
        assert_eq!(l.on_packet(1, &hdr(KIND_DATA, 2, 0), 10), Recv::Deliver);
        assert_eq!(l.on_packet(1, &hdr(KIND_DATA, 3, 0), 11), Recv::Deliver);
        assert_eq!(l.on_packet(1, &hdr(KIND_DATA, 2, 0), 12), Recv::Duplicate);
        assert_eq!(l.on_packet(1, &hdr(KIND_DATA, 1, 0), 13), Recv::Deliver);
        // Ack (after the delay) covers all three.
        let mut out = Vec::new();
        l.poll(13 + 50, &mut out);
        let Some(PollAction::SendAck { payload, .. }) = out.first() else {
            panic!("expected a standalone ack");
        };
        assert_eq!(parse_header(payload).unwrap().ack, 3);
    }

    #[test]
    fn cumulative_ack_drains_retransmit_queue() {
        let mut l = link(2);
        for i in 0..3 {
            l.prepare_data(1, data_payload(&[i]), 10);
        }
        assert_eq!(l.unacked(1), 3);
        // A standalone ack for seq 2 pops the first two.
        assert_eq!(l.on_packet(1, &hdr(KIND_ACK, 0, 2), 20), Recv::AckOnly);
        assert_eq!(l.unacked(1), 1);
        assert_eq!(l.on_packet(1, &hdr(KIND_ACK, 0, 3), 30), Recv::AckOnly);
        assert_eq!(l.unacked(1), 0);
    }

    #[test]
    fn piggybacked_ack_on_data_also_acks() {
        let mut l = link(2);
        l.prepare_data(1, data_payload(b"x"), 10);
        assert_eq!(l.on_packet(1, &hdr(KIND_DATA, 1, 1), 20), Recv::Deliver);
        assert_eq!(l.unacked(1), 0);
    }

    #[test]
    fn head_of_line_retransmits_with_backoff_then_death() {
        let mut l = link(2);
        l.prepare_data(1, data_payload(b"x"), 0);
        l.prepare_data(1, data_payload(b"y"), 0);
        let mut out = Vec::new();
        // rto_base=100: first retransmit at t=100, attempts 0→1.
        l.poll(99, &mut out);
        assert!(out.is_empty());
        l.poll(100, &mut out);
        assert!(
            matches!(out.as_slice(), [PollAction::Retransmit { dst: 1, payload }]
                if parse_header(payload).unwrap().seq == 1),
            "only the queue head retransmits"
        );
        out.clear();
        // Backoff doubles: next at 100 + 200.
        l.poll(250, &mut out);
        assert!(out.is_empty());
        l.poll(300, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // attempts == max_retries (2): the next expiry declares death.
        l.poll(300 + 400, &mut out);
        let [PollAction::Dead { dst: 1, unacked, reason: DeathReason::RetryExhausted }] =
            out.as_slice()
        else {
            panic!("expected death declaration");
        };
        assert_eq!(unacked.len(), 2);
        assert!(l.is_dead(1));
        // Dead peers are inert afterwards.
        out.clear();
        l.poll(10_000, &mut out);
        assert!(out.is_empty());
        assert_eq!(l.on_packet(1, &hdr(KIND_DATA, 5, 0), 10_000), Recv::FromDead);
    }

    #[test]
    fn ack_progress_resets_backoff_of_new_head() {
        let mut l = link(2);
        l.prepare_data(1, data_payload(b"x"), 0);
        l.prepare_data(1, data_payload(b"y"), 0);
        let mut out = Vec::new();
        l.poll(100, &mut out); // head seq 1 retransmitted, attempts=1
        out.clear();
        // Ack seq 1 at t=150: new head (seq 2) restarts its timer there.
        l.on_packet(1, &hdr(KIND_ACK, 0, 1), 150);
        l.poll(249, &mut out);
        assert!(out.is_empty(), "timer restarted at ack time");
        l.poll(250, &mut out);
        assert!(matches!(out.as_slice(), [PollAction::Retransmit { dst: 1, payload }]
            if parse_header(payload).unwrap().seq == 2));
    }

    #[test]
    fn standalone_ack_waits_for_the_delay_and_piggyback_cancels_it() {
        let mut l = link(2);
        assert_eq!(l.on_packet(1, &hdr(KIND_DATA, 1, 0), 10), Recv::Deliver);
        let mut out = Vec::new();
        l.poll(59, &mut out);
        assert!(out.is_empty(), "ack delay (50) not yet elapsed");
        // Outgoing data to the same peer piggybacks the ack instead.
        let wire = l.prepare_data(1, data_payload(b"z"), 40);
        assert_eq!(parse_header(&wire).unwrap().ack, 1);
        l.poll(1_000, &mut out);
        assert!(
            !out.iter().any(|a| matches!(a, PollAction::SendAck { .. })),
            "piggyback cancelled the standalone ack"
        );
    }

    #[test]
    fn malformed_and_short_buffers_are_flagged() {
        let mut l = link(2);
        assert_eq!(l.on_packet(1, &[1, 2, 3], 10), Recv::Malformed);
        assert_eq!(l.on_packet(1, &hdr(7, 1, 0), 10), Recv::Malformed);
        // A notice naming an out-of-range node is malformed, not a panic.
        assert_eq!(l.on_packet(1, &hdr(KIND_NOTICE, 99, 0), 10), Recv::Malformed);
    }

    #[test]
    fn busy_links_never_emit_heartbeats() {
        let mut l = link_det(2);
        let mut out = Vec::new();
        // Outbound data every 50 ticks keeps the link under the 100-tick
        // idle threshold; inbound acks keep the peer alive.
        let mut t = 0;
        for i in 0..40u64 {
            t = i * 50;
            l.prepare_data(1, data_payload(b"x"), t);
            l.on_packet(1, &hdr(KIND_ACK, 0, i + 1), t + 10);
            l.poll(t + 10, &mut out);
        }
        assert!(
            !out.iter().any(|a| matches!(a, PollAction::Heartbeat { .. })),
            "busy link must not heartbeat"
        );
        assert!(!l.is_suspected(1) && !l.is_dead(1));
        // Once the link idles past the threshold, exactly one heartbeat
        // goes out per idle period.
        out.clear();
        l.poll(t + 10 + 100, &mut out);
        assert_eq!(kinds(&out), vec![KIND_HEARTBEAT]);
        out.clear();
        l.poll(t + 10 + 150, &mut out);
        assert!(out.is_empty(), "heartbeat interval not yet elapsed again");
    }

    #[test]
    fn heartbeats_carry_the_cumulative_ack() {
        let mut l = link_det(2);
        l.on_packet(1, &hdr(KIND_DATA, 1, 0), 10);
        let mut out = Vec::new();
        l.poll(10, &mut out); // baseline init
        out.clear();
        // The heartbeat subsumes the pending standalone ack.
        l.poll(200, &mut out);
        let hb = out
            .iter()
            .find_map(|a| match a {
                PollAction::Heartbeat { payload, .. } => Some(parse_header(payload).unwrap()),
                _ => None,
            })
            .expect("heartbeat emitted");
        assert_eq!(hb.kind, KIND_HEARTBEAT);
        assert_eq!(hb.ack, 1);
        assert!(
            !out.iter().any(|a| matches!(a, PollAction::SendAck { .. })),
            "heartbeat replaces the standalone ack"
        );
        // Receiving a heartbeat acks our in-flight data and counts as
        // liveness.
        let mut l2 = link_det(2);
        l2.prepare_data(1, data_payload(b"x"), 0);
        assert_eq!(l2.on_packet(1, &hdr(KIND_HEARTBEAT, 0, 1), 50), Recv::Heartbeat);
        assert_eq!(l2.unacked(1), 0);
    }

    #[test]
    fn silence_raises_suspicion_then_clears_on_traffic() {
        let mut l = link_det(2);
        let mut out = Vec::new();
        l.poll(0, &mut out); // baseline init
        assert!(out.is_empty() || kinds(&out) == vec![KIND_HEARTBEAT]);
        out.clear();
        l.poll(301, &mut out);
        assert!(out.iter().any(|a| matches!(a, PollAction::Suspect { dst: 1 })));
        assert!(l.is_suspected(1));
        // Suspicion is raised once, not every sweep.
        out.clear();
        l.poll(400, &mut out);
        assert!(!out.iter().any(|a| matches!(a, PollAction::Suspect { .. })));
        // Any packet clears it; the clearance surfaces on the next poll.
        l.on_packet(1, &hdr(KIND_ACK, 0, 0), 450);
        assert!(!l.is_suspected(1));
        out.clear();
        l.poll(460, &mut out);
        assert!(out.iter().any(|a| matches!(a, PollAction::SuspectCleared { dst: 1 })));
    }

    #[test]
    fn prolonged_silence_confirms_death_and_disseminates() {
        let mut l = link_det(4);
        let mut out = Vec::new();
        l.poll(0, &mut out); // baseline for all peers
                             // Keep peers 2 and 3 alive; peer 1 goes silent.
        for t in (0..=1000).step_by(100) {
            l.on_packet(2, &hdr(KIND_ACK, 0, 0), t);
            l.on_packet(3, &hdr(KIND_ACK, 0, 0), t);
        }
        out.clear();
        l.poll(1001, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            PollAction::Dead { dst: 1, reason: DeathReason::HeartbeatTimeout, .. }
        )));
        assert!(l.is_dead(1));
        assert_eq!(l.dead_peers(), vec![1]);
        // The same sweep disseminates notices to both survivors.
        let notices: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                PollAction::SendNotice { dst, payload } => {
                    Some((*dst, parse_header(payload).unwrap()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(notices.len(), 2);
        for (dst, h) in &notices {
            assert!(*dst == 2 || *dst == 3);
            assert_eq!(h.kind, KIND_NOTICE);
            assert_eq!(h.seq, 1, "notice names the dead node");
        }
        // Two more rounds follow, spaced rto_base apart, then it stops.
        out.clear();
        l.poll(1101, &mut out);
        assert_eq!(out.iter().filter(|a| matches!(a, PollAction::SendNotice { .. })).count(), 2);
        out.clear();
        l.poll(1201, &mut out);
        assert_eq!(out.iter().filter(|a| matches!(a, PollAction::SendNotice { .. })).count(), 2);
        out.clear();
        l.poll(1301, &mut out);
        assert!(!out.iter().any(|a| matches!(a, PollAction::SendNotice { .. })));
    }

    #[test]
    fn received_notice_confirms_death_exactly_once() {
        let mut l = link_det(4);
        l.prepare_data(2, data_payload(b"x"), 0);
        // Peer 1 tells us node 2 is dead.
        let notice = hdr(KIND_NOTICE, 2, 1);
        assert_eq!(l.on_packet(1, &notice, 10), Recv::Notice { dead: 2 });
        let unacked = l.confirm_death(2).expect("first confirmation");
        assert_eq!(unacked.len(), 1, "in-flight data toward the dead peer is drained");
        assert!(l.is_dead(2));
        // Re-confirmation (another survivor's notice) is a no-op.
        assert_eq!(l.on_packet(3, &notice, 20), Recv::Notice { dead: 2 });
        assert!(l.confirm_death(2).is_none());
        // Confirming ourselves dead is refused.
        assert!(l.confirm_death(0).is_none());
        // Gossip: our own dissemination cycle for node 2 runs (to peers 1
        // and 3), forwarding the death we learned second-hand.
        let mut out = Vec::new();
        l.poll(30, &mut out);
        let fwd: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                PollAction::SendNotice { dst, payload } => {
                    Some((*dst, parse_header(payload).unwrap().seq))
                }
                _ => None,
            })
            .collect();
        assert_eq!(fwd.len(), 2);
        assert!(fwd.iter().all(|(dst, dead)| (*dst == 1 || *dst == 3) && *dead == 2));
    }

    #[test]
    fn detector_disabled_means_no_heartbeats_or_silence_deaths() {
        let mut l = link(2);
        let mut out = Vec::new();
        l.poll(0, &mut out);
        l.poll(1_000_000_000, &mut out);
        assert!(out.is_empty());
        assert!(!l.is_dead(1) && !l.is_suspected(1));
    }

    #[test]
    fn notices_are_not_sent_to_the_dead() {
        let mut l = link_det(4);
        let mut out = Vec::new();
        l.poll(0, &mut out);
        l.confirm_death(1).unwrap();
        l.confirm_death(2).unwrap();
        out.clear();
        l.poll(10, &mut out);
        for a in &out {
            if let PollAction::SendNotice { dst, .. } = a {
                assert_eq!(*dst, 3, "only the survivor receives notices");
            }
        }
    }

    #[test]
    fn flow_window_holds_submissions_and_releases_in_order() {
        let mut l = link_flow(2, 2);
        assert!(l.submit_data(1, data_payload(b"a"), 10).is_some());
        assert!(l.submit_data(1, data_payload(b"b"), 10).is_some());
        // Window full: further submissions are held unstamped.
        assert!(l.submit_data(1, data_payload(b"c"), 10).is_none());
        assert!(l.submit_data(1, data_payload(b"d"), 10).is_none());
        assert!(l.is_backpressured(1));
        assert_eq!(l.unacked(1), 2);
        assert_eq!(l.held_len(1), 2);
        assert_eq!(l.unacked_watermark(1), 2);
        // Ack seq 1: one slot opens; exactly one held buffer is stamped,
        // in submission order (it gets seq 3).
        l.on_packet(1, &hdr(KIND_ACK, 0, 1), 20);
        let mut released = Vec::new();
        assert!(!l.release_window(1, 20, &mut released), "still one held");
        assert_eq!(released.len(), 1);
        let h = parse_header(&released[0]).unwrap();
        assert_eq!((h.seq, &released[0][HEADER_LEN..]), (3, &b"c"[..]));
        assert!(l.is_backpressured(1));
        // Ack everything in flight: the last held buffer drains and the
        // Backpressured state clears.
        l.on_packet(1, &hdr(KIND_ACK, 0, 3), 30);
        released.clear();
        assert!(l.release_window(1, 30, &mut released));
        assert_eq!(released.len(), 1);
        assert_eq!(parse_header(&released[0]).unwrap().seq, 4);
        assert!(!l.is_backpressured(1));
        assert_eq!(l.held_len(1), 0);
        // Window never overshot its bound.
        assert_eq!(l.unacked_watermark(1), 2);
        // And the window is usable again.
        assert!(l.submit_data(1, data_payload(b"e"), 40).is_some());
    }

    #[test]
    fn receiver_credit_shrinks_the_window_and_zero_credit_keeps_one_probe() {
        let mut l = link_flow(2, 8);
        // Peer advertises credit 1: effective window min(8, 1).
        l.on_packet(1, &encode_header(KIND_ACK, 0, 0, 1), 10);
        assert!(l.submit_data(1, data_payload(b"a"), 10).is_some());
        assert!(l.submit_data(1, data_payload(b"b"), 10).is_none());
        assert!(l.is_backpressured(1));
        // Credit 0 floors at one in-flight probe buffer, so the window
        // can reopen from that probe's ack (never wedges).
        let mut l2 = link_flow(2, 8);
        l2.on_packet(1, &encode_header(KIND_ACK, 0, 0, 0), 10);
        assert!(l2.submit_data(1, data_payload(b"a"), 10).is_some());
        assert!(l2.submit_data(1, data_payload(b"b"), 10).is_none());
        // The probe's ack (with restored credit) releases the rest.
        l2.on_packet(1, &encode_header(KIND_ACK, 0, 1, 4), 20);
        let mut released = Vec::new();
        assert!(l2.release_window(1, 20, &mut released));
        assert_eq!(released.len(), 1);
    }

    #[test]
    fn zero_flow_window_disables_flow_control() {
        let mut l = link(2); // flow_window 0
        for i in 0..64u8 {
            assert!(l.submit_data(1, data_payload(&[i]), 10).is_some());
        }
        assert!(!l.is_backpressured(1));
        assert_eq!(l.unacked(1), 64);
    }

    #[test]
    fn death_drains_held_buffers_alongside_unacked() {
        let mut l = link_flow(2, 1);
        assert!(l.submit_data(1, data_payload(b"a"), 10).is_some());
        assert!(l.submit_data(1, data_payload(b"b"), 10).is_none());
        assert!(l.submit_data(1, data_payload(b"c"), 10).is_none());
        let unacked = l.confirm_death(1).expect("first confirmation");
        // 1 in-flight + 2 held: all three carry tokens that must fail.
        assert_eq!(unacked.len(), 3);
        assert!(!l.is_backpressured(1));
        assert_eq!(l.held_len(1), 0);
    }

    #[test]
    fn retry_exhaustion_is_suppressed_while_the_peer_is_heard() {
        // Detector on: a peer that keeps talking (acks with no progress —
        // the slow-receiver shape) is retransmitted to indefinitely at
        // the capped backoff instead of being declared dead.
        let mut l = link_det(2);
        let mut out = Vec::new();
        l.poll(0, &mut out); // baseline init
        l.prepare_data(1, data_payload(b"x"), 0);
        // Expiries at 100 (attempts→1), 300 (→2), 700 (at budget).
        for t in [100, 300] {
            out.clear();
            l.poll(t, &mut out);
            assert!(out.iter().any(|a| matches!(a, PollAction::Retransmit { dst: 1, .. })));
        }
        // Keep the peer audibly alive just before the budget expiry.
        l.on_packet(1, &hdr(KIND_ACK, 0, 0), 650);
        out.clear();
        l.poll(700, &mut out);
        assert!(!l.is_dead(1), "heard 50ns ago: exhaustion suppressed");
        assert!(
            out.iter().any(|a| matches!(a, PollAction::Retransmit { dst: 1, .. })),
            "suppression keeps retransmitting the head"
        );
        // Silence past suspect_after (300): the next expiry now kills.
        out.clear();
        l.poll(1100, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            PollAction::Dead { dst: 1, reason: DeathReason::RetryExhausted, .. }
        )));
        assert!(l.is_dead(1));
    }

    #[test]
    fn retry_exhaustion_kills_immediately_when_detector_is_disabled() {
        // Without a detector there is no liveness evidence to suppress
        // on: the original budget semantics hold even if packets arrive.
        let mut l = link(2);
        l.prepare_data(1, data_payload(b"x"), 0);
        let mut out = Vec::new();
        for t in [100, 300] {
            l.poll(t, &mut out);
        }
        l.on_packet(1, &hdr(KIND_ACK, 0, 0), 650);
        out.clear();
        l.poll(700, &mut out);
        assert!(l.is_dead(1));
    }
}
