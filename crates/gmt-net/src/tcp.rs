//! Multi-process TCP transport.
//!
//! Where [`fabric`](crate::fabric) simulates the interconnect inside one
//! process, this module is the real thing: one runtime node per OS
//! process (or per mesh slot in-process for CI), length-prefixed frames
//! over one bidirectional `TcpStream` per peer pair, and a nonblocking
//! reader thread that reassembles frames across partial reads and feeds
//! the same inbox path the sim uses. The reliability, membership and
//! flow-control layers above run unchanged. The [framed
//! core](crate::framed) owns the send path, the fault shim and the
//! connection-loss evidence; this module supplies the streams, the
//! reader thread (EOF, resets and corrupt lengths become evidence) and,
//! under a shim, frames fragmented mid-header.
//!
//! # Wire format
//!
//! Every message is one frame: `[len: u32 LE][tag: u32 LE]` followed by
//! `len` payload bytes. Connections open with a 12-byte hello —
//! `[magic][src node][cluster size]`, all `u32 LE` — so the acceptor can
//! attribute inbound frames to a [`NodeId`] without trusting addresses.
//!
//! # Construction
//!
//! * [`loopback_mesh`] wires N transports inside one process over
//!   127.0.0.1 — the CI `tcp-loopback` backend. They share one
//!   [`TrafficStats`] table so cluster-wide counters keep working.
//! * [`rendezvous`] is the multi-process path used by `gmt-launch`:
//!   node 0 listens at a bootstrap address (given directly or published
//!   through a file), peers dial in and register their data-listener
//!   addresses, node 0 broadcasts the full `NodeId` ↔ address map, and
//!   every pair then connects directly. The registration connections are
//!   kept as a [`Control`] side channel for end-of-job signalling.

use crate::fabric::{NetError, Tag};
use crate::framed::{
    decode_header, encode_header, handshake_timeout, poll_until, Barrier, Control, FrameCore,
    FrameLink, FramedTransport, FRAME_HEADER,
};
use crate::stats::TrafficStats;
use crate::NodeId;
use parking_lot::Mutex;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connection hello magic ("GMT1").
const HELLO_MAGIC: u32 = 0x474D_5431;

/// Labels an I/O error with the rendezvous stage it happened in, so a
/// failed launch says *where* it died (e.g. "waiting for registrations
/// (have 1 of 3)"), not just "timed out".
fn stage_err(stage: impl std::fmt::Display, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("rendezvous: {stage}: {e}"))
}

/// Dials `addr` with exponential backoff until `deadline` — the listener
/// may not be up yet on a cold start, but a peer that never shows must
/// fail the launch, not hang it.
fn dial_with_retry(addr: SocketAddr, deadline: Instant) -> io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(2);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("gave up dialing {addr} at the deadline: {e}"),
                    ));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
        }
    }
}

/// A node's TCP mesh under the framed core: one stream per peer.
pub type TcpTransport = FramedTransport<TcpLink>;

/// The TCP medium: one bidirectional stream per peer (`None` for self
/// and for torn-down links). The reader thread reads a clone of each, so
/// shutting a stream down here — a kill fault, a failed write, our own
/// shutdown — cuts both directions without the reader's cooperation.
pub struct TcpLink {
    /// Each slot's mutex also serializes frame writes.
    streams: Vec<Mutex<Option<TcpStream>>>,
}

fn close_stream(slot: &Mutex<Option<TcpStream>>) {
    if let Some(s) = slot.lock().take() {
        s.shutdown(Shutdown::Both).ok();
    }
}

impl FrameLink for TcpLink {
    fn write(
        &self,
        core: &FrameCore,
        dst: NodeId,
        tag: Tag,
        bytes: &[u8],
        copies: usize,
        shimmed: bool,
    ) -> Result<(), NetError> {
        let mut slot = self.streams[dst].lock();
        let Some(stream) = slot.as_mut() else {
            return Err(if core.stopped() {
                NetError::Closed
            } else {
                NetError::LinkDown { src: core.node, dst }
            });
        };
        for _ in 0..copies {
            if let Err(e) = write_frame(stream, tag, bytes, shimmed) {
                // The connection is gone; drop it so later sends fail
                // fast.
                stream.shutdown(Shutdown::Both).ok();
                *slot = None;
                drop(slot);
                return Err(core.lost(dst, &format!("write failed: {e}")));
            }
        }
        Ok(())
    }

    fn sever(&self, _core: &FrameCore, peer: NodeId) {
        close_stream(&self.streams[peer]);
    }

    /// Closes every stream: peers observe EOF on their reader side, and
    /// a peer blocked writing to us fails fast instead of filling a dead
    /// socket buffer. Partial frames in the reader's staging buffers are
    /// dropped with it (plain `Vec`s, nothing pooled).
    fn close(&self, _core: &FrameCore) {
        self.streams.iter().for_each(close_stream);
    }
}

/// Writes one frame. `fragment` splits the header and body across
/// separate flushed writes (fault-shim mode) so the receiver's partial
/// read reassembly is exercised deterministically.
fn write_frame(stream: &mut TcpStream, tag: Tag, bytes: &[u8], fragment: bool) -> io::Result<()> {
    let hdr = encode_header(bytes.len(), tag);
    if fragment {
        stream.write_all(&hdr[..5])?;
        stream.flush()?;
        stream.write_all(&hdr[5..])?;
        if !bytes.is_empty() {
            let mid = bytes.len() / 2;
            stream.write_all(&bytes[..mid])?;
            stream.flush()?;
            stream.write_all(&bytes[mid..])?;
        }
    } else {
        stream.write_all(&hdr)?;
        stream.write_all(bytes)?;
    }
    stream.flush()
}

/// One inbound connection being reassembled by the reader thread.
struct InboundConn {
    src: NodeId,
    stream: TcpStream,
    /// Bytes received but not yet parsed into whole frames.
    staging: Vec<u8>,
    open: bool,
}

/// The reader thread: sweeps all inbound connections nonblocking,
/// reassembles frames across partial reads, and delivers them to the
/// inbox as pooled payloads. Exits when `stop` is set or every
/// connection has closed.
fn reader_loop(core: &FrameCore, inbound: Vec<(NodeId, TcpStream)>) {
    let mut conns: Vec<InboundConn> = inbound
        .into_iter()
        .map(|(src, stream)| {
            stream.set_nonblocking(true).ok();
            InboundConn { src, stream, staging: Vec::new(), open: true }
        })
        .collect();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if core.stopped() {
            return;
        }
        let mut progressed = false;
        let mut any_open = false;
        for c in conns.iter_mut().filter(|c| c.open) {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF: the peer closed. A partial frame left in
                    // staging is a torn tail; discard it — retransmission
                    // is the reliability layer's problem. The loss itself
                    // is peer-down evidence for the failure detector.
                    c.open = false;
                    core.note_conn_lost(c.src, "closed by peer (EOF)");
                }
                Ok(n) => {
                    c.staging.extend_from_slice(&chunk[..n]);
                    if drain_frames(core, c.src, &mut c.staging).is_err() {
                        // Corrupt length prefix: this stream can never
                        // re-synchronize, close it.
                        c.stream.shutdown(Shutdown::Both).ok();
                        c.open = false;
                        core.note_conn_lost(c.src, "corrupt frame length prefix");
                    }
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    c.open = false;
                    core.note_conn_lost(c.src, &format!("read failed: {e}"));
                }
            }
            any_open |= c.open;
        }
        if !any_open && !conns.is_empty() {
            return; // every peer hung up; nothing left to read
        }
        if conns.is_empty() {
            // Single-node cluster: nothing inbound, just wait for stop.
            std::thread::sleep(Duration::from_millis(1));
        } else if !progressed {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Parses every complete frame out of `staging`, delivering each to the
/// inbox; leftover bytes (a partial frame) stay for the next read.
/// `Err` means an invalid length prefix.
fn drain_frames(core: &FrameCore, src: NodeId, staging: &mut Vec<u8>) -> Result<(), ()> {
    let mut consumed = 0;
    while staging.len() - consumed >= FRAME_HEADER {
        let at = consumed;
        let Some((len, tag)) = decode_header(&staging[at..at + FRAME_HEADER]) else {
            staging.clear();
            return Err(());
        };
        if staging.len() - at - FRAME_HEADER < len {
            break; // incomplete body; wait for more bytes
        }
        let mut buf = core.recv_buf();
        buf.extend_from_slice(&staging[at + FRAME_HEADER..at + FRAME_HEADER + len]);
        core.spill(core.packet(src, tag, buf));
        consumed = at + FRAME_HEADER + len;
    }
    staging.drain(..consumed);
    Ok(())
}

fn write_hello(stream: &mut TcpStream, src: NodeId, nodes: usize) -> io::Result<()> {
    let mut hello = [0u8; 12];
    hello[..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
    hello[4..8].copy_from_slice(&(src as u32).to_le_bytes());
    hello[8..].copy_from_slice(&(nodes as u32).to_le_bytes());
    stream.write_all(&hello)?;
    stream.flush()
}

fn read_hello(stream: &mut TcpStream, nodes: usize) -> io::Result<NodeId> {
    let mut hello = [0u8; 12];
    stream.read_exact(&mut hello)?;
    let magic = u32::from_le_bytes(hello[..4].try_into().expect("4-byte slice"));
    let src = u32::from_le_bytes(hello[4..8].try_into().expect("4-byte slice")) as usize;
    let peer_nodes = u32::from_le_bytes(hello[8..].try_into().expect("4-byte slice")) as usize;
    if magic != HELLO_MAGIC {
        return Err(io::Error::new(ErrorKind::InvalidData, "bad hello magic"));
    }
    if peer_nodes != nodes || src >= nodes {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("hello from node {src} of {peer_nodes} in a {nodes}-node cluster"),
        ));
    }
    Ok(src)
}

/// Accepts one connection, polling nonblocking until `deadline` — a
/// crashed peer fails the launch instead of hanging it.
fn accept_with_deadline(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        ErrorKind::TimedOut,
                        "timed out waiting for a peer to connect",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Performs the hello handshake on a freshly-accepted data connection
/// with a read timeout, so a stuck peer cannot hang construction.
fn accept_peer(
    listener: &TcpListener,
    nodes: usize,
    deadline: Instant,
) -> io::Result<(NodeId, TcpStream)> {
    let mut stream = accept_with_deadline(listener, deadline)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(handshake_timeout()))?;
    let src = read_hello(&mut stream, nodes)?;
    stream.set_read_timeout(None)?;
    Ok((src, stream))
}

/// Builds an N-node TCP mesh inside one process over 127.0.0.1 — the
/// `tcp-loopback` CI backend. All transports share one [`TrafficStats`]
/// table, so cluster-wide counters (metrics snapshots, bench harness)
/// behave exactly as over the sim fabric.
pub fn loopback_mesh(nodes: usize) -> io::Result<Vec<TcpTransport>> {
    assert!(nodes > 0, "a mesh needs at least one node");
    let stats = Arc::new(TrafficStats::new(nodes));
    let listeners: Vec<TcpListener> =
        (0..nodes).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> =
        listeners.iter().map(|l| l.local_addr()).collect::<io::Result<_>>()?;
    // Nodes join in id order from this one thread: a node's dials to
    // higher ids complete against their kernel accept backlog, and its
    // accepts find the lower ids' dials already queued (deadlock-free).
    let deadline = Instant::now() + handshake_timeout();
    listeners
        .iter()
        .enumerate()
        .map(|(node, l)| join_mesh(node, &addrs, l, deadline, Arc::clone(&stats)))
        .collect()
}

/// How a peer process finds node 0's rendezvous listener.
#[derive(Debug, Clone)]
pub enum Bootstrap {
    /// The address is known up front (env-style bootstrap). Node 0 binds
    /// it; peers dial it.
    Addr(SocketAddr),
    /// Node 0 binds an ephemeral port and publishes `ip:port` to this
    /// file (written to a temp name, then renamed, so readers never see
    /// a partial write); peers poll the file until it appears.
    File(PathBuf),
    /// A shared-memory segment file for the same-host `shm` transport
    /// (see [`crate::shm::attach`]): node 0 creates it `O_EXCL`, peers
    /// map it. Not a TCP rendezvous at all — [`rendezvous`] rejects it.
    Shm(PathBuf),
}

impl Bootstrap {
    /// Parses the `GMT_BOOTSTRAP` syntax: `file:<path>`, `shm:<path>` or
    /// a literal `ip:port`.
    pub fn parse(s: &str) -> Result<Bootstrap, String> {
        if let Some(path) = s.strip_prefix("file:") {
            if path.is_empty() {
                return Err("empty bootstrap file path".into());
            }
            Ok(Bootstrap::File(PathBuf::from(path)))
        } else if let Some(path) = s.strip_prefix("shm:") {
            if path.is_empty() {
                return Err("empty shm segment path".into());
            }
            Ok(Bootstrap::Shm(PathBuf::from(path)))
        } else {
            s.parse::<SocketAddr>()
                .map(Bootstrap::Addr)
                .map_err(|e| format!("bad bootstrap address {s:?}: {e}"))
        }
    }
}

/// An address on the wire: its text form, `u16` length-prefixed.
fn write_addr(stream: &mut TcpStream, addr: &SocketAddr) -> io::Result<()> {
    let text = addr.to_string();
    stream.write_all(&(text.len() as u16).to_le_bytes())?;
    stream.write_all(text.as_bytes())
}

fn read_addr(stream: &mut TcpStream) -> io::Result<SocketAddr> {
    let mut len = [0u8; 2];
    stream.read_exact(&mut len)?;
    let mut text = vec![0u8; u16::from_le_bytes(len) as usize];
    stream.read_exact(&mut text)?;
    let text = std::str::from_utf8(&text)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("bad addr utf8: {e}")))?;
    text.parse()
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("bad addr {text:?}: {e}")))
}

/// Publishes node 0's rendezvous address: write to a temp name in the
/// same directory, then rename, so a polling peer never reads a torn
/// write.
fn publish_addr(path: &Path, addr: &SocketAddr) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, addr.to_string())?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

/// Polls the bootstrap file until node 0 publishes its address.
fn poll_addr(path: &Path, deadline: Instant) -> io::Result<SocketAddr> {
    poll_until(deadline, || {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        text.trim().parse().map_err(|_| {
            let what = format!("bootstrap file {} never appeared", path.display());
            io::Error::new(ErrorKind::TimedOut, what)
        })
    })
}

/// Multi-process rendezvous: brings up this node's slice of an N-node
/// TCP mesh and returns the transport plus the [`Control`] side channel.
///
/// The protocol (node 0 listens, peers dial — per the launcher design):
///
/// 1. every node binds its *data* listener on an ephemeral port;
/// 2. node 0 binds the *rendezvous* listener ([`Bootstrap::Addr`]: that
///    address; [`Bootstrap::File`]: an ephemeral port, published to the
///    file atomically);
/// 3. each peer dials the rendezvous listener and registers
///    `(node id, data address)`;
/// 4. node 0 broadcasts the complete `NodeId` ↔ address map over the
///    registration connections — which then stay open as the control
///    channel;
/// 5. everyone dials every higher-numbered peer's data listener (hello
///    identifies the dialer) and accepts from every lower-numbered one,
///    completing the full mesh.
///
/// Every blocking step carries a bounded deadline ([`handshake_timeout`],
/// 60 s default, `GMT_RDV_TIMEOUT_MS` to override) plus retry/backoff on
/// dials, so one crashed process fails the whole launch with a
/// stage-attributed error instead of wedging it. Node 0 deletes a
/// [`Bootstrap::File`] once every peer has registered (the launcher also
/// cleans it up on its own exit paths).
pub fn rendezvous(
    node: NodeId,
    nodes: usize,
    bootstrap: &Bootstrap,
) -> io::Result<(TcpTransport, Control)> {
    assert!(nodes > 0 && node < nodes, "node {node} out of range for {nodes} nodes");
    if let Bootstrap::Shm(path) = bootstrap {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!(
                "bootstrap shm:{} is a shared-memory segment, not a TCP rendezvous; \
                 attach with GMT_TRANSPORT=shm (gmt_net::shm::attach)",
                path.display()
            ),
        ));
    }
    let deadline = Instant::now() + handshake_timeout();
    let data_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| stage_err("binding data listener", e))?;
    let data_addr = data_listener.local_addr()?;

    // Phase 1: learn the full address map through node 0.
    let (addrs, control) = if node == 0 {
        let rdv = match bootstrap {
            Bootstrap::Addr(a) => TcpListener::bind(a)
                .map_err(|e| stage_err(format_args!("binding rendezvous listener at {a}"), e))?,
            Bootstrap::File(path) => {
                let l = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| stage_err("binding rendezvous listener", e))?;
                publish_addr(path, &l.local_addr()?).map_err(|e| {
                    stage_err(format_args!("publishing bootstrap file {}", path.display()), e)
                })?;
                l
            }
            Bootstrap::Shm(_) => unreachable!("rejected at entry"),
        };
        let result = coordinate_registration(&rdv, nodes, data_addr, deadline);
        if let Bootstrap::File(path) = bootstrap {
            // Every peer has read the file by now (or the launch failed);
            // either way it must not outlive the rendezvous.
            std::fs::remove_file(path).ok();
        }
        result?
    } else {
        let rdv_addr = match bootstrap {
            Bootstrap::Addr(a) => *a,
            Bootstrap::File(path) => poll_addr(path, deadline).map_err(|e| {
                stage_err(format_args!("polling bootstrap file {}", path.display()), e)
            })?,
            Bootstrap::Shm(_) => unreachable!("rejected at entry"),
        };
        // Node 0 may not be listening yet; retry with backoff until the
        // deadline.
        let mut s = dial_with_retry(rdv_addr, deadline)
            .map_err(|e| stage_err("dialing node 0's rendezvous listener", e))?;
        s.set_nodelay(true).ok();
        // Registration: the hello, then our data-listener address.
        write_hello(&mut s, node, nodes)
            .and_then(|()| write_addr(&mut s, &data_addr))
            .and_then(|()| s.flush())
            .map_err(|e| stage_err("registering with node 0", e))?;
        s.set_read_timeout(Some(handshake_timeout()))?;
        let addrs: Vec<SocketAddr> = (0..nodes)
            .map(|_| read_addr(&mut s))
            .collect::<io::Result<_>>()
            .map_err(|e| stage_err("reading the address map from node 0", e))?;
        s.set_read_timeout(None)?;
        (addrs, Control(Barrier::Streams(vec![(0, s)])))
    };

    let stats = Arc::new(TrafficStats::new(nodes));
    let transport = join_mesh(node, &addrs, &data_listener, deadline, stats)?;
    Ok((transport, control))
}

/// Rendezvous phase 2 (and the loopback mesh): node `node` of
/// `addrs.len()` dials every higher-numbered peer's data listener and
/// accepts the lower-numbered ones on `listener` — each pair gets exactly
/// one bidirectional stream, and dialing cannot deadlock against
/// accepting (connects complete via the kernel backlog). Then starts the
/// node's transport: its reader thread reads clones of the streams the
/// send path writes.
fn join_mesh(
    node: NodeId,
    addrs: &[SocketAddr],
    listener: &TcpListener,
    deadline: Instant,
    stats: Arc<TrafficStats>,
) -> io::Result<TcpTransport> {
    let nodes = addrs.len();
    let mut streams: Vec<Option<TcpStream>> = (0..nodes).map(|_| None).collect();
    for dst in node + 1..nodes {
        let mut s = dial_with_retry(addrs[dst], deadline)
            .map_err(|e| stage_err(format_args!("dialing node {dst}'s data listener"), e))?;
        s.set_nodelay(true).ok();
        write_hello(&mut s, node, nodes)
            .map_err(|e| stage_err(format_args!("greeting node {dst}"), e))?;
        streams[dst] = Some(s);
    }
    for accepted in 0..node {
        let (src, stream) = accept_peer(listener, nodes, deadline).map_err(|e| {
            stage_err(format_args!("accepting data connections (have {accepted} of {node})"), e)
        })?;
        streams[src] = Some(stream);
    }
    let mut inbound = Vec::with_capacity(nodes - 1);
    for (peer, s) in streams.iter().enumerate() {
        if let Some(s) = s {
            inbound.push((peer, s.try_clone()?));
        }
    }
    let link = TcpLink { streams: streams.into_iter().map(Mutex::new).collect() };
    let bell = Arc::new(crate::Doorbell::new());
    FramedTransport::new(
        node,
        nodes,
        stats,
        link,
        bell,
        format!("gmt-tcp-rx-{node}"),
        move |core| reader_loop(&core, inbound),
    )
}

/// Node 0's half of rendezvous phase 1: accept every peer's
/// registration, then broadcast the complete address map. Split out so
/// the caller can clean up the bootstrap file on success *and* failure.
fn coordinate_registration(
    rdv: &TcpListener,
    nodes: usize,
    data_addr: SocketAddr,
    deadline: Instant,
) -> io::Result<(Vec<SocketAddr>, Control)> {
    let mut addrs: Vec<Option<SocketAddr>> = vec![None; nodes];
    addrs[0] = Some(data_addr);
    let mut regs: Vec<(NodeId, TcpStream)> = Vec::with_capacity(nodes - 1);
    for have in 0..nodes - 1 {
        let missing = || {
            let waiting: Vec<NodeId> =
                (1..nodes).filter(|n| !regs.iter().any(|(id, _)| id == n)).collect();
            format_args!(
                "waiting for registrations (have {have} of {}; missing {waiting:?})",
                nodes - 1
            )
            .to_string()
        };
        let mut s = accept_with_deadline(rdv, deadline).map_err(|e| stage_err(missing(), e))?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(handshake_timeout()))?;
        let peer = read_hello(&mut s, nodes).map_err(|e| stage_err(missing(), e))?;
        let addr = read_addr(&mut s)
            .map_err(|e| stage_err(format_args!("reading node {peer}'s data address"), e))?;
        if addrs[peer].replace(addr).is_some() {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("node {peer} registered twice"),
            ));
        }
        regs.push((peer, s));
    }
    let addrs: Vec<SocketAddr> = addrs.into_iter().map(|a| a.expect("all slots filled")).collect();
    // Broadcast the map over the registration connections — which then
    // stay open as the control channel, labeled by peer id.
    for (peer, s) in regs.iter_mut() {
        let broadcast = |e| stage_err(format_args!("broadcasting address map to node {peer}"), e);
        for a in &addrs {
            write_addr(s, a).map_err(broadcast)?;
        }
        s.flush().map_err(broadcast)?;
    }
    Ok((addrs, Control(Barrier::Streams(regs))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Payload, Transport};

    #[test]
    fn bootstrap_parses_both_forms() {
        match Bootstrap::parse("file:/tmp/x") {
            Ok(Bootstrap::File(p)) => assert_eq!(p, PathBuf::from("/tmp/x")),
            other => panic!("unexpected: {other:?}"),
        }
        match Bootstrap::parse("127.0.0.1:9000") {
            Ok(Bootstrap::Addr(a)) => assert_eq!(a.port(), 9000),
            other => panic!("unexpected: {other:?}"),
        }
        match Bootstrap::parse("shm:/dev/shm/x.seg") {
            Ok(Bootstrap::Shm(p)) => assert_eq!(p, PathBuf::from("/dev/shm/x.seg")),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(Bootstrap::parse("file:").is_err());
        assert!(Bootstrap::parse("shm:").is_err());
        assert!(Bootstrap::parse("not-an-addr").is_err());
    }

    #[test]
    fn rendezvous_rejects_an_shm_bootstrap() {
        match rendezvous(0, 2, &Bootstrap::Shm(PathBuf::from("/tmp/x.seg"))) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidInput),
            Ok(_) => panic!("shm bootstrap must not rendezvous over TCP"),
        }
    }

    #[test]
    fn rendezvous_builds_a_mesh_across_threads() {
        let nodes = 3;
        let dir = std::env::temp_dir().join(format!("gmt-rdv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let file = dir.join("bootstrap");
        std::fs::remove_file(&file).ok();
        let boot = Bootstrap::File(file.clone());
        let handles: Vec<_> = (0..nodes)
            .map(|node| {
                let boot = boot.clone();
                std::thread::spawn(move || {
                    let (t, mut control) = rendezvous(node, nodes, &boot).expect("rendezvous");
                    // Everyone sends to everyone (including itself).
                    for dst in 0..nodes {
                        t.send(dst, node as Tag, Payload::from(vec![node as u8; 8])).expect("send");
                    }
                    // ... and receives one frame from everyone.
                    let mut seen = vec![false; nodes];
                    for _ in 0..nodes {
                        let p = t.recv_timeout(Duration::from_secs(30)).expect("frame");
                        assert_eq!(p.payload.as_slice(), &[p.src as u8; 8][..]);
                        assert!(!seen[p.src], "duplicate from {}", p.src);
                        seen[p.src] = true;
                    }
                    if node == 0 {
                        control.signal_done();
                    }
                    control.wait_done_timeout(Duration::from_secs(30)).expect("done barrier");
                    Transport::shutdown(&t);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("node thread");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
