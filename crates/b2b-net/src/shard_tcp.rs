//! Multiplexed TCP transport for the sharded multi-group runtime: **one
//! socket pair per organisation endpoint carries every group**.
//!
//! Rather than one OS thread per peer per direction and one syscall per
//! frame, the sharded runtime ([`crate::shard`]) crosses process and host
//! boundaries with a *readiness-driven* design — nonblocking sockets
//! driven by a single reactor thread per endpoint:
//!
//! * **Multiplexing** — every frame header names its
//!   [`crate::shard::GroupId`] ([`crate::reliable::frame_group`]), so one
//!   connection per peer endpoint carries the traffic of every group;
//!   the receiving reactor demuxes by group id straight into the shard
//!   map.
//! * **Framing** — every message is `[u32 LE length][payload]`, capped at
//!   [`MAX_FRAME_LEN`]; the first frame on every connection is a *hello*
//!   carrying the sender's [`PartyId`], so connections are identified
//!   without trusting socket addresses (all integrity lives in the signed
//!   protocol layer anyway).
//! * **Write coalescing** — per poll round, every queued frame for a
//!   link is appended to one write buffer and handed to the socket in as few
//!   `write(2)` calls as it will take; the
//!   [`names::MUX_FRAMES_SENT`]`/`[`names::MUX_WRITE_SYSCALLS`] ratio is
//!   the observed batching factor.
//! * **End-to-end FIFO backpressure** — the per-slot FIFO outboxes of
//!   the sharded runtime park (never shed, never reorder) when a link's
//!   bounded frame queue fills; inbound, a frame that finds its shard
//!   inbox full halts reads on that connection until it fits, so the
//!   TCP receive window pushes back on the sender. Pipelined rounds
//!   need per-link FIFO, and the reactor preserves it at every stage.
//! * **The reactor** — a hand-rolled `poll(2)` loop (raw syscall on
//!   Linux, a report-all-ready sleep elsewhere — the build is offline,
//!   no mio/tokio), one wake socket pair for cross-thread nudges, lazy
//!   connections with deterministic exponential backoff
//!   (`base · 2^(n-1)`, capped) that resets only once a data frame
//!   crosses the new connection: a peer that accepts and immediately
//!   resets keeps counting as a failure, so it cannot drive a tight
//!   connect/write loop.
//!
//! Loss model: while a link is connected (or still on its first connect
//! attempt) frames queue losslessly; once a connect attempt *fails* the
//! queued frames are dropped — a connection reset is a temporary failure
//! the reliable layer's retransmission masks, so a dead peer never
//! wedges a healthy group's rounds.

use crate::node::{NetNode, Payload};
use crate::reliable::frame_group;
use crate::shard::{
    ExternalInjector, ExternalRoute, GroupHandle, GroupId, RouteOffer, ShardedNet,
    DEFAULT_SHARD_INBOX_CAPACITY,
};
use crate::stats::NetStats;
use b2b_crypto::PartyId;
use b2b_telemetry::{names, Telemetry};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on a frame's payload length (16 MiB). A peer announcing a
/// larger frame is treated as malformed traffic and the connection is
/// dropped.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

// ---------------------------------------------------------------------------
// poll(2) without libc
// ---------------------------------------------------------------------------

/// `struct pollfd`, as the kernel ABI defines it. Shared with the HTTP
/// plumbing in [`crate::httpd`], which waits on listener readiness with
/// the same primitive.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

pub(crate) const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

impl PollFd {
    pub(crate) fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }
}

/// Raw `poll(2)` on x86-64 Linux (syscall 7). The build is offline —
/// no libc crate — so the reactor makes the syscall itself.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> isize {
    let ret: isize;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 7isize => ret,
            in("rdi") fds.as_mut_ptr(),
            in("rsi") fds.len(),
            in("rdx") timeout_ms as isize,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Raw `ppoll` on aarch64 Linux (syscall 73; aarch64 has no plain
/// `poll`).
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
pub(crate) fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> isize {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    let ts = Timespec {
        tv_sec: i64::from(timeout_ms.max(0)) / 1000,
        tv_nsec: (i64::from(timeout_ms.max(0)) % 1000) * 1_000_000,
    };
    let ret: isize;
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 73isize,
            inlateout("x0") fds.as_mut_ptr() as isize => ret,
            in("x1") fds.len(),
            in("x2") &ts as *const Timespec,
            in("x3") 0isize,
            in("x4") 0isize,
            options(nostack),
        );
    }
    ret
}

/// Portable fallback: a short sleep, then report every registered
/// interest as ready. Every socket the reactor owns is nonblocking, so
/// spurious readiness costs a `WouldBlock` syscall, never a stall.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> isize {
    std::thread::sleep(Duration::from_millis(timeout_ms.clamp(0, 1) as u64));
    for f in fds.iter_mut() {
        f.revents = f.events;
    }
    fds.len() as isize
}

// ---------------------------------------------------------------------------
// Incremental frame decoding
// ---------------------------------------------------------------------------

/// Incremental decoder of the `[u32 LE length][payload]` stream,
/// resilient to arbitrary read-chunk boundaries: bytes accumulate until
/// a whole frame is available. A length prefix above [`MAX_FRAME_LEN`]
/// is unrecoverable (the stream cannot be resynchronised) and surfaces
/// as an error; a *parseable* frame with garbage inside is the caller's
/// problem — the stream itself stays in sync.
pub(crate) struct StreamDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl StreamDecoder {
    pub(crate) fn new() -> StreamDecoder {
        StreamDecoder {
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Appends freshly read bytes, compacting the consumed prefix.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame — copied once, out of the read buffer
    /// into the shared allocation the engine receives — `Ok(None)` if more
    /// bytes are needed, `Err` if the length prefix is malformed
    /// (oversized).
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Payload>> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME_LEN",
            ));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        let frame = Payload::from(&self.buf[start..start + len]);
        self.pos += 4 + len;
        Ok(Some(frame))
    }
}

/// Appends one `[u32 LE len][payload]` record to a write buffer.
fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Write-coalescing budget: queued frames are appended to a link's write
/// buffer until it holds at least this many bytes, then written in as few
/// syscalls as possible.
const COALESCE_BYTES: usize = 256 * 1024;

/// Delay before the second connect attempt to a peer; doubles on every
/// further consecutive failure.
const RECONNECT_BASE: Duration = Duration::from_millis(10);

/// Ceiling of the reconnect backoff.
const RECONNECT_MAX: Duration = Duration::from_secs(1);

/// Per-attempt connect timeout (the reactor connects inline, so this
/// bounds how long one dead peer can stall the loop).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Tunables of a [`ShardedTcpEndpoint`].
#[derive(Clone)]
pub struct ShardedTcpConfig {
    /// Worker shards per endpoint (0 = one per available CPU).
    pub shards: usize,
    /// Per-shard inbox bound (see
    /// [`crate::shard::DEFAULT_SHARD_INBOX_CAPACITY`]).
    pub inbox_capacity: usize,
    /// Frames queued per peer link before senders see backpressure
    /// (their outboxes park, FIFO intact).
    pub link_capacity: usize,
    /// Telemetry handle for the `mux_*` counters.
    pub telemetry: Telemetry,
}

impl ShardedTcpConfig {
    /// Defaults: auto shards, 16Ki shard inboxes, 4096-frame links, no
    /// telemetry sink.
    pub fn new() -> ShardedTcpConfig {
        ShardedTcpConfig {
            shards: 0,
            inbox_capacity: DEFAULT_SHARD_INBOX_CAPACITY,
            link_capacity: 4096,
            telemetry: Telemetry::default(),
        }
    }

    /// Overrides the worker-pool size.
    pub fn shards(mut self, shards: usize) -> ShardedTcpConfig {
        self.shards = shards;
        self
    }

    /// Overrides the per-shard inbox bound.
    pub fn inbox_capacity(mut self, capacity: usize) -> ShardedTcpConfig {
        self.inbox_capacity = capacity;
        self
    }

    /// Overrides the per-link frame-queue bound.
    pub fn link_capacity(mut self, capacity: usize) -> ShardedTcpConfig {
        assert!(capacity > 0, "link capacity must be positive");
        self.link_capacity = capacity;
        self
    }

    /// Attaches a telemetry handle.
    pub fn telemetry(mut self, telemetry: Telemetry) -> ShardedTcpConfig {
        self.telemetry = telemetry;
        self
    }
}

impl Default for ShardedTcpConfig {
    fn default() -> Self {
        ShardedTcpConfig::new()
    }
}

// ---------------------------------------------------------------------------
// Shared state between senders (shard workers) and the reactor
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MuxCounters {
    connects: AtomicU64,
    reconnects: AtomicU64,
    bytes_sent: AtomicU64,
    dropped: AtomicU64,
    io_errors: AtomicU64,
}

struct MuxShared {
    /// Peer → link index; frozen at spawn.
    peers: HashMap<PartyId, usize>,
    /// Per-link FIFO of frames awaiting the reactor.
    queues: Vec<Mutex<VecDeque<Payload>>>,
    /// Per-link kill requests (test hook).
    kills: Vec<AtomicBool>,
    link_capacity: usize,
    /// Writer half of the wake socket pair; one byte nudges the
    /// reactor out of `poll`.
    wake_tx: UnixStream,
    stop: AtomicBool,
    counters: MuxCounters,
}

impl MuxShared {
    fn wake(&self) {
        // Nonblocking: a full wake pipe means the reactor is already
        // behind on wakeups, which is wake enough.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// The [`ExternalRoute`] a [`ShardedNet`] sends through: bounded
/// per-link FIFO queues drained by the reactor.
struct MuxRoute {
    shared: Arc<MuxShared>,
}

impl ExternalRoute for MuxRoute {
    fn try_send(&self, _gid: GroupId, to: &PartyId, frame: &Payload) -> RouteOffer {
        let Some(&idx) = self.shared.peers.get(to) else {
            return RouteOffer::Unroutable;
        };
        let mut q = self.shared.queues[idx].lock();
        if q.len() >= self.shared.link_capacity {
            return RouteOffer::Full;
        }
        let was_empty = q.is_empty();
        q.push_back(frame.clone());
        drop(q);
        if was_empty {
            self.shared.wake();
        }
        RouteOffer::Sent
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

/// One outbound link: this endpoint's connection *to* a peer (reads of
/// the peer's traffic arrive on the connection the peer opened to us).
struct OutLink {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Coalesced `[len][frame]` records not yet written.
    wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf`.
    wpos: usize,
    /// Frames currently represented in `wbuf` (for loss accounting when
    /// a connection dies with the buffer non-empty).
    wbuf_frames: u64,
    /// Whether a data write has succeeded on the current connection —
    /// only then does the backoff reset (proven healthy).
    proven: bool,
    failures: u32,
    next_attempt_at: Option<Instant>,
    ever_connected: bool,
}

/// One accepted inbound connection.
struct InConn {
    stream: TcpStream,
    decoder: StreamDecoder,
    /// Learned from the hello frame.
    peer: Option<PartyId>,
    /// A decoded frame whose shard inbox was full; retried before any
    /// further read from this connection (per-link FIFO).
    pending: Option<(u64, Payload)>,
    dead: bool,
}

/// Locally accumulated telemetry, flushed to the registry every
/// [`FLUSH_EVERY_ROUNDS`] poll rounds.
#[derive(Default)]
struct LocalTel {
    poll_rounds: u64,
    frames_sent: u64,
    bytes_sent: u64,
    write_syscalls: u64,
    read_stalls: u64,
    bad_frames: u64,
}

const FLUSH_EVERY_ROUNDS: u64 = 64;
/// Read chunk size per `read(2)`.
const READ_CHUNK: usize = 64 * 1024;
/// Max read chunks per connection per poll round (fairness).
const READ_BURST: usize = 16;

struct Reactor {
    me: PartyId,
    cfg: ShardedTcpConfig,
    shared: Arc<MuxShared>,
    listener: TcpListener,
    wake_rx: UnixStream,
    inject: ExternalInjector,
    out: Vec<OutLink>,
    inbound: Vec<InConn>,
    tel: LocalTel,
}

impl Reactor {
    fn run(mut self) {
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            self.tel.poll_rounds += 1;
            self.apply_kills();
            self.retry_pending();
            self.connect_phase();
            self.write_phase();
            self.poll_phase();
            if self.tel.poll_rounds.is_multiple_of(FLUSH_EVERY_ROUNDS) {
                self.flush_tel();
            }
        }
        self.flush_tel();
        for link in &mut self.out {
            if let Some(s) = link.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        for conn in &self.inbound {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    fn flush_tel(&mut self) {
        let t = &self.cfg.telemetry;
        let l = std::mem::take(&mut self.tel);
        if l.poll_rounds > 0 {
            t.add(names::MUX_POLL_ROUNDS, l.poll_rounds);
        }
        if l.frames_sent > 0 {
            t.add(names::MUX_FRAMES_SENT, l.frames_sent);
        }
        if l.bytes_sent > 0 {
            t.add(names::MUX_BYTES_SENT, l.bytes_sent);
        }
        if l.write_syscalls > 0 {
            t.add(names::MUX_WRITE_SYSCALLS, l.write_syscalls);
        }
        if l.read_stalls > 0 {
            t.add(names::MUX_READ_STALLS, l.read_stalls);
        }
        if l.bad_frames > 0 {
            t.add(names::MUX_BAD_FRAMES, l.bad_frames);
        }
    }

    /// Test hook: drop the current connection to a peer; queued frames
    /// stay queued and ride the reconnect.
    fn apply_kills(&mut self) {
        for i in 0..self.out.len() {
            if self.shared.kills[i].swap(false, Ordering::SeqCst) {
                self.drop_conn(i, false);
            }
        }
    }

    /// Drops link `i`'s connection; `failed` arms the backoff (I/O
    /// error) vs. a silent local drop (kill hook). Frames already
    /// coalesced into the write buffer are lost either way (the peer
    /// would see a torn tail) and counted dropped.
    fn drop_conn(&mut self, i: usize, failed: bool) {
        let link = &mut self.out[i];
        if let Some(s) = link.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if link.wbuf_frames > 0 {
            self.shared
                .counters
                .dropped
                .fetch_add(link.wbuf_frames, Ordering::Relaxed);
        }
        link.wbuf.clear();
        link.wpos = 0;
        link.wbuf_frames = 0;
        link.proven = false;
        if failed {
            self.shared
                .counters
                .io_errors
                .fetch_add(1, Ordering::Relaxed);
            link.failures = link.failures.saturating_add(1);
            let delay = backoff_delay(RECONNECT_BASE, RECONNECT_MAX, link.failures);
            link.next_attempt_at = Some(Instant::now() + delay);
            // A failed link sheds its queue: retransmission recovers,
            // and a dead peer must not wedge the sender's outboxes.
            let shed = {
                let mut q = self.shared.queues[i].lock();
                let n = q.len() as u64;
                q.clear();
                n
            };
            if shed > 0 {
                self.shared
                    .counters
                    .dropped
                    .fetch_add(shed, Ordering::Relaxed);
            }
        }
    }

    /// Re-offers frames whose shard inbox was full when they arrived, then
    /// the frames decoded behind them: those are already out of the socket,
    /// so no further read would release them.
    fn retry_pending(&mut self) {
        for idx in 0..self.inbound.len() {
            let conn = &mut self.inbound[idx];
            let Some((gid, frame)) = conn.pending.take() else {
                continue;
            };
            let from = conn.peer.clone().expect("pending implies hello");
            if (self.inject)(gid, from, frame.clone()) {
                self.deliver_decoded(idx);
            } else {
                self.inbound[idx].pending = Some((gid, frame));
            }
        }
    }

    /// Opens connections for links with queued traffic whose backoff
    /// window allows an attempt.
    fn connect_phase(&mut self) {
        for i in 0..self.out.len() {
            let needs = {
                let link = &self.out[i];
                link.stream.is_none() && !self.shared.queues[i].lock().is_empty()
            };
            if !needs {
                continue;
            }
            let now = Instant::now();
            if let Some(at) = self.out[i].next_attempt_at {
                if now < at {
                    continue;
                }
            }
            let link = &mut self.out[i];
            match TcpStream::connect_timeout(&link.addr, CONNECT_TIMEOUT).and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            }) {
                Ok(s) => {
                    link.stream = Some(s);
                    link.proven = false;
                    self.shared
                        .counters
                        .connects
                        .fetch_add(1, Ordering::Relaxed);
                    self.cfg.telemetry.inc(names::MUX_CONNECTS);
                    if link.ever_connected {
                        self.shared
                            .counters
                            .reconnects
                            .fetch_add(1, Ordering::Relaxed);
                        self.cfg.telemetry.inc(names::MUX_RECONNECTS);
                    }
                    link.ever_connected = true;
                    // The hello leads every connection; it does not
                    // count as a data frame for loss accounting.
                    push_frame(&mut link.wbuf, self.me.as_str().as_bytes());
                }
                Err(_) => {
                    self.drop_conn(i, true);
                }
            }
        }
    }

    /// Coalesces queued frames into each connected link's write buffer
    /// and writes until the socket would block.
    fn write_phase(&mut self) {
        for i in 0..self.out.len() {
            if self.out[i].stream.is_none() {
                continue;
            }
            loop {
                // Fill: append queued frames up to the coalescing budget.
                {
                    let link = &mut self.out[i];
                    if link.wbuf.len() - link.wpos < COALESCE_BYTES {
                        let mut q = self.shared.queues[i].lock();
                        while link.wbuf.len() - link.wpos < COALESCE_BYTES {
                            let Some(frame) = q.pop_front() else { break };
                            push_frame(&mut link.wbuf, &frame);
                            link.wbuf_frames += 1;
                            self.tel.frames_sent += 1;
                            self.tel.bytes_sent += frame.len() as u64;
                            self.shared
                                .counters
                                .bytes_sent
                                .fetch_add(frame.len() as u64, Ordering::Relaxed);
                        }
                    }
                    if link.wpos == link.wbuf.len() {
                        link.wbuf.clear();
                        link.wpos = 0;
                        link.wbuf_frames = 0;
                        break;
                    }
                }
                // Write: one syscall per iteration, stop on WouldBlock.
                let link = &mut self.out[i];
                let stream = link.stream.as_mut().expect("checked above");
                match stream.write(&link.wbuf[link.wpos..]) {
                    Ok(0) => {
                        self.drop_conn(i, true);
                        break;
                    }
                    Ok(n) => {
                        self.tel.write_syscalls += 1;
                        link.wpos += n;
                        if !link.proven {
                            // Proven healthy: data crossed the new
                            // connection, so backoff returns to base.
                            link.proven = true;
                            link.failures = 0;
                            link.next_attempt_at = None;
                        }
                        if link.wpos == link.wbuf.len() {
                            link.wbuf.clear();
                            link.wpos = 0;
                            link.wbuf_frames = 0;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.drop_conn(i, true);
                        break;
                    }
                }
            }
        }
    }

    /// Builds the pollfd set, waits for readiness, then services the
    /// wake pipe, the listener and every readable connection.
    fn poll_phase(&mut self) {
        let mut fds = Vec::with_capacity(2 + self.out.len() + self.inbound.len());
        fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        let in_base = fds.len();
        for conn in &self.inbound {
            // A connection holding a pending frame stops reading: the
            // socket buffer, then the peer's send window, backs up.
            let events = if conn.pending.is_some() { 0 } else { POLLIN };
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        }
        let out_base = fds.len();
        for link in &self.out {
            if let Some(s) = &link.stream {
                let mut events = POLLIN; // EOF/RST detection
                if link.wpos < link.wbuf.len() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(s.as_raw_fd(), events));
            } else {
                fds.push(PollFd::new(-1, 0)); // ignored by poll(2)
            }
        }
        let timeout = self.poll_timeout();
        let rc = sys_poll(&mut fds, timeout);
        if rc <= 0 {
            return; // timeout, EINTR or error: just run another round
        }
        if fds[0].readable() {
            let mut sink = [0u8; 256];
            while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        // Accept may grow `inbound`; only the pre-accept prefix has a
        // pollfd this round — newcomers are polled next round.
        let polled_inbound = self.inbound.len();
        if fds[1].readable() {
            self.accept_new();
        }
        for idx in 0..polled_inbound {
            if fds[in_base + idx].readable() {
                self.read_inbound(idx);
            }
        }
        self.inbound.retain(|c| !c.dead);
        for i in 0..self.out.len() {
            let pfd = fds[out_base + i];
            if self.out[i].stream.is_some() && (pfd.readable() || pfd.revents & POLLHUP != 0) {
                self.check_outbound(i);
            }
            let _ = pfd.writable(); // write retried at the top of the loop
        }
    }

    /// Next poll timeout: short when a reconnect or a pending inbound
    /// retry is due, long when idle.
    fn poll_timeout(&self) -> i32 {
        let mut timeout: i32 = 50;
        if self.inbound.iter().any(|c| c.pending.is_some()) {
            timeout = timeout.min(1);
        }
        let now = Instant::now();
        for (i, link) in self.out.iter().enumerate() {
            if link.stream.is_none() && !self.shared.queues[i].lock().is_empty() {
                let due = link
                    .next_attempt_at
                    .map(|at| at.saturating_duration_since(now).as_millis() as i32)
                    .unwrap_or(0);
                timeout = timeout.min(due.max(0));
            }
        }
        timeout
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.inbound.push(InConn {
                        stream,
                        decoder: StreamDecoder::new(),
                        peer: None,
                        pending: None,
                        dead: false,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Reads from one inbound connection and delivers decoded frames
    /// into the shard map, stopping (without losing anything) when a
    /// shard inbox pushes back.
    fn read_inbound(&mut self, idx: usize) {
        let mut chunk = vec![0u8; READ_CHUNK];
        for _ in 0..READ_BURST {
            let conn = &mut self.inbound[idx];
            if conn.pending.is_some() || conn.dead {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.extend(&chunk[..n]);
                    self.deliver_decoded(idx);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Drains complete frames out of a connection's decoder: the first
    /// is the hello, the rest are protocol frames, each naming its group.
    fn deliver_decoded(&mut self, idx: usize) {
        loop {
            let conn = &mut self.inbound[idx];
            let frame = match conn.decoder.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    // Malformed length prefix: the stream cannot be
                    // resynchronised; drop the connection (the peer
                    // reconnects; retransmission recovers).
                    self.shared
                        .counters
                        .io_errors
                        .fetch_add(1, Ordering::Relaxed);
                    conn.dead = true;
                    break;
                }
            };
            let Some(peer) = conn.peer.clone() else {
                match std::str::from_utf8(&frame) {
                    Ok(name) => conn.peer = Some(PartyId::new(name)),
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
                continue;
            };
            // Torn/garbage inner frame: count it, drop it, carry on —
            // the length prefix kept the stream in sync.
            let Some(gid) = frame_group(&frame) else {
                self.tel.bad_frames += 1;
                continue;
            };
            if !(self.inject)(gid, peer, frame.clone()) {
                self.tel.read_stalls += 1;
                conn.pending = Some((gid, frame));
                break;
            }
        }
    }

    /// Detects a closed/reset outbound connection early (the peer's
    /// acceptor never writes, so any read result other than
    /// `WouldBlock` means the connection is gone).
    fn check_outbound(&mut self, i: usize) {
        let Some(stream) = self.out[i].stream.as_mut() else {
            return;
        };
        let mut sink = [0u8; 64];
        match stream.read(&mut sink) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Ok(n) if n > 0 => {} // unexpected data; ignore
            _ => self.drop_conn(i, true),
        }
    }
}

/// Deterministic backoff after `failures` consecutive failures: `0` for
/// the first attempt, then `base · 2^(failures-1)` capped at `max`.
fn backoff_delay(base: Duration, max: Duration, failures: u32) -> Duration {
    if failures == 0 {
        return Duration::ZERO;
    }
    let shift = failures - 1;
    let delay = if shift >= 32 {
        max
    } else {
        base.saturating_mul(1u32 << shift)
    };
    delay.min(max)
}

/// Connected Unix-domain socket pair (`socketpair(2)`) for waking the
/// reactor: one byte written to the first end makes the second readable.
fn wake_pair() -> io::Result<(UnixStream, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

// ---------------------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------------------

/// One organisation's multiplexed TCP presence: a [`ShardedNet`] holding
/// this party's slot in every group it participates in, bridged to the
/// other organisations through one reactor, one listener and one
/// outbound connection per peer — however many groups they share.
pub struct ShardedTcpEndpoint<N: NetNode> {
    net: ShardedNet<N>,
    shared: Arc<MuxShared>,
    reactor_thread: Option<JoinHandle<()>>,
    started_list: Vec<(GroupId, PartyId)>,
    started: bool,
    local_addr: SocketAddr,
}

impl<N: NetNode> ShardedTcpEndpoint<N> {
    /// Builds the endpoint for the party owning `nodes` (one engine per
    /// group, all with the same [`NetNode::id`]), listening on
    /// `listener` and connecting out to `peers`. Engines do **not**
    /// run `on_start` until [`ShardedTcpEndpoint::start`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, mixes party ids, or repeats a group.
    pub fn spawn_with_listener(
        nodes: Vec<(GroupId, N)>,
        listener: TcpListener,
        peers: Vec<(PartyId, SocketAddr)>,
        config: ShardedTcpConfig,
    ) -> io::Result<ShardedTcpEndpoint<N>> {
        assert!(!nodes.is_empty(), "an endpoint needs at least one slot");
        let me = nodes[0].1.id();
        for (_, node) in &nodes {
            assert_eq!(node.id(), me, "one endpoint carries one party");
        }
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let mut builder = ShardedNet::builder()
            .inbox_capacity(config.inbox_capacity)
            .telemetry(config.telemetry.clone());
        if config.shards > 0 {
            builder = builder.shards(config.shards);
        }
        for (gid, node) in nodes {
            builder = builder.add_group(gid, vec![node]);
        }
        let (net, started_list) = builder.spawn_without_start()?;

        let mut peer_index = HashMap::new();
        let mut out = Vec::new();
        for (peer, addr) in peers {
            if peer == me || peer_index.contains_key(&peer) {
                continue;
            }
            peer_index.insert(peer.clone(), out.len());
            out.push(OutLink {
                addr,
                stream: None,
                wbuf: Vec::new(),
                wpos: 0,
                wbuf_frames: 0,
                proven: false,
                failures: 0,
                next_attempt_at: None,
                ever_connected: false,
            });
        }
        let (wake_tx, wake_rx) = wake_pair()?;
        let shared = Arc::new(MuxShared {
            queues: (0..out.len())
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            kills: (0..out.len()).map(|_| AtomicBool::new(false)).collect(),
            peers: peer_index,
            link_capacity: config.link_capacity,
            wake_tx,
            stop: AtomicBool::new(false),
            counters: MuxCounters::default(),
        });
        net.set_external_route(Arc::new(MuxRoute {
            shared: Arc::clone(&shared),
        }));
        let reactor = Reactor {
            me: me.clone(),
            cfg: config,
            shared: Arc::clone(&shared),
            listener,
            wake_rx,
            inject: net.injector(me.clone()),
            out,
            inbound: Vec::new(),
            tel: LocalTel::default(),
        };
        let reactor_thread = std::thread::Builder::new()
            .name(format!("b2b-mux-{me}"))
            .spawn(move || reactor.run())?;
        Ok(ShardedTcpEndpoint {
            net,
            shared,
            reactor_thread: Some(reactor_thread),
            started_list,
            started: false,
            local_addr,
        })
    }

    /// Runs every engine's `on_start` (registration order). Idempotent;
    /// call once every peer endpoint is listening.
    pub fn start(&mut self) {
        if !self.started {
            self.started = true;
            self.net.start_all(&self.started_list);
        }
    }

    /// The handle for `party` in `gid` on this endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the pair is unknown here.
    pub fn handle(&self, gid: GroupId, party: &PartyId) -> GroupHandle<N> {
        self.net.handle(gid, party)
    }

    /// The address the endpoint accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Crashes this endpoint's slot of `party` in `gid` (see
    /// [`ShardedNet::crash`]).
    pub fn crash(&self, gid: GroupId, party: &PartyId) {
        self.net.crash(gid, party);
    }

    /// Recovers this endpoint's slot of `party` in `gid` (see
    /// [`ShardedNet::recover`]).
    pub fn recover(&self, gid: GroupId, party: &PartyId) {
        self.net.recover(gid, party);
    }

    /// Drops the outbound connection to `peer` (test hook). Queued
    /// frames survive and ride the reconnect; whatever was already
    /// coalesced for the socket is lost and re-covered by
    /// retransmission.
    pub fn kill_connection(&self, peer: &PartyId) {
        if let Some(&idx) = self.shared.peers.get(peer) {
            self.shared.kills[idx].store(true, Ordering::SeqCst);
            self.shared.wake();
        }
    }

    /// Traffic statistics so far: the sharded core's counters plus the
    /// socket-level ones.
    pub fn stats(&self) -> NetStats {
        let mut s = self.net.stats();
        let c = &self.shared.counters;
        s.dropped += c.dropped.load(Ordering::Relaxed);
        s.bytes_sent = c.bytes_sent.load(Ordering::Relaxed);
        s.connects = c.connects.load(Ordering::Relaxed);
        s.reconnects = c.reconnects.load(Ordering::Relaxed);
        s.io_errors = c.io_errors.load(Ordering::Relaxed);
        s
    }

    /// Stops the engines, then the reactor, and joins both.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }
}

impl<N: NetNode> Drop for ShardedTcpEndpoint<N> {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Loopback cluster
// ---------------------------------------------------------------------------

/// A single-process cluster of [`ShardedTcpEndpoint`]s on `127.0.0.1`:
/// one endpoint per distinct party, each carrying that party's slot of
/// every group, all traffic over real multiplexed sockets — for tests and
/// experiments; place each endpoint in its own OS process with
/// [`ShardedTcpEndpoint::spawn_with_listener`].
pub struct ShardedTcpNet<N: NetNode> {
    endpoints: HashMap<PartyId, ShardedTcpEndpoint<N>>,
}

impl<N: NetNode> ShardedTcpNet<N> {
    /// Splits `groups` by party, binds one ephemeral loopback listener
    /// per party, wires every endpoint to every other and runs each
    /// engine's `on_start`.
    ///
    /// # Panics
    ///
    /// Panics if a group repeats a party id.
    pub fn spawn_loopback(groups: Vec<(GroupId, Vec<N>)>) -> io::Result<ShardedTcpNet<N>> {
        ShardedTcpNet::spawn_loopback_with(groups, ShardedTcpConfig::default())
    }

    /// [`ShardedTcpNet::spawn_loopback`] with explicit configuration.
    pub fn spawn_loopback_with(
        groups: Vec<(GroupId, Vec<N>)>,
        config: ShardedTcpConfig,
    ) -> io::Result<ShardedTcpNet<N>> {
        // Partition slots by party, preserving group registration order.
        let mut order: Vec<PartyId> = Vec::new();
        let mut per_party: HashMap<PartyId, Vec<(GroupId, N)>> = HashMap::new();
        for (gid, nodes) in groups {
            let mut seen: Vec<PartyId> = Vec::new();
            for node in nodes {
                let id = node.id();
                assert!(!seen.contains(&id), "duplicate node id {id} in {gid}");
                seen.push(id.clone());
                if !per_party.contains_key(&id) {
                    order.push(id.clone());
                }
                per_party.entry(id).or_default().push((gid, node));
            }
        }
        // Bind all listeners first so every endpoint knows every address.
        let mut listeners = HashMap::new();
        let mut peers = Vec::new();
        for party in &order {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            peers.push((party.clone(), listener.local_addr()?));
            listeners.insert(party.clone(), listener);
        }
        let mut endpoints = HashMap::new();
        for party in order {
            let listener = listeners.remove(&party).expect("bound above");
            let nodes = per_party.remove(&party).expect("partitioned above");
            let ep = ShardedTcpEndpoint::spawn_with_listener(
                nodes,
                listener,
                peers.clone(),
                config.clone(),
            )?;
            endpoints.insert(party, ep);
        }
        for ep in endpoints.values_mut() {
            ep.start();
        }
        Ok(ShardedTcpNet { endpoints })
    }

    /// Returns the endpoint of `party`.
    ///
    /// # Panics
    ///
    /// Panics if `party` is unknown.
    pub fn endpoint(&self, party: &PartyId) -> &ShardedTcpEndpoint<N> {
        self.endpoints
            .get(party)
            .unwrap_or_else(|| panic!("unknown party {party}"))
    }

    /// Returns the handle for `party` in `gid`.
    ///
    /// # Panics
    ///
    /// Panics if the pair is unknown.
    pub fn handle(&self, gid: GroupId, party: &PartyId) -> GroupHandle<N> {
        self.endpoint(party).handle(gid, party)
    }

    /// Crashes `party`'s slot in `gid` (mirrors [`ShardedNet::crash`]).
    pub fn crash(&self, gid: GroupId, party: &PartyId) {
        self.endpoint(party).crash(gid, party);
    }

    /// Recovers `party`'s slot in `gid` (mirrors
    /// [`ShardedNet::recover`]).
    pub fn recover(&self, gid: GroupId, party: &PartyId) {
        self.endpoint(party).recover(gid, party);
    }

    /// Drops both directions of the `a`↔`b` socket pair (test hook) —
    /// and with it, mid-flight frames of *every* group they share.
    pub fn kill_connection(&self, a: &PartyId, b: &PartyId) {
        self.endpoint(a).kill_connection(b);
        self.endpoint(b).kill_connection(a);
    }

    /// Traffic statistics summed over every endpoint.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for ep in self.endpoints.values() {
            let s = ep.stats();
            total.sent += s.sent;
            total.delivered += s.delivered;
            total.dropped += s.dropped;
            total.bytes_sent += s.bytes_sent;
            total.connects += s.connects;
            total.reconnects += s.reconnects;
            total.io_errors += s.io_errors;
        }
        total
    }

    /// Stops every endpoint.
    pub fn shutdown(mut self) {
        for (_, ep) in self.endpoints.drain() {
            ep.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeCtx;
    use crate::poll::wait_for;
    use crate::reliable::{data_body, data_frame};
    use b2b_crypto::TimeMs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct PingPong {
        id: PartyId,
        pings_received: u32,
        pongs_received: u32,
        timer_fired: bool,
    }

    impl PingPong {
        fn new(id: &str) -> PingPong {
            PingPong {
                id: PartyId::new(id),
                pings_received: 0,
                pongs_received: 0,
                timer_fired: false,
            }
        }
    }

    /// A raw test payload in a frame header naming the context's group:
    /// the receiving socket demultiplexes on it.
    fn framed(ctx: &NodeCtx, body: &[u8]) -> Vec<u8> {
        data_frame(ctx.group(), 0, 0, body)
    }

    impl NetNode for PingPong {
        fn id(&self) -> PartyId {
            self.id.clone()
        }
        fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
            match data_body(payload) {
                Some(b"ping") => {
                    self.pings_received += 1;
                    let pong = framed(ctx, b"pong");
                    ctx.send(from.clone(), pong);
                }
                Some(b"pong") => self.pongs_received += 1,
                _ => {}
            }
        }
        fn on_timer(&mut self, _timer: u64, _ctx: &mut NodeCtx) {
            self.timer_fired = true;
        }
    }

    fn pair() -> Vec<PingPong> {
        vec![PingPong::new("a"), PingPong::new("b")]
    }

    #[test]
    fn groups_share_one_socket_pair_and_stay_isolated() {
        let net = ShardedTcpNet::spawn_loopback(vec![
            (GroupId(0), pair()),
            (GroupId(1), pair()),
            (GroupId(2), pair()),
        ])
        .unwrap();
        for g in 0..3 {
            net.handle(GroupId(g), &PartyId::new("a"))
                .invoke(|_n, ctx| ctx.send(PartyId::new("b"), framed(ctx, b"ping")));
        }
        for g in 0..3 {
            let a = net.handle(GroupId(g), &PartyId::new("a"));
            assert!(
                a.wait_until(Duration::from_secs(10), |n| n.pongs_received == 1),
                "group {g} roundtrip"
            );
            assert_eq!(
                net.handle(GroupId(g), &PartyId::new("b"))
                    .read(|n| n.pings_received),
                1,
                "group {g} got exactly its own ping"
            );
        }
        let stats = net.stats();
        // One socket pair carried all three groups: exactly one outbound
        // connection per endpoint, not one per group.
        assert_eq!(stats.connects, 2, "one connection per direction, total");
        assert!(stats.bytes_sent > 0);
        assert_eq!(stats.dropped, 0, "healthy links are lossless");
        net.shutdown();
    }

    #[test]
    fn timers_fire_on_the_sharded_tcp_runtime() {
        let net = ShardedTcpNet::spawn_loopback(vec![(GroupId(0), pair())]).unwrap();
        let a = net.handle(GroupId(0), &PartyId::new("a"));
        a.invoke(|_n, ctx| ctx.set_timer(1, TimeMs(20)));
        assert!(a.wait_until(Duration::from_secs(5), |n| n.timer_fired));
        net.shutdown();
    }

    struct Recorder {
        id: PartyId,
        received: Vec<u32>,
    }

    impl NetNode for Recorder {
        fn id(&self) -> PartyId {
            self.id.clone()
        }
        fn on_message(&mut self, _from: &PartyId, payload: &[u8], _ctx: &mut NodeCtx) {
            let body = data_body(payload).expect("framed");
            self.received
                .push(u32::from_le_bytes(body[..4].try_into().unwrap()));
        }
    }

    fn recorder_pair() -> Vec<Recorder> {
        vec![
            Recorder {
                id: PartyId::new("a"),
                received: Vec::new(),
            },
            Recorder {
                id: PartyId::new("b"),
                received: Vec::new(),
            },
        ]
    }

    #[test]
    fn backpressure_across_the_socket_preserves_fifo_losslessly() {
        // Tiny link queue and shard inboxes: every stage of the path
        // (outbox → link queue → socket → shard inbox) must park rather
        // than shed or reorder.
        let cfg = ShardedTcpConfig::new()
            .shards(1)
            .link_capacity(4)
            .inbox_capacity(4);
        let net =
            ShardedTcpNet::spawn_loopback_with(vec![(GroupId(0), recorder_pair())], cfg).unwrap();
        let a = net.handle(GroupId(0), &PartyId::new("a"));
        a.invoke(|_n, ctx| {
            for i in 0..500u32 {
                let frame = framed(ctx, &i.to_le_bytes());
                ctx.send(PartyId::new("b"), frame);
            }
        });
        let b = net.handle(GroupId(0), &PartyId::new("b"));
        assert!(
            b.wait_until(Duration::from_secs(30), |n| n.received.len() == 500),
            "all 500 frames arrive"
        );
        assert!(
            b.read(|n| n.received.iter().enumerate().all(|(i, &v)| v == i as u32)),
            "frames were reordered under backpressure"
        );
        assert_eq!(
            net.stats().dropped,
            0,
            "frames were shed under backpressure"
        );
        net.shutdown();
    }

    #[test]
    fn killed_connection_recovers_and_later_frames_flow() {
        let net = ShardedTcpNet::spawn_loopback(vec![(GroupId(0), pair())]).unwrap();
        let a_id = PartyId::new("a");
        let b_id = PartyId::new("b");
        let a = net.handle(GroupId(0), &a_id);
        a.invoke(|_n, ctx| ctx.send(b_id.clone(), framed(ctx, b"ping")));
        assert!(a.wait_until(Duration::from_secs(10), |n| n.pongs_received == 1));
        net.kill_connection(&a_id, &b_id);
        let b = net.handle(GroupId(0), &b_id);
        assert!(wait_for(Duration::from_secs(10), || {
            let b_id = b_id.clone();
            a.invoke(move |_n, ctx| ctx.send(b_id, framed(ctx, b"ping")));
            b.read(|n| n.pings_received >= 2)
        }));
        assert!(net.stats().reconnects >= 1);
        net.shutdown();
    }

    // -- decoder & torn-frame handling -------------------------------------

    #[test]
    fn decoder_reassembles_frames_across_arbitrary_chunk_boundaries() {
        let frames: Vec<Vec<u8>> = vec![vec![1], vec![2; 300], Vec::new(), vec![3; 7]];
        let mut wire = Vec::new();
        for f in &frames {
            push_frame(&mut wire, f);
        }
        // Every split point of the byte stream must yield the same frames.
        for cut in 0..=wire.len() {
            let mut dec = StreamDecoder::new();
            dec.extend(&wire[..cut]);
            let mut got = Vec::new();
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
            dec.extend(&wire[cut..]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
            assert_eq!(got, frames, "split at {cut}");
        }
    }

    #[test]
    fn decoder_rejects_oversized_length_prefix() {
        let mut dec = StreamDecoder::new();
        dec.extend(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        dec.extend(&[0u8; 32]);
        assert!(dec.next_frame().is_err());
    }

    /// A stream interleaving valid frames with torn (shorter than the
    /// `tag | group` prefix) and garbage frames, fed to the decoder in
    /// random chunks, must yield every frame intact and in order — the
    /// bad ones identifiable (no group can be read) without ever
    /// desyncing the stream.
    #[test]
    fn torn_and_garbage_frames_never_desync_the_stream() {
        let mut rng = StdRng::seed_from_u64(0xB2B);
        for case in 0..50 {
            // Build a stream of mixed frames.
            let mut expected: Vec<(bool, Vec<u8>)> = Vec::new(); // (parses, bytes)
            let mut wire = Vec::new();
            for i in 0..40u32 {
                let frame: Vec<u8> = match rng.gen_range(0..4u32) {
                    // A valid frame.
                    0 | 1 => {
                        let body: Vec<u8> = (0..rng.gen_range(0..200u32))
                            .map(|_| rng.gen_range(0..=255u32) as u8)
                            .collect();
                        data_frame(u64::from(i), 1, u64::from(i), &body)
                    }
                    // Torn: shorter than the 9-byte `tag | group` prefix.
                    2 => (0..rng.gen_range(0..9u32))
                        .map(|_| rng.gen_range(0..=255u32) as u8)
                        .collect(),
                    // Garbage that happens to be long enough: it may read
                    // as *some* group id — the shard map rejects unknown
                    // groups and the engine malformed frames downstream;
                    // the stream layer stays in sync either way.
                    _ => (0..rng.gen_range(9..64u32))
                        .map(|_| rng.gen_range(0..=255u32) as u8)
                        .collect(),
                };
                let parses = frame_group(&frame).is_some();
                push_frame(&mut wire, &frame);
                expected.push((parses, frame));
            }
            // Feed it in random chunks.
            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            let mut torn_count = 0usize;
            let mut pos = 0;
            while pos < wire.len() {
                let n = rng.gen_range(1..=64.min(wire.len() - pos));
                dec.extend(&wire[pos..pos + n]);
                pos += n;
                while let Some(f) = dec.next_frame().unwrap() {
                    if frame_group(&f).is_none() {
                        torn_count += 1; // dropped + counted, stream continues
                    }
                    got.push(f.to_vec());
                }
            }
            let want_torn = expected.iter().filter(|(p, _)| !p).count();
            assert_eq!(torn_count, want_torn, "case {case}: torn frames counted");
            assert_eq!(
                got,
                expected.into_iter().map(|(_, f)| f).collect::<Vec<_>>(),
                "case {case}: every frame survives in order"
            );
        }
    }

    #[test]
    fn torn_frames_on_a_live_socket_are_counted_and_skipped() {
        // Drive a raw client against a live endpoint: hello, then a torn
        // frame (shorter than the `tag | group` prefix), then a valid ping.
        // The ping must still arrive — the torn frame cost nothing but a
        // counter.
        let telemetry = Telemetry::new();
        let cfg = ShardedTcpConfig::new().telemetry(telemetry.clone());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = ShardedTcpEndpoint::spawn_with_listener(
            vec![(GroupId(0), PingPong::new("b"))],
            listener,
            Vec::new(),
            cfg,
        )
        .unwrap();
        let mut client = TcpStream::connect(ep.local_addr()).unwrap();
        let mut wire = Vec::new();
        push_frame(&mut wire, b"a"); // hello
        push_frame(&mut wire, &[0xFF; 3]); // torn: no group to read
        push_frame(&mut wire, &data_frame(0, 1, 0, b"ping"));
        client.write_all(&wire).unwrap();
        let b = ep.handle(GroupId(0), &PartyId::new("b"));
        assert!(
            b.wait_until(Duration::from_secs(10), |n| n.pings_received == 1),
            "the valid frame after the torn one still arrives"
        );
        assert!(wait_for(Duration::from_secs(5), || {
            telemetry
                .metrics()
                .snapshot()
                .counter(names::MUX_BAD_FRAMES)
                == 1
        }));
        ep.shutdown();
    }

    #[test]
    fn write_coalescing_batches_frames_per_syscall() {
        let telemetry = Telemetry::new();
        let cfg = ShardedTcpConfig::new()
            .shards(1)
            .telemetry(telemetry.clone());
        let net =
            ShardedTcpNet::spawn_loopback_with(vec![(GroupId(0), recorder_pair())], cfg).unwrap();
        let a = net.handle(GroupId(0), &PartyId::new("a"));
        // One invoke queues a burst; the reactor should move it in far
        // fewer syscalls than frames.
        a.invoke(|_n, ctx| {
            for i in 0..400u32 {
                let frame = framed(ctx, &i.to_le_bytes());
                ctx.send(PartyId::new("b"), frame);
            }
        });
        let b = net.handle(GroupId(0), &PartyId::new("b"));
        assert!(b.wait_until(Duration::from_secs(10), |n| n.received.len() == 400));
        net.shutdown(); // flushes reactor-local telemetry
        let snap = telemetry.metrics().snapshot();
        let frames = snap.counter(names::MUX_FRAMES_SENT);
        let syscalls = snap.counter(names::MUX_WRITE_SYSCALLS);
        assert!(frames >= 400);
        assert!(
            syscalls * 2 <= frames,
            "coalescing must average >=2 frames/write, got {frames} frames in {syscalls} writes"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let (base, max) = (Duration::from_millis(10), Duration::from_millis(160));
        let got = [0, 1, 2, 3, 5, 40].map(|f| backoff_delay(base, max, f).as_millis());
        assert_eq!(got, [0, 10, 20, 40, 160, 160]);
    }

    fn loopback() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").unwrap()
    }

    /// A bare reactor with one outbound link to `addr`, for driving the
    /// reconnect state machine directly.
    fn test_reactor(addr: SocketAddr) -> Reactor {
        let (wake_tx, wake_rx) = wake_pair().unwrap();
        Reactor {
            me: PartyId::new("a"),
            cfg: ShardedTcpConfig::new(),
            shared: Arc::new(MuxShared {
                peers: HashMap::from([(PartyId::new("b"), 0)]),
                queues: vec![Mutex::new(VecDeque::new())],
                kills: vec![AtomicBool::new(false)],
                link_capacity: 16,
                wake_tx,
                stop: AtomicBool::new(false),
                counters: MuxCounters::default(),
            }),
            listener: loopback(),
            wake_rx,
            inject: Arc::new(|_, _, _| true),
            out: vec![OutLink {
                addr,
                stream: None,
                wbuf: Vec::new(),
                wpos: 0,
                wbuf_frames: 0,
                proven: false,
                failures: 0,
                next_attempt_at: None,
                ever_connected: false,
            }],
            inbound: Vec::new(),
            tel: LocalTel::default(),
        }
    }

    /// Queues one frame on the link and runs a connect + write round.
    fn offer(r: &mut Reactor, frame: &[u8]) {
        r.shared.queues[0].lock().push_back(frame.to_vec().into());
        r.connect_phase();
        r.write_phase();
    }

    fn read_frame(s: &mut TcpStream) -> Vec<u8> {
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut frame = vec![0; u32::from_le_bytes(len) as usize];
        s.read_exact(&mut frame).unwrap();
        frame
    }

    /// Backoff builds in an outage, resets only once a data frame crosses
    /// the new connection, and a second outage starts again from base.
    #[test]
    fn backoff_resets_after_a_healthy_reconnect_two_outages() {
        // Outage 1: reserve a port, then free it so connects are refused.
        let addr = loopback().local_addr().unwrap();
        let mut r = test_reactor(addr);
        for expected in 1..=3 {
            r.out[0].next_attempt_at = None; // collapse the wait, keep the count
            offer(&mut r, b"x");
            assert_eq!(r.out[0].failures, expected, "each refused connect counts");
        }
        assert!(r.out[0].next_attempt_at.is_some(), "backoff armed");
        assert_eq!(r.shared.counters.io_errors.load(Ordering::Relaxed), 3);

        // The peer comes back on the same port.
        let listener = TcpListener::bind(addr).expect("rebind freed port");
        r.out[0].next_attempt_at = None;
        offer(&mut r, b"data");
        assert_eq!(r.out[0].failures, 0, "a proven link resets");
        assert!(r.out[0].next_attempt_at.is_none());
        let (mut s, _) = listener.accept().unwrap();
        let got = [read_frame(&mut s), read_frame(&mut s)];
        assert_eq!(got, [b"a".to_vec(), b"data".to_vec()], "hello, then data");

        // Outage 2: the peer goes away again; backoff starts from base.
        drop((s, listener));
        r.drop_conn(0, false);
        offer(&mut r, b"y");
        assert_eq!(r.out[0].failures, 1, "restarts from base");
        let armed = r.out[0].next_attempt_at.expect("armed");
        assert!(armed <= Instant::now() + RECONNECT_BASE);
    }

    /// A stream dying mid-write arms the backoff, so an accept-then-reset
    /// peer cannot drive a tight connect/write loop.
    #[test]
    fn mid_write_stream_death_arms_backoff() {
        let listener = loopback();
        let mut r = test_reactor(listener.local_addr().unwrap());
        offer(&mut r, b"first");
        assert_eq!(r.out[0].failures, 0, "healthy write");
        let (s, _) = listener.accept().unwrap();
        // The peer goes away. Its RST needs a moment to surface: the first
        // write after it may still land in the local socket buffer.
        drop((s, listener));
        let deadline = Instant::now() + Duration::from_secs(10);
        while r.out[0].failures == 0 && Instant::now() < deadline {
            offer(&mut r, b"x");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(r.out[0].failures > 0, "a dying stream arms the backoff");
        assert!(r.out[0].next_attempt_at.is_some());
        assert!(r.out[0].stream.is_none(), "the dead stream is dropped");
        assert!(r.shared.counters.io_errors.load(Ordering::Relaxed) >= 1);
    }

    /// Frames decoded behind one that found the shard inbox full are
    /// delivered once it drains, though the peer sends nothing more.
    #[test]
    fn frames_decoded_behind_a_refused_one_follow_it_in() {
        let mut r = test_reactor(loopback().local_addr().unwrap());
        let accepted = Arc::new(Mutex::new(Vec::new()));
        let refuse_next = Arc::new(AtomicBool::new(true));
        let (log, refuse) = (Arc::clone(&accepted), Arc::clone(&refuse_next));
        r.inject = Arc::new(move |gid, _from, _frame| {
            if refuse.swap(false, Ordering::SeqCst) {
                return false;
            }
            log.lock().push(gid);
            true
        });
        let listener = loopback();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut wire = Vec::new();
        push_frame(&mut wire, b"b"); // hello
        for gid in 1..=3u64 {
            push_frame(&mut wire, &data_frame(gid, 1, gid, b"x"));
        }
        let mut decoder = StreamDecoder::new();
        decoder.extend(&wire);
        r.inbound.push(InConn {
            stream,
            decoder,
            peer: None,
            pending: None,
            dead: false,
        });
        r.deliver_decoded(0);
        assert!(r.inbound[0].pending.is_some(), "the first frame waits");
        assert!(accepted.lock().is_empty());
        r.retry_pending();
        assert_eq!(
            *accepted.lock(),
            vec![1, 2, 3],
            "in order, none left behind"
        );
        assert!(r.inbound[0].pending.is_none());
    }

    #[test]
    fn send_to_unknown_peer_is_dropped_not_fatal() {
        let net = ShardedTcpNet::spawn_loopback(vec![(GroupId(0), pair())]).unwrap();
        let a = net.handle(GroupId(0), &PartyId::new("a"));
        a.invoke(|_n, ctx| ctx.send(PartyId::new("nobody"), framed(ctx, b"ping")));
        assert_eq!(net.stats().dropped, 1);
        a.invoke(|_n, ctx| ctx.send(PartyId::new("b"), framed(ctx, b"ping")));
        assert!(a.wait_until(Duration::from_secs(10), |n| n.pongs_received == 1));
        net.shutdown();
    }
}
