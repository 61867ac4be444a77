//! The one ingress both tiers run: the code that accepts and reads client
//! connections, for `jem serve` ([`crate::server`]) and `jem route`
//! ([`crate::router`]) alike.
//!
//! * **accept thread** — owns the listener and only accepts. Each
//!   connection gets its own handler thread, bounded by `max_conns`: past
//!   the cap the connection is answered [`Response::Busy`] and closed, so
//!   a flood never pins unbounded threads or sockets. A connection counts
//!   against the cap for its whole life, including while it waits on
//!   answers.
//! * **connection loop** (one per live connection) — every connection is
//!   kept alive until the peer closes it. Between frames it waits under
//!   the idle deadline, which runs from the connection's last frame in or
//!   answer out: a peer that stays quiet that long is reaped
//!   (`<tier>.reaped_idle`) unless it is owed answers, in which case
//!   silence means it is waiting on us. Mid-frame, the I/O timeout
//!   applies, and a stall is reaped the same way. A malformed frame is
//!   answered `Error` and ends the connection
//!   (`<tier>.protocol_errors`): the stream can no longer be trusted to be
//!   in step.
//! * **two requests answered alike** — `Ping` is answered inline;
//!   `Shutdown` is acknowledged, stops the accept loop and ends the
//!   connection. Every other request goes to the tier's handler with a
//!   [`Reply`].
//! * **response sequencer** — the frames carry no correlation id, so a
//!   pipelining peer matches answers to requests by position. Every
//!   request takes an arrival sequence number; whichever thread answers it
//!   (the connection loop, a queue worker, a reload thread, a gather, a
//!   panic guard) hands the answer to the connection's writer, which holds
//!   answers that finish early and writes strictly in request order. The
//!   read gate bounds that buffer: the loop stops reading while the
//!   unwritten window reaches the tier's in-flight cap plus 16, waiting on
//!   the writer for at most the I/O timeout (`<tier>.write_stalled` counts
//!   the give-ups).
//!
//! A tier differs only in data — its deadlines, caps and counter names,
//! [`IngressConfig`] — and in its handler. The loop never asks which tier
//! runs it.

use crate::protocol::{accept, read_frame, write_frame, Envelope, Request, Response};
use crate::ServeError;
use jem_obs::{MetricsRecorder, Recorder};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The counters an ingress keeps, each under its tier's prefix.
pub(crate) struct Counters {
    /// Connections accepted.
    pub connections: &'static str,
    /// Connections answered `Busy` past `max_conns`.
    pub conn_rejected: &'static str,
    /// Connections reaped idle or stalled mid-frame.
    pub reaped_idle: &'static str,
    /// Malformed frames.
    pub protocol_errors: &'static str,
    /// Answers that could not be written.
    pub write_errors: &'static str,
    /// Connections closed because the peer stopped reading answers.
    pub write_stalled: &'static str,
    /// Remote shutdowns received.
    pub shutdown_requests: &'static str,
}

/// [`Counters`] named `<tier>.connections`, `<tier>.conn_rejected`, and
/// so on.
macro_rules! ingress_counters {
    ($tier:literal) => {
        $crate::ingress::Counters {
            connections: concat!($tier, ".connections"),
            conn_rejected: concat!($tier, ".conn_rejected"),
            reaped_idle: concat!($tier, ".reaped_idle"),
            protocol_errors: concat!($tier, ".protocol_errors"),
            write_errors: concat!($tier, ".write_errors"),
            write_stalled: concat!($tier, ".write_stalled"),
            shutdown_requests: concat!($tier, ".shutdown_requests"),
        }
    };
}
pub(crate) use ingress_counters;

/// What one tier's ingress runs with.
pub(crate) struct IngressConfig {
    /// Socket timeout while a frame is in flight, and the read gate's
    /// patience.
    pub io_timeout: Duration,
    /// How long a connection owed nothing may go without a frame in or an
    /// answer out.
    pub idle_timeout: Duration,
    /// Max simultaneous live connections.
    pub max_conns: usize,
    /// The tier's in-flight cap, which sets the reorder bound.
    pub max_inflight: usize,
    /// The tier's counter names.
    pub counters: Counters,
}

/// One tier's ingress: its configuration, its recorder, and the state
/// the accept loop and the connection loops share.
pub(crate) struct Ingress {
    config: IngressConfig,
    recorder: Arc<MetricsRecorder>,
    /// The bound address: [`Ingress::stop`] self-connects to wake the
    /// accept loop out of its blocking accept.
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Live connections, bounded by `max_conns`.
    live_conns: AtomicUsize,
}

impl Ingress {
    /// An ingress for `listener`, not yet accepting.
    pub(crate) fn new(
        listener: &TcpListener,
        config: IngressConfig,
        recorder: Arc<MetricsRecorder>,
    ) -> std::io::Result<Arc<Ingress>> {
        Ok(Arc::new(Ingress {
            addr: listener.local_addr()?,
            config,
            recorder,
            shutdown: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
        }))
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// End the accept loop: set the flag, then wake the blocking accept.
    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Accept connections until [`Ingress::stop`], serving each on its
    /// own thread; `handler` answers every request but `Ping` and
    /// `Shutdown`, given its envelope, when it arrived, and its reply.
    pub(crate) fn accept_loop<H>(self: &Arc<Self>, listener: TcpListener, handler: H)
    where
        H: Fn(Envelope, Request, Instant, Reply) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let counters = &self.config.counters;
        loop {
            let accepted = accept(&listener);
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let Ok(mut conn) = accepted else { continue };
            self.recorder.add(counters.connections, 1);
            let prev = self.live_conns.fetch_add(1, Ordering::AcqRel);
            if prev >= self.config.max_conns {
                self.live_conns.fetch_sub(1, Ordering::AcqRel);
                self.recorder.add(counters.conn_rejected, 1);
                let _ = conn.set_write_timeout(Some(self.config.io_timeout));
                let _ = write_frame(&mut conn, &Response::Busy.encode());
                continue;
            }
            let ingress = Arc::clone(self);
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| ingress.serve(conn, &*handler)));
                ingress.live_conns.fetch_sub(1, Ordering::AcqRel);
            });
        }
    }

    /// The connection loop: read frames while they arrive, answer `Ping`
    /// and `Shutdown`, hand every other request to `handler`, until the
    /// peer closes, idles, stalls or sends a malformed frame.
    fn serve<H>(&self, mut reader: TcpStream, handler: &H)
    where
        H: Fn(Envelope, Request, Instant, Reply),
    {
        let config = &self.config;
        let counters = &config.counters;
        if reader.set_write_timeout(Some(config.io_timeout)).is_err() {
            return;
        }
        // Reads happen on `reader`; answers go through the shared writer
        // (the same socket), which restores request order.
        let writer = match reader.try_clone() {
            Ok(stream) => Arc::new(ConnWriter {
                state: Mutex::new(WriteState {
                    stream,
                    next: 0,
                    pending: BTreeMap::new(),
                    last_write: Instant::now(),
                }),
                flushed: Condvar::new(),
                recorder: Arc::clone(&self.recorder),
                write_errors: counters.write_errors,
            }),
            Err(_) => return,
        };
        // Answers owed on this connection: what keeps the reaper away.
        let inflight = Arc::new(AtomicUsize::new(0));
        let mut seq: u64 = 0;
        // Read gate: cap the writer's reorder buffer. Mapping requests are
        // already capped by the tier's in-flight cap; the slack covers
        // inline answers (pings, rejections) buffered behind a slow one.
        let reorder_bound = config.max_inflight as u64 + 16;
        loop {
            if !writer.wait_for_room(seq, reorder_bound, config.io_timeout) {
                self.recorder.add(counters.write_stalled, 1);
                return;
            }
            // Idle phase: wait for the next frame's first byte until the
            // connection has gone the idle timeout since its last answer
            // (every frame is answered, so also since its last frame). A
            // connection owed answers is quiet because it waits on us.
            let quiet = writer.lock().last_write.elapsed();
            let wait = match config.idle_timeout.checked_sub(quiet) {
                Some(left) if !left.is_zero() => left,
                _ if inflight.load(Ordering::Acquire) > 0 => config.idle_timeout,
                _ => {
                    self.recorder.add(counters.reaped_idle, 1);
                    return;
                }
            };
            if reader.set_read_timeout(Some(wait)).is_err() {
                return;
            }
            match reader.peek(&mut [0u8; 1]) {
                Ok(0) => return, // peer closed
                Ok(_) => {}
                Err(e) if is_timeout(&e) => continue,
                Err(_) => return,
            }
            // Frame phase: bytes are flowing, so hold the peer to the I/O
            // timeout; a stall mid-frame is reaped like idleness.
            if reader.set_read_timeout(Some(config.io_timeout)).is_err() {
                return;
            }
            let received = Instant::now();
            let decoded = read_frame(&mut reader).and_then(|body| Request::decode(&body));
            let (envelope, request) = match decoded {
                Ok(pair) => pair,
                Err(ServeError::Io(e)) if is_timeout(&e) => {
                    self.recorder.add(counters.reaped_idle, 1);
                    return;
                }
                Err(e) => {
                    self.recorder.add(counters.protocol_errors, 1);
                    writer.send(seq, &Response::Error(e.to_string()));
                    return;
                }
            };
            inflight.fetch_add(1, Ordering::AcqRel);
            let reply = Reply {
                writer: Arc::clone(&writer),
                seq,
                inflight: Arc::clone(&inflight),
            };
            seq += 1;
            match request {
                Request::Ping => reply.send(&Response::Pong),
                Request::Shutdown => {
                    self.recorder.add(counters.shutdown_requests, 1);
                    reply.send(&Response::ShuttingDown);
                    self.stop();
                    return;
                }
                request => handler(envelope, request, received, reply),
            }
        }
    }
}

/// The answer slot of one request: its connection's writer, its arrival
/// sequence, and the connection's count of owed answers, which the
/// request holds until it is answered. Clones share the slot: the first
/// [`Reply::send`] answers, and later ones are dropped.
#[derive(Clone)]
pub(crate) struct Reply {
    writer: Arc<ConnWriter>,
    seq: u64,
    inflight: Arc<AtomicUsize>,
}

impl Reply {
    /// Requests on this connection still owed an answer, besides this
    /// one.
    pub(crate) fn others_in_flight(&self) -> usize {
        self.inflight.load(Ordering::Acquire).saturating_sub(1)
    }

    /// Answer the request with `resp`, in request order. The first answer
    /// releases the request's in-flight slot; a duplicate (a panic guard
    /// racing a normal reply) is dropped and releases nothing. The release
    /// saturates all the same: a wrapped count would keep the connection
    /// from ever being reaped or admitting again.
    pub(crate) fn send(&self, resp: &Response) {
        if self.writer.send(self.seq, resp) {
            let _ = self
                .inflight
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                    Some(v.saturating_sub(1))
                });
        }
    }
}

/// A connection's response path, restoring request order: every answer is
/// tagged with its request's arrival sequence and held until all earlier
/// sequences are on the wire.
struct ConnWriter {
    state: Mutex<WriteState>,
    /// Signaled whenever an answer lands on the wire (the read gate waits
    /// on this for room).
    flushed: Condvar,
    recorder: Arc<MetricsRecorder>,
    write_errors: &'static str,
}

struct WriteState {
    stream: TcpStream,
    /// The next sequence to go on the wire.
    next: u64,
    /// Answers that finished ahead of their turn, encoded, by sequence.
    pending: BTreeMap<u64, Vec<u8>>,
    /// When an answer last went on the wire (the connection's start
    /// before the first).
    last_write: Instant,
}

impl ConnWriter {
    fn lock(&self) -> MutexGuard<'_, WriteState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answer request `seq` with `resp`, writing it now if every earlier
    /// request is answered and buffering it otherwise. Returns `false`,
    /// and drops `resp`, if `seq` was already answered: the peer sees
    /// exactly one frame per request. Tolerates a peer that already hung
    /// up: the write error is counted and the sequence still advances, so
    /// later answers never jam behind a dead socket.
    fn send(&self, seq: u64, resp: &Response) -> bool {
        let mut st = self.lock();
        if seq < st.next || st.pending.contains_key(&seq) {
            return false;
        }
        st.pending.insert(seq, resp.encode());
        let mut wrote = false;
        while let Some(body) = {
            let key = st.next;
            st.pending.remove(&key)
        } {
            if write_frame(&mut st.stream, &body).is_err() {
                self.recorder.add(self.write_errors, 1);
            }
            st.next += 1;
            wrote = true;
        }
        if wrote {
            st.last_write = Instant::now();
            drop(st);
            self.flushed.notify_all();
        }
        true
    }

    /// Block until fewer than `limit` requests are outstanding
    /// (`next_seq` assigned, answers not yet on the wire). Returns `false`
    /// on `timeout`: the connection is wedged and the caller closes it.
    fn wait_for_room(&self, next_seq: u64, limit: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while next_seq.saturating_sub(st.next) >= limit {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .flushed
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        true
    }
}

/// Is this I/O error a read timeout? (Unix reports `WouldBlock`, Windows
/// `TimedOut`, for a socket read that hit `SO_RCVTIMEO` or a non-blocking
/// read with nothing to read.)
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}
