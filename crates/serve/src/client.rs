//! Blocking client for the `jem-serve` protocol: `jem query`, the router's
//! shard fetches and the differential oracle's served checks all send
//! their requests through it.
//!
//! A [`Client`] keeps a few idle keep-alive connections to its server,
//! shared by its clones and closed when the last clone drops. Each
//! exchange takes the newest idle connection that is young enough and
//! passes a non-blocking health peek, else connects fresh, and keeps the
//! connection once answered, so a run of requests rides one socket: one
//! handshake and one `TIME_WAIT` entry, not one per request. An
//! idempotent request (anything but `Shutdown` and `Reload`) is retried at
//! most once, on a fresh connection, after any I/O error or a
//! `ShuttingDown` answer on a reused socket, or after a connection loss on
//! a fresh one; `Shutdown` and `Reload` go once, on a fresh connection.
//!
//! The client writes its identity ([`Client::with_client_id`]) and its
//! deadline ([`Client::with_deadline`]) into every request's [`Envelope`].
//! The identity keys the server's per-client admission quota and
//! fair-queue lane; over quota, the server answers
//! [`ServeError::Throttled`] with a `retry_after` hint that
//! [`RetryPolicy`] retries honor. Anonymous clients share one quota.

use crate::ingress::is_timeout;
use crate::protocol::{
    budget_ms, connect, roundtrip, Envelope, Request, Response, SegmentPartials, ServerInfo,
};
use crate::ServeError;
use jem_core::{Mapping, QuerySegment};
use jem_index::checksum_bytes;
use jem_obs::{MetricsRecorder, Recorder};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Idle connections a client keeps; a surplus one is closed.
const MAX_IDLE: usize = 4;

/// Oldest an idle connection may be when it is taken. It sits below the
/// tiers' default 2 s idle deadline, so a client retires a socket before
/// the server's reaper closes it.
const MAX_IDLE_AGE: Duration = Duration::from_millis(1500);

/// What the router's clients count: an idle connection reused, a fresh
/// one opened, a stale, dead or surplus idle one dropped.
const POOL_HIT: &str = "router.pool_hit";
const POOL_MISS: &str = "router.pool_miss";
const POOL_EVICT: &str = "router.pool_evict";

/// A blocking `jem-serve` client bound to one server address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
    /// Identity and deadline, written into every request.
    envelope: Envelope,
    /// Idle keep-alive connections with when each last answered, newest
    /// last, shared by every clone.
    idle: Arc<Mutex<VecDeque<(TcpStream, Instant)>>>,
    /// Where connection decisions are counted: the router's recorder for
    /// the clients it owns, nowhere otherwise.
    recorder: Option<Arc<MetricsRecorder>>,
}

impl Client {
    /// Client for the server at `addr` (e.g. `"127.0.0.1:7878"`), with a
    /// default 30-second I/O timeout, no request deadline, and no client
    /// identity (requests ride the server's anonymous quota lane).
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
            envelope: Envelope::default(),
            idle: Arc::default(),
            recorder: None,
        }
    }

    /// Same client with a different connect/read/write timeout. Its
    /// connections carry the timeout, so the result starts its own idle
    /// set.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self.idle = Arc::default();
        self
    }

    /// Same client with a per-request deadline budget, measured by the
    /// server from admission: a `Map` request still queued when the budget
    /// runs out is shed with [`ServeError::Expired`] instead of burning a
    /// worker pass on an answer nobody is waiting for. Millisecond
    /// resolution; sub-millisecond budgets round up to 1 ms.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.envelope.deadline_ms = Some(budget_ms(deadline));
        self
    }

    /// Same client carrying a caller-chosen identity (at most
    /// [`MAX_CLIENT_ID`](crate::MAX_CLIENT_ID) bytes) in every request's
    /// envelope, keying the server's per-client admission quota and
    /// fair-queue lane. An empty id clears the identity (anonymous again).
    pub fn with_client_id(mut self, id: impl Into<String>) -> Self {
        self.envelope.client_id = id.into();
        self
    }

    /// Same client counting its connection decisions in `recorder`.
    pub(crate) fn recording_to(mut self, recorder: Arc<MetricsRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request/response exchange under the module's retry rule.
    /// `Shutdown` and `Reload` go once, on a fresh connection that is not
    /// kept: re-sending those could act twice.
    fn exchange(&self, req: &Request) -> Result<Response, ServeError> {
        let body = req.encode(&self.envelope);
        if !is_idempotent(req) {
            return roundtrip(&mut self.open()?, &body);
        }
        if let Some(mut conn) = self.take_idle() {
            match roundtrip(&mut conn, &body) {
                // The server restarted, its reaper beat the age bound, or
                // it is shutting down: ask once more, on a fresh socket.
                Err(ServeError::Io(_)) | Ok(Response::ShuttingDown) => {
                    self.count(POOL_EVICT, 1);
                    return self.exchange_fresh(&body);
                }
                Ok(resp) => {
                    self.put_idle(conn);
                    return Ok(resp);
                }
                Err(e) => return Err(e),
            }
        }
        match self.exchange_fresh(&body) {
            Err(ServeError::Io(ref e)) if is_connection_loss(e) => self.exchange_fresh(&body),
            other => other,
        }
    }

    /// One round trip on a fresh connection, kept afterwards.
    fn exchange_fresh(&self, body: &[u8]) -> Result<Response, ServeError> {
        let mut conn = self.open()?;
        let resp = roundtrip(&mut conn, body)?;
        self.put_idle(conn);
        Ok(resp)
    }

    /// Connect fresh.
    fn open(&self) -> Result<TcpStream, ServeError> {
        self.count(POOL_MISS, 1);
        connect(&self.addr, self.timeout)
    }

    fn count(&self, counter: &'static str, n: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.add(counter, n);
        }
    }

    fn idle_set(&self) -> MutexGuard<'_, VecDeque<(TcpStream, Instant)>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The newest idle connection that is young enough and healthy,
    /// dropping the stale and dead ones found on the way.
    fn take_idle(&self) -> Option<TcpStream> {
        let mut idle = self.idle_set();
        while let Some((stream, since)) = idle.pop_back() {
            if since.elapsed() <= MAX_IDLE_AGE && healthy(&stream) {
                self.count(POOL_HIT, 1);
                return Some(stream);
            }
            self.count(POOL_EVICT, 1);
        }
        None
    }

    /// Keep a connection that just delivered an answer, closing the
    /// oldest idle one if the set is full.
    fn put_idle(&self, stream: TcpStream) {
        let mut idle = self.idle_set();
        idle.push_back((stream, Instant::now()));
        if idle.len() > MAX_IDLE {
            idle.pop_front();
            self.count(POOL_EVICT, 1);
        }
    }

    /// Close every idle connection: the router's answer to a hard shard
    /// failure, so the next fetch or breaker probe cannot reuse a socket
    /// to a failing endpoint.
    pub(crate) fn close_idle(&self) {
        let closed = std::mem::take(&mut *self.idle_set());
        self.count(POOL_EVICT, closed.len() as u64);
    }

    /// How many idle connections the client holds.
    pub(crate) fn idle_conns(&self) -> usize {
        self.idle_set().len()
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), ServeError> {
        match self.exchange(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// The served index's parameters, scheme, and subject names (as of the
    /// server's current reload epoch).
    pub fn info(&self) -> Result<ServerInfo, ServeError> {
        match self.exchange(&Request::Info)? {
            Response::Info(info) => Ok(info),
            other => Err(unexpected("Info", &other)),
        }
    }

    /// Map a batch of segments. A full server queue surfaces as
    /// [`ServeError::Busy`], an expired deadline as
    /// [`ServeError::Expired`] — callers decide their own retry policy (or
    /// use [`Client::map_segments_retry`]).
    pub fn map_segments(&self, segments: &[QuerySegment]) -> Result<Vec<Mapping>, ServeError> {
        let req = Request::Map {
            segments: segments.to_vec(),
        };
        match self.exchange(&req)? {
            Response::Mappings(mappings) => Ok(mappings),
            other => Err(unexpected("Mappings", &other)),
        }
    }

    /// Run `call` with retries on [`ServeError::Busy`] and
    /// [`ServeError::Throttled`] under `policy`. Any other outcome
    /// (success or a different error) returns immediately. A throttled
    /// rejection carries the server's own `retry_after` hint, so the pause
    /// before that retry is at least the hint — sleeping less would just
    /// be rejected again by the same dry token bucket. On exhaustion the
    /// *last* typed rejection surfaces, so a caller over quota sees
    /// `Throttled` (with the hint), not a generic `Busy`.
    fn with_busy_retry<T>(
        &self,
        policy: &RetryPolicy,
        call: impl Fn() -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let attempts = policy.attempts.max(1);
        let mut slept = Duration::ZERO;
        let mut last = ServeError::Busy;
        for attempt in 0..attempts {
            if attempt > 0 {
                let mut pause = policy.pause_before(attempt);
                if let ServeError::Throttled { retry_after } = &last {
                    pause = pause.max(*retry_after);
                }
                if slept + pause > policy.budget {
                    // Budget exhausted: stop retrying rather than sleep
                    // past what the caller was willing to wait.
                    return Err(last);
                }
                slept += pause;
                std::thread::sleep(pause);
            }
            match call() {
                Err(e @ (ServeError::Busy | ServeError::Throttled { .. }))
                    if attempt + 1 < attempts =>
                {
                    last = e;
                }
                other => return other,
            }
        }
        Err(last)
    }

    /// The `_retry` methods' policy, its jitter seeded from the target
    /// address: deterministic for a given server (reproducible runs, no
    /// `SystemTime`), different across servers so co-hosted clients don't
    /// sync up.
    fn busy_policy(&self, attempts: usize, backoff: Duration) -> RetryPolicy {
        RetryPolicy::new(attempts, backoff).with_jitter_seed(checksum_bytes(self.addr.as_bytes()))
    }

    /// [`Client::map_segments`] with bounded retries on
    /// [`ServeError::Busy`] and [`ServeError::Throttled`], under a
    /// [`RetryPolicy`] of `attempts` attempts and backoff base `backoff`
    /// (capped exponential backoff with deterministic jitter and a total
    /// sleep budget). Any other error returns immediately — in particular
    /// [`ServeError::Expired`] is not retried: resending the same deadline
    /// would just be shed again.
    pub fn map_segments_retry(
        &self,
        segments: &[QuerySegment],
        attempts: usize,
        backoff: Duration,
    ) -> Result<Vec<Mapping>, ServeError> {
        self.with_busy_retry(&self.busy_policy(attempts, backoff), || {
            self.map_segments(segments)
        })
    }

    /// Ask a shard server for each segment's colliding subjects with their
    /// trial masks against its owned slot range ([`Request::MapPartial`]) —
    /// the gather half of the router's scatter-gather. Partials from
    /// disjoint shard processes OR into exactly the single-process answer
    /// (see [`SegmentPartials`]).
    pub fn map_segments_partial(
        &self,
        segments: &[QuerySegment],
    ) -> Result<Vec<SegmentPartials>, ServeError> {
        let req = Request::MapPartial {
            segments: segments.to_vec(),
        };
        match self.exchange(&req)? {
            Response::Partials(partials) => Ok(partials),
            other => Err(unexpected("Partials", &other)),
        }
    }

    /// Map a batch through a router front-end, accepting a degraded
    /// answer: returns the mappings plus the registry ids of any shards
    /// missing from the merge (empty = the full, byte-exact answer). A
    /// router with every shard unreachable answers a typed error instead
    /// — a degraded answer always rests on at least one live shard.
    pub fn map_segments_degraded(
        &self,
        segments: &[QuerySegment],
    ) -> Result<(Vec<Mapping>, Vec<u32>), ServeError> {
        let req = Request::MapDegraded {
            segments: segments.to_vec(),
        };
        match self.exchange(&req)? {
            Response::Mappings(mappings) => Ok((mappings, Vec::new())),
            Response::Degraded { mappings, missing } => Ok((mappings, missing)),
            other => Err(unexpected("Mappings or Degraded", &other)),
        }
    }

    /// [`Client::map_segments_degraded`] with bounded retries on
    /// [`ServeError::Busy`], mirroring [`Client::map_segments_retry`].
    pub fn map_segments_degraded_retry(
        &self,
        segments: &[QuerySegment],
        attempts: usize,
        backoff: Duration,
    ) -> Result<(Vec<Mapping>, Vec<u32>), ServeError> {
        self.with_busy_retry(&self.busy_policy(attempts, backoff), || {
            self.map_segments_degraded(segments)
        })
    }

    /// Ask the server to hot-reload its index from `path` (a `jem index`
    /// artifact readable by the *server*). Loading and validation happen
    /// off the worker path; on success the server atomically swaps epochs
    /// and answers with a human-readable summary of the new index. On
    /// failure the old index keeps serving and the error is returned as
    /// [`ServeError::Remote`].
    pub fn reload(&self, path: impl Into<String>) -> Result<String, ServeError> {
        match self.exchange(&Request::Reload { path: path.into() })? {
            Response::Reloaded(summary) => Ok(summary),
            other => Err(unexpected("Reloaded", &other)),
        }
    }

    /// Ask the server to shut down gracefully (drain queued work, flush
    /// metrics, exit). Returns once the server acknowledges.
    pub fn shutdown_server(&self) -> Result<(), ServeError> {
        match self.exchange(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// Retry behaviour for [`Client::map_segments_retry`]: capped
/// exponential backoff with deterministic jitter and a total sleep budget.
///
/// Attempt `i` (1-based, the first retry) sleeps
/// `min(base × 2^(i−1), cap)` plus a jitter drawn deterministically from
/// `jitter_seed` and `i` (splitmix64 — no `SystemTime`, so runs are
/// reproducible), uniform over half the capped backoff. Once cumulative
/// sleep would exceed `budget`, retrying stops and the call fails with
/// [`ServeError::Busy`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1 is enforced at call time).
    pub attempts: usize,
    /// Backoff before the first retry; doubles per retry up to `cap`.
    pub base: Duration,
    /// Upper bound on any single backoff pause.
    pub cap: Duration,
    /// Upper bound on *total* sleep across all retries.
    pub budget: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(5, Duration::from_millis(50))
    }
}

impl RetryPolicy {
    /// A policy with `attempts` attempts and backoff base `base`; the cap
    /// defaults to `16 × base` and the total budget to `64 × base` (the
    /// old linear schedule's worst case for its default parameters).
    pub fn new(attempts: usize, base: Duration) -> Self {
        RetryPolicy {
            attempts,
            base,
            cap: base.saturating_mul(16),
            budget: base.saturating_mul(64),
            jitter_seed: 0x6a65_6d2d_7372_7631, // "jem-srv1"
        }
    }

    /// Same policy with a different jitter seed.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Same policy with a different single-pause cap.
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// The pause before retry `attempt` (1-based): capped exponential plus
    /// deterministic jitter in `[0, capped/2]`. Public because the router's
    /// circuit breaker reuses this exact schedule for its reopen cooldown
    /// (attempt = consecutive opens), keeping one backoff vocabulary — and
    /// one jitter discipline — across the serve tier.
    pub fn pause_before(&self, attempt: usize) -> Duration {
        let doublings = u32::try_from(attempt.saturating_sub(1)).unwrap_or(u32::MAX);
        let exp = match 2u32.checked_pow(doublings.min(16)) {
            Some(mult) => self.base.saturating_mul(mult),
            None => self.cap,
        };
        let capped = exp.min(self.cap);
        let half_ns = capped.as_nanos() as u64 / 2;
        if half_ns == 0 {
            return capped;
        }
        let jitter_ns = splitmix64(self.jitter_seed ^ attempt as u64) % (half_ns + 1);
        capped + Duration::from_nanos(jitter_ns)
    }
}

/// SplitMix64: the same tiny deterministic generator `jem-psim`'s fault
/// plans use — one multiply-xor-shift chain, full 64-bit period.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether re-sending `req` can never make the server act twice. Queries
/// and probes are pure; `Shutdown` and `Reload` mutate server state.
fn is_idempotent(req: &Request) -> bool {
    !matches!(req, Request::Shutdown | Request::Reload { .. })
}

/// Whether `e` is a mid-request connection loss a fresh connection can
/// transparently absorb. `ConnectionRefused` is deliberately *not* here:
/// it means nobody is listening, and an instant identical retry would
/// just fail again (callers have `RetryPolicy` / the router's breaker for
/// that).
fn is_connection_loss(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Is this idle socket still usable? A keep-alive peer between requests
/// has nothing to send, so a non-blocking peek must report "would block":
/// readable data means a desynchronized stream, a zero-byte read means the
/// peer closed, and any other error means the socket is dead.
fn healthy(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let alive = matches!(stream.peek(&mut [0u8; 1]), Err(ref e) if is_timeout(e));
    alive && stream.set_nonblocking(false).is_ok()
}

/// Map an unexpected response onto the matching error.
fn unexpected(wanted: &str, got: &Response) -> ServeError {
    match got {
        Response::Busy => ServeError::Busy,
        Response::Expired => ServeError::Expired,
        Response::ShuttingDown => ServeError::ShuttingDown,
        Response::Throttled { retry_after_ms } => ServeError::Throttled {
            retry_after: Duration::from_millis(*retry_after_ms),
        },
        Response::Error(msg) => ServeError::Remote(msg.clone()),
        other => ServeError::protocol(format!("expected {wanted}, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame};
    use std::net::TcpListener;

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let base = Duration::from_millis(10);
        let policy = RetryPolicy::new(10, base).with_cap(Duration::from_millis(40));
        for attempt in 1..=9 {
            let pause = policy.pause_before(attempt);
            let capped_floor = (base * 2u32.pow(attempt as u32 - 1)).min(policy.cap);
            assert!(pause >= capped_floor, "attempt {attempt}: below floor");
            assert!(
                pause <= capped_floor + capped_floor / 2,
                "attempt {attempt}: jitter exceeds half the capped backoff"
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let policy = RetryPolicy::new(5, Duration::from_millis(10)).with_jitter_seed(7);
        let again = RetryPolicy::new(5, Duration::from_millis(10)).with_jitter_seed(7);
        let other = RetryPolicy::new(5, Duration::from_millis(10)).with_jitter_seed(8);
        for attempt in 1..5 {
            assert_eq!(policy.pause_before(attempt), again.pause_before(attempt));
        }
        assert!(
            (1..5).any(|a| policy.pause_before(a) != other.pause_before(a)),
            "different seeds should jitter differently somewhere"
        );
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let policy = RetryPolicy::new(usize::MAX, Duration::from_millis(10));
        let pause = policy.pause_before(usize::MAX);
        assert!(pause <= policy.cap + policy.cap / 2);
    }

    /// The one timeout the reconnect stubs and their clients share: the
    /// stub's read timeouts derive from what the client under test is
    /// configured with, not from an unrelated magic constant (a client
    /// slower than the stub's patience would see spurious failures).
    const STUB_TIMEOUT: Duration = Duration::from_secs(5);

    /// A stub server whose first connection is half-closed after reading
    /// the request (no reply — the client sees `UnexpectedEof`), and whose
    /// later connections are answered with `reply`.
    fn half_close_then(reply: Response) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            // First connection: swallow the request, close without a reply.
            if let Ok((mut conn, _)) = listener.accept() {
                let _ = conn.set_read_timeout(Some(STUB_TIMEOUT));
                let _ = read_frame(&mut conn);
            }
            // Any later connection gets a real reply (at most two matter).
            for _ in 0..2 {
                let Ok((mut conn, _)) = listener.accept() else {
                    return;
                };
                let _ = conn.set_read_timeout(Some(STUB_TIMEOUT));
                if read_frame(&mut conn).is_ok() {
                    let _ = write_frame(&mut conn, &reply.encode());
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn idempotent_request_reconnects_once_after_half_close() {
        let (addr, server) = half_close_then(Response::Pong);
        let client = Client::new(addr.clone()).with_timeout(STUB_TIMEOUT);
        client
            .ping()
            .expect("one half-close must be absorbed by a transparent reconnect");
        // Close the kept connection and unblock the stub's remaining
        // accept so it can exit.
        drop(client);
        let _ = std::net::TcpStream::connect(&addr);
        server.join().unwrap();
    }

    #[test]
    fn shutdown_is_never_retried_after_half_close() {
        // If the client (incorrectly) re-sent the Shutdown, the stub's
        // second accept would answer ShuttingDown and the call would
        // succeed; the contract is that the io error surfaces instead.
        let (addr, server) = half_close_then(Response::ShuttingDown);
        let client = Client::new(addr.clone()).with_timeout(STUB_TIMEOUT);
        let err = client
            .shutdown_server()
            .expect_err("a half-closed Shutdown must surface, not be re-sent");
        assert!(
            matches!(err, ServeError::Io(_)),
            "expected the raw io error, got: {err}"
        );
        // Unblock the stub's remaining accepts so it can exit.
        let _ = std::net::TcpStream::connect(&addr);
        let _ = std::net::TcpStream::connect(&addr);
        server.join().unwrap();
    }

    #[test]
    fn connection_loss_kinds_are_exactly_the_reconnectable_set() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::ConnectionReset,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(is_connection_loss(&Error::new(kind, "x")), "{kind:?}");
        }
        for kind in [ErrorKind::ConnectionRefused, ErrorKind::TimedOut] {
            assert!(!is_connection_loss(&Error::new(kind, "x")), "{kind:?}");
        }
        assert!(is_idempotent(&Request::Ping));
        assert!(is_idempotent(&Request::Map {
            segments: Vec::new(),
        }));
        assert!(is_idempotent(&Request::MapPartial {
            segments: Vec::new(),
        }));
        assert!(!is_idempotent(&Request::Shutdown));
        assert!(!is_idempotent(&Request::Reload { path: "x".into() }));
    }

    #[test]
    fn throttled_response_maps_to_the_typed_error() {
        let err = unexpected("Mappings", &Response::Throttled { retry_after_ms: 40 });
        match err {
            ServeError::Throttled { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(40));
            }
            other => panic!("expected Throttled, got {other}"),
        }
    }

    /// The request a `ping` from the client `build` makes for the stub's
    /// address puts on the wire, decoded by the stub (which answers
    /// `Pong`).
    fn wire_request(build: impl FnOnce(String) -> Client) -> (Envelope, Request) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = conn.set_read_timeout(Some(STUB_TIMEOUT));
            let decoded = Request::decode(&read_frame(&mut conn).unwrap()).unwrap();
            let _ = write_frame(&mut conn, &Response::Pong.encode());
            decoded
        });
        build(addr).with_timeout(STUB_TIMEOUT).ping().unwrap();
        server.join().unwrap()
    }

    #[test]
    fn the_envelope_carries_the_client_id_and_deadline() {
        let anonymous = wire_request(Client::new);
        assert_eq!(anonymous, (Envelope::default(), Request::Ping));
        let identified = wire_request(|addr| {
            Client::new(addr)
                .with_client_id("triage-7")
                .with_deadline(Duration::from_millis(250))
        });
        let expect = Envelope {
            client_id: "triage-7".into(),
            deadline_ms: Some(250),
        };
        assert_eq!(identified, (expect, Request::Ping));
        // An empty id undoes the identity.
        let no_id = wire_request(|addr| {
            Client::new(addr)
                .with_client_id("triage-7")
                .with_client_id("")
        });
        assert_eq!(no_id, (Envelope::default(), Request::Ping));
    }

    #[test]
    fn retry_honors_the_throttle_hint_and_surfaces_the_typed_error() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let client = Client::new("127.0.0.1:1");
        // The pause before the retry after a Throttled must be at least
        // the hint, even when the policy's own backoff is smaller.
        let policy = RetryPolicy::new(2, Duration::from_millis(1));
        let hint = Duration::from_millis(30);
        let calls = AtomicUsize::new(0);
        let started = Instant::now();
        let out: Result<(), ServeError> = client.with_busy_retry(&policy, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(ServeError::Throttled { retry_after: hint })
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert!(
            started.elapsed() >= hint,
            "the retry must sleep at least the server's hint"
        );
        match out {
            Err(ServeError::Throttled { retry_after }) => assert_eq!(retry_after, hint),
            other => panic!("exhaustion must surface the typed Throttled, got {other:?}"),
        }
        // A hint beyond the sleep budget stops retrying immediately but
        // still reports the throttle, not a generic Busy.
        let stingy = RetryPolicy {
            budget: Duration::from_millis(5),
            ..RetryPolicy::new(3, Duration::from_millis(1))
        };
        let out: Result<(), ServeError> = client.with_busy_retry(&stingy, || {
            Err(ServeError::Throttled {
                retry_after: Duration::from_secs(60),
            })
        });
        assert!(matches!(out, Err(ServeError::Throttled { .. })));
    }

    /// A stub server that accepts `conns` connections and answers `Pong`
    /// to every frame on each until the peer closes. Returns how many
    /// requests each connection served.
    fn pong_stub(conns: usize) -> (String, std::thread::JoinHandle<Vec<usize>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut served = Vec::new();
            for _ in 0..conns {
                let Ok((mut conn, _)) = listener.accept() else {
                    break;
                };
                let _ = conn.set_read_timeout(Some(STUB_TIMEOUT));
                let mut n = 0;
                while read_frame(&mut conn).is_ok() {
                    if write_frame(&mut conn, &Response::Pong.encode()).is_err() {
                        break;
                    }
                    n += 1;
                }
                served.push(n);
            }
            served
        });
        (addr, handle)
    }

    /// A client counting into a fresh recorder, which it returns too.
    fn recording_client(addr: &str) -> (Client, Arc<MetricsRecorder>) {
        let recorder = Arc::new(MetricsRecorder::new());
        let client = Client::new(addr)
            .with_timeout(STUB_TIMEOUT)
            .recording_to(Arc::clone(&recorder));
        (client, recorder)
    }

    #[test]
    fn pooled_exchange_reuses_one_connection() {
        let (addr, stub) = pong_stub(1);
        let (client, recorder) = recording_client(&addr);
        // A clone shares the idle set.
        let clone = client.clone();
        for c in [&client, &clone, &client] {
            c.ping().unwrap();
        }
        assert_eq!(client.idle_conns(), 1);
        // The last clone to drop closes the idle socket, so the stub's
        // read loop ends.
        drop(client);
        assert_eq!(clone.idle_conns(), 1);
        drop(clone);
        assert_eq!(
            stub.join().unwrap(),
            vec![3],
            "all three exchanges must ride one connection"
        );
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("router.pool_miss"), 1);
        assert_eq!(snap.counter("router.pool_hit"), 2);
    }

    #[test]
    fn exchange_recovers_after_the_shard_restarts() {
        // The stub answers one request per connection, then closes it —
        // the shape of a shard that restarted between queries.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stub = std::thread::spawn(move || {
            for _ in 0..2 {
                let Ok((mut conn, _)) = listener.accept() else {
                    return;
                };
                let _ = conn.set_read_timeout(Some(STUB_TIMEOUT));
                if read_frame(&mut conn).is_ok() {
                    let _ = write_frame(&mut conn, &Response::Pong.encode());
                }
            }
        });
        let (client, recorder) = recording_client(&addr);
        client.ping().unwrap();
        // Give the stub's close time to reach our idle socket, then ask
        // again: whether the health peek catches the dead socket or the
        // retry-once path does, the answer must come back whole.
        std::thread::sleep(Duration::from_millis(50));
        client.ping().unwrap();
        stub.join().unwrap();
        let snap = recorder.snapshot();
        assert!(
            snap.counter("router.pool_evict") >= 1,
            "the dead idle socket must be evicted"
        );
    }

    #[test]
    fn pool_evicts_stale_and_bounds_idle_conns() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Keep the server halves alive so health peeks see open sockets.
        let mut server_halves = Vec::new();
        let mut idle_conn = |client: &Client| {
            let c = TcpStream::connect(&addr).unwrap();
            server_halves.push(listener.accept().unwrap().0);
            client.put_idle(c);
        };
        let (client, recorder) = recording_client(&addr);
        // Age bound: a connection past the bound is dropped when taken.
        idle_conn(&client);
        std::thread::sleep(MAX_IDLE_AGE + Duration::from_millis(50));
        assert!(client.take_idle().is_none(), "stale conn must not reuse");
        assert_eq!(recorder.snapshot().counter("router.pool_evict"), 1);
        // Idle bound: the set never exceeds MAX_IDLE.
        for _ in 0..MAX_IDLE + 2 {
            idle_conn(&client);
        }
        assert_eq!(client.idle_conns(), MAX_IDLE);
        assert_eq!(recorder.snapshot().counter("router.pool_evict"), 3);
        // A healthy idle socket is reused, newest first.
        assert!(client.take_idle().is_some());
        assert_eq!(recorder.snapshot().counter("router.pool_hit"), 1);
        // Closing the idle set empties it.
        client.close_idle();
        assert_eq!(client.idle_conns(), 0);
        assert_eq!(
            recorder.snapshot().counter("router.pool_evict"),
            3 + MAX_IDLE as u64 - 1
        );
    }
}
