//! Blocking client for the `jem-serve` protocol.
//!
//! One connection per request: the protocol is strictly
//! request/response, so a fresh `TcpStream` per call keeps the client
//! trivially correct under concurrency (no framing state to desynchronize)
//! at the cost of one TCP handshake per request — negligible next to an
//! index pass. The client closes the connection once it has the answer;
//! servers and routers keep connections alive and never close first, so
//! each request leaves its TCP `TIME_WAIT` on the client's host. `jem query` and the
//! differential oracle's served checks are built on this.
//!
//! The client writes its identity ([`Client::with_client_id`]) and its
//! deadline ([`Client::with_deadline`]) into every request's [`Envelope`].
//! The identity keys the server's per-client admission quota and
//! fair-queue lane; over quota, the server answers
//! [`ServeError::Throttled`] with a `retry_after` hint that
//! [`RetryPolicy`] retries honor. Anonymous clients share one quota.

use crate::protocol::{
    budget_ms, connect, roundtrip, Envelope, Request, Response, SegmentPartials, ServerInfo,
};
use crate::ServeError;
use jem_core::{Mapping, QuerySegment};
use jem_index::fnv1a64;
use std::time::Duration;

/// A blocking `jem-serve` client bound to one server address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    timeout: Duration,
    /// Identity and deadline, written into every request.
    envelope: Envelope,
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
        }
    }

    /// Same client with a different connect/read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
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

    /// Same client with no request deadline (undoes
    /// [`Client::with_deadline`]).
    pub fn without_deadline(mut self) -> Self {
        self.envelope.deadline_ms = None;
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

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One request/response exchange, transparently absorbing a single
    /// mid-request connection loss for idempotent requests: a server
    /// worker that died (or an LB that culled the connection) between our
    /// write and its reply surfaces as `ConnectionReset`/`BrokenPipe`/
    /// `UnexpectedEof`, and re-asking an idempotent question on a fresh
    /// connection is always safe. Non-idempotent requests (`Shutdown`,
    /// `Reload`) surface the error — re-sending those could act twice.
    fn exchange(&self, req: &Request) -> Result<Response, ServeError> {
        let body = req.encode(&self.envelope);
        // One round trip on a fresh connection.
        let once = || roundtrip(&mut connect(&self.addr, self.timeout)?, &body);
        match once() {
            Err(ServeError::Io(ref e)) if is_idempotent(req) && is_connection_loss(e) => once(),
            other => other,
        }
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

    /// [`Client::map_segments`] with retries on [`ServeError::Busy`] under
    /// an explicit [`RetryPolicy`]. Any other error returns immediately —
    /// in particular [`ServeError::Expired`] is not retried: resending the
    /// same deadline would just be shed again.
    pub fn map_segments_with_policy(
        &self,
        segments: &[QuerySegment],
        policy: &RetryPolicy,
    ) -> Result<Vec<Mapping>, ServeError> {
        self.with_busy_retry(policy, || self.map_segments(segments))
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

    /// [`Client::map_segments`] with bounded retries on
    /// [`ServeError::Busy`]. `attempts` and `backoff` parameterize a
    /// [`RetryPolicy`] (capped exponential backoff with deterministic
    /// jitter and a total sleep budget); the signature is unchanged from
    /// the original linear-backoff version.
    pub fn map_segments_retry(
        &self,
        segments: &[QuerySegment],
        attempts: usize,
        backoff: Duration,
    ) -> Result<Vec<Mapping>, ServeError> {
        let policy = RetryPolicy::new(attempts, backoff)
            // Seed the jitter from the target address: deterministic for a
            // given server (reproducible runs, no `SystemTime`), different
            // across servers so co-hosted clients don't sync up.
            .with_jitter_seed(fnv1a64(self.addr.as_bytes()));
        self.map_segments_with_policy(segments, &policy)
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
        let policy =
            RetryPolicy::new(attempts, backoff).with_jitter_seed(fnv1a64(self.addr.as_bytes()));
        self.with_busy_retry(&policy, || self.map_segments_degraded(segments))
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

/// Retry behaviour for [`Client::map_segments_with_policy`]: capped
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

    /// Same policy with a different total sleep budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
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

/// Map an unexpected response onto the matching error. Shared with the
/// router's pooled fetch path, which speaks the same response vocabulary.
pub(crate) fn unexpected(wanted: &str, got: &Response) -> ServeError {
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
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
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
        // Unblock the stub's remaining accept so it can exit.
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
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
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
        // `without_deadline` and an empty id undo the two builders.
        let no_deadline = wire_request(|addr| {
            Client::new(addr)
                .with_deadline(Duration::from_millis(250))
                .without_deadline()
        });
        assert_eq!(no_deadline, (Envelope::default(), Request::Ping));
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
        let started = std::time::Instant::now();
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
        let stingy =
            RetryPolicy::new(3, Duration::from_millis(1)).with_budget(Duration::from_millis(5));
        let out: Result<(), ServeError> = client.with_busy_retry(&stingy, || {
            Err(ServeError::Throttled {
                retry_after: Duration::from_secs(60),
            })
        });
        assert!(matches!(out, Err(ServeError::Throttled { .. })));
    }
}
