//! The scatter-gather router: a front-end that fans each query batch out
//! to independent `jem serve` shard processes and merges their colliding
//! subjects' trial masks back into the single-process answer.
//!
//! Architecture (DESIGN.md §13, §16):
//!
//! * **registry** — a validated [`ShardRegistry`]: slot range + primary
//!   address (+ optional hedge replica) per shard, exact disjoint cover of
//!   the slot space. Shard ids are registry indices; they are the ids a
//!   [`Response::Degraded`] answer names.
//! * **ingress** — the same accept loop and keep-alive connection loop a
//!   shard server runs (the private `ingress` module, counters under
//!   `router.`): capped connections, idle reaping, in-order pipelined
//!   answers. Mapping requests pass two gates before dispatch: a router-wide
//!   in-flight cap (`Busy`) and the per-client admission quota
//!   ([`AdmissionControl`], answering [`Response::Throttled`]). A
//!   dispatched query holds its connection's in-flight count until its
//!   gather is answered, so the reaper never takes a waiting client.
//! * **scatter** — one thread per shard per query (`std::thread::scope`),
//!   each asking its shard for [`SegmentPartials`]
//!   ([`Request::MapPartial`]) with the router's *remaining* deadline
//!   budget forwarded, so a shard never works past the instant the client
//!   stopped waiting.
//! * **shard clients** — the router holds one [`Client`] per shard
//!   endpoint, primary and replica. Fetches, hedges and `Info` all go
//!   through them, so a steady query load reuses each client's
//!   health-checked keep-alive connections instead of opening one per
//!   shard per query — no FD exhaustion under fan-out, no handshake on
//!   the tail. The clients count their connection decisions in the
//!   router's recorder (`router.pool_{hit,miss,evict}`). Each fetch clones
//!   its shard's client with the originating client id (or the router's
//!   own when there is none) and the remaining deadline budget.
//! * **hedging** — a shard that has not answered within the straggler
//!   threshold gets a second, racing request on its replica (or the
//!   primary again); first answer wins, the loser is discarded. Hedges
//!   fire on silence, not on fast failures — fast failures are the
//!   breaker's department.
//! * **health gating** — a consecutive-failure circuit breaker per shard.
//!   An open breaker skips the shard without burning a connection; after a
//!   cooldown drawn from the shared [`RetryPolicy`] schedule (capped
//!   exponential in the number of opens, deterministic seeded jitter)
//!   exactly one probe is let through (the half-open slot is reserved
//!   under the breaker lock, so racing fetches cannot double-probe) —
//!   success closes the breaker, failure reopens it with a longer
//!   cooldown. A shard's hard failure also closes its clients' idle
//!   connections: a breaker-open endpoint never serves stale sockets.
//! * **merge** — a subject's trial masks from disjoint slot ranges OR
//!   associatively and commutatively ([`merge_partials`]); the argmax over
//!   the OR-ed masks reproduces the lazy counter's answer bit for bit, so a
//!   fully-gathered query renders byte-identically to the single-process
//!   TSV.
//! * **degraded answers** — under [`Request::MapDegraded`], missing shards
//!   shrink the merge instead of failing the query: the reply is
//!   [`Response::Degraded`] carrying the merge of the survivors plus the
//!   exact ids of the shards that are missing. A strict [`Request::Map`]
//!   instead fails with a typed error naming the same ids. The chaos
//!   invariant: every query gets a typed error, a degraded answer naming
//!   its gaps, or the correct full answer — never silence, never a wrong
//!   answer dressed as a full one.
//!
//! [`AdmissionControl`]: crate::AdmissionControl

use crate::admission::{AdmissionControl, QuotaConfig};
use crate::client::{Client, RetryPolicy};
use crate::ingress::{ingress_counters, Ingress, IngressConfig, Reply};
use crate::protocol::{Envelope, Request, Response, SegmentPartials};
use crate::registry::ShardRegistry;
use crate::server::throttled;
use crate::ServeError;
use jem_core::{Mapping, QuerySegment};
use jem_index::{mask_fits, mask_words, rank_order, trial_count, SubjectId};
use jem_obs::{MetricsRecorder, Recorder, Snapshot, Span};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The identity the router stamps on shard fetches when the originating
/// request carried none — shard-side quotas then see the router's
/// anonymous traffic as one client instead of a flood of strangers.
const ROUTER_CLIENT_ID: &str = "jem-router";

/// Tuning knobs of a [`start_router`]ed front-end.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Socket connect/read/write timeout per shard attempt.
    pub io_timeout: Duration,
    /// How long an ingress connection may sit idle before it is reaped
    /// (half-open / slow-loris defense).
    pub idle_timeout: Duration,
    /// Straggler threshold: how long to wait for a shard before hedging a
    /// second request to its replica (or re-dispatching to the primary).
    /// `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Consecutive failures that open a shard's circuit breaker (≥ 1).
    pub breaker_failures: u32,
    /// Cooldown schedule for reopening: an open breaker admits a probe
    /// after `pause_before(opens)` — capped exponential with deterministic
    /// seeded jitter, the same vocabulary client retries use.
    pub breaker_cooldown: RetryPolicy,
    /// Router-side budget per query. Combined (min) with the client's own
    /// deadline; the *remaining* budget is forwarded to every shard.
    pub deadline: Option<Duration>,
    /// Per-client admission quota at the router front door. `rate == 0.0`
    /// (the default) disables admission control.
    pub quota: QuotaConfig,
    /// Router-wide cap on concurrently dispatched queries; past it new
    /// mapping requests are answered `Busy` (≥ 1).
    pub max_inflight: usize,
    /// Max simultaneous live ingress connections; past the cap new
    /// connections are answered `Busy` and closed instead of pinning
    /// another handler thread (≥ 1) — the same flood/slow-loris bound the
    /// shard servers enforce.
    pub max_conns: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(2),
            hedge_after: Some(Duration::from_millis(50)),
            breaker_failures: 3,
            breaker_cooldown: RetryPolicy::new(8, Duration::from_millis(250)),
            deadline: None,
            quota: QuotaConfig::default(),
            max_inflight: 256,
            max_conns: 1024,
        }
    }
}

impl RouterConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.breaker_failures == 0 {
            return Err(ServeError::Config(
                "breaker_failures must be at least 1".into(),
            ));
        }
        if self.max_inflight == 0 {
            return Err(ServeError::Config("max_inflight must be at least 1".into()));
        }
        if self.max_conns == 0 {
            return Err(ServeError::Config("max_conns must be at least 1".into()));
        }
        if self.idle_timeout.is_zero() {
            return Err(ServeError::Config("idle_timeout must be positive".into()));
        }
        self.quota.validate().map_err(ServeError::Config)
    }
}

/// Per-shard circuit-breaker state.
#[derive(Debug, Default)]
struct Breaker {
    /// Failures since the last success.
    consecutive_failures: u32,
    /// Times this breaker has opened since the last success — the
    /// exponent of the cooldown schedule.
    opens: u32,
    /// While `Some`, the breaker is open until the instant (then
    /// half-open: one probe is admitted and its outcome decides).
    open_until: Option<Instant>,
    /// The half-open probe is in flight: `admit` reserved it and no
    /// further request passes until `report` delivers its outcome. This
    /// is what makes "exactly one probe" true under racing fetches.
    probing: bool,
}

/// State shared by the request handler and per-query gather threads.
struct RouterShared {
    registry: ShardRegistry,
    config: RouterConfig,
    states: Vec<Mutex<Breaker>>,
    admission: AdmissionControl,
    /// Each shard's clients, in registry order: its primary's and, when it
    /// has one, its replica's.
    clients: Vec<(Client, Option<Client>)>,
    recorder: Arc<MetricsRecorder>,
    /// Concurrently dispatched queries, bounded by
    /// [`RouterConfig::max_inflight`].
    inflight: AtomicUsize,
}

impl RouterShared {
    /// Router state over `registry`, its clients counting into
    /// `recorder`.
    fn new(registry: ShardRegistry, config: &RouterConfig, recorder: Arc<MetricsRecorder>) -> Self {
        let client = |addr: &str| {
            Client::new(addr)
                .with_timeout(config.io_timeout)
                .recording_to(Arc::clone(&recorder))
        };
        let clients = registry
            .shards()
            .iter()
            .map(|spec| (client(&spec.addr), spec.replica.as_deref().map(client)))
            .collect();
        RouterShared {
            states: (0..registry.len())
                .map(|_| Mutex::new(Breaker::default()))
                .collect(),
            registry,
            config: config.clone(),
            admission: AdmissionControl::new(config.quota),
            clients,
            recorder,
            inflight: AtomicUsize::new(0),
        }
    }
}

/// An admission granted by a shard's breaker, to be resolved by
/// [`BreakerAdmit::report`]. When the admission holds the half-open probe
/// slot, the slot is released on drop if no report ever arrives — a panic
/// (or any early return) on the fetch path frees the probe for the next
/// query instead of wedging the shard out of rotation forever.
struct BreakerAdmit<'a> {
    shared: &'a RouterShared,
    shard_id: usize,
    /// This admission reserved the half-open probe slot.
    probe: bool,
    reported: bool,
}

impl BreakerAdmit<'_> {
    /// Deliver the request's outcome to the breaker.
    fn report(mut self, ok: bool) {
        self.reported = true;
        self.shared.report(self.shard_id, ok);
    }
}

impl Drop for BreakerAdmit<'_> {
    fn drop(&mut self) {
        if self.probe && !self.reported {
            let mut st = self.shared.states[self.shard_id]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st.probing = false;
        }
    }
}

impl RouterShared {
    /// Whether the breaker admits a request to `shard_id` right now:
    /// closed, or open past its cooldown — in which case the single
    /// half-open probe slot is reserved for the returned admission and
    /// concurrent callers are refused until [`BreakerAdmit::report`]
    /// decides (or the admission drops unreported, releasing the slot).
    fn admit(&self, shard_id: usize) -> Option<BreakerAdmit<'_>> {
        let mut st = self.states[shard_id].lock().expect("breaker lock poisoned");
        let probe = match st.open_until {
            Some(until) => {
                if Instant::now() >= until && !st.probing {
                    st.probing = true;
                    true
                } else {
                    return None;
                }
            }
            None => false,
        };
        Some(BreakerAdmit {
            shared: self,
            shard_id,
            probe,
            reported: false,
        })
    }

    /// Record a request outcome for `shard_id` and move the breaker.
    fn report(&self, shard_id: usize, ok: bool) {
        let mut st = self.states[shard_id].lock().expect("breaker lock poisoned");
        st.probing = false;
        if ok {
            if st.open_until.is_some() {
                self.recorder.add("router.breaker_close", 1);
            }
            *st = Breaker::default();
            return;
        }
        st.consecutive_failures += 1;
        // A failure while open (the probe) reopens immediately; a closed
        // breaker opens once the consecutive-failure threshold is hit.
        if st.open_until.is_some() || st.consecutive_failures >= self.config.breaker_failures {
            st.opens = st.opens.saturating_add(1);
            let cooldown = self.config.breaker_cooldown.pause_before(st.opens as usize);
            st.open_until = Some(Instant::now() + cooldown);
            self.recorder.add("router.breaker_open", 1);
        }
    }
}

/// What a finished router run reports: the metrics snapshot plus a
/// human-readable status text (topology + final breaker states) for the
/// `--snapshot` file.
pub struct RouterReport {
    /// Final metrics snapshot.
    pub metrics: Snapshot,
    /// Rendered registry + breaker status.
    pub status: String,
}

/// Handle to a running router: its address, live metrics, and the two
/// ways a run ends (local [`RouterHandle::shutdown`], or
/// [`RouterHandle::join`] after a remote [`Request::Shutdown`]).
pub struct RouterHandle {
    ingress: Arc<Ingress>,
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.ingress.addr()
    }

    /// The router's metrics recorder (live; snapshot any time).
    pub fn recorder(&self) -> &MetricsRecorder {
        &self.shared.recorder
    }

    /// Rendered topology + live breaker states.
    pub fn status(&self) -> String {
        status_text(&self.shared)
    }

    /// Stop accepting, then report. Queries already dispatched finish on
    /// their own threads (each bounded by socket timeouts).
    pub fn shutdown(mut self) -> RouterReport {
        self.ingress.stop();
        self.join_inner()
    }

    /// Wait for a remote [`Request::Shutdown`] to end the run, then
    /// report.
    pub fn join(mut self) -> RouterReport {
        self.join_inner()
    }

    fn join_inner(&mut self) -> RouterReport {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        RouterReport {
            metrics: self.shared.recorder.snapshot(),
            status: status_text(&self.shared),
        }
    }
}

/// Bind `addr` and start routing queries across `registry`'s shards.
/// Returns once the listener is live.
pub fn start_router(
    registry: ShardRegistry,
    addr: &str,
    config: &RouterConfig,
) -> Result<RouterHandle, ServeError> {
    config.validate()?;
    let listener = TcpListener::bind(addr)?;
    let recorder = Arc::new(MetricsRecorder::new());
    let ingress = Ingress::new(
        &listener,
        IngressConfig {
            io_timeout: config.io_timeout,
            idle_timeout: config.idle_timeout,
            max_conns: config.max_conns,
            max_inflight: config.max_inflight,
            counters: ingress_counters!("router"),
        },
        Arc::clone(&recorder),
    )?;
    recorder.add("router.started", 1);
    recorder.add("router.shards_configured", registry.len() as u64);
    let shared = Arc::new(RouterShared::new(registry, config, recorder));
    let accept = {
        let shared = Arc::clone(&shared);
        let ingress = Arc::clone(&ingress);
        std::thread::spawn(move || {
            ingress.accept_loop(listener, move |envelope, request, received, reply| {
                handle(&shared, envelope, request, received, reply)
            })
        })
    };
    Ok(RouterHandle {
        ingress,
        shared,
        accept: Some(accept),
    })
}

/// Answer one request the ingress hands over. The router holds no index
/// and serves merged answers, so `Reload` and `MapPartial` are refused.
fn handle(
    shared: &Arc<RouterShared>,
    envelope: Envelope,
    request: Request,
    received: Instant,
    reply: Reply,
) {
    match request {
        Request::Info => reply.send(&router_info(shared)),
        Request::Reload { .. } => reply.send(&Response::Error(
            "the router holds no index; reload the shard servers directly".into(),
        )),
        Request::MapPartial { .. } => reply.send(&Response::Error(
            "the router serves merged answers; MapPartial is a shard-tier request".into(),
        )),
        Request::Map { segments } => route_map(shared, reply, envelope, segments, received, false),
        Request::MapDegraded { segments } => {
            route_map(shared, reply, envelope, segments, received, true)
        }
        Request::Ping | Request::Shutdown => unreachable!("the ingress answers {request:?}"),
    }
}

/// Gate one mapping query through the router's overload defenses — the
/// router-wide in-flight cap, then the per-client quota — and answer it on
/// its own thread if both admit. The in-flight cap runs first because it
/// charges nothing: a request it sheds never costs quota tokens, keeping
/// the invariant that rejected requests are never charged. The gather can
/// spend a hedge threshold plus shard latency, so it runs off the
/// connection loop, which meanwhile reads the connection's next request.
/// Backpressure lives at these gates and the shard tier's bounded queues;
/// the gather itself is a thin fan-out.
fn route_map(
    shared: &Arc<RouterShared>,
    reply: Reply,
    envelope: Envelope,
    segments: Vec<QuerySegment>,
    received: Instant,
    allow_degraded: bool,
) {
    let recorder = &*shared.recorder;
    let cost = (segments.len() as u64).max(1);
    let prev = shared.inflight.fetch_add(1, Ordering::AcqRel);
    if prev >= shared.config.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        recorder.add("router.inflight_rejected", 1);
        reply.send(&Response::Busy);
        return;
    }
    if let Err(retry_after) = shared.admission.try_admit(&envelope.client_id, cost) {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        recorder.add("router.throttled", 1);
        reply.send(&throttled(retry_after));
        return;
    }
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let resp = answer(&shared, &envelope, &segments, received, allow_degraded);
        reply.send(&resp);
        let latency = u64::try_from(received.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.recorder.span_ns("router/request", latency);
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
    });
}

/// The router's `Info`: the first reachable shard's info, asked afresh
/// each time so a shard `Reload` shows, with the shard count rewritten to
/// the global slot count (all shards serve the same index parameters —
/// only slot ownership differs).
fn router_info(shared: &RouterShared) -> Response {
    for (primary, _) in &shared.clients {
        if let Ok(mut info) = primary.info() {
            info.shards = shared.registry.n_slots();
            return Response::Info(info);
        }
    }
    Response::Error("no shard reachable to answer Info".into())
}

/// How one shard's share of a gather ended.
enum ShardOutcome {
    /// Validated partials, ready to merge.
    Partials(Vec<SegmentPartials>),
    /// The shard is missing from the merge (unreachable, invalid answer,
    /// busy, or breaker-skipped).
    Missing,
    /// The deadline budget ran out for this shard (it is not unhealthy —
    /// nobody is waiting anymore).
    Expired,
}

/// A completed scatter-gather: per-shard partials plus the gap list.
struct Gather {
    present: Vec<(usize, Vec<SegmentPartials>)>,
    /// Shard ids missing from the merge, ascending (registry indices).
    missing: Vec<u32>,
    any_expired: bool,
}

/// The min of the router's own budget and the client's request deadline.
fn effective_budget(router: Option<Duration>, client_ms: Option<u64>) -> Option<Duration> {
    let client = client_ms.map(Duration::from_millis);
    match (router, client) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

fn gather(
    shared: &Arc<RouterShared>,
    envelope: &Envelope,
    segments: &[QuerySegment],
    received: Instant,
) -> Gather {
    let recorder = &*shared.recorder;
    recorder.add("router.queries", 1);
    recorder.observe("router.fanout", shared.registry.len() as u64);
    let _pass = Span::enter(recorder as &dyn Recorder, "router/gather");
    let budget = effective_budget(shared.config.deadline, envelope.deadline_ms);
    let client_id = envelope.client_id.as_str();
    let n = shared.registry.len();
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|shard_id| {
                scope.spawn(move || {
                    shard_outcome(shared, shard_id, client_id, segments, budget, received)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(ShardOutcome::Missing))
            .collect()
    });
    let mut g = Gather {
        present: Vec::new(),
        missing: Vec::new(),
        any_expired: false,
    };
    for (shard_id, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            ShardOutcome::Partials(p) => g.present.push((shard_id, p)),
            ShardOutcome::Missing => g.missing.push(shard_id as u32),
            ShardOutcome::Expired => {
                g.any_expired = true;
                g.missing.push(shard_id as u32);
            }
        }
    }
    g
}

/// One shard's share of a gather: breaker gate, fetch (with hedging),
/// validation, breaker report. A hard failure also closes the shard's idle
/// connections — a socket that just failed (or whose endpoint is about to
/// sit behind an open breaker) must not be reused by the next query or the
/// half-open probe.
fn shard_outcome(
    shared: &Arc<RouterShared>,
    shard_id: usize,
    client_id: &str,
    segments: &[QuerySegment],
    budget: Option<Duration>,
    received: Instant,
) -> ShardOutcome {
    let recorder = &*shared.recorder;
    // Remaining budget from here: the router's elapsed time is the
    // client's elapsed time, so shards only ever get what is left.
    let remaining = match budget {
        Some(b) => match b.checked_sub(received.elapsed()) {
            Some(r) if r > Duration::ZERO => Some(r),
            _ => return ShardOutcome::Expired,
        },
        None => None,
    };
    // The admission is an RAII reservation: if anything between here and
    // the breaker report unwinds or returns early, a held half-open probe
    // slot is released on drop instead of wedging the shard forever.
    let Some(admission) = shared.admit(shard_id) else {
        recorder.add("router.breaker_skips", 1);
        return ShardOutcome::Missing;
    };
    let (primary, replica) = &shared.clients[shard_id];
    let evict = || {
        primary.close_idle();
        replica.iter().for_each(Client::close_idle);
    };
    match fetch_partials(shared, shard_id, client_id, segments, remaining) {
        Ok(partials) => {
            if validate_partials(segments, &partials).is_err() {
                // A shard answering mismatched echoes is unhealthy, and
                // its data must never alias into the merge.
                recorder.add("router.invalid_partials", 1);
                recorder.add_dyn(format!("router.shard.{shard_id}.failures"), 1);
                evict();
                admission.report(false);
                ShardOutcome::Missing
            } else {
                recorder.add_dyn(format!("router.shard.{shard_id}.ok"), 1);
                admission.report(true);
                ShardOutcome::Partials(partials)
            }
        }
        // A shard shedding on deadline is healthy — the budget died, not
        // the shard. Same for backpressure: `Busy` (and its per-client
        // sibling `Throttled`) is load, not illness.
        Err(ServeError::Expired) => {
            admission.report(true);
            ShardOutcome::Expired
        }
        Err(ServeError::Busy) => {
            recorder.add("router.shard_busy", 1);
            admission.report(true);
            ShardOutcome::Missing
        }
        Err(ServeError::Throttled { .. }) => {
            recorder.add("router.shard_throttled", 1);
            admission.report(true);
            ShardOutcome::Missing
        }
        Err(_) => {
            recorder.add_dyn(format!("router.shard.{shard_id}.failures"), 1);
            evict();
            admission.report(false);
            ShardOutcome::Missing
        }
    }
}

/// Fetch one shard's partials through its client, hedging to the replica
/// (or re-dispatching to the primary) if the first attempt goes silent
/// past the straggler threshold. First answer wins; a losing attempt's
/// result is discarded (its connection still lands in its client's idle
/// set for the next query). Each attempt clones its endpoint's client with
/// the originating client's id, the router's own for an anonymous client,
/// and the remaining budget.
fn fetch_partials(
    shared: &Arc<RouterShared>,
    shard_id: usize,
    client_id: &str,
    segments: &[QuerySegment],
    budget: Option<Duration>,
) -> Result<Vec<SegmentPartials>, ServeError> {
    let (primary, replica) = &shared.clients[shard_id];
    let client_id = match client_id {
        "" => ROUTER_CLIENT_ID,
        id => id,
    };
    let segments: Arc<[QuerySegment]> = segments.into();
    let (tx, rx) = mpsc::channel::<(bool, Result<Vec<SegmentPartials>, ServeError>)>();
    let io_timeout = shared.config.io_timeout;
    let spawn_attempt = |client: &Client, hedged: bool| {
        let tx = tx.clone();
        let segments = Arc::clone(&segments);
        let mut client = client.clone().with_client_id(client_id);
        if let Some(budget) = budget {
            client = client.with_deadline(budget);
        }
        std::thread::spawn(move || {
            let _ = tx.send((hedged, client.map_segments_partial(&segments)));
        });
    };
    spawn_attempt(primary, false);
    // Hard stop for the whole fetch: the budget if there is one, else a
    // generous multiple of the socket timeout (each attempt thread is
    // itself bounded by connect/read/write timeouts).
    let hard = budget.unwrap_or_else(|| io_timeout.saturating_mul(3));
    let started = Instant::now();
    // Wait for the primary up to the straggler threshold, then hedge.
    let mut first = None;
    match shared.config.hedge_after {
        Some(hedge_after) if hedge_after < hard => match rx.recv_timeout(hedge_after) {
            Ok(outcome) => first = Some(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                shared.recorder.add("router.hedges", 1);
                spawn_attempt(replica.as_ref().unwrap_or(primary), true);
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        },
        _ => {}
    }
    // From here only the attempt threads hold senders: the loop ends on
    // the first success, when every attempt has failed (disconnect), or
    // at the hard stop.
    drop(tx);
    let mut last_err = None;
    loop {
        let outcome = match first.take() {
            Some(outcome) => outcome,
            None => {
                let Some(left) = hard.checked_sub(started.elapsed()) else {
                    break;
                };
                match rx.recv_timeout(left) {
                    Ok(outcome) => outcome,
                    Err(_) => break,
                }
            }
        };
        match outcome {
            (hedged, Ok(partials)) => {
                if hedged {
                    shared.recorder.add("router.hedge_wins", 1);
                }
                return Ok(partials);
            }
            (_, Err(e)) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("shard {shard_id} did not answer within the gather bound"),
        ))
    }))
}

/// Build the response for one query batch from a completed gather.
fn answer(
    shared: &Arc<RouterShared>,
    envelope: &Envelope,
    segments: &[QuerySegment],
    received: Instant,
    allow_degraded: bool,
) -> Response {
    let recorder = &*shared.recorder;
    let g = gather(shared, envelope, segments, received);
    let merged = |present: &[(usize, Vec<SegmentPartials>)]| {
        let lists: Vec<&Vec<SegmentPartials>> = present.iter().map(|(_, p)| p).collect();
        merge_partials(segments, &lists)
    };
    // Every present shard passed validation alone, so a merge can only
    // refuse shards that disagree with each other on T.
    let refused = |e: ServeError| {
        recorder.add("router.invalid_partials", 1);
        Response::Error(e.to_string())
    };
    if g.missing.is_empty() {
        return match merged(&g.present) {
            Ok(mappings) => {
                recorder.add("router.full_answers", 1);
                Response::Mappings(mappings)
            }
            Err(e) => refused(e),
        };
    }
    if !allow_degraded {
        return if g.any_expired {
            recorder.add("router.expired", 1);
            Response::Expired
        } else {
            Response::Error(format!(
                "shards {:?} unavailable; a strict Map fails whole — retry, or ask for a \
                 degraded answer (MapDegraded / jem query --allow-degraded)",
                g.missing
            ))
        };
    }
    if g.present.is_empty() {
        return if g.any_expired {
            recorder.add("router.expired", 1);
            Response::Expired
        } else {
            Response::Error(format!("all shards unavailable ({:?})", g.missing))
        };
    }
    match merged(&g.present) {
        Ok(mappings) => {
            recorder.add("router.degraded", 1);
            Response::Degraded {
                mappings,
                missing: g.missing,
            }
        }
        Err(e) => refused(e),
    }
}

/// Check that `partials` is a plausible shard answer for `segments`: one
/// entry per segment, in order, echoing each segment's identity, all of
/// one trial count `T`, and every hit's trial mask canonical — `⌈T/32⌉`
/// words, not empty, no bit at or above `T` ([`jem_index::mask_fits`]). A
/// gather merges answers from independent processes — this is what stops
/// a shard's (or a fault injector's) mismatched answer from aliasing into
/// another query's merge.
pub fn validate_partials(
    segments: &[QuerySegment],
    partials: &[SegmentPartials],
) -> Result<(), ServeError> {
    if partials.len() != segments.len() {
        return Err(ServeError::protocol(format!(
            "shard answered {} partials for {} segments",
            partials.len(),
            segments.len()
        )));
    }
    for (seg, p) in segments.iter().zip(partials) {
        if p.read_idx != seg.read_idx || p.end != seg.end {
            return Err(ServeError::protocol(format!(
                "shard partial echoes read {} {:?} for requested read {} {:?}",
                p.read_idx, p.end, seg.read_idx, seg.end
            )));
        }
        if let Some((subject, mask)) = p.hits.iter().find(|(_, m)| !mask_fits(m, p.trials)) {
            return Err(ServeError::protocol(format!(
                "shard partial for read {} {:?} gives subject {subject} a {}-word trial mask; \
                 T = {} needs {} words, not all zero, with no bit at or above T",
                p.read_idx,
                p.end,
                mask.len(),
                p.trials,
                mask_words(p.trials)
            )));
        }
    }
    same_trials(partials.iter().map(|p| p.trials))
}

/// Refuse partials that disagree on the trial count `T`.
fn same_trials(mut trials: impl Iterator<Item = usize>) -> Result<(), ServeError> {
    let Some(first) = trials.next() else {
        return Ok(());
    };
    match trials.find(|&t| t != first) {
        Some(other) => Err(ServeError::protocol(format!(
            "shard partials disagree on the trial count: T = {first} and T = {other}"
        ))),
        None => Ok(()),
    }
}

/// Merge per-shard [`SegmentPartials`] into final mappings, reproducing
/// the lazy hit counter's argmax exactly.
///
/// For each segment, every shard's trial masks of a subject are OR-ed (OR
/// is associative, commutative, and idempotent — shard order and shard
/// count cannot change the result); a subject's hit count is its OR-ed
/// mask's popcount; the winner is first under the one ranking rule,
/// [`jem_index::rank_order`] (highest count, ties to the smallest subject
/// id), which the single-process argmax also applies — so a full gather is
/// byte-identical to its answer. Output is sorted in [`Mapping`]'s total
/// order. Every shard's list must pass [`validate_partials`], and all
/// shards must share one `T`.
pub fn merge_partials<L: AsRef<[SegmentPartials]>>(
    segments: &[QuerySegment],
    per_shard: &[L],
) -> Result<Vec<Mapping>, ServeError> {
    for shard in per_shard {
        validate_partials(segments, shard.as_ref())?;
    }
    same_trials(per_shard.iter().flat_map(AsRef::as_ref).map(|p| p.trials))?;
    let mut mappings = Vec::new();
    let mut hits: Vec<(SubjectId, &[u32])> = Vec::new();
    let mut mask: Vec<u32> = Vec::new();
    for (i, seg) in segments.iter().enumerate() {
        hits.clear();
        for shard in per_shard {
            hits.extend(
                shard.as_ref()[i]
                    .hits
                    .iter()
                    .map(|(s, m)| (*s, m.as_slice())),
            );
        }
        hits.sort_unstable_by_key(|&(s, _)| s);
        let mut best: Option<(SubjectId, u32)> = None;
        for group in hits.chunk_by(|a, b| a.0 == b.0) {
            mask.clear();
            mask.extend_from_slice(group[0].1);
            for (_, m) in &group[1..] {
                for (w, &x) in mask.iter_mut().zip(*m) {
                    *w |= x;
                }
            }
            let hit = (group[0].0, trial_count(&mask));
            if best.is_none_or(|b| rank_order(&hit, &b).is_lt()) {
                best = Some(hit);
            }
        }
        if let Some((subject, hits)) = best {
            mappings.push(Mapping {
                read_idx: seg.read_idx,
                end: seg.end,
                subject,
                hits,
            });
        }
    }
    mappings.sort_unstable();
    Ok(mappings)
}

/// Render the topology and live breaker states (the `--snapshot` text).
fn status_text(shared: &RouterShared) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# jem-router status");
    let _ = writeln!(out, "epoch\t{}", shared.registry.epoch());
    let _ = writeln!(out, "slots\t{}", shared.registry.n_slots());
    let _ = writeln!(out, "topology\t{}", shared.registry);
    let now = Instant::now();
    for (i, spec) in shared.registry.shards().iter().enumerate() {
        let st = shared.states[i].lock().expect("breaker lock poisoned");
        let phase = match st.open_until {
            Some(until) if now < until => "open",
            Some(_) => "half-open",
            None => "closed",
        };
        let _ = writeln!(
            out,
            "shard\t{i}\t{}-{}\t{}\treplica={}\tbreaker={phase}\tfailures={}\topens={}\tpool_idle={}",
            spec.slots.start,
            spec.slots.end,
            spec.addr,
            spec.replica.as_deref().unwrap_or("-"),
            st.consecutive_failures,
            st.opens,
            shared.clients[i].0.idle_conns()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_core::ReadEnd;

    fn seg(read_idx: u32, end: ReadEnd) -> QuerySegment {
        QuerySegment {
            read_idx,
            end,
            seq: Vec::new(),
        }
    }

    /// A partial over `trials` trials, each hit given as its trial list.
    fn partial(
        read_idx: u32,
        end: ReadEnd,
        trials: usize,
        hits: &[(SubjectId, &[usize])],
    ) -> SegmentPartials {
        let hits = hits
            .iter()
            .map(|&(s, ts)| {
                let mut mask = vec![0u32; jem_index::mask_words(trials)];
                for &t in ts {
                    mask[t / 32] |= 1 << (t % 32);
                }
                (s, mask)
            })
            .collect();
        SegmentPartials {
            read_idx,
            end,
            trials,
            hits,
        }
    }

    /// A standalone `RouterShared` (no listener) for breaker unit tests.
    fn test_shared(config: RouterConfig) -> RouterShared {
        RouterShared::new(
            ShardRegistry::parse("0-1@127.0.0.1:1").unwrap(),
            &config,
            Arc::new(MetricsRecorder::new()),
        )
    }

    #[test]
    fn merge_reproduces_the_lazy_counter_tiebreak() {
        let segments = vec![seg(0, ReadEnd::Prefix)];
        // Subject 9 collides in trials {0,1}; subject 2 in trials {1,2}.
        // Equal counts — the smaller id must win, exactly like the lazy
        // counter's "equal count keeps the smaller subject" rule.
        let shards = vec![vec![partial(
            0,
            ReadEnd::Prefix,
            3,
            &[(2, &[1, 2]), (9, &[0, 1])],
        )]];
        let merged = merge_partials(&segments, &shards).unwrap();
        assert_eq!(
            merged,
            vec![Mapping {
                read_idx: 0,
                end: ReadEnd::Prefix,
                subject: 2,
                hits: 2
            }]
        );
        // A strictly higher count beats a smaller id.
        let shards = vec![vec![partial(
            0,
            ReadEnd::Prefix,
            3,
            &[(0, &[0]), (7, &[0, 1, 2])],
        )]];
        let merged = merge_partials(&segments, &shards).unwrap();
        assert_eq!(merged[0].subject, 7);
        assert_eq!(merged[0].hits, 3);
    }

    #[test]
    fn merge_ors_masks_across_shards_without_double_counting() {
        let segments = vec![seg(3, ReadEnd::Suffix)];
        // Subject 5 collides with *different codes of the same trial* on
        // two different shards: the OR must count that trial once.
        let a = vec![partial(3, ReadEnd::Suffix, 40, &[(5, &[0])])];
        let b = vec![partial(3, ReadEnd::Suffix, 40, &[(5, &[0, 33])])];
        let merged = merge_partials(&segments, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged[0].hits, 2, "trial 0 must count once, not twice");
        // Order independence: any shard permutation merges identically.
        let swapped = merge_partials(&segments, &[b, a]).unwrap();
        assert_eq!(merged, swapped);
    }

    #[test]
    fn merge_with_no_collisions_maps_nothing() {
        let segments = vec![seg(0, ReadEnd::Prefix), seg(0, ReadEnd::Suffix)];
        let shards = vec![vec![
            partial(0, ReadEnd::Prefix, 4, &[]),
            partial(0, ReadEnd::Suffix, 4, &[]),
        ]];
        assert!(merge_partials(&segments, &shards).unwrap().is_empty());
        let none: Vec<Vec<SegmentPartials>> = Vec::new();
        assert!(merge_partials(&segments, &none).unwrap().is_empty());
    }

    #[test]
    fn mismatched_echoes_refuse_to_merge() {
        let segments = vec![seg(1, ReadEnd::Prefix)];
        // Wrong read index.
        let wrong_read = vec![partial(2, ReadEnd::Prefix, 1, &[(1, &[0])])];
        assert!(merge_partials(&segments, &[wrong_read]).is_err());
        // Wrong end.
        let wrong_end = vec![partial(1, ReadEnd::Suffix, 1, &[(1, &[0])])];
        assert!(merge_partials(&segments, &[wrong_end]).is_err());
        // Wrong count.
        let wrong_len: Vec<SegmentPartials> = Vec::new();
        assert!(merge_partials(&segments, &[wrong_len]).is_err());
    }

    #[test]
    fn malformed_masks_and_trial_counts_refuse_to_merge() {
        let segments = vec![seg(1, ReadEnd::Prefix), seg(1, ReadEnd::Suffix)];
        let good = vec![
            partial(1, ReadEnd::Prefix, 33, &[(4, &[32])]),
            partial(1, ReadEnd::Suffix, 33, &[(2, &[0, 5])]),
        ];
        assert!(validate_partials(&segments, &good).is_ok());
        let mut cases: Vec<(&str, Vec<SegmentPartials>)> = Vec::new();
        let mut narrow = good.clone();
        narrow[0].hits[0].1.pop();
        cases.push(("a one-word mask at T = 33", narrow));
        let mut wide = good.clone();
        wide[1].hits[0].1.push(0);
        cases.push(("a three-word mask at T = 33", wide));
        let mut past_t = good.clone();
        past_t[0].hits[0].1[1] |= 1 << 1;
        cases.push(("bit 33 at T = 33", past_t));
        let mut empty = good.clone();
        empty[1].hits[0].1 = vec![0, 0];
        cases.push(("an empty mask", empty));
        let mut mixed = good.clone();
        mixed[1].trials = 34;
        cases.push(("two trial counts in one answer", mixed));
        for (what, shard) in cases {
            assert!(validate_partials(&segments, &shard).is_err(), "{what}");
            assert!(merge_partials(&segments, &[shard]).is_err(), "{what}");
        }
        // Each shard is valid alone, but the two disagree on T.
        let other = vec![
            partial(1, ReadEnd::Prefix, 34, &[(4, &[33])]),
            partial(1, ReadEnd::Suffix, 34, &[]),
        ];
        assert!(validate_partials(&segments, &other).is_ok());
        let err = merge_partials(&segments, &[good, other]).unwrap_err();
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    #[test]
    fn effective_budget_takes_the_min() {
        let s = Duration::from_secs(1);
        assert_eq!(effective_budget(None, None), None);
        assert_eq!(effective_budget(Some(s), None), Some(s));
        assert_eq!(effective_budget(None, Some(500)), Some(s / 2));
        assert_eq!(effective_budget(Some(s), Some(500)), Some(s / 2));
        assert_eq!(effective_budget(Some(s / 4), Some(500)), Some(s / 4));
    }

    #[test]
    fn breaker_opens_after_threshold_and_probe_decides() {
        let config = RouterConfig {
            breaker_failures: 2,
            breaker_cooldown: RetryPolicy::new(4, Duration::from_millis(1))
                .with_cap(Duration::from_millis(2)),
            ..RouterConfig::default()
        };
        let shared = test_shared(config);
        shared.admit(0).expect("fresh breaker admits").report(false);
        shared
            .admit(0)
            .expect("one failure is below the threshold")
            .report(false);
        assert!(
            shared.admit(0).is_none(),
            "second failure must open the breaker"
        );
        std::thread::sleep(Duration::from_millis(10));
        shared
            .admit(0)
            .expect("cooldown elapsed: half-open probe")
            .report(false);
        assert!(
            shared.admit(0).is_none(),
            "failed probe must reopen immediately"
        );
        std::thread::sleep(Duration::from_millis(10));
        shared.admit(0).expect("second cooldown probe").report(true);
        assert!(shared.admit(0).is_some(), "success closes the breaker");
        let snap = shared.recorder.snapshot();
        assert_eq!(snap.counter("router.breaker_open"), 2);
        assert_eq!(snap.counter("router.breaker_close"), 1);
    }

    #[test]
    fn half_open_race_admits_exactly_one_probe() {
        let config = RouterConfig {
            breaker_failures: 1,
            breaker_cooldown: RetryPolicy::new(4, Duration::from_millis(1))
                .with_cap(Duration::from_millis(2)),
            ..RouterConfig::default()
        };
        let shared = test_shared(config);
        shared.report(0, false); // threshold 1: opens immediately
        std::thread::sleep(Duration::from_millis(10)); // past the cooldown
                                                       // Many fetches race the expired cooldown: the probe slot is
                                                       // reserved under the breaker lock, so exactly one may pass.
                                                       // The granted admissions are held (not dropped) until counted —
                                                       // dropping one unreported would hand the slot to the next racer.
        let admitted: Vec<Option<BreakerAdmit<'_>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| shared.admit(0))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut granted: Vec<BreakerAdmit<'_>> = admitted.into_iter().flatten().collect();
        assert_eq!(
            granted.len(),
            1,
            "exactly one racer may own the half-open probe"
        );
        // The failed probe reopens the breaker — one reopen, not one per
        // refused racer — and refuses admission again.
        granted.pop().expect("counted above").report(false);
        assert!(
            shared.admit(0).is_none(),
            "failed probe must reopen the breaker"
        );
        let snap = shared.recorder.snapshot();
        assert_eq!(
            snap.counter("router.breaker_open"),
            2,
            "initial open + probe reopen, no double-counting"
        );
        assert_eq!(snap.counter("router.breaker_close"), 0);
        // And a successful probe after the next cooldown closes it.
        std::thread::sleep(Duration::from_millis(10));
        shared.admit(0).expect("next cooldown probe").report(true);
        assert!(shared.admit(0).is_some());
        assert_eq!(
            shared.recorder.snapshot().counter("router.breaker_close"),
            1
        );
    }

    /// The fetch path between `admit` and `report` can unwind (a panic in
    /// validation, an early return added later): a half-open admission
    /// dropped without a report must release the probe slot, not wedge
    /// the shard out of rotation forever.
    #[test]
    fn unreported_probe_admission_releases_the_slot_on_drop() {
        let config = RouterConfig {
            breaker_failures: 1,
            breaker_cooldown: RetryPolicy::new(4, Duration::from_millis(1))
                .with_cap(Duration::from_millis(2)),
            ..RouterConfig::default()
        };
        let shared = test_shared(config);
        shared.admit(0).expect("fresh breaker").report(false); // opens
        std::thread::sleep(Duration::from_millis(10));
        let probe = shared.admit(0).expect("cooldown elapsed: probe");
        // While the probe is held, racers are refused...
        assert!(shared.admit(0).is_none(), "held probe refuses racers");
        // ...and dropping it unreported frees the slot for the next probe
        // instead of leaving `probing` stuck true.
        drop(probe);
        shared
            .admit(0)
            .expect("dropped probe must release the half-open slot")
            .report(true);
        assert!(shared.admit(0).is_some(), "successful probe closed it");
    }
}
