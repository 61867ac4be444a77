//! The mapping server: per-client fair queueing and admission control,
//! a supervised batching worker pool, deadline shedding, hot index reload
//! and graceful shutdown, behind the one ingress both tiers share.
//!
//! Threading model (DESIGN.md §10–§11, §16):
//!
//! * **ingress** (the crate's private `ingress` module, shared with the
//!   router) — the accept thread and one
//!   keep-alive handler thread per connection, answering `Ping` and
//!   `Shutdown` and handing every other request here with its reply
//!   handle. This tier answers `Info` inline and admits `Map` (on a server
//!   that owns every slot) and `MapPartial` jobs through three composed
//!   gates: a per-connection in-flight cap
//!   (`max_inflight`), per-client token-bucket quotas
//!   ([`AdmissionControl`], rejecting with [`Response::Throttled`] — a
//!   request the queue then refuses is refunded, so rejected work is never
//!   charged), and the per-client deficit-round-robin queue
//!   ([`FairQueue`], `Busy` when the client's lane is full). `Reload` goes
//!   to a one-off loader thread so a slow index load never blocks
//!   admission. A request answered off the handler thread (a job, a
//!   reload) holds its connection's in-flight count until answered, so
//!   the idle reaper never takes a connection that is waiting on us.
//! * **worker threads** (supervised pool) — each owns one reused
//!   [`LazyHitCounter`](jem_index::LazyHitCounter) and a running query-id;
//!   workers pop up to `batch` queued requests per index pass (the fair
//!   queue interleaves lanes, so one greedy client cannot monopolize a
//!   pass), shed the ones whose deadline has already expired
//!   ([`Response::Expired`], `serve.shed`), map the rest with the one
//!   counter, and answer each through its reply handle, which restores
//!   request order on the connection.
//! * **supervisor thread** — owns the worker pool. Each worker's request
//!   loop runs under `catch_unwind`; a panicking worker fails its
//!   in-flight batch with an `Error` reply (a guard holds the reply
//!   handles, so the clients are answered, never hung), the panic is
//!   counted (`serve.worker_panic`), and the supervisor respawns a
//!   replacement (`serve.worker_respawns`) so pool capacity never decays.
//! * **index epochs** — the served [`JemMapper`] lives behind an
//!   `RwLock`ed, `Arc`-swapped epoch. Workers pin the current epoch per
//!   batch, so a [`Request::Reload`](crate::Request) swap lands atomically
//!   between batches and a failed load leaves the old epoch serving. The
//!   server's [`CodeFilter`] (the slots it owns) outlives reloads; codes
//!   outside it are never probed, so a shard keeps no private table memory.
//! * **shutdown** — [`ServerHandle::shutdown`] (or a remote
//!   [`crate::Request::Shutdown`]) stops the accept loop and closes the
//!   queue; workers drain everything already queued, so every admitted
//!   request is answered, then exit.
//!
//! All instrumentation flows through one [`MetricsRecorder`] owned by the
//! server (not the process-global recorder): a resident service snapshots
//! its own lifetime without racing other pipelines in the process, and
//! tests can run many servers concurrently.
//!
//! [`AdmissionControl`]: crate::AdmissionControl
//! [`FairQueue`]: crate::FairQueue

use crate::admission::{AdmissionControl, QuotaConfig};
use crate::ingress::{ingress_counters, Ingress, IngressConfig, Reply};
use crate::protocol::{Envelope, Request, Response, SegmentPartials, ServerInfo};
use crate::queue::{FairQueue, PushError};
use crate::ServeError;
use jem_core::{CodeFilter, JemMapper, MapScratch, QuerySegment};
use jem_obs::{MetricsRecorder, Recorder, Snapshot, Span};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many distinct client lanes the fair queue keeps before further ids
/// collapse into the shared anonymous lane — the same bounded-memory
/// posture as [`admission::MAX_TRACKED_CLIENTS`](crate::admission::MAX_TRACKED_CLIENTS).
const MAX_LANES: usize = 256;

/// Tuning knobs of a [`start`]ed server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads mapping queued requests (≥ 1).
    pub workers: usize,
    /// Bounded request-queue capacity *per client lane*; a full lane
    /// answers `Busy` (≥ 1). A single-client workload sees exactly the
    /// old global bound.
    pub queue_cap: usize,
    /// Max queued requests a worker folds into one index pass (≥ 1).
    pub batch: usize,
    /// Per-connection socket timeout while a frame is in flight.
    pub io_timeout: Duration,
    /// How long a connection may sit idle between frames before it is
    /// reaped (half-open / slow-loris defense). Applies from accept: a
    /// peer that connects and never sends is closed after this long.
    pub idle_timeout: Duration,
    /// Max simultaneous live connections; past the cap new connections
    /// are answered `Busy` and closed instead of pinning another handler
    /// thread (≥ 1).
    pub max_conns: usize,
    /// Max in-flight (admitted, unanswered) requests per connection; a
    /// pipelining peer past the cap is answered `Busy` (≥ 1).
    pub max_inflight: usize,
    /// Per-client admission quota. `rate == 0.0` (the default) disables
    /// admission control entirely.
    pub quota: QuotaConfig,
    /// Chaos knob (same spirit as `jem-psim`'s straggle fault): every
    /// worker sleeps this long before each index pass. `0` = off. Used by
    /// the saturation and drain tests to hold the queue full
    /// deterministically.
    pub straggle_ms: u64,
    /// Chaos knob (the serve-side twin of `jem-psim`'s crash fault): the
    /// pool panics on every Nth index pass, counted across all workers.
    /// `0` = off. The chaos suite uses this to prove the supervisor
    /// restores pool capacity and no client is left hanging.
    pub panic_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            batch: 16,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(2),
            max_conns: 256,
            max_inflight: 32,
            quota: QuotaConfig::default(),
            straggle_ms: 0,
            panic_every: 0,
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<(), ServeError> {
        for (name, v) in [
            ("workers", self.workers),
            ("queue_cap", self.queue_cap),
            ("batch", self.batch),
            ("max_conns", self.max_conns),
            ("max_inflight", self.max_inflight),
        ] {
            if v == 0 {
                return Err(ServeError::Config(format!("{name} must be at least 1")));
            }
        }
        if self.idle_timeout.is_zero() {
            return Err(ServeError::Config(
                "idle_timeout must be positive".to_string(),
            ));
        }
        self.quota.validate().map_err(ServeError::Config)
    }
}

/// What a queued job answers with: final mappings (`Map`) or each
/// colliding subject's trial mask against this server's owned slot range
/// (`MapPartial`, the gather half of the router's scatter-gather).
enum JobKind {
    Map,
    Partial,
}

/// One admitted mapping request: the segments plus the reply handle that
/// answers it in request order on its connection.
struct Job {
    reply: Reply,
    segments: Vec<QuerySegment>,
    kind: JobKind,
    enqueued: Instant,
    /// When the client's deadline budget runs out (None = never expires).
    expires: Option<Instant>,
}

/// One generation of the served index. Bumped atomically by a successful
/// reload; workers pin the epoch per batch, so a swap never tears a batch.
struct Epoch {
    id: u64,
    mapper: Arc<JemMapper>,
}

/// State shared by the request handler, the worker pool, the supervisor,
/// and reload threads.
struct Shared {
    epoch: RwLock<Epoch>,
    queue: FairQueue<Job>,
    admission: AdmissionControl,
    recorder: Arc<MetricsRecorder>,
    max_inflight: usize,
    /// Global index-pass ordinal (1-based), driving the `panic_every` knob.
    batch_ordinal: AtomicU64,
    batch: usize,
    straggle_ms: u64,
    panic_every: u64,
    /// The slots this server owns. A standalone server owns the whole
    /// space; a router-tier shard owns its registry slice and answers
    /// `MapPartial` from just that slice. Every shard of a topology agrees
    /// on the space's size.
    filter: CodeFilter,
}

impl Shared {
    /// Pin the current epoch: one `Arc` clone under a read lock.
    fn pin_epoch(&self) -> (u64, Arc<JemMapper>) {
        let e = self.epoch.read().expect("epoch lock poisoned");
        (e.id, Arc::clone(&e.mapper))
    }

    /// The served index's parameters as of the current epoch.
    fn current_info(&self) -> ServerInfo {
        let (_, mapper) = self.pin_epoch();
        ServerInfo {
            config: *mapper.config(),
            scheme: mapper.scheme(),
            subject_names: mapper.subject_names().to_vec(),
            shards: self.filter.n_slots(),
            batch: self.batch,
        }
    }
}

/// Handle to a running server: its address, its metrics, and the two ways
/// a run ends ([`ServerHandle::shutdown`] locally, [`ServerHandle::join`]
/// after a remote shutdown request).
pub struct ServerHandle {
    ingress: Arc<Ingress>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.ingress.addr()
    }

    /// The server's metrics recorder (live; snapshot any time).
    pub fn recorder(&self) -> &MetricsRecorder {
        &self.shared.recorder
    }

    /// Trigger a graceful shutdown and wait for it to finish: stop
    /// accepting, drain every queued request, join all threads. Returns
    /// the final metrics snapshot.
    pub fn shutdown(mut self) -> Snapshot {
        self.ingress.stop();
        self.join_inner()
    }

    /// Wait for the server to end on its own (a remote
    /// [`Request::Shutdown`](crate::Request)), then return the
    /// final metrics snapshot.
    pub fn join(mut self) -> Snapshot {
        self.join_inner()
    }

    fn join_inner(&mut self) -> Snapshot {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        self.shared.recorder.snapshot()
    }
}

/// Bind `addr` and start serving `mapper`'s index through the slots
/// `filter` owns ([`CodeFilter::slots`]; a standalone server owns them
/// all). A server that owns only some slots is a shard: it answers
/// `MapPartial` and refuses `Map` with a typed `Error`. Returns once the
/// listener is live; mapping happens on background threads until
/// shutdown.
pub fn start(
    mapper: JemMapper,
    filter: CodeFilter,
    addr: &str,
    config: &ServerConfig,
) -> Result<ServerHandle, ServeError> {
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
            counters: ingress_counters!("serve"),
        },
        Arc::clone(&recorder),
    )?;

    // Startup gauges: shard balance of the resident table, pool size.
    for count in slot_entry_counts(&mapper, &filter) {
        recorder.observe("serve.shard_entries", count as u64);
    }
    recorder.add("serve.started", 1);
    recorder.add("serve.workers_configured", config.workers as u64);

    let shared = Arc::new(Shared {
        epoch: RwLock::new(Epoch {
            id: 0,
            mapper: Arc::new(mapper),
        }),
        // Quantum = batch: one sweep visit lets a lane contribute about
        // one index pass worth of segments before the next lane's turn.
        queue: FairQueue::new(config.queue_cap, MAX_LANES, config.batch as u64),
        admission: AdmissionControl::new(config.quota),
        recorder,
        max_inflight: config.max_inflight,
        batch_ordinal: AtomicU64::new(0),
        batch: config.batch,
        straggle_ms: config.straggle_ms,
        panic_every: config.panic_every,
        filter,
    });

    let supervisor = {
        let shared = Arc::clone(&shared);
        let workers = config.workers;
        std::thread::spawn(move || supervise(&shared, workers))
    };

    let accept = {
        let shared = Arc::clone(&shared);
        let handler_shared = Arc::clone(&shared);
        let ingress = Arc::clone(&ingress);
        std::thread::spawn(move || {
            ingress.accept_loop(listener, move |envelope, request, received, reply| {
                handle(&handler_shared, envelope, request, received, reply)
            });
            // Whatever ended the loop (local stop or remote request):
            // refuse new work, let workers drain and exit.
            shared.queue.close();
        })
    };

    Ok(ServerHandle {
        ingress,
        shared,
        accept: Some(accept),
        supervisor: Some(supervisor),
    })
}

/// The over-quota answer: the wait until the client's token bucket can
/// afford the request, in whole milliseconds. Shared with the router's
/// front door.
pub(crate) fn throttled(retry_after: Duration) -> Response {
    Response::Throttled {
        retry_after_ms: u64::try_from(retry_after.as_millis()).unwrap_or(u64::MAX),
    }
}

/// Answer one request the ingress hands over: `Info` inline, `Reload` on
/// a loader thread, mapping requests through admission into the queue
/// (`Map` only when the server owns every slot).
fn handle(
    shared: &Arc<Shared>,
    envelope: Envelope,
    request: Request,
    received: Instant,
    reply: Reply,
) {
    match request {
        Request::Info => reply.send(&Response::Info(shared.current_info())),
        Request::Reload { path } => {
            shared.recorder.add("serve.reload_requests", 1);
            // Load off the handler path: a multi-second index load must
            // not stall admission of this connection's requests.
            spawn_reload(Arc::clone(shared), reply, path);
        }
        // A shard's slice of the table would rank contigs on its own
        // collisions alone: only the router can merge a whole answer.
        Request::Map { .. } if !shared.filter.admits_all() => {
            let owned = shared.filter.owned();
            reply.send(&Response::Error(format!(
                "this shard owns slots {}-{} of {} and answers only MapPartial; \
                 send Map through jem route",
                owned.start,
                owned.end,
                shared.filter.n_slots()
            )))
        }
        Request::Map { segments } => {
            admit(shared, reply, &envelope, segments, JobKind::Map, received)
        }
        Request::MapPartial { segments } => {
            shared.recorder.add("serve.partial_requests", 1);
            admit(
                shared,
                reply,
                &envelope,
                segments,
                JobKind::Partial,
                received,
            );
        }
        Request::MapDegraded { .. } => reply.send(&Response::Error(
            "degraded answers come from the router tier; this is a shard server".into(),
        )),
        Request::Ping | Request::Shutdown => unreachable!("the ingress answers {request:?}"),
    }
}

/// Admit one mapping job through the three overload gates — the
/// per-connection in-flight cap, the per-client quota, the per-client
/// queue lane — answering a typed rejection at whichever gate refuses.
/// The in-flight cap runs first (it charges nothing), and a request the
/// queue refuses after the quota charged it is refunded: a rejected
/// request never costs tokens, whatever gate rejected it.
fn admit(
    shared: &Arc<Shared>,
    reply: Reply,
    envelope: &Envelope,
    segments: Vec<QuerySegment>,
    kind: JobKind,
    received: Instant,
) {
    let recorder = &shared.recorder;
    let lane = envelope.client_id.as_str();
    let cost = (segments.len() as u64).max(1);
    if reply.others_in_flight() >= shared.max_inflight {
        recorder.add("serve.inflight_rejected", 1);
        reply.send(&Response::Busy);
        return;
    }
    if let Err(retry_after) = shared.admission.try_admit(lane, cost) {
        recorder.add("serve.throttled", 1);
        reply.send(&throttled(retry_after));
        return;
    }
    if envelope.deadline_ms.is_some() {
        recorder.add("serve.deadline_requests", 1);
    }
    let job = Job {
        reply,
        segments,
        kind,
        enqueued: received,
        expires: envelope
            .deadline_ms
            .map(|ms| received + Duration::from_millis(ms)),
    };
    match shared.queue.try_push(lane, cost, job) {
        Ok(depth) => {
            recorder.add("serve.enqueued", 1);
            recorder.observe("serve.queue_depth", depth.total as u64);
            recorder.observe("serve.lane_depth", depth.lane as u64);
        }
        Err((job, PushError::Full)) => {
            shared.admission.refund(lane, cost);
            recorder.add("serve.busy", 1);
            job.reply.send(&Response::Busy);
        }
        Err((job, PushError::Closed)) => {
            shared.admission.refund(lane, cost);
            job.reply.send(&Response::ShuttingDown);
        }
    }
}

/// `(trial, code, subject)` association count per owned slot — the
/// shard balance signal (`serve.shard_entries` histogram at startup).
/// Computed by one walk over the table's codes; entries outside the owned
/// range are not counted, matching what probes can reach.
fn slot_entry_counts(mapper: &JemMapper, filter: &CodeFilter) -> Vec<usize> {
    let owned = filter.owned();
    let mut counts = vec![0usize; owned.len()];
    mapper.table().for_each_code(|code, n| {
        let slot = filter.slot_of(code);
        if owned.contains(&slot) {
            counts[slot - owned.start] += n;
        }
    });
    counts
}

/// Run one reload on its own thread: load + validate the new index, then
/// atomically bump the epoch; the server keeps its filter. In-flight
/// batches keep their pinned old epoch; a failed load answers `Error` and
/// leaves the old index serving. `load_index_path` memory-maps JEMIDX v6
/// artifacts (zero posting-arena copy; hot reload is a remap), reads them
/// into an owned buffer on non-mmap platforms, and refuses a legacy v3,
/// v4 or v5 file at its magic with an error naming `jem index
/// --upgrade`. Header/checksum validation happens before the
/// mapper is built, so a truncated or corrupt artifact is a typed error
/// here — never a panic, never a swap.
fn spawn_reload(shared: Arc<Shared>, reply: Reply, path: String) {
    std::thread::spawn(move || {
        let resp = match jem_core::load_index_path(std::path::Path::new(&path)) {
            Ok(mapper) => {
                let subjects = mapper.n_subjects();
                let entries: usize = slot_entry_counts(&mapper, &shared.filter).iter().sum();
                let new_id = {
                    let mut e = shared.epoch.write().expect("epoch lock poisoned");
                    e.id += 1;
                    e.mapper = Arc::new(mapper);
                    e.id
                };
                shared.recorder.add("serve.reloads", 1);
                Response::Reloaded(format!(
                    "epoch {new_id}: {subjects} subjects, {entries} sketch entries from {path}"
                ))
            }
            Err(e) => {
                shared.recorder.add("serve.reload_errors", 1);
                Response::Error(format!("reload {path}: {e}"))
            }
        };
        reply.send(&resp);
    });
}

/// How a worker thread ended: cleanly (queue closed and drained) or by
/// panicking out of its request loop.
struct WorkerExit {
    id: usize,
    panicked: bool,
}

fn spawn_worker(
    id: usize,
    shared: &Arc<Shared>,
    exits: mpsc::Sender<WorkerExit>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let panicked = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))).is_err();
        let _ = exits.send(WorkerExit { id, panicked });
    })
}

/// The supervisor: spawn the pool, then babysit it. A worker that exits
/// cleanly is done (shutdown drain); a worker that panicked already failed
/// its in-flight batch via [`BatchGuard`], so the supervisor only has to
/// count the panic and respawn a replacement — pool capacity never decays,
/// and a panic during the shutdown drain still leaves enough workers to
/// answer everything admitted.
fn supervise(shared: &Arc<Shared>, workers: usize) {
    let (tx, rx) = mpsc::channel::<WorkerExit>();
    let mut handles: Vec<Option<JoinHandle<()>>> = (0..workers)
        .map(|id| Some(spawn_worker(id, shared, tx.clone())))
        .collect();
    let mut alive = workers;
    while alive > 0 {
        // The supervisor keeps a sender, so recv can only fail if
        // something impossible happened; treat it as a full stop.
        let Ok(exit) = rx.recv() else { break };
        if let Some(handle) = handles[exit.id].take() {
            let _ = handle.join();
        }
        if exit.panicked {
            shared.recorder.add("serve.worker_panic", 1);
            shared.recorder.add("serve.worker_respawns", 1);
            handles[exit.id] = Some(spawn_worker(exit.id, shared, tx.clone()));
        } else {
            shared.recorder.add("serve.worker_clean_exits", 1);
            alive -= 1;
        }
    }
}

/// Panic insurance for one index pass: holds the reply handles of every
/// job in the batch. If the pass unwinds, the guard's drop (running during
/// the unwind) answers each client still owed an answer with a typed
/// `Error` frame — a worker panic costs the batch an error reply, never a
/// hung client.
struct BatchGuard<'a> {
    replies: Vec<Reply>,
    recorder: &'a MetricsRecorder,
    armed: bool,
}

impl<'a> BatchGuard<'a> {
    fn arm(jobs: &[Job], recorder: &'a MetricsRecorder) -> Self {
        BatchGuard {
            replies: jobs.iter().map(|j| j.reply.clone()).collect(),
            recorder,
            armed: true,
        }
    }

    /// The pass completed; replies were written normally.
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if !self.armed || !std::thread::panicking() {
            return;
        }
        let resp = Response::Error("internal error: worker panicked on this batch".into());
        for reply in &self.replies {
            reply.send(&resp);
        }
        self.recorder
            .add("serve.panic_failed_requests", self.replies.len() as u64);
    }
}

fn worker_loop(shared: &Shared) {
    let recorder = &*shared.recorder;
    // One counter per epoch for the whole worker lifetime: the lazy
    // strategy makes cross-batch reuse free as long as query ids keep
    // increasing. A reload means a new subject universe, so the counter
    // (sized by subject count) is rebuilt when the pinned epoch changes.
    let mut epoch_id = u64::MAX;
    let mut counter = None;
    let mut qid_base = 0u64;
    // One sketching/lookup scratch for the worker lifetime — unlike the
    // counter it is index-agnostic (buffers are sized by sequence content),
    // so it survives epoch changes.
    let mut scratch = MapScratch::new();
    loop {
        let jobs = shared.queue.pop_batch(shared.batch);
        if jobs.is_empty() {
            return; // queue closed and drained
        }
        let (eid, mapper) = shared.pin_epoch();
        if eid != epoch_id || counter.is_none() {
            counter = Some(mapper.new_counter());
            epoch_id = eid;
            qid_base = 0;
        }
        let counter = counter.as_mut().expect("counter initialized above");
        if shared.straggle_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.straggle_ms));
        }
        // Deadline shedding: a request whose budget ran out while queued
        // gets `Expired` immediately — no index pass is spent on an answer
        // nobody is waiting for anymore.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.expires.is_some_and(|t| t <= now) {
                recorder.add("serve.shed", 1);
                job.reply.send(&Response::Expired);
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        let ordinal = shared.batch_ordinal.fetch_add(1, Ordering::Relaxed) + 1;
        let _pass = Span::enter(recorder as &dyn Recorder, "serve/batch");
        let n_segments: usize = live.iter().map(|j| j.segments.len()).sum();
        recorder.observe("serve.batch_jobs", live.len() as u64);
        recorder.observe("serve.batch_segments", n_segments as u64);
        let guard = BatchGuard::arm(&live, recorder);
        if shared.panic_every > 0 && ordinal % shared.panic_every == 0 {
            panic!("injected chaos panic (index pass {ordinal})");
        }
        for job in live {
            let resp = match job.kind {
                JobKind::Map => {
                    let mut mappings = Vec::new();
                    mapper.map_batch(
                        &job.segments,
                        qid_base,
                        &shared.filter,
                        counter,
                        &mut scratch,
                        &mut mappings,
                    );
                    qid_base += job.segments.len() as u64;
                    // The documented total order on `Mapping` — same
                    // normalization as the offline parallel driver.
                    mappings.sort_unstable();
                    recorder.add("serve.mapped", mappings.len() as u64);
                    Response::Mappings(mappings)
                }
                // Partials echo each segment's identity and rank with the
                // scratch's own counter (the router's merge is the real
                // one), so they consume none of this counter's query ids.
                JobKind::Partial => Response::Partials(
                    job.segments
                        .iter()
                        .map(|seg| SegmentPartials {
                            read_idx: seg.read_idx,
                            end: seg.end,
                            trials: mapper.config().trials,
                            hits: mapper.segment_partials(&seg.seq, &shared.filter, &mut scratch),
                        })
                        .collect(),
                ),
            };
            recorder.add("serve.requests", 1);
            recorder.add("serve.segments", job.segments.len() as u64);
            job.reply.send(&resp);
            let latency = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
            recorder.span_ns("serve/request", latency);
        }
        guard.disarm();
        let stats = counter.stats.take();
        recorder.add("serve.collisions_probed", stats.probed);
        recorder.add("serve.lazy_resets", stats.lazy_resets);
        recorder.add("serve.resets_skipped", stats.resets_skipped);
        recorder.add("serve.ties", stats.ties);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_core::MapperConfig;
    use jem_seq::SeqRecord;
    use jem_sim::Genome;

    /// Splitting the slot space into pieces loses and duplicates no entry:
    /// the whole space as one piece, one slot, and far more slots than the
    /// table has distinct codes, where pieces hold few entries or none.
    #[test]
    fn slot_pieces_partition_the_table_exactly() {
        let subjects: Vec<SeqRecord> = (0..6)
            .map(|i| SeqRecord::new(format!("c{i}"), Genome::random(4000, 0.5, i).seq))
            .collect();
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials: 8,
            ell: 300,
            seed: 5,
        };
        let mapper = JemMapper::build(&subjects, &config);
        let total = mapper.table().entry_count();
        for (n_slots, cuts) in [
            (1usize, vec![0usize, 1]),
            (4, vec![0, 4]),
            (4, vec![0, 1, 4]),
            (256, vec![0, 3, 64, 256]),
        ] {
            let mut sum = 0usize;
            for pair in cuts.windows(2) {
                let filter = CodeFilter::slots(n_slots, pair[0]..pair[1]);
                let counts = slot_entry_counts(&mapper, &filter);
                assert_eq!(counts.len(), pair[1] - pair[0]);
                sum += counts.iter().sum::<usize>();
            }
            assert_eq!(sum, total, "{n_slots} slots split at {cuts:?}");
        }
    }
}
