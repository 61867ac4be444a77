//! The `jem-serve` wire protocol: length-prefixed, checksummed binary
//! frames carrying typed request/response messages.
//!
//! Frame layout (all integers little-endian; see DESIGN.md §10):
//!
//! ```text
//! magic  b"JEMSRV5!"             8 bytes
//! body_len (bytes)        u64   (capped at MAX_BODY)
//! checksum_bytes(body)    u64
//! body
//! ```
//!
//! Every request body is an [`Envelope`] followed by the request:
//!
//! ```text
//! client_id_len           u64   (0 = anonymous, at most MAX_CLIENT_ID)
//! client_id               client_id_len bytes of UTF-8
//! deadline_ms             u64   (u64::MAX = no deadline)
//! tag                     u64
//! payload                 tag-specific
//! ```
//!
//! A response body is its tag and payload. [`Request::decode`] returns the
//! envelope and the request together, so an envelope is never nested.
//!
//! There is one revision. A frame with any other magic, including the
//! retired `JEMSRV1\0`, `JEMSRV2\0`, `JEMSRV3!` and `JEMSRV4\0`, is refused
//! at the magic, before any body byte is read as a request. The magic
//! differs from each retired one in at least two bits: the checksum covers
//! only the body, so a single-bit transit error must not turn an old frame
//! into a current one.
//!
//! The body checksum is [`jem_index::checksum_bytes`], the multi-lane word
//! checksum the index files use: any byte-level damage in transit is a
//! decode error, never a panic or a garbled mapping.

use crate::ServeError;
use jem_core::config::{config_from_words, config_words, CONFIG_WORDS};
use jem_core::{MapperConfig, Mapping, QuerySegment, ReadEnd};
use jem_index::{checksum_bytes, SubjectId};
use jem_sketch::SketchScheme;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The frame magic.
pub const MAGIC: &[u8; 8] = b"JEMSRV5!";

/// Longest client id an [`Envelope`] may carry. Ids feed a bounded
/// per-client bucket map, so the bound is hygiene, not capacity.
pub const MAX_CLIENT_ID: usize = 128;

/// Deadline word meaning "no deadline".
const NO_DEADLINE: u64 = u64::MAX;

/// Upper bound on a frame body. Frames are decoded into memory, so the
/// bound is what stops a hostile or corrupt length word from driving an
/// unbounded allocation (1 GiB comfortably holds any real segment batch).
pub const MAX_BODY: u64 = 1 << 30;

/// Who is asking and how long they will wait: the head of every request
/// body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Envelope {
    /// Caller-chosen identity, at most [`MAX_CLIENT_ID`] bytes. It keys
    /// per-client admission quotas and fair-queue lanes; the empty id is
    /// anonymous and rides the shared anonymous lane.
    pub client_id: String,
    /// Time budget in milliseconds, measured by the server from admission:
    /// a mapping request still queued when its budget has elapsed is shed
    /// with [`Response::Expired`] instead of burning a worker on an answer
    /// nobody is waiting for. `None` never expires.
    pub deadline_ms: Option<u64>,
}

/// A deadline budget in envelope milliseconds: sub-millisecond budgets
/// round up to 1 ms (0 would already have expired), and a huge one stops
/// short of the "no deadline" word.
pub(crate) fn budget_ms(budget: Duration) -> u64 {
    u64::try_from(budget.as_millis())
        .unwrap_or(u64::MAX)
        .clamp(1, NO_DEADLINE - 1)
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; the server answers [`Response::Pong`] inline.
    Ping,
    /// Ask for the served index's parameters and subject names.
    Info,
    /// Map a batch of query end segments.
    Map {
        /// The segments to map (client-side `read_idx`/`end` are echoed
        /// back in the mappings).
        segments: Vec<QuerySegment>,
    },
    /// Begin a graceful shutdown: the server stops accepting, drains
    /// queued work, flushes metrics, and exits.
    Shutdown,
    /// Ask the server to load, validate, and atomically swap in the index
    /// persisted at `path` (a server-local path). In-flight batches finish
    /// on the old index; a failed load leaves the old index serving.
    Reload {
        /// Server-local filesystem path of the persisted index.
        path: String,
    },
    /// Map a batch of segments but return each colliding subject with its
    /// trial mask instead of the argmax — the shard half of a router
    /// scatter-gather. Masks from disjoint slot ranges OR associatively,
    /// which is what makes the router's merge byte-exact.
    MapPartial {
        /// The segments to sketch and probe.
        segments: Vec<QuerySegment>,
    },
    /// Map a batch through a router front-end, accepting a
    /// [`Response::Degraded`] answer when shards are unavailable. A plain
    /// [`Request::Map`] to a router is strict: any missing shard fails the
    /// whole query with a typed error naming the gaps.
    MapDegraded {
        /// The segments to map.
        segments: Vec<QuerySegment>,
    },
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Info`].
    Info(ServerInfo),
    /// Answer to [`Request::Map`]: the batch's mappings, in the total
    /// order documented on [`Mapping`].
    Mappings(Vec<Mapping>),
    /// The bounded request queue is full — try again later (backpressure;
    /// the server never buffers unboundedly).
    Busy,
    /// The request was malformed or failed; human-readable reason.
    Error(String),
    /// Acknowledges [`Request::Shutdown`].
    ShuttingDown,
    /// The request's deadline elapsed while it was queued; it was shed
    /// without mapping.
    Expired,
    /// Acknowledges a successful [`Request::Reload`]; carries a
    /// human-readable summary of the new index.
    Reloaded(String),
    /// Answer to [`Request::MapPartial`]: one [`SegmentPartials`] per
    /// requested segment, in request order, echoing each segment's
    /// identity.
    Partials(Vec<SegmentPartials>),
    /// Answer to [`Request::MapDegraded`] when some shards were
    /// unavailable: the best mappings derivable from the shards that did
    /// answer, plus the exact ids of the shards that are missing from the
    /// merge. A fully healthy gather answers [`Response::Mappings`]
    /// instead.
    Degraded {
        /// Mappings merged from the surviving shards, in the total order
        /// documented on [`Mapping`].
        mappings: Vec<Mapping>,
        /// Registry ids of the shards missing from the merge (sorted,
        /// deduplicated, never empty).
        missing: Vec<u32>,
    },
    /// The client's admission quota is exhausted — anonymous clients share
    /// one quota. Distinct from `Busy`: the server has capacity, but *this
    /// client* is over its rate, and the hint says when its bucket will
    /// afford the retry.
    Throttled {
        /// Milliseconds until the client's token bucket can afford the
        /// rejected request.
        retry_after_ms: u64,
    },
}

/// One segment's share of a shard's sketch-table probe: every subject the
/// segment collides with through codes in that shard's slot range, once,
/// with the trial mask of those collisions.
///
/// This is the largest unit that still merges exactly: every code lives in
/// one slot, so masks from disjoint slot ranges OR — associatively,
/// commutatively, idempotently — into the masks the whole table yields,
/// and the lazy-counter argmax (most trials, ties to the smaller subject
/// id) is a pure function of the OR. A router can therefore gather these
/// from independent shard processes in any order and reproduce the
/// single-process answer byte for byte. Summed per-shard *counts* would
/// not merge (one subject can collide on the same trial through different
/// codes on different shards).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentPartials {
    /// Echo of the requested segment's read index.
    pub read_idx: u32,
    /// Echo of the requested segment's end.
    pub end: ReadEnd,
    /// The trial count `T` of the shard's index.
    pub trials: usize,
    /// Each colliding subject once, ascending, with its `⌈T/32⌉` trial-mask
    /// words (bit `t % 32` of word `t / 32` is trial `t`).
    pub hits: Vec<(SubjectId, Vec<u32>)>,
}

/// What a server tells clients about the index it serves.
///
/// Carries everything `jem query` needs to segment reads identically to
/// the offline driver (`ell`) and to render the same TSV (names, trials).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// The mapper configuration of the loaded index.
    pub config: MapperConfig,
    /// The sketch-position scheme of the loaded index.
    pub scheme: SketchScheme,
    /// Subject (contig) names, indexed by subject id.
    pub subject_names: Vec<String>,
    /// Number of shards the sketch table is partitioned into.
    pub shards: usize,
    /// Max segments a worker folds into one index pass.
    pub batch: usize,
}

// --- tag values ---------------------------------------------------------

const REQ_PING: u64 = 0;
const REQ_INFO: u64 = 1;
const REQ_MAP: u64 = 2;
const REQ_SHUTDOWN: u64 = 3;
const REQ_RELOAD: u64 = 4;
const REQ_MAP_PARTIAL: u64 = 5;
const REQ_MAP_DEGRADED: u64 = 6;

const RESP_PONG: u64 = 0;
const RESP_INFO: u64 = 1;
const RESP_MAPPINGS: u64 = 2;
const RESP_BUSY: u64 = 3;
const RESP_ERROR: u64 = 4;
const RESP_SHUTTING_DOWN: u64 = 5;
const RESP_EXPIRED: u64 = 6;
const RESP_RELOADED: u64 = 7;
// Tag 8 carried per-trial collision sets and is retired: it decodes as an
// unknown tag, so builds that disagree on the partials' shape fail loudly.
const RESP_DEGRADED: u64 = 9;
const RESP_THROTTLED: u64 = 10;
const RESP_PARTIALS: u64 = 11;

// --- body primitives ----------------------------------------------------

fn put_u64(body: &mut Vec<u8>, v: u64) {
    body.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(body: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(body, bytes.len() as u64);
    body.extend_from_slice(bytes);
}

/// Cursor over a received body; every read is bounds-checked so a
/// malformed body is an error, never a panic.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Cursor { body, at: 0 }
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        let end = self.at + 8;
        let bytes = self
            .body
            .get(self.at..end)
            .ok_or_else(|| ServeError::protocol("body truncated reading u64"))?;
        self.at = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> Result<usize, ServeError> {
        usize::try_from(self.u64()?).map_err(|_| ServeError::protocol("length overflows usize"))
    }

    fn bytes(&mut self) -> Result<&'a [u8], ServeError> {
        let len = self.usize()?;
        let end = self
            .at
            .checked_add(len)
            .ok_or_else(|| ServeError::protocol("length overflows body"))?;
        let bytes = self
            .body
            .get(self.at..end)
            .ok_or_else(|| ServeError::protocol("body truncated reading bytes"))?;
        self.at = end;
        Ok(bytes)
    }

    fn string(&mut self) -> Result<String, ServeError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| ServeError::protocol("string is not UTF-8"))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ServeError> {
        u32::try_from(self.u64()?)
            .map_err(|_| ServeError::protocol(format!("{what} overflows u32")))
    }

    fn finish(self) -> Result<(), ServeError> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(ServeError::protocol("trailing garbage after message body"))
        }
    }
}

/// Encode a mapping batch: count, then four words per mapping.
fn put_mappings(body: &mut Vec<u8>, mappings: &[Mapping]) {
    put_u64(body, mappings.len() as u64);
    for m in mappings {
        put_u64(body, u64::from(m.read_idx));
        put_u64(body, end_code(m.end));
        put_u64(body, u64::from(m.subject));
        put_u64(body, u64::from(m.hits));
    }
}

/// Decode a mapping batch written by [`put_mappings`].
fn read_mappings(c: &mut Cursor<'_>, body_len: usize) -> Result<Vec<Mapping>, ServeError> {
    let n = c.usize()?;
    let mut mappings = Vec::with_capacity(n.min(body_len / 32 + 1));
    for _ in 0..n {
        mappings.push(Mapping {
            read_idx: c.u32("read_idx")?,
            end: decode_end(c.u64()?)?,
            subject: c.u32("subject")?,
            hits: c.u32("hits")?,
        });
    }
    Ok(mappings)
}

/// Encode a segment batch: count, then `(read_idx, end, seq)` triples.
fn put_segments(body: &mut Vec<u8>, segments: &[QuerySegment]) {
    put_u64(body, segments.len() as u64);
    for seg in segments {
        put_u64(body, u64::from(seg.read_idx));
        put_u64(body, end_code(seg.end));
        put_bytes(body, &seg.seq);
    }
}

/// Decode a segment batch written by [`put_segments`]. `body_len` bounds
/// the defensive pre-allocation (a lying count word must not drive it).
fn read_segments(c: &mut Cursor<'_>, body_len: usize) -> Result<Vec<QuerySegment>, ServeError> {
    let n = c.usize()?;
    // Sized by what the body can actually hold, not the header.
    let mut segments = Vec::with_capacity(n.min(body_len / 24 + 1));
    for _ in 0..n {
        segments.push(QuerySegment {
            read_idx: c.u32("read_idx")?,
            end: decode_end(c.u64()?)?,
            seq: c.bytes()?.to_vec(),
        });
    }
    Ok(segments)
}

fn end_code(end: ReadEnd) -> u64 {
    match end {
        ReadEnd::Prefix => 0,
        ReadEnd::Suffix => 1,
    }
}

fn decode_end(code: u64) -> Result<ReadEnd, ServeError> {
    match code {
        0 => Ok(ReadEnd::Prefix),
        1 => Ok(ReadEnd::Suffix),
        other => Err(ServeError::protocol(format!("unknown read end {other}"))),
    }
}

// --- message encoding ---------------------------------------------------

impl Request {
    /// Serialize `envelope` and this request into one frame body.
    pub fn encode(&self, envelope: &Envelope) -> Vec<u8> {
        let mut body = Vec::new();
        put_bytes(&mut body, envelope.client_id.as_bytes());
        put_u64(
            &mut body,
            envelope
                .deadline_ms
                .map_or(NO_DEADLINE, |ms| ms.min(NO_DEADLINE - 1)),
        );
        match self {
            Request::Ping => put_u64(&mut body, REQ_PING),
            Request::Info => put_u64(&mut body, REQ_INFO),
            Request::Shutdown => put_u64(&mut body, REQ_SHUTDOWN),
            Request::Reload { path } => {
                put_u64(&mut body, REQ_RELOAD);
                put_bytes(&mut body, path.as_bytes());
            }
            Request::Map { segments } => {
                put_u64(&mut body, REQ_MAP);
                put_segments(&mut body, segments);
            }
            Request::MapPartial { segments } => {
                put_u64(&mut body, REQ_MAP_PARTIAL);
                put_segments(&mut body, segments);
            }
            Request::MapDegraded { segments } => {
                put_u64(&mut body, REQ_MAP_DEGRADED);
                put_segments(&mut body, segments);
            }
        }
        body
    }

    /// Deserialize a request frame body into its envelope and request.
    pub fn decode(body: &[u8]) -> Result<(Envelope, Request), ServeError> {
        let mut c = Cursor::new(body);
        let client_id = c.string()?;
        if client_id.len() > MAX_CLIENT_ID {
            return Err(ServeError::protocol(format!(
                "client id of {} bytes exceeds the {MAX_CLIENT_ID}-byte bound",
                client_id.len()
            )));
        }
        let envelope = Envelope {
            client_id,
            deadline_ms: match c.u64()? {
                NO_DEADLINE => None,
                ms => Some(ms),
            },
        };
        let req = match c.u64()? {
            REQ_PING => Request::Ping,
            REQ_INFO => Request::Info,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_RELOAD => Request::Reload { path: c.string()? },
            REQ_MAP => Request::Map {
                segments: read_segments(&mut c, body.len())?,
            },
            REQ_MAP_PARTIAL => Request::MapPartial {
                segments: read_segments(&mut c, body.len())?,
            },
            REQ_MAP_DEGRADED => Request::MapDegraded {
                segments: read_segments(&mut c, body.len())?,
            },
            other => return Err(ServeError::protocol(format!("unknown request tag {other}"))),
        };
        c.finish()?;
        Ok((envelope, req))
    }
}

impl Response {
    /// Serialize to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Response::Pong => put_u64(&mut body, RESP_PONG),
            Response::Busy => put_u64(&mut body, RESP_BUSY),
            Response::ShuttingDown => put_u64(&mut body, RESP_SHUTTING_DOWN),
            Response::Expired => put_u64(&mut body, RESP_EXPIRED),
            Response::Error(msg) => {
                put_u64(&mut body, RESP_ERROR);
                put_bytes(&mut body, msg.as_bytes());
            }
            Response::Reloaded(msg) => {
                put_u64(&mut body, RESP_RELOADED);
                put_bytes(&mut body, msg.as_bytes());
            }
            Response::Throttled { retry_after_ms } => {
                put_u64(&mut body, RESP_THROTTLED);
                put_u64(&mut body, *retry_after_ms);
            }
            Response::Mappings(mappings) => {
                put_u64(&mut body, RESP_MAPPINGS);
                put_mappings(&mut body, mappings);
            }
            Response::Partials(partials) => {
                put_u64(&mut body, RESP_PARTIALS);
                put_u64(&mut body, partials.len() as u64);
                for p in partials {
                    put_u64(&mut body, u64::from(p.read_idx));
                    put_u64(&mut body, end_code(p.end));
                    put_u64(&mut body, p.trials as u64);
                    put_u64(&mut body, p.hits.len() as u64);
                    for (subject, mask) in &p.hits {
                        put_u64(&mut body, u64::from(*subject));
                        put_u64(&mut body, mask.len() as u64);
                        for &word in mask {
                            put_u64(&mut body, u64::from(word));
                        }
                    }
                }
            }
            Response::Degraded { mappings, missing } => {
                put_u64(&mut body, RESP_DEGRADED);
                put_mappings(&mut body, mappings);
                put_u64(&mut body, missing.len() as u64);
                for &id in missing {
                    put_u64(&mut body, u64::from(id));
                }
            }
            Response::Info(info) => {
                put_u64(&mut body, RESP_INFO);
                for word in config_words(&info.config, info.scheme) {
                    put_u64(&mut body, word);
                }
                put_u64(&mut body, info.shards as u64);
                put_u64(&mut body, info.batch as u64);
                put_u64(&mut body, info.subject_names.len() as u64);
                for name in &info.subject_names {
                    put_bytes(&mut body, name.as_bytes());
                }
            }
        }
        body
    }

    /// Deserialize a response frame body.
    pub fn decode(body: &[u8]) -> Result<Response, ServeError> {
        let mut c = Cursor::new(body);
        let resp = match c.u64()? {
            RESP_PONG => Response::Pong,
            RESP_BUSY => Response::Busy,
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_EXPIRED => Response::Expired,
            RESP_ERROR => Response::Error(c.string()?),
            RESP_RELOADED => Response::Reloaded(c.string()?),
            RESP_THROTTLED => Response::Throttled {
                retry_after_ms: c.u64()?,
            },
            RESP_MAPPINGS => Response::Mappings(read_mappings(&mut c, body.len())?),
            RESP_PARTIALS => {
                let n = c.usize()?;
                // Every partial costs at least four body words, every hit
                // two.
                let mut partials = Vec::with_capacity(n.min(body.len() / 32 + 1));
                for _ in 0..n {
                    let read_idx = c.u32("read_idx")?;
                    let end = decode_end(c.u64()?)?;
                    let trials = c.usize()?;
                    let n_hits = c.usize()?;
                    let mut hits = Vec::with_capacity(n_hits.min(body.len() / 16 + 1));
                    for _ in 0..n_hits {
                        let subject = c.u32("subject")?;
                        let words = c.usize()?;
                        let mut mask = Vec::with_capacity(words.min(body.len() / 8 + 1));
                        for _ in 0..words {
                            mask.push(c.u32("mask word")?);
                        }
                        hits.push((subject, mask));
                    }
                    partials.push(SegmentPartials {
                        read_idx,
                        end,
                        trials,
                        hits,
                    });
                }
                Response::Partials(partials)
            }
            RESP_DEGRADED => {
                let mappings = read_mappings(&mut c, body.len())?;
                let n = c.usize()?;
                let mut missing = Vec::with_capacity(n.min(body.len() / 8 + 1));
                for _ in 0..n {
                    missing.push(c.u32("shard id")?);
                }
                Response::Degraded { mappings, missing }
            }
            RESP_INFO => {
                let mut words = [0u64; CONFIG_WORDS];
                for word in &mut words {
                    *word = c.u64()?;
                }
                let (config, scheme) = config_from_words(&words).map_err(|e| {
                    ServeError::protocol(format!("Info announces an invalid configuration: {e}"))
                })?;
                let shards = c.usize()?;
                let batch = c.usize()?;
                let n = c.usize()?;
                let mut subject_names = Vec::with_capacity(n.min(body.len() / 8 + 1));
                for _ in 0..n {
                    subject_names.push(c.string()?);
                }
                Response::Info(ServerInfo {
                    config,
                    scheme,
                    subject_names,
                    shards,
                    batch,
                })
            }
            other => {
                return Err(ServeError::protocol(format!(
                    "unknown response tag {other}"
                )))
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

// --- frame transport ----------------------------------------------------

/// Write one frame (magic, length, checksum, body) to `out`.
pub fn write_frame<W: Write>(out: &mut W, body: &[u8]) -> std::io::Result<()> {
    // One write per frame: on a socket, a frame split over several writes
    // can sit behind the peer's delayed ACK.
    let mut frame = Vec::with_capacity(24 + body.len());
    frame.extend_from_slice(MAGIC);
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    frame.extend_from_slice(&checksum_bytes(body).to_le_bytes());
    frame.extend_from_slice(body);
    out.write_all(&frame)?;
    out.flush()
}

/// Open a connection for frame exchange with `addr` (`host:port`,
/// resolved here): connect within `timeout`, bound every read and write by
/// it, and disable Nagle's algorithm — a kept-alive connection's next
/// request must not wait for the peer to ACK the last reply.
pub(crate) fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, ServeError> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| ServeError::protocol(format!("address {addr:?} resolves to nothing")))?;
    let conn = TcpStream::connect_timeout(&resolved, timeout)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    Ok(conn)
}

/// One round trip on `conn`: send an encoded request body, then read and
/// decode the response frame.
pub(crate) fn roundtrip(conn: &mut TcpStream, body: &[u8]) -> Result<Response, ServeError> {
    write_frame(conn, body)?;
    Response::decode(&read_frame(conn)?)
}

/// Accept one connection, with Nagle's algorithm disabled as in
/// [`connect`].
pub(crate) fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (conn, _) = listener.accept()?;
    conn.set_nodelay(true)?;
    Ok(conn)
}

/// Read one frame from `input`, verifying magic, length bound and
/// checksum. Never panics on malformed input; never allocates more than
/// the peer actually sent (the declared length only bounds the read).
pub fn read_frame<R: Read>(input: &mut R) -> Result<Vec<u8>, ServeError> {
    let mut header = [0u8; 24];
    input.read_exact(&mut header)?;
    if &header[..8] != MAGIC {
        return Err(ServeError::protocol("bad frame magic"));
    }
    let body_len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let declared = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if body_len > MAX_BODY {
        return Err(ServeError::protocol(format!(
            "frame body of {body_len} bytes exceeds the {MAX_BODY}-byte bound"
        )));
    }
    let mut body = Vec::new();
    input.take(body_len).read_to_end(&mut body)?;
    if body.len() as u64 != body_len {
        return Err(ServeError::protocol(format!(
            "frame truncated: header declares {body_len} body bytes, got {}",
            body.len()
        )));
    }
    let computed = checksum_bytes(&body);
    if computed != declared {
        return Err(ServeError::protocol(format!(
            "frame checksum mismatch: declared {declared:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The magics of the retired revisions, plus the naive `\0`-padded
    /// spelling of the third: none may ever be accepted.
    const RETIRED: [&[u8; 8]; 5] = [
        b"JEMSRV1\0",
        b"JEMSRV2\0",
        b"JEMSRV3!",
        b"JEMSRV3\0",
        b"JEMSRV4\0",
    ];

    fn segment(read_idx: u32, end: ReadEnd, seq: &[u8]) -> QuerySegment {
        QuerySegment {
            read_idx,
            end,
            seq: seq.to_vec(),
        }
    }

    /// One request of every variant.
    fn every_request() -> Vec<Request> {
        let segments = vec![
            segment(0, ReadEnd::Prefix, b"ACGTACGT"),
            segment(7, ReadEnd::Suffix, b""),
        ];
        vec![
            Request::Ping,
            Request::Info,
            Request::Shutdown,
            Request::Reload {
                path: "/tmp/new-index.jem".into(),
            },
            Request::Map {
                segments: segments.clone(),
            },
            Request::MapPartial {
                segments: segments[..1].to_vec(),
            },
            Request::MapDegraded {
                segments: Vec::new(),
            },
        ]
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, body).unwrap();
        wire
    }

    #[test]
    fn each_frame_is_one_write_with_unchanged_bytes() {
        let body = Request::Ping.encode(&Envelope::default());
        let mut w = CountingWriter::default();
        write_frame(&mut w, &body).unwrap();
        assert_eq!(w.writes, 1);
        let mut expect = MAGIC.to_vec();
        expect.extend_from_slice(&(body.len() as u64).to_le_bytes());
        expect.extend_from_slice(&checksum_bytes(&body).to_le_bytes());
        expect.extend_from_slice(&body);
        assert_eq!(w.bytes, expect);
    }

    /// Every socket of the tier — client, router-to-shard, and both front
    /// doors — is opened by `connect` or `accept`.
    #[test]
    fn connected_and_accepted_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let timeout = Duration::from_secs(5);
        let addr = listener.local_addr().unwrap().to_string();
        let client = connect(&addr, timeout).unwrap();
        let server = accept(&listener).unwrap();
        assert!(client.nodelay().unwrap());
        assert!(server.nodelay().unwrap());
        assert_eq!(client.read_timeout().unwrap(), Some(timeout));
        assert_eq!(client.write_timeout().unwrap(), Some(timeout));
    }

    fn roundtrip_response(resp: Response) {
        let body = read_frame(&mut frame(&resp.encode()).as_slice()).unwrap();
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    /// Every request variant × {anonymous, identified} × {no deadline,
    /// deadline}, with client ids of 0, 128 (the bound) and 129 bytes.
    #[test]
    fn requests_roundtrip() {
        for req in every_request() {
            for id_len in [0, MAX_CLIENT_ID, MAX_CLIENT_ID + 1] {
                for deadline_ms in [None, Some(0), Some(1500), Some(u64::MAX)] {
                    let envelope = Envelope {
                        client_id: "c".repeat(id_len),
                        deadline_ms,
                    };
                    let body = read_frame(&mut frame(&req.encode(&envelope)).as_slice()).unwrap();
                    let decoded = Request::decode(&body);
                    if id_len > MAX_CLIENT_ID {
                        let err = decoded.expect_err("an oversized id must be refused");
                        assert!(err.to_string().contains("bound"), "got: {err}");
                        continue;
                    }
                    // `u64::MAX` is the "none" sentinel, so the encoder
                    // clamps a real budget just below it.
                    let expect = Envelope {
                        deadline_ms: deadline_ms.map(|ms| ms.min(u64::MAX - 1)),
                        ..envelope
                    };
                    assert_eq!(decoded.unwrap(), (expect, req.clone()));
                }
            }
        }
    }

    #[test]
    fn budgets_round_up_to_a_millisecond_and_stop_short_of_the_sentinel() {
        assert_eq!(budget_ms(Duration::ZERO), 1);
        assert_eq!(budget_ms(Duration::from_micros(10)), 1);
        assert_eq!(budget_ms(Duration::from_millis(250)), 250);
        assert_eq!(budget_ms(Duration::MAX), NO_DEADLINE - 1);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Busy);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Expired);
        roundtrip_response(Response::Error("queue exploded".into()));
        roundtrip_response(Response::Reloaded("7 subjects, 812 entries".into()));
        roundtrip_response(Response::Throttled { retry_after_ms: 0 });
        roundtrip_response(Response::Throttled {
            retry_after_ms: 1234,
        });
        roundtrip_response(Response::Mappings(vec![Mapping {
            read_idx: 3,
            end: ReadEnd::Suffix,
            subject: 12,
            hits: 9,
        }]));
        roundtrip_response(Response::Info(ServerInfo {
            config: MapperConfig::default(),
            scheme: SketchScheme::ClosedSyncmer { s: 11 },
            subject_names: vec!["contig_0".into(), "contig_1".into()],
            shards: 8,
            batch: 16,
        }));
        roundtrip_response(Response::Partials(vec![
            SegmentPartials {
                read_idx: 2,
                end: ReadEnd::Prefix,
                trials: 40,
                hits: vec![(0, vec![0b101, 0]), (3, vec![0, 0xff]), (9, vec![1, 1])],
            },
            SegmentPartials {
                read_idx: 2,
                end: ReadEnd::Suffix,
                trials: 30,
                hits: Vec::new(),
            },
        ]));
        roundtrip_response(Response::Degraded {
            mappings: vec![Mapping {
                read_idx: 1,
                end: ReadEnd::Prefix,
                subject: 4,
                hits: 6,
            }],
            missing: vec![1, 3],
        });
        roundtrip_response(Response::Degraded {
            mappings: Vec::new(),
            missing: vec![0],
        });
    }

    /// An `Info` announcing a configuration no index can hold is refused
    /// as it is decoded, before a client segments anything by it.
    #[test]
    fn an_invalid_announced_configuration_fails_decode() {
        let info = Response::Info(ServerInfo {
            config: MapperConfig {
                trials: 0,
                ..MapperConfig::default()
            },
            scheme: SketchScheme::Minimizer { w: 100 },
            subject_names: vec!["contig_0".into()],
            shards: 1,
            batch: 16,
        });
        match Response::decode(&info.encode()) {
            Err(ServeError::Protocol(msg)) => {
                assert!(msg.contains("invalid configuration"), "got: {msg}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn every_frame_byte_flip_detected() {
        let req = Request::Map {
            segments: vec![segment(1, ReadEnd::Prefix, b"ACGT")],
        };
        for envelope in [
            Envelope::default(),
            Envelope {
                client_id: "greedy-7".into(),
                deadline_ms: Some(25),
            },
        ] {
            let wire = frame(&req.encode(&envelope));
            for i in 0..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 0x01;
                // Either the frame read fails (magic/length/checksum) or —
                // when a length-word flip pushes the declared length past
                // the bytes present — it is a truncation error. Decode is
                // never reached with a corrupt body.
                assert!(
                    read_frame(&mut bad.as_slice()).is_err(),
                    "flip of byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn garbage_bytes_rejected() {
        assert!(read_frame(&mut &b"GET / HTTP/1.1\r\n\r\n this is not jem"[..]).is_err());
        assert!(read_frame(&mut &b""[..]).is_err());
        assert!(read_frame(&mut &MAGIC[..]).is_err());
    }

    /// A frame from a build that spoke a retired revision is refused at
    /// the magic, however well-formed the rest of it is.
    #[test]
    fn retired_magics_are_refused() {
        let body = Request::Ping.encode(&Envelope::default());
        for magic in RETIRED {
            let mut wire = frame(&body);
            wire[..8].copy_from_slice(magic);
            let err = read_frame(&mut wire.as_slice()).unwrap_err();
            assert!(err.to_string().contains("bad frame magic"), "got: {err}");
        }
    }

    #[test]
    fn no_single_bit_flip_aliases_any_two_magics() {
        // The checksum covers only the body, so the magic must differ from
        // every retired one in at least two bits: a one-bit transit error
        // can then never turn an old frame into a current one.
        for retired in RETIRED {
            let bits: u32 = MAGIC
                .iter()
                .zip(retired.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            assert!(bits >= 2, "{retired:?}: {bits} differing bits");
        }
    }

    #[test]
    fn oversized_length_word_rejected_without_allocating() {
        let mut wire = MAGIC.to_vec();
        wire.extend_from_slice(&u64::MAX.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bound"), "got: {err}");
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut body = Vec::new();
        put_u64(&mut body, 999);
        assert!(Response::decode(&body).is_err());
        // The retired per-trial partials tag: a well-formed old answer
        // (one partial, one trial holding subject 4) is refused at its tag.
        let mut body = Vec::new();
        for word in [8u64, 1, 2, 0, 1, 1, 4] {
            put_u64(&mut body, word);
        }
        let err = Response::decode(&body).unwrap_err();
        assert!(
            err.to_string().contains("unknown response tag 8"),
            "got: {err}"
        );
        let mut body = Request::Ping.encode(&Envelope::default());
        let tag = body.len() - 8;
        body[tag..].copy_from_slice(&999u64.to_le_bytes());
        let err = Request::decode(&body).unwrap_err();
        assert!(
            err.to_string().contains("unknown request tag"),
            "got: {err}"
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut body = Request::Ping.encode(&Envelope::default());
        body.push(0);
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn malformed_envelopes_rejected() {
        // A client id that is not UTF-8.
        let mut body = Vec::new();
        put_bytes(&mut body, &[0xff, 0xfe]);
        put_u64(&mut body, NO_DEADLINE);
        put_u64(&mut body, REQ_PING);
        assert!(Request::decode(&body).is_err());
        // An id length that runs past the body.
        let mut body = Vec::new();
        put_u64(&mut body, 64);
        body.extend_from_slice(b"short");
        assert!(Request::decode(&body).is_err());
        // Every strict prefix of a valid body: the envelope alone is not a
        // request, and no cut decodes.
        let full = Request::Ping.encode(&Envelope {
            client_id: "alice".into(),
            deadline_ms: Some(9),
        });
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }
}
