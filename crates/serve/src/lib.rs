//! # jem-serve — resident sharded mapping service
//!
//! The offline pipeline (`jem index` → `jem map`) rebuilds or reloads the
//! sketch index for every invocation; for interactive triage and
//! map-on-demand workloads that load dominates. This crate keeps a
//! persisted index resident: [`server::start`] shares one loaded
//! [`jem_core::JemMapper`] read-only across a fixed worker pool, probing
//! only the codes its [`jem_core::CodeFilter`] owns, and serves mapping
//! requests over TCP with a length-prefixed, checksummed binary frame
//! protocol ([`protocol`], magic `JEMSRV5!`, one revision).
//!
//! Load-shedding is explicit: requests queue on per-client bounded lanes
//! ([`queue::FairQueue`]); when a client's lane is full the server answers
//! [`Response::Busy`] instead of buffering unboundedly. Workers batch up
//! to `batch` queued requests per index pass and reuse one lazy hit
//! counter across batches (the paper's O(1)-reset strategy is what makes
//! that reuse free). Shutdown — local via [`server::ServerHandle::shutdown`]
//! or remote via [`Request::Shutdown`] — drains every admitted request and
//! returns a final `jem-obs` metrics snapshot.
//!
//! Both tiers accept and read client connections through one ingress: one
//! accept loop with a connection cap, and one keep-alive connection loop
//! with idle reaping and in-order answers to pipelined requests.
//!
//! [`Client`] is the one way the tier sends a request: `jem query` and the
//! router's shard fetches both go through it. It keeps a few health-checked
//! keep-alive connections to its server, so a run of requests rides one
//! socket, and it retries an idempotent request at most once, on a fresh
//! connection. Server-side mappings are sorted into the total order documented on
//! [`jem_core::Mapping`], so a served batch renders byte-identically to the
//! offline `jem map` TSV; the workspace's differential oracle
//! (`tests/oracle.rs`) checks served and routed answers against the
//! paper's per-trial definition.
//!
//! For deployments too big (or too failure-prone) for one process, the
//! router tier ([`router`]) scatter-gathers each query across independent
//! shard servers, each owning a slice of the slot space
//! ([`jem_core::CodeFilter::slots`], [`registry::ShardRegistry`]): each
//! colliding subject's trial masks from disjoint slices OR back into
//! exactly the single-process answer ([`router::merge_partials`]). The router gates
//! unhealthy shards behind per-shard circuit breakers, hedges stragglers
//! to replicas, propagates deadline budgets, and — when shards are missing
//! — answers [`Response::Degraded`] naming exactly which ids its answer
//! lacks, so a partial answer is never mistaken for a full one.

pub mod admission;
pub mod chaos;
pub mod client;
mod ingress;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod router;
pub mod server;

pub use admission::{AdmissionControl, QuotaConfig};
pub use chaos::{ChaosAction, ChaosPlan, ChaosProxy};
pub use client::{Client, RetryPolicy};
pub use protocol::{
    read_frame, write_frame, Envelope, Request, Response, SegmentPartials, ServerInfo, MAGIC,
    MAX_BODY, MAX_CLIENT_ID,
};
pub use queue::{FairQueue, PushError};
pub use registry::{ShardRegistry, ShardSpec};
pub use router::{
    merge_partials, start_router, validate_partials, RouterConfig, RouterHandle, RouterReport,
};
pub use server::{start, ServerConfig, ServerHandle};

use std::fmt;

/// Errors of the serving layer, split by what the caller can do about
/// them: retry later ([`ServeError::Busy`]), fix the frame or connection
/// ([`ServeError::Protocol`], [`ServeError::Io`]), fix the configuration
/// ([`ServeError::Config`]), or read the server's reason
/// ([`ServeError::Remote`]).
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// Malformed frame or message body (bad magic, checksum mismatch,
    /// truncation, unknown tag).
    Protocol(String),
    /// The server's bounded queue was full — retry after a backoff.
    Busy,
    /// The request's deadline elapsed while it was queued; the server shed
    /// it without mapping. Retrying is pointless unless the caller extends
    /// (or drops) the deadline.
    Expired,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
    /// This client's admission quota is exhausted. Unlike
    /// [`ServeError::Busy`] (the *server* is saturated), the server has
    /// capacity but the caller is over its per-client rate; the hint says
    /// when its token bucket can afford the retry.
    Throttled {
        /// Server-computed wait until the rejected request would be
        /// admitted.
        retry_after: std::time::Duration,
    },
    /// The server answered with an error message.
    Remote(String),
    /// Invalid local configuration (zero workers/queue/batch/shards).
    Config(String),
}

impl ServeError {
    /// A [`ServeError::Protocol`] from any message-like value.
    pub(crate) fn protocol(msg: impl Into<String>) -> Self {
        ServeError::Protocol(msg.into())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Busy => write!(f, "server busy: request queue full, retry later"),
            ServeError::Expired => write!(
                f,
                "request deadline expired while queued; the server shed it"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Throttled { retry_after } => write!(
                f,
                "client quota exhausted: retry after {}ms",
                retry_after.as_millis()
            ),
            ServeError::Remote(msg) => write!(f, "server error: {msg}"),
            ServeError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_failure() {
        assert!(ServeError::Busy.to_string().contains("retry"));
        assert!(ServeError::Expired.to_string().contains("deadline"));
        let throttled = ServeError::Throttled {
            retry_after: std::time::Duration::from_millis(250),
        };
        assert!(throttled.to_string().contains("250ms"));
        assert!(throttled.to_string().contains("quota"));
        assert!(ServeError::protocol("bad magic")
            .to_string()
            .contains("bad magic"));
        assert!(ServeError::Remote("boom".into())
            .to_string()
            .contains("boom"));
        let io: ServeError = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert!(io.to_string().contains("slow"));
    }

    #[test]
    fn only_io_has_a_source() {
        use std::error::Error;
        let io: ServeError = std::io::Error::other("x").into();
        assert!(io.source().is_some());
        assert!(ServeError::Busy.source().is_none());
    }
}
