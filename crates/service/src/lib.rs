//! # sdlo-service
//!
//! Long-running **tile-advisor service** over the paper's stack-distance
//! machinery: programs come in over newline-delimited JSON, reuse analyses,
//! miss predictions and tile recommendations go back out.
//!
//! The analyze-once/query-many asymmetry is the whole point: building a
//! [`MissModel`](sdlo_core::model::MissModel) (reuse partitioning + symbolic
//! stack-distance computation) is expensive, while evaluating it for a
//! `(bounds, cache size)` instance is cheap. The engine therefore memoizes
//! built models in a sharded LRU cache keyed by the **canonical structural
//! hash** of the loop nest (`sdlo_ir::canon`), so every client asking about
//! a structurally identical nest — whatever its variable names or array
//! declaration order — is served from the same entry.
//!
//! Layers:
//!
//! * [`api`] — the versioned protocol layer: envelope, error vocabulary,
//!   routing, reply builders (the unified error envelope),
//! * [`ops`] — the op registry: one module per protocol op behind a common
//!   [`ops::ServiceOp`] trait; the registry table drives both dispatch and
//!   the `stats.ops` advertisement,
//! * [`engine`] — embeddable request handler (JSON in, JSON out),
//! * [`server`] — TCP transport, generic over a [`server::LineHandler`]
//!   (the engine here, the proxy in `sdlo-router`): a `poll(2)`-driven
//!   reactor multiplexing every connection onto one thread, bounded worker
//!   pool that survives panicking requests, explicit admission control
//!   (`overloaded`), per-connection write-buffer backpressure, per-line
//!   size caps, graceful drain on shutdown,
//! * [`client`] — minimal synchronous client,
//! * [`cache`] / [`metrics`] — the shared infrastructure behind both.

pub mod api;
pub mod cache;
pub mod client;
pub mod diskcache;
pub mod engine;
pub mod metrics;
pub mod ops;
mod poll;
pub mod server;

pub use api::{ApiError, ErrorKind, RoutingKey, PROTOCOL_VERSION};
pub use client::Client;
pub use diskcache::{DiskCache, DiskOutcome};
pub use engine::{Engine, EngineConfig};
pub use metrics::Metrics;
pub use server::{serve, ServerConfig, ServerHandle};
