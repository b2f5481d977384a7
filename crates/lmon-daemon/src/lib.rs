//! `lmon-daemon` — the persistent, multi-tenant launch service (`lmond`).
//!
//! The paper's LaunchMON is session-oriented: a tool process links the FE
//! API, launches, detaches, exits. That leaves two gaps this crate closes
//! (ROADMAP item 1):
//!
//! * **Amortized startup.** A long-lived service owns a pool of
//!   [`lmon_core::LmonFrontEnd`]s (engine up, virtual cluster warm) so a
//!   launch request pays none of the per-tool bring-up cost.
//! * **Multi-tenancy with admission control.** Many clients share the pool
//!   over a line-delimited control protocol ([`control`]) on a Unix socket
//!   and/or TCP listener. A launch storm degrades to *queueing* — bounded
//!   by [`admission::AdmissionQueue`] — rather than fd/allocation
//!   exhaustion, which is exactly the §2 failure mode (the ≈504-session
//!   rsh cliff) moved up one layer and handled on purpose.
//!
//! The daemon is *lazy-started*: the first client that finds no daemon
//! becomes it, with the socket bind as the race-deciding mutex
//! ([`client::connect_or_start`]). Observability is a text `/metrics`
//! endpoint in Prometheus exposition format ([`metrics`]), exporting
//! transport, admission, and health-ledger counters.
//!
//! Layering: tier 3 (tools layer). Depends on the core FE/engine and the
//! RM shims; nothing in tiers 1–2 knows about it.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod control;
pub mod daemon;
pub mod error;
pub mod metrics;
pub mod responses;

pub use admission::{AdmissionError, AdmissionQueue, AdmissionStats, Permit};
#[cfg(unix)]
pub use client::connect_or_start;
pub use client::{DaemonClient, LazyStartOutcome};
pub use control::{ParseError, ParsedReply, Reply, Request};
#[cfg(unix)]
pub use daemon::bind_and_start;
pub use daemon::{start_daemon, Daemon, DaemonConfig, DaemonHandle, FailoverReport, FeShard};
pub use error::{DaemonError, DaemonResult};
pub use metrics::{render_prometheus, MetricsSnapshot};
pub use responses::{
    AttachResponse, LaunchResponse, RunJobResponse, SessionStatusResponse, StatusResponse,
};
