//! Message-passing network simulation for local certification.
//!
//! The paper's model (Section 3.3, Appendix A.1) is a distributed
//! network: every vertex holds its own identifier and certificate and
//! learns its neighbors' only through message exchange. The rest of the
//! workspace evaluates that model through the synchronous, perfectly
//! reliable [`locert_core::run_verification`] loop; this crate replaces
//! the transport with a seeded, deterministic discrete-event simulator
//! in which `(id, certificate)` frames are dropped, duplicated,
//! reordered, delayed, corrupted in transit, or lost wholesale to node
//! crashes — the transient-fault regime proof-labeling schemes were
//! designed for.
//!
//! Layering:
//!
//! - [`sim`] — the event-driven simulator: deterministic `(time, seq)`
//!   priority queue, per-link fault plans composable with
//!   [`locert_core::faults`], per-neighbor retransmit with exponential
//!   backoff and seeded jitter, and typed degradation to
//!   [`sim::Verdict::Inconclusive`] when a neighborhood never completes.
//! - [`catalogue`](mod@catalogue) — sixteen (scheme, yes-instance)
//!   targets spanning every scheme family in the workspace.
//! - [`campaign`] — the `netstorm` fault-grid sweep: detection rate,
//!   time-to-verdict, and false-inconclusive rate per fault point,
//!   parallelized over seeds with a journal byte-identical at any
//!   `locert-par` width.

pub mod campaign;
pub mod catalogue;
pub mod sim;

pub use campaign::{fault_grid, run_net_campaign, CampaignConfig, CampaignRow, GridPoint};
pub use catalogue::{catalogue, NetTarget};
pub use sim::{
    run_network, CrashSchedule, LinkFaults, NetFaultPlan, NetOutcome, NodeStats, Partition,
    RetryPolicy, SimTime, Verdict,
};
