//! Micro-batched concurrent model scoring over the factorized
//! representation.
//!
//! Training over normalized data is the paper's story; this crate is the
//! deployment end of it: a [`ScoringService`] loads a fitted model
//! (linear or logistic, see [`ScoringModel`]) plus its normalized schema
//! **once**, then serves concurrent scoring requests — each a set of
//! entity row ids — without ever materializing the join per request.
//!
//! The performance core is the paper's multiplication order applied to a
//! fixed model: of `T w = S w_S + Σᵢ Kᵢ (Rᵢ wᵢ)` the inner `Rᵢ wᵢ` does
//! not depend on the request, so it is computed **once at load**
//! ([`morpheus_core::NormalizedMatrix::lmm_partials`]) and a requested row
//! costs one entity-feature dot plus one gathered partial per attribute
//! table ([`morpheus_core::NormalizedMatrix::lmm_rows_from_partials`]).
//! Around it sits a **micro-batcher**: requests already queued (or
//! arriving within [`ServeConfig::batch_window`], zero by default) are
//! coalesced, up to [`ServeConfig::batch_max`] rows, into one such call on the
//! shared resident worker pool. Batched ≡ unbatched ≡ full-table
//! `predict` on the factorized operand, **bit for bit**, under
//! `lmm_accumulate`'s association — batching is invisible to clients
//! except in latency and throughput.
//!
//! Operational behavior:
//!
//! * **Admission control** — a bounded queue ([`ServeConfig::queue_cap`]);
//!   submissions beyond it are shed with [`ServeError::Shed`] and
//!   counted, so overload degrades loudly instead of growing latency
//!   without bound.
//! * **Fairness** — coalescing is strictly FIFO; the first queued
//!   request that does not fit closes the batch, so no request is
//!   starved by smaller ones arriving behind it.
//! * **Self-healing** — a panic inside a batch (injectable via the
//!   `serve.batch` failpoint) is caught, converted into
//!   [`ServeError::BatchAborted`] for exactly that batch's requests,
//!   counted as a degradation, and the scorer keeps serving.
//! * **Observability** — [`ScoringService::stats`] folds the serve
//!   counters together with [`morpheus_runtime::faults::stats`] into one
//!   [`ServeStats`] snapshot.

mod config;
mod model;
mod service;
mod stats;

pub use config::ServeConfig;
pub use model::ScoringModel;
pub use service::{ScoringService, ServeError, ServeMode, Ticket, BATCH_FAILPOINT};
pub use stats::ServeStats;
