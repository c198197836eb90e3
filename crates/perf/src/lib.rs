//! `otc-perf` — structured perf sessions for the multi-tenant ORAM host.
//!
//! Single-number reports (mean service time, one p99) cannot explain
//! *where* a regression lives once the fleet has pipelined shards,
//! background eviction queues, a calendar scheduler, and tenants churning
//! online. This crate records the host's per-round state as a structured
//! **perf session**: one [`RoundSample`] per scheduling round, carrying
//! the round clock, per-shard pipeline-stage occupancy, eviction-queue
//! depth and stash occupancy, calendar-queue bucket statistics, per-tenant
//! served/queued/denied counts, and the ledger's fleet capacity share.
//!
//! # Pieces
//!
//! - [`RoundSample`] — the per-round schema. The host fills one per
//!   round while a session records (its shard pool and calendar queue
//!   each write their own fields); a host that records nothing pays one
//!   branch per round.
//! - [`PerfSession`] — a session in memory, all public fields: meta,
//!   the rounds in order, and the end-of-run summary.
//! - The on-disk format ([`PerfSession::to_bytes`] /
//!   [`PerfSession::from_bytes`]) — framed, length-prefixed binary
//!   records behind a versioned header, read back by one strict
//!   decoder. [`codec`] documents the layout and what it checks.
//! - JSONL export ([`PerfSession::export_jsonl`]) — one line per record,
//!   for diffing two sessions with plain `diff`.
//! - [`report::render_session`] — stage-occupancy / queue-depth /
//!   utilization timelines and a per-tenant SLO-attainment table.
//!
//! # Determinism
//!
//! Every sampled quantity derives from the host's simulated clock and
//! counters — no wall-clock time, no iteration-order dependence — so two
//! seeded runs produce **byte-identical** session files. CI diffs the
//! JSONL export across a double run to pin this.
//!
//! ```
//! use otc_perf::{PerfSession, RoundSample, SessionMeta, SessionSummary};
//!
//! let session = PerfSession {
//!     meta: SessionMeta { label: "doc".into(), seed: 7, ..SessionMeta::default() },
//!     rounds: vec![RoundSample { round: 1, clock: 65_536, ..RoundSample::default() }],
//!     summary: SessionSummary { rounds: 1, ..SessionSummary::default() },
//! };
//! let bytes = session.to_bytes();
//! let back = PerfSession::from_bytes(&bytes)?;
//! assert_eq!(back.rounds[0].clock, 65_536);
//! assert_eq!(back, session);
//! # Ok::<(), otc_perf::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod hist;
pub mod report;
mod schema;
mod session;

pub use codec::CodecError;
pub use hist::Histogram;
pub use schema::{
    CalendarSample, RoundSample, SessionMeta, SessionSummary, ShardSample, TenantSample,
};
pub use session::{PerfSession, SessionFile};
