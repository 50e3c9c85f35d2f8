//! Sharded multi-process execution for TD-AC.
//!
//! This crate is the execution engine behind
//! [`ExecutionBackend::Sharded`](tdac_core::ExecutionBackend): a
//! coordinator ([`ShardRunner`]) that runs TD-AC's model selection
//! in-process, deals the selected attribute groups (or their object
//! buckets) to worker processes as `.tds` store slices, streams the
//! per-group [`TruthResult`](td_algorithms::TruthResult) partials back
//! over line-delimited JSON — the same wire idiom as td-serve — and
//! reassembles them through the exact merge path `Tdac::run` uses.
//! The headline property, enforced by td-verify's shard oracle: for
//! any shard count and either [`ShardStrategy`](tdac_core::ShardStrategy),
//! the sharded outcome is **bit-identical** to the single-process run.
//!
//! Worker processes are fork-of-self: `tdc worker` and
//! `td-verify worker` both route straight into [`worker_main`], so no
//! separate worker binary ships. See `docs/SHARDING.md` for the plan
//! format, the wire protocol, and the failure semantics.

#![warn(missing_docs)]

mod coordinator;
mod error;
pub mod protocol;
mod worker;

pub use coordinator::{object_shard, ShardRunner, WorkerCommand};
pub use error::ShardError;
pub use protocol::{
    GroupAssignment, GroupPartial, ShardJob, ShardMsg, CHAOS_EXIT_ENV, CHAOS_PLAN_ENV,
};
pub use worker::{run_worker, worker_main};
