//! `xorp-bench`: the router's benchmark.
//!
//! Two kinds of run share this code.  The **end-to-end** run
//! ([`scenario`]) drives the threaded three-process router over loopback
//! TCP with tracing dormant and reports what a user of the router would
//! see.  The **traced** run adds the single-threaded *layer walk*
//! ([`walk`]), which pushes the same seeded UPDATEs through each layer's
//! public functions in pipeline order, wrapped in benchmark-side spans, and
//! the small per-layer measurements of [`micro`] — the per-layer ledger.
//!
//! Inputs come from [`gen`] (a pure function of `--seed`), expected state
//! from [`oracle`].  See `README.md` beside this crate for the metric
//! names and how they are expected to interact.

pub mod gen;
pub mod json;
pub mod micro;
pub mod oracle;
pub mod procfs;
pub mod report;
pub mod run;
pub mod scenario;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod walk;
