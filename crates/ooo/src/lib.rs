//! # trips-ooo
//!
//! Out-of-order superscalar timing models standing in for the paper's
//! reference platforms (Table 1): Intel Core 2, Pentium 4 and Pentium III.
//!
//! The paper compares *cycle counts* read from hardware performance
//! counters. Since the real machines are unavailable, this crate provides a
//! classic parameterized OoO model — fetch width, ROB-bounded window, issue
//! bandwidth, tournament branch prediction with a call/return stack, and a
//! two-level cache hierarchy — driven by the same RISC binaries the
//! PowerPC-like baseline executes (execute-at-fetch oracle from
//! [`trips_risc::Machine`]). Per-platform parameters are chosen to match
//! each machine's documented microarchitecture and Table 1's
//! processor/memory speed ratios; DESIGN.md records the substitution.

pub mod configs;
pub mod model;

pub use configs::{core2, pentium3, pentium4, OooConfig};
pub use model::{
    assemble_ooo_phased, replay_ooo_window, run_ooo_phased_capture, run_timed, run_timed_trace,
    run_timed_trace_mode, OooResult, OooSnapshot, OooStats, OooWindowMeasure,
};
pub use trips_sample::{ReplayMode, SamplePlan};
