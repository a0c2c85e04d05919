//! # road-bench
//!
//! Experiment harness reproducing every table and figure of the ROAD
//! paper's evaluation (Section 6). Each `fig*` binary regenerates one
//! figure; `exp_all` runs the whole suite and records it as
//! `BENCH_<scale>.json`. That is all this crate measures: the figures
//! answer the paper's questions, and everything beyond them — served QPS,
//! readers beside a writer, warm paged serving, build scaling, what one
//! layer costs — is a row of roadbench (`benchmark/`), where a
//! *performance claim* about this code base is made: it pairs runs and
//! gates on them.
//!
//! ```text
//! cargo run --release -p road-bench --bin exp_all -- --scale medium
//! cargo run --release -p road-bench --bin fig17_knn -- --axis k
//! ```
//!
//! Scales (`--scale`):
//! * `small`  — CI-sized: every network heavily scaled down;
//! * `medium` — CA at paper size, NA/SF at 25% (default);
//! * `full`   — the paper's exact network sizes;
//! * `large`  — the paper's networks at full size *plus* the
//!   beyond-paper ~10^6-node continental preset (`CONT`).
//!
//! Anything else on a command line — a misspelt flag, an unknown scale or
//! axis — exits 2 with the valid set instead of running a default.

pub mod config;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod table;
pub mod workload;

pub use config::{ExpScale, Params};
pub use runner::{build_engine, EngineKind};
