#![forbid(unsafe_code)]
//! `beas_benchmark` — the closed-loop service benchmark of the BEAS
//! repository.  See `README.md` beside this crate for the metrics, the
//! workloads and how the two connect; `BENCHMARK.json` at the repository
//! root holds the regression bounds.

pub mod compare;
pub mod fingerprint;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod run;
pub mod script;
pub mod stats;
pub mod trace;
pub mod traced;
