//! Experiment harnesses regenerating every figure of the EnviroMic
//! paper's evaluation (§IV). Wall-clock timing lives in one place, the
//! `benchmark` bin, whose workloads and bounds the root `BENCHMARK.json`
//! defines.
//!
//! | Module | Figures |
//! |---|---|
//! | [`fig03`] | Fig. 3 — sampling jitter under radio activity |
//! | [`fig06`] | Fig. 6 — miss ratio vs `Dta`; Fig. 7 — task timeline |
//! | [`fig08`] | Fig. 8 — stitched voice recording |
//! | [`indoor`] | Figs. 10–14 and the headline 4× claim |
//! | [`outdoor`] | Figs. 16–18 — the forest deployment |
//! | [`ablation`] | design-choice and future-work ablations |
//! | [`retrieval`] | archive serving benchmark (`retrieval` binary) |
//!
//! Run `cargo run --release -p enviromic-bench --bin repro -- all` to
//! print every figure; see EXPERIMENTS.md for the paper-vs-measured
//! record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig03;
pub mod fig06;
pub mod fig08;
pub mod indoor;
pub mod outdoor;
pub mod retrieval;
