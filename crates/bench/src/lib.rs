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
//! | [`ablation`] | design-choice ablations; the storage-policy matrix behind `BENCH_policies.json` |
//! | [`figures`] | all of the above at seeds 1–4: `BENCH_figures.json` and `figures.txt` |
//! | [`retrieval`] | archive serving run behind `BENCH_retrieval.json` |
//!
//! The `artifacts` bin regenerates every committed `BENCH_*.json`:
//! `cargo run --release -p enviromic-bench --bin artifacts -- figures`
//! writes `BENCH_figures.json` and seed 1's figure text, `figures.txt`,
//! to `target/bench`. EXPERIMENTS.md compares them with the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig03;
pub mod fig06;
pub mod fig08;
pub mod figures;
pub mod indoor;
pub mod outdoor;
pub mod retrieval;
