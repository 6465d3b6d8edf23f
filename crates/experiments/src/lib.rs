//! # pex-experiments
//!
//! The evaluation harness: regenerates every table and figure of
//! *Type-Directed Completion of Partial Expressions* (PLDI 2012) against
//! the `pex` engine and the `pex-corpus` projects.
//!
//! | Paper artefact | Module | CLI subcommand |
//! |---|---|---|
//! | Table 1 | [`methods`] | `table1` |
//! | Figures 2-4 | [`figures`] | `examples` |
//! | Figure 9 | [`methods`] | `fig9` |
//! | Figure 10 | [`methods`] | `fig10` |
//! | Figure 11 | [`methods`] + [`intellisense`] | `fig11` |
//! | Figure 12 | [`methods`] | `fig12` |
//! | Figure 13 | [`args`] | `fig13` |
//! | Figure 14 | [`args`] | `fig14` |
//! | Figure 15 | [`lookups`] | `fig15` |
//! | Figure 16 | [`lookups`] | `fig16` |
//! | Table 2 | [`sensitivity`] | `table2` |
//! | §5.1-5.3 speed | [`speed`] | `speed` |
//! | §2.3/§6 baseline comparison (quantified) | [`baselines`] + [`prospector`] + [`insynth`] | `baselines` |
//!
//! The `pex-experiments` binary runs them (`all` for everything) at a
//! configurable corpus scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod baselines;
pub mod extract;
pub mod figures;
pub mod harness;
pub mod insynth;
pub mod intellisense;
pub mod lookups;
pub mod methods;
pub mod obs_report;
pub mod prospector;
pub mod scaling;
pub mod sensitivity;
pub mod speed;
pub mod stats;

pub use harness::{load_projects, ExperimentConfig, Project};
