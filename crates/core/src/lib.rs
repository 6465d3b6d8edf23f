//! # pex-core
//!
//! The primary contribution of *Type-Directed Completion of Partial
//! Expressions* (Perelman, Gulwani, Ball, Grossman — PLDI 2012), in Rust.
//!
//! A **partial expression** is an expression with holes: `?` for an unknown
//! subexpression, `0` for a deliberately unfilled one, `.?f`/`.?*f`/`.?m`/
//! `.?*m` for missing field lookups (and zero-argument calls), and
//! `?({e1, ..., en})` for a call to an unknown method given an unordered set
//! of arguments. This crate provides:
//!
//! * [`PartialExpr`] and [`parse_partial`] — the query language of the
//!   paper's Figure 5(b) and a parser for its surface syntax;
//! * [`derives`] — a reference implementation of the Figure 6 semantics, a
//!   checker that a complete expression is a legal completion of a query;
//! * [`RankConfig`] / [`Ranker`] — the Figure 7 ranking function with
//!   per-term toggles (used by the paper's Table 2 sensitivity analysis);
//! * [`MethodIndex`] — the Figure 8 parameter-type → method index;
//! * [`Completer`] — the completion engine of Algorithm 1: a best-first,
//!   lazily expanded enumeration of well-typed completions in score order.
//!
//! ## Quickstart
//!
//! ```
//! use pex_core::{Completer, MethodIndex, RankConfig, parse_partial};
//! use pex_model::{minics, Context, Local};
//!
//! let db = minics::compile(r#"
//!     namespace Paint {
//!         class Document { }
//!         struct Size { }
//!         class CanvasSizeAction {
//!             static Paint.Document ResizeDocument(Paint.Document d, Paint.Size s);
//!         }
//!     }
//! "#).unwrap();
//! let doc = db.types().lookup_qualified("Paint.Document").unwrap();
//! let size = db.types().lookup_qualified("Paint.Size").unwrap();
//! let ctx = Context::with_locals(None, vec![
//!     Local { name: "img".into(), ty: doc },
//!     Local { name: "size".into(), ty: size },
//! ]);
//! let index = MethodIndex::build(&db);
//! let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
//! let query = parse_partial(&db, &ctx, "?({img, size})").unwrap();
//! let top = completer.complete(&query, 10);
//! assert!(completer.render(&top[0]).contains("ResizeDocument"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod partial;
pub mod rank;

pub use engine::{
    budget::{CancelToken, QueryBudget, QueryOutcome, RankResult},
    chains::{ChainLink, MAX_DEPTH_LIMIT},
    invalidate::{refresh_derived, InvalidationStats},
    CandidateScratch, CompleteOptions, Completer, Completion, CompletionIter, EngineCache,
    InvalidMaxDepth, MethodIndex, ReachIndex,
};
pub use partial::{derives, parse_partial, ParseError, PartialExpr, SuffixKind};
pub use rank::{RankConfig, RankTerm, Ranker, ScoreBound, ScoreBreakdown};
