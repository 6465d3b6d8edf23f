//! # pex — type-directed completion of partial expressions
//!
//! A Rust reproduction of Perelman, Gulwani, Ball and Grossman,
//! *Type-Directed Completion of Partial Expressions* (PLDI 2012).
//!
//! A **partial expression** is ordinary code with holes: `?` for an unknown
//! subexpression, `0` for a deliberately unfilled one, `.?f` / `.?*f` /
//! `.?m` / `.?*m` for missing field lookups or zero-argument calls, and
//! `?({e1, ..., en})` for a call to an *unknown method* given some of its
//! arguments in no particular order. The engine enumerates well-typed
//! completions in ranked order, using type distance, expression depth,
//! namespace cohesion, name matching and Lackwit-style abstract types.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`types`] ([`pex_types`]) — nominal type system: hierarchy, namespaces,
//!   implicit conversions, type distance.
//! * [`model`] ([`pex_model`]) — code model: members, expression IR,
//!   contexts, and the mini-C# frontend ([`pex_model::minics`]).
//! * [`abstract_types`] ([`pex_abstract`]) — union-find abstract type
//!   inference.
//! * [`core`] ([`pex_core`]) — the paper's contribution: the partial
//!   expression language, the ranking function, and the completion engine.
//! * [`corpus`] ([`pex_corpus`]) — the paper's worked examples plus seeded
//!   synthetic projects shaped like the paper's seven C# codebases.
//! * [`experiments`] ([`pex_experiments`]) — the full evaluation harness
//!   (every table and figure).
//! * [`obs`] ([`pex_obs`]) — observability substrate: lock-free metrics,
//!   tracing spans, and event sinks with a zero-cost kill switch.
//! * [`serve`] ([`pex_serve`]) — the long-lived completion daemon: a shared
//!   immutable snapshot, a bounded admission queue with explicit load
//!   shedding, and a JSON-lines protocol over stdin or a Unix socket.
//!
//! ## Quickstart
//!
//! ```
//! use pex::prelude::*;
//!
//! // A code model, compiled from mini-C# source.
//! let db = pex::model::minics::compile(r#"
//!     namespace Geo {
//!         struct Point { double X; double Y; }
//!         class Math {
//!             static double Distance(Geo.Point a, Geo.Point b);
//!         }
//!     }
//! "#).unwrap();
//!
//! // A query context: one local, `p`, of type Point.
//! let point = db.types().lookup_qualified("Geo.Point").unwrap();
//! let ctx = Context::with_locals(None, vec![Local { name: "p".into(), ty: point }]);
//!
//! // "I have a p and another p — which method takes them?"
//! let index = MethodIndex::build(&db);
//! let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
//! let query = parse_partial(&db, &ctx, "?({p, p})").unwrap();
//! let top = engine.complete(&query, 1);
//! assert!(engine.render(&top[0]).contains("Distance(p, p)"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pex_abstract as abstract_types;
pub use pex_core as core;
pub use pex_corpus as corpus;
pub use pex_experiments as experiments;
pub use pex_model as model;
pub use pex_obs as obs;
pub use pex_serve as serve;
pub use pex_types as types;

/// The most commonly used items, for `use pex::prelude::*`.
pub mod prelude {
    pub use pex_abstract::AbsTypes;
    pub use pex_core::{
        derives, parse_partial, CompleteOptions, Completer, Completion, MethodIndex, PartialExpr,
        RankConfig, RankTerm, Ranker, ReachIndex, ScoreBreakdown, SuffixKind, MAX_DEPTH_LIMIT,
    };
    pub use pex_model::{
        Body, CallStyle, CmpOp, Context, Database, Expr, ExprArena, Local, Stmt, ValueTy,
        Visibility,
    };
    pub use pex_types::{NamespaceId, PrimKind, TypeId, TypeTable};
}
