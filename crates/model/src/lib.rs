//! # pex-model
//!
//! Code-model substrate for the `pex` workspace (a reproduction of
//! *Type-Directed Completion of Partial Expressions*, PLDI 2012).
//!
//! The completion algorithm consumes a *code model*: a [`TypeTable`] from
//! [`pex_types`] plus methods, fields and properties attached to those types,
//! and method bodies written in the paper's Figure 5(a) expression language
//! (variables, field lookups, calls, assignments, comparisons). The paper
//! obtained this model by decompiling .NET binaries with Microsoft CCI; this
//! crate provides the equivalent model plus a **mini-C# frontend**
//! ([`minics`]) so corpora can be authored as readable source text.
//!
//! Main entry points:
//!
//! * [`Database`] — the program under analysis: types + members + bodies.
//! * [`Context`] — a code location: enclosing type/method and live locals.
//! * [`Expr`] / [`Stmt`] / [`Body`] — the complete-expression IR.
//! * [`minics::compile`] — compile mini-C# source into a [`Database`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod context;
mod database;
mod expr;
mod ids;
mod member;
pub mod minics;
mod pretty;
mod snap;

pub use arena::{ArenaRead, ENode, ExprArena, ExprId, Sym};
pub use context::{Context, Local};
pub use database::{Database, GlobalRef, MemberBatch, ModelError, ModelResult, TableSizes};
pub use expr::{Body, CmpOp, Expr, ExprKindName, LastMember, Stmt, ValueTy};
pub use ids::{FieldId, LocalId, MethodId};
pub use member::{Field, Method, Param, ParamIter, Params, Visibility};
pub use pretty::{render_expr, CallStyle};

pub use pex_types::{
    NamespaceId, Namespaces, PrimKind, TypeDef, TypeError, TypeId, TypeKind, TypeTable,
};
