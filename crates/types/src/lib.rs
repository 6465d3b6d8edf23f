//! # pex-types
//!
//! Nominal type-system substrate for the `pex` workspace, a Rust reproduction
//! of *Type-Directed Completion of Partial Expressions* (PLDI 2012).
//!
//! The paper's algorithm runs against a .NET-like type universe: classes with
//! single inheritance, interfaces, value types (structs and enums), and
//! primitives with implicit numeric widening. This crate models exactly that
//! universe and implements the ranking function's primary ingredient, the
//! **type distance** `td(α, β)` of Section 4.1:
//!
//! ```text
//! td(α, β) = undefined   if there is no implicit conversion from α to β
//!          = 0           if α = β
//!          = 1           if α and β are primitives related by implicit widening
//!          = 1 + min over immediate declared supertypes s(α) of td(s(α), β)
//! ```
//!
//! The crate is deliberately independent of the code model: it knows about
//! types, namespaces and conversions, but not about methods or fields.
//!
//! ## Example
//!
//! ```
//! use pex_types::{TypeTable, TypeId};
//!
//! let mut table = TypeTable::new();
//! let ns = table.namespaces_mut().intern(&["Geometry"]);
//! let shape = table.declare_class(ns, "Shape").unwrap();
//! let rect = table.declare_class(ns, "Rectangle").unwrap();
//! table.set_base(rect, shape).unwrap();
//!
//! assert_eq!(table.type_distance(rect, shape), Some(1));
//! assert_eq!(table.type_distance(rect, table.object()), Some(2));
//! assert_eq!(table.type_distance(shape, rect), None); // no downcasts
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convindex;
mod def;
mod distance;
mod error;
mod ids;
mod namespace;
mod primitive;
mod rows;
mod table;
pub mod text;
pub mod wire;

pub use convindex::ConversionIndex;
pub use def::{TypeDef, TypeKind};
pub use distance::ComparablePair;
pub use error::{TypeError, TypeResult};
pub use ids::{NamespaceId, TypeId};
pub use namespace::{Namespaces, NsPrefix, Segments};
pub use primitive::PrimKind;
pub use rows::RowTable;
pub use table::{TypeTable, WellKnown};
