//! # Mini-C# frontend
//!
//! The paper extracted its code model from .NET binaries with Microsoft CCI.
//! This module is the equivalent extraction path for `pex`: a small C#-like
//! language with namespaces, classes/structs/interfaces/enums, inheritance,
//! fields, properties, static and instance methods, and method bodies in the
//! paper's Figure 5(a) statement/expression language.
//!
//! The pipeline is `lexer` → `parser` (to an AST that borrows its names
//! from the source and never leaves this module) → one lowering,
//! [`incremental`], which patches a base [`crate::Database`] with parsed
//! units using `resolve` for name resolution, overload selection and
//! bodies. [`compile`] is an update of the empty model; [`apply_update`]
//! patches a live one, so an edit and a rebuild of the same text build the
//! same model.
//!
//! ```
//! let source = r#"
//!     namespace Geo {
//!         struct Point { int X; int Y; }
//!         class Line {
//!             Point P1; Point P2;
//!             int Dx() { return this.P2.X; }
//!         }
//!     }
//! "#;
//! let db = pex_model::minics::compile(source).unwrap();
//! assert!(db.types().lookup_qualified("Geo.Line").is_some());
//! ```

mod ast;
pub mod incremental;
mod lexer;
mod parser;
pub mod printer;
mod resolve;

use crate::Database;

pub use incremental::{apply_update, ModelDiff};
use parser::parse;
pub use printer::{print, print_type, PrintOptions};

use std::error::Error;
use std::fmt;

/// An error at a source position, produced by any frontend stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniCsError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub msg: String,
}

impl MiniCsError {
    pub(crate) fn new(line: u32, col: u32, msg: impl Into<String>) -> Self {
        MiniCsError {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for MiniCsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl Error for MiniCsError {}

/// Result alias for frontend stages.
pub type MiniCsResult<T> = Result<T, MiniCsError>;

/// Compiles mini-C# source text into a fresh [`Database`].
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error encountered, with
/// its source position.
pub fn compile(source: &str) -> MiniCsResult<Database> {
    compile_many(&[source])
}

/// Compiles several mini-C# sources into one [`Database`] (cross-source
/// references are allowed in either direction, like C# compilation units):
/// the sources are one update of the empty model.
pub fn compile_many(sources: &[&str]) -> MiniCsResult<Database> {
    let files: MiniCsResult<Vec<_>> = sources.iter().map(|s| parse(s)).collect();
    let (db, _) = incremental::apply_units(&Database::new(), &files?)?;
    Ok(db)
}
