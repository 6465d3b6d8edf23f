//! Methods, parameters and fields/properties: the fixed-width member rows
//! a [`Database`] stores, its name table, and the `Copy` views
//! [`Database::method`] and [`Database::field`] hand out.
//!
//! The layout is the snapshot's database section held in memory, as .NET
//! metadata keeps MethodDef, Param and Field rows: every member name is a
//! `u32` id into one per-database [`Names`] table, every method's
//! parameters are a run of 8-byte rows in one parameter table, and the
//! method and field rows are fixed-width. A method reaches its body as a
//! MethodDef row reaches its IL through an RVA: outside the row, in the
//! database's body table.

use std::fmt;

use pex_types::text::{KeyIndex, Text};
use pex_types::TypeId;

use crate::{Body, Database, MethodId};

/// Member visibility. The model keeps only the distinction the completion
/// engine needs: `Private` members are visible only inside their declaring
/// type, everything else is `Public`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Visibility {
    /// Visible everywhere.
    #[default]
    Public,
    /// Visible only within the declaring type.
    Private,
}

/// Flag bits of a member row. `STATIC`, `PRIVATE`, `PROPERTY` and
/// `BODY` have the values the snapshot's rows give them; `REMOVED` never
/// reaches a row of the file, which lists tombstones separately.
pub(crate) mod flag {
    pub const STATIC: u8 = 1;
    pub const PRIVATE: u8 = 1 << 1;
    /// Field rows only.
    pub const PROPERTY: u8 = 1 << 2;
    /// Method rows only: the body table holds the method's body.
    pub const BODY: u8 = 1 << 3;
    /// A tombstone left by an incremental update.
    pub const REMOVED: u8 = 1 << 4;
}

/// `flag` when `on`, else no bits.
pub(crate) fn bit(on: bool, flag: u8) -> u8 {
    if on {
        flag
    } else {
        0
    }
}

fn visibility(flags: u8) -> Visibility {
    if flags & flag::PRIVATE != 0 {
        Visibility::Private
    } else {
        Visibility::Public
    }
}

/// `overrides` of a method row that overrides nothing.
pub(crate) const NO_OVERRIDE: u32 = u32::MAX;

/// A method row: 24 bytes. The name is an id into the database's
/// [`Names`], the parameters the rows `first_param..first_param +
/// n_params` of its parameter table (a `u16` count, as ECMA-335 numbers
/// parameters). The rare body is in the database's body table, which
/// the row's `BODY` flag says to search.
#[derive(Debug, Clone)]
pub(crate) struct MethodRow {
    pub name: u32,
    pub declaring: TypeId,
    pub ret: TypeId,
    pub first_param: u32,
    /// The overridden method's id, or [`NO_OVERRIDE`].
    pub overrides: u32,
    pub n_params: u16,
    pub flags: u8,
}

/// A parameter row: a name id and the declared type.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParamRow {
    pub name: u32,
    pub ty: TypeId,
}

/// A field or property row.
#[derive(Debug, Clone)]
pub(crate) struct FieldRow {
    pub name: u32,
    pub declaring: TypeId,
    pub ty: TypeId,
    pub flags: u8,
}

// Row sizes of the member tables, pinned. The snapshot's rows are 20,
// 8 and 16 bytes; a method row adds its first parameter row and the
// override id, which the file derives or keeps in a side table.
const _: () = assert!(std::mem::size_of::<MethodRow>() == 24);
const _: () = assert!(std::mem::size_of::<ParamRow>() == 8);
const _: () = assert!(std::mem::size_of::<FieldRow>() <= 16);

impl MethodRow {
    pub fn is_removed(&self) -> bool {
        self.flags & flag::REMOVED != 0
    }

    pub fn param_range(&self) -> std::ops::Range<usize> {
        let first = self.first_param as usize;
        first..first + usize::from(self.n_params)
    }
}

impl FieldRow {
    pub fn is_removed(&self) -> bool {
        self.flags & flag::REMOVED != 0
    }
}

/// The member-name table of one database: every name once, in a
/// [`Text`] table, the shape of the snapshot's string table.
///
/// Interning goes through a transient index that [`Names::shrink`]
/// frees and a clone does not copy, so a resident table is the text
/// table alone.
#[derive(Debug, Default)]
pub(crate) struct Names {
    text: Text,
    /// Each name's keyed hash (std's `RandomState`, since update text
    /// comes from clients) to its id.
    index: KeyIndex,
    /// Names `0..covered` of the table are in `index`.
    covered: usize,
}

/// A clone starts without an index: the clone's table rebuilds one on its
/// first [`Names::intern`], and a clone that never interns costs none.
impl Clone for Names {
    fn clone(&self) -> Self {
        Names {
            text: self.text.clone(),
            ..Names::default()
        }
    }
}

impl Names {
    /// A table holding the strings of a validated snapshot string table,
    /// under the same ids.
    pub fn from_parts(ends: Vec<u32>, text: String) -> Self {
        Names {
            text: Text::from_parts(ends, text),
            ..Names::default()
        }
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Text bytes plus four per end offset.
    pub fn bytes(&self) -> usize {
        self.text.bytes()
    }

    /// The text of name `id`.
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        self.text.get(id)
    }

    /// The id of `s`, appending it on first use.
    pub fn intern(&mut self, s: &str) -> u32 {
        let Names {
            text,
            index,
            covered,
        } = self;
        // Catch up with names added without the index (a decoded or
        // cloned table).
        index.reserve(text.len() - *covered);
        while *covered < text.len() {
            let id = *covered as u32;
            let name = text.get(id);
            index.find_or_insert(name, |i| text.get(i) == name, id);
            *covered += 1;
        }
        let new = text.len() as u32;
        let id = index.find_or_insert(s, |i| text.get(i) == s, new);
        if id == new {
            text.push(s);
            *covered += 1;
        }
        id
    }

    /// Frees the interning index and the table's growth slack.
    pub fn shrink(&mut self) {
        self.index = KeyIndex::default();
        self.covered = 0;
        self.text.shrink_to_fit();
    }

    /// Whether the table holds no growth slack and no index.
    #[cfg(test)]
    pub fn is_exact(&self) -> bool {
        self.text.slack() == 0 && self.index.capacity() == 0
    }
}

/// A formal parameter: its name and declared type. [`Method::params`]
/// yields these with the name borrowed from the model's name table, and
/// [`crate::MemberBatch::add_method`] takes them and interns the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param<'a> {
    /// Parameter name (used for rendering and corpus realism).
    pub name: &'a str,
    /// Declared parameter type.
    pub ty: TypeId,
}

fn param<'a>(names: &'a Names, row: &ParamRow) -> Param<'a> {
    Param {
        name: names.get(row.name),
        ty: row.ty,
    }
}

/// The parameters of one method: its run of the parameter table.
#[derive(Clone, Copy)]
pub struct Params<'a> {
    names: &'a Names,
    rows: &'a [ParamRow],
}

impl<'a> Params<'a> {
    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the method takes no declared parameters.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Parameter `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<Param<'a>> {
        self.rows.get(i).map(|row| self.param(row))
    }

    /// The parameters in declaration order.
    pub fn iter(&self) -> ParamIter<'a> {
        ParamIter {
            names: self.names,
            rows: self.rows.iter(),
        }
    }

    /// The declared types in order, without reading the name table.
    pub fn types(&self) -> impl ExactSizeIterator<Item = TypeId> + 'a {
        self.rows.iter().map(|row| row.ty)
    }

    fn param(&self, row: &ParamRow) -> Param<'a> {
        param(self.names, row)
    }
}

impl<'a> IntoIterator for Params<'a> {
    type Item = Param<'a>;
    type IntoIter = ParamIter<'a>;

    fn into_iter(self) -> ParamIter<'a> {
        self.iter()
    }
}

/// Iterator over a method's [`Params`].
#[derive(Clone)]
pub struct ParamIter<'a> {
    names: &'a Names,
    rows: std::slice::Iter<'a, ParamRow>,
}

impl<'a> Iterator for ParamIter<'a> {
    type Item = Param<'a>;

    fn next(&mut self) -> Option<Param<'a>> {
        self.rows.next().map(|row| param(self.names, row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for ParamIter<'_> {}

impl fmt::Debug for Params<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A method definition: a `Copy` view of one method row.
///
/// Following the paper, the receiver of an instance method is treated as its
/// first argument when completing unknown-method queries; the model keeps the
/// receiver implicit (`is_static == false`) and [`Method::full_param_types`]
/// exposes the receiver-first view.
#[derive(Clone, Copy)]
pub struct Method<'a> {
    db: &'a Database,
    row: &'a MethodRow,
    id: MethodId,
}

impl<'a> Method<'a> {
    pub(crate) fn new(db: &'a Database, row: &'a MethodRow, id: MethodId) -> Self {
        Method { db, row, id }
    }

    /// Method name.
    pub fn name(&self) -> &'a str {
        self.db.names().get(self.row.name)
    }

    /// The name's id in the database's name table: equal ids are equal
    /// names.
    pub(crate) fn name_id(&self) -> u32 {
        self.row.name
    }

    /// Type declaring this method.
    pub fn declaring(&self) -> TypeId {
        self.row.declaring
    }

    /// Whether the method is static.
    pub fn is_static(&self) -> bool {
        self.row.flags & flag::STATIC != 0
    }

    /// Declared (explicit) parameters, excluding any receiver.
    pub fn params(&self) -> Params<'a> {
        Params {
            names: self.db.names(),
            rows: self.param_rows(),
        }
    }

    fn param_rows(&self) -> &'a [ParamRow] {
        &self.db.param_rows()[self.row.param_range()]
    }

    /// Declared return type (`void` for none).
    pub fn return_type(&self) -> TypeId {
        self.row.ret
    }

    /// Member visibility.
    pub fn visibility(&self) -> Visibility {
        visibility(self.row.flags)
    }

    /// The base-class method this one overrides, if any. Override chains
    /// share abstract-type slots (paper Section 4.1).
    pub fn overrides(&self) -> Option<MethodId> {
        (self.row.overrides != NO_OVERRIDE).then_some(MethodId(self.row.overrides))
    }

    /// The method body, when the model includes one (client code does,
    /// library surface usually does not). A method without one costs a
    /// flag test; one with a body, a binary search of the body table.
    pub fn body(&self) -> Option<&'a Body> {
        if self.row.flags & flag::BODY == 0 {
            return None;
        }
        self.db.body_of(self.id)
    }

    /// Number of arguments a call carries: declared parameters plus one for
    /// the receiver of instance methods. This is the paper's notion of
    /// "arguments (including the receiver)".
    pub fn full_arity(&self) -> usize {
        usize::from(self.row.n_params) + usize::from(!self.is_static())
    }

    /// Receiver-first parameter types: for instance methods the declaring
    /// type followed by the declared parameter types; for static methods just
    /// the declared parameter types.
    pub fn full_param_types(&self) -> impl Iterator<Item = TypeId> + 'a {
        let receiver = (!self.is_static()).then_some(self.row.declaring);
        receiver
            .into_iter()
            .chain(self.param_rows().iter().map(|p| p.ty))
    }
}

impl fmt::Debug for Method<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Method")
            .field("name", &self.name())
            .field("declaring", &self.declaring())
            .field("is_static", &self.is_static())
            .field("params", &self.params())
            .field("ret", &self.return_type())
            .field("visibility", &self.visibility())
            .field("overrides", &self.overrides())
            .field("body", &self.body())
            .finish()
    }
}

/// A field or property definition: a `Copy` view of one field row.
///
/// The paper treats C# properties as syntactic sugar for fields, so the model
/// stores both in one table with an [`Field::is_property`] flag (kept for
/// rendering fidelity; the engine treats them identically).
#[derive(Clone, Copy)]
pub struct Field<'a> {
    db: &'a Database,
    row: &'a FieldRow,
}

impl<'a> Field<'a> {
    pub(crate) fn new(db: &'a Database, row: &'a FieldRow) -> Self {
        Field { db, row }
    }

    /// Field or property name.
    pub fn name(&self) -> &'a str {
        self.db.names().get(self.row.name)
    }

    /// Type declaring this member.
    pub fn declaring(&self) -> TypeId {
        self.row.declaring
    }

    /// Whether the member is static. Enum members are modelled as static
    /// fields of the enum type.
    pub fn is_static(&self) -> bool {
        self.row.flags & flag::STATIC != 0
    }

    /// Declared type of the stored value.
    pub fn ty(&self) -> TypeId {
        self.row.ty
    }

    /// Member visibility.
    pub fn visibility(&self) -> Visibility {
        visibility(self.row.flags)
    }

    /// Whether the member was declared as a property.
    pub fn is_property(&self) -> bool {
        self.row.flags & flag::PROPERTY != 0
    }
}

impl fmt::Debug for Field<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Field")
            .field("name", &self.name())
            .field("declaring", &self.declaring())
            .field("is_static", &self.is_static())
            .field("ty", &self.ty())
            .field("visibility", &self.visibility())
            .field("is_property", &self.is_property())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_interned_once_and_read_back() {
        let mut names = Names::default();
        let words = ["", "x", "size", "x", "é", "GetBounds", "size", ""];
        let ids: Vec<u32> = words.iter().map(|w| names.intern(w)).collect();
        assert_eq!(ids, [0, 1, 2, 1, 3, 4, 2, 0]);
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(names.get(*id), *w);
        }
        // A clone has no index; it rebuilds one and finds the same ids.
        let mut copy = names.clone();
        assert_eq!(copy.intern("GetBounds"), 4);
        assert_eq!(copy.intern("new"), 5);
        assert_eq!(names.len(), 5);
    }
}
