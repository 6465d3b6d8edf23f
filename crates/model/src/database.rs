//! The program database: a type table plus members and bodies.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use pex_types::{RowTable, TypeId, TypeTable};

use crate::member::{bit, flag, FieldRow, MethodRow, Names, ParamRow, NO_OVERRIDE};
use crate::{
    Body, Context, Expr, Field, FieldId, Method, MethodId, Param, Stmt, ValueTy, Visibility,
};

/// Result alias for database operations.
pub type ModelResult<T> = Result<T, ModelError>;

/// Errors raised by database construction or expression typing.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A field with this name already exists on the type.
    DuplicateField {
        /// The clashing member name.
        name: String,
    },
    /// An expression referenced a local slot outside the context.
    UnknownLocal {
        /// The offending slot index.
        index: usize,
    },
    /// `this` was used where no instance context exists.
    NoThis,
    /// An instance member was accessed through an incompatible base
    /// expression, or a static member through an instance path.
    BadMemberAccess {
        /// The member name.
        name: String,
    },
    /// A call had the wrong number of arguments.
    BadArity {
        /// The method name.
        name: String,
        /// Expected argument count (receiver included for instance methods).
        expected: usize,
        /// Provided argument count.
        actual: usize,
    },
    /// An argument (or operand, or assignment source) had a type with no
    /// implicit conversion to the required type.
    TypeMismatch {
        /// Description of the position being checked.
        at: String,
    },
    /// The left side of an assignment is not assignable.
    NotAssignable,
    /// The operands of a comparison are not comparable.
    NotComparable,
    /// A body's parameter slots are not its method's parameters.
    BadParameterSlots {
        /// The method name.
        name: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateField { name } => {
                write!(f, "field `{name}` is already declared on this type")
            }
            ModelError::UnknownLocal { index } => {
                write!(f, "local slot {index} is not in scope")
            }
            ModelError::NoThis => write!(f, "`this` used outside an instance method"),
            ModelError::BadMemberAccess { name } => {
                write!(f, "invalid access to member `{name}`")
            }
            ModelError::BadArity {
                name,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "call to `{name}` expects {expected} arguments, got {actual}"
                )
            }
            ModelError::TypeMismatch { at } => write!(f, "type mismatch at {at}"),
            ModelError::NotAssignable => write!(f, "left side of assignment is not assignable"),
            ModelError::NotComparable => write!(f, "operands are not comparable"),
            ModelError::BadParameterSlots { name } => write!(
                f,
                "the body of `{name}` does not open with its parameters' slots"
            ),
        }
    }
}

impl Error for ModelError {}

/// A global value usable as the root of a completion chain: a public static
/// field, or a public zero-argument static method (paper Section 3:
/// "any local in scope or global (static field or zero-argument static
/// method)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalRef {
    /// A static field or property.
    Field(FieldId),
    /// A zero-argument static method with a non-void return.
    Method(MethodId),
}

/// The program under analysis: types, members and bodies.
///
/// A `Database` is built either programmatically (types through
/// [`Database::types_mut`], members through a [`Database::member_batch`])
/// or from mini-C# source via [`crate::minics::compile`]. It is immutable
/// during completion; the engine and the abstract-type inference only
/// read it.
///
/// Members are stored as the snapshot stores them: fixed-width method and
/// field rows, one parameter table holding every method's parameters as
/// a run of rows, and one name table every row's name id points into (see
/// the `member` module). [`Database::method`] and [`Database::field`]
/// return `Copy` views over a row. Each type's members are a row of one
/// of two row tables, and the bodies sit in one table of their own, so a
/// clone takes a fixed number of heap blocks and shares every body.
#[derive(Debug, Clone, Default)]
pub struct Database {
    types: TypeTable,
    names: Names,
    /// Member ids are positional and shared by every derived structure
    /// (memo keys, index rows), so an incremental update never compacts
    /// the rows. Removal sets a row's `REMOVED` flag instead: the row
    /// stays (a stale id keeps resolving to a frozen signature) but
    /// every live iteration and lookup skips it.
    methods: Vec<MethodRow>,
    params: Vec<ParamRow>,
    fields: Vec<FieldRow>,
    /// Live methods declared on each type, in id order: row
    /// [`TypeId::index`]; types past the last row declare none.
    type_methods: RowTable<MethodId>,
    /// Live fields declared on each type, laid out like `type_methods`.
    type_fields: RowTable<FieldId>,
    /// The bodies of the method rows flagged `BODY`, in method-id order.
    /// Within a batch of edits it may also hold entries of rows that lost
    /// the flag; [`Database::shrink_members`] drops them.
    bodies: Vec<(MethodId, Arc<Body>)>,
    /// Removals and signature replacements since the tables were last
    /// checked for dead entries: nothing else leaves any.
    released: usize,
}

/// Sizes of a database's name and parameter tables, dead entries
/// included (see [`Database::table_sizes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSizes {
    /// Name-table bytes: the text plus one `u32` end offset per name.
    pub name_bytes: usize,
    /// Parameter-table rows.
    pub param_rows: usize,
}

/// The one way to add or remove members. A batch mints and tombstones
/// member rows, O(1) amortized each, and its types' member lists show
/// them once it is dropped; until then the database it derefs to lists
/// none of its additions and still lists its removals. A batch that only
/// added to types past every listed one (each type filled in turn) is
/// listed by appending its rows; any other by one counting pass over
/// every row.
#[derive(Debug)]
pub struct MemberBatch<'a> {
    db: &'a mut Database,
    /// The first method and field rows the batch minted.
    first_method: usize,
    first_field: usize,
    /// Whether the batch tombstoned a member.
    removed: bool,
    /// Each field the batch added, by declaring type and name id.
    fields: HashSet<(TypeId, u32)>,
}

/// The database, with the batch's rows but without its additions or
/// removals in its member lists.
impl Deref for MemberBatch<'_> {
    type Target = Database;

    fn deref(&self) -> &Database {
        self.db
    }
}

impl MemberBatch<'_> {
    /// Adds a method. Overloads (same name, same type) are allowed.
    ///
    /// # Panics
    ///
    /// If `params` is longer than [`Database::MAX_PARAMS`].
    pub fn add_method(
        &mut self,
        declaring: TypeId,
        name: &str,
        is_static: bool,
        params: &[Param<'_>],
        ret: TypeId,
        visibility: Visibility,
    ) -> MethodId {
        let db = &mut *self.db;
        let id = MethodId(db.methods.len() as u32);
        let first_param = db.put_params(params, None);
        let name = db.names.intern(name);
        db.methods.push(MethodRow {
            name,
            declaring,
            ret,
            first_param,
            overrides: NO_OVERRIDE,
            n_params: params.len() as u16,
            flags: bit(is_static, flag::STATIC)
                | bit(visibility == Visibility::Private, flag::PRIVATE),
        });
        id
    }

    /// Adds a field or property; an enum member is a public static field
    /// of its enum.
    ///
    /// # Errors
    ///
    /// Fails if the type already declares a field with this name, before
    /// the batch or in it.
    pub fn add_field(
        &mut self,
        declaring: TypeId,
        name: &str,
        is_static: bool,
        ty: TypeId,
        visibility: Visibility,
        is_property: bool,
    ) -> ModelResult<FieldId> {
        let db = &mut *self.db;
        let name = db.names.intern(name);
        if db.lists_field(declaring, name) || !self.fields.insert((declaring, name)) {
            return Err(ModelError::DuplicateField {
                name: db.names.get(name).to_owned(),
            });
        }
        let id = FieldId(db.fields.len() as u32);
        db.fields.push(FieldRow {
            name,
            declaring,
            ty,
            flags: bit(is_static, flag::STATIC)
                | bit(visibility == Visibility::Private, flag::PRIVATE)
                | bit(is_property, flag::PROPERTY),
        });
        Ok(id)
    }

    /// Tombstones a method: drops it from the live iterators, and from its
    /// type's lookup list when the batch ends, while keeping the row, so a
    /// stale id stays resolvable. The body and override edge are cleared;
    /// the signature is frozen as-is until a compaction finds no live body
    /// referencing the id (see [`Database::compact_tables`]).
    pub(crate) fn remove_method(&mut self, id: MethodId) {
        let m = &mut self.db.methods[id.index()];
        if m.is_removed() {
            return;
        }
        m.flags = (m.flags | flag::REMOVED) & !flag::BODY;
        m.overrides = NO_OVERRIDE;
        self.db.released += 1;
        self.removed = true;
    }

    /// Tombstones a field (see [`MemberBatch::remove_method`]).
    pub(crate) fn remove_field(&mut self, id: FieldId) {
        let f = &mut self.db.fields[id.index()];
        if f.is_removed() {
            return;
        }
        f.flags |= flag::REMOVED;
        self.db.released += 1;
        self.removed = true;
    }

    /// Mutable access to the type table, for types declared while the
    /// batch is open.
    pub(crate) fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.db.types
    }

    /// Reserves room for exactly `methods` more methods, `fields` more
    /// fields and `params` more parameters, so a caller that knows its
    /// member counts up front leaves no growth slack in the member
    /// tables.
    pub(crate) fn reserve(&mut self, methods: usize, fields: usize, params: usize) {
        self.db.methods.reserve_exact(methods);
        self.db.fields.reserve_exact(fields);
        self.db.params.reserve_exact(params);
    }

    /// Drops a method's body (an update replaced a concrete declaration
    /// with a bodiless one).
    pub(crate) fn clear_body(&mut self, method: MethodId) {
        self.db.methods[method.index()].flags &= !flag::BODY;
    }

    /// Overwrites a method's signature in place, keeping its id (and its
    /// position in the declaring type's lookup list). The new parameters
    /// overwrite the old run when they fit in it and are appended
    /// otherwise. The body is dropped; the caller recompiles it against
    /// the new signature.
    ///
    /// # Panics
    ///
    /// If `params` is longer than [`Database::MAX_PARAMS`].
    pub(crate) fn replace_method_signature(
        &mut self,
        id: MethodId,
        is_static: bool,
        params: &[Param<'_>],
        ret: TypeId,
        visibility: Visibility,
    ) {
        let db = &mut *self.db;
        let m = &db.methods[id.index()];
        let reuse = (params.len() <= usize::from(m.n_params)).then_some(m.first_param as usize);
        db.released += 1;
        let first_param = db.put_params(params, reuse);
        let m = &mut db.methods[id.index()];
        m.first_param = first_param;
        m.n_params = params.len() as u16;
        m.ret = ret;
        m.flags = (m.flags & flag::REMOVED)
            | bit(is_static, flag::STATIC)
            | bit(visibility == Visibility::Private, flag::PRIVATE);
        m.overrides = NO_OVERRIDE;
    }

    /// Overwrites a field's signature in place, keeping its id.
    pub(crate) fn replace_field_signature(
        &mut self,
        id: FieldId,
        is_static: bool,
        ty: TypeId,
        visibility: Visibility,
        is_property: bool,
    ) {
        let f = &mut self.db.fields[id.index()];
        f.ty = ty;
        f.flags = (f.flags & flag::REMOVED)
            | bit(is_static, flag::STATIC)
            | bit(visibility == Visibility::Private, flag::PRIVATE)
            | bit(is_property, flag::PROPERTY);
    }
}

impl Drop for MemberBatch<'_> {
    fn drop(&mut self) {
        let db = &mut *self.db;
        let n_types = db.types.len();
        let (methods, fields) = (&db.methods, &db.fields);
        let appended = !self.removed
            && append_tail(&mut db.type_methods, n_types, || {
                live_methods(methods, self.first_method)
            })
            && append_tail(&mut db.type_fields, n_types, || {
                live_fields(fields, self.first_field)
            });
        if !appended {
            (db.type_methods, db.type_fields) = member_lists(n_types, methods, fields);
        }
    }
}

/// The live method rows from `first` on, as `(declaring type index, id)`.
fn live_methods(
    methods: &[MethodRow],
    first: usize,
) -> impl Iterator<Item = (usize, MethodId)> + '_ {
    (first as u32..)
        .zip(&methods[first..])
        .filter(|(_, m)| !m.is_removed())
        .map(|(i, m)| (m.declaring.index(), MethodId(i)))
}

/// The live field rows from `first` on, as `(declaring type index, id)`.
fn live_fields(fields: &[FieldRow], first: usize) -> impl Iterator<Item = (usize, FieldId)> + '_ {
    (first as u32..)
        .zip(&fields[first..])
        .filter(|(_, f)| !f.is_removed())
        .map(|(i, f)| (f.declaring.index(), FieldId(i)))
}

/// Appends the rows `new` yields to a per-type member table of `n_types`
/// types if each names a type past its last row, as a counting pass over
/// every row would list them, and says whether it could.
fn append_tail<T: Copy, I: Iterator<Item = (usize, T)>>(
    table: &mut RowTable<T>,
    n_types: usize,
    new: impl Fn() -> I,
) -> bool {
    let listed = table.len();
    if new().any(|(ty, _)| ty < listed) {
        return false;
    }
    if new().next().is_some() {
        let tail = RowTable::group(n_types - listed, || new().map(|(ty, id)| (ty - listed, id)));
        match listed {
            0 => *table = tail,
            _ => (0..tail.len()).for_each(|row| table.push_row(tail.row(row))),
        }
    }
    true
}

/// The per-type method and field lists of `n_types` types: each type's
/// live rows, in id order.
fn member_lists(
    n_types: usize,
    methods: &[MethodRow],
    fields: &[FieldRow],
) -> (RowTable<MethodId>, RowTable<FieldId>) {
    (
        RowTable::group(n_types, || live_methods(methods, 0)),
        RowTable::group(n_types, || live_fields(fields, 0)),
    )
}

/// Row `ty` of a per-type member table; types past the last row have
/// none.
fn type_row<T>(table: &RowTable<T>, ty: TypeId) -> &[T] {
    if ty.index() < table.len() {
        table.row(ty.index())
    } else {
        &[]
    }
}

/// The member rows a table compaction keeps whole: every live row, and
/// every tombstone a live method's body still calls or reads. An update
/// re-resolves only the types it names, so a body elsewhere can keep a
/// removed member's id; that call keeps resolving to the frozen
/// signature.
struct Kept {
    methods: Vec<bool>,
    fields: Vec<bool>,
}

impl Kept {
    fn of(db: &Database) -> Kept {
        let mut kept = Kept {
            methods: db.methods.iter().map(|m| !m.is_removed()).collect(),
            fields: db.fields.iter().map(|f| !f.is_removed()).collect(),
        };
        if kept.methods.contains(&false) || kept.fields.contains(&false) {
            for (_, body) in db.bodies() {
                for stmt in &body.stmts {
                    kept.stmt(stmt);
                }
            }
        }
        kept
    }

    fn stmt(&mut self, stmt: &Stmt) {
        if let Some(e) = stmt.expr() {
            self.expr(e);
        }
        match stmt {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.iter().chain(else_body).for_each(|s| self.stmt(s)),
            Stmt::While { body, .. } => body.iter().for_each(|s| self.stmt(s)),
            Stmt::Init(..) | Stmt::Expr(_) | Stmt::Return(_) => {}
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Call(m, args) => {
                self.methods[m.index()] = true;
                args.iter().for_each(|a| self.expr(a));
            }
            Expr::StaticField(f) => self.fields[f.index()] = true,
            Expr::FieldAccess(base, f) => {
                self.fields[f.index()] = true;
                self.expr(base);
            }
            Expr::Assign(l, r) | Expr::Cmp(_, l, r) => {
                self.expr(l);
                self.expr(r);
            }
            _ => {}
        }
    }
}

impl Database {
    /// The most parameters a method can declare: a method row counts them
    /// in a `u16`, as ECMA-335 numbers parameters.
    pub const MAX_PARAMS: usize = u16::MAX as usize;

    /// Creates an empty database over a fresh [`TypeTable`].
    pub fn new() -> Self {
        Database::with_types(TypeTable::new())
    }

    /// Creates a database over an existing type table.
    pub fn with_types(types: TypeTable) -> Self {
        Database {
            types,
            names: Names::default(),
            methods: Vec::new(),
            params: Vec::new(),
            fields: Vec::new(),
            type_methods: RowTable::new(),
            type_fields: RowTable::new(),
            bodies: Vec::new(),
            released: 0,
        }
    }

    /// The underlying type table.
    pub fn types(&self) -> &TypeTable {
        &self.types
    }

    /// The name table every member row points into.
    pub(crate) fn names(&self) -> &Names {
        &self.names
    }

    /// The parameter table.
    pub(crate) fn param_rows(&self) -> &[ParamRow] {
        &self.params
    }

    /// The raw member rows, for the snapshot encoder.
    pub(crate) fn rows(&self) -> (&[MethodRow], &[FieldRow]) {
        (&self.methods, &self.fields)
    }

    /// Reassembles a database from decoded tables and its body table (in
    /// method-id order, one entry per row flagged `BODY`), listing each
    /// type's live members in id order, as a [`MemberBatch`] lists them,
    /// so lookups iterate identically to the original database.
    pub(crate) fn from_tables(
        types: TypeTable,
        names: Names,
        methods: Vec<MethodRow>,
        params: Vec<ParamRow>,
        fields: Vec<FieldRow>,
        bodies: Vec<(MethodId, Arc<Body>)>,
    ) -> Self {
        let (type_methods, type_fields) = member_lists(types.len(), &methods, &fields);
        Database {
            type_methods,
            type_fields,
            types,
            names,
            methods,
            params,
            fields,
            bodies,
            released: 0,
        }
    }

    /// Ends a batch of edits: drops the body-table entries of rows that
    /// lost their body, compacts the parameter and name tables once their
    /// dead part outweighs the live part (see
    /// [`Database::compact_tables`]) and the type table's interface runs,
    /// drops the name table's interning index and every table's growth
    /// slack.
    pub(crate) fn shrink_members(&mut self) {
        let methods = &self.methods;
        self.bodies
            .retain(|(id, _)| methods[id.index()].flags & flag::BODY != 0);
        self.compact_tables();
        self.methods.shrink_to_fit();
        self.params.shrink_to_fit();
        self.fields.shrink_to_fit();
        self.type_methods.shrink_to_fit();
        self.type_fields.shrink_to_fit();
        self.bodies.shrink_to_fit();
        self.names.shrink();
        self.types.shrink_to_fit();
    }

    /// Rewrites the parameter and name tables with only what the kept
    /// rows reference, when the dead parameter rows outnumber the kept
    /// ones or the unreferenced names (text plus end offset) outweigh the
    /// referenced ones. Dead rows are left by signature replacements and
    /// removals, dead names by removals and renames (a rename is a removal
    /// plus an addition), so without this the tables would grow with the
    /// number of updates. Only removals and signature replacements leave
    /// dead entries, so the check runs only after one. Kept rows are the
    /// live ones and the tombstones a
    /// live body still calls or reads (see [`Kept`]); they keep their
    /// relative order in both tables, as a fresh compile lays them out. Any
    /// other tombstone loses its frozen parameters and its name becomes the
    /// empty name.
    fn compact_tables(&mut self) {
        if std::mem::take(&mut self.released) == 0 {
            return;
        }
        let kept = Kept::of(self);
        let kept_methods = || {
            self.methods
                .iter()
                .zip(&kept.methods)
                .filter_map(|(m, &k)| k.then_some(m))
        };
        let kept_params: usize = kept_methods().map(|m| usize::from(m.n_params)).sum();
        let mut live = vec![false; self.names.len()];
        for m in kept_methods() {
            live[m.name as usize] = true;
            for p in &self.params[m.param_range()] {
                live[p.name as usize] = true;
            }
        }
        for (f, _) in self.fields.iter().zip(&kept.fields).filter(|(_, &k)| k) {
            live[f.name as usize] = true;
        }
        let live_bytes: usize = (0..live.len())
            .filter(|&i| live[i])
            .map(|i| 4 + self.names.get(i as u32).len())
            .sum();
        if self.params.len() - kept_params <= kept_params
            && self.names.bytes() - live_bytes <= live_bytes
        {
            return;
        }
        let mut names = Names::default();
        let remap: Vec<u32> = (0..live.len())
            .map(|i| {
                if live[i] {
                    names.intern(self.names.get(i as u32))
                } else {
                    u32::MAX
                }
            })
            .collect();
        let mut empty = None;
        let mut params = Vec::with_capacity(kept_params);
        for (m, &k) in self.methods.iter_mut().zip(&kept.methods) {
            if !k {
                m.name = *empty.get_or_insert_with(|| names.intern(""));
                m.first_param = 0;
                m.n_params = 0;
                continue;
            }
            m.name = remap[m.name as usize];
            let range = m.param_range();
            m.first_param = params.len() as u32;
            params.extend(self.params[range].iter().map(|p| ParamRow {
                name: remap[p.name as usize],
                ty: p.ty,
            }));
        }
        for (f, &k) in self.fields.iter_mut().zip(&kept.fields) {
            f.name = if k {
                remap[f.name as usize]
            } else {
                *empty.get_or_insert_with(|| names.intern(""))
            };
        }
        self.names = names;
        self.params = params;
    }

    /// Mutable access to the type table (for declaring new types).
    pub fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.types
    }

    /// Appends `params` to the parameter table (or overwrites `reuse`, a
    /// dead run at least as long) and returns the run's first row.
    fn put_params(&mut self, params: &[Param<'_>], reuse: Option<usize>) -> u32 {
        assert!(
            params.len() <= Self::MAX_PARAMS,
            "a method declares at most {} parameters, got {}",
            Self::MAX_PARAMS,
            params.len()
        );
        let first = reuse.unwrap_or(self.params.len());
        for (i, p) in params.iter().enumerate() {
            let row = ParamRow {
                name: self.names.intern(p.name),
                ty: p.ty,
            };
            if reuse.is_some() {
                self.params[first + i] = row;
            } else {
                self.params.push(row);
            }
        }
        first as u32
    }

    /// Whether `ty`'s field list holds a field named `name_id`. Each text
    /// is interned once, so equal ids mean equal names.
    fn lists_field(&self, ty: TypeId, name_id: u32) -> bool {
        self.fields_of(ty)
            .iter()
            .any(|f| self.fields[f.index()].name == name_id)
    }

    /// Starts a batch of member additions and removals (see
    /// [`MemberBatch`]).
    pub fn member_batch(&mut self) -> MemberBatch<'_> {
        MemberBatch {
            first_method: self.methods.len(),
            first_field: self.fields.len(),
            db: self,
            removed: false,
            fields: HashSet::new(),
        }
    }

    /// Attaches a body to a method (replacing any previous one). Bodies
    /// set in method-id order append to the body table; any other finds
    /// its place by binary search.
    pub fn set_body(&mut self, method: MethodId, body: Body) {
        self.methods[method.index()].flags |= flag::BODY;
        let body = Arc::new(body);
        match self.bodies.binary_search_by_key(&method, |&(id, _)| id) {
            Ok(i) => self.bodies[i].1 = body,
            Err(i) => self.bodies.insert(i, (method, body)),
        }
    }

    /// The body of `method` in the body table.
    pub(crate) fn body_of(&self, method: MethodId) -> Option<&Body> {
        let i = self
            .bodies
            .binary_search_by_key(&method, |&(id, _)| id)
            .ok()?;
        Some(&self.bodies[i].1)
    }

    /// Every live method's body with its method, in method-id order: a
    /// walk of the body table that visits no method without one.
    pub fn bodies(&self) -> impl Iterator<Item = (MethodId, &Body)> + '_ {
        self.body_rows()
            .filter(|(id, _)| !self.methods[id.index()].is_removed())
    }

    /// Every body with its method, in method-id order, a removed method's
    /// included: [`Database::set_body`] gives a body to any method.
    pub(crate) fn body_rows(&self) -> impl Iterator<Item = (MethodId, &Body)> + '_ {
        self.bodies
            .iter()
            .filter(|(id, _)| self.methods[id.index()].flags & flag::BODY != 0)
            .map(|(id, body)| (*id, &**body))
    }

    /// Records that `method` overrides `base` (for abstract-type sharing).
    pub fn set_overrides(&mut self, method: MethodId, base: MethodId) {
        self.methods[method.index()].overrides = base.0;
    }

    /// Clears every override edge, so an incremental update can re-link
    /// them after member signatures changed.
    pub(crate) fn clear_all_overrides(&mut self) {
        for m in &mut self.methods {
            m.overrides = NO_OVERRIDE;
        }
    }

    /// The method behind an id.
    pub fn method(&self, id: MethodId) -> Method<'_> {
        Method::new(self, &self.methods[id.index()], id)
    }

    /// The field behind an id.
    pub fn field(&self, id: FieldId) -> Field<'_> {
        Field::new(self, &self.fields[id.index()])
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// All live method ids (tombstoned ids are skipped).
    pub fn methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.methods.len() as u32)
            .map(MethodId)
            .filter(move |m| !self.methods[m.index()].is_removed())
    }

    /// All live field ids (tombstoned ids are skipped).
    pub fn fields(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.fields.len() as u32)
            .map(FieldId)
            .filter(move |f| !self.fields[f.index()].is_removed())
    }

    /// Sizes of the name and parameter tables. Updates leave dead entries
    /// behind; each batch of edits compacts them once they outweigh the
    /// live ones, so neither table grows with the number of updates.
    pub fn table_sizes(&self) -> TableSizes {
        TableSizes {
            name_bytes: self.names.bytes(),
            param_rows: self.params.len(),
        }
    }

    /// Whether a method id has been tombstoned by an incremental update.
    pub fn method_removed(&self, id: MethodId) -> bool {
        self.methods[id.index()].is_removed()
    }

    /// Whether a field id has been tombstoned by an incremental update.
    pub fn field_removed(&self, id: FieldId) -> bool {
        self.fields[id.index()].is_removed()
    }

    /// Methods declared directly on a type.
    pub fn methods_of(&self, ty: TypeId) -> &[MethodId] {
        type_row(&self.type_methods, ty)
    }

    /// Fields declared directly on a type.
    pub fn fields_of(&self, ty: TypeId) -> &[FieldId] {
        type_row(&self.type_fields, ty)
    }

    /// Follows override edges to the root definition of a method.
    pub fn root_method(&self, mut id: MethodId) -> MethodId {
        while let Some(base) = self.method(id).overrides() {
            id = base;
        }
        id
    }

    /// The member-lookup chain of a type: the type itself followed by all
    /// supertypes in breadth-first order (base chain, interfaces, `Object`).
    /// Instance member lookup walks this chain.
    pub fn member_lookup_chain(&self, ty: TypeId) -> Vec<TypeId> {
        let mut out = Vec::new();
        self.member_lookup_chain_into(ty, &mut out);
        out
    }

    /// [`Database::member_lookup_chain`] into a caller's buffer, which is
    /// cleared first, so a walk over many types can reuse one.
    pub(crate) fn member_lookup_chain_into(&self, ty: TypeId, out: &mut Vec<TypeId>) {
        out.clear();
        out.push(ty);
        let mut i = 0;
        while i < out.len() {
            let cur = out[i];
            for s in self.types.immediate_supertypes(cur) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
            i += 1;
        }
    }

    /// Whether a member with the given visibility and declaring type is
    /// accessible from a context enclosed (if at all) by `from`.
    pub fn accessible(
        &self,
        visibility: Visibility,
        declaring: TypeId,
        from: Option<TypeId>,
    ) -> bool {
        match visibility {
            Visibility::Public => true,
            Visibility::Private => from == Some(declaring),
        }
    }

    /// Accessible instance fields/properties of `ty`, including inherited
    /// ones, in lookup-chain order. `from` is the enclosing type of the code
    /// doing the access (for private members).
    pub fn instance_fields(&self, ty: TypeId, from: Option<TypeId>) -> Vec<FieldId> {
        let mut out = Vec::new();
        for owner in self.member_lookup_chain(ty) {
            for &f in self.fields_of(owner) {
                let fd = self.field(f);
                if !fd.is_static() && self.accessible(fd.visibility(), owner, from) {
                    out.push(f);
                }
            }
        }
        out
    }

    /// Accessible zero-argument, non-void instance methods of `ty`,
    /// including inherited ones. These are the `.?m` candidates.
    pub fn zero_arg_instance_methods(&self, ty: TypeId, from: Option<TypeId>) -> Vec<MethodId> {
        let mut out = Vec::new();
        for owner in self.member_lookup_chain(ty) {
            for &m in self.methods_of(owner) {
                let md = self.method(m);
                if !md.is_static()
                    && md.params().is_empty()
                    && md.return_type() != self.types.void_ty()
                    && self.accessible(md.visibility(), owner, from)
                {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Accessible static fields of `ty` (declared directly; statics are not
    /// inherited for lookup purposes in this model).
    pub fn static_fields(&self, ty: TypeId, from: Option<TypeId>) -> Vec<FieldId> {
        self.fields_of(ty)
            .iter()
            .copied()
            .filter(|&f| {
                let fd = self.field(f);
                fd.is_static() && self.accessible(fd.visibility(), ty, from)
            })
            .collect()
    }

    /// All public globals in the program: static fields and zero-argument
    /// non-void static methods. These seed `?` holes and `.?*` chains.
    pub fn globals(&self) -> Vec<GlobalRef> {
        let mut out = Vec::new();
        for f in self.fields() {
            let fd = self.field(f);
            if fd.is_static() && fd.visibility() == Visibility::Public {
                out.push(GlobalRef::Field(f));
            }
        }
        for m in self.methods() {
            let md = self.method(m);
            if md.is_static()
                && md.visibility() == Visibility::Public
                && md.params().is_empty()
                && md.return_type() != self.types.void_ty()
            {
                out.push(GlobalRef::Method(m));
            }
        }
        out
    }

    /// Finds methods by simple name across the whole program (convenience
    /// for tests, examples and tooling).
    pub fn methods_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = MethodId> + 'a {
        self.methods()
            .filter(move |m| self.method(*m).name() == name)
    }

    /// Finds the unique method with the given `Namespace.Type.Name`
    /// qualified name, if exactly one exists (overloads return `None`).
    pub fn find_method(&self, qualified: &str) -> Option<MethodId> {
        let mut found = None;
        for m in self.methods() {
            if self.qualified_method_name(m) == qualified {
                if found.is_some() {
                    return None;
                }
                found = Some(m);
            }
        }
        found
    }

    /// Finds the field with the given `Namespace.Type.Name` qualified name.
    pub fn find_field(&self, qualified: &str) -> Option<FieldId> {
        self.fields()
            .find(|f| self.qualified_field_name(*f) == qualified)
    }

    /// Renders a method as `Namespace.Type.Name`.
    pub fn qualified_method_name(&self, id: MethodId) -> String {
        let m = self.method(id);
        format!("{}.{}", self.types.qualified_name(m.declaring()), m.name())
    }

    /// Renders a field as `Namespace.Type.Name`.
    pub fn qualified_field_name(&self, id: FieldId) -> String {
        let f = self.field(id);
        format!("{}.{}", self.types.qualified_name(f.declaring()), f.name())
    }

    /// The static type of an expression in a context.
    ///
    /// # Errors
    ///
    /// Returns an error if the expression is ill-formed for the context
    /// (unknown local slot, `this` in a static context, arity mismatch,
    /// inconvertible argument or operand types).
    ///
    /// The engine types interned expressions in its ranking walk
    /// (`pex_core::Ranker::score`), which applies the same checks per node;
    /// a property test pins that walk to this function.
    pub fn expr_ty(&self, expr: &Expr, ctx: &Context) -> ModelResult<ValueTy> {
        match expr {
            Expr::Local(l) => ctx
                .locals
                .get(l.index())
                .map(|loc| ValueTy::Known(loc.ty))
                .ok_or(ModelError::UnknownLocal { index: l.index() }),
            Expr::This => ctx
                .this_type()
                .map(ValueTy::Known)
                .ok_or(ModelError::NoThis),
            Expr::StaticField(f) => {
                let fd = self.field(*f);
                if !fd.is_static() {
                    return Err(ModelError::BadMemberAccess {
                        name: fd.name().to_owned(),
                    });
                }
                Ok(ValueTy::Known(fd.ty()))
            }
            Expr::FieldAccess(base, f) => {
                let fd = self.field(*f);
                if fd.is_static() {
                    return Err(ModelError::BadMemberAccess {
                        name: fd.name().to_owned(),
                    });
                }
                let base_ty = self.expr_ty(base, ctx)?;
                self.require_convertible(base_ty, fd.declaring(), "receiver of field access")?;
                Ok(ValueTy::Known(fd.ty()))
            }
            Expr::Call(m, args) => {
                let md = self.method(*m);
                let expected = md.full_arity();
                if args.len() != expected {
                    return Err(ModelError::BadArity {
                        name: md.name().to_owned(),
                        expected,
                        actual: args.len(),
                    });
                }
                for (i, (arg, want)) in args.iter().zip(md.full_param_types()).enumerate() {
                    let got = self.expr_ty(arg, ctx)?;
                    self.require_convertible(got, want, &format!("argument {i}"))?;
                }
                Ok(ValueTy::Known(md.return_type()))
            }
            Expr::Assign(lhs, rhs) => {
                if !matches!(
                    lhs.as_ref(),
                    Expr::Local(_) | Expr::StaticField(_) | Expr::FieldAccess(..)
                ) {
                    return Err(ModelError::NotAssignable);
                }
                let lt = self.expr_ty(lhs, ctx)?;
                let rt = self.expr_ty(rhs, ctx)?;
                match lt {
                    ValueTy::Known(t) => {
                        self.require_convertible(rt, t, "assignment source")?;
                        Ok(ValueTy::Known(t))
                    }
                    ValueTy::Wildcard => Ok(ValueTy::Wildcard),
                }
            }
            Expr::Cmp(_, lhs, rhs) => {
                let lt = self.expr_ty(lhs, ctx)?;
                let rt = self.expr_ty(rhs, ctx)?;
                // A wildcard operand can take any comparable type.
                if let (ValueTy::Known(a), ValueTy::Known(b)) = (lt, rt) {
                    if self.types.comparable_pair(a, b).is_none() {
                        return Err(ModelError::NotComparable);
                    }
                }
                Ok(ValueTy::Known(self.types.bool_ty()))
            }
            Expr::IntLit(_) => Ok(ValueTy::Known(self.types.int_ty())),
            Expr::DoubleLit(_) => Ok(ValueTy::Known(self.types.double_ty())),
            Expr::BoolLit(_) => Ok(ValueTy::Known(self.types.bool_ty())),
            Expr::StrLit(_) => Ok(ValueTy::Known(self.types.string_ty())),
            Expr::Null | Expr::Hole0 => Ok(ValueTy::Wildcard),
            Expr::Opaque { ty, .. } => Ok(ValueTy::Known(*ty)),
        }
    }

    fn require_convertible(&self, got: ValueTy, want: TypeId, at: &str) -> ModelResult<()> {
        match got {
            ValueTy::Wildcard => Ok(()),
            ValueTy::Known(t) => {
                if self.types.implicitly_convertible(t, want) {
                    Ok(())
                } else {
                    Err(ModelError::TypeMismatch { at: at.to_owned() })
                }
            }
        }
    }

    /// Whether a call with `argc` total arguments to `m` is a zero-argument
    /// instance call (receiver only) or a zero-argument static call.
    pub fn is_zero_arg_call(&self, m: MethodId, argc: usize) -> bool {
        let md = self.method(m);
        md.params().is_empty() && argc == usize::from(!md.is_static())
    }

    /// Convenience for tests and corpora: type of a comparison's general
    /// operand, if the two sides are comparable.
    pub fn comparison_general(&self, a: TypeId, b: TypeId) -> Option<TypeId> {
        self.types.comparable_pair(a, b).map(|p| p.general)
    }

    /// Checks that a body opens with its method's parameters: its
    /// parameter count is theirs, and its first local slots have their
    /// types. Every reader that splits a body's slots into parameters and
    /// locals by the method's parameter count relies on this.
    pub(crate) fn check_body_shape(&self, method: MethodId, body: &Body) -> ModelResult<()> {
        let md = self.method(method);
        match body.locals.get(..body.param_count) {
            Some(slots) if md.params().types().eq(slots.iter().map(|l| l.1)) => Ok(()),
            _ => Err(ModelError::BadParameterSlots {
                name: md.name().to_owned(),
            }),
        }
    }

    /// Validates an entire body in the context of its method: its
    /// parameter count and first local slots must be the method's
    /// parameters, every statement's expression must type-check, `Init`
    /// slots must be declared in order (and only at the top level),
    /// `if`/`while` conditions must be boolean, and return expressions
    /// must convert to the return type.
    pub fn check_body(&self, method: MethodId, body: &Body) -> ModelResult<()> {
        self.check_body_shape(method, body)?;
        for (i, stmt) in body.stmts.iter().enumerate() {
            let ctx = Context::at_statement(self, method, body, i);
            self.check_stmt(method, body, stmt, &ctx, false)?;
        }
        Ok(())
    }

    fn check_stmt(
        &self,
        method: MethodId,
        body: &Body,
        stmt: &Stmt,
        ctx: &Context,
        nested: bool,
    ) -> ModelResult<()> {
        let md = self.method(method);
        match stmt {
            Stmt::Init(l, e) => {
                if nested || l.index() < body.param_count || l.index() >= body.locals.len() {
                    return Err(ModelError::UnknownLocal { index: l.index() });
                }
                let got = self.expr_ty(e, ctx)?;
                self.require_convertible(got, body.locals[l.index()].1, "initialiser")?;
            }
            Stmt::Expr(e) => {
                self.expr_ty(e, ctx)?;
            }
            Stmt::Return(Some(e)) => {
                let got = self.expr_ty(e, ctx)?;
                self.require_convertible(got, md.return_type(), "return value")?;
            }
            Stmt::Return(None) => {}
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let got = self.expr_ty(cond, ctx)?;
                self.require_convertible(got, self.types.bool_ty(), "if condition")?;
                for inner in then_body.iter().chain(else_body.iter()) {
                    self.check_stmt(method, body, inner, ctx, true)?;
                }
            }
            Stmt::While {
                cond,
                body: loop_body,
            } => {
                let got = self.expr_ty(cond, ctx)?;
                self.require_convertible(got, self.types.bool_ty(), "while condition")?;
                for inner in loop_body {
                    self.check_stmt(method, body, inner, ctx, true)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, LocalId};

    fn tiny() -> (Database, TypeId, TypeId, FieldId, MethodId) {
        let mut db = Database::new();
        let ns = db.types_mut().namespaces_mut().intern(&["Geo"]);
        let point = db.types_mut().declare_struct(ns, "Point").unwrap();
        let line = db.types_mut().declare_class(ns, "Line").unwrap();
        let (int, double) = (db.types().int_ty(), db.types().double_ty());
        let mut batch = db.member_batch();
        let x = batch
            .add_field(point, "X", false, int, Visibility::Public, false)
            .unwrap();
        batch
            .add_field(line, "P1", false, point, Visibility::Public, false)
            .unwrap();
        let len = batch.add_method(line, "GetLength", false, &[], double, Visibility::Public);
        drop(batch);
        (db, point, line, x, len)
    }

    #[test]
    fn duplicate_field_rejected() {
        let (mut db, point, ..) = tiny();
        let int = db.types().int_ty();
        assert!(matches!(
            db.member_batch()
                .add_field(point, "X", false, int, Visibility::Public, false),
            Err(ModelError::DuplicateField { .. })
        ));
    }

    #[test]
    fn a_batch_lists_its_members_as_a_compile_does() {
        let (mut db, point, _, x, _) = tiny();
        let int = db.types().int_ty();
        // `Point` precedes `Line`, which already lists members.
        let mut batch = db.member_batch();
        let y = batch
            .add_field(point, "Y", false, int, Visibility::Public, false)
            .unwrap();
        batch.add_method(point, "Area", false, &[], int, Visibility::Public);
        // A field listed before the batch clashes, and so does one it added.
        for name in ["X", "Y"] {
            assert!(matches!(
                batch.add_field(point, name, true, int, Visibility::Public, false),
                Err(ModelError::DuplicateField { .. })
            ));
        }
        assert!(batch.methods_of(point).is_empty());
        drop(batch);
        let source = "namespace Geo {
            struct Point { int X; int Y; int Area(); }
            class Line { Geo.Point P1; double GetLength(); }
        }";
        let compiled = crate::minics::compile(source).unwrap();
        let lists = |db: &Database, ty: &str| {
            let ty = db.types().lookup_qualified(ty).unwrap();
            let methods = db.methods_of(ty).iter().map(|&m| db.method(m).name());
            let fields = db.fields_of(ty).iter().map(|&f| db.field(f).name());
            methods.chain(fields).collect::<Vec<_>>().join(" ")
        };
        for ty in ["Geo.Point", "Geo.Line"] {
            assert_eq!(lists(&db, ty), lists(&compiled, ty));
        }
        assert_eq!(db.fields_of(point), [x, y]);
        assert_eq!(db.type_fields.slack(), 0);
        // The compile's batch rejects a second `X` as this one did, and so
        // does an update's batch, where the first is listed before it.
        let twice = "namespace Geo { struct Point { int X; int X; } }";
        let dup = ModelError::DuplicateField { name: "X".into() }.to_string();
        let err = crate::minics::compile(twice).unwrap_err();
        assert!(err.msg.contains(&dup), "{err}");
        let err = crate::minics::apply_update(&compiled, twice).unwrap_err();
        assert!(err.msg.contains(&dup), "{err}");
    }

    #[test]
    fn a_removed_method_keeps_a_body_set_on_it() {
        use pex_types::wire::{Reader, StringTable, Strings, Writer};
        let mut db = crate::minics::compile(
            "namespace N { class A { static int F() { return 1; } static int G(); } }",
        )
        .unwrap();
        let f = db.find_method("N.A.F").unwrap();
        let g = db.find_method("N.A.G").unwrap();
        let body = db.method(f).body().unwrap().clone();
        db.member_batch().remove_method(g);
        db.set_body(g, body.clone());
        assert_eq!(db.method(g).body(), Some(&body));
        // Walks of the live model skip it.
        assert_eq!(db.bodies().map(|(m, _)| m).collect::<Vec<_>>(), [f]);
        let (mut strings, mut w) = (StringTable::new(), Writer::new());
        db.encode_snapshot(&mut strings, &mut w);
        let bytes = w.into_bytes();
        let mut table = Writer::new();
        strings.encode(&mut table);
        let table = table.into_bytes();
        let strings = Strings::decode(&table).unwrap();
        let decoded = Database::decode_snapshot(&strings, &mut Reader::new(&bytes)).unwrap();
        assert!(decoded.methods[g.index()].is_removed());
        assert_eq!(decoded.method(g).body(), Some(&body));
    }

    #[test]
    fn check_body_reports_parameter_slots_that_are_not_the_parameters() {
        let db = crate::minics::compile(
            "namespace N { class A { static int F(int a) { var b = a; return b; } } }",
        )
        .unwrap();
        let f = db.find_method("N.A.F").unwrap();
        let body = db.method(f).body().unwrap();
        assert_eq!(db.check_body(f, body), Ok(()));
        let (int, double) = (db.types().int_ty(), db.types().double_ty());
        let bad = Err(ModelError::BadParameterSlots { name: "F".into() });
        for (param_count, first_slot) in [(0, int), (2, int), (1, double)] {
            let mut forged = body.clone();
            (forged.param_count, forged.locals[0].1) = (param_count, first_slot);
            assert_eq!(db.check_body(f, &forged), bad, "{param_count} parameters");
        }
    }

    #[test]
    fn typing_of_chains_and_calls() {
        let (db, point, line, x, len) = tiny();
        let ctx = Context::with_locals(
            None,
            vec![
                crate::Local {
                    name: "ln".into(),
                    ty: line,
                },
                crate::Local {
                    name: "p".into(),
                    ty: point,
                },
            ],
        );
        let ln = Expr::Local(LocalId(0));
        let p = Expr::Local(LocalId(1));
        // ln.P1 has type Point; p.X has type int; ln.GetLength() is double.
        let p1 = db.fields().find(|f| db.field(*f).name() == "P1").unwrap();
        assert_eq!(
            db.expr_ty(&Expr::field(ln.clone(), p1), &ctx).unwrap(),
            ValueTy::Known(point)
        );
        assert_eq!(
            db.expr_ty(&Expr::field(p.clone(), x), &ctx).unwrap(),
            ValueTy::Known(db.types().int_ty())
        );
        assert_eq!(
            db.expr_ty(&Expr::Call(len, vec![ln.clone()]), &ctx)
                .unwrap(),
            ValueTy::Known(db.types().double_ty())
        );
        // Receiver of wrong type is an error.
        assert!(db.expr_ty(&Expr::Call(len, vec![p]), &ctx).is_err());
        // Wrong arity is an error.
        assert!(db.expr_ty(&Expr::Call(len, vec![]), &ctx).is_err());
    }

    #[test]
    fn this_requires_instance_context() {
        let (db, _, line, ..) = tiny();
        let static_ctx = Context::with_locals(Some(line), vec![]);
        assert!(db.expr_ty(&Expr::This, &static_ctx).is_err());
        let inst_ctx = Context::instance(line, vec![]);
        assert_eq!(
            db.expr_ty(&Expr::This, &inst_ctx).unwrap(),
            ValueTy::Known(line)
        );
    }

    #[test]
    fn comparisons_require_comparable_operands() {
        let (db, point, ..) = tiny();
        let ctx = Context::with_locals(
            None,
            vec![
                crate::Local {
                    name: "a".into(),
                    ty: db.types().int_ty(),
                },
                crate::Local {
                    name: "p".into(),
                    ty: point,
                },
            ],
        );
        let a = Expr::Local(LocalId(0));
        let p = Expr::Local(LocalId(1));
        assert!(db
            .expr_ty(&Expr::cmp(CmpOp::Ge, a.clone(), Expr::IntLit(3)), &ctx)
            .is_ok());
        assert!(db
            .expr_ty(&Expr::cmp(CmpOp::Lt, a.clone(), p.clone()), &ctx)
            .is_err());
        // Wildcard (null) operands are allowed through.
        assert!(db
            .expr_ty(&Expr::cmp(CmpOp::Lt, a, Expr::Null), &ctx)
            .is_ok());
    }

    #[test]
    fn assignment_typing() {
        let (db, point, line, x, _) = tiny();
        let ctx = Context::with_locals(
            None,
            vec![
                crate::Local {
                    name: "p".into(),
                    ty: point,
                },
                crate::Local {
                    name: "ln".into(),
                    ty: line,
                },
            ],
        );
        let p = Expr::Local(LocalId(0));
        let ln = Expr::Local(LocalId(1));
        let px = Expr::field(p.clone(), x);
        assert!(db
            .expr_ty(&Expr::assign(px.clone(), Expr::IntLit(1)), &ctx)
            .is_ok());
        // int field cannot receive a Line.
        assert!(db.expr_ty(&Expr::assign(px, ln.clone()), &ctx).is_err());
        // Calls are not assignable.
        assert!(db
            .expr_ty(&Expr::assign(Expr::IntLit(1), ln), &ctx)
            .is_err());
    }

    #[test]
    fn qualified_lookups() {
        let (db, _, line, ..) = tiny();
        let len = db.find_method("Geo.Line.GetLength").unwrap();
        assert_eq!(db.method(len).declaring(), line);
        assert!(db.find_method("Geo.Line.Nope").is_none());
        assert_eq!(db.methods_named("GetLength").count(), 1);
        let p1 = db.find_field("Geo.Line.P1").unwrap();
        assert_eq!(db.field(p1).name(), "P1");
        assert!(db.find_field("Geo.Line.Nope").is_none());
    }

    #[test]
    fn globals_collects_static_members() {
        let (mut db, point, line, ..) = tiny();
        let void = db.types().void_ty();
        let mut batch = db.member_batch();
        let f = batch
            .add_field(line, "Origin", true, point, Visibility::Public, false)
            .unwrap();
        let m = batch.add_method(line, "MakeUnit", true, &[], line, Visibility::Public);
        let hidden = batch
            .add_field(line, "secret", true, point, Visibility::Private, false)
            .unwrap();
        let void_m = batch.add_method(line, "Reset", true, &[], void, Visibility::Public);
        drop(batch);
        let globals = db.globals();
        assert!(globals.contains(&GlobalRef::Field(f)));
        assert!(globals.contains(&GlobalRef::Method(m)));
        assert!(!globals.contains(&GlobalRef::Field(hidden)));
        assert!(!globals.contains(&GlobalRef::Method(void_m)));
    }

    #[test]
    fn inherited_members_visible_through_chain() {
        let (mut db, point, line, ..) = tiny();
        let ns = db.types_mut().namespaces_mut().intern(&["Geo"]);
        let arrow = db.types_mut().declare_class(ns, "Arrow").unwrap();
        db.types_mut().set_base(arrow, line).unwrap();
        let fields = db.instance_fields(arrow, None);
        let names: Vec<&str> = fields.iter().map(|f| db.field(*f).name()).collect();
        assert!(
            names.contains(&"P1"),
            "inherited P1 visible on Arrow: {names:?}"
        );
        let methods = db.zero_arg_instance_methods(arrow, None);
        assert!(methods.iter().any(|m| db.method(*m).name() == "GetLength"));
        let _ = point;
    }

    #[test]
    fn private_members_respect_context() {
        let (mut db, point, line, ..) = tiny();
        let hidden = db
            .member_batch()
            .add_field(line, "cache", false, point, Visibility::Private, false)
            .unwrap();
        assert!(!db.instance_fields(line, None).contains(&hidden));
        assert!(db.instance_fields(line, Some(line)).contains(&hidden));
    }

    #[test]
    fn compaction_keeps_the_tombstones_a_live_body_calls() {
        let mut db = crate::minics::compile(
            "namespace N {
                class A {
                    static int Called(int count);
                    static int AnotherRatherLongMethodName(int anotherRatherLongParameter);
                }
                class B { static int G() { return N.A.Called(1); } }
            }",
        )
        .unwrap();
        let called = db.find_method("N.A.Called").unwrap();
        let other = db.find_method("N.A.AnotherRatherLongMethodName").unwrap();
        let mut batch = db.member_batch();
        batch.remove_method(called);
        batch.remove_method(other);
        drop(batch);
        let before = db.table_sizes();
        db.shrink_members();
        // The unreferenced names outweighed the referenced ones, so the
        // tables were rewritten and the uncalled tombstone released.
        assert!(db.table_sizes().name_bytes < before.name_bytes);
        assert_eq!(db.table_sizes().param_rows, 1);
        assert_eq!(db.method(other).name(), "");
        assert!(db.method(other).params().is_empty());
        // `B.G` still calls the other tombstone: it keeps its signature.
        assert_eq!(db.method(called).name(), "Called");
        let params: Vec<Param> = db.method(called).params().iter().collect();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].name, "count");
        assert!(db.names.is_exact());
    }

    #[test]
    fn member_tables_carry_no_growth_slack() {
        use pex_types::wire::{Reader, StringTable, Strings, Writer};
        let exact = |db: &Database| {
            assert_eq!(db.methods.capacity(), db.methods.len());
            assert_eq!(db.fields.capacity(), db.fields.len());
            assert_eq!(db.params.capacity(), db.params.len());
            assert_eq!(db.type_methods.slack(), 0);
            assert_eq!(db.type_fields.slack(), 0);
            assert_eq!(db.bodies.capacity(), db.bodies.len());
            assert!(db.names.is_exact(), "{:?}", db.names);
            assert_eq!(db.types.slack(), 0, "{:?}", db.types);
        };
        let source = r#"
            namespace Geo {
                interface IShape { double Area(); }
                interface IScaled { double Factor(); }
                enum Kind { Round, Square, Star }
                class Shape : Geo.IShape {
                    double Scale;
                    Geo.Kind Kind;
                    int Rank() { return 1; }
                    void Fit(double scale, Geo.Kind kind);
                }
                class Tile : Geo.Shape, Geo.IScaled { }
            }
        "#;
        let db = crate::minics::compile(source).unwrap();
        exact(&db);
        let (mut strings, mut w) = (StringTable::new(), Writer::new());
        db.encode_snapshot(&mut strings, &mut w);
        let bytes = w.into_bytes();
        let mut table = Writer::new();
        strings.encode(&mut table);
        let table = table.into_bytes();
        let strings = Strings::decode(&table).unwrap();
        exact(&Database::decode_snapshot(&strings, &mut Reader::new(&bytes)).unwrap());
        let edited = source.replace(
            "int Rank() { return 1; }",
            "int Rank() { return 1; } int Grade(int bonus) { return 2; } double Size;",
        );
        let (patched, diff) = crate::minics::apply_update(&db, &edited).unwrap();
        assert_eq!(diff.members_added, 2);
        exact(&patched);
        // A signature edit that outgrows its parameter run appends a new one.
        let edited = source.replace("Fit(double scale,", "Fit(double scale, int times,");
        let (patched, diff) = crate::minics::apply_update(&db, &edited).unwrap();
        assert_eq!(diff.signatures_changed, 1);
        exact(&patched);
        // An interface list that grows moves its run to the end of the
        // interface table; a new type adds a row.
        let edited = source
            .replace(
                "class Shape : Geo.IShape",
                "class Shape : Geo.IShape, Geo.IScaled",
            )
            .replace("class Tile", "struct Dot { } class Tile");
        let (patched, diff) = crate::minics::apply_update(&db, &edited).unwrap();
        assert!(diff.hierarchy_changed && diff.types_added == 1, "{diff:?}");
        exact(&patched);
        let shape = patched.types().lookup_qualified("Geo.Shape").unwrap();
        assert_eq!(patched.types().get(shape).interfaces().len(), 2);
    }
}
