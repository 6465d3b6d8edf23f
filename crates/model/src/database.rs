//! The program database: a type table plus members and bodies.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use pex_types::{TypeId, TypeTable};

use crate::{
    Body, Context, Expr, Field, FieldId, Method, MethodId, Name, Param, ValueTy, Visibility,
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
/// A `Database` is built either programmatically (`add_*` methods) or from
/// mini-C# source via [`crate::minics::compile`]. It is immutable during
/// completion; the engine and the abstract-type inference only read it.
#[derive(Debug, Clone, Default)]
pub struct Database {
    types: TypeTable,
    methods: Vec<Method>,
    fields: Vec<Field>,
    /// Live methods declared on each type, indexed by [`TypeId::index`];
    /// types past the end declare none.
    type_methods: Vec<Vec<MethodId>>,
    /// Live fields declared on each type, indexed like `type_methods`.
    type_fields: Vec<Vec<FieldId>>,
    // Member ids are positional and shared by every derived structure
    // (arena nodes, memo keys, index rows), so an incremental update can
    // never compact the arenas. Removal tombstones the id instead: the row
    // stays (stale references keep resolving to a frozen signature) but
    // every live iteration and lookup skips it.
    removed_methods: HashSet<MethodId>,
    removed_fields: HashSet<FieldId>,
}

/// The member list of `ty` in a table indexed by [`TypeId::index`],
/// growing the table to cover `ty`.
fn per_type<T>(table: &mut Vec<Vec<T>>, ty: TypeId) -> &mut Vec<T> {
    let i = ty.index();
    if table.len() <= i {
        table.resize_with(i + 1, Vec::new);
    }
    &mut table[i]
}

impl Database {
    /// Creates an empty database over a fresh [`TypeTable`].
    pub fn new() -> Self {
        Database::with_types(TypeTable::new())
    }

    /// Creates a database over an existing type table.
    pub fn with_types(types: TypeTable) -> Self {
        Database {
            types,
            methods: Vec::new(),
            fields: Vec::new(),
            type_methods: Vec::new(),
            type_fields: Vec::new(),
            removed_methods: HashSet::new(),
            removed_fields: HashSet::new(),
        }
    }

    /// The underlying type table.
    pub fn types(&self) -> &TypeTable {
        &self.types
    }

    /// The raw member arenas, for the snapshot encoder.
    pub(crate) fn members(&self) -> (&[Method], &[Field]) {
        (&self.methods, &self.fields)
    }

    /// The removal tombstone sets, for the snapshot encoder.
    pub(crate) fn removed_members(&self) -> (&HashSet<MethodId>, &HashSet<FieldId>) {
        (&self.removed_methods, &self.removed_fields)
    }

    /// Reassembles a database from decoded parts, rebuilding the per-type
    /// member tables by pushing members in id order — exactly the order
    /// [`Database::add_method`] / [`Database::add_field`] produced them in,
    /// so lookups iterate identically to the original database. Tombstoned
    /// ids keep their arena rows but are left out of the per-type tables.
    pub(crate) fn from_parts_with_removed(
        types: TypeTable,
        methods: Vec<Method>,
        fields: Vec<Field>,
        removed_methods: HashSet<MethodId>,
        removed_fields: HashSet<FieldId>,
    ) -> Self {
        let mut type_methods = Vec::new();
        for (i, m) in methods.iter().enumerate() {
            if !removed_methods.contains(&MethodId(i as u32)) {
                per_type(&mut type_methods, m.declaring).push(MethodId(i as u32));
            }
        }
        let mut type_fields = Vec::new();
        for (i, f) in fields.iter().enumerate() {
            if !removed_fields.contains(&FieldId(i as u32)) {
                per_type(&mut type_fields, f.declaring).push(FieldId(i as u32));
            }
        }
        Database {
            types,
            methods,
            fields,
            type_methods,
            type_fields,
            removed_methods,
            removed_fields,
        }
    }

    /// Reserves room for exactly `methods` more methods and `fields` more
    /// fields, so a caller that knows its member counts up front leaves
    /// no growth slack in the member tables.
    pub(crate) fn reserve_members(&mut self, methods: usize, fields: usize) {
        self.methods.reserve_exact(methods);
        self.fields.reserve_exact(fields);
    }

    /// Reserves room for exactly `methods` more methods and `fields` more
    /// fields declared on `ty`, so a caller that knows a type's member
    /// counts leaves no growth slack in its lists.
    pub(crate) fn reserve_type_members(&mut self, ty: TypeId, methods: usize, fields: usize) {
        per_type(&mut self.type_methods, ty).reserve_exact(methods);
        per_type(&mut self.type_fields, ty).reserve_exact(fields);
    }

    /// Drops the member tables' growth slack (after an incremental update
    /// appended members to a cloned, exactly sized database).
    pub(crate) fn shrink_members(&mut self) {
        self.methods.shrink_to_fit();
        self.fields.shrink_to_fit();
    }

    /// Mutable access to the type table (for declaring new types).
    pub fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.types
    }

    /// Adds a method. Overloads (same name, same type) are allowed.
    pub fn add_method(
        &mut self,
        declaring: TypeId,
        name: &str,
        is_static: bool,
        params: Vec<Param>,
        ret: TypeId,
        visibility: Visibility,
    ) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(Method {
            name: Name::new(name),
            declaring,
            is_static,
            params: params.into_boxed_slice(),
            ret,
            visibility,
            overrides: None,
            body: None,
        });
        per_type(&mut self.type_methods, declaring).push(id);
        id
    }

    /// Adds a field or property.
    ///
    /// # Errors
    ///
    /// Fails if the type already declares a field with this name.
    pub fn add_field(
        &mut self,
        declaring: TypeId,
        name: &str,
        is_static: bool,
        ty: TypeId,
        visibility: Visibility,
        is_property: bool,
    ) -> ModelResult<FieldId> {
        if self
            .fields_of(declaring)
            .iter()
            .any(|f| self.fields[f.index()].name == name)
        {
            return Err(ModelError::DuplicateField {
                name: name.to_owned(),
            });
        }
        let id = FieldId(self.fields.len() as u32);
        self.fields.push(Field {
            name: Name::new(name),
            declaring,
            is_static,
            ty,
            visibility,
            is_property,
        });
        per_type(&mut self.type_fields, declaring).push(id);
        Ok(id)
    }

    /// Adds an enum member as a public static field of the enum type.
    pub fn add_enum_member(&mut self, enum_ty: TypeId, name: &str) -> ModelResult<FieldId> {
        self.add_field(enum_ty, name, true, enum_ty, Visibility::Public, false)
    }

    /// Attaches a body to a method (replacing any previous one).
    pub fn set_body(&mut self, method: MethodId, body: Body) {
        self.methods[method.index()].body = Some(Box::new(body));
    }

    /// Records that `method` overrides `base` (for abstract-type sharing).
    pub fn set_overrides(&mut self, method: MethodId, base: MethodId) {
        self.methods[method.index()].overrides = Some(base);
    }

    /// Clears every override edge, so an incremental update can re-link
    /// them after member signatures changed.
    pub(crate) fn clear_all_overrides(&mut self) {
        for m in &mut self.methods {
            m.overrides = None;
        }
    }

    /// Drops a method's body (an update replaced a concrete declaration
    /// with a bodiless one).
    pub(crate) fn clear_body(&mut self, method: MethodId) {
        self.methods[method.index()].body = None;
    }

    /// Tombstones a method: drops it from its type's lookup list and from
    /// the live iterators while keeping the arena row, so stale references
    /// (interned expressions, old memo rows) stay resolvable. The body and
    /// override edge are cleared; the signature is frozen as-is.
    pub(crate) fn remove_method(&mut self, id: MethodId) {
        if !self.removed_methods.insert(id) {
            return;
        }
        let m = &mut self.methods[id.index()];
        m.body = None;
        m.overrides = None;
        if let Some(list) = self.type_methods.get_mut(m.declaring.index()) {
            list.retain(|&x| x != id);
        }
    }

    /// Tombstones a field (see [`Database::remove_method`]).
    pub(crate) fn remove_field(&mut self, id: FieldId) {
        if !self.removed_fields.insert(id) {
            return;
        }
        let declaring = self.fields[id.index()].declaring;
        if let Some(list) = self.type_fields.get_mut(declaring.index()) {
            list.retain(|&x| x != id);
        }
    }

    /// Overwrites a method's signature in place, keeping its id (and its
    /// position in the declaring type's lookup list). The body is dropped;
    /// the caller recompiles it against the new signature.
    pub(crate) fn replace_method_signature(
        &mut self,
        id: MethodId,
        is_static: bool,
        params: Vec<Param>,
        ret: TypeId,
        visibility: Visibility,
    ) {
        let m = &mut self.methods[id.index()];
        m.is_static = is_static;
        m.params = params.into_boxed_slice();
        m.ret = ret;
        m.visibility = visibility;
        m.body = None;
        m.overrides = None;
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
        let f = &mut self.fields[id.index()];
        f.is_static = is_static;
        f.ty = ty;
        f.visibility = visibility;
        f.is_property = is_property;
    }

    /// The method behind an id.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// The field behind an id.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
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
            .filter(move |m| !self.removed_methods.contains(m))
    }

    /// All live field ids (tombstoned ids are skipped).
    pub fn fields(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.fields.len() as u32)
            .map(FieldId)
            .filter(move |f| !self.removed_fields.contains(f))
    }

    /// Whether a method id has been tombstoned by an incremental update.
    pub fn method_removed(&self, id: MethodId) -> bool {
        self.removed_methods.contains(&id)
    }

    /// Whether a field id has been tombstoned by an incremental update.
    pub fn field_removed(&self, id: FieldId) -> bool {
        self.removed_fields.contains(&id)
    }

    /// Methods declared directly on a type.
    pub fn methods_of(&self, ty: TypeId) -> &[MethodId] {
        self.type_methods.get(ty.index()).map_or(&[], Vec::as_slice)
    }

    /// Fields declared directly on a type.
    pub fn fields_of(&self, ty: TypeId) -> &[FieldId] {
        self.type_fields.get(ty.index()).map_or(&[], Vec::as_slice)
    }

    /// Follows override edges to the root definition of a method.
    pub fn root_method(&self, mut id: MethodId) -> MethodId {
        while let Some(base) = self.methods[id.index()].overrides {
            id = base;
        }
        id
    }

    /// The member-lookup chain of a type: the type itself followed by all
    /// supertypes in breadth-first order (base chain, interfaces, `Object`).
    /// Instance member lookup walks this chain.
    pub fn member_lookup_chain(&self, ty: TypeId) -> Vec<TypeId> {
        let mut out = vec![ty];
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
        out
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
                let fd = &self.fields[f.index()];
                if !fd.is_static && self.accessible(fd.visibility, owner, from) {
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
                let md = &self.methods[m.index()];
                if !md.is_static
                    && md.params.is_empty()
                    && md.ret != self.types.void_ty()
                    && self.accessible(md.visibility, owner, from)
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
                let fd = &self.fields[f.index()];
                fd.is_static && self.accessible(fd.visibility, ty, from)
            })
            .collect()
    }

    /// All public globals in the program: static fields and zero-argument
    /// non-void static methods. These seed `?` holes and `.?*` chains.
    pub fn globals(&self) -> Vec<GlobalRef> {
        let mut out = Vec::new();
        for f in self.fields() {
            let fd = &self.fields[f.index()];
            if fd.is_static && fd.visibility == Visibility::Public {
                out.push(GlobalRef::Field(f));
            }
        }
        for m in self.methods() {
            let md = &self.methods[m.index()];
            if md.is_static
                && md.visibility == Visibility::Public
                && md.params.is_empty()
                && md.ret != self.types.void_ty()
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
        format!("{}.{}", self.types.qualified_name(m.declaring), m.name)
    }

    /// Renders a field as `Namespace.Type.Name`.
    pub fn qualified_field_name(&self, id: FieldId) -> String {
        let f = self.field(id);
        format!("{}.{}", self.types.qualified_name(f.declaring), f.name)
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
                if !fd.is_static {
                    return Err(ModelError::BadMemberAccess {
                        name: fd.name.to_string(),
                    });
                }
                Ok(ValueTy::Known(fd.ty))
            }
            Expr::FieldAccess(base, f) => {
                let fd = self.field(*f);
                if fd.is_static {
                    return Err(ModelError::BadMemberAccess {
                        name: fd.name.to_string(),
                    });
                }
                let base_ty = self.expr_ty(base, ctx)?;
                self.require_convertible(base_ty, fd.declaring, "receiver of field access")?;
                Ok(ValueTy::Known(fd.ty))
            }
            Expr::Call(m, args) => {
                let md = self.method(*m);
                let expected = md.full_arity();
                if args.len() != expected {
                    return Err(ModelError::BadArity {
                        name: md.name.to_string(),
                        expected,
                        actual: args.len(),
                    });
                }
                for (i, (arg, want)) in args.iter().zip(md.full_param_types()).enumerate() {
                    let got = self.expr_ty(arg, ctx)?;
                    self.require_convertible(got, want, &format!("argument {i}"))?;
                }
                Ok(ValueTy::Known(md.ret))
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
        md.params.is_empty() && argc == usize::from(!md.is_static)
    }

    /// Convenience for tests and corpora: type of a comparison's general
    /// operand, if the two sides are comparable.
    pub fn comparison_general(&self, a: TypeId, b: TypeId) -> Option<TypeId> {
        self.types.comparable_pair(a, b).map(|p| p.general)
    }

    /// Validates an entire body in the context of its method: every
    /// statement's expression must type-check, `Init` slots must be declared
    /// in order (and only at the top level), `if`/`while` conditions must be
    /// boolean, and return expressions must convert to the return type.
    pub fn check_body(&self, method: MethodId, body: &Body) -> ModelResult<()> {
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
        stmt: &crate::Stmt,
        ctx: &Context,
        nested: bool,
    ) -> ModelResult<()> {
        let md = self.method(method);
        match stmt {
            crate::Stmt::Init(l, e) => {
                if nested || l.index() < body.param_count || l.index() >= body.locals.len() {
                    return Err(ModelError::UnknownLocal { index: l.index() });
                }
                let got = self.expr_ty(e, ctx)?;
                self.require_convertible(got, body.locals[l.index()].1, "initialiser")?;
            }
            crate::Stmt::Expr(e) => {
                self.expr_ty(e, ctx)?;
            }
            crate::Stmt::Return(Some(e)) => {
                let got = self.expr_ty(e, ctx)?;
                self.require_convertible(got, md.ret, "return value")?;
            }
            crate::Stmt::Return(None) => {}
            crate::Stmt::If {
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
            crate::Stmt::While {
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
        let int = db.types().int_ty();
        let x = db
            .add_field(point, "X", false, int, Visibility::Public, false)
            .unwrap();
        let _p1 = db
            .add_field(line, "P1", false, point, Visibility::Public, false)
            .unwrap();
        let len = db.add_method(
            line,
            "GetLength",
            false,
            vec![],
            db.types().double_ty(),
            Visibility::Public,
        );
        let _ = ns;
        (db, point, line, x, len)
    }

    #[test]
    fn duplicate_field_rejected() {
        let (mut db, point, ..) = tiny();
        let int = db.types().int_ty();
        assert!(matches!(
            db.add_field(point, "X", false, int, Visibility::Public, false),
            Err(ModelError::DuplicateField { .. })
        ));
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
        let f = db
            .add_field(line, "Origin", true, point, Visibility::Public, false)
            .unwrap();
        let m = db.add_method(line, "MakeUnit", true, vec![], line, Visibility::Public);
        let hidden = db
            .add_field(line, "secret", true, point, Visibility::Private, false)
            .unwrap();
        let void_m = db.add_method(
            line,
            "Reset",
            true,
            vec![],
            db.types().void_ty(),
            Visibility::Public,
        );
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
            .add_field(line, "cache", false, point, Visibility::Private, false)
            .unwrap();
        assert!(!db.instance_fields(line, None).contains(&hidden));
        assert!(db.instance_fields(line, Some(line)).contains(&hidden));
    }

    #[test]
    fn member_tables_carry_no_growth_slack() {
        use pex_types::wire::{Reader, StringTable, Strings, Writer};
        let exact = |db: &Database| {
            assert_eq!(db.methods.capacity(), db.methods.len());
            assert_eq!(db.fields.capacity(), db.fields.len());
        };
        let source = r#"
            namespace Geo {
                enum Kind { Round, Square, Star }
                class Shape {
                    double Scale;
                    Geo.Kind Kind;
                    int Rank() { return 1; }
                }
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
            "int Rank() { return 1; } int Grade() { return 2; } double Size;",
        );
        let (patched, diff) = crate::minics::apply_update(&db, &edited).unwrap();
        assert_eq!(diff.members_added, 2);
        exact(&patched);
    }
}
