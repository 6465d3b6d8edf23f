//! The one lowering from parsed mini-C# units to a [`Database`]: a cold
//! compile and a live edit run the same passes.
//!
//! `apply_units` matches every declared type against a base database by
//! qualified name and patches a clone of it **in id-stable fashion**:
//! matched types and members keep their positional ids (interned
//! expressions, memo keys and index rows that mention them stay valid),
//! removed members are tombstoned rather than compacted, and only
//! genuinely new declarations mint fresh ids. [`super::compile`] applies
//! its units to `Database::new()`, where every declaration is new;
//! [`apply_update`] applies one re-parsed unit to a live model. The
//! returned [`ModelDiff`] is the exact dirty set the derived caches need:
//! a signature-identical body edit dirties nothing, an unchanged unit is
//! reported as a no-op.
//!
//! Id stability is what makes the incremental snapshot answer queries
//! byte-identically to a from-scratch rebuild of the final source: both
//! databases enumerate members in the same id order as long as surviving
//! members keep their relative order (in-place replacement guarantees
//! this) — see `tests/incremental_equiv.rs`.
//!
//! The base database is never touched: the patch runs on a clone, so any
//! parse or resolution error leaves the caller's model byte-identical
//! (the protocol layer relies on this for its atomic-update guarantee).

use std::ops::Range;

use pex_types::{TypeError, TypeId};

use crate::{Database, FieldId, MethodId, Param, Params, Visibility};

use super::ast;
use super::resolve::{compile_body, link_overrides, visibility, ScopeId, Scopes};
use super::{MiniCsError, MiniCsResult};

/// What an incremental update changed, phrased as the dirty sets the
/// derived caches key on. Every collection is deduplicated and sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelDiff {
    /// Types whose member surface (signatures, member add/remove) or
    /// declared supertype edges changed. Successor-memo entries whose
    /// lookup chain intersects this set are stale.
    pub dirty_types: Vec<TypeId>,
    /// Old and new parameter types (receiver included for instance
    /// methods) of every changed, added or removed method signature.
    /// Candidate-memo cells whose conversion targets intersect this set
    /// are stale.
    pub dirty_param_types: Vec<TypeId>,
    /// Methods whose signature was untouched but whose body changed.
    /// These invalidate nothing in the engine caches; they only matter to
    /// abstract-type inference, which is rebuilt per query site.
    pub body_edited: Vec<MethodId>,
    /// Whether any declared base/interface edge, `[Comparable]` attribute
    /// or freshly declared type changed the conversion graph.
    pub hierarchy_changed: bool,
    /// Whether the type-reachability edge set (instance-field types and
    /// zero-argument method returns) changed for any type.
    pub reach_changed: bool,
    /// Number of types declared by this update that did not exist before.
    pub types_added: usize,
    /// Members added / removed / re-signatured, for accounting.
    pub members_added: usize,
    /// Members tombstoned by this update.
    pub members_removed: usize,
    /// Members whose signature was overwritten in place.
    pub signatures_changed: usize,
}

impl ModelDiff {
    /// Whether the update changed nothing at all — the snapshot layer
    /// skips the swap entirely and reports zero invalidations.
    pub fn is_noop(&self) -> bool {
        self.dirty_types.is_empty()
            && self.body_edited.is_empty()
            && !self.hierarchy_changed
            && !self.reach_changed
            && self.types_added == 0
    }
}

/// The desired (re-resolved) signature of one method declaration.
struct WantMethod<'a> {
    name: &'a str,
    is_static: bool,
    /// The declaration's run of the type's parameter list (names borrow
    /// the source text).
    params: Range<usize>,
    ret: TypeId,
    visibility: Visibility,
    body: Option<&'a [ast::Stmt<'a>]>,
    /// Filled during matching: the id this declaration patched.
    id: Option<MethodId>,
}

/// The desired signature of one field/property declaration, with the
/// source position a rejected declaration is reported at.
struct WantField<'a> {
    name: &'a str,
    is_static: bool,
    ty: TypeId,
    visibility: Visibility,
    is_property: bool,
    line: u32,
    col: u32,
}

/// One matched (or new) type from the units, with everything needed to
/// resolve its members and bodies.
struct TypePatch<'a> {
    ty: TypeId,
    decl: &'a ast::TypeDecl<'a>,
    scope: ScopeId,
    /// The field ids pass 1 minted for a fresh enum's members, which its
    /// type's list does not show yet.
    enum_fields: Range<u32>,
}

/// A model or type-table error, reported at a source position.
fn at(line: u32, col: u32, e: impl std::fmt::Display) -> MiniCsError {
    MiniCsError::new(line, col, e.to_string())
}

/// Body work queued until the whole member surface is patched: the method,
/// its lookup scope and the unresolved statements.
type BodyWork<'a> = (MethodId, ScopeId, &'a [ast::Stmt<'a>]);

/// Re-parses one compilation unit and patches `base` with it.
///
/// Every type declared in the unit **replaces** the type with the same
/// qualified name (members are matched by name and signature; unmatched
/// old members are tombstoned); types the database does not know are
/// declared fresh. Types *not* mentioned in the unit are untouched —
/// removal of whole types is not supported by the update protocol.
///
/// # Errors
///
/// Any parse or resolution error is returned with its source position and
/// `base` is left untouched (the patch runs on a clone). Declaring a
/// built-in type (`System.Object`, `void`, a primitive) or one type twice
/// is an error, as it is for [`super::compile`].
pub fn apply_update(base: &Database, source: &str) -> MiniCsResult<(Database, ModelDiff)> {
    apply_units(base, &[super::parse(source)?])
}

/// Patches a clone of `base` with parsed units (see [`apply_update`]).
/// Pass 1 declares or matches the types of every unit before any base list
/// or signature is resolved, so units may reference each other in either
/// direction, like C# compilation units.
pub(super) fn apply_units<'a>(
    base: &Database,
    files: &'a [ast::File<'a>],
) -> MiniCsResult<(Database, ModelDiff)> {
    let mut db = base.clone();
    let mut diff = ModelDiff::default();
    let base_types = db.types().len();
    // Passes 1-3 mint and tombstone members in one batch; its drop lists
    // them before pass 4 reads any type's members.
    let mut batch = db.member_batch();

    // Pass 1: declare or match types. A fresh type is declared with its
    // enum members, and its member count sizes the member tables. Every
    // namespace is interned first, since a scope drops the paths no
    // interned namespace starts with.
    for file in files {
        for ns_decl in &file.namespaces {
            batch
                .types_mut()
                .namespaces_mut()
                .intern(file.path(ns_decl.path));
        }
    }
    let mut matched = vec![false; base_types];
    let mut dirty_types = vec![false; base_types];
    let (mut new_methods, mut new_members, mut new_params) = (0, 0, 0);
    let mut patches: Vec<TypePatch<'_>> = Vec::new();
    let mut scopes = Scopes::new();
    for file in files {
        for ns_decl in &file.namespaces {
            let ns = batch
                .types_mut()
                .namespaces_mut()
                .intern(file.path(ns_decl.path));
            let scope = scopes.add(&batch, file, ns_decl.path);
            for decl in &ns_decl.types {
                let mut enum_fields = 0..0;
                let ty = match batch.types().lookup(ns, decl.name) {
                    // Built-in types, and types these units already
                    // declared or matched, cannot be declared again.
                    Some(ty)
                        if ty.index() >= base_types
                            || matched[ty.index()]
                            || batch.types().is_builtin(ty) =>
                    {
                        let dup = TypeError::DuplicateType {
                            name: decl.name.to_owned(),
                        };
                        return Err(MiniCsError::new(decl.line, decl.col, dup.to_string()));
                    }
                    Some(ty) => {
                        matched[ty.index()] = true;
                        let have = batch.types().get(ty);
                        let same_kind = match decl.kind {
                            ast::TypeDeclKind::Class => have.is_class(),
                            ast::TypeDeclKind::Interface => have.is_interface(),
                            ast::TypeDeclKind::Struct => {
                                have.is_value_type()
                                    && !matches!(have.kind(), pex_types::TypeKind::Enum)
                            }
                            ast::TypeDeclKind::Enum => {
                                matches!(have.kind(), pex_types::TypeKind::Enum)
                            }
                        };
                        if !same_kind {
                            return Err(MiniCsError::new(
                                decl.line,
                                decl.col,
                                format!(
                                    "update cannot change the kind of `{}`",
                                    batch.types().qualified_name(ty)
                                ),
                            ));
                        }
                        if have.is_comparable() != decl.comparable {
                            batch.types_mut().set_comparable(ty, decl.comparable);
                            // Comparability feeds the ordered-filter
                            // pruners and comparison legality; treat like
                            // a hierarchy edit so every ordering-sensitive
                            // cache resets.
                            diff.hierarchy_changed = true;
                            dirty_types[ty.index()] = true;
                        }
                        ty
                    }
                    None => {
                        let types = batch.types_mut();
                        let declared = match decl.kind {
                            ast::TypeDeclKind::Class => types.declare_class(ns, decl.name),
                            ast::TypeDeclKind::Struct => types.declare_struct(ns, decl.name),
                            ast::TypeDeclKind::Interface => types.declare_interface(ns, decl.name),
                            ast::TypeDeclKind::Enum => types.declare_enum(ns, decl.name),
                        };
                        let ty = declared.map_err(|e| at(decl.line, decl.col, e))?;
                        if decl.comparable {
                            batch.types_mut().set_comparable(ty, true);
                        }
                        let (mut methods, mut params) = (0, 0);
                        for member in &decl.members {
                            if let ast::MemberDecl::Method { params: list, .. } = member {
                                methods += 1;
                                params += file.params(*list).len();
                            }
                        }
                        let first = batch.field_count() as u32;
                        for &member in &decl.enum_members {
                            batch
                                .add_field(ty, member, true, ty, Visibility::Public, false)
                                .map_err(|e| at(decl.line, decl.col, e))?;
                        }
                        enum_fields = first..batch.field_count() as u32;
                        diff.members_added += decl.enum_members.len();
                        new_methods += methods;
                        new_members += decl.members.len();
                        new_params += params;
                        diff.types_added += 1;
                        diff.hierarchy_changed = true;
                        ty
                    }
                };
                patches.push(TypePatch {
                    ty,
                    decl,
                    scope,
                    enum_fields,
                });
            }
        }
    }
    batch.reserve(new_methods, new_members - new_methods, new_params);
    // Dirty sets, indexed by type id; pass 1 declared every type.
    dirty_types.resize(batch.types().len(), false);
    let mut dirty_params = vec![false; batch.types().len()];

    // Pass 2: resolve base lists and diff them against the hierarchy.
    for patch in &patches {
        let mut want_base: Option<(TypeId, &ast::TypeRef)> = None;
        let mut want_ifaces: Vec<(TypeId, &ast::TypeRef)> = Vec::new();
        for base_ref in &patch.decl.bases {
            let b = scopes.type_ref(&batch, patch.scope, base_ref)?;
            let base_is_class = batch.types().get(b).is_class();
            if matches!(patch.decl.kind, ast::TypeDeclKind::Class) && base_is_class {
                if want_base.is_some() {
                    return Err(MiniCsError::new(
                        base_ref.line,
                        base_ref.col,
                        "classes can have only one base class",
                    ));
                }
                want_base = Some((b, base_ref));
            } else if !want_ifaces.iter().any(|&(i, _)| i == b) {
                want_ifaces.push((b, base_ref));
            }
        }
        let types = batch.types();
        if types.declared_base(patch.ty) == want_base.map(|(b, _)| b)
            && types
                .get(patch.ty)
                .interfaces()
                .iter()
                .copied()
                .eq(want_ifaces.iter().map(|&(i, _)| i))
        {
            continue;
        }
        let types = batch.types_mut();
        types.clear_supertypes(patch.ty);
        if let Some((b, r)) = want_base {
            types
                .set_base(patch.ty, b)
                .map_err(|e| at(r.line, r.col, e))?;
        }
        for (i, r) in want_ifaces {
            types
                .add_interface_impl(patch.ty, i)
                .map_err(|e| at(r.line, r.col, e))?;
        }
        diff.hierarchy_changed = true;
        dirty_types[patch.ty.index()] = true;
    }

    // Pass 3: member surface. Resolve desired signatures, match them to
    // existing ids (exact signature, then name + parameter types, then
    // name + arity, then unique name), overwrite mismatches in place,
    // tombstone leftovers, append genuinely new members.
    let mut member_surface_changed = false;
    let mut bodies: Vec<BodyWork<'_>> = Vec::new();
    let mut want_methods: Vec<WantMethod<'_>> = Vec::new();
    let mut want_params: Vec<Param<'_>> = Vec::new();
    let mut want_fields: Vec<WantField<'_>> = Vec::new();
    for patch in &patches {
        let (ty, decl) = (patch.ty, patch.decl);
        want_methods.clear();
        want_params.clear();
        want_fields.clear();
        for member in &decl.members {
            match member {
                ast::MemberDecl::Field {
                    is_static,
                    ty: tr,
                    name,
                    is_property,
                    is_private,
                } => {
                    want_fields.push(WantField {
                        name,
                        is_static: *is_static,
                        ty: scopes.type_ref(&batch, patch.scope, tr)?,
                        visibility: visibility(*is_private),
                        is_property: *is_property,
                        line: tr.line,
                        col: tr.col,
                    });
                }
                ast::MemberDecl::Method {
                    is_static,
                    ret,
                    name,
                    params,
                    body,
                    is_private,
                } => {
                    let ret_ty = match ret {
                        None => batch.types().void_ty(),
                        Some(tr) => scopes.type_ref(&batch, patch.scope, tr)?,
                    };
                    let params = scopes.file(patch.scope).params(*params);
                    // Reported at the first parameter past the limit.
                    if let Some((extra, _)) = params.get(Database::MAX_PARAMS) {
                        return Err(MiniCsError::new(
                            extra.line,
                            extra.col,
                            format!(
                                "method `{name}` declares {} parameters; at most {} are supported",
                                params.len(),
                                Database::MAX_PARAMS
                            ),
                        ));
                    }
                    let first = want_params.len();
                    for (tr, pname) in params {
                        want_params.push(Param {
                            name: pname,
                            ty: scopes.type_ref(&batch, patch.scope, tr)?,
                        });
                    }
                    want_methods.push(WantMethod {
                        name,
                        is_static: *is_static,
                        params: first..want_params.len(),
                        ret: ret_ty,
                        visibility: visibility(*is_private),
                        body: body.as_deref(),
                        id: None,
                    });
                }
            }
        }
        // Enum members are modeled as public static fields of the enum
        // (a fresh enum already holds them from pass 1, so they match).
        for member in &decl.enum_members {
            want_fields.push(WantField {
                name: member,
                is_static: true,
                ty,
                visibility: Visibility::Public,
                is_property: false,
                line: decl.line,
                col: decl.col,
            });
        }

        let mut type_dirty = false;

        // --- methods ---
        let old_methods: Vec<MethodId> = batch.methods_of(ty).to_vec();
        let mut taken: Vec<bool> = vec![false; old_methods.len()];
        let same_param_types = |params: Params, want: &[Param]| {
            params.len() == want.len() && params.types().zip(want).all(|(a, b)| a == b.ty)
        };
        // Match declarations to existing ids in four rounds: the full
        // signature (the id survives as is; only its body may change), then
        // ever looser keys (name + parameter types, name + arity, the name
        // alone), where every hit overwrites the signature in place.
        for round in 0..4 {
            for want in want_methods.iter_mut().filter(|w| w.id.is_none()) {
                let hit = old_methods.iter().enumerate().find(|&(i, &old)| {
                    let md = batch.method(old);
                    !taken[i]
                        && md.name() == want.name
                        && match round {
                            0 => {
                                md.is_static() == want.is_static
                                    && md.return_type() == want.ret
                                    && md.visibility() == want.visibility
                                    && same_param_types(
                                        md.params(),
                                        &want_params[want.params.clone()],
                                    )
                            }
                            1 => same_param_types(md.params(), &want_params[want.params.clone()]),
                            2 => md.params().len() == want.params.len(),
                            _ => true,
                        }
                });
                let Some((i, &old)) = hit else { continue };
                taken[i] = true;
                want.id = Some(old);
                if round > 0 {
                    mark(&mut dirty_params, batch.method(old).full_param_types());
                    batch.replace_method_signature(
                        old,
                        want.is_static,
                        &want_params[want.params.clone()],
                        want.ret,
                        want.visibility,
                    );
                    mark(&mut dirty_params, batch.method(old).full_param_types());
                    diff.signatures_changed += 1;
                    type_dirty = true;
                }
            }
        }
        // Leftover declarations mint fresh ids, and every declaration
        // with a body queues it; leftover ids tombstone.
        for want in &mut want_methods {
            let id = match want.id {
                Some(id) => id,
                None => {
                    dirty_params[ty.index()] |= !want.is_static;
                    let params = &want_params[want.params.clone()];
                    mark(&mut dirty_params, params.iter().map(|p| p.ty));
                    let id = batch.add_method(
                        ty,
                        want.name,
                        want.is_static,
                        params,
                        want.ret,
                        want.visibility,
                    );
                    diff.members_added += 1;
                    type_dirty = true;
                    id
                }
            };
            if let Some(stmts) = want.body {
                bodies.push((id, patch.scope, stmts));
            } else if batch.method(id).body().is_some() {
                // Declaration went bodiless while the model has a body —
                // a body removal (the signature may be untouched).
                batch.clear_body(id);
                diff.body_edited.push(id);
            }
        }
        for (i, &old) in old_methods.iter().enumerate() {
            if !taken[i] {
                mark(&mut dirty_params, batch.method(old).full_param_types());
                batch.remove_method(old);
                diff.members_removed += 1;
                type_dirty = true;
            }
        }

        // --- fields (matched by name; names are unique per type) ---
        let old_fields: Vec<FieldId> = batch
            .fields_of(ty)
            .iter()
            .copied()
            .chain(patch.enum_fields.clone().map(FieldId))
            .collect();
        let mut field_taken: Vec<bool> = vec![false; old_fields.len()];
        for want in &want_fields {
            let hit = old_fields
                .iter()
                .enumerate()
                .find(|&(i, &old)| !field_taken[i] && batch.field(old).name() == want.name);
            let Some((i, &old)) = hit else {
                // Fails when an earlier declaration of this name took the
                // old field or added one.
                batch
                    .add_field(
                        ty,
                        want.name,
                        want.is_static,
                        want.ty,
                        want.visibility,
                        want.is_property,
                    )
                    .map_err(|e| at(want.line, want.col, e))?;
                diff.members_added += 1;
                type_dirty = true;
                continue;
            };
            field_taken[i] = true;
            let fd = batch.field(old);
            if fd.is_static() != want.is_static
                || fd.ty() != want.ty
                || fd.visibility() != want.visibility
                || fd.is_property() != want.is_property
            {
                batch.replace_field_signature(
                    old,
                    want.is_static,
                    want.ty,
                    want.visibility,
                    want.is_property,
                );
                diff.signatures_changed += 1;
                type_dirty = true;
            }
        }
        for (i, &old) in old_fields.iter().enumerate() {
            if !field_taken[i] {
                batch.remove_field(old);
                diff.members_removed += 1;
                type_dirty = true;
            }
        }

        if type_dirty {
            member_surface_changed = true;
            dirty_types[ty.index()] = true;
        }
    }

    // The batch's added and removed rows reach their types' lists.
    drop(batch);

    // Pass 4: re-link overrides when any signature or hierarchy moved.
    if member_surface_changed || diff.hierarchy_changed {
        db.clear_all_overrides();
        link_overrides(&mut db);
    }

    // Pass 5: compile bodies against the patched model. A method keeps its
    // pre-patch body until here (a re-signatured one has none), so an
    // equal body is no edit.
    for (mid, scope, stmts) in bodies {
        let body = compile_body(&db, mid, &mut scopes, scope, stmts)?;
        if let Err(e) = db.check_body(mid, &body) {
            let (line, col) = stmts.first().map(stmt_pos).unwrap_or((0, 0));
            return Err(MiniCsError::new(line, col, e.to_string()));
        }
        if db.method(mid).body() != Some(&body) {
            // Only count as a pure body edit when the member surface of
            // the declaring type survived; re-signatured and new methods
            // are already in the dirty accounting.
            let signature_untouched = !dirty_types[db.method(mid).declaring().index()];
            db.set_body(mid, body);
            if signature_untouched {
                diff.body_edited.push(mid);
            }
        }
    }

    diff.dirty_types = flagged(&dirty_types);
    diff.dirty_param_types = flagged(&dirty_params);
    // Reachability edges: recompute the per-type local contribution for
    // every dirty type and compare against the base model. Hierarchy
    // edits and new types always change the edge universe.
    diff.reach_changed = diff.hierarchy_changed
        || diff.types_added > 0
        || diff
            .dirty_types
            .iter()
            .any(|&ty| reach_contribution(base, ty) != reach_contribution(&db, ty));
    diff.body_edited.sort_unstable();
    diff.body_edited.dedup();
    db.shrink_members();
    Ok((db, diff))
}

/// Flags every type in `tys` in a set indexed by type id.
fn mark(set: &mut [bool], tys: impl Iterator<Item = TypeId>) {
    for ty in tys {
        set[ty.index()] = true;
    }
}

/// The flagged ids of a set indexed by type id, in id order.
fn flagged(set: &[bool]) -> Vec<TypeId> {
    (0..set.len())
        .filter(|&i| set[i])
        .map(TypeId::from_index)
        .collect()
}

/// A type's locally declared reachability edges: instance-field types and
/// zero-argument non-void instance-method returns. Inherited edges are
/// covered by the dirtiness of the declaring type.
fn reach_contribution(db: &Database, ty: TypeId) -> Vec<TypeId> {
    let mut out = Vec::new();
    for &f in db.fields_of(ty) {
        let fd = db.field(f);
        if !fd.is_static() {
            out.push(fd.ty());
        }
    }
    for &m in db.methods_of(ty) {
        let md = db.method(m);
        if !md.is_static() && md.params().is_empty() && md.return_type() != db.types().void_ty() {
            out.push(md.return_type());
        }
    }
    out
}

fn stmt_pos(stmt: &ast::Stmt) -> (u32, u32) {
    match stmt {
        ast::Stmt::Local { line, col, .. }
        | ast::Stmt::Return(_, line, col)
        | ast::Stmt::If { line, col, .. }
        | ast::Stmt::While { line, col, .. } => (*line, *col),
        ast::Stmt::Expr(e) => e.pos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minics::compile;

    const BASE: &str = r#"
        namespace Geo {
            interface IShape { double GetArea(); }
            class Shape : Geo.IShape {
                double Scale;
                double GetArea() { return this.Scale; }
                int Rank() { return 1; }
            }
            class Circle : Geo.Shape {
                double Radius { get; set; }
                double GetArea() { return this.Radius; }
            }
        }
    "#;

    #[test]
    fn identical_unit_is_a_noop() {
        let db = compile(BASE).unwrap();
        let (patched, diff) = apply_update(&db, BASE).unwrap();
        assert!(diff.is_noop(), "{diff:?}");
        assert_eq!(diff.signatures_changed, 0);
        assert_eq!(patched.method_count(), db.method_count());
        assert_eq!(patched.field_count(), db.field_count());
    }

    #[test]
    fn body_edit_dirties_nothing_but_the_body() {
        let db = compile(BASE).unwrap();
        let edited = BASE.replace("int Rank() { return 1; }", "int Rank() { return 2; }");
        let (patched, diff) = apply_update(&db, &edited).unwrap();
        assert!(!diff.is_noop());
        assert!(diff.dirty_types.is_empty(), "{diff:?}");
        assert!(diff.dirty_param_types.is_empty(), "{diff:?}");
        assert!(!diff.hierarchy_changed);
        assert!(!diff.reach_changed);
        assert_eq!(diff.body_edited.len(), 1);
        let mid = diff.body_edited[0];
        assert_eq!(patched.method(mid).name(), "Rank");
        // The edited method kept its id; the base body is untouched.
        assert_ne!(
            db.method(mid).body().unwrap(),
            patched.method(mid).body().unwrap()
        );
    }

    #[test]
    fn return_type_change_keeps_id_and_dirties_the_type() {
        let db = compile(BASE).unwrap();
        let old_id = db.find_method("Geo.Shape.Rank").unwrap();
        let edited = BASE.replace(
            "int Rank() { return 1; }",
            "double Rank() { return this.Scale; }",
        );
        let (patched, diff) = apply_update(&db, &edited).unwrap();
        assert_eq!(diff.signatures_changed, 1);
        let shape = patched.types().lookup_qualified("Geo.Shape").unwrap();
        assert!(diff.dirty_types.contains(&shape), "{diff:?}");
        // Zero-arg instance method return changed: reachability edges moved.
        assert!(diff.reach_changed);
        // Pure signature overwrite: the id survived, no adds/removes.
        assert_eq!(diff.members_added, 0);
        assert_eq!(diff.members_removed, 0);
        let new_id = patched.find_method("Geo.Shape.Rank").unwrap();
        assert_eq!(old_id, new_id);
        assert_eq!(
            patched.method(new_id).return_type(),
            patched.types().double_ty()
        );
    }

    #[test]
    fn removed_member_is_tombstoned_not_compacted() {
        let db = compile(BASE).unwrap();
        let rank = db.find_method("Geo.Shape.Rank").unwrap();
        let area = db.find_method("Geo.Shape.GetArea").unwrap();
        let edited = BASE.replace("int Rank() { return 1; }", "");
        let (patched, diff) = apply_update(&db, &edited).unwrap();
        assert_eq!(diff.members_removed, 1);
        assert!(patched.method_removed(rank));
        // The arena row survives so stale references never panic…
        assert_eq!(patched.method(rank).name(), "Rank");
        // …but lookups and per-type lists no longer see it.
        assert!(patched.find_method("Geo.Shape.Rank").is_none());
        let shape = patched.types().lookup_qualified("Geo.Shape").unwrap();
        assert!(!patched.methods_of(shape).contains(&rank));
        // Untouched siblings keep their ids.
        assert_eq!(patched.find_method("Geo.Shape.GetArea"), Some(area));
    }

    #[test]
    fn base_edge_change_marks_hierarchy() {
        let db = compile(BASE).unwrap();
        let edited = BASE.replace("class Circle : Geo.Shape {", "class Circle {");
        let (patched, diff) = apply_update(&db, &edited).unwrap();
        assert!(diff.hierarchy_changed);
        let circle = patched.types().lookup_qualified("Geo.Circle").unwrap();
        assert!(patched.types().declared_base(circle).is_none());
        assert!(diff.dirty_types.contains(&circle));
    }

    #[test]
    fn parse_error_reports_position_and_leaves_base_alone() {
        let db = compile(BASE).unwrap();
        let before = db.method_count();
        let err = apply_update(&db, "namespace Geo { class Shape { int }").unwrap_err();
        assert!(err.line >= 1);
        assert_eq!(db.method_count(), before);
    }

    #[test]
    fn added_method_minting_fresh_id() {
        let db = compile(BASE).unwrap();
        let edited = BASE.replace(
            "int Rank() { return 1; }",
            "int Rank() { return 1; }\n                int Grade() { return this.Rank(); }",
        );
        let (patched, diff) = apply_update(&db, &edited).unwrap();
        assert_eq!(diff.members_added, 1);
        let grade = patched.find_method("Geo.Shape.Grade").unwrap();
        assert_eq!(grade.index(), db.method_count());
        assert!(patched.method(grade).body().is_some());
    }

    fn encoded(db: &Database) -> Vec<u8> {
        let mut strings = pex_types::wire::StringTable::new();
        let mut w = pex_types::wire::Writer::new();
        db.encode_snapshot(&mut strings, &mut w);
        strings.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn compile_is_an_update_of_the_empty_model() {
        // Enum members of a fresh type are minted with the type, before
        // any other type's fields.
        let src = "namespace N { class A { int X; } enum E { P, Q } class B { int Y; } }";
        let db = compile(src).unwrap();
        let names: Vec<&str> = db.fields().map(|f| db.field(f).name()).collect();
        assert_eq!(names, ["P", "Q", "X", "Y"]);
        let (updated, diff) = apply_update(&Database::new(), src).unwrap();
        assert!(
            encoded(&updated) == encoded(&db),
            "ids differ from compile's"
        );
        assert_eq!(diff.types_added, 3);
        assert_eq!(diff.members_added, 4);
    }

    #[test]
    fn a_method_past_the_parameter_limit_is_rejected() {
        let params = |n: usize| {
            let list: Vec<String> = (0..n).map(|i| format!("int p{i}")).collect();
            format!(
                "namespace N {{ class C {{ void M({}); }} }}",
                list.join(", ")
            )
        };
        let db = compile(&params(Database::MAX_PARAMS)).unwrap();
        let m = db.find_method("N.C.M").unwrap();
        assert_eq!(db.method(m).params().len(), Database::MAX_PARAMS);
        let src = params(Database::MAX_PARAMS + 1);
        let err = apply_update(&db, &src).unwrap_err();
        assert!(err.msg.contains("declares 65536 parameters"), "{err}");
        // Reported at the first parameter past the limit.
        let col = src.find(&format!("int p{}", Database::MAX_PARAMS)).unwrap() as u32 + 1;
        assert_eq!((err.line, err.col), (1, col), "{err}");
    }

    #[test]
    fn builtin_types_cannot_be_redeclared() {
        let db = compile(BASE).unwrap();
        for src in [
            "namespace System { class Object { int Hidden; } }",
            "namespace System { struct Void { } }",
        ] {
            let err = apply_update(&db, src).unwrap_err();
            assert!(err.msg.contains("already declared"), "{err}");
            let err = compile(src).unwrap_err();
            assert!(err.msg.contains("already declared"), "{err}");
        }
        let object = db.types().object();
        assert!(db.fields_of(object).is_empty());
    }

    #[test]
    fn a_type_declared_twice_is_rejected() {
        let db = compile(BASE).unwrap();
        // Twice in one unit, for a type the model has and for a new one.
        for src in [
            "namespace Geo { class Shape { int A; } class Shape { int B; } }",
            "namespace Geo { class Fresh { } class Fresh { } }",
        ] {
            let err = apply_update(&db, src).unwrap_err();
            assert!(err.msg.contains("already declared"), "{err}");
            // Reported at the second declaration.
            let second = src.rfind("class").unwrap() as u32 + 1;
            assert_eq!((err.line, err.col), (1, second), "{err}");
            assert!(compile(src).is_err());
        }
        // Once in each of two units.
        let err = crate::minics::compile_many(&[
            "namespace N { class C { } }",
            "namespace N { class C { } }",
        ])
        .unwrap_err();
        assert!(err.msg.contains("already declared"), "{err}");
    }
}
