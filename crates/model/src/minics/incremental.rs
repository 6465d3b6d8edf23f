//! Edit-scoped re-resolution: patch an existing [`Database`] from one
//! re-parsed compilation unit instead of rebuilding the world.
//!
//! [`apply_update`] parses a mini-C# unit, matches every declared type
//! against the current database by qualified name, and patches the model
//! **in id-stable fashion**: matched types and members keep their
//! positional ids (interned expressions, memo keys and index rows that
//! mention them stay valid), removed members are tombstoned rather than
//! compacted, and only genuinely new declarations mint fresh ids. The
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

use std::collections::HashSet;

use pex_types::TypeId;

use crate::{Body, Database, FieldId, MethodId, Name, Param, Visibility};

use super::ast;
use super::resolve::{
    compile_body, intern_namespaces, link_overrides, resolve_type_ref, visibility, Scope,
};
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
    params: Vec<Param>,
    ret: TypeId,
    visibility: Visibility,
    body: Option<&'a [ast::Stmt<'a>]>,
    /// Filled during matching: the id this declaration patched or minted.
    id: Option<MethodId>,
}

/// The desired signature of one field/property declaration.
struct WantField<'a> {
    name: &'a str,
    is_static: bool,
    ty: TypeId,
    visibility: Visibility,
    is_property: bool,
}

/// One matched (or new) type from the update unit, with everything needed
/// to re-resolve its members and bodies.
struct TypePatch<'a> {
    ty: TypeId,
    decl: &'a ast::TypeDecl<'a>,
    scope: Scope,
}

/// Body work queued until the whole member surface is patched: the method,
/// its lookup scope, its pre-patch body (for no-op detection), and the
/// unresolved statements.
type BodyWork<'a> = (MethodId, &'a Scope, Option<Body>, &'a [ast::Stmt<'a>]);

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
/// `base` is left untouched (the patch runs on a clone).
pub fn apply_update(base: &Database, source: &str) -> MiniCsResult<(Database, ModelDiff)> {
    let file = super::parse(source)?;
    let mut db = base.clone();
    let mut diff = ModelDiff::default();
    let mut dirty_types: HashSet<TypeId> = HashSet::new();
    let mut dirty_params: HashSet<TypeId> = HashSet::new();

    // Pass 1: declare or match types.
    intern_namespaces(&mut db, &file.namespaces);
    let mut patches: Vec<TypePatch<'_>> = Vec::new();
    for ns_decl in &file.namespaces {
        let ns = db.types_mut().namespaces_mut().intern(&ns_decl.path);
        let scope = Scope::new(&db, &ns_decl.path, &file.usings);
        for decl in &ns_decl.types {
            let existing = db.types().lookup(ns, decl.name);
            let ty = match existing {
                Some(ty) => {
                    let have = db.types().get(ty);
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
                                db.types().qualified_name(ty)
                            ),
                        ));
                    }
                    if have.is_comparable() != decl.comparable {
                        db.types_mut().set_comparable(ty, decl.comparable);
                        // Comparability feeds the ordered-filter pruners
                        // and comparison legality; treat like a hierarchy
                        // edit so every ordering-sensitive cache resets.
                        diff.hierarchy_changed = true;
                        dirty_types.insert(ty);
                    }
                    ty
                }
                None => {
                    let declared = match decl.kind {
                        ast::TypeDeclKind::Class => db.types_mut().declare_class(ns, decl.name),
                        ast::TypeDeclKind::Struct => db.types_mut().declare_struct(ns, decl.name),
                        ast::TypeDeclKind::Interface => {
                            db.types_mut().declare_interface(ns, decl.name)
                        }
                        ast::TypeDeclKind::Enum => db.types_mut().declare_enum(ns, decl.name),
                    };
                    let ty = declared
                        .map_err(|e| MiniCsError::new(decl.line, decl.col, e.to_string()))?;
                    if decl.comparable {
                        db.types_mut().set_comparable(ty, true);
                    }
                    diff.types_added += 1;
                    diff.hierarchy_changed = true;
                    ty
                }
            };
            patches.push(TypePatch {
                ty,
                decl,
                scope: scope.clone(),
            });
        }
    }

    // Pass 2: re-resolve base lists and diff them against the hierarchy.
    for patch in &patches {
        let mut want_base: Option<TypeId> = None;
        let mut want_ifaces: Vec<TypeId> = Vec::new();
        for base_ref in &patch.decl.bases {
            let b = resolve_type_ref(&db, &patch.scope, base_ref)?;
            let base_is_class = db.types().get(b).is_class();
            if matches!(patch.decl.kind, ast::TypeDeclKind::Class) && base_is_class {
                if want_base.is_some() {
                    return Err(MiniCsError::new(
                        base_ref.line,
                        base_ref.col,
                        "classes can have only one base class",
                    ));
                }
                want_base = Some(b);
            } else if !want_ifaces.contains(&b) {
                want_ifaces.push(b);
            }
        }
        let have_base = db.types().declared_base(patch.ty);
        let have_ifaces = db.types().get(patch.ty).interfaces().to_vec();
        if have_base == want_base && have_ifaces == want_ifaces {
            continue;
        }
        db.types_mut().clear_supertypes(patch.ty);
        if let Some(b) = want_base {
            db.types_mut()
                .set_base(patch.ty, b)
                .map_err(|e| MiniCsError::new(patch.decl.line, patch.decl.col, e.to_string()))?;
        }
        for i in want_ifaces {
            db.types_mut()
                .add_interface_impl(patch.ty, i)
                .map_err(|e| MiniCsError::new(patch.decl.line, patch.decl.col, e.to_string()))?;
        }
        diff.hierarchy_changed = true;
        dirty_types.insert(patch.ty);
    }

    // Pass 3: member surface. Re-resolve desired signatures, match them to
    // existing ids (exact signature, then name + parameter types, then
    // name + arity, then unique name), overwrite mismatches in place,
    // tombstone leftovers, append genuinely new members.
    let mut member_surface_changed = false;
    let mut bodies: Vec<BodyWork<'_>> = Vec::new();
    for patch in &patches {
        let decl = patch.decl;
        let mut want_methods: Vec<WantMethod<'_>> = Vec::new();
        let mut want_fields: Vec<WantField<'_>> = Vec::new();
        for member in &decl.members {
            match member {
                ast::MemberDecl::Field {
                    is_static,
                    ty,
                    name,
                    is_property,
                    is_private,
                } => {
                    let fty = resolve_type_ref(&db, &patch.scope, ty)?;
                    want_fields.push(WantField {
                        name,
                        is_static: *is_static,
                        ty: fty,
                        visibility: visibility(*is_private),
                        is_property: *is_property,
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
                        None => db.types().void_ty(),
                        Some(tr) => resolve_type_ref(&db, &patch.scope, tr)?,
                    };
                    let mut lowered = Vec::with_capacity(params.len());
                    for (tr, pname) in params {
                        let pty = resolve_type_ref(&db, &patch.scope, tr)?;
                        lowered.push(Param {
                            name: Name::new(pname),
                            ty: pty,
                        });
                    }
                    want_methods.push(WantMethod {
                        name,
                        is_static: *is_static,
                        params: lowered,
                        ret: ret_ty,
                        visibility: visibility(*is_private),
                        body: body.as_deref(),
                        id: None,
                    });
                }
            }
        }
        // Enum members are modeled as public static fields of the enum.
        for member in &decl.enum_members {
            want_fields.push(WantField {
                name: member,
                is_static: true,
                ty: patch.ty,
                visibility: Visibility::Public,
                is_property: false,
            });
        }

        let ty = patch.ty;
        let mut type_dirty = false;

        // --- methods ---
        let old_methods: Vec<MethodId> = db.methods_of(ty).to_vec();
        let mut taken: Vec<bool> = vec![false; old_methods.len()];
        // Round 1: full-signature matches (these may still be body edits).
        for want in &mut want_methods {
            for (i, &old) in old_methods.iter().enumerate() {
                if taken[i] {
                    continue;
                }
                let md = db.method(old);
                if md.name() == want.name
                    && md.is_static() == want.is_static
                    && md.return_type() == want.ret
                    && md.visibility() == want.visibility
                    && md.params().len() == want.params.len()
                    && md
                        .params()
                        .iter()
                        .zip(&want.params)
                        .all(|(a, b)| a.ty == b.ty)
                {
                    taken[i] = true;
                    want.id = Some(old);
                    break;
                }
            }
        }
        // Rounds 2-4: progressively looser matches; every hit is a
        // signature overwrite in place.
        for pass in 0..3 {
            for want in &mut want_methods {
                if want.id.is_some() {
                    continue;
                }
                for (i, &old) in old_methods.iter().enumerate() {
                    if taken[i] {
                        continue;
                    }
                    let md = db.method(old);
                    if md.name() != want.name {
                        continue;
                    }
                    let ok = match pass {
                        0 => {
                            md.params().len() == want.params.len()
                                && md
                                    .params()
                                    .iter()
                                    .zip(&want.params)
                                    .all(|(a, b)| a.ty == b.ty)
                        }
                        1 => md.params().len() == want.params.len(),
                        _ => true,
                    };
                    if ok {
                        taken[i] = true;
                        want.id = Some(old);
                        for p in md.full_param_types() {
                            dirty_params.insert(p);
                        }
                        db.replace_method_signature(
                            old,
                            want.is_static,
                            want.params.clone(),
                            want.ret,
                            want.visibility,
                        );
                        let md = db.method(old);
                        for p in md.full_param_types() {
                            dirty_params.insert(p);
                        }
                        diff.signatures_changed += 1;
                        type_dirty = true;
                        break;
                    }
                }
            }
        }
        // Leftover declarations mint fresh ids; leftover ids tombstone.
        for want in &mut want_methods {
            if want.id.is_some() {
                continue;
            }
            let id = db.add_method(
                ty,
                want.name,
                want.is_static,
                want.params.clone(),
                want.ret,
                want.visibility,
            );
            want.id = Some(id);
            for p in db.method(id).full_param_types() {
                dirty_params.insert(p);
            }
            diff.members_added += 1;
            type_dirty = true;
        }
        for (i, &old) in old_methods.iter().enumerate() {
            if !taken[i] {
                for p in db.method(old).full_param_types() {
                    dirty_params.insert(p);
                }
                db.remove_method(old);
                diff.members_removed += 1;
                type_dirty = true;
            }
        }

        // --- fields (matched by name; names are unique per type) ---
        let old_fields: Vec<FieldId> = db.fields_of(ty).to_vec();
        let mut field_taken: Vec<bool> = vec![false; old_fields.len()];
        let mut new_fields: Vec<&WantField<'_>> = Vec::new();
        for want in &want_fields {
            let hit = old_fields
                .iter()
                .enumerate()
                .find(|(i, &old)| !field_taken[*i] && db.field(old).name() == want.name);
            match hit {
                Some((i, &old)) => {
                    field_taken[i] = true;
                    let fd = db.field(old);
                    if fd.is_static() != want.is_static
                        || fd.ty() != want.ty
                        || fd.visibility() != want.visibility
                        || fd.is_property() != want.is_property
                    {
                        db.replace_field_signature(
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
                None => new_fields.push(want),
            }
        }
        for (i, &old) in old_fields.iter().enumerate() {
            if !field_taken[i] {
                db.remove_field(old);
                diff.members_removed += 1;
                type_dirty = true;
            }
        }
        for want in new_fields {
            db.add_field(
                ty,
                want.name,
                want.is_static,
                want.ty,
                want.visibility,
                want.is_property,
            )
            .map_err(|e| MiniCsError::new(decl.line, decl.col, e.to_string()))?;
            diff.members_added += 1;
            type_dirty = true;
        }

        if type_dirty {
            member_surface_changed = true;
            dirty_types.insert(ty);
        }

        // Collect body work: every method declaration with a body, plus
        // the old body (if the id survived untouched) for no-op detection.
        for want in &want_methods {
            let id = want.id.expect("every declaration matched or minted");
            if let Some(stmts) = want.body {
                let old_body = db.method(id).body().cloned();
                bodies.push((id, &patch.scope, old_body, stmts));
            } else if db.method(id).body().is_some() {
                // Declaration went bodiless while the model has a body —
                // a body removal (the signature may be untouched).
                db.clear_body(id);
                diff.body_edited.push(id);
            }
        }
    }

    // Pass 4: re-link overrides when any signature or hierarchy moved.
    if member_surface_changed || diff.hierarchy_changed {
        db.clear_all_overrides();
        link_overrides(&mut db);
    }

    // Pass 5: compile bodies against the patched model.
    for (mid, scope, old_body, stmts) in bodies {
        let body = compile_body(&db, mid, scope, stmts)?;
        if let Err(e) = db.check_body(mid, &body) {
            let (line, col) = stmts.first().map(stmt_pos).unwrap_or((0, 0));
            return Err(MiniCsError::new(line, col, e.to_string()));
        }
        if old_body.as_ref() != Some(&body) {
            // Only count as a pure body edit when the member surface of
            // the declaring type survived; re-signatured and new methods
            // are already in the dirty accounting.
            let signature_untouched = !dirty_types.contains(&db.method(mid).declaring());
            db.set_body(mid, body);
            if signature_untouched {
                diff.body_edited.push(mid);
            }
        }
    }

    // Reachability edges: recompute the per-type local contribution for
    // every dirty type and compare against the base model. Hierarchy
    // edits and new types always change the edge universe.
    diff.reach_changed = diff.hierarchy_changed
        || diff.types_added > 0
        || dirty_types
            .iter()
            .any(|&ty| reach_contribution(base, ty) != reach_contribution(&db, ty));

    diff.dirty_types = {
        let mut v: Vec<TypeId> = dirty_types.into_iter().collect();
        v.sort_unstable();
        v
    };
    diff.dirty_param_types = {
        let mut v: Vec<TypeId> = dirty_params.into_iter().collect();
        v.sort_unstable();
        v
    };
    diff.body_edited.sort_unstable();
    diff.body_edited.dedup();
    db.shrink_members();
    Ok((db, diff))
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
}
