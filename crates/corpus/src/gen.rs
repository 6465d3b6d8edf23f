//! Seeded synthetic project generation.
//!
//! The paper evaluates on seven mature C# codebases. Those binaries are not
//! available here, so this module generates projects with the same *shape*:
//! a framework-like library (namespace trees, class hierarchies, shared
//! concept members, realistic arities and static/instance mix) plus client
//! code whose bodies consist of the paper's statement forms — method calls,
//! assignments ending in field lookups, comparisons of corresponding
//! fields — from which the experiment harness extracts queries exactly as
//! the paper did. Everything is deterministic under a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pex_model::{Body, CmpOp, Context, Database, Expr, LocalId, MethodId, Param, Stmt, Visibility};
use pex_types::{PrimKind, TypeId};

use crate::names::{Concept, NameFactory, AREAS, CONCEPTS};

/// Shape knobs for the library half of a project.
#[derive(Debug, Clone)]
pub struct LibraryProfile {
    /// Root namespace (e.g. `"PaintDotNet"`).
    pub root: &'static str,
    /// Number of namespaces under the root (including the root itself).
    pub namespaces: usize,
    /// Number of library types.
    pub types: usize,
    /// Fraction of types that are interfaces.
    pub interface_frac: f64,
    /// Fraction of types that are structs.
    pub struct_frac: f64,
    /// Fraction of types that are enums.
    pub enum_frac: f64,
    /// Probability a class gets a base class.
    pub subclass_frac: f64,
    /// Range of instance/static fields per class or struct.
    pub fields_per_type: (usize, usize),
    /// Probability a field uses a shared concept name and type.
    pub concept_field_frac: f64,
    /// Probability a field is declared as a property.
    pub property_frac: f64,
    /// Probability a field is static (a global).
    pub static_field_frac: f64,
    /// Range of methods per class or struct.
    pub methods_per_type: (usize, usize),
    /// Probability a method is static.
    pub static_method_frac: f64,
    /// Probability a method has zero parameters (getter-style).
    pub zero_arg_frac: f64,
    /// Maximum declared parameters.
    pub max_arity: usize,
    /// Probability a (non-zero-arg) method returns void.
    pub void_frac: f64,
    /// Probability a parameter or field has a primitive type.
    pub primitive_frac: f64,
    /// Probability a non-primitive member type is drawn from the same
    /// namespace (the locality that powers the common-namespace term).
    pub same_ns_bias: f64,
    /// Fraction of methods whose parameter signature is cloned onto other
    /// types, creating families of same-signature methods the ranking
    /// function cannot separate by types alone (the paper notes such
    /// families exist and hurt static-call prediction).
    pub family_frac: f64,
    /// Size range of a signature family (including the original).
    pub family_size: (usize, usize),
}

impl Default for LibraryProfile {
    fn default() -> Self {
        LibraryProfile {
            root: "Framework",
            namespaces: 8,
            types: 60,
            interface_frac: 0.08,
            struct_frac: 0.12,
            enum_frac: 0.10,
            subclass_frac: 0.35,
            fields_per_type: (2, 6),
            concept_field_frac: 0.45,
            property_frac: 0.3,
            static_field_frac: 0.12,
            methods_per_type: (2, 8),
            static_method_frac: 0.35,
            zero_arg_frac: 0.25,
            max_arity: 5,
            void_frac: 0.3,
            primitive_frac: 0.4,
            same_ns_bias: 0.7,
            family_frac: 0.12,
            family_size: (2, 12),
        }
    }
}

/// Shape knobs for the client half of a project.
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// Number of client classes.
    pub classes: usize,
    /// Methods per client class.
    pub methods_per_class: (usize, usize),
    /// Library-typed fields per client class.
    pub fields_per_class: (usize, usize),
    /// Statements per client method body.
    pub stmts_per_method: (usize, usize),
    /// Statement mixture: method call.
    pub call_frac: f64,
    /// Statement mixture: assignment.
    pub assign_frac: f64,
    /// Statement mixture: comparison.
    pub cmp_frac: f64,
    /// Probability an argument is deliberately "not guessable" (literal or
    /// opaque computation) — drives Figure 14's distribution.
    pub opaque_arg_frac: f64,
    /// Probability argument synthesis prefers a field chain over a local.
    pub chain_arg_frac: f64,
    /// Probability a comparison pairs same-named fields.
    pub same_name_cmp_bias: f64,
    /// Probability argument synthesis deliberately passes a value whose
    /// type is a *strict* subtype of the parameter type (real code rarely
    /// passes the exact declared type everywhere).
    pub loose_arg_frac: f64,
}

impl Default for ClientProfile {
    fn default() -> Self {
        ClientProfile {
            classes: 6,
            methods_per_class: (3, 7),
            fields_per_class: (2, 5),
            stmts_per_method: (4, 10),
            call_frac: 0.45,
            assign_frac: 0.30,
            cmp_frac: 0.10,
            opaque_arg_frac: 0.2,
            chain_arg_frac: 0.35,
            same_name_cmp_bias: 0.6,
            loose_arg_frac: 0.3,
        }
    }
}

/// Generates a full project (library + clients) into a fresh database.
pub fn generate(lib: &LibraryProfile, client: &ClientProfile, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut names = NameFactory::new();
    let library = gen_library(&mut db, lib, &mut names, &mut rng);
    gen_clients(&mut db, &library, lib, client, &mut names, &mut rng);
    db
}

/// What the client generator needs to know about the library.
#[derive(Debug, Default)]
pub(crate) struct LibraryInfo {
    pub(crate) object_types: Vec<TypeId>,
    pub(crate) enums: Vec<TypeId>,
    pub(crate) methods: Vec<MethodId>,
}

fn pick_range(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

const ORDERED_PRIMS: &[PrimKind] = &[
    PrimKind::Int,
    PrimKind::Long,
    PrimKind::Double,
    PrimKind::Float,
    PrimKind::Short,
    PrimKind::Byte,
];

fn gen_library(
    db: &mut Database,
    p: &LibraryProfile,
    names: &mut NameFactory,
    rng: &mut StdRng,
) -> LibraryInfo {
    // Namespaces: the root plus nested areas.
    let root_id = db.types_mut().namespaces_mut().intern(&[p.root]);
    let mut ns_ids = vec![root_id];
    let mut ns_paths: Vec<Vec<String>> = vec![vec![p.root.to_owned()]];
    while ns_ids.len() < p.namespaces.max(1) {
        let parent = rng.gen_range(0..ns_paths.len());
        if ns_paths[parent].len() >= 3 {
            continue;
        }
        let area = AREAS[rng.gen_range(0..AREAS.len())];
        let mut path = ns_paths[parent].clone();
        path.push(area.to_owned());
        let id = db.types_mut().namespaces_mut().intern(&path);
        if !ns_ids.contains(&id) {
            ns_ids.push(id);
            ns_paths.push(path);
        }
    }

    // Declare types.
    let mut info = LibraryInfo::default();
    let mut classes: Vec<TypeId> = Vec::new();
    let mut structs: Vec<TypeId> = Vec::new();
    let mut interfaces: Vec<TypeId> = Vec::new();
    let mut enum_members: Vec<usize> = Vec::new();
    for _ in 0..p.types {
        let ns = *pick(rng, &ns_ids).expect("namespaces nonempty");
        let name = names.type_name(rng);
        let roll: f64 = rng.gen();
        if roll < p.enum_frac {
            if let Ok(e) = db.types_mut().declare_enum(ns, &name) {
                enum_members.push(rng.gen_range(3..=6));
                info.enums.push(e);
            }
        } else if roll < p.enum_frac + p.interface_frac {
            if let Ok(i) = db.types_mut().declare_interface(ns, &name) {
                interfaces.push(i);
            }
        } else if roll < p.enum_frac + p.interface_frac + p.struct_frac {
            if let Ok(s) = db.types_mut().declare_struct(ns, &name) {
                structs.push(s);
                info.object_types.push(s);
            }
        } else if let Ok(c) = db.types_mut().declare_class(ns, &name) {
            classes.push(c);
            info.object_types.push(c);
        }
    }

    // Hierarchy: bases among earlier classes; some interface impls.
    for (i, &c) in classes.iter().enumerate() {
        if i > 0 && rng.gen_bool(p.subclass_frac) {
            let base = classes[rng.gen_range(0..i)];
            let _ = db.types_mut().set_base(c, base);
        }
        if !interfaces.is_empty() && rng.gen_bool(0.2) {
            let iface = *pick(rng, &interfaces).expect("nonempty");
            let _ = db.types_mut().add_interface_impl(c, iface);
        }
    }

    // Members, listed once at the end: enum members come first, struct
    // members follow every class's, and family copies land on any type.
    let mut batch = db.member_batch();
    for (&e, &members) in info.enums.iter().zip(&enum_members) {
        for &member in &NOUN_CASES[..members] {
            let _ = batch.add_field(e, member, true, e, Visibility::Public, false);
        }
    }
    let concrete: Vec<TypeId> = classes.iter().chain(structs.iter()).copied().collect();
    for &t in &concrete {
        let owner = batch.types().qualified_name(t);
        let nfields = pick_range(rng, p.fields_per_type);
        for _ in 0..nfields {
            let is_static = rng.gen_bool(p.static_field_frac);
            let is_property = rng.gen_bool(p.property_frac);
            if rng.gen_bool(p.concept_field_frac) {
                let c: &Concept = &CONCEPTS[rng.gen_range(0..CONCEPTS.len())];
                if names.reserve_concept(&owner, c) {
                    let ty = batch.types().prim(c.prim);
                    let _ =
                        batch.add_field(t, c.name, is_static, ty, Visibility::Public, is_property);
                }
                continue;
            }
            let name = names.field_name(rng, &owner);
            let ty = member_type(&batch, t, p, &info, rng);
            let _ = batch.add_field(t, &name, is_static, ty, Visibility::Public, is_property);
        }
        let nmethods = pick_range(rng, p.methods_per_type);
        for _ in 0..nmethods {
            let name = names.method_name(rng, &owner);
            let is_static = rng.gen_bool(p.static_method_frac);
            let zero_arg = rng.gen_bool(p.zero_arg_frac);
            let arity = if zero_arg {
                0
            } else {
                rng.gen_range(1..=p.max_arity.max(1))
            };
            let mut params = Vec::with_capacity(arity);
            for i in 0..arity {
                let ty = member_type(&batch, t, p, &info, rng);
                params.push((NameFactory::local_name(rng, i), ty));
            }
            let ret = if zero_arg {
                // Zero-argument methods are chain links; they must return.
                member_type(&batch, t, p, &info, rng)
            } else if rng.gen_bool(p.void_frac) {
                batch.types().void_ty()
            } else {
                member_type(&batch, t, p, &info, rng)
            };
            let m = batch.add_method(
                t,
                &name,
                is_static,
                &borrowed(&params),
                ret,
                Visibility::Public,
            );
            info.methods.push(m);
        }
    }
    // Signature families: clone some signatures onto other types so that
    // several methods accept exactly the same argument types.
    let n_methods = info.methods.len();
    for mi in 0..n_methods {
        if !rng.gen_bool(p.family_frac) {
            continue;
        }
        let original = info.methods[mi];
        let (params, ret, is_static) = {
            let md = batch.method(original);
            let params: Vec<(String, TypeId)> = md
                .params()
                .iter()
                .map(|p| (p.name.to_owned(), p.ty))
                .collect();
            (params, md.return_type(), md.is_static())
        };
        if params.is_empty() {
            continue;
        }
        let copies = pick_range(
            rng,
            (
                p.family_size.0.saturating_sub(1),
                p.family_size.1.saturating_sub(1),
            ),
        );
        for _ in 0..copies {
            let Some(&host) = pick(rng, &concrete) else {
                break;
            };
            let owner = batch.types().qualified_name(host);
            let name = names.method_name(rng, &owner);
            let m = batch.add_method(
                host,
                &name,
                is_static,
                &borrowed(&params),
                ret,
                Visibility::Public,
            );
            info.methods.push(m);
        }
    }

    // Interface methods (no bodies, instance, non-void).
    for &t in &interfaces {
        let owner = batch.types().qualified_name(t);
        for _ in 0..rng.gen_range(1..=3usize) {
            let name = names.method_name(rng, &owner);
            let ret = member_type(&batch, t, p, &info, rng);
            let m = batch.add_method(t, &name, false, &[], ret, Visibility::Public);
            info.methods.push(m);
        }
    }
    drop(batch);
    info
}

/// Generated `(name, type)` parameters as a batch's `add_method` takes
/// them.
fn borrowed(params: &[(String, TypeId)]) -> Vec<Param<'_>> {
    params
        .iter()
        .map(|(name, ty)| Param { name, ty: *ty })
        .collect()
}

const NOUN_CASES: &[&str] = &[
    "None",
    "Default",
    "Primary",
    "Secondary",
    "Hidden",
    "Visible",
    "Active",
    "Disabled",
];

/// Picks a type for a field/parameter/return slot: primitive with
/// `primitive_frac`, otherwise an object type with same-namespace bias.
fn member_type(
    db: &Database,
    owner: TypeId,
    p: &LibraryProfile,
    info: &LibraryInfo,
    rng: &mut StdRng,
) -> TypeId {
    if info.object_types.is_empty() && info.enums.is_empty() {
        return db.types().prim(PrimKind::Int);
    }
    if rng.gen_bool(p.primitive_frac) {
        let prims = [
            PrimKind::Int,
            PrimKind::Double,
            PrimKind::String,
            PrimKind::Bool,
            PrimKind::Long,
        ];
        return db.types().prim(prims[rng.gen_range(0..prims.len())]);
    }
    // A slice of utility methods take `object` (the paper's Pair.Create
    // distractors), which every argument fits at type distance >= 1.
    if rng.gen_bool(0.06) {
        return db.types().object();
    }
    if !info.enums.is_empty() && rng.gen_bool(0.12) {
        return *pick(rng, &info.enums).expect("nonempty");
    }
    let owner_ns = db.types().get(owner).namespace();
    if rng.gen_bool(p.same_ns_bias) {
        let same: Vec<TypeId> = info
            .object_types
            .iter()
            .copied()
            .filter(|t| db.types().get(*t).namespace() == owner_ns)
            .collect();
        if let Some(t) = pick(rng, &same) {
            return *t;
        }
    }
    *pick(rng, &info.object_types).expect("nonempty")
}

/// A value available to expression synthesis: an expression plus its type.
#[derive(Debug, Clone)]
struct Avail {
    expr: Expr,
    ty: TypeId,
}

fn gen_clients(
    db: &mut Database,
    library: &LibraryInfo,
    libp: &LibraryProfile,
    p: &ClientProfile,
    names: &mut NameFactory,
    rng: &mut StdRng,
) {
    let client_ns = db.types_mut().namespaces_mut().intern(&[libp.root, "App"]);
    // Candidate base classes: library classes (apps subclass framework
    // types, which also lets `this` appear as an argument — Figure 14).
    let lib_classes: Vec<TypeId> = library
        .object_types
        .iter()
        .copied()
        .filter(|t| db.types().get(*t).is_class())
        .collect();
    for ci in 0..p.classes {
        let cname = format!("Client{ci}");
        let Ok(class) = db.types_mut().declare_class(client_ns, &cname) else {
            continue;
        };
        if !lib_classes.is_empty() && rng.gen_bool(0.5) {
            let base = lib_classes[rng.gen_range(0..lib_classes.len())];
            let _ = db.types_mut().set_base(class, base);
        }
        // Library-typed instance fields, listed before the bodies that
        // read them. A client batch names only the newest type, so its
        // drop appends its rows.
        let nfields = pick_range(rng, p.fields_per_class);
        let owner = db.types().qualified_name(class);
        let mut batch = db.member_batch();
        for _ in 0..nfields {
            let name = names.field_name(rng, &owner);
            let Some(&ty) = pick(rng, &library.object_types) else {
                break;
            };
            let _ = batch.add_field(class, &name, false, ty, Visibility::Public, false);
        }
        drop(batch);
        // `Run*` methods take parameters: no body's lookup sees them.
        let nmethods = pick_range(rng, p.methods_per_class);
        let (void, mut batch) = (db.types().void_ty(), db.member_batch());
        let mut bodies = Vec::with_capacity(nmethods);
        for mi in 0..nmethods {
            let is_static = rng.gen_bool(0.2);
            let nparams = rng.gen_range(1..=4usize);
            let mut params = Vec::with_capacity(nparams);
            for i in 0..nparams {
                let ty = if rng.gen_bool(0.3) || library.object_types.is_empty() {
                    let prims = [PrimKind::Int, PrimKind::Double, PrimKind::String];
                    batch.types().prim(prims[rng.gen_range(0..prims.len())])
                } else {
                    *pick(rng, &library.object_types).expect("nonempty")
                };
                params.push((NameFactory::local_name(rng, i), ty));
            }
            let m = batch.add_method(
                class,
                &format!("Run{mi}"),
                is_static,
                &borrowed(&params),
                void,
                Visibility::Public,
            );
            bodies.push((m, gen_body(&batch, library, p, m, rng)));
        }
        drop(batch);
        for (m, body) in bodies {
            db.set_body(m, body);
        }
    }
}

fn gen_body(
    db: &Database,
    library: &LibraryInfo,
    p: &ClientProfile,
    method: MethodId,
    rng: &mut StdRng,
) -> Body {
    let md = db.method(method);
    let mut body = Body {
        locals: md
            .params()
            .iter()
            .map(|pr| (pr.name.to_string(), pr.ty))
            .collect(),
        param_count: md.params().len(),
        stmts: Vec::new(),
    };
    let nstmts = pick_range(rng, p.stmts_per_method);
    for _ in 0..nstmts {
        let ctx = Context::at_statement(db, method, &body, body.stmts.len());
        let roll: f64 = rng.gen();
        let stmt = if roll < p.call_frac {
            gen_call_stmt(db, library, p, &ctx, &mut body, rng)
        } else if roll < p.call_frac + p.assign_frac {
            gen_assign_stmt(db, p, &ctx, rng)
        } else if roll < p.call_frac + p.assign_frac + p.cmp_frac {
            gen_branch_stmt(db, library, p, &ctx, rng)
        } else {
            gen_decl_stmt(db, library, p, &ctx, &mut body, rng)
        };
        if let Some(stmt) = stmt {
            body.stmts.push(stmt);
        }
    }
    debug_assert!(
        db.check_body(method, &body).is_ok(),
        "generated body must type-check"
    );
    body
}

/// Everything reachable as a simple chain from the context: locals, `this`,
/// one- and two-link field chains.
fn available_values(db: &Database, ctx: &Context, rng: &mut StdRng) -> Vec<Avail> {
    let mut out = Vec::new();
    for (i, l) in ctx.locals.iter().enumerate() {
        out.push(Avail {
            expr: Expr::Local(LocalId(i as u32)),
            ty: l.ty,
        });
    }
    if let Some(t) = ctx.this_type() {
        out.push(Avail {
            expr: Expr::This,
            ty: t,
        });
    }
    // One level of lookups from each base (bounded for speed). Fields and
    // methods shadowed by a nearer declaration with the same name are
    // skipped: simple member syntax cannot denote them.
    let bases: Vec<Avail> = out.clone();
    for base in &bases {
        let mut seen_names: Vec<String> = Vec::new();
        for f in db.instance_fields(base.ty, ctx.enclosing_type) {
            let fd = db.field(f);
            if seen_names.iter().any(|n| n == fd.name()) {
                continue;
            }
            seen_names.push(fd.name().to_owned());
            out.push(Avail {
                expr: Expr::field(base.expr.clone(), f),
                ty: fd.ty(),
            });
        }
        let mut seen_methods: Vec<String> = Vec::new();
        for m in db
            .zero_arg_instance_methods(base.ty, ctx.enclosing_type)
            .into_iter()
            .take(4)
        {
            let md = db.method(m);
            if seen_methods.iter().any(|n| n == md.name()) {
                continue;
            }
            seen_methods.push(md.name().to_owned());
            if seen_methods.len() > 2 {
                break;
            }
            out.push(Avail {
                expr: Expr::Call(m, vec![base.expr.clone()]),
                ty: md.return_type(),
            });
        }
    }
    // A sample of two-link chains.
    let singles: Vec<Avail> = out
        .iter()
        .filter(|a| matches!(a.expr, Expr::FieldAccess(..)))
        .cloned()
        .collect();
    for a in singles.iter().take(8) {
        if rng.gen_bool(0.5) {
            let mut seen_names: Vec<String> = Vec::new();
            for f in db.instance_fields(a.ty, ctx.enclosing_type) {
                let fd = db.field(f);
                if seen_names.iter().any(|n| n == fd.name()) {
                    continue;
                }
                seen_names.push(fd.name().to_owned());
                if seen_names.len() > 3 {
                    break;
                }
                out.push(Avail {
                    expr: Expr::field(a.expr.clone(), f),
                    ty: fd.ty(),
                });
            }
        }
    }
    out
}

/// Synthesises an argument of (a type convertible to) `ty`.
fn synth_value(
    db: &Database,
    p: &ClientProfile,
    avail: &[Avail],
    ty: TypeId,
    rng: &mut StdRng,
) -> Expr {
    let tdef = db.types().get(ty);
    // Deliberately not-guessable arguments.
    if rng.gen_bool(p.opaque_arg_frac) {
        if let Some(pk) = tdef.prim_kind() {
            return prim_literal(pk, rng);
        }
        return Expr::Opaque {
            ty,
            label: "Compute()".into(),
        };
    }
    // Enum members.
    if matches!(tdef.kind(), pex_types::TypeKind::Enum) {
        let members = db.static_fields(ty, None);
        if let Some(&f) = pick(rng, &members) {
            return Expr::StaticField(f);
        }
    }
    let convertible: Vec<&Avail> = avail
        .iter()
        .filter(|a| db.types().implicitly_convertible(a.ty, ty))
        .collect();
    // Locals are by far the most common argument form in real code
    // (paper Figure 14), so try them first most of the time.
    if rng.gen_bool(0.55) {
        let locals: Vec<&&Avail> = convertible
            .iter()
            .filter(|a| matches!(a.expr, Expr::Local(_)))
            .collect();
        if let Some(a) = pick(rng, &locals) {
            return a.expr.clone();
        }
    }
    // Sometimes pass a strict subtype: real arguments rarely have the
    // exact declared parameter type everywhere.
    if rng.gen_bool(p.loose_arg_frac) {
        let loose: Vec<&&Avail> = convertible.iter().filter(|a| a.ty != ty).collect();
        if let Some(a) = pick(rng, &loose) {
            return a.expr.clone();
        }
    }
    let chains: Vec<&&Avail> = convertible
        .iter()
        .filter(|a| !matches!(a.expr, Expr::Local(_)))
        .collect();
    if rng.gen_bool(p.chain_arg_frac) {
        if let Some(a) = pick(rng, &chains) {
            return a.expr.clone();
        }
    }
    if let Some(a) = pick(rng, &convertible) {
        return a.expr.clone();
    }
    // Globals of a convertible type.
    let globals: Vec<Expr> = db
        .globals()
        .into_iter()
        .filter_map(|g| match g {
            pex_model::GlobalRef::Field(f)
                if db.types().implicitly_convertible(db.field(f).ty(), ty) =>
            {
                Some(Expr::StaticField(f))
            }
            _ => None,
        })
        .collect();
    if let Some(g) = pick(rng, &globals) {
        return g.clone();
    }
    if let Some(pk) = tdef.prim_kind() {
        return prim_literal(pk, rng);
    }
    Expr::Opaque {
        ty,
        label: "Compute()".into(),
    }
}

fn prim_literal(pk: PrimKind, rng: &mut StdRng) -> Expr {
    match pk {
        PrimKind::Bool => Expr::BoolLit(rng.gen_bool(0.5)),
        PrimKind::String => Expr::StrLit(format!("s{}", rng.gen_range(0..100))),
        PrimKind::Double | PrimKind::Float | PrimKind::Decimal => {
            Expr::DoubleLit(rng.gen_range(0..100) as f64 / 4.0)
        }
        _ => Expr::IntLit(rng.gen_range(1..100)),
    }
}

/// Builds a call to a library method with synthesised arguments.
fn build_call(
    db: &Database,
    library: &LibraryInfo,
    p: &ClientProfile,
    ctx: &Context,
    rng: &mut StdRng,
    want_return: bool,
) -> Option<Expr> {
    let avail = available_values(db, ctx, rng);
    // Sample a few candidate methods; prefer the one whose arguments can be
    // filled with the fewest opaque fallbacks.
    let mut best: Option<(usize, Expr, MethodId)> = None;
    for _ in 0..6 {
        let &m = pick(rng, &library.methods)?;
        let md = db.method(m);
        if want_return && md.return_type() == db.types().void_ty() {
            continue;
        }
        // Real code calls instance methods about twice as often as statics
        // (paper Table 2: 13904 instance vs 7272 static).
        if md.is_static() && rng.gen_bool(0.45) {
            continue;
        }
        let mut args = Vec::with_capacity(md.full_arity());
        let mut opaque = 0usize;
        for ty in md.full_param_types() {
            let a = synth_value(db, p, &avail, ty, rng);
            if matches!(a, Expr::Opaque { .. }) {
                opaque += 1;
            }
            args.push(a);
        }
        let expr = Expr::Call(m, args);
        if db.expr_ty(&expr, ctx).is_err() {
            continue;
        }
        if best.as_ref().map(|(b, ..)| opaque < *b).unwrap_or(true) {
            let better = (opaque, expr, m);
            best = Some(better);
            if opaque == 0 {
                break;
            }
        }
    }
    best.map(|(_, e, _)| e)
}

fn gen_call_stmt(
    db: &Database,
    library: &LibraryInfo,
    p: &ClientProfile,
    ctx: &Context,
    _body: &mut Body,
    rng: &mut StdRng,
) -> Option<Stmt> {
    build_call(db, library, p, ctx, rng, false).map(Stmt::Expr)
}

fn gen_decl_stmt(
    db: &Database,
    library: &LibraryInfo,
    p: &ClientProfile,
    ctx: &Context,
    body: &mut Body,
    rng: &mut StdRng,
) -> Option<Stmt> {
    let call = build_call(db, library, p, ctx, rng, true)?;
    let ty = match db.expr_ty(&call, ctx) {
        Ok(pex_model::ValueTy::Known(t)) => t,
        _ => return None,
    };
    let id = LocalId(body.locals.len() as u32);
    body.locals
        .push((NameFactory::local_name(rng, body.locals.len()), ty));
    Some(Stmt::Init(id, call))
}

fn gen_assign_stmt(
    db: &Database,
    p: &ClientProfile,
    ctx: &Context,
    rng: &mut StdRng,
) -> Option<Stmt> {
    let avail = available_values(db, ctx, rng);
    // Target: a chain ending in a writable instance field.
    let targets: Vec<&Avail> = avail
        .iter()
        .filter(|a| matches!(a.expr, Expr::FieldAccess(..)))
        .collect();
    let target = pick(rng, &targets)?;
    let source = synth_value(db, p, &avail, target.ty, rng);
    let expr = Expr::assign(target.expr.clone(), source);
    if db.expr_ty(&expr, ctx).is_err() {
        return None;
    }
    Some(Stmt::Expr(expr))
}

fn gen_cmp_stmt(db: &Database, p: &ClientProfile, ctx: &Context, rng: &mut StdRng) -> Option<Stmt> {
    let avail = available_values(db, ctx, rng);
    // Left side: a chain ending in an ordered-primitive field.
    let ordered: Vec<&Avail> = avail
        .iter()
        .filter(|a| {
            matches!(a.expr, Expr::FieldAccess(..))
                && db
                    .types()
                    .get(a.ty)
                    .prim_kind()
                    .is_some_and(|pk| ORDERED_PRIMS.contains(&pk))
        })
        .collect();
    let lhs = pick(rng, &ordered)?;
    let lhs_name = match &lhs.expr {
        Expr::FieldAccess(_, f) => db.field(*f).name().to_owned(),
        _ => unreachable!("filtered to field accesses"),
    };
    // Right side: prefer a same-named field on a different base.
    let rhs = if rng.gen_bool(p.same_name_cmp_bias) {
        ordered
            .iter()
            .filter(|a| {
                a.expr != lhs.expr
                    && matches!(&a.expr, Expr::FieldAccess(_, f) if db.field(*f).name() == lhs_name)
                    && db.types().comparable_pair(lhs.ty, a.ty).is_some()
            })
            .map(|a| (*a).clone())
            .next()
    } else {
        None
    };
    let rhs = rhs.or_else(|| {
        ordered
            .iter()
            .filter(|a| a.expr != lhs.expr && db.types().comparable_pair(lhs.ty, a.ty).is_some())
            .map(|a| (*a).clone())
            .next()
    });
    let rhs_expr = match rhs {
        Some(a) => a.expr,
        None => prim_literal(db.types().get(lhs.ty).prim_kind()?, rng),
    };
    let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let op = ops[rng.gen_range(0..ops.len())];
    let expr = Expr::cmp(op, lhs.expr.clone(), rhs_expr);
    if db.expr_ty(&expr, ctx).is_err() {
        return None;
    }
    Some(Stmt::Expr(expr))
}

/// Wraps a generated comparison in an `if` (or occasionally `while`) with a
/// small body of calls/assignments — where comparisons live in real code.
fn gen_branch_stmt(
    db: &Database,
    library: &LibraryInfo,
    p: &ClientProfile,
    ctx: &Context,
    rng: &mut StdRng,
) -> Option<Stmt> {
    let cond = match gen_cmp_stmt(db, p, ctx, rng)? {
        Stmt::Expr(e) => e,
        other => return Some(other),
    };
    // A bare comparison statement still occurs occasionally (the paper's
    // formal language allows it), but most conditions guard a block.
    if rng.gen_bool(0.2) {
        return Some(Stmt::Expr(cond));
    }
    let mut then_body = Vec::new();
    for _ in 0..rng.gen_range(1..=2usize) {
        let inner = if rng.gen_bool(0.6) {
            build_call(db, library, p, ctx, rng, false).map(Stmt::Expr)
        } else {
            gen_assign_stmt(db, p, ctx, rng)
        };
        if let Some(inner) = inner {
            then_body.push(inner);
        }
    }
    if then_body.is_empty() {
        return Some(Stmt::Expr(cond));
    }
    if rng.gen_bool(0.12) {
        return Some(Stmt::While {
            cond,
            body: then_body,
        });
    }
    let else_body = if rng.gen_bool(0.25) {
        build_call(db, library, p, ctx, rng, false)
            .map(Stmt::Expr)
            .into_iter()
            .collect()
    } else {
        Vec::new()
    };
    Some(Stmt::If {
        cond,
        then_body,
        else_body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let lib = LibraryProfile::default();
        let cli = ClientProfile::default();
        let a = generate(&lib, &cli, 42);
        let b = generate(&lib, &cli, 42);
        assert_eq!(a.method_count(), b.method_count());
        assert_eq!(a.field_count(), b.field_count());
        let c = generate(&lib, &cli, 43);
        // Different seeds virtually always differ in some count.
        assert!(
            a.method_count() != c.method_count()
                || a.field_count() != c.field_count()
                || a.types().len() != c.types().len()
        );
    }

    #[test]
    fn all_bodies_type_check() {
        let db = generate(&LibraryProfile::default(), &ClientProfile::default(), 7);
        let mut bodies = 0;
        for m in db.methods() {
            if let Some(body) = db.method(m).body() {
                db.check_body(m, body).unwrap_or_else(|e| {
                    panic!("body of {} ill-typed: {e}", db.qualified_method_name(m))
                });
                bodies += 1;
            }
        }
        assert!(bodies >= 10, "expected client bodies, got {bodies}");
    }

    #[test]
    fn statement_mix_is_present() {
        let db = generate(&LibraryProfile::default(), &ClientProfile::default(), 11);
        let (mut calls, mut assigns, mut cmps, mut decls, mut branches) = (0, 0, 0, 0, 0);
        for m in db.methods() {
            if let Some(body) = db.method(m).body() {
                fn count(
                    stmt: &Stmt,
                    calls: &mut usize,
                    assigns: &mut usize,
                    cmps: &mut usize,
                    decls: &mut usize,
                    branches: &mut usize,
                ) {
                    match stmt {
                        Stmt::Init(..) => *decls += 1,
                        Stmt::Expr(Expr::Call(..)) => *calls += 1,
                        Stmt::Expr(Expr::Assign(..)) => *assigns += 1,
                        Stmt::Expr(Expr::Cmp(..)) => *cmps += 1,
                        Stmt::If { .. } | Stmt::While { .. } => *branches += 1,
                        _ => {}
                    }
                    for inner in stmt.nested() {
                        count(inner, calls, assigns, cmps, decls, branches);
                    }
                }
                for stmt in &body.stmts {
                    count(
                        stmt,
                        &mut calls,
                        &mut assigns,
                        &mut cmps,
                        &mut decls,
                        &mut branches,
                    );
                }
            }
        }
        assert!(calls > 20, "calls: {calls}");
        assert!(assigns > 5, "assigns: {assigns}");
        assert!(cmps + branches > 0, "cmps: {cmps}, branches: {branches}");
        assert!(decls > 0, "decls: {decls}");
        assert!(branches > 0, "branches: {branches}");
    }

    #[test]
    fn library_has_globals_and_zero_arg_methods() {
        let db = generate(&LibraryProfile::default(), &ClientProfile::default(), 3);
        assert!(!db.globals().is_empty());
        let zero_arg = db
            .methods()
            .filter(|m| {
                let md = db.method(*m);
                !md.is_static() && md.params().is_empty()
            })
            .count();
        assert!(zero_arg > 3, "zero-arg instance methods: {zero_arg}");
    }
}
