//! Snapshot codecs for the code model: methods, fields, bodies and query
//! contexts, written with the wire primitives of [`pex_types::wire`].
//!
//! Everything here follows the persistent-snapshot contract: encoding
//! walks the in-memory structures in dense-id order, decoding
//! bounds-checks every id against the arena it points into and rejects
//! malformed tags or impossible lengths with a clean [`WireError`]. The
//! member lookup maps (`type_methods` / `type_fields`) are not
//! serialized; they are rebuilt by pushing members back in id order,
//! which reproduces the exact per-type ordering the builder produced.

use pex_types::wire::{Reader, WireError, WireResult, Writer};
use pex_types::{TypeId, TypeTable};

use crate::{
    Body, CmpOp, Context, Database, Expr, Field, FieldId, Local, LocalId, Method, MethodId, Name,
    Param, Stmt, Visibility,
};

/// Maximum nesting depth accepted when decoding expression trees and
/// statement bodies. Real corpora nest a handful of levels; the cap turns
/// a maliciously deep file into an error instead of a stack overflow.
const MAX_DECODE_DEPTH: usize = 256;

/// Id bounds the model decoders validate against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    pub types: usize,
    pub fields: usize,
    pub methods: usize,
}

pub(crate) fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 0,
        CmpOp::Le => 1,
        CmpOp::Gt => 2,
        CmpOp::Ge => 3,
    }
}

pub(crate) fn cmp_from_tag(tag: u8) -> WireResult<CmpOp> {
    match tag {
        0 => Ok(CmpOp::Lt),
        1 => Ok(CmpOp::Le),
        2 => Ok(CmpOp::Gt),
        3 => Ok(CmpOp::Ge),
        t => Err(WireError::new(format!(
            "unknown comparison operator tag {t}"
        ))),
    }
}

fn encode_visibility(v: Visibility, w: &mut Writer) {
    w.put_bool(matches!(v, Visibility::Private));
}

fn decode_visibility(r: &mut Reader<'_>) -> WireResult<Visibility> {
    Ok(if r.get_bool("visibility flag")? {
        Visibility::Private
    } else {
        Visibility::Public
    })
}

fn encode_expr(e: &Expr, w: &mut Writer) {
    match e {
        Expr::Local(l) => {
            w.put_u8(0);
            w.put_u32(l.0);
        }
        Expr::This => w.put_u8(1),
        Expr::StaticField(f) => {
            w.put_u8(2);
            w.put_u32(f.0);
        }
        Expr::FieldAccess(base, f) => {
            w.put_u8(3);
            encode_expr(base, w);
            w.put_u32(f.0);
        }
        Expr::Call(m, args) => {
            w.put_u8(4);
            w.put_u32(m.0);
            w.put_len(args.len());
            for a in args {
                encode_expr(a, w);
            }
        }
        Expr::Assign(l, r) => {
            w.put_u8(5);
            encode_expr(l, w);
            encode_expr(r, w);
        }
        Expr::Cmp(op, l, r) => {
            w.put_u8(6);
            w.put_u8(cmp_tag(*op));
            encode_expr(l, w);
            encode_expr(r, w);
        }
        Expr::IntLit(v) => {
            w.put_u8(7);
            w.put_i64(*v);
        }
        Expr::DoubleLit(v) => {
            w.put_u8(8);
            w.put_u64(v.to_bits());
        }
        Expr::BoolLit(v) => {
            w.put_u8(9);
            w.put_bool(*v);
        }
        Expr::StrLit(s) => {
            w.put_u8(10);
            w.put_str(s);
        }
        Expr::Null => w.put_u8(11),
        Expr::Hole0 => w.put_u8(12),
        Expr::Opaque { ty, label } => {
            w.put_u8(13);
            w.put_u32(ty.index() as u32);
            w.put_str(label);
        }
    }
}

fn decode_expr(
    r: &mut Reader<'_>,
    bounds: Bounds,
    n_locals: usize,
    depth: usize,
) -> WireResult<Expr> {
    if depth > MAX_DECODE_DEPTH {
        return Err(WireError::new(format!(
            "expression nests deeper than {MAX_DECODE_DEPTH} levels"
        )));
    }
    Ok(match r.get_u8("expression tag")? {
        0 => Expr::Local(LocalId(r.get_id(n_locals, "local slot")? as u32)),
        1 => Expr::This,
        2 => Expr::StaticField(FieldId(r.get_id(bounds.fields, "static field id")? as u32)),
        3 => {
            let base = decode_expr(r, bounds, n_locals, depth + 1)?;
            let f = FieldId(r.get_id(bounds.fields, "field id")? as u32);
            Expr::FieldAccess(Box::new(base), f)
        }
        4 => {
            let m = MethodId(r.get_id(bounds.methods, "method id")? as u32);
            let n = r.get_len("call argument count")?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(decode_expr(r, bounds, n_locals, depth + 1)?);
            }
            Expr::Call(m, args)
        }
        5 => {
            let l = decode_expr(r, bounds, n_locals, depth + 1)?;
            let rhs = decode_expr(r, bounds, n_locals, depth + 1)?;
            Expr::assign(l, rhs)
        }
        6 => {
            let op = cmp_from_tag(r.get_u8("comparison operator tag")?)?;
            let l = decode_expr(r, bounds, n_locals, depth + 1)?;
            let rhs = decode_expr(r, bounds, n_locals, depth + 1)?;
            Expr::cmp(op, l, rhs)
        }
        7 => Expr::IntLit(r.get_i64("integer literal")?),
        8 => Expr::DoubleLit(f64::from_bits(r.get_u64("double literal bits")?)),
        9 => Expr::BoolLit(r.get_bool("bool literal")?),
        10 => Expr::StrLit(r.get_str("string literal")?.to_owned()),
        11 => Expr::Null,
        12 => Expr::Hole0,
        13 => {
            let ty = TypeId::from_index(r.get_id(bounds.types, "opaque expression type")?);
            let label = r.get_str("opaque expression label")?.to_owned();
            Expr::Opaque { ty, label }
        }
        t => return Err(WireError::new(format!("unknown expression tag {t}"))),
    })
}

fn encode_stmt(s: &Stmt, w: &mut Writer) {
    match s {
        Stmt::Init(l, e) => {
            w.put_u8(0);
            w.put_u32(l.0);
            encode_expr(e, w);
        }
        Stmt::Expr(e) => {
            w.put_u8(1);
            encode_expr(e, w);
        }
        Stmt::Return(e) => {
            w.put_u8(2);
            w.put_bool(e.is_some());
            if let Some(e) = e {
                encode_expr(e, w);
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            w.put_u8(3);
            encode_expr(cond, w);
            w.put_len(then_body.len());
            for s in then_body {
                encode_stmt(s, w);
            }
            w.put_len(else_body.len());
            for s in else_body {
                encode_stmt(s, w);
            }
        }
        Stmt::While { cond, body } => {
            w.put_u8(4);
            encode_expr(cond, w);
            w.put_len(body.len());
            for s in body {
                encode_stmt(s, w);
            }
        }
    }
}

fn decode_stmt(
    r: &mut Reader<'_>,
    bounds: Bounds,
    n_locals: usize,
    depth: usize,
) -> WireResult<Stmt> {
    if depth > MAX_DECODE_DEPTH {
        return Err(WireError::new(format!(
            "statements nest deeper than {MAX_DECODE_DEPTH} levels"
        )));
    }
    Ok(match r.get_u8("statement tag")? {
        0 => {
            let l = LocalId(r.get_id(n_locals, "initialised local slot")? as u32);
            let e = decode_expr(r, bounds, n_locals, depth + 1)?;
            Stmt::Init(l, e)
        }
        1 => Stmt::Expr(decode_expr(r, bounds, n_locals, depth + 1)?),
        2 => {
            let has = r.get_bool("return value flag")?;
            let e = if has {
                Some(decode_expr(r, bounds, n_locals, depth + 1)?)
            } else {
                None
            };
            Stmt::Return(e)
        }
        3 => {
            let cond = decode_expr(r, bounds, n_locals, depth + 1)?;
            let n_then = r.get_len("then-branch statement count")?;
            let mut then_body = Vec::with_capacity(n_then);
            for _ in 0..n_then {
                then_body.push(decode_stmt(r, bounds, n_locals, depth + 1)?);
            }
            let n_else = r.get_len("else-branch statement count")?;
            let mut else_body = Vec::with_capacity(n_else);
            for _ in 0..n_else {
                else_body.push(decode_stmt(r, bounds, n_locals, depth + 1)?);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            }
        }
        4 => {
            let cond = decode_expr(r, bounds, n_locals, depth + 1)?;
            let n = r.get_len("loop body statement count")?;
            let mut body = Vec::with_capacity(n);
            for _ in 0..n {
                body.push(decode_stmt(r, bounds, n_locals, depth + 1)?);
            }
            Stmt::While { cond, body }
        }
        t => return Err(WireError::new(format!("unknown statement tag {t}"))),
    })
}

fn encode_body(b: &Body, w: &mut Writer) {
    w.put_len(b.locals.len());
    for (name, ty) in &b.locals {
        w.put_str(name);
        w.put_u32(ty.index() as u32);
    }
    w.put_len(b.param_count);
    w.put_len(b.stmts.len());
    for s in &b.stmts {
        encode_stmt(s, w);
    }
}

fn decode_body(r: &mut Reader<'_>, bounds: Bounds) -> WireResult<Body> {
    let n_locals = r.get_len("local slot count")?;
    let mut locals = Vec::with_capacity(n_locals);
    for _ in 0..n_locals {
        let name = r.get_str("local name")?.to_owned();
        let ty = TypeId::from_index(r.get_id(bounds.types, "local type")?);
        locals.push((name, ty));
    }
    let param_count = r.get_u32("parameter count")? as usize;
    if param_count > n_locals {
        return Err(WireError::new(format!(
            "parameter count {param_count} exceeds the {n_locals} local slots"
        )));
    }
    let n_stmts = r.get_len("statement count")?;
    let mut stmts = Vec::with_capacity(n_stmts);
    for _ in 0..n_stmts {
        stmts.push(decode_stmt(r, bounds, n_locals, 0)?);
    }
    Ok(Body {
        locals,
        param_count,
        stmts,
    })
}

fn encode_method(m: &Method, w: &mut Writer) {
    w.put_str(&m.name);
    w.put_u32(m.declaring.index() as u32);
    w.put_bool(m.is_static);
    w.put_len(m.params.len());
    for p in &m.params {
        w.put_str(&p.name);
        w.put_u32(p.ty.index() as u32);
    }
    w.put_u32(m.ret.index() as u32);
    encode_visibility(m.visibility, w);
    w.put_bool(m.overrides.is_some());
    w.put_u32(m.overrides.map_or(0, |o| o.0));
    w.put_bool(m.body.is_some());
    if let Some(b) = &m.body {
        encode_body(b, w);
    }
}

fn decode_method(r: &mut Reader<'_>, bounds: Bounds) -> WireResult<Method> {
    let name = Name::new(r.get_str("method name")?);
    let declaring = TypeId::from_index(r.get_id(bounds.types, "method declaring type")?);
    let is_static = r.get_bool("method static flag")?;
    let n_params = r.get_len("parameter count")?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let name = Name::new(r.get_str("parameter name")?);
        let ty = TypeId::from_index(r.get_id(bounds.types, "parameter type")?);
        params.push(Param { name, ty });
    }
    let ret = TypeId::from_index(r.get_id(bounds.types, "return type")?);
    let visibility = decode_visibility(r)?;
    let has_override = r.get_bool("override presence flag")?;
    let raw_override = r.get_u32("overridden method id")?;
    let overrides = if has_override {
        if raw_override as usize >= bounds.methods {
            return Err(WireError::new(format!(
                "overridden method id {raw_override} out of range (database holds {})",
                bounds.methods
            )));
        }
        Some(MethodId(raw_override))
    } else {
        None
    };
    let body = if r.get_bool("body presence flag")? {
        Some(Box::new(decode_body(r, bounds)?))
    } else {
        None
    };
    Ok(Method {
        name,
        declaring,
        is_static,
        params: params.into_boxed_slice(),
        ret,
        visibility,
        overrides,
        body,
    })
}

fn encode_field(f: &Field, w: &mut Writer) {
    w.put_str(&f.name);
    w.put_u32(f.declaring.index() as u32);
    w.put_bool(f.is_static);
    w.put_u32(f.ty.index() as u32);
    encode_visibility(f.visibility, w);
    w.put_bool(f.is_property);
}

fn decode_field(r: &mut Reader<'_>, bounds: Bounds) -> WireResult<Field> {
    Ok(Field {
        name: Name::new(r.get_str("field name")?),
        declaring: TypeId::from_index(r.get_id(bounds.types, "field declaring type")?),
        is_static: r.get_bool("field static flag")?,
        ty: TypeId::from_index(r.get_id(bounds.types, "field type")?),
        visibility: decode_visibility(r)?,
        is_property: r.get_bool("property flag")?,
    })
}

impl Database {
    /// Serializes the whole program database — type table, methods
    /// (including bodies) and fields — for the persistent snapshot.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        self.types().encode(w);
        let (methods, fields) = self.members();
        // Both counts precede the members so bodies can reference any
        // member id (method calls and field lookups are unordered
        // cross-references) and still be validated in one streaming pass.
        w.put_len(methods.len());
        w.put_len(fields.len());
        for m in methods {
            encode_method(m, w);
        }
        for f in fields {
            encode_field(f, w);
        }
        // Removal tombstones (present only after incremental updates):
        // sorted so the encoding is deterministic.
        let (removed_methods, removed_fields) = self.removed_members();
        let mut rm: Vec<u32> = removed_methods.iter().map(|m| m.0).collect();
        let mut rf: Vec<u32> = removed_fields.iter().map(|f| f.0).collect();
        rm.sort_unstable();
        rf.sort_unstable();
        w.put_len(rm.len());
        for id in rm {
            w.put_u32(id);
        }
        w.put_len(rf.len());
        for id in rf {
            w.put_u32(id);
        }
    }

    /// Decodes a database written by [`Database::encode_snapshot`],
    /// bounds-checking every type, member and local-slot id and rebuilding
    /// the per-type member lookup maps.
    pub fn decode_snapshot(r: &mut Reader<'_>) -> WireResult<Database> {
        let types = TypeTable::decode(r).map_err(|e| e.context("type table"))?;
        let n_methods = r.get_len("method count")?;
        let n_fields = r.get_len("field count")?;
        let bounds = Bounds {
            types: types.len(),
            fields: n_fields,
            methods: n_methods,
        };
        let mut methods = Vec::with_capacity(n_methods);
        for _ in 0..n_methods {
            methods.push(decode_method(r, bounds)?);
        }
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            fields.push(decode_field(r, bounds)?);
        }
        let n_removed_m = r.get_len("removed method count")?;
        let mut removed_methods = std::collections::HashSet::with_capacity(n_removed_m);
        for _ in 0..n_removed_m {
            removed_methods.insert(MethodId(r.get_id(n_methods, "removed method id")? as u32));
        }
        let n_removed_f = r.get_len("removed field count")?;
        let mut removed_fields = std::collections::HashSet::with_capacity(n_removed_f);
        for _ in 0..n_removed_f {
            removed_fields.insert(FieldId(r.get_id(n_fields, "removed field id")? as u32));
        }
        Ok(Database::from_parts_with_removed(
            types,
            methods,
            fields,
            removed_methods,
            removed_fields,
        ))
    }
}

impl Context {
    /// Serializes a query context for the persistent snapshot.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        w.put_bool(self.enclosing_type.is_some());
        w.put_u32(self.enclosing_type.map_or(0, |t| t.index() as u32));
        w.put_bool(self.enclosing_method.is_some());
        w.put_u32(self.enclosing_method.map_or(0, |m| m.0));
        w.put_bool(self.has_this);
        w.put_len(self.locals.len());
        for l in &self.locals {
            w.put_str(&l.name);
            w.put_u32(l.ty.index() as u32);
        }
    }

    /// Decodes a context written by [`Context::encode_snapshot`], with ids
    /// bounds-checked against the owning database's arenas.
    pub fn decode_snapshot(
        r: &mut Reader<'_>,
        n_types: usize,
        n_methods: usize,
    ) -> WireResult<Context> {
        let has_ty = r.get_bool("enclosing type presence flag")?;
        let raw_ty = r.get_u32("enclosing type id")?;
        let enclosing_type = if has_ty {
            if raw_ty as usize >= n_types {
                return Err(WireError::new(format!(
                    "enclosing type id {raw_ty} out of range (table holds {n_types})"
                )));
            }
            Some(TypeId::from_index(raw_ty as usize))
        } else {
            None
        };
        let has_m = r.get_bool("enclosing method presence flag")?;
        let raw_m = r.get_u32("enclosing method id")?;
        let enclosing_method = if has_m {
            if raw_m as usize >= n_methods {
                return Err(WireError::new(format!(
                    "enclosing method id {raw_m} out of range (database holds {n_methods})"
                )));
            }
            Some(MethodId(raw_m))
        } else {
            None
        };
        let has_this = r.get_bool("this flag")?;
        let n_locals = r.get_len("context local count")?;
        let mut locals = Vec::with_capacity(n_locals);
        for _ in 0..n_locals {
            let name = r.get_str("context local name")?.to_owned();
            let ty = TypeId::from_index(r.get_id(n_types, "context local type")?);
            locals.push(Local { name, ty });
        }
        Ok(Context {
            enclosing_type,
            enclosing_method,
            has_this,
            locals,
        })
    }
}
