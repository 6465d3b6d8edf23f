//! Snapshot codecs for the code model: methods, fields, bodies and query
//! contexts, written with the wire primitives of [`pex_types::wire`].
//!
//! Everything here follows the persistent-snapshot contract: encoding
//! walks the in-memory structures in dense-id order, decoding
//! bounds-checks every id against the arena it points into and rejects
//! malformed tags, unknown flag bits or impossible lengths with a clean
//! [`WireError`]. The database section keeps its text in the snapshot's
//! string table and stores methods, parameters and fields as fixed-width
//! rows (see [`Database::encode_snapshot`]). The per-type member rows
//! (`type_methods` / `type_fields`) are not serialized; they are rebuilt
//! from the member rows in id order, which reproduces the exact per-type
//! ordering the builder produced.

use pex_types::wire::{
    check_id, decode_rows, row_u32, Reader, StringTable, Strings, WireError, WireResult, Writer,
};
use std::sync::Arc;

use pex_types::{TypeId, TypeTable};

use crate::member::{bit, flag, FieldRow, MethodRow, Names, ParamRow, NO_OVERRIDE};
use crate::{Body, CmpOp, Context, Database, Expr, FieldId, Local, LocalId, MethodId, Stmt};

/// Maximum nesting depth accepted when decoding expression trees and
/// statement bodies. Real corpora nest a handful of levels; the cap turns
/// a maliciously deep file into an error instead of a stack overflow.
const MAX_DECODE_DEPTH: usize = 256;

/// Flag bits of a method row in the file. `STATIC` and `PRIVATE` are the
/// in-memory row's bits; the other two say which side tables hold a row
/// for the method (`BODY` has the in-memory bit's value too).
mod method_flag {
    use crate::member::flag;

    pub const ROW: u8 = flag::STATIC | flag::PRIVATE;
    pub const OVERRIDES: u32 = 1 << 2;
    pub const BODY: u32 = 1 << 3;
    pub const ALL: u32 = ROW as u32 | OVERRIDES | BODY;
}

/// Flag bits of a field row in the file: the in-memory row's bits but
/// the tombstone.
mod field_flag {
    use crate::member::flag;

    pub const ALL: u8 = flag::STATIC | flag::PRIVATE | flag::PROPERTY;
}

/// Id bounds the model decoders validate against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    pub types: usize,
    pub fields: usize,
    pub methods: usize,
}

/// What the body decoder reads against: id bounds and the string table.
struct BodyDecoder<'s, 'a> {
    bounds: Bounds,
    strings: &'s Strings<'a>,
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 0,
        CmpOp::Le => 1,
        CmpOp::Gt => 2,
        CmpOp::Ge => 3,
    }
}

fn cmp_from_tag(tag: u8) -> WireResult<CmpOp> {
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

fn encode_expr<'a>(e: &'a Expr, strings: &mut StringTable<'a>, w: &mut Writer) {
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
            encode_expr(base, strings, w);
            w.put_u32(f.0);
        }
        Expr::Call(m, args) => {
            w.put_u8(4);
            w.put_u32(m.0);
            w.put_len(args.len());
            for a in args {
                encode_expr(a, strings, w);
            }
        }
        Expr::Assign(l, r) => {
            w.put_u8(5);
            encode_expr(l, strings, w);
            encode_expr(r, strings, w);
        }
        Expr::Cmp(op, l, r) => {
            w.put_u8(6);
            w.put_u8(cmp_tag(*op));
            encode_expr(l, strings, w);
            encode_expr(r, strings, w);
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
            strings.put(w, s);
        }
        Expr::Null => w.put_u8(11),
        Expr::Hole0 => w.put_u8(12),
        Expr::Opaque { ty, label } => {
            w.put_u8(13);
            w.put_u32(ty.index() as u32);
            strings.put(w, label);
        }
    }
}

impl<'a> BodyDecoder<'_, 'a> {
    fn expr(&self, r: &mut Reader<'a>, n_locals: usize, depth: usize) -> WireResult<Expr> {
        if depth > MAX_DECODE_DEPTH {
            return Err(WireError::new(format!(
                "expression nests deeper than {MAX_DECODE_DEPTH} levels"
            )));
        }
        let bounds = self.bounds;
        Ok(match r.get_u8("expression tag")? {
            0 => Expr::Local(LocalId(r.get_id(n_locals, "local slot")? as u32)),
            1 => Expr::This,
            2 => Expr::StaticField(FieldId(r.get_id(bounds.fields, "static field id")? as u32)),
            3 => {
                let base = self.expr(r, n_locals, depth + 1)?;
                let f = FieldId(r.get_id(bounds.fields, "field id")? as u32);
                Expr::FieldAccess(Box::new(base), f)
            }
            4 => {
                let m = MethodId(r.get_id(bounds.methods, "method id")? as u32);
                let n = r.get_len("call argument count")?;
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.expr(r, n_locals, depth + 1)?);
                }
                Expr::Call(m, args)
            }
            5 => {
                let l = self.expr(r, n_locals, depth + 1)?;
                let rhs = self.expr(r, n_locals, depth + 1)?;
                Expr::assign(l, rhs)
            }
            6 => {
                let op = cmp_from_tag(r.get_u8("comparison operator tag")?)?;
                let l = self.expr(r, n_locals, depth + 1)?;
                let rhs = self.expr(r, n_locals, depth + 1)?;
                Expr::cmp(op, l, rhs)
            }
            7 => Expr::IntLit(r.get_i64("integer literal")?),
            8 => Expr::DoubleLit(f64::from_bits(r.get_u64("double literal bits")?)),
            9 => Expr::BoolLit(r.get_bool("bool literal")?),
            10 => Expr::StrLit(r.get_string(self.strings, "string literal")?.to_owned()),
            11 => Expr::Null,
            12 => Expr::Hole0,
            13 => {
                let ty = TypeId::from_index(r.get_id(bounds.types, "opaque expression type")?);
                let label = r
                    .get_string(self.strings, "opaque expression label")?
                    .to_owned();
                Expr::Opaque { ty, label }
            }
            t => return Err(WireError::new(format!("unknown expression tag {t}"))),
        })
    }

    fn stmts(
        &self,
        r: &mut Reader<'a>,
        n_locals: usize,
        depth: usize,
        what: &str,
    ) -> WireResult<Vec<Stmt>> {
        let n = r.get_len(what)?;
        let mut stmts = Vec::with_capacity(n);
        for _ in 0..n {
            stmts.push(self.stmt(r, n_locals, depth)?);
        }
        Ok(stmts)
    }

    fn stmt(&self, r: &mut Reader<'a>, n_locals: usize, depth: usize) -> WireResult<Stmt> {
        if depth > MAX_DECODE_DEPTH {
            return Err(WireError::new(format!(
                "statements nest deeper than {MAX_DECODE_DEPTH} levels"
            )));
        }
        Ok(match r.get_u8("statement tag")? {
            0 => {
                let l = LocalId(r.get_id(n_locals, "initialised local slot")? as u32);
                let e = self.expr(r, n_locals, depth + 1)?;
                Stmt::Init(l, e)
            }
            1 => Stmt::Expr(self.expr(r, n_locals, depth + 1)?),
            2 => {
                let has = r.get_bool("return value flag")?;
                let e = if has {
                    Some(self.expr(r, n_locals, depth + 1)?)
                } else {
                    None
                };
                Stmt::Return(e)
            }
            3 => {
                let cond = self.expr(r, n_locals, depth + 1)?;
                let then_body =
                    self.stmts(r, n_locals, depth + 1, "then-branch statement count")?;
                let else_body =
                    self.stmts(r, n_locals, depth + 1, "else-branch statement count")?;
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                }
            }
            4 => {
                let cond = self.expr(r, n_locals, depth + 1)?;
                let body = self.stmts(r, n_locals, depth + 1, "loop body statement count")?;
                Stmt::While { cond, body }
            }
            t => return Err(WireError::new(format!("unknown statement tag {t}"))),
        })
    }

    /// A body: its local slots as `(name id, type id)` rows, the
    /// parameter count, then the statements.
    fn body(&self, r: &mut Reader<'a>) -> WireResult<Body> {
        let rows: &[[u8; 8]] = r.get_rows("local slot table")?;
        let locals = decode_rows(rows, |row| {
            let name = self.strings.get(row_u32(row, 0), "local name")?.to_owned();
            let ty = check_id(row_u32(row, 1), self.bounds.types, "local type")?;
            Ok((name, TypeId::from_index(ty)))
        })?;
        let n_locals = locals.len();
        let param_count = r.get_u32("parameter count")? as usize;
        if param_count > n_locals {
            return Err(WireError::new(format!(
                "parameter count {param_count} exceeds the {n_locals} local slots"
            )));
        }
        let stmts = self.stmts(r, n_locals, 0, "statement count")?;
        Ok(Body {
            locals,
            param_count,
            stmts,
        })
    }
}

fn encode_stmt<'a>(s: &'a Stmt, strings: &mut StringTable<'a>, w: &mut Writer) {
    match s {
        Stmt::Init(l, e) => {
            w.put_u8(0);
            w.put_u32(l.0);
            encode_expr(e, strings, w);
        }
        Stmt::Expr(e) => {
            w.put_u8(1);
            encode_expr(e, strings, w);
        }
        Stmt::Return(e) => {
            w.put_u8(2);
            w.put_bool(e.is_some());
            if let Some(e) = e {
                encode_expr(e, strings, w);
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            w.put_u8(3);
            encode_expr(cond, strings, w);
            encode_stmts(then_body, strings, w);
            encode_stmts(else_body, strings, w);
        }
        Stmt::While { cond, body } => {
            w.put_u8(4);
            encode_expr(cond, strings, w);
            encode_stmts(body, strings, w);
        }
    }
}

fn encode_stmts<'a>(stmts: &'a [Stmt], strings: &mut StringTable<'a>, w: &mut Writer) {
    w.put_len(stmts.len());
    for s in stmts {
        encode_stmt(s, strings, w);
    }
}

fn encode_body<'a>(b: &'a Body, strings: &mut StringTable<'a>, w: &mut Writer) {
    w.put_len(b.locals.len());
    for (name, ty) in &b.locals {
        strings.put(w, name);
        w.put_u32(ty.index() as u32);
    }
    w.put_len(b.param_count);
    encode_stmts(&b.stmts, strings, w);
}

impl Database {
    /// Serializes the whole program database — type table, methods
    /// (including bodies) and fields — for the persistent snapshot, with
    /// every string it holds put into `strings`.
    ///
    /// After the type table come the method, field, parameter and
    /// override counts and then four tables of fixed-width little-endian
    /// `u32` rows:
    ///
    /// ```text
    /// method    name id, declaring type, return type, parameter count, flags
    /// parameter name id, type        (every method's parameters, in method order)
    /// override  overridden method    (one per method with the override flag)
    /// field     name id, declaring type, type, flags
    /// ```
    ///
    /// The bodies of the methods whose body flag is set follow as one
    /// stream in method order, then the removal tombstones. The counts
    /// precede the members so bodies can reference any member id (method
    /// calls and field lookups are unordered cross-references) and still
    /// be validated in one pass.
    pub fn encode_snapshot<'a>(&'a self, strings: &mut StringTable<'a>, w: &mut Writer) {
        self.types().encode(strings, w);
        let (methods, fields) = self.rows();
        let (names, params) = (self.names(), self.param_rows());
        w.put_len(methods.len());
        w.put_len(fields.len());
        w.put_len(methods.iter().map(|m| usize::from(m.n_params)).sum());
        w.put_len(
            methods
                .iter()
                .filter(|m| m.overrides != NO_OVERRIDE)
                .count(),
        );
        for m in methods {
            strings.put(w, names.get(m.name));
            w.put_u32(m.declaring.index() as u32);
            w.put_u32(m.ret.index() as u32);
            w.put_u32(u32::from(m.n_params));
            let mut flags = u32::from(m.flags & method_flag::ROW);
            if m.overrides != NO_OVERRIDE {
                flags |= method_flag::OVERRIDES;
            }
            if m.flags & flag::BODY != 0 {
                flags |= method_flag::BODY;
            }
            w.put_u32(flags);
        }
        for p in methods.iter().flat_map(|m| &params[m.param_range()]) {
            strings.put(w, names.get(p.name));
            w.put_u32(p.ty.index() as u32);
        }
        for m in methods.iter().filter(|m| m.overrides != NO_OVERRIDE) {
            w.put_u32(m.overrides);
        }
        for f in fields {
            strings.put(w, names.get(f.name));
            w.put_u32(f.declaring.index() as u32);
            w.put_u32(f.ty.index() as u32);
            w.put_u32(u32::from(f.flags & field_flag::ALL));
        }
        for (_, body) in self.body_rows() {
            encode_body(body, strings, w);
        }
        // Removal tombstones (present only after incremental updates), in
        // id order.
        let rm: Vec<u32> = (0..)
            .zip(methods)
            .filter(|(_, m)| m.is_removed())
            .map(|(i, _)| i)
            .collect();
        let rf: Vec<u32> = (0..)
            .zip(fields)
            .filter(|(_, f)| f.is_removed())
            .map(|(i, _)| i)
            .collect();
        for ids in [rm, rf] {
            w.put_len(ids.len());
            for id in ids {
                w.put_u32(id);
            }
        }
    }

    /// Decodes a database written by [`Database::encode_snapshot`]. The
    /// snapshot's string table becomes the database's name table as it
    /// is, so the decoder validates each row and copies its ids: member
    /// and parameter name ids are checked against the table, type, member
    /// and local-slot ids against their bounds, and each live method's
    /// body must open with its parameters' slots. The per-type member
    /// lookup lists are rebuilt.
    pub fn decode_snapshot<'a>(strings: &Strings<'a>, r: &mut Reader<'a>) -> WireResult<Database> {
        let types = TypeTable::decode(strings, r).map_err(|e| e.context("type table"))?;
        let n_types = types.len();
        let n_methods = r.get_u32("method count")? as usize;
        let n_fields = r.get_u32("field count")? as usize;
        let n_params = r.get_u32("parameter count")? as usize;
        let n_overrides = r.get_u32("override count")? as usize;
        let method_rows: &[[u8; 20]] = r.take_rows(n_methods, "method table")?;
        let param_rows: &[[u8; 8]] = r.take_rows(n_params, "parameter table")?;
        let override_rows: &[[u8; 4]] = r.take_rows(n_overrides, "override table")?;
        let field_rows: &[[u8; 16]] = r.take_rows(n_fields, "field table")?;
        let ty = |id: u32, what: &str| check_id(id, n_types, what).map(TypeId::from_index);

        let params = decode_rows(param_rows, |row| {
            Ok(ParamRow {
                name: strings.check(row_u32(row, 0), "parameter name")?,
                ty: ty(row_u32(row, 1), "parameter type")?,
            })
        })?;
        let mut first_param = 0;
        let mut bases = override_rows.iter();
        let mut methods = Vec::with_capacity(n_methods);
        for (i, row) in method_rows.iter().enumerate() {
            let flags = row_u32(row, 4);
            if flags & !method_flag::ALL != 0 {
                return Err(WireError::new(format!(
                    "method {i}: unknown flag bits {:#x}",
                    flags & !method_flag::ALL
                )));
            }
            let n = row_u32(row, 3) as usize;
            if n > n_params - first_param {
                return Err(WireError::new(format!(
                    "method {i}: parameter count {n} runs past the parameter table \
                     ({} of {n_params} rows left)",
                    n_params - first_param
                )));
            }
            let n_method_params = u16::try_from(n).map_err(|_| {
                WireError::new(format!(
                    "method {i}: parameter count {n} exceeds the {} a method can declare",
                    Database::MAX_PARAMS
                ))
            })?;
            let overrides = if flags & method_flag::OVERRIDES != 0 {
                let base = bases.next().ok_or_else(|| {
                    WireError::new(format!(
                        "method {i}: override flag past the {n_overrides}-row override table"
                    ))
                })?;
                check_id(u32::from_le_bytes(*base), n_methods, "overridden method id")? as u32
            } else {
                NO_OVERRIDE
            };
            methods.push(MethodRow {
                name: strings.check(row_u32(row, 0), "method name")?,
                declaring: ty(row_u32(row, 1), "method declaring type")?,
                ret: ty(row_u32(row, 2), "return type")?,
                first_param: first_param as u32,
                overrides,
                n_params: n_method_params,
                flags: (flags & method_flag::ROW as u32) as u8
                    | bit(flags & method_flag::BODY != 0, flag::BODY),
            });
            first_param += n;
        }
        if first_param != n_params {
            return Err(WireError::new(format!(
                "parameter table holds {n_params} rows but the methods claim {first_param}"
            )));
        }
        if bases.len() != 0 {
            return Err(WireError::new(format!(
                "override table holds {n_overrides} rows but {} methods carry the override flag",
                n_overrides - bases.len()
            )));
        }

        let mut fields = Vec::with_capacity(n_fields);
        for (i, row) in field_rows.iter().enumerate() {
            let flags = row_u32(row, 3);
            if flags & !u32::from(field_flag::ALL) != 0 {
                return Err(WireError::new(format!(
                    "field {i}: unknown flag bits {:#x}",
                    flags & !u32::from(field_flag::ALL)
                )));
            }
            fields.push(FieldRow {
                name: strings.check(row_u32(row, 0), "field name")?,
                declaring: ty(row_u32(row, 1), "field declaring type")?,
                ty: ty(row_u32(row, 2), "field type")?,
                flags: flags as u8,
            });
        }

        let bodies = BodyDecoder {
            bounds: Bounds {
                types: n_types,
                fields: n_fields,
                methods: n_methods,
            },
            strings,
        };
        let with_body = || {
            (0..)
                .zip(&methods)
                .filter(|(_, m)| m.flags & flag::BODY != 0)
        };
        let mut body_table = Vec::with_capacity(with_body().count());
        for (i, m) in with_body() {
            let body = bodies.body(r).map_err(|e| {
                let name = strings.get(m.name, "method name").unwrap_or_default();
                e.context(&format!("body of method {name}"))
            })?;
            body_table.push((MethodId(i), Arc::new(body)));
        }

        for id in r.get_rows::<4>("removed method table")? {
            let id = check_id(u32::from_le_bytes(*id), n_methods, "removed method id")?;
            methods[id].flags |= flag::REMOVED;
        }
        for id in r.get_rows::<4>("removed field table")? {
            let id = check_id(u32::from_le_bytes(*id), n_fields, "removed field id")?;
            fields[id].flags |= flag::REMOVED;
        }
        let names = Names::from_parts(strings.end_offsets().collect(), strings.text().to_owned());
        let db = Database::from_tables(types, names, methods, params, fields, body_table);
        // Not `check_body`: after an update a body in a type it did not
        // name may stop type-checking, and that model must round-trip.
        for (m, body) in db.bodies() {
            db.check_body_shape(m, body)
                .map_err(|e| WireError::new(format!("method {}: {e}", m.index())))?;
        }
        Ok(db)
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
