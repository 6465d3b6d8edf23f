//! Query contexts: the code location a completion query runs in.

use pex_types::TypeId;

use crate::{Body, Database, MethodId};

/// A named local variable (or parameter) in scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Local {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: TypeId,
}

/// The static context of a completion query: which type and method encloses
/// the query site, whether `this` is available, and which locals are live.
///
/// The paper's algorithm "has access to static information about the
/// surrounding code: the types of the values used in the expression, the
/// locals in scope, and the visible library methods and fields" — the last
/// part lives in [`Database`]; this struct carries the rest.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// Enclosing type, if the query sits inside a type (affects private
    /// member access and the in-scope-static ranking term).
    pub enclosing_type: Option<TypeId>,
    /// Enclosing method, if known (used by abstract-type lookups).
    pub enclosing_method: Option<MethodId>,
    /// Whether `this` is available (instance context).
    pub has_this: bool,
    /// Live locals, parameters first.
    pub locals: Vec<Local>,
}

impl Context {
    /// A context with no enclosing type and no locals (e.g. a REPL).
    pub fn empty() -> Self {
        Context::default()
    }

    /// A static context inside `enclosing` (or none) with the given locals.
    pub fn with_locals(enclosing: Option<TypeId>, locals: Vec<Local>) -> Self {
        Context {
            enclosing_type: enclosing,
            enclosing_method: None,
            has_this: false,
            locals,
        }
    }

    /// An instance context inside `enclosing` with the given locals.
    pub fn instance(enclosing: TypeId, locals: Vec<Local>) -> Self {
        Context {
            enclosing_type: Some(enclosing),
            enclosing_method: None,
            has_this: true,
            locals,
        }
    }

    /// The context visible at statement `stmt_index` of `body` in `method`:
    /// parameters plus locals initialised strictly earlier. This mirrors the
    /// paper's evaluation discipline of hiding the query expression and all
    /// code after it.
    pub fn at_statement(db: &Database, method: MethodId, body: &Body, stmt_index: usize) -> Self {
        let md = db.method(method);
        let live = body.live_locals_at(stmt_index);
        let locals = body.locals[..live]
            .iter()
            .map(|(name, ty)| Local {
                name: name.clone(),
                ty: *ty,
            })
            .collect();
        Context {
            enclosing_type: Some(md.declaring()),
            enclosing_method: Some(method),
            has_this: !md.is_static(),
            locals,
        }
    }

    /// The type of `this`, when available.
    pub fn this_type(&self) -> Option<TypeId> {
        if self.has_this {
            self.enclosing_type
        } else {
            None
        }
    }

    /// Finds a live local by name.
    pub fn local_by_name(&self, name: &str) -> Option<(crate::LocalId, &Local)> {
        self.locals
            .iter()
            .enumerate()
            .rev() // later declarations shadow earlier ones
            .find(|(_, l)| l.name == name)
            .map(|(i, l)| (crate::LocalId(i as u32), l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, LocalId, Stmt, Visibility};

    #[test]
    fn context_at_statement_sees_prefix() {
        let mut db = Database::new();
        let ns = pex_types::NamespaceId::GLOBAL;
        let c = db.types_mut().declare_class(ns, "C").unwrap();
        let (int, void) = (db.types().int_ty(), db.types().void_ty());
        let m = db.member_batch().add_method(
            c,
            "M",
            false,
            &[crate::Param { name: "p", ty: int }],
            void,
            Visibility::Public,
        );
        let body = Body {
            locals: vec![("p".into(), int), ("a".into(), int)],
            param_count: 1,
            stmts: vec![
                Stmt::Init(LocalId(1), Expr::IntLit(1)),
                Stmt::Expr(Expr::Local(LocalId(1))),
            ],
        };
        let ctx0 = Context::at_statement(&db, m, &body, 0);
        assert_eq!(ctx0.locals.len(), 1);
        assert!(ctx0.has_this);
        assert_eq!(ctx0.enclosing_type, Some(c));
        let ctx1 = Context::at_statement(&db, m, &body, 1);
        assert_eq!(ctx1.locals.len(), 2);
        assert_eq!(ctx1.local_by_name("a").unwrap().0, LocalId(1));
        assert!(ctx1.local_by_name("zzz").is_none());
    }

    #[test]
    fn shadowing_prefers_latest() {
        let ctx = Context::with_locals(
            None,
            vec![
                Local {
                    name: "x".into(),
                    ty: pex_types::TypeId::from_index(2),
                },
                Local {
                    name: "x".into(),
                    ty: pex_types::TypeId::from_index(3),
                },
            ],
        );
        assert_eq!(ctx.local_by_name("x").unwrap().0, LocalId(1));
    }
}
