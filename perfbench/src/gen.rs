//! The seeded input generator: everything a workload needs, built from the
//! workload seed alone.
//!
//! The program under test receives only generated text: mini-C# sources
//! and protocol request lines. The reference models kept here are
//! compiled from that same text; they are where queries are cut out of
//! the original code and where each query's intended answer is recorded.

use pex_core::{PartialExpr, SuffixKind};
use pex_corpus::{table1_projects, ProjectProfile};
use pex_model::minics::{self, PrintOptions};
use pex_model::{CallStyle, Context, Database, Expr, ExprKindName, MethodId, Stmt};
use pex_serve::json;
use pex_types::{TypeId, TypeKind};

/// Calls each `replay` project is generated to hold. Every Table 1 profile
/// is scaled to the same size, so no single project's library dominates
/// the query mix (at the paper's sizes WiX alone would be three quarters
/// of it).
const REPLAY_CALLS: f64 = 600.0;
/// Independently seeded copies of each profile in a `replay` run: more,
/// smaller libraries average out how much any one library's shape sets
/// the latency tail.
const REPLAY_VARIANTS: u64 = 8;
/// Corpus scale of the Paint.NET-profile project the daemon serves.
const SERVE_SCALE: f64 = 0.5;
/// Calls of one callee in one project that `replay` turns into queries.
const SITES_PER_CALLEE: usize = 2;
/// Most distinct queries in the `socket` hot set (a quarter is the least
/// a run accepts).
const HOT_QUERIES: usize = 128;
/// Signature-edit and body-edit targets in the `edit` workload.
const EDIT_TARGETS: usize = 6;
/// Every `EDIT_EVERY`-th request of the `edit` stream is an update.
const EDIT_EVERY: usize = 8;
/// The update kinds the `edit` stream cycles through.
const EDIT_CYCLE: [EditKind; 5] = [
    EditKind::Signature,
    EditKind::Body,
    EditKind::Signature,
    EditKind::Body,
    EditKind::Garbled,
];

/// A small, fast, seedable generator (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Mixes the workload seed into a per-purpose seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// One generated project: its mini-C# text and the generator's own
/// compile of it.
pub struct Project {
    /// Table 1 project name.
    pub name: &'static str,
    /// The generated source the program compiles.
    pub source: String,
    /// The model compiled from `source`, used to cut queries and record
    /// intended answers.
    pub reference: Database,
}

fn project(profile: &ProjectProfile, seed: u64, scale: f64) -> Result<Project, String> {
    let mut profile = profile.clone();
    profile.seed = mix(seed, profile.seed);
    let generated = profile.generate(scale);
    let source = minics::print(&generated, PrintOptions::default());
    let reference = minics::compile(&source)
        .map_err(|e| format!("generated {} source does not compile: {e}", profile.name))?;
    Ok(Project {
        name: profile.name,
        source,
        reference,
    })
}

/// The paper's three query families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `?({a, b})`: predict the method name from two of its arguments.
    Method,
    /// `M(a, ?, c)`: predict one argument.
    Argument,
    /// `a.?m := b.?m`: predict removed trailing field lookups.
    Lookup,
}

impl Family {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Family::Method => "method",
            Family::Argument => "argument",
            Family::Lookup => "lookup",
        }
    }
}

/// What a query was cut from: the answer the original code had.
#[derive(Debug, Clone)]
pub enum Intended {
    /// Any call to this method (method-name queries, as in Table 1).
    CallTo(MethodId),
    /// Exactly this expression.
    Exact(Expr),
}

impl Intended {
    /// Whether a returned completion is the intended answer.
    pub fn matches(&self, e: &Expr) -> bool {
        match self {
            Intended::CallTo(m) => matches!(e, Expr::Call(got, _) if got == m),
            Intended::Exact(want) => e == want,
        }
    }
}

/// One `replay` query site.
pub struct Site {
    /// Index into [`ReplayInput::projects`].
    pub project: usize,
    /// The client method whose body holds the site.
    pub method: MethodId,
    /// The top-level statement index (context and abstract-type cutoff).
    pub stmt: usize,
    /// Which query family the site replays.
    pub family: Family,
    /// The partial expression sent to the engine.
    pub query: PartialExpr,
    /// The original code's answer.
    pub intended: Intended,
}

/// The size of a compiled model, to check that the program's compile
/// yields the model the sites were cut from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    types: usize,
    methods: usize,
    fields: usize,
}

impl Shape {
    /// The shape of `db`.
    pub fn of(db: &Database) -> Shape {
        Shape {
            types: db.types().len(),
            methods: db.method_count(),
            fields: db.field_count(),
        }
    }
}

/// One `replay` project: its source and the shape of its compiled model
/// (the reference model itself is dropped once its sites are cut).
pub struct ReplayProject {
    /// Table 1 project name.
    pub name: &'static str,
    /// The generated source the program compiles.
    pub source: String,
    /// The shape of the model compiled from `source`.
    pub shape: Shape,
}

/// Everything the `replay` workload needs.
pub struct ReplayInput {
    /// The seven Table 1 projects.
    pub projects: Vec<ReplayProject>,
    /// Every site, shuffled within its family.
    pub sites: Vec<Site>,
    /// Per family, indexes into `sites`.
    by_family: [Vec<usize>; 3],
    /// Generated projects left out because their printed source does not
    /// compile (a print/compile round-trip defect of the program), with
    /// the compiler's message.
    pub skipped: Vec<String>,
}

impl ReplayInput {
    /// The `k`-th query of the run: families take turns, so every run
    /// replays the three families in equal shares whatever the corpora
    /// hold; each family walks its own shuffled sites, starting over
    /// when they run out.
    pub fn site(&self, k: usize) -> &Site {
        let family = &self.by_family[k % 3];
        &self.sites[family[(k / 3) % family.len()]]
    }

    /// Sites in the smallest family: after three times this many queries,
    /// sites start to repeat.
    pub fn fresh_queries(&self) -> usize {
        3 * self.by_family.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Generates the Table 1 projects and one query per site and family.
pub fn replay(seed: u64) -> Result<ReplayInput, String> {
    let mut rng = Rng::new(mix(seed, 0x5E7E));
    let mut projects = Vec::new();
    let mut sites = Vec::new();
    let profiles = table1_projects();
    let variants = (0..REPLAY_VARIANTS).flat_map(|v| profiles.iter().map(move |p| (v, p)));
    let mut skipped = Vec::new();
    for (variant, profile) in variants {
        let scale = REPLAY_CALLS / profile.paper_calls as f64;
        let p = match project(profile, mix(seed, variant), scale) {
            Ok(p) => p,
            Err(e) => {
                skipped.push(e);
                continue;
            }
        };
        collect_sites(projects.len(), &p.reference, &mut rng, &mut sites);
        projects.push(ReplayProject {
            name: p.name,
            shape: Shape::of(&p.reference),
            source: p.source,
        });
    }
    rng.shuffle(&mut sites);
    let mut by_family: [Vec<usize>; 3] = Default::default();
    for (i, site) in sites.iter().enumerate() {
        by_family[site.family as usize].push(i);
    }
    if by_family.iter().any(Vec::is_empty) {
        return Err("a query family has no sites".to_owned());
    }
    Ok(ReplayInput {
        projects,
        sites,
        by_family,
        skipped,
    })
}

fn with_lookup_suffix(e: Expr) -> PartialExpr {
    PartialExpr::suffix(PartialExpr::Known(e), SuffixKind::Method)
}

/// Strips one trailing instance field lookup, if the expression ends in one.
fn strip_lookup(db: &Database, e: &Expr) -> Option<Expr> {
    match e {
        Expr::FieldAccess(base, f) if !db.field(*f).is_static() => Some((**base).clone()),
        _ => None,
    }
}

fn calls_in(e: &Expr, out: &mut Vec<(MethodId, Vec<Expr>)>) {
    if let Expr::Call(target, args) = e {
        out.push((*target, args.clone()));
    }
    for child in e.children() {
        calls_in(child, out);
    }
}

fn collect_sites(pi: usize, db: &Database, rng: &mut Rng, out: &mut Vec<Site>) {
    // Calls per callee that become queries: a method called from many
    // places would otherwise put many near-identical queries in the mix.
    let mut per_callee: std::collections::HashMap<MethodId, usize> = Default::default();
    for m in db.methods() {
        let Some(body) = db.method(m).body() else {
            continue;
        };
        for (si, stmt) in body.stmts.iter().enumerate() {
            for expr in stmt.exprs_recursive() {
                let mut calls = Vec::new();
                calls_in(expr, &mut calls);
                for (target, args) in calls {
                    let seen = per_callee.entry(target).or_default();
                    *seen += 1;
                    if *seen > SITES_PER_CALLEE {
                        continue;
                    }
                    let site = |family, query, intended| Site {
                        project: pi,
                        method: m,
                        stmt: si,
                        family,
                        query,
                        intended,
                    };
                    // One method-name query per call with at least two
                    // arguments, from a random pair of them.
                    if args.len() >= 2 {
                        let i = rng.below(args.len());
                        let j = (i + 1 + rng.below(args.len() - 1)) % args.len();
                        let query = PartialExpr::UnknownCall(vec![
                            PartialExpr::Known(args[i.min(j)].clone()),
                            PartialExpr::Known(args[i.max(j)].clone()),
                        ]);
                        out.push(site(Family::Method, query, Intended::CallTo(target)));
                    }
                    // One argument query per call: a random guessable
                    // argument replaced by `?`.
                    let guessable: Vec<usize> = (0..args.len())
                        .filter(|&i| {
                            args[i].kind_name(|m, argc| db.is_zero_arg_call(m, argc))
                                != ExprKindName::NotGuessable
                        })
                        .collect();
                    if !guessable.is_empty() {
                        let hole = guessable[rng.below(guessable.len())];
                        let query = PartialExpr::KnownCall {
                            candidates: vec![target],
                            args: args
                                .iter()
                                .enumerate()
                                .map(|(i, a)| {
                                    if i == hole {
                                        PartialExpr::Hole
                                    } else {
                                        PartialExpr::Known(a.clone())
                                    }
                                })
                                .collect(),
                        };
                        let intended = Intended::Exact(Expr::Call(target, args.clone()));
                        out.push(site(Family::Argument, query, intended));
                    }
                }
                if let Expr::Assign(lhs, rhs) = expr {
                    // Strip the target side, the source side, or both (one
                    // of the paper's three assignment cases, at random),
                    // then append `.?m` to both sides.
                    let mut cases = Vec::new();
                    if let Some(l) = strip_lookup(db, lhs) {
                        cases.push((l, (**rhs).clone()));
                    }
                    if let Some(r) = strip_lookup(db, rhs) {
                        cases.push(((**lhs).clone(), r.clone()));
                        if let Some(l) = strip_lookup(db, lhs) {
                            cases.push((l, r));
                        }
                    }
                    if !cases.is_empty() {
                        let (l, r) = cases.swap_remove(rng.below(cases.len()));
                        out.push(Site {
                            project: pi,
                            method: m,
                            stmt: si,
                            family: Family::Lookup,
                            query: PartialExpr::assign(
                                with_lookup_suffix(l),
                                with_lookup_suffix(r),
                            ),
                            intended: Intended::Exact(expr.clone()),
                        });
                    }
                }
            }
        }
    }
}

/// One short serving query: partial-expression text plus its typed locals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotQuery {
    /// Partial-expression surface syntax.
    pub query: String,
    /// `name:Qualified.Type` local declarations.
    pub locals: Vec<String>,
}

/// What the `edit` stream expects an update to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A return-type change: must apply and invalidate memo cells.
    Signature,
    /// A statement duplicated inside one body: must apply and invalidate
    /// nothing.
    Body,
    /// A truncated unit: must be rejected with `parse_error`.
    Garbled,
}

/// One request of a serving stream, without its id.
#[derive(Debug, Clone)]
pub enum Request {
    /// A completion query (an index into the workload's hot set).
    Query(usize),
    /// An `update` carrying one mini-C# unit.
    Update {
        /// What the update must do.
        kind: EditKind,
        /// The unit's source text.
        source: String,
    },
}

/// Everything the `socket` and `edit` workloads need.
pub struct ServeInput {
    /// The generated Paint.NET-profile project the daemon serves.
    pub project: Project,
    /// Compiler messages of generated copies left out before `project`
    /// because their printed source does not compile.
    pub skipped: Vec<String>,
    /// Distinct queries, shuffled; streams cycle through them.
    pub hot: Vec<HotQuery>,
    /// The `edit` stream's queries: ones that touch signature-edited
    /// types first, then general ones.
    pub edit_hot: Vec<HotQuery>,
    sig_targets: Vec<[String; 2]>,
    body_targets: Vec<[String; 2]>,
}

impl HotQuery {
    /// The protocol request line with the given id.
    pub fn line(&self, id: u64) -> String {
        let locals: Vec<String> = self
            .locals
            .iter()
            .map(|l| format!("\"{}\"", json::escape(l)))
            .collect();
        format!(
            "{{\"id\":{id},\"query\":\"{}\",\"locals\":[{}],\"limit\":10}}",
            json::escape(&self.query),
            locals.join(",")
        )
    }
}

/// The `update` request line with the given id.
pub fn update_line(id: u64, source: &str) -> String {
    format!(
        "{{\"id\":{id},\"cmd\":\"update\",\"source\":\"{}\"}}",
        json::escape(source)
    )
}

/// A type the request protocol can name: `lookup_qualified` of its
/// qualified name finds it again.
fn nameable(db: &Database, ty: TypeId) -> Option<String> {
    let def = db.types().get(ty);
    if matches!(def.kind(), TypeKind::Void | TypeKind::Primitive(_)) {
        return None;
    }
    let name = db.types().qualified_name(ty);
    (db.types().lookup_qualified(&name) == Some(ty)).then_some(name)
}

fn method_query(ty: &str) -> HotQuery {
    HotQuery {
        query: "?({v0})".to_owned(),
        locals: vec![format!("v0:{ty}")],
    }
}

fn lookup_queries(ty: &str) -> [HotQuery; 2] {
    ["v0.?m", "v0.?f"].map(|q| HotQuery {
        query: q.to_owned(),
        locals: vec![format!("v0:{ty}")],
    })
}

/// Generates the served project, the hot query set and the edit units.
pub fn serve(seed: u64) -> Result<ServeInput, String> {
    let mut rng = Rng::new(mix(seed, 0x50C3));
    let paint = &table1_projects()[0];
    // A generated project whose printed source does not compile (a
    // print/compile round-trip defect of the program, about one seed in a
    // hundred) is reported and replaced by the next copy of the profile.
    let mut skipped = Vec::new();
    let project = loop {
        let copy = if skipped.is_empty() {
            seed
        } else {
            mix(seed, skipped.len() as u64)
        };
        match project(paint, copy, SERVE_SCALE) {
            Ok(p) => break p,
            Err(e) if skipped.len() < 3 => skipped.push(e),
            Err(e) => return Err(e),
        }
    };
    let db = &project.reference;

    // Single-argument method queries and lookups, cut from the bodies:
    // each known subexpression becomes a typed local.
    let mut methods = Vec::new();
    let mut lookups = Vec::new();
    for m in db.methods() {
        let Some(body) = db.method(m).body() else {
            continue;
        };
        for (si, stmt) in body.stmts.iter().enumerate() {
            let ctx = Context::at_statement(db, m, body, si);
            for expr in stmt.exprs_recursive() {
                let mut calls = Vec::new();
                calls_in(expr, &mut calls);
                for (_, args) in calls {
                    for a in &args {
                        if let Some(ty) = db.expr_ty(a, &ctx).ok().and_then(|t| t.known()) {
                            if let Some(name) = nameable(db, ty) {
                                methods.push(method_query(&name));
                            }
                        }
                    }
                }
                let mut stack = vec![expr];
                while let Some(e) = stack.pop() {
                    if let Some(base) = strip_lookup(db, e) {
                        if let Some(ty) = db.expr_ty(&base, &ctx).ok().and_then(|t| t.known()) {
                            if let Some(name) = nameable(db, ty) {
                                lookups.extend(lookup_queries(&name));
                            }
                        }
                    }
                    stack.extend(e.children());
                }
            }
        }
    }
    let hot = hot_set(&mut rng, methods, lookups, HOT_QUERIES);
    if hot.len() < HOT_QUERIES / 4 {
        return Err(format!("only {} distinct hot queries", hot.len()));
    }

    let (sig_targets, targeted) = signature_targets(db, &mut rng);
    let body_targets = body_targets(db, &mut rng);
    if sig_targets.is_empty() || body_targets.is_empty() {
        return Err("no signature or body edit targets in the served project".to_owned());
    }
    let mut edit_hot = targeted;
    for q in &hot {
        if edit_hot.len() >= HOT_QUERIES {
            break;
        }
        if !edit_hot.contains(q) {
            edit_hot.push(q.clone());
        }
    }
    Ok(ServeInput {
        project,
        skipped,
        hot,
        edit_hot,
        sig_targets,
        body_targets,
    })
}

/// Half method queries, half lookups (as available), distinct, shuffled.
fn hot_set(
    rng: &mut Rng,
    methods: Vec<HotQuery>,
    lookups: Vec<HotQuery>,
    n: usize,
) -> Vec<HotQuery> {
    let dedup = |mut v: Vec<HotQuery>, rng: &mut Rng| {
        v.sort_by(|a, b| (&a.query, &a.locals).cmp(&(&b.query, &b.locals)));
        v.dedup();
        rng.shuffle(&mut v);
        v
    };
    let methods = dedup(methods, rng);
    let lookups = dedup(lookups, rng);
    let take_lookups = lookups.len().min(n / 2);
    let take_methods = methods.len().min(n - take_lookups);
    let mut hot: Vec<HotQuery> = methods[..take_methods]
        .iter()
        .chain(&lookups[..take_lookups])
        .cloned()
        .collect();
    rng.shuffle(&mut hot);
    hot
}

/// Methods no body calls (so changing their return type cannot break any
/// body), with at least one parameter and a nameable return type, in
/// non-interface types. Each target is `[original unit, edited unit]`.
/// Also returns queries over the touched types.
fn signature_targets(db: &Database, rng: &mut Rng) -> (Vec<[String; 2]>, Vec<HotQuery>) {
    let mut called = std::collections::HashSet::new();
    for m in db.methods() {
        if let Some(body) = db.method(m).body() {
            for stmt in &body.stmts {
                for e in stmt.exprs_recursive() {
                    let mut calls = Vec::new();
                    calls_in(e, &mut calls);
                    called.extend(calls.into_iter().map(|(t, _)| t));
                }
            }
        }
    }
    let class_types: Vec<(TypeId, String)> = db
        .types()
        .iter()
        .filter(|&t| matches!(db.types().get(t).kind(), TypeKind::Class { .. }))
        .filter_map(|t| nameable(db, t).map(|n| (t, n)))
        .collect();
    let mut candidates: Vec<MethodId> = db
        .methods()
        .filter(|&m| {
            let md = db.method(m);
            let owner = db.types().get(md.declaring());
            !called.contains(&m)
                && !md.params().is_empty()
                && !matches!(owner.kind(), TypeKind::Interface)
                && nameable(db, md.return_type()).is_some()
                && nameable(db, md.declaring()).is_some()
                && db
                    .methods_of(md.declaring())
                    .iter()
                    .filter(|&&o| db.method(o).name() == md.name())
                    .count()
                    == 1
        })
        .collect();
    rng.shuffle(&mut candidates);
    let mut targets = Vec::new();
    let mut queries = Vec::new();
    let mut used_types = std::collections::HashSet::new();
    for m in candidates {
        if targets.len() >= EDIT_TARGETS || class_types.is_empty() {
            break;
        }
        let md = db.method(m);
        if !used_types.insert(md.declaring()) {
            continue;
        }
        let unit = minics::print_type(db, md.declaring(), PrintOptions::default());
        let ret = nameable(db, md.return_type()).expect("filtered above");
        let (other_ty, other) = &class_types[rng.below(class_types.len())];
        if *other_ty == md.return_type() {
            continue;
        }
        let old = format!(" {ret} {}(", md.name());
        if unit.matches(&old).count() != 1 {
            continue;
        }
        let edited = unit.replacen(&old, &format!(" {other} {}(", md.name()), 1);
        for p in md.full_param_types() {
            if let Some(name) = nameable(db, p) {
                queries.push(method_query(&name));
            }
        }
        if let Some(name) = nameable(db, md.declaring()) {
            queries.extend(lookup_queries(&name));
        }
        targets.push([unit, edited]);
    }
    queries.sort_by(|a, b| (&a.query, &a.locals).cmp(&(&b.query, &b.locals)));
    queries.dedup();
    (targets, queries)
}

/// Client methods whose printed body has a top-level expression statement;
/// the edit duplicates that statement, which changes the body and no
/// signature. Each target is `[original unit, edited unit]`.
fn body_targets(db: &Database, rng: &mut Rng) -> Vec<[String; 2]> {
    let mut methods: Vec<MethodId> = db
        .methods()
        .filter(|&m| db.method(m).body().is_some())
        .collect();
    rng.shuffle(&mut methods);
    let mut targets = Vec::new();
    let mut used_types = std::collections::HashSet::new();
    for m in methods {
        if targets.len() >= EDIT_TARGETS {
            break;
        }
        let md = db.method(m);
        if used_types.contains(&md.declaring()) {
            continue;
        }
        let body = md.body().expect("filtered above");
        let Some((i, e)) = body.stmts.iter().enumerate().find_map(|(i, s)| match s {
            Stmt::Expr(e) => Some((i, e)),
            _ => None,
        }) else {
            continue;
        };
        let unit = minics::print_type(db, md.declaring(), PrintOptions::default());
        let ctx = Context::at_statement(db, m, body, i + 1);
        let line = format!(
            "\n            {};\n",
            pex_model::render_expr(db, &ctx, e, CallStyle::Receiver)
        );
        if unit.matches(&line).count() != 1 {
            continue;
        }
        let edited = unit.replacen(&line, &format!("{line}{}", &line[1..]), 1);
        used_types.insert(md.declaring());
        targets.push([unit, edited]);
    }
    targets
}

impl ServeInput {
    /// The `edit` stream: `n` requests, every [`EDIT_EVERY`]-th an update
    /// cycling signature, body and garbled units. Each well-formed update
    /// flips its target between the original and the edited unit, so it
    /// always differs from the state it is applied to.
    pub fn edit_stream(&self, n: usize) -> Vec<Request> {
        let mut sig_state = vec![0usize; self.sig_targets.len()];
        let mut body_state = vec![0usize; self.body_targets.len()];
        let (mut sig_next, mut body_next, mut garbled_next) = (0usize, 0usize, 0usize);
        let mut queries = 0usize;
        let mut updates = 0usize;
        (0..n)
            .map(|k| {
                if (k + 1) % EDIT_EVERY != 0 {
                    queries += 1;
                    return Request::Query((queries - 1) % self.edit_hot.len());
                }
                let kind = EDIT_CYCLE[updates % EDIT_CYCLE.len()];
                updates += 1;
                let source = match kind {
                    EditKind::Signature => {
                        let t = sig_next % self.sig_targets.len();
                        sig_next += 1;
                        sig_state[t] ^= 1;
                        self.sig_targets[t][sig_state[t]].clone()
                    }
                    EditKind::Body => {
                        let t = body_next % self.body_targets.len();
                        body_next += 1;
                        body_state[t] ^= 1;
                        self.body_targets[t][body_state[t]].clone()
                    }
                    EditKind::Garbled => {
                        let t = garbled_next % self.sig_targets.len();
                        garbled_next += 1;
                        garble(&self.sig_targets[t][0])
                    }
                };
                Request::Update { kind, source }
            })
            .collect()
    }
}

/// A unit cut off inside its type declaration: unbalanced braces, so it
/// can never parse.
fn garble(unit: &str) -> String {
    let mut cut = unit.len() * 3 / 5;
    while !unit.is_char_boundary(cut) {
        cut -= 1;
    }
    unit[..cut].to_owned()
}
