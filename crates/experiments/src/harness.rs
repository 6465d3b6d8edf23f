//! Shared experiment infrastructure: project loading, configuration, and
//! the per-site iteration discipline (context + incremental abstract-type
//! solutions).

use std::collections::HashMap;
use std::time::Duration;

use pex_abstract::{AbsTypes, ConstraintCache, MethodSweep};
use pex_core::{
    CancelToken, CompleteOptions, Completer, MethodIndex, QueryBudget, RankConfig, ReachIndex,
};
use pex_corpus::table1_projects;
use pex_model::{Context, Database, MethodId};
use rayon::prelude::*;

use crate::extract::{extract, Extracted};

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Corpus scale relative to the paper's project sizes (1.0 = paper).
    pub scale: f64,
    /// How deep the engine searches for the intended answer before giving
    /// up (ranks at or past this report as "not found").
    pub limit: usize,
    /// Whether abstract-type inference feeds the ranking function.
    pub use_abs: bool,
    /// Ranking configuration (Table 2 varies this).
    pub rank: RankConfig,
    /// Optional cap on sites per project per experiment (sampled by
    /// stride, deterministically).
    pub max_sites: Option<usize>,
    /// Largest argument-subset size for method-name queries (the paper
    /// uses 2; 3 measures its "a third argument adds only negligible
    /// improvement" remark).
    pub max_subset: usize,
    /// Worker threads for site replay: `None` uses rayon's default
    /// (`RAYON_NUM_THREADS` or all cores), `Some(1)` forces the strictly
    /// sequential path, `Some(n)` pins an n-worker pool. Outcome order is
    /// identical in every mode — see [`map_sites`].
    pub threads: Option<usize>,
    /// Per-query wall-clock deadline in milliseconds (`--deadline-ms`).
    /// Queries that overrun report [`pex_core::QueryOutcome::Deadline`]
    /// and their sites are counted as truncated, not as "not found".
    pub deadline_ms: Option<u64>,
    /// Cooperative cancellation shared by every query this config builds.
    /// Cancelling it (e.g. from a `--time-limit-s` watchdog) makes
    /// in-flight queries stop at their next budget poll and [`map_sites`]
    /// skip the sites not yet started, so workers drain gracefully.
    pub cancel: CancelToken,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.02,
            limit: 100,
            use_abs: true,
            rank: RankConfig::all(),
            max_sites: None,
            max_subset: 2,
            threads: None,
            deadline_ms: None,
            cancel: CancelToken::new(),
        }
    }
}

impl ExperimentConfig {
    /// The per-query execution budget this configuration implies.
    pub fn budget(&self) -> QueryBudget {
        QueryBudget {
            deadline: self.deadline_ms.map(Duration::from_millis),
            cancel: Some(self.cancel.clone()),
            ..Default::default()
        }
    }
}

/// One generated project plus its derived artefacts.
pub struct Project {
    /// Table 1 project name.
    pub name: &'static str,
    /// The generated program.
    pub db: Database,
    /// The method index (built once).
    pub index: MethodIndex,
    /// The type-reachability index (built once; prunes filtered chains).
    pub reach: ReachIndex,
    /// Precomputed abstract-type constraints (built once; replayed per
    /// sweep).
    pub abs_cache: ConstraintCache,
    /// All extracted query sites.
    pub extracted: Extracted,
}

impl std::fmt::Debug for Project {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Project")
            .field("name", &self.name)
            .field("methods", &self.db.method_count())
            .field("calls", &self.extracted.calls.len())
            .finish()
    }
}

/// Generates the seven Table 1 projects at the configured scale.
pub fn load_projects(scale: f64) -> Vec<Project> {
    table1_projects()
        .into_iter()
        .map(|p| {
            let db = p.generate(scale);
            let index = MethodIndex::build(&db);
            let reach = ReachIndex::build(&db);
            let abs_cache = ConstraintCache::build(&db);
            let extracted = extract(&db);
            Project {
                name: p.name,
                db,
                index,
                reach,
                abs_cache,
                extracted,
            }
        })
        .collect()
}

/// Renders a project back to compilable mini-C# source (bodies containing
/// opaque expressions print as bodiless declarations).
pub fn dump_project(project: &Project) -> String {
    pex_model::minics::print(&project.db, pex_model::minics::PrintOptions::default())
}

/// Deterministically samples up to `max` items by stride.
pub fn sample<T: Clone>(items: &[T], max: Option<usize>) -> Vec<T> {
    match max {
        Some(max) if items.len() > max && max > 0 => {
            let stride = items.len() as f64 / max as f64;
            (0..max)
                .map(|i| items[(i as f64 * stride) as usize].clone())
                .collect()
        }
        _ => items.to_vec(),
    }
}

/// Groups sites by enclosing method, preserving first-occurrence method
/// order and sorting each group by statement index.
fn group_by_method<S>(sites: &[S], key: fn(&S) -> (MethodId, usize)) -> Vec<(MethodId, Vec<&S>)> {
    let mut by_method: HashMap<MethodId, Vec<&S>> = HashMap::new();
    let mut order: Vec<MethodId> = Vec::new();
    for s in sites {
        let (m, _) = key(s);
        if !by_method.contains_key(&m) {
            order.push(m);
        }
        by_method.entry(m).or_default().push(s);
    }
    order
        .into_iter()
        .map(|m| {
            let mut group = by_method.remove(&m).expect("grouped above");
            group.sort_by_key(|s| key(s).1);
            (m, group)
        })
        .collect()
}

/// Iterates sites grouped by enclosing method with an amortised
/// abstract-type sweep: for each site the callback receives the context and
/// the abstract solution truncated at the site's statement (the paper's
/// "eliminate the expression and all code that follows it").
pub fn for_each_site<S, F>(
    db: &Database,
    abs_cache: Option<&ConstraintCache>,
    sites: &[S],
    key: fn(&S) -> (MethodId, usize),
    mut f: F,
) where
    F: FnMut(&S, &Context, Option<&AbsTypes>),
{
    for (m, group) in group_by_method(sites, key) {
        let mut sweep = abs_cache.map(|cache| MethodSweep::with_cache(db, cache, m));
        for site in group {
            let (method, stmt) = key(site);
            let body = db.method(method).body().expect("sites come from bodies");
            let ctx = Context::at_statement(db, method, body, stmt);
            f(site, &ctx, sweep.as_mut().map(|s| s.advance_to(stmt)));
        }
    }
}

/// Parallel site replay: the same visit as [`for_each_site`], but method
/// groups are distributed across rayon workers and the callback *collects*
/// outcomes instead of mutating shared state.
///
/// Determinism contract: each group keeps its own `MethodSweep` (the
/// per-method amortisation is preserved) and is processed in statement
/// order; the per-group outcome vectors are then reassembled in the same
/// first-occurrence group order the sequential walk uses. The returned
/// outcome order is therefore **identical for every thread count**,
/// including the strictly sequential `threads == Some(1)` path.
///
/// When `cancel` is provided and trips, workers stop picking up sites at
/// the next site boundary (in-flight queries also observe the same token
/// through their [`QueryBudget`]) and the partial outcome vector is
/// returned; the determinism contract then only covers the prefix that ran.
pub fn map_sites<S, R, F>(
    db: &Database,
    abs_cache: Option<&ConstraintCache>,
    sites: &[S],
    key: fn(&S) -> (MethodId, usize),
    threads: Option<usize>,
    cancel: Option<&CancelToken>,
    f: F,
) -> Vec<R>
where
    S: Sync,
    R: Send,
    F: Fn(&S, &Context, Option<&AbsTypes>, &mut Vec<R>) + Sync,
{
    let _span = pex_obs::span("replay.map_sites");
    let groups = group_by_method(sites, key);
    pex_obs::counter!("replay.sites", sites.len() as u64);
    pex_obs::counter!("replay.groups", groups.len() as u64);
    let run_group = |&(m, ref group): &(MethodId, Vec<&S>)| -> Vec<R> {
        let mut out = Vec::new();
        let mut sweep = abs_cache.map(|cache| MethodSweep::with_cache(db, cache, m));
        for &site in group {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                pex_obs::counter!("replay.sites.skipped", 1);
                break;
            }
            let (method, stmt) = key(site);
            let body = db.method(method).body().expect("sites come from bodies");
            let ctx = Context::at_statement(db, method, body, stmt);
            let abs = sweep.as_mut().map(|s| s.advance_to(stmt));
            f(site, &ctx, abs, &mut out);
        }
        out
    };
    let parts: Vec<Vec<R>> = match threads {
        Some(1) => groups.iter().map(run_group).collect(),
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("thread pool")
            .install(|| groups.par_iter().map(run_group).collect()),
        None => groups.par_iter().map(run_group).collect(),
    };
    parts.into_iter().flatten().collect()
}

/// Builds a completer for one site.
pub fn completer<'a>(
    project: &'a Project,
    ctx: &'a Context,
    abs: Option<&'a AbsTypes>,
    cfg: &ExperimentConfig,
    expected: Option<pex_types::TypeId>,
) -> Completer<'a> {
    Completer::new(&project.db, ctx, &project.index, cfg.rank, abs)
        .with_options(CompleteOptions {
            expected,
            budget: cfg.budget(),
            ..Default::default()
        })
        .with_reach(&project.reach)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let xs: Vec<usize> = (0..100).collect();
        let s = sample(&xs, Some(10));
        assert_eq!(s.len(), 10);
        assert_eq!(s, sample(&xs, Some(10)));
        assert_eq!(sample(&xs, None).len(), 100);
        assert_eq!(sample(&xs, Some(200)).len(), 100);
    }

    #[test]
    fn projects_load_at_tiny_scale() {
        let ps = load_projects(0.002);
        assert_eq!(ps.len(), 7);
        let total_calls: usize = ps.iter().map(|p| p.extracted.calls.len()).sum();
        assert!(total_calls > 10, "expected some calls, got {total_calls}");
    }

    #[test]
    fn for_each_site_visits_everything_in_order() {
        let ps = load_projects(0.002);
        let p = &ps[0];
        let mut seen = 0usize;
        let mut last: HashMap<MethodId, usize> = HashMap::new();
        for_each_site(
            &p.db,
            Some(&p.abs_cache),
            &p.extracted.calls,
            |c| (c.enclosing, c.stmt),
            |site, ctx, abs| {
                seen += 1;
                assert!(abs.is_some());
                assert!(ctx.enclosing_method.is_some());
                let prev = last.insert(site.enclosing, site.stmt);
                if let Some(prev) = prev {
                    assert!(prev <= site.stmt, "within a method, statements ascend");
                }
            },
        );
        assert_eq!(seen, p.extracted.calls.len());
    }

    #[test]
    fn map_sites_order_is_thread_count_invariant() {
        let ps = load_projects(0.002);
        let p = &ps[0];
        let collect = |threads: Option<usize>| {
            map_sites(
                &p.db,
                Some(&p.abs_cache),
                &p.extracted.calls,
                |c| (c.enclosing, c.stmt),
                threads,
                None,
                |site, ctx, abs, out| {
                    assert!(abs.is_some());
                    assert!(ctx.enclosing_method.is_some());
                    out.push((site.enclosing, site.stmt));
                },
            )
        };
        let sequential = collect(Some(1));
        assert_eq!(sequential.len(), p.extracted.calls.len());
        // The sequential walk and map_sites visit in the same order...
        let mut visited = Vec::new();
        for_each_site(
            &p.db,
            Some(&p.abs_cache),
            &p.extracted.calls,
            |c| (c.enclosing, c.stmt),
            |site, _, _| visited.push((site.enclosing, site.stmt)),
        );
        assert_eq!(sequential, visited);
        // ... and the order survives any worker count (even > core count).
        assert_eq!(sequential, collect(Some(4)));
        assert_eq!(sequential, collect(None));
    }

    #[test]
    fn map_sites_drains_gracefully_when_cancelled() {
        let ps = load_projects(0.002);
        let p = &ps[0];
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let out = map_sites(
            &p.db,
            Some(&p.abs_cache),
            &p.extracted.calls,
            |c| (c.enclosing, c.stmt),
            Some(1),
            Some(&cancelled),
            |site, _, _, out| out.push((site.enclosing, site.stmt)),
        );
        assert!(out.is_empty(), "pre-cancelled replay visits no sites");
        // An armed-but-untripped token changes nothing.
        let live = CancelToken::new();
        let all = map_sites(
            &p.db,
            Some(&p.abs_cache),
            &p.extracted.calls,
            |c| (c.enclosing, c.stmt),
            Some(1),
            Some(&live),
            |site, _, _, out| out.push((site.enclosing, site.stmt)),
        );
        assert_eq!(all.len(), p.extracted.calls.len());
    }

    #[test]
    fn config_budget_carries_deadline_and_token() {
        let cfg = ExperimentConfig {
            deadline_ms: Some(250),
            ..Default::default()
        };
        let budget = cfg.budget();
        assert_eq!(budget.deadline, Some(Duration::from_millis(250)));
        // The budget's token is the config's token: cancelling the config
        // cancels every query built from it.
        cfg.cancel.cancel();
        assert!(budget.cancel.as_ref().is_some_and(|t| t.is_cancelled()));
    }
}
