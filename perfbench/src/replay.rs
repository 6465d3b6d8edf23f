//! The `replay` workload: the paper's own evaluation, in process, one
//! thread, closed loop.
//!
//! Set-up compiles every generated Table 1 project, builds one
//! [`Snapshot`] per project and its [`ConstraintCache`]. Each query then
//! takes its site's own context, infers abstract types from the cached
//! constraints, and asks the snapshot-cached completer for the top 10.

use std::path::Path;
use std::time::{Duration, Instant};

use pex_abstract::{AbsTypes, ConstraintCache};
use pex_core::{Completer, Completion, QueryOutcome, RankConfig};
use pex_model::Context;
use pex_serve::Snapshot;

use crate::counters::{engine_counts, ratio, Mark};
use crate::daemon::{proc_mb, schedstat_s};
use crate::gen::{self, Family, ReplayInput, Site};
use crate::stats::{median, Report, WINDOW};
use crate::trace::{self, Recorder};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Completions requested per query.
const TOP_K: usize = 10;
/// The share of queries whose intended answer must be in the top 10. The
/// generated corpora reach well above it on every seed measured; falling
/// below it means ranking broke.
const TOP10_FLOOR: f64 = 0.75;

/// The program state a set-up builds: per project, its snapshot and its
/// abstract-type constraint cache.
pub struct Built {
    snapshots: Vec<Snapshot>,
    caches: Vec<ConstraintCache>,
}

impl Built {
    /// Interned expression-arena nodes across every project.
    pub fn arena_nodes(&self) -> usize {
        self.snapshots.iter().map(|s| s.cache.arena.len()).sum()
    }
}

/// Compiles, snapshots and builds constraints for every project.
pub fn build(input: &ReplayInput, rec: &mut Recorder) -> Result<Built, String> {
    let mut snapshots = Vec::new();
    let mut caches = Vec::new();
    for p in &input.projects {
        let db = rec
            .span("model.minics.compile", 0, || {
                pex_model::minics::compile(&p.source)
            })
            .map_err(|e| format!("{}: {e}", p.name))?;
        if gen::Shape::of(&db) != p.shape {
            return Err(format!("{}: compile is not deterministic", p.name));
        }
        let snapshot = rec.span("serve.snapshot.build", 0, || {
            Snapshot::from_database(p.name.to_owned(), db, Context::empty(), None)
        });
        caches.push(rec.span("abstract.constraints_build", 0, || {
            ConstraintCache::build(&snapshot.db)
        }));
        snapshots.push(snapshot);
    }
    Ok(Built { snapshots, caches })
}

/// One answered query.
pub struct Answer {
    /// The completions, best first.
    pub completions: Vec<Completion>,
    /// How enumeration ended.
    pub outcome: QueryOutcome,
    /// Wall time of the whole call.
    pub elapsed: Duration,
}

/// Answers one site: context, abstract types, search, rendering.
pub fn answer(built: &Built, site: &Site, mut rec: Option<&mut Recorder>, request: u64) -> Answer {
    let started = Instant::now();
    let root = trace::open(&mut rec, "replay.query", request);
    let snapshot = &built.snapshots[site.project];
    let cache = &built.caches[site.project];
    let db = &snapshot.db;
    let span = trace::open(&mut rec, "model.context", request);
    let body = db
        .method(site.method)
        .body()
        .expect("sites come from bodies of a model compiled from the same text");
    let ctx = Context::at_statement(db, site.method, body, site.stmt);
    trace::close(&mut rec, span);
    let span = trace::open(&mut rec, "abstract.infer", request);
    let mut abs = AbsTypes::new(db);
    abs.apply_cached_except(cache, Some(site.method));
    abs.apply_cached_prefix(cache, site.method, site.stmt);
    trace::close(&mut rec, span);
    let span = trace::open(&mut rec, "core.engine.search", request);
    let completer = Completer::new(db, &ctx, &snapshot.index, RankConfig::all(), Some(&abs))
        .with_reach(&snapshot.reach)
        .with_cache(&snapshot.cache);
    let (completions, outcome) = completer.complete_with_outcome(&site.query, TOP_K);
    trace::close(&mut rec, span);
    let span = trace::open(&mut rec, "core.render", request);
    let rendered: Vec<String> = completions.iter().map(|c| completer.render(c)).collect();
    std::hint::black_box(rendered);
    trace::close(&mut rec, span);
    trace::close(&mut rec, root);
    Answer {
        completions,
        outcome,
        elapsed: started.elapsed(),
    }
}

/// Checks one answer's shape; returns whether the intended answer is in it.
fn check_answer(site: &Site, a: &Answer, report: &mut Report) -> bool {
    let scores_sorted = a.completions.windows(2).all(|w| w[0].score <= w[1].score);
    let distinct = a
        .completions
        .iter()
        .enumerate()
        .all(|(i, c)| a.completions[..i].iter().all(|d| d.expr != c.expr));
    report.check(
        a.completions.len() <= TOP_K && scores_sorted && distinct,
        || {
            format!(
                "{} query returned a malformed top-{TOP_K}",
                site.family.label()
            )
        },
    );
    a.completions.iter().any(|c| site.intended.matches(&c.expr))
}

/// Reports the generated projects left out of the run, and why.
fn report_skipped(input: &ReplayInput, report: &mut Report) {
    report.metric_note(
        "replay.projects_skipped",
        input.skipped.len() as f64,
        "count",
        input.projects.len() + input.skipped.len(),
        input.skipped.join("; "),
    );
}

/// The untraced run: every end-to-end metric of `replay`.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let input = gen::replay(seed)?;
    report_skipped(&input, report);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so set-ups do not stack in memory.
        drop(built.take());
        let t = Instant::now();
        let b = build(&input, &mut Recorder::default())?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    let built = built.expect("at least one set-up");
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric(
        "rss_setup_mb",
        proc_mb(std::process::id(), "VmRSS"),
        "MB",
        1,
    );

    let mut latencies = Vec::new();
    let mut by_family: [Vec<f64>; 3] = Default::default();
    let (mut hits, mut failed) = (0usize, 0u64);
    // Busy CPU time per window of `WINDOW` queries: one heavy query makes
    // its window slow, and the median window sets the run's figure.
    let thread_cpu = || schedstat_s(Path::new("/proc/thread-self/schedstat"));
    let mut window_qps = Vec::new();
    let mut window_start = thread_cpu();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let k = latencies.len();
        if k > 0 && k % WINDOW == 0 {
            let now = thread_cpu();
            window_qps.push(WINDOW as f64 / (now - window_start));
            window_start = now;
        }
        let site = input.site(k);
        let a = answer(&built, site, None, k as u64);
        latencies.push(a.elapsed.as_secs_f64() * 1e6);
        by_family[site.family as usize].push(a.elapsed.as_secs_f64() * 1e6);
        if a.outcome.is_degraded() {
            failed += 1;
        }
        hits += usize::from(check_answer(site, &a, report));
    }
    let n = latencies.len();
    if window_qps.is_empty() {
        window_qps.push(n as f64 / (thread_cpu() - window_start));
    }
    report.attempted += n as u64;
    report.failed += failed;
    report.latency("query", &latencies);
    for f in [Family::Method, Family::Argument, Family::Lookup] {
        report.latency(&format!("replay.{}", f.label()), &by_family[f as usize]);
    }
    report.metric_note(
        "queries_per_s",
        median(&window_qps),
        "1/s",
        n,
        format!("median over {} window(s)", window_qps.len()),
    );
    let top10 = ratio(hits as u64, n as u64);
    report.metric("top10_rate", top10, "ratio", n);
    report.metric("failed_frac", ratio(failed, n as u64), "ratio", n);
    report.metric_note(
        "replay.fresh_queries",
        input.fresh_queries() as f64,
        "count",
        1,
        format!("{n} replayed; sites repeat after this many"),
    );
    report.check(top10 >= TOP10_FLOOR, || {
        format!("top10_rate {top10:.3} is below the floor {TOP10_FLOOR}")
    });
    report.check(failed == 0, || format!("{failed} replay queries degraded"));
    report.metric("rss_peak_mb", proc_mb(std::process::id(), "VmHWM"), "MB", 1);
    Ok(())
}

/// The traced run over the `replay` stream: per-layer metrics of the
/// model, abstract, core and types layers. Sites alternate between traced
/// and untraced calls; the ratio of their medians is the tracing overhead.
pub fn traced(
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let input = gen::replay(seed)?;
    report_skipped(&input, report);
    let built = build(&input, rec)?;
    report.metric(
        "model.minics.compile_s",
        rec.total_s("model.minics.compile"),
        "s",
        input.projects.len(),
    );
    report.metric(
        "serve.snapshot.build_s",
        rec.total_s("serve.snapshot.build"),
        "s",
        input.projects.len(),
    );
    report.metric(
        "abstract.constraints_build_s",
        rec.total_s("abstract.constraints_build"),
        "s",
        input.projects.len(),
    );

    let mark = Mark::now();
    let mut untraced_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut degraded = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let k = untraced_us.len() + traced_us.len();
        let site = input.site(k);
        if k % 2 == 0 {
            let a = answer(&built, site, Some(rec), k as u64);
            traced_us.push(a.elapsed.as_secs_f64() * 1e6);
            degraded += u64::from(a.outcome.is_degraded());
        } else {
            let a = answer(&built, site, None, k as u64);
            untraced_us.push(a.elapsed.as_secs_f64() * 1e6);
            degraded += u64::from(a.outcome.is_degraded());
        }
    }
    let d = mark.delta();
    let queries = (untraced_us.len() + traced_us.len()) as u64;
    report.attempted += queries;
    report.failed += degraded;
    let n = traced_us.len();
    let self_us = rec.self_time_medians_us();
    let self_of = |name: &str| self_us.get(name).map_or(f64::NAN, |v| v.0);
    report.metric("abstract.infer_us", self_of("abstract.infer"), "us", n);
    report.metric(
        "core.engine.search_us",
        self_of("core.engine.search"),
        "us",
        n,
    );
    report.metric("core.render_us", self_of("core.render"), "us", n);
    engine_counts(&d, queries as usize, report);
    report.metric("model.arena.nodes", built.arena_nodes() as f64, "count", 1);
    report.metric(
        "bench.trace_overhead",
        median(&traced_us) / median(&untraced_us),
        "ratio",
        n,
    );
    for f in [Family::Method, Family::Argument, Family::Lookup] {
        let count = input.sites.iter().filter(|s| s.family == f).count();
        report.metric(
            &format!("replay.sites.{}", f.label()),
            count as f64,
            "count",
            1,
        );
    }
    Ok(())
}
