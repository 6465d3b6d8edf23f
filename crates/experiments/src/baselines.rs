//! Quantitative baseline comparison the paper only sketches (Section 2.3):
//! our engine vs. a Prospector-style jungloid search, on the argument
//! prediction task restricted to Prospector's universe — arguments that are
//! chains rooted at a **local variable**.

use pex_core::PartialExpr;
use pex_model::Expr;

use crate::extract::CallSite;
use crate::harness::{completer, for_each_site, sample, ExperimentConfig, Project};
use crate::insynth::InSynth;
use crate::prospector::Prospector;
use crate::stats::{pct, RankStats, TextTable};

/// Outcome for one local-rooted argument.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Rank from our engine (argument-hole query).
    pub engine: Option<usize>,
    /// Rank from the Prospector-style baseline.
    pub prospector: Option<usize>,
    /// Rank from the InSynth-style baseline.
    pub insynth: Option<usize>,
    /// Chain length of the original argument (0 = bare local).
    pub chain_len: usize,
}

/// Whether an expression is a lookup/zero-arg-call chain rooted at a local;
/// returns the chain length if so.
fn local_chain_len(db: &pex_model::Database, e: &Expr) -> Option<usize> {
    match e {
        Expr::Local(_) => Some(0),
        Expr::FieldAccess(base, f) if !db.field(*f).is_static() => {
            local_chain_len(db, base).map(|n| n + 1)
        }
        Expr::Call(m, args) if db.method(*m).params().is_empty() && args.len() == 1 => {
            local_chain_len(db, &args[0]).map(|n| n + 1)
        }
        _ => None,
    }
}

/// Runs the comparison over all projects.
pub fn run(projects: &[Project], cfg: &ExperimentConfig) -> Vec<BaselineOutcome> {
    let mut out = Vec::new();
    for project in projects {
        let sites = sample(&project.extracted.calls, cfg.max_sites);
        for_each_site(
            &project.db,
            cfg.use_abs.then_some(&project.abs_cache),
            &sites,
            |c: &CallSite| (c.enclosing, c.stmt),
            |site, ctx, abs| {
                let db = &project.db;
                let param_tys: Vec<_> = db.method(site.target).full_param_types().collect();
                for (i, arg) in site.args.iter().enumerate() {
                    let Some(chain_len) = local_chain_len(db, arg) else {
                        continue;
                    };
                    // Our engine: argument-hole query, rank of the original.
                    let comp = completer(project, ctx, abs, cfg, None);
                    let args: Vec<PartialExpr> = site
                        .args
                        .iter()
                        .enumerate()
                        .map(|(j, a)| {
                            if j == i {
                                PartialExpr::Hole
                            } else {
                                PartialExpr::Known(a.clone())
                            }
                        })
                        .collect();
                    let query = PartialExpr::KnownCall {
                        candidates: vec![site.target],
                        args,
                    };
                    let original = Expr::Call(site.target, site.args.clone());
                    let engine = comp.rank_of(&query, cfg.limit, |c| c.expr == original).rank;
                    // Prospector: convert a local into the parameter type.
                    let prospector = Prospector::new(db).rank_of(ctx, param_tys[i], arg, cfg.limit);
                    // InSynth: synthesise a term of the parameter type from
                    // scratch.
                    let insynth = InSynth::new(db).rank_of(ctx, param_tys[i], arg, cfg.limit);
                    out.push(BaselineOutcome {
                        engine,
                        prospector,
                        insynth,
                        chain_len,
                    });
                }
            },
        );
    }
    out
}

/// Renders the comparison table.
pub fn render(outcomes: &[BaselineOutcome]) -> String {
    let engine: RankStats = outcomes.iter().map(|o| o.engine).collect();
    let prospector: RankStats = outcomes.iter().map(|o| o.prospector).collect();
    let insynth: RankStats = outcomes.iter().map(|o| o.insynth).collect();
    let thresholds = [1usize, 3, 5, 10, 20];
    let mut table = TextTable::new(vec![
        "rank <=",
        "pex engine",
        "prospector-style",
        "insynth-style",
    ]);
    for &k in &thresholds {
        table.row(vec![
            k.to_string(),
            pct(engine.top(k)),
            pct(prospector.top(k)),
            pct(insynth.top(k)),
        ]);
    }
    // Split by chain length: Prospector's length heuristic is strong on
    // bare locals, weaker once the context signal matters.
    let mut detail = TextTable::new(vec![
        "argument form",
        "n",
        "pex top-10",
        "prospector top-10",
        "insynth top-10",
    ]);
    for (label, pred) in [
        (
            "bare local",
            Box::new(|n: usize| n == 0) as Box<dyn Fn(usize) -> bool>,
        ),
        ("1-link chain", Box::new(|n: usize| n == 1)),
        ("2+ link chain", Box::new(|n: usize| n >= 2)),
    ] {
        let subset: Vec<&BaselineOutcome> = outcomes.iter().filter(|o| pred(o.chain_len)).collect();
        let e: RankStats = subset.iter().map(|o| o.engine).collect();
        let p: RankStats = subset.iter().map(|o| o.prospector).collect();
        let s: RankStats = subset.iter().map(|o| o.insynth).collect();
        detail.row(vec![
            label.to_string(),
            subset.len().to_string(),
            pct(e.top(10)),
            pct(p.top(10)),
            pct(s.top(10)),
        ]);
    }
    format!(
        "Baseline comparison (paper Section 2.3, quantified): argument prediction on\n\
         local-rooted arguments (n = {}; Prospector's universe — no globals, no this)\n\n{}\n{}\n\
         Reading: on its own universe Prospector is competitive — its candidate list\n\
         contains ONLY local-rooted chains, so the intended one faces less competition,\n\
         while the pex list also offers this-chains and globals (which are the answer\n\
         for the arguments this table excludes). InSynth synthesises from scratch with\n\
         no programmer guidance, so its list mixes in nested calls the user never\n\
         wrote. Neither baseline can answer the paper's other query kinds\n\
         (?({{...}}) method discovery, joint operator completion) at all.\n",
        outcomes.len(),
        table.render(),
        detail.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::load_projects;

    #[test]
    fn baseline_comparison_runs() {
        let projects = load_projects(0.002);
        let cfg = ExperimentConfig {
            limit: 50,
            max_sites: Some(6),
            ..Default::default()
        };
        let outcomes = run(&projects, &cfg);
        assert!(
            !outcomes.is_empty(),
            "local-rooted arguments exist in the corpus"
        );
        // Prospector can only ever produce chains it searches; every
        // prospector hit must also be a local chain by construction.
        let rendered = render(&outcomes);
        assert!(rendered.contains("prospector-style"));
        assert!(rendered.contains("insynth-style"));
        assert!(rendered.contains("bare local"));
    }
}
