//! `pex-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! pex-experiments <command> [--scale S] [--limit N] [--max-sites N]
//!                           [--t2-max-sites N] [--no-abs] [--threads N]
//!                           [--deadline-ms N] [--time-limit-s N]
//!                           [--out DIR] [--metrics-out FILE] [--trace FILE]
//!
//! commands:
//!   all       everything below, in order
//!   examples  Figures 2-4 (worked examples on the builtin corpora)
//!   table1    Table 1 (method-name prediction per project)
//!   fig9      rank CDF, overall / instance / static
//!   fig10     arguments needed, by call arity
//!   fig11     rank difference vs the Intellisense model
//!   fig12     same, knowing the return type
//!   fig13     argument-prediction rank CDF
//!   fig14     argument expression-form distribution
//!   fig15     assignment lookup removal
//!   fig16     comparison lookup removal
//!   table2    ranking-term sensitivity (15 configurations)
//!   speed     query latency vs the paper's interactive thresholds
//! ```

use std::path::{Path, PathBuf};

use pex_experiments::{
    args as args_exp, baselines, figures, lookups, methods, obs_report, scaling, sensitivity,
    speed, ExperimentConfig,
};
use pex_obs::{JsonLinesSink, StderrPrettySink, TeeSink};

/// Unwraps a filesystem result for a user-requested artefact; a failure
/// (bad path, permissions, full disk) is environment error, not a bug, so
/// it reports and exits instead of panicking.
fn io_or_exit<T>(what: &str, path: &Path, res: std::io::Result<T>) -> T {
    res.unwrap_or_else(|e| {
        pex_obs::message!("cannot {what} {}: {e}", path.display());
        pex_obs::flush_sink();
        std::process::exit(2);
    })
}

/// End-of-run observability surface: the human-readable summary (for
/// `all`/`speed`), the `--metrics-out` document, and the sink flush (the
/// trace writer is buffered and the global sink never drops).
fn finish(command: &str, cfg: &ExperimentConfig, metrics_out: Option<&Path>) {
    let snap = pex_obs::registry().snapshot();
    if command == "all" || command == "speed" {
        pex_obs::message!("{}", obs_report::render_summary(&snap).trim_end());
    }
    if let Some(path) = metrics_out {
        io_or_exit(
            "write --metrics-out file",
            path,
            std::fs::write(path, obs_report::metrics_json(&snap, command, cfg)),
        );
        pex_obs::message!("wrote {}", path.display());
    }
    pex_obs::flush_sink();
}

fn main() {
    // Structured diagnostics: stderr pretty-printer by default; `--trace`
    // tees span events to a JSON-lines file on top of it.
    pex_obs::set_sink(Box::new(StderrPrettySink));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        print!("{}", HELP);
        return;
    }
    let command = argv[0].clone();
    // A bad flag value is user error, not a bug: report it and exit 2
    // instead of panicking.
    fn parse_or_exit<T: std::str::FromStr>(flag: &str, value: &str, wants: &str) -> T {
        value.parse().unwrap_or_else(|_| {
            pex_obs::message!("{flag} takes {wants}, got `{value}`");
            pex_obs::flush_sink();
            std::process::exit(2);
        })
    }
    let mut cfg = ExperimentConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut t2_max_sites: Option<usize> = Some(12);
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut time_limit_s: Option<u64> = None;
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut take_value = || -> String {
            i += 1;
            argv.get(i).cloned().unwrap_or_else(|| {
                pex_obs::message!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag {
            "--scale" => cfg.scale = parse_or_exit(flag, &take_value(), "a float"),
            "--limit" => cfg.limit = parse_or_exit(flag, &take_value(), "an integer"),
            "--max-sites" => cfg.max_sites = Some(parse_or_exit(flag, &take_value(), "an integer")),
            "--t2-max-sites" => {
                t2_max_sites = Some(parse_or_exit(flag, &take_value(), "an integer"))
            }
            "--no-abs" => cfg.use_abs = false,
            "--three-args" => cfg.max_subset = 3,
            "--threads" => cfg.threads = Some(parse_or_exit(flag, &take_value(), "an integer")),
            "--deadline-ms" => {
                cfg.deadline_ms = Some(parse_or_exit(flag, &take_value(), "milliseconds"))
            }
            "--time-limit-s" => time_limit_s = Some(parse_or_exit(flag, &take_value(), "seconds")),
            "--out" => out_dir = Some(PathBuf::from(take_value())),
            "--metrics-out" => metrics_out = Some(PathBuf::from(take_value())),
            "--trace" => trace_out = Some(PathBuf::from(take_value())),
            other => {
                pex_obs::message!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(path) = &trace_out {
        let trace = JsonLinesSink::create(path).unwrap_or_else(|e| {
            pex_obs::message!("cannot create --trace file {}: {e}", path.display());
            pex_obs::flush_sink();
            std::process::exit(2);
        });
        pex_obs::set_sink(Box::new(TeeSink(
            Box::new(StderrPrettySink),
            Box::new(trace),
        )));
    }
    // Harness-level watchdog: after the limit, cancel the shared token so
    // in-flight queries stop at their next budget poll and the replay
    // workers drain without taking new sites. The run then finishes
    // normally, reporting whatever completed (truncated sites are counted
    // as such in every table).
    if let Some(secs) = time_limit_s {
        let token = cfg.cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            pex_obs::message!("time limit of {secs}s reached; cancelling in-flight queries");
            token.cancel();
        });
    }

    let sections: std::cell::RefCell<Vec<(String, String)>> = std::cell::RefCell::new(Vec::new());
    let emit = |name: &str, content: String| {
        println!("{content}");
        if let Some(dir) = &out_dir {
            io_or_exit("create --out directory", dir, std::fs::create_dir_all(dir));
            let path = dir.join(format!("{name}.txt"));
            io_or_exit(
                "write output file",
                &path,
                std::fs::write(&path, content.as_bytes()),
            );
            pex_obs::message!("wrote {}", path.display());
        }
        sections.borrow_mut().push((name.to_owned(), content));
    };

    let wants = |what: &str| command == what || command == "all";

    if command == "dump" {
        // Write each generated project back out as mini-C# source.
        let projects = pex_experiments::load_projects(cfg.scale);
        let dir = out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("corpus-dump"));
        io_or_exit("create dump directory", &dir, std::fs::create_dir_all(&dir));
        for p in &projects {
            let source = pex_experiments::harness::dump_project(p);
            let path = dir.join(format!("{}.mcs", p.name.replace([' ', '.'], "_")));
            io_or_exit("write project source", &path, std::fs::write(&path, source));
            pex_obs::message!("wrote {}", path.display());
        }
        finish(&command, &cfg, metrics_out.as_deref());
        return;
    }

    if wants("examples") {
        emit("fig2", figures::render_fig2());
        emit("fig3", figures::render_fig3());
        emit("fig4", figures::render_fig4());
        if command == "examples" {
            finish(&command, &cfg, metrics_out.as_deref());
            return;
        }
    }

    let needs_corpus = [
        "table1",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "table2",
        "speed",
        "baselines",
        "scaling",
        "all",
        "dump",
    ]
    .contains(&command.as_str());
    if !needs_corpus {
        pex_obs::message!("unknown command `{command}`\n");
        print!("{HELP}");
        pex_obs::flush_sink();
        std::process::exit(2);
    }

    pex_obs::message!(
        "generating the 7 Table 1 projects at scale {} (use --scale to change)...",
        cfg.scale
    );
    let projects = pex_experiments::load_projects(cfg.scale);
    for p in &projects {
        pex_obs::message!(
            "  {:<12} {:>5} methods, {:>5} calls, {:>4} assignments, {:>4} comparisons",
            p.name,
            p.db.method_count(),
            p.extracted.calls.len(),
            p.extracted.assigns.len(),
            p.extracted.cmps.len(),
        );
    }

    let methods_needed = ["table1", "fig9", "fig10", "fig11", "fig12", "speed"]
        .iter()
        .any(|c| wants(c));
    let method_outcomes = if methods_needed {
        pex_obs::message!("running experiment 5.1 (method names)...");
        methods::run(&projects, &cfg)
    } else {
        Vec::new()
    };
    if wants("table1") {
        emit(
            "table1",
            methods::render_table1(&projects, &method_outcomes),
        );
    }
    if wants("fig9") {
        emit("fig9", methods::render_fig9(&method_outcomes));
    }
    if wants("fig10") {
        emit("fig10", methods::render_fig10(&method_outcomes));
    }
    if wants("fig11") {
        emit("fig11", methods::render_fig11(&method_outcomes));
    }
    if wants("fig12") {
        emit("fig12", methods::render_fig12(&method_outcomes));
    }

    let args_needed = ["fig13", "fig14", "speed"].iter().any(|c| wants(c));
    let arg_outcomes = if args_needed {
        pex_obs::message!("running experiment 5.2 (method arguments)...");
        args_exp::run(&projects, &cfg)
    } else {
        Vec::new()
    };
    if wants("fig13") {
        emit("fig13", args_exp::render_fig13(&arg_outcomes));
    }
    if wants("fig14") {
        emit("fig14", args_exp::render_fig14(&arg_outcomes));
    }

    let lookups_needed = ["fig15", "fig16", "speed"].iter().any(|c| wants(c));
    let (assign_outcomes, cmp_outcomes) = if lookups_needed {
        pex_obs::message!("running experiment 5.3 (field lookups)...");
        lookups::run(&projects, &cfg)
    } else {
        (Vec::new(), Vec::new())
    };
    if wants("fig15") {
        emit("fig15", lookups::render_fig15(&assign_outcomes));
    }
    if wants("fig16") {
        emit("fig16", lookups::render_fig16(&cmp_outcomes));
    }

    if wants("speed") {
        let rows = vec![
            speed::SpeedRow::new(
                "methods (best query)",
                method_outcomes.iter().map(|o| o.nanos),
            ),
            speed::SpeedRow::new("arguments", arg_outcomes.iter().map(|o| o.nanos)),
            speed::SpeedRow::new(
                "lookups",
                assign_outcomes
                    .iter()
                    .map(|o| o.nanos)
                    .chain(cmp_outcomes.iter().map(|o| o.nanos)),
            ),
        ];
        emit("speed", speed::render_speed(&rows));
    }

    if wants("baselines") {
        pex_obs::message!("running the Prospector-style baseline comparison...");
        let bl_cfg = ExperimentConfig {
            max_sites: cfg.max_sites.or(Some(60)),
            ..cfg.clone()
        };
        let outcomes = baselines::run(&projects, &bl_cfg);
        emit("baselines", baselines::render(&outcomes));
    }

    if command == "scaling" {
        pex_obs::message!("running the scaling study (Paint.NET profile)...");
        let points = scaling::run(&[0.01, 0.05, 0.15, 0.4], &cfg);
        emit("scaling", scaling::render(&points));
    }

    if wants("table2") {
        pex_obs::message!(
            "running experiment 5.4 (sensitivity, 15 configurations, {} sites/project)...",
            t2_max_sites
                .map(|n| n.to_string())
                .unwrap_or_else(|| "all".into())
        );
        let t2_cfg = ExperimentConfig {
            max_sites: t2_max_sites,
            ..cfg.clone()
        };
        let rows = sensitivity::run(&projects, &t2_cfg);
        emit("table2", sensitivity::render_table2(&rows));
    }

    // A combined report for `all --out DIR`.
    if command == "all" {
        if let Some(dir) = &out_dir {
            let mut report = String::from(
                "# pex evaluation report\n\nRegenerated tables and figures of\n\
                 'Type-Directed Completion of Partial Expressions' (PLDI 2012).\n",
            );
            report.push_str(&format!(
                "\nConfiguration: scale {}, limit {}, abstract types {}.\n",
                cfg.scale,
                cfg.limit,
                if cfg.use_abs { "on" } else { "off" }
            ));
            for (name, content) in sections.borrow().iter() {
                report.push_str(&format!("\n---\n\n## {name}\n\n```text\n{content}\n```\n"));
            }
            let path = dir.join("REPORT.md");
            io_or_exit(
                "write combined report",
                &path,
                std::fs::write(&path, report),
            );
            pex_obs::message!("wrote {}", path.display());
        }
    }

    finish(&command, &cfg, metrics_out.as_deref());
}

const HELP: &str = "\
pex-experiments -- regenerate the tables and figures of
'Type-Directed Completion of Partial Expressions' (PLDI 2012)

USAGE:
    pex-experiments <command> [flags]

COMMANDS:
    all | examples | table1 | fig9 | fig10 | fig11 | fig12 |
    fig13 | fig14 | fig15 | fig16 | table2 | speed | baselines
    scaling            query latency vs corpus scale (not part of `all`)
    dump               write the generated projects as mini-C# source

FLAGS:
    --scale S          corpus scale relative to the paper (default 0.02)
    --limit N          rank search limit (default 100)
    --max-sites N      cap sites per project per experiment
    --t2-max-sites N   cap sites per project for Table 2 (default 12)
    --no-abs           disable abstract-type inference
    --three-args       also measure 3-argument subsets (fig10 extra column)
    --threads N        replay worker threads (1 = sequential; default: all
                       cores, or RAYON_NUM_THREADS when set)
    --deadline-ms N    per-query wall-clock deadline; overrunning queries
                       stop with a Deadline outcome and their sites count
                       as truncated (a separate column), not as not-found
    --time-limit-s N   whole-run time limit: after N seconds the shared
                       cancel token trips, in-flight queries stop at the
                       next budget poll, and the run reports what finished
    --out DIR          also write each artefact to DIR/<name>.txt
    --metrics-out FILE write the observability registry as JSON: per-phase
                       latency histograms (p50/p90/p99/max), cache hit
                       rates, ranking-term evaluation counts
    --trace FILE       write tracing span events as JSON lines (one object
                       per completed span; stderr output is unchanged)

`all` and `speed` print a human-readable observability summary (latency
percentiles per phase, cache hit rates) to stderr when done.
";
