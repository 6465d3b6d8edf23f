//! `pex-perfbench`: the pex benchmark.
//!
//! ```console
//! pex-perfbench --workload replay|socket|edit --seed N --seconds S --trace 0|1 \
//!     --serve-bin PATH --work-dir DIR
//! ```
//!
//! Each run generates its inputs from the seed, runs the program, checks
//! its answers, prints every metric with its unit and sample count, and
//! ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that attributes time and work to layers. The exit
//! code is 0 only when every correctness check passed.

mod counters;
mod daemon;
mod gen;
mod replay;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;

use stats::Report;

/// End-to-end metrics every untraced run puts in its JSON result, with
/// their units: the ones every workload measures and that stay steady from
/// run to run on a shared two-CPU host. The text report has the rest.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("rss_setup_mb", "MB")];

/// Per-layer metrics every traced run reports, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.transport.ping_rtt_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.queue.wait_us", "us"),
    ("serve.queue.shed", "count"),
    ("serve.json.parse_us", "us"),
    ("serve.json.bytes_in", "bytes"),
    ("serve.json.bytes_out", "bytes"),
    ("serve.proto.parse_request_us", "us"),
    ("serve.proto.execute_us", "us"),
    ("serve.proto.render_us", "us"),
    ("serve.registry.get_us", "us"),
    ("serve.registry.update_us", "us"),
    ("serve.snapshot.build_s", "s"),
    ("serve.snapshot.context_us", "us"),
    ("serve.snapshot.apply_update_us", "us"),
    ("serve.snapshot.prewarm_skipped_frac", "ratio"),
    ("serve.persist.load_s", "s"),
    ("serve.persist.bytes", "bytes"),
    ("model.minics.compile_s", "s"),
    ("model.minics.apply_update_us", "us"),
    ("model.arena.hit_rate", "ratio"),
    ("model.arena.nodes", "count"),
    ("abstract.constraints_build_s", "s"),
    ("abstract.infer_us", "us"),
    ("core.partial.parse_us", "us"),
    ("core.engine.search_us", "us"),
    ("core.engine.steps_per_query", "count"),
    ("core.engine.emit_ratio", "ratio"),
    ("core.engine.degraded", "count"),
    ("core.bestfirst.expanded_per_query", "count"),
    ("core.bestfirst.pruned_bound_per_query", "count"),
    ("core.bestfirst.pruned_dominated_per_query", "count"),
    ("core.bestfirst.frontier_max", "count"),
    ("core.chain_memo.hit_rate", "ratio"),
    ("core.reach_memo.hit_rate", "ratio"),
    ("core.candidates.hit_rate", "ratio"),
    ("core.refresh_derived_us", "us"),
    ("core.invalidate.chains", "count"),
    ("core.invalidate.candidates", "count"),
    ("core.invalidate.conversions", "count"),
    ("core.invalidate.reach", "count"),
    ("core.rank.term_evals_per_query", "count"),
    ("core.rank.score_evals_per_query", "count"),
    ("types.convindex.lookups_per_query", "count"),
    ("types.convindex.negative_share", "ratio"),
    ("bench.generator_late_us", "us"),
    ("bench.trace_overhead", "ratio"),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation, in process, closed loop.
    Replay,
    /// The release daemon over its Unix socket, open loop.
    Socket,
    /// The daemon under a mix of queries and live `update`s, open loop.
    Edit,
}

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The release `pex-serve` binary.
    pub serve_bin: PathBuf,
    /// Scratch directory for sockets, snapshots and traces.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("missing value for {flag}"))
    };
    let workload = match get("--workload")?.as_str() {
        "replay" => Workload::Replay,
        "socket" => Workload::Socket,
        "edit" => Workload::Edit,
        other => return Err(format!("unknown workload `{other}` (replay, socket, edit)")),
    };
    let number = |flag: &str, v: String| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag} takes a whole number, got `{v}`"))
    };
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)? as f64;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin: PathBuf::from(get("--serve-bin")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pex-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The work directory becomes the current one, so daemon sockets can
    // be named relative to it (see `Daemon::start`); paths are made
    // absolute first.
    let paths = std::fs::create_dir_all(&args.work_dir).and_then(|_| {
        let work_dir = std::path::absolute(&args.work_dir)?;
        let serve_bin = std::path::absolute(&args.serve_bin)?;
        std::env::set_current_dir(&work_dir)?;
        Ok((work_dir, serve_bin))
    });
    let args = match paths {
        Ok((work_dir, serve_bin)) => Args {
            work_dir,
            serve_bin,
            ..args
        },
        Err(e) => {
            eprintln!("pex-perfbench: cannot use {}: {e}", args.work_dir.display());
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let outcome = if args.trace {
        serving::traced(&args, &mut report)
    } else {
        match args.workload {
            Workload::Replay => replay::run(args.seed, args.seconds, &mut report),
            Workload::Socket => serving::socket(&args, &mut report),
            Workload::Edit => serving::edit(&args, &mut report),
        }
    };
    if let Err(e) = outcome {
        report.check(false, || e);
    }
    let selected = if args.trace { PER_LAYER } else { END_TO_END };
    if !report.print(selected) {
        std::process::exit(1);
    }
}
