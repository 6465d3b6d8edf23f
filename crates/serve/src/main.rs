//! `pex-serve` — the long-lived completion daemon.
//!
//! Loads a code model once, prewarms every index, and serves the
//! JSON-lines protocol from a fixed worker pool over two transports, both
//! run by the one connection loop [`serve_connection`]:
//!
//! * **stdin/stdout** (always on): one request per line on stdin, one
//!   response per line on stdout. EOF on stdin begins a graceful
//!   shutdown: admitted requests drain, then the process exits 0.
//! * **Unix-domain socket** (`--socket PATH`): each connection speaks the
//!   same line protocol; connections are independent clients sharing the
//!   worker pool and admission queue.
//!
//! A `{"cmd":"shutdown"}` request from any transport triggers the same
//! graceful drain, even while stdin stays open. `--metrics-out FILE`
//! writes the metric registry (counters, gauges, latency histograms) as
//! JSON on shutdown — the daemon equivalent of `pex-experiments
//! --metrics-out` — and, with `--metrics-interval-s N`, every N seconds
//! while serving (each write is atomic: a temp file renamed into place, so
//! scrapers never read a torn document). (Catching SIGTERM directly would
//! need a signal handler, which `std` cannot install without unsafe code;
//! the workspace forbids it, so orchestrators should close stdin or send
//! the shutdown command instead.)

use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use pex_serve::proto::RequestDefaults;
use pex_serve::registry::{self, Origin};
use pex_serve::{ServeConfig, Server, ServerClient, Snapshot, SnapshotRegistry, SnapshotSource};

struct Options {
    source: SnapshotSource,
    locals: Vec<String>,
    config: ServeConfig,
    socket: Option<PathBuf>,
    max_connections: usize,
    metrics_out: Option<PathBuf>,
    metrics_interval_s: Option<u64>,
    save_snapshot: Option<PathBuf>,
    load_snapshot: Option<PathBuf>,
    snapshot_dir: Option<PathBuf>,
    max_snapshot_bytes: Option<u64>,
    build_only: bool,
}

/// Writes the metrics document atomically: temp file in the same
/// directory, then rename, so a concurrent scraper reads either the old
/// complete document or the new one — never a torn write.
fn write_metrics(path: &std::path::Path) -> std::io::Result<()> {
    let doc = pex_serve::obs_json::metrics_document();
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    std::fs::write(&tmp, doc)?;
    std::fs::rename(&tmp, path)
}

fn main() {
    let options = parse_args();
    // `--load-snapshot` rehydrates a saved `pex-snapshot` artefact and
    // skips corpus parsing, index building and prewarming entirely; the
    // normal path builds everything from the named corpus.
    let load_result = match &options.load_snapshot {
        Some(path) => pex_serve::persist::load(path),
        None => Snapshot::load(&options.source),
    };
    let snapshot = match load_result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pex-serve: {e}");
            std::process::exit(2);
        }
    };
    // `--local` declarations become the default context for requests that
    // carry none of their own.
    let snapshot = match registry::apply_locals(snapshot, &options.locals) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pex-serve: --local: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &options.save_snapshot {
        if let Err(e) = pex_serve::persist::save(&snapshot, path) {
            eprintln!("pex-serve: --save-snapshot: {e}");
            std::process::exit(2);
        }
        eprintln!("pex-serve: wrote snapshot {}", path.display());
    }
    if options.build_only {
        eprintln!(
            "pex-serve: {} — {} types, {} methods; build-only, exiting",
            snapshot.name,
            snapshot.db.types().len(),
            snapshot.db.method_count(),
        );
        return;
    }
    eprintln!(
        "pex-serve: {} — {} types, {} methods; {} workers, queue capacity {}",
        snapshot.name,
        snapshot.db.types().len(),
        snapshot.db.method_count(),
        options.config.workers,
        options.config.queue_cap
    );
    if let Some(dir) = &options.snapshot_dir {
        eprintln!(
            "pex-serve: multi-tenant: serving *.pexsnap from {}{}",
            dir.display(),
            options
                .max_snapshot_bytes
                .map(|b| format!(" (budget {b} bytes)"))
                .unwrap_or_default()
        );
    }

    // The default tenant remembers how it was built, so `{"cmd":"reload"}`
    // can rebuild it the same way and hot-swap the Arc.
    let origin = match &options.load_snapshot {
        Some(path) => Origin::File {
            path: path.clone(),
            locals: options.locals.clone(),
        },
        None => Origin::Source {
            source: options.source.clone(),
            locals: options.locals.clone(),
        },
    };
    let registry = Arc::new(SnapshotRegistry::new(
        snapshot,
        Some(origin),
        options.snapshot_dir.clone(),
        options.max_snapshot_bytes,
    ));
    let server = Server::start(registry, options.config);
    let client = server.client();

    // Periodic metrics flush: a plain timer thread woken early at shutdown
    // by dropping the channel's sender. No flush happens unless both
    // `--metrics-out` and `--metrics-interval-s` are given.
    let metrics_flusher = options.metrics_interval_s.map(|interval_s| {
        let path = options
            .metrics_out
            .clone()
            .expect("parse_args requires --metrics-out with --metrics-interval-s");
        let (stop_tx, stop_rx) = channel::<()>();
        let handle = std::thread::spawn(move || {
            // Timeout means "interval elapsed, flush"; Ok or Disconnected
            // both mean shutdown.
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                stop_rx.recv_timeout(Duration::from_secs(interval_s.max(1)))
            {
                if let Err(e) = write_metrics(&path) {
                    eprintln!("pex-serve: cannot write {}: {e}", path.display());
                }
            }
        });
        (stop_tx, handle)
    });

    // Socket listener (optional): accepts until shutdown is requested.
    let listener_handle = options.socket.as_ref().map(|path| {
        prepare_socket_path(path);
        let listener = match std::os::unix::net::UnixListener::bind(path) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("pex-serve: cannot bind {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        eprintln!("pex-serve: listening on {}", path.display());
        spawn_socket_listener(listener, client.clone(), options.max_connections)
    });

    // Stdin is one more connection, served on the main thread until stdin
    // EOF or a shutdown requested on any transport.
    serve_connection(BufReader::new(PolledStdin::spawn()), io::stdout(), &client);

    // Graceful shutdown: stop accepting, drain admitted work, join.
    client.request_shutdown();
    if let Some(accept_thread) = listener_handle {
        // The accept loop blocks in `accept`; a throwaway connection wakes
        // it so it can observe the shutdown flag and exit promptly.
        if let Some(path) = &options.socket {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
        let _ = accept_thread.join();
    }
    server.shutdown();
    if let Some((stop_tx, handle)) = metrics_flusher {
        drop(stop_tx);
        let _ = handle.join();
    }
    if let Some(path) = &options.socket {
        let _ = std::fs::remove_file(path);
    }
    if let Some(path) = &options.metrics_out {
        if let Err(e) = write_metrics(path) {
            eprintln!("pex-serve: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("pex-serve: wrote {}", path.display());
    }
}

/// The longest request line a transport accepts, newline excluded. A
/// longer line is answered `request_too_large` once and skipped up to the
/// next newline, so no client can make the daemon buffer without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How often a connection waiting for input re-checks the shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// The one connection loop, shared by stdin and every socket client.
///
/// Reads request lines until EOF, a read error, or a shutdown requested on
/// any transport (checked after every read, and reads time out every
/// [`POLL`]), and submits each to the pool. Lines are capped at
/// [`MAX_LINE_BYTES`]: past the cap the rest of the line is discarded
/// unbuffered. A writer thread sends the answers back, flushed per line
/// for pipelining clients, so a slow query never blocks reading. Returns
/// once every request this connection admitted has been answered and
/// written.
fn serve_connection<R: BufRead, W: Write + Send + 'static>(
    mut input: R,
    output: W,
    server: &ServerClient,
) {
    let (tx, rx) = channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut out = io::BufWriter::new(output);
        for response in rx {
            if writeln!(out, "{response}")
                .and_then(|()| out.flush())
                .is_err()
            {
                break; // the client went away; the reader sees EOF next
            }
        }
    });
    let mut line = Vec::new();
    let mut oversized = false;
    while !server.shutdown_requested() {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            // A read timeout is the poll tick: re-check the shutdown flag.
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => continue,
            Err(_) => break,
        };
        // EOF ends a last line that has no newline.
        let eof = chunk.is_empty();
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        if line.len() + part.len() > MAX_LINE_BYTES {
            oversized = true;
            line = Vec::new();
        } else if !oversized {
            line.extend_from_slice(part);
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        input.consume(used);
        if newline.is_none() && !eof {
            continue;
        }
        match String::from_utf8(std::mem::take(&mut line)) {
            _ if std::mem::take(&mut oversized) => {
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                server.reject("request_too_large", &message, &tx);
            }
            Ok(text) if text.trim().is_empty() => {}
            Ok(text) => server.submit(text, &tx),
            Err(_) => server.reject("bad_request", "request line is not valid UTF-8", &tx),
        }
        if eof {
            break;
        }
    }
    // Queued jobs hold clones of `tx`, so the writer ends only after the
    // last of this connection's answers is written.
    drop(tx);
    let _ = writer.join();
}

/// Stdin as a connection the loop can poll. A pump thread does the
/// blocking reads and hands chunks over a channel; a wait longer than
/// [`POLL`] reports `TimedOut`, as a socket read with a timeout does. So
/// the main thread notices a shutdown requested on the socket even while
/// stdin stays open, and the pump — parked in a read only EOF can end —
/// holds no reply sender that would keep the stdout writer waiting.
struct PolledStdin {
    chunks: Receiver<Vec<u8>>,
    chunk: io::Cursor<Vec<u8>>,
}

impl PolledStdin {
    fn spawn() -> PolledStdin {
        let (tx, chunks) = sync_channel::<Vec<u8>>(1);
        std::thread::spawn(move || {
            let mut buf = vec![0; 8192];
            // A read error ends stdin like EOF does.
            while let Ok(n @ 1..) = io::stdin().read(&mut buf) {
                if tx.send(buf[..n].to_vec()).is_err() {
                    break;
                }
            }
        });
        PolledStdin {
            chunks,
            chunk: io::Cursor::new(Vec::new()),
        }
    }
}

impl Read for PolledStdin {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.chunk.position() == self.chunk.get_ref().len() as u64 {
            self.chunk = match self.chunks.recv_timeout(POLL) {
                Ok(chunk) => io::Cursor::new(chunk),
                Err(RecvTimeoutError::Timeout) => return Err(TimedOut.into()),
                Err(RecvTimeoutError::Disconnected) => return Ok(0), // EOF
            };
        }
        self.chunk.read(out)
    }
}

/// Readies `--socket PATH` for binding without clobbering anything live:
///
/// * nothing at the path — proceed;
/// * a socket a daemon answers on — exit 2 (`address in use`), never
///   steal a live daemon's clients;
/// * a socket nothing accepts on (connect refused) — a previous daemon
///   died without cleanup; unlink the stale socket and proceed;
/// * anything that is not a socket — exit 2; this tool does not delete
///   files it did not create.
fn prepare_socket_path(path: &std::path::Path) {
    use std::os::unix::fs::FileTypeExt;
    let meta = match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
        Err(e) => {
            eprintln!("pex-serve: cannot stat {}: {e}", path.display());
            std::process::exit(2);
        }
        Ok(meta) => meta,
    };
    if !meta.file_type().is_socket() {
        eprintln!(
            "pex-serve: refusing to replace {}: it exists and is not a socket",
            path.display()
        );
        std::process::exit(2);
    }
    match std::os::unix::net::UnixStream::connect(path) {
        Ok(_) => {
            eprintln!(
                "pex-serve: {}: address in use (another daemon is listening)",
                path.display()
            );
            std::process::exit(2);
        }
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
            if let Err(e) = std::fs::remove_file(path) {
                eprintln!(
                    "pex-serve: cannot remove stale socket {}: {e}",
                    path.display()
                );
                std::process::exit(2);
            }
            eprintln!("pex-serve: removed stale socket {}", path.display());
        }
        Err(e) => {
            eprintln!("pex-serve: cannot probe {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Accepts socket connections until shutdown; each connection runs
/// [`serve_connection`] on its own thread, with a read timeout so it
/// notices shutdown.
///
/// The accept call blocks — no polling, no connect latency — and shutdown
/// wakes it with a throwaway connection (see `main`). Finished connection
/// handles are reaped every iteration, so a long-lived daemon under
/// connection churn holds one handle per *live* connection, and the
/// `max_connections` cap sheds new connections with an explicit
/// `connection_limit` error line instead of spawning without bound.
fn spawn_socket_listener(
    listener: std::os::unix::net::UnixListener,
    server: ServerClient,
    max_connections: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if server.shutdown_requested() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if server.shutdown_requested() {
                        break; // the wakeup connection, not a client
                    }
                    connections.retain(|c| !c.is_finished());
                    if connections.len() >= max_connections {
                        pex_obs::counter!("serve.connections.rejected", 1);
                        let mut stream = stream;
                        let _ = writeln!(
                            stream,
                            "{}",
                            pex_serve::proto::error_response(
                                None,
                                "connection_limit",
                                &format!(
                                    "server at --max-connections ({max_connections}); retry later"
                                ),
                            )
                        );
                        continue;
                    }
                    pex_obs::counter!("serve.connections", 1);
                    let server = server.clone();
                    connections.push(std::thread::spawn(move || {
                        let _ = stream.set_read_timeout(Some(POLL));
                        if let Ok(write_half) = stream.try_clone() {
                            serve_connection(BufReader::new(stream), write_half, &server);
                        }
                    }));
                }
                Err(_) => break,
            }
        }
        for c in connections {
            let _ = c.join();
        }
    })
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("pex-serve: {msg}\n\n{HELP}");
    std::process::exit(2);
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => usage_exit(&format!("missing value for {flag}")),
    }
}

fn take_number(args: &[String], i: &mut usize, flag: &str) -> usize {
    let v = take_value(args, i, flag);
    v.parse()
        .unwrap_or_else(|_| usage_exit(&format!("{flag} takes an integer, got `{v}`")))
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = Options {
        source: SnapshotSource::Paint,
        locals: Vec::new(),
        config: ServeConfig::default(),
        socket: None,
        max_connections: 256,
        metrics_out: None,
        metrics_interval_s: None,
        save_snapshot: None,
        load_snapshot: None,
        snapshot_dir: None,
        max_snapshot_bytes: None,
        build_only: false,
    };
    let mut defaults = RequestDefaults::default();
    let mut source_arg: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let flag = flag.as_str();
        match flag {
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            "--local" => options.locals.push(take_value(&args, &mut i, flag)),
            "--workers" => options.config.workers = take_number(&args, &mut i, flag).max(1),
            "--queue-cap" => options.config.queue_cap = take_number(&args, &mut i, flag).max(1),
            "--limit" => defaults.limit = take_number(&args, &mut i, flag),
            "--deadline-ms" => defaults.deadline_ms = Some(take_number(&args, &mut i, flag) as u64),
            "--max-steps" => defaults.max_steps = take_number(&args, &mut i, flag),
            "--socket" => options.socket = Some(take_value(&args, &mut i, flag).into()),
            "--max-connections" => {
                options.max_connections = take_number(&args, &mut i, flag).max(1)
            }
            "--metrics-out" => options.metrics_out = Some(take_value(&args, &mut i, flag).into()),
            "--metrics-interval-s" => {
                options.metrics_interval_s = Some(take_number(&args, &mut i, flag).max(1) as u64)
            }
            "--save-snapshot" => {
                options.save_snapshot = Some(take_value(&args, &mut i, flag).into())
            }
            "--load-snapshot" => {
                options.load_snapshot = Some(take_value(&args, &mut i, flag).into())
            }
            "--snapshot-dir" => options.snapshot_dir = Some(take_value(&args, &mut i, flag).into()),
            "--max-snapshot-bytes" => {
                options.max_snapshot_bytes = Some(take_number(&args, &mut i, flag) as u64)
            }
            "--build-only" => options.build_only = true,
            "--slo-p99-us" => {
                options.config.slo_p99_us = Some(take_number(&args, &mut i, flag) as u64)
            }
            other if other.starts_with('-') => usage_exit(&format!("unknown flag {other}")),
            other => {
                if source_arg.is_some() {
                    usage_exit(&format!("unexpected extra argument `{other}`"));
                }
                source_arg = Some(other.to_owned());
            }
        }
        i += 1;
    }
    if let Some(arg) = source_arg {
        if options.load_snapshot.is_some() {
            usage_exit(&format!(
                "`{arg}` conflicts with --load-snapshot (the snapshot already \
                 carries its corpus)"
            ));
        }
        options.source = SnapshotSource::from_arg(&arg);
    }
    if options.metrics_interval_s.is_some() && options.metrics_out.is_none() {
        usage_exit("--metrics-interval-s requires --metrics-out");
    }
    options.config.defaults = defaults;
    options
}

const HELP: &str = "\
pex-serve — long-lived type-directed completion service

USAGE: pex-serve [paint|geometry|familyshow|FILE.mcs] [flags]

TRANSPORTS:
    stdin/stdout       always on: one JSON request per line in, one JSON
                       response per line out; EOF drains and exits 0
    --socket PATH      also listen on a Unix-domain socket (same protocol,
                       one connection per client); a live socket at PATH is
                       refused (exit 2), a stale one is replaced
    --max-connections N
                       concurrent socket connections before new ones are
                       shed with a `connection_limit` error (default 256)

FLAGS:
    --local name:Type  add a local to the default query context (repeatable)
    --workers N        worker threads (default: available parallelism)
    --queue-cap N      admission queue capacity; a full queue sheds with an
                       explicit `shed` error response (default: workers*16)
    --limit N          default completions per request (default 10)
    --deadline-ms N    default per-request wall-clock deadline (default none)
    --max-steps N      default per-request step budget (default 1000000)
    --metrics-out FILE write the metric registry as JSON on shutdown
    --metrics-interval-s N
                       also rewrite --metrics-out atomically every N seconds
    --slo-p99-us N     health reports `burning` when the rolling-window p99
                       latency exceeds N microseconds

SNAPSHOTS:
    --save-snapshot FILE
                       after boot, write the prewarmed snapshot in the
                       `pex-snapshot` binary format (atomic rename)
    --load-snapshot FILE
                       boot from a saved snapshot, skipping corpus parsing,
                       index building and prewarming; conflicts with a
                       corpus argument
    --build-only       exit 0 after boot (and --save-snapshot, if given)
                       instead of serving — the offline snapshot builder

MULTI-TENANT:
    --snapshot-dir DIR serve additional tenants: a request with
                       \"project\":\"name\" lazily loads DIR/name.pexsnap;
                       requests without `project` use the default tenant
    --max-snapshot-bytes N
                       byte budget for resident tenant snapshots; least-
                       recently-used tenants are evicted past it (the
                       default tenant is exempt and never evicted)

PROTOCOL:
    {\"id\":1,\"query\":\"?({img, size})\",\"limit\":5,\"deadline_ms\":40}
    {\"id\":2,\"query\":\"p.?f\",\"locals\":[\"p:Geo.Point\"]}
    {\"id\":3,\"query\":\"?\",\"trace\":true,\"explain\":true}
    {\"id\":4,\"query\":\"?\",\"project\":\"geo-v2\"}
    {\"cmd\":\"ping\"}   {\"cmd\":\"stats\"}   {\"cmd\":\"health\"}   {\"cmd\":\"shutdown\"}
    {\"cmd\":\"reload\",\"project\":\"geo-v2\"}   (hot-swap a tenant snapshot)

INTROSPECTION:
    query responses echo a `trace_id`; `trace`/`explain` attach the span
    tree + per-query search stats and per-term score breakdowns. `stats`
    returns the live registry plus last-1s/10s/60s latency windows;
    `health` returns queue depth, windowed shed rate, and the SLO flag.
";
