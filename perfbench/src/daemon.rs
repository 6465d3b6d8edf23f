//! The release daemon's lifecycle and the socket client.
//!
//! Every daemon gets a fresh socket path in the benchmark's work
//! directory, an idle stdin pipe that is closed at the end, and one
//! worker. Dropping a [`Daemon`] kills and reaps a process that is still
//! running, so a failed run leaves no stray daemon behind.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Admission queue capacity: deep enough that the rate ladder's overload
/// rungs queue rather than shed.
const QUEUE_CAP: &str = "65536";
/// How long a daemon may take to answer its first ping.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a daemon may take to exit after shutdown.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest wait for any single response line.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// The open-loop sender sleeps until this long before a request is due,
/// then spins, so requests leave on time despite timer slack.
const SPIN_MARGIN: Duration = Duration::from_micros(80);

/// A memory field of `/proc/<pid>/status` (`VmHWM`: peak resident set;
/// `VmRSS`: current resident set), in MB; NaN when unreadable.
pub fn proc_mb(pid: u32, field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The run time recorded in a `schedstat` file (nanosecond resolution),
/// in seconds; NaN when unreadable.
pub fn schedstat_s(path: &Path) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(f64::NAN, |ns| ns as f64 / 1e9)
}

/// Runs the daemon to completion with an idle stdin that is closed at
/// once (used for `--build-only`).
pub fn run_to_exit(bin: &Path, args: &[&str], log: &Path) -> Result<(), String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(log_file(log)?)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    drop(child.stdin.take());
    let status = wait_timeout(&mut child, READY_TIMEOUT)?;
    if !status.success() {
        return Err(format!("pex-serve {args:?} exited with {status}"));
    }
    Ok(())
}

fn log_file(path: &Path) -> Result<Stdio, String> {
    std::fs::File::create(path)
        .map(Stdio::from)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))
}

fn wait_timeout(child: &mut Child, limit: Duration) -> Result<std::process::ExitStatus, String> {
    let until = Instant::now() + limit;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not exit within {limit:?}; killed"));
            }
            Err(e) => return Err(format!("cannot wait for daemon: {e}")),
        }
    }
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Where the daemon writes its metrics document on shutdown.
    pub metrics_out: PathBuf,
}

impl Daemon {
    /// Spawns `pex-serve <args> --socket ... --workers 1` and waits for its
    /// first `ping` answer. Returns the daemon, the connection that got the
    /// answer, and the time from spawn to that answer.
    ///
    /// `dir` must be the current directory: the socket is named relative
    /// to it (for both the daemon and this process), because a socket path
    /// may hold at most 108 bytes and `dir` can be deep.
    pub fn start(
        bin: &Path,
        args: &[&str],
        dir: &Path,
        tag: &str,
    ) -> Result<(Daemon, Conn, Duration), String> {
        let socket = PathBuf::from(format!("{tag}.sock"));
        let metrics_out = dir.join(format!("{tag}.metrics.json"));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(&metrics_out);
        let started = Instant::now();
        let mut child = Command::new(bin)
            .current_dir(dir)
            .args(args)
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "1", "--queue-cap", QUEUE_CAP, "--metrics-out"])
            .arg(&metrics_out)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(log_file(&dir.join(format!("{tag}.log")))?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut daemon = Daemon {
            child,
            stdin,
            metrics_out,
        };
        loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before answering: {status}"));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(format!("daemon not ready after {READY_TIMEOUT:?}"));
            }
            let Ok(stream) = UnixStream::connect(&socket) else {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            let mut conn = Conn::new(stream)?;
            let pong = conn.request("{\"id\":0,\"cmd\":\"ping\"}")?;
            let ready = started.elapsed();
            if !pong.contains("\"pong\":true") {
                return Err(format!("unexpected ping answer: {pong}"));
            }
            return Ok((daemon, conn, ready));
        }
    }

    /// CPU time the daemon's threads have run so far, in seconds.
    pub fn cpu_s(&self) -> f64 {
        let dir = format!("/proc/{}/task", self.child.id());
        let Ok(tasks) = std::fs::read_dir(dir) else {
            return f64::NAN;
        };
        tasks
            .flatten()
            .map(|t| schedstat_s(&t.path().join("schedstat")))
            .sum()
    }

    /// A memory field of the daemon's `/proc` status, in MB.
    pub fn mem_mb(&self, field: &str) -> f64 {
        proc_mb(self.child.id(), field)
    }

    /// Sends `shutdown` on `conn`, closes stdin and waits for the exit.
    /// Errors unless the daemon acknowledged and exited 0.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let ack = conn.request("{\"id\":\"bye\",\"cmd\":\"shutdown\"}")?;
        if !ack.contains("\"shutdown\":true") {
            return Err(format!("unexpected shutdown answer: {ack}"));
        }
        drop(conn);
        drop(self.stdin.take());
        let status = wait_timeout(&mut self.child, EXIT_TIMEOUT)?;
        if !status.success() {
            return Err(format!("daemon exited with {status} after shutdown"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One socket connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("socket: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(writer: &mut UnixStream, line: &str) -> Result<(), String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        writer
            .write_all(buf.as_bytes())
            .map_err(|e| format!("socket write: {e}"))
    }

    fn recv(reader: &mut BufReader<UnixStream>) -> Result<String, String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("socket read: {e}")),
        }
    }

    /// Sends one line and waits for one response line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        Conn::send(&mut self.writer, line)?;
        Conn::recv(&mut self.reader)
    }

    /// Open loop: request `k` is due at `start + k * interval` and is sent
    /// then, whatever the responses are doing; a second thread reads the
    /// responses. Returns each request's due and send instants and every
    /// response line with its arrival instant. Missing responses (read
    /// error or timeout) leave the returned response list short.
    pub fn open_loop(
        &mut self,
        lines: &[String],
        interval: Duration,
    ) -> (Vec<Sent>, Vec<(Instant, String)>) {
        let n = lines.len();
        let reader = &mut self.reader;
        let writer = &mut self.writer;
        std::thread::scope(|s| {
            let receiver = s.spawn(move || {
                let mut got = Vec::with_capacity(n);
                while got.len() < n {
                    match Conn::recv(reader) {
                        Ok(line) => got.push((Instant::now(), line)),
                        Err(_) => break,
                    }
                }
                got
            });
            let start = Instant::now() + Duration::from_millis(1);
            let mut sent = Vec::with_capacity(n);
            for (k, line) in lines.iter().enumerate() {
                let due = start + interval.mul_f64(k as f64);
                let now = Instant::now();
                if due > now + SPIN_MARGIN {
                    std::thread::sleep(due - now - SPIN_MARGIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let at = Instant::now();
                if Conn::send(writer, line).is_err() {
                    break;
                }
                sent.push(Sent { due, at });
            }
            let got = receiver.join().unwrap_or_default();
            (sent, got)
        })
    }
}

/// When an open-loop request was due and when it actually left.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// The schedule's send time.
    pub due: Instant,
    /// The actual send time.
    pub at: Instant,
}
