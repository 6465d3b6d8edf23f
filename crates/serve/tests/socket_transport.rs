//! End-to-end tests of the `pex-serve` Unix-socket transport: a real
//! process, real connections, and the startup/shutdown lifecycle around
//! the socket path — stale-socket takeover, live-daemon refusal, the
//! `--max-connections` cap, and handle reaping under connection churn.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A unique socket path per test, short enough for `sockaddr_un`.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pex-{tag}-{}.sock", std::process::id()))
}

fn spawn_daemon(socket: &Path, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_pex-serve"))
        .arg("paint")
        .args(["--workers", "2", "--socket"])
        .arg(socket)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pex-serve")
}

/// Polls until the daemon accepts connections on `socket`.
fn connect_ready(socket: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => panic!("daemon never listened on {}: {e}", socket.display()),
        }
    }
}

/// One request/response round trip over its own connection.
fn roundtrip(socket: &Path, line: &str) -> String {
    let mut stream = connect_ready(socket);
    writeln!(stream, "{line}").expect("write request");
    stream.flush().expect("flush request");
    read_response(stream)
}

/// [`roundtrip`] for a connection the daemon sheds: it may write its error
/// line and close before the request lands, so a failed write is ignored
/// and the response is read all the same.
fn shed_roundtrip(socket: &Path, line: &str) -> String {
    let mut stream = connect_ready(socket);
    let _ = writeln!(stream, "{line}").and_then(|()| stream.flush());
    read_response(stream)
}

fn read_response(stream: UnixStream) -> String {
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    assert!(!resp.is_empty(), "connection closed without a response");
    resp.trim_end().to_owned()
}

fn wait_exit(mut child: Child) -> i32 {
    for _ in 0..100 {
        if let Some(status) = child.try_wait().expect("wait on child") {
            return status.code().expect("exit code");
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().ok();
    panic!("pex-serve did not exit within 10s");
}

fn shutdown(mut child: Child, socket: &Path) {
    drop(child.stdin.take()); // EOF on stdin begins the graceful drain
    assert_eq!(wait_exit(child), 0);
    assert!(
        !socket.exists(),
        "daemon removes its socket on clean shutdown"
    );
}

#[test]
fn connection_churn_answers_every_client_and_exits_clean() {
    let socket = socket_path("churn");
    let child = spawn_daemon(&socket, &[]);
    connect_ready(&socket);
    // Many short-lived connections, several at a time: with per-iteration
    // reaping the daemon holds one handle per *live* connection, and
    // every client still gets its answer.
    for round in 0..10 {
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let socket = socket.clone();
                std::thread::spawn(move || {
                    roundtrip(
                        &socket,
                        &format!(
                            r#"{{"id":{},"query":"?({{img, size}})","limit":3}}"#,
                            round * 4 + i
                        ),
                    )
                })
            })
            .collect();
        for t in threads {
            let resp = t.join().expect("client thread");
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
    }
    shutdown(child, &socket);
}

#[test]
fn connection_cap_sheds_with_a_clean_error_line() {
    let socket = socket_path("cap");
    let child = spawn_daemon(&socket, &["--max-connections", "1"]);
    // Hold one connection open so the cap is reached...
    let held = connect_ready(&socket);
    // ...then the next connection gets one explicit error line, not a
    // hang and not a silent close.
    let resp = shed_roundtrip(&socket, r#"{"id":9,"cmd":"ping"}"#);
    assert!(resp.contains("\"error\":\"connection_limit\""), "{resp}");
    assert!(resp.contains("\"ok\":false"), "{resp}");
    // Releasing the held connection frees a slot for new clients.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // Until the daemon reaps the dropped connection, this one is shed too.
        let resp = shed_roundtrip(&socket, r#"{"id":10,"cmd":"ping"}"#);
        if resp.contains("\"pong\":true") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slot never freed after client disconnect: {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    shutdown(child, &socket);
}

#[test]
fn stale_socket_is_unlinked_and_taken_over() {
    let socket = socket_path("stale");
    // A listener that binds and dies without cleanup leaves a socket file
    // nothing accepts on — exactly what a crashed daemon leaves behind.
    drop(UnixListener::bind(&socket).expect("bind stale socket"));
    assert!(socket.exists(), "stale socket file is on disk");
    let child = spawn_daemon(&socket, &[]);
    let resp = roundtrip(&socket, r#"{"id":1,"cmd":"ping"}"#);
    assert!(resp.contains("\"pong\":true"), "{resp}");
    shutdown(child, &socket);
}

#[test]
fn live_socket_is_refused_with_address_in_use() {
    let socket = socket_path("live");
    let first = spawn_daemon(&socket, &[]);
    connect_ready(&socket);
    // A second daemon pointed at the same socket must not steal it.
    let out = Command::new(env!("CARGO_BIN_EXE_pex-serve"))
        .arg("paint")
        .arg("--socket")
        .arg(&socket)
        .output()
        .expect("run second pex-serve");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("address in use"), "{err}");
    // The first daemon is untouched and still serving.
    let resp = roundtrip(&socket, r#"{"id":2,"cmd":"ping"}"#);
    assert!(resp.contains("\"pong\":true"), "{resp}");
    shutdown(first, &socket);
}

#[test]
fn refuses_to_replace_a_path_that_is_not_a_socket() {
    let socket = socket_path("notasock");
    std::fs::write(&socket, b"precious data\n").expect("plant a regular file");
    let out = Command::new(env!("CARGO_BIN_EXE_pex-serve"))
        .arg("paint")
        .arg("--socket")
        .arg(&socket)
        .output()
        .expect("run pex-serve");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a socket"), "{err}");
    assert_eq!(
        std::fs::read(&socket).expect("file survives"),
        b"precious data\n",
        "the daemon must not delete files it did not create"
    );
    std::fs::remove_file(&socket).ok();
}

#[test]
fn socket_shutdown_exits_while_stdin_stays_open() {
    let socket = socket_path("sockbye");
    let child = spawn_daemon(&socket, &[]);
    // `child` keeps the daemon's stdin pipe open throughout: the shutdown
    // must come from the socket alone.
    let resp = roundtrip(&socket, r#"{"id":"bye","cmd":"shutdown"}"#);
    assert_eq!(resp, r#"{"id":"bye","ok":true,"shutdown":true}"#);
    assert_eq!(wait_exit(child), 0);
    assert!(
        !socket.exists(),
        "daemon removes its socket on clean shutdown"
    );
}

#[test]
fn over_long_socket_lines_answer_request_too_large_and_resync() {
    let socket = socket_path("longline");
    let child = spawn_daemon(&socket, &[]);
    let mut stream = connect_ready(&socket);
    // Twice the daemon's 1 MiB line cap, then a normal request.
    let huge = format!(r#"{{"id":1,"query":"{}"}}"#, "x".repeat(2 << 20));
    writeln!(stream, "{huge}").expect("write long line");
    writeln!(stream, r#"{{"id":2,"cmd":"ping"}}"#).expect("write ping");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error line");
    assert!(line.contains("\"error\":\"request_too_large\""), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("read pong");
    assert_eq!(line.trim_end(), r#"{"id":2,"ok":true,"pong":true}"#);
    shutdown(child, &socket);
}
