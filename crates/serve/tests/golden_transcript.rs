//! A golden transcript of `pex-serve paint` over stdin: one request line
//! per response shape the protocol produces, each compared byte for byte
//! against an inline expected answer. Anything that legitimately differs
//! between runs — generated `trace_id`s, measured `latency_us`, span
//! timings — is blanked first, so a change to how responses are written
//! cannot move a single other byte unnoticed.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Duration;

/// The Figure 2 signature edit: `Normalize` now returns a `Size`.
const UNIT: &str = "namespace PaintDotNet.Client { class DocumentUtils { static System.Drawing.Size Normalize(PaintDotNet.Document d); static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; } } }";

/// Replaces the value after every `"key":` — a string's contents with
/// `*`, a number with `0`.
fn blank(line: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(i) = rest.find(&needle) {
        let (head, tail) = rest.split_at(i + needle.len());
        out.push_str(head);
        if let Some(s) = tail.strip_prefix('"') {
            let end = s.find('"').expect("terminated string");
            out.push_str("\"*\"");
            rest = &s[end + 1..];
        } else {
            let end = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            out.push('0');
            rest = &tail[end..];
        }
    }
    out.push_str(rest);
    out
}

fn blank_volatile(line: &str) -> String {
    ["trace_id", "latency_us", "start_ns", "wall_ns"]
        .iter()
        .fold(line.to_owned(), |l, key| blank(&l, key))
}

#[test]
fn every_response_shape_is_byte_stable() {
    let update = format!(
        r#"{{"id":7,"cmd":"update","source":"{}"}}"#,
        UNIT.replace('"', "\\\"")
    );
    let transcript: [(&str, &str); 13] = [
        (
            r#"{"id":1,"query":"?({img, size})","limit":3}"#,
            r#"{"id":1,"ok":true,"trace_id":"*","outcome":"limit","degraded":false,"latency_us":0,"completions":[{"expr":"PaintDotNet.Actions.CanvasSizeAction.ResizeDocument(img, size, 0, 0)","score":6},{"expr":"PaintDotNet.Document.OnDeserialization(img, size)","score":7},{"expr":"System.Drawing.Size.Equals(size, img)","score":7}]}"#,
        ),
        (
            r#"{"id":2,"query":"?({img, size})","limit":2,"explain":true}"#,
            r#"{"id":2,"ok":true,"trace_id":"*","outcome":"limit","degraded":false,"latency_us":0,"completions":[{"expr":"PaintDotNet.Actions.CanvasSizeAction.ResizeDocument(img, size, 0, 0)","score":6,"explain":{"n":3,"s":1,"d":0,"m":0,"t":0,"a":2,"total":6}},{"expr":"PaintDotNet.Document.OnDeserialization(img, size)","score":7,"explain":{"n":3,"s":1,"d":0,"m":0,"t":1,"a":2,"total":7}}]}"#,
        ),
        (
            r#"{"id":3,"query":"img.?f","limit":2,"trace":true}"#,
            r#"{"id":3,"ok":true,"trace_id":"*","outcome":"limit","degraded":false,"latency_us":0,"completions":[{"expr":"img","score":0},{"expr":"img.Width","score":2}],"trace":{"spans":[{"name":"query","start_ns":0,"wall_ns":0,"children":[]}],"search":{"expanded":1,"frontier_max":2,"pruned_bound":0,"pruned_dominated":0}}}"#,
        ),
        (
            r#"{"id":4,"query":"?","deadline_ms":0}"#,
            r#"{"id":4,"ok":true,"trace_id":"*","outcome":"deadline","degraded":true,"latency_us":0,"completions":[]}"#,
        ),
        (
            r#"{"id":5,"cmd":"ping"}"#,
            r#"{"id":5,"ok":true,"pong":true}"#,
        ),
        (
            r#"{"id":6,"cmd":"reload","project":"nope"}"#,
            r#"{"id":6,"ok":false,"error":"reload_failed","message":"unknown project `nope` (no --snapshot-dir configured; resident tenants: )"}"#,
        ),
        (
            &update,
            r#"{"id":7,"ok":true,"updated":"default","applied":1,"noop":false,"invalidated":{"chains":1,"candidates":2,"conversions":0,"reach":0},"bytes":33344,"generation":1}"#,
        ),
        (
            r#"{"id":8,"cmd":"update","source":"namespace X { class Broken {"}"#,
            r#"{"id":8,"ok":false,"error":"parse_error","line":1,"col":29,"message":"expected type name, found Eof"}"#,
        ),
        (
            "this is not json",
            r#"{"ok":false,"error":"bad_request","message":"invalid JSON: invalid literal at byte 0"}"#,
        ),
        (
            r#"{"id":10,"query":"?","limit":"x"}"#,
            r#"{"id":10,"ok":false,"error":"bad_request","message":"`limit` must be a non-negative integer"}"#,
        ),
        (
            r#"{"id":11,"query":"?((("}"#,
            r#"{"id":11,"ok":false,"error":"parse","message":"at offset 2: expected `{`"}"#,
        ),
        (
            r#"{"id":12,"query":"?","project":"nope"}"#,
            r#"{"id":12,"ok":false,"error":"unknown_project","message":"unknown project `nope` (no --snapshot-dir configured; resident tenants: )"}"#,
        ),
        (
            r#"{"id":13,"cmd":"shutdown"}"#,
            r#"{"id":13,"ok":true,"shutdown":true}"#,
        ),
    ];

    // One worker and one line in flight at a time: answers come back in
    // request order, and each runs against the state the lines before it
    // left (the update lands after every query).
    let mut child = Command::new(env!("CARGO_BIN_EXE_pex-serve"))
        .args(["paint", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pex-serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    for (request, expected) in transcript {
        writeln!(stdin, "{request}").expect("write request");
        stdin.flush().expect("flush request");
        let mut got = String::new();
        stdout.read_line(&mut got).expect("read response");
        assert_eq!(
            blank_volatile(got.trim_end()),
            expected,
            "response to {request}"
        );
    }
    // The shutdown ack was the last line: the daemon exits 0 with stdin
    // still open and writes nothing more.
    for _ in 0..100 {
        if let Some(status) = child.try_wait().expect("wait on child") {
            assert_eq!(status.code(), Some(0));
            let mut tail = String::new();
            stdout.read_line(&mut tail).expect("read to EOF");
            assert_eq!(tail, "", "nothing after the shutdown ack");
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().ok();
    panic!("pex-serve did not exit within 10s of the shutdown ack");
}
