//! Hostile-input suite for the `pex-snapshot` loader: a snapshot file
//! is untrusted bytes, and the daemon is `forbid(unsafe_code)` — every
//! truncation, bit-flip and header forgery must surface as a clean,
//! human-readable `Err`, never a panic, a hang, or a silently wrong
//! snapshot.

use pex_serve::{persist, Snapshot, SnapshotSource};

fn paint_bytes() -> Vec<u8> {
    let snapshot = Snapshot::load(&SnapshotSource::Paint).unwrap();
    persist::to_bytes(&snapshot)
}

#[test]
fn every_truncation_is_a_clean_error() {
    let bytes = paint_bytes();
    for k in 0..bytes.len() {
        let err = persist::from_bytes(&bytes[..k])
            .err()
            .unwrap_or_else(|| panic!("truncation to {k} bytes decoded successfully"));
        assert!(!err.is_empty(), "truncation to {k}: empty error message");
    }
}

#[test]
fn every_single_bit_flip_is_a_clean_error() {
    let bytes = paint_bytes();
    // One flipped bit per byte offset (rotating which bit) covers the
    // whole file: header, section table and payload. The payload region
    // is guarded by the checksum; the header and table by validation.
    for offset in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[offset] ^= 1 << (offset % 8);
        let result = persist::from_bytes(&bad);
        assert!(
            result.is_err(),
            "bit flip at byte {offset} decoded successfully"
        );
    }
}

#[test]
fn future_versions_are_rejected_with_guidance() {
    let mut bytes = paint_bytes();
    // The version field sits right after the 8 magic bytes (u32 LE).
    let future = persist::VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    let err = persist::from_bytes(&bytes).unwrap_err();
    assert!(
        err.contains(&format!("unsupported snapshot version {future}")),
        "{err}"
    );
    assert!(err.contains("--save-snapshot"), "{err}");
}

#[test]
fn previous_versions_are_rejected_with_guidance() {
    let mut bytes = paint_bytes();
    // A file from the previous format (it still carried the reachability
    // index section) must be turned away, not misread.
    let previous = persist::VERSION - 1;
    bytes[8..12].copy_from_slice(&previous.to_le_bytes());
    let err = persist::from_bytes(&bytes).unwrap_err();
    assert!(
        err.contains(&format!("unsupported snapshot version {previous}")),
        "{err}"
    );
    assert!(err.contains("--save-snapshot"), "{err}");
}

#[test]
fn foreign_files_are_rejected_by_magic() {
    let err = persist::from_bytes(b"PNG\r\n\x1a\nnot a snapshot at all").unwrap_err();
    assert!(err.contains("magic"), "{err}");
    let err = persist::from_bytes(&[]).unwrap_err();
    assert!(!err.is_empty());
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = paint_bytes();
    bytes.extend_from_slice(b"garbage");
    let err = persist::from_bytes(&bytes).unwrap_err();
    assert!(err.contains("trailing"), "{err}");
}

#[test]
fn checksum_catches_silent_payload_swaps() {
    // Swap two distinct payload bytes: lengths all stay valid, so only
    // the checksum can notice. (Find two differing bytes near the end —
    // the payload region — and swap them.)
    let bytes = paint_bytes();
    let payload_start = bytes.len() - 100;
    let mut swapped = None;
    for i in payload_start..bytes.len() {
        for j in (i + 1)..bytes.len() {
            if bytes[i] != bytes[j] {
                swapped = Some((i, j));
                break;
            }
        }
        if swapped.is_some() {
            break;
        }
    }
    let (i, j) = swapped.expect("payload has two differing bytes");
    let mut bad = bytes;
    bad.swap(i, j);
    let err = persist::from_bytes(&bad).unwrap_err();
    assert!(err.contains("checksum") || err.contains("corrupt"), "{err}");
}

#[test]
fn missing_file_errors_cleanly() {
    let err = persist::load(std::path::Path::new("/nonexistent/dir/x.pexsnap")).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}
