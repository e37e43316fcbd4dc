//! The on-disk layout: versioned, checksummed, line-delimited JSON
//! snapshot files written atomically.
//!
//! Every file in the store is one *snapshot file*:
//!
//! ```text
//! {"format": "srank-store", "version": 2, "kind": "...", "lines": N, "checksum": "...", ...}
//! <payload line 1>
//! ⋮
//! <payload line N>
//! ```
//!
//! The first line is the header: store format tag, layout version, a
//! `kind` discriminator, the payload line count, and an FNV-1a checksum
//! of the exact payload bytes. Extra header fields carry file-specific
//! metadata (dataset name, generation, content checksum).
//!
//! ## Crash consistency
//!
//! Files are written to a `.tmp` sibling and atomically renamed into
//! place, so a reader never observes a half-written file under its final
//! name — a `kill -9` mid-write leaves (at worst) a stale `.tmp` that
//! the next write overwrites and loaders ignore. The checksum + line
//! count guard the remaining corruption classes (truncation by the
//! filesystem, bit rot, hand editing): [`read_snapshot_file`] refuses
//! such files with a descriptive error that callers *log and skip* —
//! a bad file must never poison boot.

use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version of the on-disk layout. Bump on incompatible format changes;
/// the loader refuses newer versions (and logs) instead of misreading,
/// and reads older ones.
///
/// * 1 — first layout; randomized session states store their count
///   table's full key arena (`keys`).
/// * 2 — randomized session states store 128-bit key fingerprints
///   (`fingerprints`) instead. Version-1 states still load: their keys
///   are fingerprinted on read.
pub const STORE_VERSION: u64 = 2;

/// Store format tag — distinguishes our files from arbitrary JSON lines.
pub const STORE_FORMAT: &str = "srank-store";

/// A streaming FNV-1a hasher — the one hash function of the store
/// (payload checksums, dataset content fingerprints).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over one byte slice — the payload checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Encodes a dataset name as a filesystem-safe file stem (alphanumerics,
/// `.`, `_`, `-` pass through; everything else percent-encodes), so a
/// dataset named `../x` or `a|b` cannot escape or collide in the store.
pub fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            // `.` is safe except as a leading char (hidden files, `..`).
            b'.' if !out.is_empty() => out.push('.'),
            other => {
                out.push('%');
                out.push_str(&format!("{other:02x}"));
            }
        }
    }
    out
}

/// Writes `contents` to `path` atomically: write + flush + sync a `.tmp`
/// sibling, then rename over the destination. On any error the `.tmp`
/// file is removed.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.flush()?;
        // Durability barrier: the rename must not be reordered before
        // the data blocks, or a crash could pin a complete-looking name
        // to incomplete contents.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Renders and atomically writes one snapshot file: header (with
/// `extra` metadata fields) followed by `payload` lines.
pub fn write_snapshot_file(
    path: &Path,
    kind: &str,
    extra: Vec<(String, Value)>,
    payload: &[Value],
) -> std::io::Result<()> {
    let lines: Vec<String> = payload
        .iter()
        .map(|v| serde_json::to_string(v).expect("payload values are serializable"))
        .collect();
    let body = lines.join("\n");
    let mut header = vec![
        ("format".to_string(), Value::String(STORE_FORMAT.into())),
        ("version".to_string(), Value::Number(STORE_VERSION as f64)),
        ("kind".to_string(), Value::String(kind.into())),
        ("lines".to_string(), Value::Number(payload.len() as f64)),
        (
            "checksum".to_string(),
            Value::String(format!("{:016x}", fnv1a(body.as_bytes()))),
        ),
    ];
    header.extend(extra);
    let mut contents =
        serde_json::to_string(&Value::Object(header)).expect("header is serializable");
    if !body.is_empty() {
        contents.push('\n');
        contents.push_str(&body);
    }
    contents.push('\n');
    atomic_write(path, &contents)
}

/// Reads and validates a snapshot file. Every way a file can be wrong —
/// unreadable, not ours, future-versioned, wrong kind, truncated,
/// checksum mismatch, unparseable payload — comes back as a descriptive
/// `Err(String)` for the caller to log and skip. Never panics.
pub fn read_snapshot_file(path: &Path, kind: &str) -> Result<(Value, Vec<Value>), String> {
    let at = path.display();
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{at}: unreadable: {e}"))?;
    let (header_line, body) = match raw.split_once('\n') {
        Some((h, b)) => (h, b),
        None => (raw.trim_end(), ""),
    };
    let header: Value =
        serde_json::from_str(header_line).map_err(|e| format!("{at}: header is not JSON: {e}"))?;
    if header.get("format").and_then(Value::as_str) != Some(STORE_FORMAT) {
        return Err(format!("{at}: not an {STORE_FORMAT} file"));
    }
    match header.get("version").and_then(Value::as_u64) {
        Some(v) if v <= STORE_VERSION => {}
        Some(v) => {
            return Err(format!(
                "{at}: layout version {v} is newer than {STORE_VERSION}"
            ))
        }
        None => return Err(format!("{at}: header has no version")),
    }
    let found_kind = header.get("kind").and_then(Value::as_str).unwrap_or("?");
    if found_kind != kind {
        return Err(format!("{at}: kind '{found_kind}', expected '{kind}'"));
    }
    let want_lines = header
        .get("lines")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{at}: header has no line count"))? as usize;
    let body = body.strip_suffix('\n').unwrap_or(body);
    let lines: Vec<&str> = if body.is_empty() {
        Vec::new()
    } else {
        body.split('\n').collect()
    };
    if lines.len() != want_lines {
        return Err(format!(
            "{at}: truncated: {} of {want_lines} payload lines",
            lines.len()
        ));
    }
    let checksum = header
        .get("checksum")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("{at}: header has no checksum"))?;
    let actual = fnv1a(lines.join("\n").as_bytes());
    if actual != checksum {
        return Err(format!(
            "{at}: checksum mismatch ({actual:016x} != {checksum:016x})"
        ));
    }
    let payload = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            serde_json::from_str(l).map_err(|e| format!("{at}: payload line {}: {e}", i + 1))
        })
        .collect::<Result<Vec<Value>, String>>()?;
    Ok((header, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srank-layout-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_files_round_trip() {
        let dir = tempdir("roundtrip");
        let path = dir.join("x.snap");
        let payload = vec![
            Value::Object(vec![("a".into(), Value::Number(1.0))]),
            Value::String("line two".into()),
        ];
        write_snapshot_file(
            &path,
            "test",
            vec![("extra".into(), Value::Bool(true))],
            &payload,
        )
        .unwrap();
        let (header, lines) = read_snapshot_file(&path, "test").unwrap();
        assert_eq!(header.get("extra").unwrap().as_bool(), Some(true));
        assert_eq!(lines, payload);
        // Empty payload too.
        write_snapshot_file(&path, "test", vec![], &[]).unwrap();
        let (_, lines) = read_snapshot_file(&path, "test").unwrap();
        assert!(lines.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let dir = tempdir("corrupt");
        let path = dir.join("x.snap");
        let payload = vec![Value::Number(1.0), Value::Number(2.0)];
        write_snapshot_file(&path, "test", vec![], &payload).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncation: drop the last payload line.
        let truncated: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, truncated).unwrap();
        let err = read_snapshot_file(&path, "test").unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // Bit flip in the payload (the header, which holds the layout
        // version, is left alone).
        let (header, body) = good.split_once('\n').unwrap();
        std::fs::write(&path, format!("{header}\n{}", body.replace("2", "3"))).unwrap();
        let err = read_snapshot_file(&path, "test").unwrap_err();
        assert!(
            err.contains("checksum") || err.contains("truncated"),
            "{err}"
        );

        // Wrong kind, wrong format, future version, garbage.
        write_snapshot_file(&path, "other", vec![], &payload).unwrap();
        assert!(read_snapshot_file(&path, "test")
            .unwrap_err()
            .contains("kind"));
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(read_snapshot_file(&path, "test").is_err());
        std::fs::write(
            &path,
            format!(
                "{{\"format\": \"{STORE_FORMAT}\", \"version\": 999, \"kind\": \"test\", \
                 \"lines\": 0, \"checksum\": \"0\"}}\n"
            ),
        )
        .unwrap();
        assert!(read_snapshot_file(&path, "test")
            .unwrap_err()
            .contains("newer"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_layout_versions_still_read() {
        let dir = tempdir("v1");
        let path = dir.join("x.snap");
        let payload = vec![Value::Number(1.0)];
        write_snapshot_file(&path, "test", vec![], &payload).unwrap();
        let current = format!("\"version\":{STORE_VERSION}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&current), "{text}");
        // The checksum covers the payload only, so the header can be
        // rewritten to the version-1 tag a version-1 build wrote.
        std::fs::write(&path, text.replace(&current, "\"version\":1")).unwrap();
        let (header, lines) = read_snapshot_file(&path, "test").unwrap();
        assert_eq!(header.get("version").and_then(Value::as_u64), Some(1));
        assert_eq!(lines, payload);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn name_encoding_is_safe_and_injective_enough() {
        assert_eq!(encode_name("fifa"), "fifa");
        // The leading dot always encodes, so no input can produce a stem
        // starting with "." (hidden files, "..", traversal).
        assert_eq!(encode_name("../x"), "%2e.%2fx");
        assert_eq!(encode_name("a|b"), "a%7cb");
        assert_eq!(encode_name("data.v2"), "data.v2");
        assert_ne!(encode_name("a/b"), encode_name("a_b"));
    }
}
