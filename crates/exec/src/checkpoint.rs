//! Crash-safe, append-only checkpoint files for long-running ensembles.
//!
//! A checkpoint records completed `(cell key → encoded result)` pairs so
//! an interrupted sweep or fuzz run can resume without redoing finished
//! work. The format is built for processes that die *at any instruction*:
//!
//! * **Framing** — the file is a sequence of length-prefixed frames,
//!   `len: u32 LE | crc32: u32 LE | payload`, where the CRC covers the
//!   payload. A frame is either fully present and checksummed or it is
//!   the torn tail of a crashed write.
//! * **Creation is atomic** — the header frame is written to a `.tmp`
//!   sibling, synced, and renamed into place, so a half-created
//!   checkpoint never exists under the real name.
//! * **Appends are flushed per record** — a record is durable (modulo OS
//!   buffering; [`Writer::sync`] forces it) as soon as [`Writer::append`]
//!   returns. A SIGKILL mid-append leaves a torn tail which
//!   [`load`] detects by framing and truncates; resuming rewinds the
//!   file to the last valid frame before appending.
//! * **Corruption is loud** — a *complete* frame whose CRC does not match
//!   is an error ([`std::io::ErrorKind::InvalidData`]), never a silent
//!   skip: bit-rot in the middle of a checkpoint must not masquerade as
//!   "those cells were never run".
//!
//! The first frame is a caller-supplied `meta` string fingerprinting the
//! run configuration (parameters, seed, metric…). [`resume`] refuses a
//! checkpoint whose meta does not match, so results from a differently
//! configured run can never be spliced into this one.
//!
//! Record payloads are `key \x1f value` with an opaque UTF-8 value; the
//! driver that owns the checkpoint defines both. Keys must not contain
//! the `\x1f` unit separator. Later records win when a key repeats
//! (appends after a drain may legitimately repeat an in-flight cell).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Separator between the key and value inside a record payload.
const SEP: char = '\u{1f}';

/// The reflected IEEE 802.3 polynomial (zip, gzip, Ethernet).
const POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 tables, built at compile time: `TABLES[0][b]` is the CRC
/// of the byte `b`, and `TABLES[k][b]` is that value advanced through `k`
/// further zero bytes. Eight 1 KiB tables (8 KiB of static data) let the
/// kernel fold eight input bytes per step with eight independent lookups,
/// where a byte-at-a-time loop chains one dependent lookup per byte.
static TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the same polynomial and
/// check values as zip/gzip, implemented here so the vendored-only
/// workspace needs no checksum dependency. One checksum serves the
/// checkpoint frames and the live wire codec.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend a running CRC-32 with `bytes`: `crc32_update(crc32(a), b)`
/// equals `crc32(a ++ b)`, and the running value starts at 0. Lets a
/// caller checksum a frame in parts without copying it into one buffer.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        crc = TABLES[7][lo as u8 as usize]
            ^ TABLES[6][(lo >> 8) as u8 as usize]
            ^ TABLES[5][(lo >> 16) as u8 as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][hi as u8 as usize]
            ^ TABLES[2][(hi >> 8) as u8 as usize]
            ^ TABLES[1][(hi >> 16) as u8 as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// Write `bytes` to `path` atomically: write a `.tmp` sibling, sync it,
/// rename over the destination. A crash at any point leaves either the
/// old file or the new one, never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = tmp_sibling(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A checkpoint loaded from disk.
#[derive(Debug)]
pub struct Loaded {
    /// The run-configuration fingerprint from the header frame.
    pub meta: String,
    /// Completed cells, later records winning on key repeats.
    pub records: BTreeMap<String, String>,
    /// Byte length of the valid frame prefix (excludes any torn tail).
    pub valid_len: u64,
    /// Whether a torn (incomplete) trailing frame was discarded.
    pub torn_tail: bool,
}

/// Read and validate a checkpoint file.
///
/// An incomplete trailing frame — the signature of a crash mid-append —
/// is tolerated and reported via [`Loaded::torn_tail`]. A *complete*
/// frame with a CRC mismatch is data corruption and returns
/// [`std::io::ErrorKind::InvalidData`].
pub fn load(path: &Path) -> io::Result<Loaded> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut meta: Option<String> = None;
    let mut records = BTreeMap::new();
    let mut pos = 0usize;
    let mut torn_tail = false;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if bytes.len() - pos - 8 < len {
            torn_tail = true;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != want_crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint {}: CRC mismatch in frame at byte {pos} \
                     (stored {want_crc:#010x}, computed {:#010x}) — \
                     the file is corrupt, not merely truncated",
                    path.display(),
                    crc32(payload)
                ),
            ));
        }
        let text = std::str::from_utf8(payload).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint {}: frame at byte {pos} is not UTF-8",
                    path.display()
                ),
            )
        })?;
        if meta.is_none() {
            meta = Some(text.to_string());
        } else {
            match text.split_once(SEP) {
                Some((k, v)) => {
                    records.insert(k.to_string(), v.to_string());
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "checkpoint {}: record frame at byte {pos} has no key separator",
                            path.display()
                        ),
                    ));
                }
            }
        }
        pos += 8 + len;
    }
    let Some(meta) = meta else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint {}: missing header frame", path.display()),
        ));
    };
    Ok(Loaded {
        meta,
        records,
        valid_len: pos as u64,
        torn_tail,
    })
}

/// Streaming appender for one checkpoint file.
#[derive(Debug)]
pub struct Writer {
    out: BufWriter<File>,
}

impl Writer {
    /// Create a fresh checkpoint at `path` (atomically: tmp + rename)
    /// containing only the `meta` header frame, opened for appending.
    pub fn create(path: &Path, meta: &str) -> io::Result<Writer> {
        atomic_write(path, &frame(meta.as_bytes()))?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Writer {
            out: BufWriter::new(file),
        })
    }

    /// Reopen an existing checkpoint for appending, rewound past any torn
    /// tail to `valid_len` (as reported by [`load`]).
    fn reopen(path: &Path, valid_len: u64) -> io::Result<Writer> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Writer {
            out: BufWriter::new(file),
        })
    }

    /// Append one completed-cell record and flush it to the OS. The
    /// record is framed and checksummed; a crash mid-call leaves a torn
    /// tail that the next [`load`] discards.
    pub fn append(&mut self, key: &str, value: &str) -> io::Result<()> {
        debug_assert!(!key.contains(SEP), "checkpoint keys must not contain \\x1f");
        let mut payload = String::with_capacity(key.len() + 1 + value.len());
        payload.push_str(key);
        payload.push(SEP);
        payload.push_str(value);
        self.out.write_all(&frame(payload.as_bytes()))?;
        self.out.flush()
    }

    /// Force everything appended so far to durable storage (fsync).
    pub fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()
    }
}

/// Open `path` for a run fingerprinted by `meta`: load completed records
/// if the file exists (torn tail truncated, CRC errors propagated,
/// mismatched meta rejected), or create it fresh. Returns the appender
/// plus the already-completed cells.
pub fn resume(path: &Path, meta: &str) -> io::Result<(Writer, BTreeMap<String, String>)> {
    if !path.exists() {
        return Ok((Writer::create(path, meta)?, BTreeMap::new()));
    }
    let loaded = load(path)?;
    if loaded.meta != meta {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "checkpoint {} was written by a different run configuration\n  \
                 checkpoint: {}\n  this run:   {meta}",
                path.display(),
                loaded.meta
            ),
        ));
    }
    let writer = Writer::reopen(path, loaded.valid_len)?;
    Ok((writer, loaded.records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("routesync-exec-ckpt-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    /// Textbook bit-at-a-time CRC-32: the reference the table kernel is
    /// held to.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// A buffer with no repeating structure, so every table slot and lane
    /// gets exercised.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_offset() {
        let buf = noise(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_update_over_any_split_equals_one_shot() {
        let buf = noise(100);
        let whole = crc32(&buf);
        for i in 0..=buf.len() {
            for j in i..=buf.len() {
                let parts = crc32_update(crc32_update(crc32(&buf[..i]), &buf[i..j]), &buf[j..]);
                assert_eq!(parts, whole, "split at {i} and {j}");
            }
        }
    }

    /// A checkpoint as the nibble-table kernel wrote it: meta frame
    /// `"routesync golden v1"` plus one record `cell/3 → 0.25,41`. Files
    /// from before the slicing-by-8 kernel must keep loading.
    const GOLDEN_CHECKPOINT: &str = "13000000945d32b5726f75746573796e6320676f6c64656e2076310e00\
                                     0000eb764e1b63656c6c2f331f302e32352c3431";

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn checkpoints_written_before_the_table_kernel_still_load() {
        let path = tmp("golden.ckpt");
        let golden = unhex(GOLDEN_CHECKPOINT);
        std::fs::write(&path, &golden).expect("write");
        let loaded = load(&path).expect("old checkpoint loads");
        assert_eq!(loaded.meta, "routesync golden v1");
        assert!(!loaded.torn_tail);
        assert_eq!(loaded.valid_len, golden.len() as u64);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records["cell/3"], "0.25,41");
        // And today's writer produces the same bytes.
        let _ = std::fs::remove_file(&path);
        let mut w = Writer::create(&path, "routesync golden v1").expect("create");
        w.append("cell/3", "0.25,41").expect("append");
        w.sync().expect("sync");
        assert_eq!(std::fs::read(&path).expect("read"), golden);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn roundtrip_create_append_load() {
        let path = tmp("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut w = Writer::create(&path, "meta-v1").expect("create");
        w.append("a", "1").expect("append");
        w.append("b", "value with\nnewlines").expect("append");
        w.append("a", "2").expect("append repeat");
        w.sync().expect("sync");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.meta, "meta-v1");
        assert!(!loaded.torn_tail);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records["a"], "2", "later record wins");
        assert_eq!(loaded.records["b"], "value with\nnewlines");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_resumable() {
        let path = tmp("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut w = Writer::create(&path, "m").expect("create");
        w.append("done", "ok").expect("append");
        w.sync().expect("sync");
        // Simulate a crash mid-append: raw garbage prefix of a frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(&[9, 0, 0, 0, 1, 2]).expect("torn bytes");
        }
        let loaded = load(&path).expect("load tolerates torn tail");
        assert!(loaded.torn_tail);
        assert_eq!(loaded.records.len(), 1);
        // Resume truncates the tail and appends cleanly after it.
        let (mut w, records) = resume(&path, "m").expect("resume");
        assert_eq!(records.len(), 1);
        w.append("later", "fine").expect("append");
        w.sync().expect("sync");
        let reloaded = load(&path).expect("reload");
        assert!(!reloaded.torn_tail);
        assert_eq!(reloaded.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc_corruption_is_an_error_not_a_skip() {
        let path = tmp("corrupt.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut w = Writer::create(&path, "m").expect("create");
        w.append("x", "yyyy").expect("append");
        w.sync().expect("sync");
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit in a *complete* frame
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = load(&path).expect_err("corruption must be detected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
        assert!(resume(&path, "m").is_err(), "resume must refuse corruption");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_mismatched_meta() {
        let path = tmp("meta.ckpt");
        let _ = std::fs::remove_file(&path);
        drop(Writer::create(&path, "config A").expect("create"));
        let err = resume(&path, "config B").expect_err("meta mismatch");
        assert!(err.to_string().contains("different run configuration"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_without_tmp_residue() {
        let path = tmp("atomic.json");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        assert!(
            !tmp_sibling(&path).exists(),
            "tmp file must be renamed away"
        );
        let _ = std::fs::remove_file(&path);
    }
}
