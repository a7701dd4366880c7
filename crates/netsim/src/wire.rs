//! Wire codec for distance-vector advertisements: versioned framing with
//! an integrity checksum, built for the live UDP path (`routesync-live`).
//!
//! Inside the simulator an advertisement is a `Vec<RouteEntry>` handed
//! between routers by value; on a real socket it is bytes that may arrive
//! truncated, corrupted, from a different build, or from something that
//! is not a routesync daemon at all. The codec therefore frames every
//! datagram:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x52 0x53 ("RS")
//! 2       1     version (WIRE_VERSION)
//! 3       1     flags   (bit 0: delta advertisement)
//! 4       4     sender node id        (LE)
//! 8       4     sequence number       (LE)
//! 12      2     entry count           (LE)
//! 14      4     CRC-32 (IEEE) over header-with-zeroed-crc + body (LE)
//! 18      8×k   entries: dst u32 LE, metric u32 LE
//! ```
//!
//! Decoding is loud: every malformed datagram is rejected with a typed
//! [`WireError`] saying exactly what was wrong (bad magic, unsupported
//! version, truncation, length mismatch, checksum failure). The live
//! daemon counts each rejection (`live.codec.malformed`) and drops the
//! datagram — never panics, never processes a partially-decoded update.
//! Round-trip safety (including `infinity` metrics, poisoned-reverse
//! entries, and delta frames) and corruption rejection are proptested in
//! `crates/integration/tests/prop_wire.rs`.

use std::fmt;

use crate::dv::RouteEntry;
use crate::topology::NodeId;

/// Current wire format version. Bump on any layout change; decoders
/// reject every other version.
pub const WIRE_VERSION: u8 = 1;

/// Frame magic: "RS".
pub const WIRE_MAGIC: [u8; 2] = *b"RS";

/// Fixed header length in bytes (entries follow).
pub const HEADER_LEN: usize = 18;

/// Bytes per route entry on the wire.
pub const ENTRY_LEN: usize = 8;

/// Flag bit: the advertisement carries only changed routes (an
/// incremental triggered update), not the full table.
pub const FLAG_DELTA: u8 = 0b0000_0001;

/// A routing advertisement as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advertisement {
    /// Originating router.
    pub sender: NodeId,
    /// Per-sender sequence number (monotonic; wraps).
    pub seq: u32,
    /// Whether this is a delta (incremental) advertisement.
    pub delta: bool,
    /// The advertised routes.
    pub entries: Vec<RouteEntry>,
}

/// Why a datagram was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Shorter than the fixed header.
    Truncated {
        /// Bytes actually present.
        len: usize,
    },
    /// First two bytes are not [`WIRE_MAGIC`].
    BadMagic {
        /// The bytes found.
        found: [u8; 2],
    },
    /// Version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version found.
        found: u8,
    },
    /// Header flags contain bits this version does not define.
    BadFlags {
        /// The flags byte found.
        found: u8,
    },
    /// Body length disagrees with the header's entry count.
    LengthMismatch {
        /// Entries promised by the header.
        count: usize,
        /// Entry bytes actually present.
        body_len: usize,
    },
    /// CRC-32 over the frame does not match the header checksum.
    BadChecksum {
        /// Checksum carried in the header.
        expected: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { len } => {
                write!(f, "frame truncated: {len} bytes < {HEADER_LEN}-byte header")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (want {WIRE_MAGIC:02x?})")
            }
            WireError::BadVersion { found } => {
                write!(f, "unsupported wire version {found} (want {WIRE_VERSION})")
            }
            WireError::BadFlags { found } => {
                write!(f, "undefined flag bits in {found:#010b}")
            }
            WireError::LengthMismatch { count, body_len } => write!(
                f,
                "length mismatch: header promises {count} entries ({} bytes), body has {body_len}",
                count * ENTRY_LEN
            ),
            WireError::BadChecksum { expected, computed } => write!(
                f,
                "checksum mismatch: header {expected:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Frame checksum: CRC-32 (IEEE 802.3) — the same polynomial and
/// implementation as the crash-safe checkpoint framing, so one integrity
/// primitive covers both the wire and the disk.
pub use routesync_exec::checkpoint::crc32;
use routesync_exec::checkpoint::crc32_update;

impl Advertisement {
    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.entries.len() * ENTRY_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Encode, appending to `out` (cleared first) — lets a send loop
    /// reuse one buffer across datagrams.
    ///
    /// # Panics
    ///
    /// If the advertisement has more than `u16::MAX` entries (the header
    /// count field is 16-bit; real tables are orders of magnitude
    /// smaller, and the live daemon chunks anything larger).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(
            self.entries.len() <= usize::from(u16::MAX),
            "advertisement too large for one frame: {} entries",
            self.entries.len()
        );
        out.clear();
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(if self.delta { FLAG_DELTA } else { 0 });
        out.extend_from_slice(&(self.sender as u32).to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        // CRC placeholder and entry body, zero-filled in one step.
        out.resize(HEADER_LEN + self.entries.len() * ENTRY_LEN, 0);
        for (slot, e) in out[HEADER_LEN..]
            .chunks_exact_mut(ENTRY_LEN)
            .zip(&self.entries)
        {
            slot[..4].copy_from_slice(&(e.dst as u32).to_le_bytes());
            slot[4..].copy_from_slice(&e.metric.to_le_bytes());
        }
        let crc = crc32(out);
        out[14..18].copy_from_slice(&crc.to_le_bytes());
    }

    /// Decode a datagram, rejecting anything malformed with a typed
    /// [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<Advertisement, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated { len: bytes.len() });
        }
        if bytes[0..2] != WIRE_MAGIC {
            return Err(WireError::BadMagic {
                found: [bytes[0], bytes[1]],
            });
        }
        if bytes[2] != WIRE_VERSION {
            return Err(WireError::BadVersion { found: bytes[2] });
        }
        let flags = bytes[3];
        if flags & !FLAG_DELTA != 0 {
            return Err(WireError::BadFlags { found: flags });
        }
        let count = usize::from(u16::from_le_bytes([bytes[12], bytes[13]]));
        let body_len = bytes.len() - HEADER_LEN;
        if body_len != count * ENTRY_LEN {
            return Err(WireError::LengthMismatch { count, body_len });
        }
        let expected = u32::from_le_bytes([bytes[14], bytes[15], bytes[16], bytes[17]]);
        // The CRC covers the frame with its own field zeroed: checksum the
        // parts around it in place rather than copying the frame.
        let computed = crc32_update(
            crc32_update(crc32(&bytes[..14]), &[0; 4]),
            &bytes[HEADER_LEN..],
        );
        if computed != expected {
            return Err(WireError::BadChecksum { expected, computed });
        }
        let sender = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as NodeId;
        let seq = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let mut entries = Vec::with_capacity(count);
        for chunk in bytes[HEADER_LEN..].chunks_exact(ENTRY_LEN) {
            entries.push(RouteEntry {
                dst: u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) as NodeId,
                metric: u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]),
            });
        }
        Ok(Advertisement {
            sender,
            seq,
            delta: flags & FLAG_DELTA != 0,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Advertisement {
        Advertisement {
            sender: 3,
            seq: 41,
            delta: false,
            entries: vec![
                RouteEntry { dst: 0, metric: 1 },
                RouteEntry { dst: 7, metric: 16 }, // poisoned reverse
                RouteEntry { dst: 9, metric: 3 },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let ad = sample();
        let bytes = ad.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 3 * ENTRY_LEN);
        assert_eq!(Advertisement::decode(&bytes), Ok(ad));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Frames as the nibble-table CRC kernel encoded them. Peers running
    /// that build must keep exchanging updates with this one, so the
    /// bytes (checksum included) are pinned exactly.
    #[test]
    fn frames_are_byte_identical_across_the_crc_kernel_change() {
        let full = sample().encode();
        assert_eq!(
            hex(&full),
            "525301000300000029000000030098427384\
             000000000100000007000000100000000900000003000000"
        );
        let delta = Advertisement {
            sender: 12,
            seq: 7,
            delta: true,
            entries: vec![
                RouteEntry { dst: 5, metric: 16 },
                RouteEntry {
                    dst: 300,
                    metric: 2,
                },
            ],
        };
        let bytes = delta.encode();
        assert_eq!(
            hex(&bytes),
            "525301010c000000070000000200b448b4fc\
             05000000100000002c01000002000000"
        );
        assert_eq!(Advertisement::decode(&full), Ok(sample()));
        assert_eq!(Advertisement::decode(&bytes), Ok(delta));
    }

    #[test]
    fn empty_and_delta_round_trip() {
        let ad = Advertisement {
            sender: 0,
            seq: u32::MAX,
            delta: true,
            entries: Vec::new(),
        };
        let back = Advertisement::decode(&ad.encode()).expect("decodes");
        assert_eq!(back, ad);
        assert!(back.delta);
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = Advertisement::decode(&bytes[..len]).expect_err("truncated must fail");
            if len < HEADER_LEN {
                assert_eq!(err, WireError::Truncated { len });
            } else {
                assert!(matches!(err, WireError::LengthMismatch { .. }), "{err}");
            }
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    Advertisement::decode(&corrupt).is_err(),
                    "flip of byte {i} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn wrong_version_and_magic_are_loud() {
        let mut bytes = sample().encode();
        bytes[2] = WIRE_VERSION + 1;
        assert!(matches!(
            Advertisement::decode(&bytes),
            Err(WireError::BadVersion { .. })
        ));
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Advertisement::decode(&bytes),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn garbage_is_rejected_not_panicked_on() {
        assert!(Advertisement::decode(&[]).is_err());
        assert!(Advertisement::decode(&[0xFF; 64]).is_err());
        assert!(Advertisement::decode("GET / HTTP/1.1\r\n\r\n".as_bytes()).is_err());
    }
}
