//! Property tests for the live daemon's wire codec: every well-formed
//! advertisement survives an encode/decode round trip bit-exactly —
//! including `infinity` metrics, poisoned-reverse entries, and delta
//! frames — and every corrupted frame (truncation, bit flips) is rejected
//! loudly instead of decoding to something almost right.

use proptest::prelude::*;
use routesync_netsim::{Advertisement, RouteEntry, WireError};

prop_compose! {
    /// An arbitrary route entry. Metrics cover the whole `u32` range so
    /// the strategy includes `infinity` (16 for RIP) and poisoned-reverse
    /// advertisements, which are ordinary entries at the codec layer.
    fn entry()(dst in any::<u32>(), metric in any::<u32>()) -> RouteEntry {
        RouteEntry { dst: dst as usize, metric }
    }
}

prop_compose! {
    fn advertisement()(
        sender in any::<u32>(),
        seq in any::<u32>(),
        delta in any::<bool>(),
        entries in collection::vec(entry(), 0..64),
    ) -> Advertisement {
        Advertisement { sender: sender as usize, seq, delta, entries }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip: decode(encode(adv)) reproduces the advertisement
    /// field-for-field, entry-for-entry.
    #[test]
    fn encode_decode_round_trips(adv in advertisement()) {
        let frame = adv.encode();
        let back = Advertisement::decode(&frame).expect("well-formed frame decodes");
        prop_assert_eq!(back.sender, adv.sender);
        prop_assert_eq!(back.seq, adv.seq);
        prop_assert_eq!(back.delta, adv.delta);
        prop_assert_eq!(back.entries, adv.entries);
    }

    /// Every strict prefix of a valid frame is rejected: a truncated
    /// datagram never yields a partial table.
    #[test]
    fn every_truncation_is_rejected(adv in advertisement()) {
        let frame = adv.encode();
        for len in 0..frame.len() {
            prop_assert!(
                Advertisement::decode(&frame[..len]).is_err(),
                "prefix of length {} decoded", len
            );
        }
    }

    /// A single flipped bit anywhere in the frame is rejected (the CRC
    /// covers header and body) — it never silently alters the content.
    #[test]
    fn any_single_bit_flip_is_rejected(
        adv in advertisement(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut frame = adv.encode();
        let i = pos as usize % frame.len();
        frame[i] ^= 1 << bit;
        prop_assert!(
            Advertisement::decode(&frame).is_err(),
            "bit {bit} flipped at byte {i} still decoded"
        );
    }

    /// Decode checks the CRC in place, in three parts around the CRC
    /// field. It must accept exactly the frames that the one-shot CRC
    /// over a copy with that field zeroed accepts, and report the same
    /// computed value when it refuses. Edits touch only the sender, the
    /// sequence number, the CRC field and the body, so the structural
    /// checks pass and the checksum alone decides; `refix` re-signs the
    /// edited frame so both outcomes are drawn.
    #[test]
    fn in_place_check_agrees_with_one_shot_crc(
        adv in advertisement(),
        pos in any::<u64>(),
        xor in any::<u8>(),
        refix in any::<bool>(),
    ) {
        let crc_field = 14..18;
        let mut frame = adv.encode();
        let editable: Vec<usize> = (4..12).chain(crc_field.start..frame.len()).collect();
        frame[editable[pos as usize % editable.len()]] ^= xor;
        let mut zeroed = frame.clone();
        zeroed[crc_field.clone()].fill(0);
        let one_shot = routesync_netsim::wire::crc32(&zeroed);
        if refix {
            frame[crc_field.clone()].copy_from_slice(&one_shot.to_le_bytes());
        }
        let stored = u32::from_le_bytes(frame[crc_field].try_into().unwrap());
        match Advertisement::decode(&frame) {
            Ok(_) => prop_assert_eq!(stored, one_shot, "in-place check accepted a bad frame"),
            Err(WireError::BadChecksum { expected, computed }) => {
                prop_assert_eq!(expected, stored);
                prop_assert_eq!(computed, one_shot);
                prop_assert!(stored != one_shot, "in-place check refused a good frame");
            }
            Err(other) => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    /// Arbitrary byte soup (wrong magic in virtually all cases) is
    /// rejected with a typed error, not a panic.
    #[test]
    fn random_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        let _ = Advertisement::decode(&bytes);
    }

    /// A frame rewritten to an unknown codec version is refused even with
    /// a fixed-up checksum — forward compatibility fails closed.
    #[test]
    fn unknown_version_is_refused(adv in advertisement(), version in 2u16..256) {
        let version = version as u8;
        let mut frame = adv.encode();
        frame[2] = version;
        // Recompute the CRC so only the version differs.
        let crc_offset = 14;
        frame[crc_offset..crc_offset + 4].fill(0);
        let crc = routesync_netsim::wire::crc32(&frame);
        frame[crc_offset..crc_offset + 4].copy_from_slice(&crc.to_le_bytes());
        match Advertisement::decode(&frame) {
            Err(WireError::BadVersion { found }) => prop_assert_eq!(found, version),
            other => prop_assert!(false, "expected BadVersion, got {other:?}"),
        }
    }
}
