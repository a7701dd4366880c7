//! Packets and payloads.

use serde::{Deserialize, Serialize};

use crate::dv::RouteEntry;
use crate::topology::NodeId;

/// A packet in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Final destination. For routing updates on a broadcast medium this is
    /// ignored (delivery is to all segment neighbours).
    pub dst: NodeId,
    /// Wire size in bytes (headers included), used for serialization time.
    pub size: usize,
    /// Remaining hops before the packet is discarded — the guard that
    /// keeps transient routing loops (count-to-infinity!) from bouncing
    /// data forever.
    pub ttl: u32,
    /// Routers traversed, recorded only when
    /// [`crate::RouterConfig::record_paths`] is set (empty otherwise).
    #[serde(default)]
    pub hops: Vec<NodeId>,
    /// What the packet carries.
    pub payload: Payload,
}

/// Packet contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// ICMP-echo-like request carrying a sequence number and send time in
    /// nanoseconds (echoed back for RTT measurement).
    Ping {
        /// Probe sequence number.
        seq: u64,
        /// Sender timestamp (nanoseconds of simulated time).
        sent_ns: u64,
    },
    /// Echo reply.
    Pong {
        /// Echoed sequence number.
        seq: u64,
        /// Echoed sender timestamp.
        sent_ns: u64,
    },
    /// One constant-bit-rate media frame.
    Audio {
        /// Frame sequence number.
        seq: u64,
    },
    /// Opaque background traffic.
    Data,
    /// Neighbour-liveness hello (origin is `Packet::src`).
    Hello,
    /// A distance-vector routing update.
    Routing(RoutingUpdate),
}

/// A distance-vector update: the full table, or only the changed routes
/// of an incremental triggered update.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingUpdate {
    /// The router that emitted the update.
    pub origin: NodeId,
    /// Synthetic padding entries ([`crate::DvConfig::advertise_pad`]) the
    /// update stands for beyond `entries`: they count towards its wire
    /// size and the receiver's processing cost but are never materialised.
    /// A `u32`, so [`Packet`] does not grow.
    pub pad: u32,
    /// Advertised routes (already split-horizon-filtered for the interface
    /// the update was sent on), sorted by destination.
    pub entries: Vec<RouteEntry>,
}

impl Packet {
    /// The conventional default initial TTL.
    pub const DEFAULT_TTL: u32 = 64;

    /// A packet with the default TTL.
    pub fn new(src: NodeId, dst: NodeId, size: usize, payload: Payload) -> Self {
        Packet {
            src,
            dst,
            size,
            ttl: Self::DEFAULT_TTL,
            hops: Vec::new(),
            payload,
        }
    }

    /// Approximate RIP-style wire size: 24-byte header plus 20 bytes per
    /// route entry.
    pub fn routing_size(entries: usize) -> usize {
        24 + 20 * entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_sets_default_ttl() {
        let p = Packet::new(1, 2, 64, Payload::Data);
        assert_eq!(p.ttl, Packet::DEFAULT_TTL);
        assert_eq!((p.src, p.dst, p.size), (1, 2, 64));
    }

    /// Padding rides as a `u32`, in space the layout
    /// already had, so a packet in flight stays 96 bytes.
    #[test]
    fn padding_count_does_not_grow_packets() {
        assert!(std::mem::size_of::<Packet>() <= 96);
    }

    #[test]
    fn routing_size_scales_with_entries() {
        assert_eq!(Packet::routing_size(0), 24);
        assert_eq!(Packet::routing_size(25), 524);
        assert!(Packet::routing_size(300) > Packet::routing_size(25));
    }
}
