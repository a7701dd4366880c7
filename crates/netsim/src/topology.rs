//! Network topology: nodes, point-to-point links, and broadcast LANs.
//!
//! Node and link attributes live in flat structure-of-arrays arenas (names
//! share one string arena, link memberships one flat index arena), plus
//! one attachment `Vec` per node.

use routesync_desim::Duration;
use serde::{Deserialize, Serialize};

/// Dense node index.
pub type NodeId = usize;
/// Dense link index.
pub type LinkId = usize;

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// End system: sources/sinks application traffic, does not run the
    /// routing protocol; forwards nothing.
    Host,
    /// Runs the distance-vector protocol and forwards packets.
    Router,
}

/// Transmission medium of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Medium {
    /// Two endpoints, full duplex.
    PointToPoint,
    /// A shared segment: a frame sent by any attached node reaches every
    /// other attached node (collisions are not modelled, matching the
    /// paper's simplification).
    Broadcast,
}

/// A borrowed view of one link: its medium, attached nodes, and per-sender
/// transmission parameters. Returned by [`Topology::link`]; the attached
/// nodes borrow the topology's flat membership arena.
#[derive(Debug, Clone, Copy)]
pub struct LinkRef<'a> {
    /// Medium (exactly 2 attached nodes for point-to-point).
    pub medium: Medium,
    /// Attached nodes.
    pub nodes: &'a [NodeId],
    /// One-way propagation delay.
    pub delay: Duration,
    /// Serialization rate in bits per second (`0` = infinite).
    pub bandwidth_bps: u64,
    /// Per-sender output queue capacity in packets (beyond the one being
    /// transmitted); drop-tail.
    pub queue_cap: usize,
}

impl LinkRef<'_> {
    /// Serialization time of `bytes` on this link.
    pub fn tx_time(&self, bytes: usize) -> Duration {
        if self.bandwidth_bps == 0 {
            return Duration::ZERO;
        }
        let nanos = (bytes as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128;
        Duration::from_nanos(nanos as u64)
    }

    /// The attached node that is not `from` (point-to-point only).
    pub fn other_end(&self, from: NodeId) -> NodeId {
        debug_assert_eq!(self.medium, Medium::PointToPoint);
        if self.nodes[0] == from {
            self.nodes[1]
        } else {
            debug_assert_eq!(self.nodes[1], from);
            self.nodes[0]
        }
    }
}

/// Node attributes in structure-of-arrays form: kinds in one array, all
/// names concatenated into a single string arena sliced by offsets.
#[derive(Debug, Clone, Default)]
struct NodeArena {
    kinds: Vec<NodeKind>,
    /// `names[name_off[n] as usize..name_off[n + 1] as usize]` is node
    /// `n`'s name. Length `kinds.len() + 1`; starts at `[0]`.
    name_off: Vec<u32>,
    names: String,
}

impl NodeArena {
    fn new() -> Self {
        NodeArena {
            kinds: Vec::new(),
            name_off: vec![0],
            names: String::new(),
        }
    }

    fn push(&mut self, kind: NodeKind, name: &str) -> NodeId {
        self.kinds.push(kind);
        self.names.push_str(name);
        self.name_off.push(self.names.len() as u32);
        self.kinds.len() - 1
    }

    fn name(&self, n: NodeId) -> &str {
        &self.names[self.name_off[n] as usize..self.name_off[n + 1] as usize]
    }
}

/// Link attributes in structure-of-arrays form; every link's member list
/// lives in one flat `link_nodes` arena sliced by offsets.
#[derive(Debug, Clone, Default)]
struct LinkArena {
    medium: Vec<Medium>,
    delay: Vec<Duration>,
    bandwidth_bps: Vec<u64>,
    queue_cap: Vec<usize>,
    /// `link_nodes[node_off[l] as usize..node_off[l + 1] as usize]` are
    /// link `l`'s attached nodes. Length `medium.len() + 1`; starts `[0]`.
    node_off: Vec<u32>,
    link_nodes: Vec<NodeId>,
}

impl LinkArena {
    fn new() -> Self {
        LinkArena {
            node_off: vec![0],
            ..Default::default()
        }
    }

    fn push(
        &mut self,
        medium: Medium,
        nodes: &[NodeId],
        delay: Duration,
        bandwidth_bps: u64,
        queue_cap: usize,
    ) -> LinkId {
        self.medium.push(medium);
        self.delay.push(delay);
        self.bandwidth_bps.push(bandwidth_bps);
        self.queue_cap.push(queue_cap);
        self.link_nodes.extend_from_slice(nodes);
        self.node_off.push(self.link_nodes.len() as u32);
        self.medium.len() - 1
    }

    fn link(&self, l: LinkId) -> LinkRef<'_> {
        LinkRef {
            medium: self.medium[l],
            nodes: &self.link_nodes[self.node_off[l] as usize..self.node_off[l + 1] as usize],
            delay: self.delay[l],
            bandwidth_bps: self.bandwidth_bps[l],
            queue_cap: self.queue_cap[l],
        }
    }

    fn len(&self) -> usize {
        self.medium.len()
    }
}

/// A network description, built with the `add_*` methods and
/// then handed to [`crate::sim::NetSim`].
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: NodeArena,
    links: LinkArena,
    /// For each node, the links it is attached to, in attachment order.
    attachments: Vec<Vec<LinkId>>,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            nodes: NodeArena::new(),
            links: LinkArena::new(),
            attachments: Vec::new(),
        }
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = self.nodes.push(kind, &name.into());
        self.attachments.push(Vec::new());
        id
    }

    /// Add a host.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name)
    }

    /// Add a router.
    pub fn add_router(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Router, name)
    }

    /// Connect two nodes with a point-to-point link.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: Duration,
        bandwidth_bps: u64,
        queue_cap: usize,
    ) -> LinkId {
        let n = self.nodes.kinds.len();
        assert!(a < n && b < n, "unknown node");
        assert_ne!(a, b, "self-links are not allowed");
        let id = self.links.push(
            Medium::PointToPoint,
            &[a, b],
            delay,
            bandwidth_bps,
            queue_cap,
        );
        self.attachments[a].push(id);
        self.attachments[b].push(id);
        id
    }

    /// Create a broadcast LAN attaching `nodes`.
    pub fn add_lan(
        &mut self,
        nodes: &[NodeId],
        delay: Duration,
        bandwidth_bps: u64,
        queue_cap: usize,
    ) -> LinkId {
        assert!(nodes.len() >= 2, "a LAN needs at least two nodes");
        for &n in nodes {
            assert!(n < self.nodes.kinds.len(), "unknown node {n}");
        }
        let id = self
            .links
            .push(Medium::Broadcast, nodes, delay, bandwidth_bps, queue_cap);
        for &n in nodes {
            self.attachments[n].push(id);
        }
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.kinds.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// A node's kind.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes.kinds[n]
    }

    /// A node's name.
    pub fn name(&self, n: NodeId) -> &str {
        self.nodes.name(n)
    }

    /// A link by id.
    pub fn link(&self, l: LinkId) -> LinkRef<'_> {
        self.links.link(l)
    }

    /// Links attached to a node.
    pub fn links_of(&self, n: NodeId) -> &[LinkId] {
        &self.attachments[n]
    }

    /// The neighbours of a node: iterates the `(neighbour, via link)`
    /// pairs in attachment order (one per other node on each attached
    /// link) without allocating.
    pub fn neighbors_iter(&self, n: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.links_of(n).iter().flat_map(move |&l| {
            self.link(l)
                .nodes
                .iter()
                .filter(move |&&m| m != n)
                .map(move |&m| (m, l))
        })
    }

    /// All router node ids.
    pub fn routers(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&n| self.kind(n) == NodeKind::Router)
            .collect()
    }
}

// ---------------------------------------------------------------------
// Serde: nodes and links on the wire; adjacency is derived on load.
// ---------------------------------------------------------------------

#[derive(Serialize, Deserialize)]
struct WireLink {
    medium: Medium,
    nodes: Vec<NodeId>,
    delay: Duration,
    bandwidth_bps: u64,
    queue_cap: usize,
}

#[derive(Serialize, Deserialize)]
struct TopologyWire {
    nodes: Vec<(NodeKind, String)>,
    links: Vec<WireLink>,
}

impl Serialize for Topology {
    fn to_value(&self) -> serde::Value {
        let wire = TopologyWire {
            nodes: (0..self.node_count())
                .map(|n| (self.kind(n), self.name(n).to_string()))
                .collect(),
            links: (0..self.link_count())
                .map(|l| {
                    let lr = self.link(l);
                    WireLink {
                        medium: lr.medium,
                        nodes: lr.nodes.to_vec(),
                        delay: lr.delay,
                        bandwidth_bps: lr.bandwidth_bps,
                        queue_cap: lr.queue_cap,
                    }
                })
                .collect(),
        };
        wire.to_value()
    }
}

impl Deserialize for Topology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let wire = TopologyWire::from_value(v)?;
        let mut t = Topology::new();
        for (kind, name) in wire.nodes {
            t.add_node(kind, name);
        }
        for l in wire.links {
            match l.medium {
                Medium::PointToPoint => {
                    if l.nodes.len() != 2 {
                        return Err(serde::Error::custom(
                            "point-to-point link must attach exactly 2 nodes",
                        ));
                    }
                    t.add_link(
                        l.nodes[0],
                        l.nodes[1],
                        l.delay,
                        l.bandwidth_bps,
                        l.queue_cap,
                    );
                }
                Medium::Broadcast => {
                    t.add_lan(&l.nodes, l.delay, l.bandwidth_bps, l.queue_cap);
                }
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neighbors(t: &Topology, n: NodeId) -> Vec<(NodeId, LinkId)> {
        t.neighbors_iter(n).collect()
    }

    #[test]
    fn builder_wires_attachments_and_neighbors() {
        let mut t = Topology::new();
        let h = t.add_host("h");
        let r1 = t.add_router("r1");
        let r2 = t.add_router("r2");
        let l0 = t.add_link(h, r1, Duration::from_millis(1), 1_000_000, 10);
        let l1 = t.add_link(r1, r2, Duration::from_millis(5), 1_000_000, 10);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.links_of(r1), &[l0, l1]);
        assert_eq!(neighbors(&t, h), vec![(r1, l0)]);
        let mut n1 = neighbors(&t, r1);
        n1.sort_unstable();
        assert_eq!(n1, vec![(h, l0), (r2, l1)]);
        assert_eq!(t.routers(), vec![r1, r2]);
        assert_eq!(t.kind(h), NodeKind::Host);
        assert_eq!(t.name(r2), "r2");
    }

    #[test]
    fn lan_attaches_everyone() {
        let mut t = Topology::new();
        let rs: Vec<NodeId> = (0..4).map(|i| t.add_router(format!("r{i}"))).collect();
        let lan = t.add_lan(&rs, Duration::from_micros(10), 10_000_000, 50);
        assert_eq!(t.link(lan).medium, Medium::Broadcast);
        for &r in &rs {
            assert_eq!(t.links_of(r), &[lan]);
            assert_eq!(neighbors(&t, r).len(), 3);
        }
    }

    #[test]
    fn lan_of_two_is_minimal() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let lan = t.add_lan(&[a, b], Duration::from_micros(10), 0, 1);
        assert_eq!(t.link(lan).nodes, &[a, b]);
        assert_eq!(neighbors(&t, a), vec![(b, lan)]);
        assert_eq!(neighbors(&t, b), vec![(a, lan)]);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn lan_of_one_rejected() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        t.add_lan(&[a], Duration::ZERO, 0, 1);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn lan_with_unknown_member_rejected() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        t.add_lan(&[a, 7], Duration::ZERO, 0, 1);
    }

    #[test]
    fn lan_membership_order_is_preserved() {
        // LAN delivery order follows membership order; the builder must
        // not reorder it.
        let mut t = Topology::new();
        let rs: Vec<NodeId> = (0..5).map(|i| t.add_router(format!("r{i}"))).collect();
        let shuffled = [rs[3], rs[0], rs[4], rs[1]];
        let lan = t.add_lan(&shuffled, Duration::ZERO, 0, 1);
        assert_eq!(t.link(lan).nodes, &shuffled);
    }

    #[test]
    fn tx_time_is_exact() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        // 1 Mbit/s: 125 bytes take 1 ms.
        let l = t.add_link(a, b, Duration::ZERO, 1_000_000, 1);
        assert_eq!(t.link(l).tx_time(125), Duration::from_millis(1));
        assert_eq!(t.link(l).tx_time(0), Duration::ZERO);
        // Infinite bandwidth.
        let l2 = t.add_link(a, b, Duration::ZERO, 0, 1);
        assert_eq!(t.link(l2).tx_time(1_000_000), Duration::ZERO);
    }

    #[test]
    fn other_end_resolves_both_directions() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let l = t.add_link(a, b, Duration::ZERO, 0, 1);
        assert_eq!(t.link(l).other_end(a), b);
        assert_eq!(t.link(l).other_end(b), a);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        t.add_link(a, a, Duration::ZERO, 0, 1);
    }

    #[test]
    fn names_share_one_arena() {
        let mut t = Topology::new();
        let a = t.add_router("alpha");
        let b = t.add_router("");
        let c = t.add_host("γ-host");
        assert_eq!(t.name(a), "alpha");
        assert_eq!(t.name(b), "");
        assert_eq!(t.name(c), "γ-host");
    }
}
