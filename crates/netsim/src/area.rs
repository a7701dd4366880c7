//! Hierarchical routing areas: contiguous node-id ranges plus the logical
//! destination key space for aggregate and default routes.
//!
//! The paper's measurements ran on a 1992 Internet whose backbones already
//! routed hierarchically (NEARnet's regionals behind core routers, EGP
//! between tiers). This module gives the simulator the same shape: nodes
//! are partitioned into **areas** owning contiguous id ranges, border
//! routers advertise one **aggregate route** per remote area instead of
//! every member route, and stub routers carry a **default route** toward
//! their border router. Tables stay `O(area size + areas)` instead of
//! `O(N)`, which is what makes N = 100 000+ routers tractable.
//!
//! Aggregates and the default route are ordinary [`crate::dv`] table
//! entries keyed in a reserved *logical* destination range far above any
//! real node id: the Bellman-Ford logic, hold-down, expiry and garbage
//! collection all apply unchanged.

use serde::{Deserialize, Serialize};

use crate::topology::{LinkId, NodeId, Topology};

/// Logical destination carried by a default route (`0.0.0.0/0`-flavoured).
pub const DEFAULT_DST: NodeId = usize::MAX / 2 - 1;

/// Base of the aggregate-route key space: area `k`'s aggregate is keyed
/// `AGG_BASE + k`. Disjoint from node ids (below) and [`DEFAULT_DST`]
/// (immediately below the base).
pub const AGG_BASE: NodeId = usize::MAX / 2;

/// How a border router advertises into its own area's stub links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AreaMode {
    /// Stub areas: intra-area destinations are advertised exactly;
    /// inter-area reachability collapses to the originated default route.
    Stub,
    /// Totally stubby areas (the internet-scale setting): stub links carry
    /// only the sender's self route plus the originated default. Member
    /// routes stay pinned at the border router, so a stub router's table
    /// holds ~3 entries regardless of N. Requires every stub router to be
    /// adjacent to its border router (star areas), as the hierarchical
    /// scenario builder guarantees.
    #[default]
    TotallyStubby,
}

/// A partition of the node-id space `0..node_count` into contiguous
/// areas. Area `k` owns ids `starts[k]..starts[k + 1]`; empty areas are
/// permitted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AreaLayout {
    starts: Vec<NodeId>,
}

impl AreaLayout {
    /// A layout from area boundaries: `starts.len() - 1` areas, area `k`
    /// owning `starts[k]..starts[k + 1]`. `starts` must begin at 0 and be
    /// non-decreasing (equal consecutive entries make an empty area).
    pub fn from_starts(starts: Vec<NodeId>) -> Self {
        assert!(starts.len() >= 2, "a layout needs at least one area");
        assert_eq!(starts[0], 0, "the first area must start at node 0");
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "area starts must be non-decreasing"
        );
        AreaLayout { starts }
    }

    /// A layout from consecutive area sizes.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0;
        starts.push(acc);
        for &s in sizes {
            acc += s;
            starts.push(acc);
        }
        Self::from_starts(starts)
    }

    /// Number of areas.
    pub fn areas(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of node ids covered.
    pub fn node_count(&self) -> usize {
        *self.starts.last().expect("non-empty starts")
    }

    /// The area owning node `n`, or `None` for ids beyond the layout
    /// (including logical destinations).
    pub fn area_of(&self, n: NodeId) -> Option<usize> {
        if n >= self.node_count() {
            return None;
        }
        // The last boundary ≤ n. Empty areas have start == next start and
        // can never win (the partition point lands past both).
        Some(self.starts.partition_point(|&s| s <= n) - 1)
    }

    /// The node ids owned by area `k`.
    pub fn members(&self, k: usize) -> std::ops::Range<NodeId> {
        self.starts[k]..self.starts[k + 1]
    }

    /// The logical destination key of area `k`'s aggregate route.
    pub fn agg_dst(k: usize) -> NodeId {
        AGG_BASE + k
    }

    /// The area whose aggregate `dst` keys, if it is one.
    pub fn agg_area(&self, dst: NodeId) -> Option<usize> {
        if (AGG_BASE..AGG_BASE + self.areas()).contains(&dst) {
            Some(dst - AGG_BASE)
        } else {
            None
        }
    }

    /// Whether `dst` is a logical destination (an aggregate of this layout
    /// or the default route) rather than a node id.
    pub fn is_logical(&self, dst: NodeId) -> bool {
        dst == DEFAULT_DST || self.agg_area(dst).is_some()
    }

    /// The area a link belongs to: `Some(k)` when every attached node is
    /// in area `k` (an intra-area / stub link), `None` for links spanning
    /// areas (backbone or cross-area links).
    pub fn link_area(&self, topo: &Topology, l: LinkId) -> Option<usize> {
        let nodes = topo.link(l).nodes;
        let first = self.area_of(nodes[0])?;
        nodes[1..]
            .iter()
            .all(|&m| self.area_of(m) == Some(first))
            .then_some(first)
    }

    /// Validate the layout against a topology (every node covered).
    pub fn check(&self, topo: &Topology) {
        assert_eq!(
            self.node_count(),
            topo.node_count(),
            "area layout must cover every node exactly"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_of_resolves_boundaries_and_empty_areas() {
        // Areas: [0,3), [3,3) empty, [3,7), [7,8) single.
        let l = AreaLayout::from_starts(vec![0, 3, 3, 7, 8]);
        assert_eq!(l.areas(), 4);
        assert_eq!(l.node_count(), 8);
        assert_eq!(l.area_of(0), Some(0));
        assert_eq!(l.area_of(2), Some(0));
        assert_eq!(l.area_of(3), Some(2), "empty area never owns a node");
        assert_eq!(l.area_of(6), Some(2));
        assert_eq!(l.area_of(7), Some(3));
        assert_eq!(l.area_of(8), None);
        assert_eq!(l.members(1), 3..3);
        assert!(l.members(1).is_empty());
        assert_eq!(l.members(3), 7..8, "single-router area");
    }

    #[test]
    fn from_sizes_matches_from_starts() {
        assert_eq!(
            AreaLayout::from_sizes(&[3, 0, 4, 1]),
            AreaLayout::from_starts(vec![0, 3, 3, 7, 8])
        );
    }

    #[test]
    fn logical_keys_are_disjoint_from_nodes_and_padding() {
        let l = AreaLayout::from_sizes(&[5, 5]);
        assert!(l.is_logical(DEFAULT_DST));
        assert!(l.is_logical(AreaLayout::agg_dst(0)));
        assert!(l.is_logical(AreaLayout::agg_dst(1)));
        assert!(!l.is_logical(AreaLayout::agg_dst(2)), "beyond area count");
        assert!(!l.is_logical(9), "node ids are not logical");
        // Padding travels as a count and never reaches a table, but the
        // top of the id space stays clear of logical keys all the same.
        assert!(!l.is_logical(usize::MAX - 300));
        assert_eq!(l.agg_area(AreaLayout::agg_dst(1)), Some(1));
        assert_eq!(l.agg_area(DEFAULT_DST), None);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_starts_rejected() {
        AreaLayout::from_starts(vec![0, 5, 3]);
    }
}
