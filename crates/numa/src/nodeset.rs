//! [`NodeSet`]: one buddy instance per NUMA node behind one widened
//! `BuddyBackend` — an [`nbbs::SlotSet`] routed by a [`NodePlacement`].
//!
//! The set packs the node index into the high bits of every global offset
//! (`global = (node << log2(T)) | local`), so releases route to the owning
//! node by arithmetic, exactly how a physical frame number identifies its
//! NUMA node.  This module only supplies where an allocation *starts*: the
//! calling thread's home node from the [`Topology`], a rotating node, or a
//! pinned one.  Exhaustion falls back across the remaining nodes in
//! [`nbbs::nearest_first_order`], and the set's per-slot counters record
//! how many allocations each node served for its own threads vs as a
//! remote fallback — the telemetry behind `nbbs-bench fig12`'s share table.

use std::sync::atomic::{AtomicUsize, Ordering};

use nbbs::{Placement, SlotSet, SlotStatsSnapshot};

use crate::topology::Topology;

/// Which node an allocation is first attempted on.
///
/// Whatever the policy picks, exhaustion falls back across the remaining
/// nodes in [`nbbs::nearest_first_order`]; releases always route to the
/// owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodePolicy {
    /// Start from the calling thread's home node (the [`Topology`]'s
    /// CPU→node map, or the deterministic synthetic assignment).  The
    /// kernel's default local-allocation policy.
    #[default]
    HomeFirst,
    /// Rotate the start node per allocation, spreading load evenly — the
    /// kernel's `MPOL_INTERLEAVE`.
    Interleave,
    /// Always start from the given node (clamped modulo the node count) —
    /// a `MPOL_BIND`-style pin, still with remote fallback on exhaustion.
    Pinned(usize),
}

/// The [`Placement`] of a [`NodeSet`]: a topology and a [`NodePolicy`].
///
/// The topology's node count may differ from the instance count (e.g. a
/// 2-node machine driving a 4-instance set); home nodes are taken modulo
/// the instance count.
#[derive(Debug)]
pub struct NodePlacement {
    topology: Topology,
    policy: NodePolicy,
    next_interleave: AtomicUsize,
}

impl NodePlacement {
    /// Routes by `topology` under `policy`.
    pub fn new(topology: Topology, policy: NodePolicy) -> Self {
        NodePlacement {
            topology,
            policy,
            next_interleave: AtomicUsize::new(0),
        }
    }
}

impl Placement for NodePlacement {
    /// The topology home node, modulo the node count.  Publishes the answer
    /// as the thread's trace node hint, so events this thread subsequently
    /// records carry the node lane.
    fn home(&self, nodes: usize) -> usize {
        let node = self.topology.current_node() % nodes;
        nbbs_trace::set_thread_node(node);
        node
    }

    fn start(&self, nodes: usize) -> usize {
        match self.policy {
            NodePolicy::HomeFirst => self.home(nodes),
            NodePolicy::Interleave => self.next_interleave.fetch_add(1, Ordering::Relaxed) % nodes,
            NodePolicy::Pinned(k) => k % nodes,
        }
    }
}

/// One buddy instance per node behind one widened `BuddyBackend`.
///
/// ```
/// use nbbs::{BuddyBackend, BuddyConfig, NbbsFourLevel};
/// use nbbs_numa::{NodePlacement, NodePolicy, NodeSet, Topology};
///
/// let config = BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap();
/// let set = NodeSet::with_placement(
///     2,
///     move |_node| NbbsFourLevel::new(config),
///     NodePlacement::new(Topology::synthetic(2), NodePolicy::HomeFirst),
/// );
/// let off = set.alloc(4096).unwrap(); // routed to this thread's home
/// assert!(set.owner_of(off) < 2);
/// set.dealloc(off); // routed back by arithmetic
/// assert_eq!(set.allocated_bytes(), 0);
/// ```
pub type NodeSet<A> = SlotSet<A, NodePlacement>;

/// Point-in-time per-node telemetry of a [`NodeSet`].
pub type NodeStatsSnapshot = SlotStatsSnapshot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_pick_the_start_node() {
        let homed = NodePlacement::new(Topology::synthetic(2), NodePolicy::HomeFirst);
        assert_eq!(homed.start(3), homed.home(3));
        assert!(homed.home(3) < 3);

        let pinned = NodePlacement::new(Topology::synthetic(2), NodePolicy::Pinned(4));
        assert_eq!(pinned.start(3), 1, "pins clamp modulo the node count");

        let spread = NodePlacement::new(Topology::synthetic(4), NodePolicy::Interleave);
        let starts: Vec<usize> = (0..8).map(|_| spread.start(4)).collect();
        assert_eq!(starts, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
