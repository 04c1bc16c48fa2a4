//! Status-bit algebra (Figure 1 of the paper).
//!
//! Every tree node carries five status bits:
//!
//! ```text
//!  bit 4      bit 3      bit 2      bit 1      bit 0
//! ┌──────────┬──────────┬──────────┬──────────┬──────────┐
//! │ occupied │   left   │  right   │   left   │  right   │
//! │          │coalescent│coalescent│ occupied │ occupied │
//! └──────────┴──────────┴──────────┴──────────┴──────────┘
//! ```
//!
//! * `OCC` — an allocation targeted exactly this node.
//! * `OCC_LEFT` / `OCC_RIGHT` — the left/right subtree is partially or totally
//!   occupied (some allocation was served inside it).
//! * `COAL_LEFT` / `COAL_RIGHT` — a release operation is in flight inside the
//!   left/right subtree (transient state used to coordinate frees with racing
//!   allocations).
//!
//! The helper functions mirror §III-A exactly: they take the status value of
//! a node plus the index of the *child* through which a traversal reached it,
//! and use the child's parity (left children have even indices, right
//! children odd ones) to select the bit of the relevant branch.
//!
//! All functions are pure and branch-free, which is essential because they
//! sit inside CAS retry loops on the allocator's hot path.

/// The right subtree contains at least one allocation.
pub const OCC_RIGHT: u8 = 0x1;
/// The left subtree contains at least one allocation.
pub const OCC_LEFT: u8 = 0x2;
/// A release is in flight in the right subtree.
pub const COAL_RIGHT: u8 = 0x4;
/// A release is in flight in the left subtree.
pub const COAL_LEFT: u8 = 0x8;
/// An allocation was served by exactly this node.
pub const OCC: u8 = 0x10;
/// Any bit that makes a node non-free: occupied itself, or either subtree
/// (partially) occupied.
pub const BUSY: u8 = OCC | OCC_LEFT | OCC_RIGHT;
/// Mask of all meaningful status bits.
pub const STATUS_MASK: u8 = OCC | OCC_LEFT | OCC_RIGHT | COAL_LEFT | COAL_RIGHT;

/// Number of status bits per node (used by the 4-level packing).
pub const STATUS_BITS: u32 = 5;

/// Parity selector: 0 for a left child (even index), 1 for a right child.
#[inline(always)]
fn mod2(child: usize) -> u8 {
    (child & 1) as u8
}

/// Clears the coalescing bit of the branch leading to `child`.
///
/// Used while an allocation climbs the tree: marking the branch as occupied
/// must simultaneously tell any in-flight release that the branch has been
/// reused and must not be marked free (§III-B).
#[inline(always)]
pub fn clean_coal(val: u8, child: usize) -> u8 {
    val & !(COAL_LEFT >> mod2(child))
}

/// Sets the occupancy bit of the branch leading to `child`.
#[inline(always)]
pub fn mark(val: u8, child: usize) -> u8 {
    val | (OCC_LEFT >> mod2(child))
}

/// Clears both the coalescing and the occupancy bits of the branch leading to
/// `child` (used by the third phase of a release).
#[inline(always)]
pub fn unmark(val: u8, child: usize) -> u8 {
    val & !((OCC_LEFT | COAL_LEFT) >> mod2(child))
}

/// Is the coalescing bit of the branch leading to `child` set?
#[inline(always)]
pub fn is_coal(val: u8, child: usize) -> bool {
    val & (COAL_LEFT >> mod2(child)) != 0
}

/// Is the branch leading to `child` occupied?
#[inline(always)]
pub fn is_occ(val: u8, child: usize) -> bool {
    val & (OCC_LEFT >> mod2(child)) != 0
}

/// Is the *buddy* branch (the sibling of `child`) occupied?
#[inline(always)]
pub fn is_occ_buddy(val: u8, child: usize) -> bool {
    val & (OCC_RIGHT << mod2(child)) != 0
}

/// Is a release in flight in the *buddy* branch (the sibling of `child`)?
#[inline(always)]
pub fn is_coal_buddy(val: u8, child: usize) -> bool {
    val & (COAL_RIGHT << mod2(child)) != 0
}

/// Is this node completely free (not occupied, neither subtree occupied)?
///
/// Note that coalescing bits do **not** make a node busy: a node whose
/// subtree is merely being released may still be considered free by the level
/// scan, and the subsequent CAS from the all-zero state arbitrates the race.
#[inline(always)]
pub fn is_free(val: u8) -> bool {
    val & BUSY == 0
}

/// Is this node occupied by an allocation targeted exactly at it?
#[inline(always)]
pub fn is_occupied(val: u8) -> bool {
    val & OCC != 0
}

/// Human-readable rendering of a status byte, for diagnostics and tests.
pub fn describe(val: u8) -> String {
    let mut parts = Vec::new();
    if val & OCC != 0 {
        parts.push("OCC");
    }
    if val & OCC_LEFT != 0 {
        parts.push("OCC_LEFT");
    }
    if val & OCC_RIGHT != 0 {
        parts.push("OCC_RIGHT");
    }
    if val & COAL_LEFT != 0 {
        parts.push("COAL_LEFT");
    }
    if val & COAL_RIGHT != 0 {
        parts.push("COAL_RIGHT");
    }
    if parts.is_empty() {
        "FREE".to_string()
    } else {
        parts.join("|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Child indices with known parity: 4 is a left child, 5 a right child.
    const LEFT_CHILD: usize = 4;
    const RIGHT_CHILD: usize = 5;

    #[test]
    fn masks_match_paper_constants() {
        assert_eq!(OCC_RIGHT, 0x1);
        assert_eq!(OCC_LEFT, 0x2);
        assert_eq!(COAL_RIGHT, 0x4);
        assert_eq!(COAL_LEFT, 0x8);
        assert_eq!(OCC, 0x10);
        assert_eq!(BUSY, 0x13);
        assert_eq!(STATUS_MASK, 0x1F);
    }

    #[test]
    fn mark_selects_branch_by_child_parity() {
        assert_eq!(mark(0, LEFT_CHILD), OCC_LEFT);
        assert_eq!(mark(0, RIGHT_CHILD), OCC_RIGHT);
        // Marking is idempotent and preserves other bits.
        assert_eq!(
            mark(OCC_LEFT | COAL_RIGHT, LEFT_CHILD),
            OCC_LEFT | COAL_RIGHT
        );
        assert_eq!(mark(OCC_LEFT, RIGHT_CHILD), OCC_LEFT | OCC_RIGHT);
    }

    #[test]
    fn clean_coal_clears_only_the_branch_bit() {
        let all = COAL_LEFT | COAL_RIGHT | OCC_LEFT;
        assert_eq!(clean_coal(all, LEFT_CHILD), COAL_RIGHT | OCC_LEFT);
        assert_eq!(clean_coal(all, RIGHT_CHILD), COAL_LEFT | OCC_LEFT);
        assert_eq!(clean_coal(0, LEFT_CHILD), 0);
    }

    #[test]
    fn unmark_clears_occupancy_and_coalescing_of_branch() {
        let v = OCC_LEFT | COAL_LEFT | OCC_RIGHT | COAL_RIGHT;
        assert_eq!(unmark(v, LEFT_CHILD), OCC_RIGHT | COAL_RIGHT);
        assert_eq!(unmark(v, RIGHT_CHILD), OCC_LEFT | COAL_LEFT);
        // OCC of the node itself is never touched by unmark.
        assert_eq!(unmark(OCC | OCC_LEFT, LEFT_CHILD), OCC);
    }

    #[test]
    fn coal_queries_select_branch_and_buddy() {
        assert!(is_coal(COAL_LEFT, LEFT_CHILD));
        assert!(!is_coal(COAL_LEFT, RIGHT_CHILD));
        assert!(is_coal(COAL_RIGHT, RIGHT_CHILD));
        assert!(!is_coal(COAL_RIGHT, LEFT_CHILD));

        // Buddy of a left child is the right branch and vice versa.
        assert!(is_occ_buddy(OCC_RIGHT, LEFT_CHILD));
        assert!(!is_occ_buddy(OCC_RIGHT, RIGHT_CHILD));
        assert!(is_occ_buddy(OCC_LEFT, RIGHT_CHILD));
        assert!(is_coal_buddy(COAL_RIGHT, LEFT_CHILD));
        assert!(is_coal_buddy(COAL_LEFT, RIGHT_CHILD));
        assert!(!is_coal_buddy(COAL_LEFT, LEFT_CHILD));
    }

    #[test]
    fn is_free_ignores_coalescing_bits() {
        assert!(is_free(0));
        assert!(is_free(COAL_LEFT));
        assert!(is_free(COAL_RIGHT | COAL_LEFT));
        assert!(!is_free(OCC));
        assert!(!is_free(OCC_LEFT));
        assert!(!is_free(OCC_RIGHT));
        assert!(!is_free(BUSY));
    }

    #[test]
    fn occupied_checks_only_occ_bit() {
        assert!(is_occupied(OCC));
        assert!(is_occupied(BUSY));
        assert!(!is_occupied(OCC_LEFT | OCC_RIGHT | COAL_LEFT | COAL_RIGHT));
    }

    #[test]
    fn mark_then_unmark_round_trips() {
        for child in [LEFT_CHILD, RIGHT_CHILD] {
            for base in 0..=STATUS_MASK {
                // Clearing afterwards removes whatever marking added.
                let marked = mark(base, child);
                let cleared = unmark(marked, child);
                assert_eq!(cleared, unmark(base, child));
            }
        }
    }

    #[test]
    fn tryalloc_update_matches_paper_example() {
        // Figure 3 step 2: a node whose right branch is free gets its
        // left-occupancy bit set while clearing the left coalescing bit.
        let before = COAL_LEFT | OCC_RIGHT;
        let after = mark(clean_coal(before, LEFT_CHILD), LEFT_CHILD);
        assert_eq!(after, OCC_LEFT | OCC_RIGHT);
    }

    #[test]
    fn describe_is_readable() {
        assert_eq!(describe(0), "FREE");
        assert_eq!(describe(BUSY), "OCC|OCC_LEFT|OCC_RIGHT");
        assert!(describe(COAL_LEFT).contains("COAL_LEFT"));
    }

    #[test]
    fn exhaustive_branch_bit_consistency() {
        // For every status value and child parity, the helpers agree with a
        // straightforward re-derivation from first principles.
        for val in 0..=STATUS_MASK {
            for child in [LEFT_CHILD, RIGHT_CHILD] {
                let left = child % 2 == 0;
                let occ_bit = if left { OCC_LEFT } else { OCC_RIGHT };
                let coal_bit = if left { COAL_LEFT } else { COAL_RIGHT };
                let buddy_occ = if left { OCC_RIGHT } else { OCC_LEFT };
                let buddy_coal = if left { COAL_RIGHT } else { COAL_LEFT };

                assert_eq!(mark(val, child), val | occ_bit);
                assert_eq!(clean_coal(val, child), val & !coal_bit);
                assert_eq!(unmark(val, child), val & !(occ_bit | coal_bit));
                assert_eq!(is_coal(val, child), val & coal_bit != 0);
                assert_eq!(is_occ(val, child), val & occ_bit != 0);
                assert_eq!(is_occ_buddy(val, child), val & buddy_occ != 0);
                assert_eq!(is_coal_buddy(val, child), val & buddy_coal != 0);
            }
        }
    }
}
