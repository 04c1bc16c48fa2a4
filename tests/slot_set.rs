//! Conformance suite of `nbbs::SlotSet`, run once per placement: the NUMA
//! `NodeSet` (every slot built up front, home-first routing) and the
//! `ElasticSet` (slot 0 built up front, the rest grown under pressure).
//! Both are one type with one `BuddyBackend` impl, so the packing, the
//! owner routing and the statistics merges must behave the same.
//!
//! The regression tests at the end pin the elastic set's grant alignment
//! over slab slots and its miss streak under mixed request sizes.

use std::alloc::Layout;
use std::sync::Arc;

use nbbs::error::FreeError;
use nbbs::{
    nearest_first_order, BuddyBackend, BuddyConfig, ElasticSet, NbbsFourLevel, NbbsOneLevel,
    Placement, SlotSet,
};
use nbbs_alloc::NbbsAllocator;
use nbbs_numa::{NodePlacement, NodePolicy, NodeSet, Topology};
use nbbs_slab::SlabBackend;
use nbbs_workloads::rng::SplitMix64;

fn elastic_set<A: BuddyBackend + 'static>(slots: usize, build: fn() -> A) -> ElasticSet<A> {
    ElasticSet::new(slots, move |_| build())
}

fn node_set<A: BuddyBackend + 'static>(slots: usize, build: fn() -> A) -> NodeSet<A> {
    NodeSet::with_placement(
        slots,
        move |_| build(),
        NodePlacement::new(Topology::synthetic(slots), NodePolicy::HomeFirst),
    )
}

/// Builds a set of `slots` slots from a per-slot constructor.
type Make<A, P> = fn(usize, fn() -> A) -> SlotSet<A, P>;

/// Brings every slot into service (a no-op where all are built already).
fn grow_all<A: BuddyBackend, P: Placement>(set: &SlotSet<A, P>) {
    while set.grow() {}
}

fn small_tree() -> NbbsOneLevel {
    NbbsOneLevel::new(BuddyConfig::new(4096, 64, 4096).unwrap())
}

fn churn_tree() -> NbbsFourLevel {
    NbbsFourLevel::new(BuddyConfig::new(1 << 14, 64, 1 << 12).unwrap())
}

fn slab_tree() -> SlabBackend<NbbsFourLevel> {
    SlabBackend::new(NbbsFourLevel::new(
        BuddyConfig::new(1 << 20, 64, 1 << 16).unwrap(),
    ))
}

fn pack_split_round_trip_and_owner_return<P: Placement>(make: Make<NbbsOneLevel, P>) {
    let set = make(3, small_tree);
    grow_all(&set);
    assert_eq!(set.slot_memory(), 4096);
    // Widened over 4 slots (3 rounded up), per-slot ceiling kept; the
    // logical span stays 3 slots.
    assert_eq!(set.geometry().total_memory(), 4 * 4096);
    assert_eq!(set.total_memory(), 3 * 4096);
    assert_eq!(set.max_size(), 4096);
    let offs: Vec<usize> = (0..3)
        .map(|i| set.alloc_on(i, 1024).expect("fresh slot has room"))
        .collect();
    for (i, &off) in offs.iter().enumerate() {
        assert_eq!(set.owner_of(off), i);
        assert_eq!(set.split(off), (i, off & 4095));
        assert_eq!(set.pack(i, off & 4095), off);
    }
    let per_slot = |set: &SlotSet<NbbsOneLevel, P>| -> Vec<usize> {
        set.slot_stats().iter().map(|s| s.allocated_bytes).collect()
    };
    assert_eq!(per_slot(&set), vec![1024; 3]);
    // Freed in reverse order, each chunk lands back in its owner.
    for &off in offs.iter().rev() {
        set.dealloc(off);
    }
    assert_eq!(per_slot(&set), vec![0; 3]);
    for i in 0..3 {
        let off = set.alloc_on(i, 4096).expect("owner got its chunk back");
        set.dealloc(off);
    }
    assert_eq!(set.allocated_bytes(), 0);
}

fn try_dealloc_rejects_unbuilt_slots_and_the_phantom_tail<P: Placement>(
    make: Make<NbbsOneLevel, P>,
) {
    let set = make(3, small_tree);
    // Slot 3 exists in the widened (4-slot) geometry but owns no instance;
    // slots an elastic set has not grown into are equally empty.
    for slot in 0..4 {
        if set.slot(slot).is_none() {
            assert!(
                matches!(
                    set.try_dealloc(slot * 4096),
                    Err(FreeError::OutOfRange { total_memory, .. }) if total_memory == 3 * 4096
                ),
                "slot {slot} is not built"
            );
            assert!(
                !set.scrub_claim(slot * 4096, 4096),
                "slot {slot} refuses claims"
            );
        }
    }
    assert!(set.slot(3).is_none(), "the phantom tail is never built");
    assert!(matches!(
        set.try_dealloc(100 * 4096),
        Err(FreeError::OutOfRange { .. })
    ));
    let off = set.alloc(64).unwrap();
    assert!(set.try_dealloc(off).is_ok());
}

fn scrub_claims_route_to_the_owning_slot<P: Placement>(make: Make<NbbsOneLevel, P>) {
    let set = make(2, small_tree);
    grow_all(&set);
    let snap = set.occupancy().expect("trees report occupancy");
    assert_eq!(snap.free_chunks, vec![(0, 4096), (4096, 4096)]);
    for &(off, size) in &snap.free_chunks {
        assert!(set.scrub_claim(off, size), "chunk ({off}, {size})");
    }
    assert_eq!(
        set.slot_stats()
            .iter()
            .map(|s| s.allocated_bytes)
            .collect::<Vec<_>>(),
        vec![4096, 4096],
        "each claim landed in its own slot"
    );
    for &(off, _) in &snap.free_chunks {
        set.scrub_dealloc(off);
    }
    assert_eq!(set.allocated_bytes(), 0);
}

fn free_chunks_rebase_into_the_packed_space<P: Placement>(make: Make<NbbsOneLevel, P>) {
    let set = make(3, small_tree);
    grow_all(&set);
    let held = [set.alloc_on(1, 1024).unwrap(), set.alloc_on(2, 64).unwrap()];
    let expected: Vec<(usize, usize)> = (0..3)
        .flat_map(|i| {
            let local = set.slot(i).unwrap().free_chunks(64).unwrap();
            local
                .into_iter()
                .map(move |(off, size)| (i * 4096 + off, size))
        })
        .collect();
    assert_eq!(set.free_chunks(64).unwrap(), expected);
    for &(off, size) in &expected {
        let (slot, local) = set.split(off);
        assert!(local + size <= 4096, "chunk stays inside slot {slot}");
    }
    for off in held {
        set.dealloc(off);
    }
}

fn concurrent_churn_returns_every_byte_and_audits_clean<P: Placement + 'static>(
    make: Make<NbbsFourLevel, P>,
) {
    let set = Arc::new(make(4, churn_tree));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x11AC ^ t as u64);
                let mut live = Vec::new();
                for _ in 0..3_000 {
                    if live.is_empty() || rng.next_u64() & 1 == 0 {
                        let size = 64usize << rng.next_below(5);
                        if let Some(off) = set.alloc(size) {
                            assert!(set.owner_of(off) < 4);
                            live.push(off);
                        }
                    } else {
                        set.dealloc(live.swap_remove(rng.next_below(live.len())));
                    }
                }
                for off in live {
                    set.dealloc(off);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(set.allocated_bytes(), 0);
    for i in 0..set.slot_count() {
        if let Some(slot) = set.slot(i) {
            nbbs::verify::audit_empty(slot).assert_clean();
        }
    }
    // Trough: every drained slot that may retire does so.
    set.retire_idle();
    let stats = set.elastic_stats();
    assert_eq!(
        stats.active_regions + stats.retires as usize,
        stats.built_regions
    );
    // Pristine metadata: every slot still serves a maximal request.
    grow_all(&*set);
    for i in 0..4 {
        let off = set.alloc_on(i, 1 << 12).expect("slot lost capacity");
        set.dealloc(off);
    }
}

/// The slab's per-class counters survive the set: `frag_stats` is the sum
/// of the slots' own, and the class alignment is the slot's.
fn slab_slots_forward_frag_stats_and_alignment<P: Placement>(
    make: Make<SlabBackend<NbbsFourLevel>, P>,
) {
    let set = make(2, slab_tree);
    grow_all(&set);
    assert_eq!(set.granted_size_for(40), Some(40));
    assert_eq!(set.grant_alignment_for(40), Some(8), "the class granule");
    let offs: Vec<usize> = (0..2)
        .flat_map(|i| [set.alloc_on(i, 40).unwrap(), set.alloc_on(i, 100).unwrap()])
        .collect();
    let mut sum = set.slot(0).unwrap().frag_snapshot();
    sum.merge(&set.slot(1).unwrap().frag_snapshot());
    let merged = set.frag_stats().expect("slab slots report fragmentation");
    assert_eq!(merged, sum);
    assert_eq!(merged.live_objects(), 4);
    for off in offs {
        set.dealloc(off);
    }
}

/// Instantiates every check once per placement, as `elastic::<check>`
/// and `node::<check>`.
macro_rules! conformance {
    ($($check:ident),* $(,)?) => {
        mod elastic {
            $(#[test]
            fn $check() {
                super::$check(super::elastic_set);
            })*
        }
        mod node {
            $(#[test]
            fn $check() {
                super::$check(super::node_set);
            })*
        }
    };
}

conformance!(
    pack_split_round_trip_and_owner_return,
    try_dealloc_rejects_unbuilt_slots_and_the_phantom_tail,
    scrub_claims_route_to_the_owning_slot,
    free_chunks_rebase_into_the_packed_space,
    concurrent_churn_returns_every_byte_and_audits_clean,
    slab_slots_forward_frag_stats_and_alignment,
);

/// The fallback order is a permutation of the ring, start first, with ring
/// distances to the start non-decreasing — no farther slot is ever probed
/// before a closer one.  Checked for every ring size 1..=16 and start.
#[test]
fn nearest_first_order_is_complete_and_distance_monotone_for_all_rings() {
    for n in 1usize..=16 {
        for start in 0..n {
            let order: Vec<usize> = nearest_first_order(start, n).collect();
            assert_eq!(order[0], start, "the start slot is probed first");
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "ring {n} start {start}");
            let ring_distance = |slot: usize| {
                let d = (slot + n - start) % n;
                d.min(n - d)
            };
            let distances: Vec<usize> = order.iter().map(|&s| ring_distance(s)).collect();
            assert!(
                distances.windows(2).all(|w| w[0] <= w[1]),
                "ring {n} start {start}: distances not non-decreasing: {distances:?}"
            );
        }
    }
}

/// Rotating the start rotates the whole sequence: no slot is privileged
/// beyond its distance.
#[test]
fn nearest_first_order_is_shift_equivariant() {
    for n in 1usize..=16 {
        let base: Vec<usize> = nearest_first_order(0, n).collect();
        for start in 0..n {
            let shifted: Vec<usize> = nearest_first_order(start, n).collect();
            let expected: Vec<usize> = base.iter().map(|&v| (v + start) % n).collect();
            assert_eq!(shifted, expected, "ring {n}, start {start}");
        }
    }
}

/// Over slab slots the elastic set must report the slab's alignment (8 for
/// the 40-byte class), not the class size, or the facade skips its
/// alignment bump and hands out under-aligned blocks.
#[test]
fn over_aligned_requests_through_an_elastic_slab_set_stay_aligned() {
    let alloc = NbbsAllocator::new(ElasticSet::new(4, |_| slab_tree()));
    let layout = Layout::from_size_align(40, 16).unwrap();
    let blocks: Vec<_> = (0..8)
        .map(|_| alloc.allocate(layout).expect("plenty of room"))
        .collect();
    for block in &blocks {
        let addr = block.cast::<u8>().as_ptr() as usize;
        assert_eq!(addr % 16, 0, "block at {addr:#x} is under-aligned");
    }
    for block in blocks {
        unsafe { alloc.deallocate(block.cast(), layout) };
    }
    assert_eq!(alloc.allocated_bytes(), 0);
}

/// A smaller request's success must not reset the miss streak of a larger
/// one that keeps failing: the large request's second miss grows the set.
#[test]
fn a_smaller_hit_does_not_starve_a_larger_request() {
    let set = ElasticSet::new(2, |_| small_tree());
    // Leave room for small requests only.
    let held = [set.alloc(2048).unwrap(), set.alloc(1024).unwrap()];
    assert!(set.alloc(4096).is_none(), "first miss of the large request");
    let small = set.alloc(64).expect("small requests still fit");
    let big = set
        .alloc(4096)
        .expect("the second miss of the large request grows the set");
    assert!(big >= 4096, "served by the grown region");
    assert_eq!(set.elastic_stats().grows, 1);
    for off in held.into_iter().chain([small, big]) {
        set.dealloc(off);
    }
    assert_eq!(set.allocated_bytes(), 0);
}
