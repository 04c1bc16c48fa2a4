//! End-to-end tests of the elastic region stack: [`ElasticSet`] behind a
//! [`BuddyRegion`], growing under OOM pressure, retiring drained regions
//! at trough, and handing the retired spans back to the kernel through the
//! decommit scrubber.
//!
//! The widened offset space is reserved up front but the backing mapping
//! is demand-zero, so these tests check the *physical* story too: the
//! committed-bytes counter must ramp with the chain and collapse after a
//! scrub, and memory that crossed the decommit boundary must still be
//! readable/writable when its region reactivates.

use std::ptr::NonNull;
use std::time::{Duration, Instant};

use nbbs::{BuddyBackend, BuddyConfig, BuddyRegion, ElasticSet, NbbsFourLevel};

/// Per-region span: 64 KiB of 4 KiB blocks (16 per region).
const REGION_TOTAL: usize = 1 << 16;
const BLOCK: usize = 1 << 12;
const MAX_REGIONS: usize = 4;

fn elastic_region() -> BuddyRegion<ElasticSet<NbbsFourLevel>> {
    let config = BuddyConfig::new(REGION_TOTAL, 64, BLOCK).unwrap();
    BuddyRegion::new(ElasticSet::new(MAX_REGIONS, move |_slot| {
        NbbsFourLevel::new(config)
    }))
}

/// One block, allowing the single miss that precedes a grow: the set grows
/// on the second consecutive miss, so `None` here means every region is
/// active and full.
fn alloc_block(region: &BuddyRegion<ElasticSet<NbbsFourLevel>>) -> Option<NonNull<u8>> {
    region
        .alloc_bytes(BLOCK)
        .or_else(|| region.alloc_bytes(BLOCK))
}

#[test]
fn chain_grows_under_pressure_and_scrubs_back_at_trough() {
    let region = elastic_region();
    assert_eq!(region.managed_bytes(), MAX_REGIONS * REGION_TOTAL);

    // Ramp: fill well past the first region, writing a distinct pattern to
    // every block so cross-region routing bugs show up as corruption.
    let mut held = Vec::new();
    while let Some(ptr) = alloc_block(&region) {
        unsafe { ptr.as_ptr().write_bytes(held.len() as u8, BLOCK) };
        held.push(ptr);
    }
    assert_eq!(held.len(), MAX_REGIONS * (REGION_TOTAL / BLOCK));
    let stats = region.backend().elastic_stats();
    assert_eq!(stats.active_regions, MAX_REGIONS);
    assert_eq!(stats.grows as usize, MAX_REGIONS - 1);

    let peak = region.committed_bytes();
    assert_eq!(peak, MAX_REGIONS * REGION_TOTAL, "every grant committed");
    for (i, ptr) in held.iter().enumerate() {
        let b = unsafe { *ptr.as_ptr() };
        assert_eq!(b, i as u8, "block {i} kept its pattern across the ramp");
    }

    // Trough: free everything, then one scrub pass.  The pass first trims
    // and retires the drained regions, then walks the (now whole-span)
    // free chunks and releases their pages.
    for ptr in held.drain(..) {
        region.dealloc_bytes(ptr);
    }
    let freed = region.scrub_pass();
    assert!(freed > 0, "the scrub released pages");

    let stats = region.backend().elastic_stats();
    assert_eq!(stats.active_regions, 1, "only the first region survives");
    assert_eq!(stats.retires as usize, MAX_REGIONS - 1);
    let mem = region.memory_stats();
    assert!(
        mem.committed_bytes as usize <= peak * 35 / 100,
        "trough committed {} B should be well under peak {} B",
        mem.committed_bytes,
        peak
    );
}

#[test]
fn dormant_regions_reactivate_and_their_memory_survives_the_boundary() {
    let region = elastic_region();

    // Ramp up, ramp down, scrub: regions 1..N are now dormant with their
    // pages handed back to the kernel.
    let mut held = Vec::new();
    while let Some(ptr) = alloc_block(&region) {
        held.push(ptr);
    }
    for ptr in held.drain(..) {
        region.dealloc_bytes(ptr);
    }
    region.scrub_pass();
    assert_eq!(region.backend().elastic_stats().active_regions, 1);

    // Renewed pressure: the set reactivates dormant slots (never builds
    // anew — they are already constructed) and the recycled memory, fresh
    // from the decommit boundary, must be demand-zero and writable.
    while let Some(ptr) = alloc_block(&region) {
        held.push(ptr);
    }
    assert_eq!(held.len(), MAX_REGIONS * (REGION_TOTAL / BLOCK));
    let stats = region.backend().elastic_stats();
    assert_eq!(stats.active_regions, MAX_REGIONS);
    assert_eq!(
        stats.reactivations as usize,
        MAX_REGIONS - 1,
        "pressure reactivates, it does not rebuild"
    );
    assert_eq!(stats.built_regions, MAX_REGIONS);

    for ptr in &held {
        let bytes = unsafe { std::slice::from_raw_parts(ptr.as_ptr(), BLOCK) };
        assert!(
            bytes.iter().all(|&b| b == 0),
            "reactivated pages read demand-zero"
        );
        unsafe { ptr.as_ptr().write_bytes(0xC3, BLOCK) };
    }
    for ptr in held {
        region.dealloc_bytes(ptr);
    }
    assert_eq!(region.backend().allocated_bytes(), 0);
}

#[test]
fn background_scrubber_drives_the_chain_down() {
    let region = elastic_region();
    region.start_scrubber(Duration::from_millis(5));

    // Burst past the first region, then drop to idle.
    let mut held = Vec::new();
    while let Some(ptr) = alloc_block(&region) {
        held.push(ptr);
    }
    let peak = region.committed_bytes();
    for ptr in held.drain(..) {
        region.dealloc_bytes(ptr);
    }

    // The background thread retires the drained regions and decommits
    // their spans without any further help from this thread.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = region.backend().elastic_stats();
        let mem = region.memory_stats();
        if stats.active_regions == 1 && mem.committed_bytes as usize <= peak * 35 / 100 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scrubber never drove the chain down: {stats:?}, {mem}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    region.stop_scrubber();
}

#[test]
fn scrub_claims_never_touch_live_blocks_across_regions() {
    let region = elastic_region();

    // Spread live blocks across the whole chain, then free every other one
    // so the scrubber has plenty to claim *between* live neighbours.
    let mut held = Vec::new();
    while let Some(ptr) = alloc_block(&region) {
        unsafe { ptr.as_ptr().write_bytes(0xA5, BLOCK) };
        held.push(ptr);
    }
    let mut live = Vec::new();
    for (i, ptr) in held.drain(..).enumerate() {
        if i % 2 == 0 {
            live.push(ptr);
        } else {
            region.dealloc_bytes(ptr);
        }
    }

    for _ in 0..3 {
        region.scrub_pass();
    }

    for ptr in &live {
        let bytes = unsafe { std::slice::from_raw_parts(ptr.as_ptr(), BLOCK) };
        assert!(
            bytes.iter().all(|&b| b == 0xA5),
            "live block contents survive interleaved scrub passes"
        );
    }
    for ptr in live {
        region.dealloc_bytes(ptr);
    }
    region.scrub_pass();
    assert_eq!(region.backend().allocated_bytes(), 0);
}
