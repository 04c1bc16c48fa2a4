//! [`SlotSet`]: identically-configured buddy instances behind one widened
//! [`BuddyBackend`].
//!
//! The paper recalls that NUMA machines run one disjoint buddy instance per
//! node, and that this is orthogonal to making each instance non-blocking.
//! The same packing also serves a chain of regions that grows under
//! pressure, so both deployments are this one type:
//!
//! * a **node set** (`nbbs-numa`'s `NodeSet`) builds every slot at
//!   construction and starts each allocation where its [`Placement`] says
//!   (the thread's home node, a rotating node, or a pinned one);
//! * an **elastic set** ([`ElasticSet`]) builds slot 0 only and maps the
//!   rest on demand.
//!
//! # Packing
//!
//! Every slot manages the same per-slot geometry (total size `T`, a power
//! of two).  A *global* offset packs the slot index into its high bits:
//!
//! ```text
//! global = (slot << log2(T)) | local        slot  = global >> log2(T)
//!                                           local = global & (T - 1)
//! ```
//!
//! so releases and scrub claims route to their owner by arithmetic.  The
//! slot count is rounded up to a power of two ([`Geometry::widened`]) to
//! keep the global space a valid buddy geometry; offsets in the phantom
//! tail are never produced, and `total_memory()` reports the *logical*
//! `slots × T` span so backing wrappers never commit the tail.
//!
//! # Routing
//!
//! The slots built at construction are probed in [`nearest_first_order`]
//! from the placement's start slot, closest ring neighbours first (the
//! kernel walking its NUMA zone list); the slots built later follow in
//! ascending order.  Per-slot counters record how many allocations each
//! slot served for requests that started on it vs as a fallback.
//!
//! # Growth and retirement
//!
//! Only slots that were *not* built at construction take part, so a node
//! set never grows or retires and an elastic set does both:
//!
//! * **grow** — reactivate a dormant slot, else build the next empty one —
//!   after allocations have failed on every active slot twice in a row
//!   (sustained pressure, not a single unlucky race).  A success ends the
//!   streak only when it is at least as large as the largest request that
//!   missed, so a stream of small hits cannot starve a large request.
//! * **retire** a drained slot at trough: its whole span is claimed
//!   through the ordinary allocation protocol (any concurrent allocation
//!   fails the claim and aborts the retirement), flipped dormant, and freed
//!   back, so the decommit scrubber returns its pages to the kernel.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use nbbs_sync::CachePadded;

use crate::error::FreeError;
use crate::occupancy::OccupancySnapshot;
use crate::stats::{CacheStatsSnapshot, FragStatsSnapshot, OpStatsSnapshot};
use crate::traits::BuddyBackend;
use crate::Geometry;

/// The distance-aware fallback order over `n` slots starting at `start`:
/// the start slot first, then its neighbours by increasing ring distance,
/// alternating sides (`start`, `start+1`, `start-1`, `start+2`, `start-2`,
/// …, wrapping modulo `n`).  Every slot is yielded exactly once.
pub fn nearest_first_order(start: usize, n: usize) -> impl Iterator<Item = usize> {
    debug_assert!(n > 0, "need at least one slot");
    let start = if n == 0 { 0 } else { start % n };
    (0..n).map(move |k| {
        // k = 0 → start; odd k → +((k+1)/2); even k → -(k/2).
        let d = k.div_ceil(2);
        if k % 2 == 1 {
            (start + d) % n
        } else {
            (start + n - d) % n
        }
    })
}

/// Picks the slot an allocation probes first.
///
/// Both methods receive the number of slots built at construction and must
/// answer below it.
pub trait Placement: Send + Sync {
    /// The calling thread's own slot: allocations that start here and are
    /// served here count as local.
    fn home(&self, slots: usize) -> usize;

    /// The slot an allocation probes first; the caller's home unless the
    /// policy spreads or pins requests.
    fn start(&self, slots: usize) -> usize {
        self.home(slots)
    }
}

/// The elastic chain's placement: every allocation starts at slot 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstSlot;

impl Placement for FirstSlot {
    fn home(&self, _slots: usize) -> usize {
        0
    }
}

/// A chain of buddy regions that grows under OOM pressure and retires
/// drained regions at trough: a [`SlotSet`] that builds slot 0 only.
///
/// ```
/// use nbbs::{BuddyBackend, BuddyConfig, ElasticSet, NbbsFourLevel};
///
/// let config = BuddyConfig::new(1 << 16, 64, 1 << 12).unwrap();
/// let set = ElasticSet::new(4, move |_slot| NbbsFourLevel::new(config));
/// assert_eq!(set.elastic_stats().built_regions, 1);
///
/// // Region 0 holds 16 blocks.  The 17th request misses; the 18th misses
/// // again, so the set maps region 1 and serves on.
/// let held: Vec<usize> = (0..20).filter_map(|_| set.alloc(1 << 12)).collect();
/// assert_eq!(held.len(), 19);
/// for off in held {
///     set.dealloc(off);
/// }
/// set.retire_idle();
/// assert_eq!(set.elastic_stats().active_regions, 1);
/// ```
pub type ElasticSet<A> = SlotSet<A, FirstSlot>;

/// States of a slot grown under pressure: never built / serving
/// allocations / drained and parked.
const EMPTY: u8 = 0;
const ACTIVE: u8 = 1;
const DORMANT: u8 = 2;

/// Consecutive all-slot misses it takes before the set grows: one miss may
/// be a lost race, two are pressure.
const GROW_AFTER_MISSES: usize = 2;

/// A slot not built at construction.
struct Grown<A> {
    state: AtomicU8,
    backend: OnceLock<A>,
}

/// Cache-padded so the hot-path `fetch_add`s of threads homed on different
/// slots never bounce a shared line.
#[derive(Debug, Default)]
struct SlotCounters {
    local_allocs: AtomicU64,
    remote_allocs: AtomicU64,
    failed_allocs: AtomicU64,
}

/// Point-in-time per-slot telemetry of a [`SlotSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotStatsSnapshot {
    /// Slot index.
    pub slot: usize,
    /// Bytes currently handed out by this slot's instance (0 if unbuilt).
    pub allocated_bytes: usize,
    /// Allocations this slot served for requests that started on it.
    pub local_allocs: u64,
    /// Allocations this slot served as a fallback for requests that
    /// started elsewhere.
    pub remote_allocs: u64,
    /// Requests that started on this slot and failed everywhere.
    pub failed_allocs: u64,
}

impl SlotStatsSnapshot {
    /// Allocations this slot served in total (local + fallback).
    pub fn served(&self) -> u64 {
        self.local_allocs + self.remote_allocs
    }
}

/// Growth/retirement telemetry of a [`SlotSet`] and its current census.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElasticStatsSnapshot {
    /// Slots currently serving allocations.
    pub active_regions: usize,
    /// Slots built so far (active + dormant).
    pub built_regions: usize,
    /// Slots the reserved offset space holds.
    pub max_regions: usize,
    /// Slots built under pressure (cumulative).
    pub grows: u64,
    /// Slots retired to dormant at trough (cumulative).
    pub retires: u64,
    /// Dormant slots reactivated under pressure (cumulative).
    pub reactivations: u64,
}

/// Identically-configured buddy instances behind one widened
/// [`BuddyBackend`]; see the [module docs](self).
pub struct SlotSet<A, P> {
    /// Slots `0..fixed.len()`, built at construction: always active,
    /// probed nearest-first from the placement's start, never retired.
    fixed: Box<[A]>,
    /// The slots after them, built on demand under pressure and probed in
    /// ascending order while active.
    grown: Box<[Grown<A>]>,
    counters: Box<[CachePadded<SlotCounters>]>,
    builder: Box<dyn Fn(usize) -> A + Send + Sync>,
    placement: P,
    /// Widened geometry spanning `slot_count().next_power_of_two()` slots.
    geometry: Geometry,
    /// `log2(per-slot total)`: the packing shift.
    shift: u32,
    /// `per-slot total - 1`: the local-offset mask.
    mask: usize,
    name: &'static str,
    /// Consecutive allocations that failed on every active slot.
    miss_streak: AtomicUsize,
    /// The largest request of the current streak: only a success at least
    /// this large ends it.
    miss_size: AtomicUsize,
    grows: AtomicU64,
    retires: AtomicU64,
    reactivations: AtomicU64,
}

impl<A: BuddyBackend> ElasticSet<A> {
    /// Builds a chain that can hold up to `max_regions` instances produced
    /// by `builder` (called with the slot index).  Slot 0 is built now and
    /// never retired; the rest are built on demand under pressure.
    ///
    /// # Panics
    ///
    /// Panics if `max_regions` is zero or the widened geometry would exceed
    /// the supported tree depth.
    pub fn new(max_regions: usize, builder: impl Fn(usize) -> A + Send + Sync + 'static) -> Self {
        Self::build(max_regions, 1, Box::new(builder), FirstSlot, "elastic")
    }
}

impl<A: BuddyBackend, P: Placement> SlotSet<A, P> {
    /// Builds `slots` instances with `builder` (called with the slot index),
    /// all of them now, routed by `placement`.  Such a set never grows or
    /// retires.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero, the instances disagree on their geometry,
    /// or the widened geometry would exceed the supported tree depth.
    pub fn with_placement(
        slots: usize,
        builder: impl Fn(usize) -> A + Send + Sync + 'static,
        placement: P,
    ) -> Self {
        Self::build(slots, slots, Box::new(builder), placement, "slot-set")
    }

    fn build(
        max_slots: usize,
        fixed: usize,
        builder: Box<dyn Fn(usize) -> A + Send + Sync>,
        placement: P,
        name: &'static str,
    ) -> Self {
        assert!(max_slots > 0, "need at least one slot");
        let fixed: Box<[A]> = (0..fixed).map(&builder).collect();
        let per_slot = *fixed[0].geometry();
        assert!(
            fixed.iter().all(|b| *b.geometry() == per_slot),
            "all slots must share one geometry"
        );
        SlotSet {
            geometry: per_slot
                .widened(max_slots)
                .expect("widened geometry within the supported depth"),
            shift: per_slot.widening_shift(),
            mask: per_slot.total_memory() - 1,
            grown: (fixed.len()..max_slots)
                .map(|_| Grown {
                    state: AtomicU8::new(EMPTY),
                    backend: OnceLock::new(),
                })
                .collect(),
            counters: (0..max_slots).map(|_| CachePadded::default()).collect(),
            fixed,
            builder,
            placement,
            name,
            miss_streak: AtomicUsize::new(0),
            miss_size: AtomicUsize::new(0),
            grows: AtomicU64::new(0),
            retires: AtomicU64::new(0),
            reactivations: AtomicU64::new(0),
        }
    }

    /// Returns this set under a custom report name (e.g. `"numa-4lvl-nb"`).
    #[must_use]
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Number of slots (real instances, not the widened power-of-two span).
    pub fn slot_count(&self) -> usize {
        self.fixed.len() + self.grown.len()
    }

    /// Bytes managed by each single slot.
    pub fn slot_memory(&self) -> usize {
        self.mask + 1
    }

    /// A built slot's instance (`None` for unbuilt or out-of-range slots).
    pub fn slot(&self, i: usize) -> Option<&A> {
        match i.checked_sub(self.fixed.len()) {
            None => Some(&self.fixed[i]),
            Some(g) => self.grown.get(g)?.backend.get(),
        }
    }

    /// The calling thread's home slot under the placement.
    pub fn home_slot(&self) -> usize {
        self.placement.home(self.fixed.len())
    }

    /// Packs `(slot, local offset)` into a global offset.
    #[inline]
    pub fn pack(&self, slot: usize, local: usize) -> usize {
        debug_assert!(slot < self.slot_count());
        debug_assert!(local <= self.mask);
        (slot << self.shift) | local
    }

    /// Splits a global offset into `(slot, local offset)`.
    #[inline]
    pub fn split(&self, global: usize) -> (usize, usize) {
        (global >> self.shift, global & self.mask)
    }

    /// Which slot owns a global offset.
    #[inline]
    pub fn owner_of(&self, global: usize) -> usize {
        global >> self.shift
    }

    /// Allocates on slot `i` with **no** fallback (the `__GFP_THISNODE`
    /// analogue).  Counts as local service when `i` is the caller's home
    /// slot, as remote service otherwise.
    pub fn alloc_on(&self, i: usize, size: usize) -> Option<usize> {
        let local = self.slot(i)?.alloc(size)?;
        self.count_served(i, self.home_slot());
        Some(self.pack(i, local))
    }

    /// Point-in-time per-slot telemetry.
    pub fn slot_stats(&self) -> Vec<SlotStatsSnapshot> {
        self.counters
            .iter()
            .enumerate()
            .map(|(slot, c)| SlotStatsSnapshot {
                slot,
                allocated_bytes: self.slot(slot).map_or(0, |b| b.allocated_bytes()),
                local_allocs: c.local_allocs.load(Ordering::Relaxed),
                remote_allocs: c.remote_allocs.load(Ordering::Relaxed),
                failed_allocs: c.failed_allocs.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Growth/retirement counters and the current slot census.
    pub fn elastic_stats(&self) -> ElasticStatsSnapshot {
        let grown = |want| {
            self.grown
                .iter()
                .filter(|g| g.state.load(Ordering::Acquire) == want)
                .count()
        };
        let active_regions = self.fixed.len() + grown(ACTIVE);
        ElasticStatsSnapshot {
            active_regions,
            built_regions: active_regions + grown(DORMANT),
            max_regions: self.slot_count(),
            grows: self.grows.load(Ordering::Relaxed),
            retires: self.retires.load(Ordering::Relaxed),
            reactivations: self.reactivations.load(Ordering::Relaxed),
        }
    }

    /// Brings one more slot into service: reactivates the first dormant
    /// slot if there is one, otherwise builds the next empty one.  Returns
    /// `false` when every slot is already active.
    pub fn grow(&self) -> bool {
        // Reactivate before building: dormant slots are already mapped (if
        // mostly decommitted) and strictly cheaper than a new build.
        for slot in self.grown.iter() {
            if slot
                .state
                .compare_exchange(DORMANT, ACTIVE, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.reactivations.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        for (i, slot) in self.grown.iter().enumerate() {
            if slot.state.load(Ordering::Acquire) != EMPTY {
                continue;
            }
            // Racing growers both reach get_or_init; only one builds, and
            // the single EMPTY→ACTIVE transition decides who announced it.
            slot.backend
                .get_or_init(|| (self.builder)(self.fixed.len() + i));
            if slot
                .state
                .compare_exchange(EMPTY, ACTIVE, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.grows.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Retires drained slots: every active slot not built at construction
    /// whose byte counter reads zero is claimed whole through the ordinary
    /// allocation protocol (any concurrent allocation fails the claim and
    /// aborts the retirement), flipped dormant, and released again — fully
    /// free, so the next scrub pass decommits its span.  Returns how many
    /// slots were retired.
    pub fn retire_idle(&self) -> usize {
        let max = self.geometry.max_size();
        let blocks = self.slot_memory() / max;
        let mut retired = 0;
        for slot in self.grown.iter() {
            if slot.state.load(Ordering::Acquire) != ACTIVE {
                continue;
            }
            let Some(backend) = slot.backend.get() else {
                continue;
            };
            if backend.allocated_bytes() != 0 {
                continue;
            }
            // Liveness barrier: own the whole span before parking it.
            let claimed: Vec<usize> = (0..blocks)
                .map(|b| b * max)
                .take_while(|&local| backend.scrub_claim(local, max))
                .collect();
            if claimed.len() == blocks
                && slot
                    .state
                    .compare_exchange(ACTIVE, DORMANT, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.retires.fetch_add(1, Ordering::Relaxed);
                retired += 1;
            }
            for local in claimed {
                backend.scrub_dealloc(local);
            }
        }
        retired
    }

    /// Slot 0, which every constructor builds: the slots are homogeneous,
    /// so it answers the per-request questions for all of them.
    fn first(&self) -> &A {
        &self.fixed[0]
    }

    /// The built slots with their indices (dormant ones included, so the
    /// scrubber sees their free spans).
    fn built(&self) -> impl Iterator<Item = (usize, &A)> {
        (0..self.slot_count()).filter_map(|i| Some((i, self.slot(i)?)))
    }

    /// Merges one optional snapshot per built slot.
    fn merged<T>(
        &self,
        get: impl Fn(usize, &A) -> Option<T>,
        merge: impl Fn(&mut T, T),
    ) -> Option<T> {
        let mut acc = None;
        for s in self.built().filter_map(|(i, b)| get(i, b)) {
            match &mut acc {
                Some(a) => merge(a, s),
                None => acc = Some(s),
            }
        }
        acc
    }

    /// The built instance owning a global offset.
    fn owner(&self, offset: usize) -> Option<(&A, usize)> {
        let (slot, local) = self.split(offset);
        Some((self.slot(slot)?, local))
    }

    /// One allocation attempt across the active slots.
    fn probe(&self, start: usize, size: usize) -> Option<usize> {
        for i in nearest_first_order(start, self.fixed.len()) {
            if let Some(local) = self.fixed[i].alloc(size) {
                self.count_served(i, start);
                return Some(self.pack(i, local));
            }
        }
        for (k, slot) in self.grown.iter().enumerate() {
            if slot.state.load(Ordering::Acquire) != ACTIVE {
                continue;
            }
            if let Some(local) = slot.backend.get().and_then(|b| b.alloc(size)) {
                let i = self.fixed.len() + k;
                self.count_served(i, start);
                return Some(self.pack(i, local));
            }
        }
        None
    }

    fn count_served(&self, slot: usize, start: usize) {
        let c = &self.counters[slot];
        let served = if slot == start {
            &c.local_allocs
        } else {
            &c.remote_allocs
        };
        served.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a miss of `size` on every active slot and grows once the
    /// streak shows sustained pressure; returns whether the set grew.  A
    /// set without growable slots keeps no streak.
    fn grow_under_pressure(&self, size: usize) -> bool {
        if self.grown.is_empty() {
            return false;
        }
        self.miss_size.fetch_max(size, Ordering::Relaxed);
        let streak = self.miss_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= GROW_AFTER_MISSES && self.grow() {
            self.end_miss_streak();
            return true;
        }
        false
    }

    /// A hit ends the miss streak only when it is at least as large as the
    /// largest request that missed: a small success says nothing about room
    /// for a large one.
    fn note_hit(&self, size: usize) {
        if self.miss_streak.load(Ordering::Relaxed) != 0
            && size >= self.miss_size.load(Ordering::Relaxed)
        {
            self.end_miss_streak();
        }
    }

    fn end_miss_streak(&self) {
        self.miss_streak.store(0, Ordering::Relaxed);
        self.miss_size.store(0, Ordering::Relaxed);
    }
}

impl<A: BuddyBackend, P: Placement> BuddyBackend for SlotSet<A, P> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// The **widened** geometry: `slot_count().next_power_of_two()`
    /// per-slot spans, per-slot `min_size`/`max_size`.
    fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    fn alloc(&self, size: usize) -> Option<usize> {
        let start = self.placement.start(self.fixed.len());
        if let Some(off) = self.probe(start, size) {
            self.note_hit(size);
            return Some(off);
        }
        if self.grow_under_pressure(size) {
            if let Some(off) = self.probe(start, size) {
                return Some(off);
            }
        }
        self.counters[start]
            .failed_allocs
            .fetch_add(1, Ordering::Relaxed);
        None
    }

    fn dealloc(&self, offset: usize) {
        let (backend, local) = self.owner(offset).expect("free into an unbuilt slot");
        backend.dealloc(local);
    }

    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        match self.owner(offset) {
            Some((backend, local)) => backend.try_dealloc(local),
            // Unbuilt slots and the phantom widening tail never produced
            // an offset; report the logical span.
            None => Err(FreeError::OutOfRange {
                offset,
                total_memory: self.total_memory(),
            }),
        }
    }

    /// The **logical** span, `slot_count() << shift`: smaller than the
    /// widened geometry's when the slot count is not a power of two, and
    /// *reserved, not committed* for unbuilt and dormant slots (a
    /// demand-zero [`crate::BuddyRegion`] backs them for free).
    fn total_memory(&self) -> usize {
        self.slot_count() << self.shift
    }

    fn allocated_bytes(&self) -> usize {
        self.built().map(|(_, b)| b.allocated_bytes()).sum()
    }

    fn stats(&self) -> OpStatsSnapshot {
        let mut acc = OpStatsSnapshot::default();
        for (_, b) in self.built() {
            acc.merge(&b.stats());
        }
        acc
    }

    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        let (backend, local) = self.owner(offset)?;
        backend.granted_size_of_live(local)
    }

    fn granted_size_for(&self, size: usize) -> Option<usize> {
        self.first().granted_size_for(size)
    }

    /// The slots' own alignment, capped by the slot stride (a packed
    /// offset is only as aligned as its slot base).
    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        let local = self.first().grant_alignment_for(size)?;
        Some(local.min(1 << self.shift))
    }

    fn frag_stats(&self) -> Option<FragStatsSnapshot> {
        self.merged(|_, b| b.frag_stats(), |acc, s| acc.merge(&s))
    }

    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.merged(|_, b| b.cache_stats(), |acc, s| acc.merge(&s))
    }

    /// Per class size, the *largest* capacity any slot's cache converged to.
    fn cache_class_capacities(&self) -> Option<Vec<(usize, usize)>> {
        let merged = self.merged(
            |_, b| {
                Some(
                    b.cache_class_capacities()?
                        .into_iter()
                        .collect::<BTreeMap<_, _>>(),
                )
            },
            |acc, caps| {
                for (size, cap) in caps {
                    let entry = acc.entry(size).or_insert(0);
                    *entry = (*entry).max(cap);
                }
            },
        );
        merged.map(|m| m.into_iter().collect())
    }

    fn drain_cache(&self) {
        for (_, b) in self.built() {
            b.drain_cache();
        }
    }

    /// Slot-local free chunks are rebased into the packed global space
    /// before merging, so the scrubber claims the right slot's blocks.
    fn occupancy(&self) -> Option<OccupancySnapshot> {
        self.merged(
            |i, b| {
                let mut s = b.occupancy()?;
                s.shift_free_chunks(i << self.shift);
                Some(s)
            },
            |acc, s| acc.merge(&s),
        )
    }

    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        self.merged(
            |i, b| {
                let base = i << self.shift;
                let chunks = b.free_chunks(min_size)?;
                Some(
                    chunks
                        .into_iter()
                        .map(|(off, size)| (base | off, size))
                        .collect(),
                )
            },
            |acc: &mut Vec<_>, chunks| acc.extend(chunks),
        )
    }

    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.owner(offset)
            .is_some_and(|(backend, local)| backend.scrub_claim(local, size))
    }

    fn scrub_dealloc(&self, offset: usize) {
        let (backend, local) = self
            .owner(offset)
            .expect("scrub release into an unbuilt slot");
        backend.scrub_dealloc(local);
    }

    /// Trims every built slot, then retires drained ones: the scrubber's
    /// periodic call is what drives an elastic chain back down at trough.
    fn trim_empty_pages(&self) -> usize {
        let trimmed = self.built().map(|(_, b)| b.trim_empty_pages()).sum();
        self.retire_idle();
        trimmed
    }
}

impl<A, P: std::fmt::Debug> std::fmt::Debug for SlotSet<A, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotSet")
            .field("name", &self.name)
            .field("fixed", &self.fixed.len())
            .field("grown", &self.grown.len())
            .field("placement", &self.placement)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuddyConfig, NbbsOneLevel};

    fn elastic(regions: usize, per_region: usize) -> ElasticSet<NbbsOneLevel> {
        let config = BuddyConfig::new(per_region, 64, per_region.min(1 << 12)).unwrap();
        ElasticSet::new(regions, move |_| NbbsOneLevel::new(config))
    }

    /// Allocates `size`, allowing the one miss that precedes a grow.
    fn alloc_growing(s: &ElasticSet<NbbsOneLevel>, size: usize) -> usize {
        s.alloc(size)
            .or_else(|| s.alloc(size))
            .expect("the set grows to serve")
    }

    #[test]
    fn growth_waits_for_two_consecutive_misses() {
        let s = elastic(2, 4096);
        let a = s.alloc(4096).unwrap();
        assert!(s.alloc(4096).is_none(), "first miss only bumps the streak");
        assert_eq!(s.elastic_stats().built_regions, 1);
        assert!(s.alloc(4096).is_some(), "second miss grows");
        assert_eq!(s.elastic_stats().grows, 1);
        s.dealloc(a);
    }

    #[test]
    fn retirement_parks_drained_regions_and_reactivates() {
        let s = elastic(3, 4096);
        let offs: Vec<usize> = (0..3).map(|_| alloc_growing(&s, 4096)).collect();
        for off in &offs {
            s.dealloc(*off);
        }
        assert_eq!(s.retire_idle(), 2, "both non-first regions retire");
        let stats = s.elastic_stats();
        assert_eq!(stats.active_regions, 1);
        assert_eq!(stats.built_regions, 3, "dormant regions stay built");
        assert_eq!(stats.retires, 2);
        // Dormant spans are fully free and visible to the scrubber.
        let snap = BuddyBackend::occupancy(&s).unwrap();
        assert_eq!(
            snap.free_chunks.iter().map(|&(_, sz)| sz).sum::<usize>(),
            3 * 4096
        );

        // Renewed pressure reactivates before building.
        let offs: Vec<usize> = (0..3).map(|_| alloc_growing(&s, 4096)).collect();
        let stats = s.elastic_stats();
        assert_eq!(stats.reactivations, 2);
        assert_eq!(stats.grows, 2, "no new builds needed");
        for off in offs {
            s.dealloc(off);
        }
    }

    #[test]
    fn retirement_aborts_when_a_region_is_live() {
        let s = elastic(2, 4096);
        let a = s.alloc(4096).unwrap();
        let b = alloc_growing(&s, 64);
        assert_ne!(s.owner_of(a), s.owner_of(b));
        s.dealloc(a);
        // Region 1 holds the 64-byte chunk: allocated_bytes != 0, no retire.
        assert_eq!(s.retire_idle(), 0);
        assert_eq!(s.elastic_stats().active_regions, 2);
        s.dealloc(b);
        assert_eq!(s.retire_idle(), 1);
        s.alloc(64).unwrap();
        // The first region is never retired, whoever is idle.
        assert_eq!(s.retire_idle(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panic() {
        let _ = elastic(0, 4096);
    }

    #[test]
    #[should_panic(expected = "share one geometry")]
    fn mismatched_geometries_panic() {
        let _ = SlotSet::with_placement(
            2,
            |i| NbbsOneLevel::new(BuddyConfig::new(4096 << i, 64, 4096).unwrap()),
            FirstSlot,
        );
    }
}
