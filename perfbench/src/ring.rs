//! A bounded single-producer, single-consumer ring: how blocks reach the
//! thread that frees them.
//!
//! The benchmark owns the handoff so that a remote free costs one slot
//! write and one release store, and the measured rate is the allocator's,
//! not a shared queue's.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use nbbs_sync::CachePadded;

/// Bounded SPSC ring of `Copy` items.
pub struct Spsc<T: Copy> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer reads; written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer writes; written only by the producer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: a slot is written by the one producer before the `Release` store
// of `tail` that publishes it, and read by the one consumer only after the
// `Acquire` load of `tail` shows it; the consumer's `Release` store of
// `head` hands the slot back before the producer's `Acquire` load lets it
// be overwritten.  Items are `Copy + Send`, so no drop runs on either side.
unsafe impl<T: Copy + Send> Sync for Spsc<T> {}

impl<T: Copy> Spsc<T> {
    /// A ring holding up to `capacity` items (rounded up to a power of two).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        Spsc {
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap - 1,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Appends `item`; hands it back when the ring is full.  Only the
    /// producer thread may call this.
    pub fn push(&self, item: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        if tail - self.head.load(Ordering::Acquire) > self.mask {
            return Err(item);
        }
        // SAFETY: the slot is outside `head..tail`, so the consumer does
        // not read it until the store below publishes it.
        unsafe { (*self.slots[tail & self.mask].get()).write(item) };
        self.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Removes the oldest item.  Only the consumer thread may call this.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `head < tail`, so the producer wrote this slot and
        // published it with the `Release` store the load above observed.
        let item = unsafe { (*self.slots[head & self.mask].get()).assume_init() };
        self.head.store(head + 1, Ordering::Release);
        Some(item)
    }
}
