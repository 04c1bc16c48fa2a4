//! Per-layer spans for the traced run.
//!
//! The benchmark places its own passthroughs between layers: [`Traced`]
//! between each pair of `BuddyBackend` layers, [`TracedShell`] around a
//! `GlobalAlloc`, and [`Wrap::span`] around the benchmark's calls into the
//! facade.  Each records `{layer, start, end, parent}` into a fixed
//! per-thread buffer that is folded into per-layer totals when it fills
//! and when the thread's work ends.  Spans on one thread nest, so a
//! layer's self time is its spans' time minus the time of the spans whose
//! parent is that layer.
//!
//! Untraced runs use [`Plain`], which inserts nothing: the composed type
//! is exactly the stack under test.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::RefCell;

use nbbs::error::{AllocError, FreeError};
use nbbs::stats::{CacheStatsSnapshot, FragStatsSnapshot, OpStatsSnapshot};
use nbbs::{BuddyBackend, Geometry, OccupancySnapshot};
use nbbs_sync::cycles_now;

/// The layers a span can belong to, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The `GlobalAlloc` shell (`NbbsGlobalAlloc`).
    Shell,
    /// The layout facade (`NbbsAllocator`).
    Facade,
    /// The magazine cache (`MagazineCache`).
    Cache,
    /// The size-class slab (`SlabBackend`).
    Slab,
    /// The region set (`ElasticSet`).
    Set,
    /// The lock-free buddy tree (`NbbsFourLevel`).
    Tree,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

impl Layer {
    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        ["shell", "facade", "cache", "slab", "set", "tree"][self as usize]
    }
}

const NO_PARENT: u8 = u8::MAX;
/// Spans buffered per thread before they are folded.
const CAPACITY: usize = 4096;
/// Deepest nesting tracked (the stack has at most six layers).
const DEPTH: usize = 16;

/// One recorded call into a layer.
#[derive(Clone, Copy)]
struct Span {
    start: u64,
    end: u64,
    layer: u8,
    /// Layer of the enclosing span on this thread, or [`NO_PARENT`].
    parent: u8,
    alloc: bool,
    failed: bool,
}

/// Folded counts of one layer, times in cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Spans that were allocation requests.
    pub allocs: u64,
    /// Allocation requests the layer failed.
    pub fails: u64,
    /// Cycles inside the layer's spans.
    pub cycles: u64,
    /// Cycles inside spans whose parent is this layer.
    pub child_cycles: u64,
}

impl LayerTotals {
    /// Cycles spent in the layer itself.
    pub fn self_cycles(&self) -> u64 {
        self.cycles.saturating_sub(self.child_cycles)
    }
}

/// Per-layer totals of one or more threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals(pub [LayerTotals; LAYERS]);

impl Totals {
    /// The totals of `layer`.
    pub fn of(&self, layer: Layer) -> &LayerTotals {
        &self.0[layer as usize]
    }

    /// Adds another thread's totals.
    pub fn merge(&mut self, other: &Totals) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.calls += b.calls;
            a.allocs += b.allocs;
            a.fails += b.fails;
            a.cycles += b.cycles;
            a.child_cycles += b.child_cycles;
        }
    }
}

struct ThreadSpans {
    buf: [Span; CAPACITY],
    len: usize,
    stack: [u8; DEPTH],
    depth: usize,
    totals: Totals,
}

impl ThreadSpans {
    fn fold(&mut self) {
        for s in &self.buf[..self.len] {
            let d = s.end.saturating_sub(s.start);
            let t = &mut self.totals.0[s.layer as usize];
            t.calls += 1;
            t.allocs += u64::from(s.alloc);
            t.fails += u64::from(s.failed);
            t.cycles += d;
            if s.parent != NO_PARENT {
                self.totals.0[s.parent as usize].child_cycles += d;
            }
        }
        self.len = 0;
    }
}

thread_local! {
    // Constant-initialised and without a destructor: recording never
    // allocates, so it is safe inside a global allocator at any point of a
    // thread's life.
    static SPANS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans {
            buf: [Span { start: 0, end: 0, layer: 0, parent: NO_PARENT, alloc: false, failed: false }; CAPACITY],
            len: 0,
            stack: [NO_PARENT; DEPTH],
            depth: 0,
            totals: Totals([LayerTotals { calls: 0, allocs: 0, fails: 0, cycles: 0, child_cycles: 0 }; LAYERS]),
        })
    };
}

/// An open span.
struct Open {
    layer: u8,
    start: u64,
}

/// Opens a span of `layer` on this thread.
#[inline]
fn enter(layer: Layer) -> Open {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let depth = s.depth;
        if depth < DEPTH {
            s.stack[depth] = layer as u8;
        }
        s.depth = depth + 1;
    });
    Open {
        layer: layer as u8,
        start: cycles_now(),
    }
}

/// Closes `open`; `alloc` marks an allocation request, `failed` one the
/// layer could not serve.
#[inline]
fn exit(open: Open, alloc: bool, failed: bool) {
    let end = cycles_now();
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.depth -= 1;
        let parent = match s.depth {
            0 => NO_PARENT,
            d => s.stack[(d - 1).min(DEPTH - 1)],
        };
        let i = s.len;
        s.buf[i] = Span {
            start: open.start,
            end,
            layer: open.layer,
            parent,
            alloc,
            failed,
        };
        s.len = i + 1;
        if s.len == CAPACITY {
            s.fold();
        }
    });
}

/// Discards this thread's spans and totals (called when its timed work
/// starts).
pub fn reset_thread() {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.len = 0;
        s.totals = Totals::default();
    });
}

/// Folds and returns this thread's totals, leaving them empty.
pub fn take_thread() -> Totals {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.fold();
        std::mem::take(&mut s.totals)
    })
}

/// Span-recording passthrough over a `BuddyBackend` layer.  Every trait
/// method is forwarded, so grant-size, scrub and maintenance hooks behave
/// exactly as without it; the four allocation-path methods record a span.
pub struct Traced<A> {
    inner: A,
    layer: Layer,
}

impl<A: BuddyBackend> Traced<A> {
    #[inline]
    fn alloc_span<T>(&self, f: impl FnOnce(&A) -> Option<T>) -> Option<T> {
        let open = enter(self.layer);
        let out = f(&self.inner);
        exit(open, true, out.is_none());
        out
    }

    #[inline]
    fn free_span<T>(&self, f: impl FnOnce(&A) -> T) -> T {
        let open = enter(self.layer);
        let out = f(&self.inner);
        exit(open, false, false);
        out
    }
}

impl<A: BuddyBackend> BuddyBackend for Traced<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn geometry(&self) -> &Geometry {
        self.inner.geometry()
    }
    fn alloc(&self, size: usize) -> Option<usize> {
        self.alloc_span(|a| a.alloc(size))
    }
    fn dealloc(&self, offset: usize) {
        self.free_span(|a| a.dealloc(offset))
    }
    fn try_alloc(&self, size: usize) -> Result<usize, AllocError> {
        let mut err = None;
        self.alloc_span(|a| a.try_alloc(size).map_err(|e| err = Some(e)).ok())
            .ok_or_else(|| err.expect("a failed try_alloc reports its error"))
    }
    fn try_dealloc(&self, offset: usize) -> Result<(), FreeError> {
        self.free_span(|a| a.try_dealloc(offset))
    }
    fn total_memory(&self) -> usize {
        self.inner.total_memory()
    }
    fn min_size(&self) -> usize {
        self.inner.min_size()
    }
    fn max_size(&self) -> usize {
        self.inner.max_size()
    }
    fn allocated_bytes(&self) -> usize {
        self.inner.allocated_bytes()
    }
    fn stats(&self) -> OpStatsSnapshot {
        self.inner.stats()
    }
    fn granted_size_of_live(&self, offset: usize) -> Option<usize> {
        self.inner.granted_size_of_live(offset)
    }
    fn granted_size_for(&self, size: usize) -> Option<usize> {
        self.inner.granted_size_for(size)
    }
    fn grant_alignment_for(&self, size: usize) -> Option<usize> {
        self.inner.grant_alignment_for(size)
    }
    fn frag_stats(&self) -> Option<FragStatsSnapshot> {
        self.inner.frag_stats()
    }
    fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.inner.cache_stats()
    }
    fn cache_class_capacities(&self) -> Option<Vec<(usize, usize)>> {
        self.inner.cache_class_capacities()
    }
    fn drain_cache(&self) {
        self.inner.drain_cache()
    }
    fn occupancy(&self) -> Option<OccupancySnapshot> {
        self.inner.occupancy()
    }
    fn free_chunks(&self, min_size: usize) -> Option<Vec<(usize, usize)>> {
        self.inner.free_chunks(min_size)
    }
    fn scrub_claim(&self, offset: usize, size: usize) -> bool {
        self.inner.scrub_claim(offset, size)
    }
    fn scrub_dealloc(&self, offset: usize) {
        self.inner.scrub_dealloc(offset)
    }
    fn trim_empty_pages(&self) -> usize {
        self.inner.trim_empty_pages()
    }
}

/// Chooses at compile time whether layers get a [`Traced`] passthrough.
pub trait Wrap: 'static {
    /// `A` as composed into the stack.
    type W<A: BuddyBackend>: BuddyBackend;
    /// Composes `inner` as the `layer` layer.
    fn wrap<A: BuddyBackend>(inner: A, layer: Layer) -> Self::W<A>;
    /// The layer under the wrapper.
    fn peel<A: BuddyBackend>(outer: &Self::W<A>) -> &A;
    /// Runs a benchmark call into `layer` (an allocation request if `alloc`).
    fn span<R>(layer: Layer, alloc: bool, f: impl FnOnce() -> R) -> R;
}

/// No passthroughs: the untraced stack.
pub enum Plain {}

/// A [`Traced`] passthrough on every layer.
pub enum Spans {}

impl Wrap for Plain {
    type W<A: BuddyBackend> = A;
    fn wrap<A: BuddyBackend>(inner: A, _: Layer) -> A {
        inner
    }
    fn peel<A: BuddyBackend>(outer: &A) -> &A {
        outer
    }
    #[inline]
    fn span<R>(_: Layer, _: bool, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Wrap for Spans {
    type W<A: BuddyBackend> = Traced<A>;
    fn wrap<A: BuddyBackend>(inner: A, layer: Layer) -> Traced<A> {
        Traced { inner, layer }
    }
    fn peel<A: BuddyBackend>(outer: &Traced<A>) -> &A {
        &outer.inner
    }
    #[inline]
    fn span<R>(layer: Layer, alloc: bool, f: impl FnOnce() -> R) -> R {
        let open = enter(layer);
        let out = f();
        exit(open, alloc, false);
        out
    }
}

/// Span-recording passthrough around a global allocator: every call is a
/// [`Layer::Shell`] span.
pub struct TracedShell<G>(pub G);

// SAFETY: every method forwards to the wrapped allocator with the caller's
// arguments unchanged and returns its result; recording the span touches
// only this thread's constant-initialised buffer and never allocates.
unsafe impl<G: GlobalAlloc> GlobalAlloc for TracedShell<G> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let open = enter(Layer::Shell);
        // SAFETY: forwarded caller contract.
        let p = unsafe { self.0.alloc(layout) };
        exit(open, true, p.is_null());
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let open = enter(Layer::Shell);
        // SAFETY: forwarded caller contract.
        unsafe { self.0.dealloc(ptr, layout) };
        exit(open, false, false);
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let open = enter(Layer::Shell);
        // SAFETY: forwarded caller contract.
        let p = unsafe { self.0.alloc_zeroed(layout) };
        exit(open, true, p.is_null());
        p
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let open = enter(Layer::Shell);
        // SAFETY: forwarded caller contract.
        let p = unsafe { self.0.realloc(ptr, layout, new_size) };
        exit(open, true, p.is_null());
        p
    }
}
