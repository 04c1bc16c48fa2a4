//! `tree-larson` and `stack-handoff`: one fixed-work round of a composed
//! stack, printed as one JSON line.
//!
//! * `tree-larson` drives the bare `NbbsFourLevel`: Larson-style slots
//!   whose blocks are replaced at random with log-uniform sizes, about
//!   30% of them freed by the other thread through an SPSC ring.
//! * `stack-handoff` drives `NbbsAllocator<MagazineCache<SlabBackend<
//!   ElasticSet<NbbsFourLevel>>>>` as a producer/consumer pipeline: each
//!   request is a slab-class header plus a body grown in steps, and every
//!   request is freed by the other thread.  Waves push the working set
//!   past the first region; a trough (drain, trim, scrub) ends the round.
//!
//! `--traced` composes the same stack with a span-recording passthrough
//! between every pair of layers.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use nbbs::{BuddyBackend, BuddyConfig, ElasticSet, NbbsFourLevel};
use nbbs_alloc::NbbsAllocator;
use nbbs_cache::MagazineCache;
use nbbs_slab::SlabBackend;
use nbbs_sync::cycles_now;
use perfbench::ring::Spsc;
use perfbench::spans::{self, Layer, Plain, Spans, Totals, Wrap};
use perfbench::util::{
    check, pattern, percentile, proc_status_kb, ratio, stamp, tree_new_ms, Args, Clock, Report, Rng,
};

fn main() {
    let args = Args::parse();
    let out = match (args.workload.as_str(), args.traced) {
        ("tree-larson", false) => tree_larson::<Plain>(&args),
        ("tree-larson", true) => tree_larson::<Spans>(&args),
        ("stack-handoff", false) => stack_handoff::<Plain>(&args),
        ("stack-handoff", true) => stack_handoff::<Spans>(&args),
        (w, _) => {
            eprintln!("unknown workload {w:?}: expected tree-larson or stack-handoff");
            std::process::exit(2);
        }
    };
    out.print();
}

/// One allocator call in this many is timed.
const SAMPLE_EVERY: u64 = 8;

/// Per-thread results of a timed phase.
#[derive(Default)]
struct Tally {
    samples: Vec<u64>,
    requests: u64,
    /// Requests that could not be completed.
    failed: u64,
    /// Allocation attempts, and those the stack refused.
    attempts: u64,
    refused: u64,
    mismatches: u64,
    spans: Totals,
}

impl Tally {
    fn merge(mut self, other: Tally) -> Tally {
        self.samples.extend(other.samples);
        self.requests += other.requests;
        self.failed += other.failed;
        self.attempts += other.attempts;
        self.refused += other.refused;
        self.mismatches += other.mismatches;
        self.spans.merge(&other.spans);
        self
    }
}

/// Writes the end-to-end fields every workload reports.
fn report_common(
    out: &mut Report,
    setup_ns: u64,
    run_ns: u64,
    ns_per_cycle: f64,
    tally: &mut Tally,
) {
    tally.samples.sort_unstable();
    out.num("setup_ns", setup_ns as f64)
        .num("run_ns", run_ns as f64)
        .num(
            "req_p50_ns",
            percentile(&tally.samples, 0.50) as f64 * ns_per_cycle,
        )
        .num(
            "req_p99_ns",
            percentile(&tally.samples, 0.99) as f64 * ns_per_cycle,
        )
        .num("samples", tally.samples.len() as f64)
        .num("attempted", tally.requests as f64)
        .num("failed", tally.failed as f64)
        .num(
            "fail_frac",
            ratio(tally.refused as f64, tally.attempts as f64),
        )
        .num("mismatches", tally.mismatches as f64);
}

/// Self time per call, calls per thousand requests and refused share of
/// allocation calls of one layer.
fn report_layer(out: &mut Report, layer: Layer, spans: &Totals, requests: u64, ns_per_cycle: f64) {
    let t = spans.of(layer);
    let name = layer.name();
    out.num(
        &format!("{name}.self_ns"),
        ratio(t.self_cycles() as f64 * ns_per_cycle, t.calls as f64),
    )
    .num(
        &format!("{name}.calls_per_kreq"),
        ratio(t.calls as f64 * 1e3, requests as f64),
    )
    .num(
        &format!("{name}.fail_frac"),
        ratio(t.fails as f64, t.allocs as f64),
    );
}

// ---------------------------------------------------------------- tree-larson

const TREE_TOTAL: usize = 64 << 20;
const TREE_MIN: usize = 64;
const TREE_MAX: usize = 16 << 10;
/// Live slots per thread.
const LARSON_SLOTS: usize = 512;
/// Slot replacements per thread in the timed phase.
const LARSON_ITERS: u64 = 250_000;
/// Untimed slot replacements per thread before the timed phase.
const LARSON_WARMUP: u64 = 50_000;
/// Share of frees handed to the other thread, in percent.
const REMOTE_PCT: u64 = 30;

#[derive(Clone, Copy)]
struct Block {
    offset: usize,
    size: usize,
    pat: u64,
}

/// Zeroed memory behind the bare tree's offsets, so grants can be stamped.
struct Arena {
    base: *mut u8,
    layout: Layout,
}

// SAFETY: the arena is only accessed through `stamp`/`check`, which use
// atomic word operations; the pointer itself is never reassigned.
unsafe impl Sync for Arena {}

impl Arena {
    fn new(size: usize) -> Arena {
        let layout = Layout::from_size_align(size, 4096).expect("arena layout");
        // SAFETY: `layout` has non-zero size.
        let base = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!base.is_null(), "arena allocation failed");
        // Fault every page in now: first touches inside the timed phase
        // would measure the kernel, not the tree.
        // SAFETY: `base` points to `size` writable bytes.
        unsafe { base.write_bytes(0, size) };
        Arena { base, layout }
    }

    fn at(&self, offset: usize) -> *mut u8 {
        debug_assert!(offset < self.layout.size());
        self.base.wrapping_add(offset)
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // SAFETY: allocated in `new` with this layout.
        unsafe { std::alloc::dealloc(self.base, self.layout) };
    }
}

struct Larson<'a, B> {
    tree: &'a B,
    arena: &'a Arena,
    seed: u64,
    tally: Tally,
}

impl<B: BuddyBackend> Larson<'_, B> {
    fn timed<R>(&mut self, f: impl FnOnce(&B) -> R) -> R {
        let sampled = self.tally.requests.is_multiple_of(SAMPLE_EVERY);
        self.tally.requests += 1;
        if sampled {
            let c0 = cycles_now();
            let r = f(self.tree);
            self.tally.samples.push(cycles_now() - c0);
            r
        } else {
            f(self.tree)
        }
    }

    fn alloc(&mut self, size: usize, id: u64) -> Option<Block> {
        self.tally.attempts += 1;
        let Some(offset) = self.timed(|t| t.alloc(size)) else {
            self.tally.failed += 1;
            self.tally.refused += 1;
            return None;
        };
        let pat = pattern(self.seed, id);
        // SAFETY: the tree granted `[offset, offset + size)` inside the
        // arena; offsets are multiples of the 64-byte unit.
        unsafe { stamp(self.arena.at(offset), size, pat) };
        Some(Block { offset, size, pat })
    }

    fn free(&mut self, b: Block) {
        // SAFETY: `b` is a live grant of this tree (see `alloc`).
        if !unsafe { check(self.arena.at(b.offset), b.size, b.pat) } {
            self.tally.mismatches += 1;
        }
        self.timed(|t| t.dealloc(b.offset));
    }

    /// Replaces the block of a random slot: the old one is freed here, or
    /// handed to `next` with probability `REMOTE_PCT` (freed here when the
    /// ring is full); the new one gets a log-uniform size.
    fn replace(
        &mut self,
        slots: &mut [Option<Block>],
        rng: &mut Rng,
        id: u64,
        next: Option<&Spsc<Block>>,
    ) {
        let k = rng.below(slots.len() as u64) as usize;
        if let Some(b) = slots[k].take() {
            match next {
                Some(ring) if rng.percent(REMOTE_PCT) => {
                    if let Err(b) = ring.push(b) {
                        self.free(b);
                    }
                }
                _ => self.free(b),
            }
        }
        slots[k] = self.alloc(rng.log_uniform(TREE_MIN, TREE_MAX), id);
    }
}

fn tree_larson<W: Wrap>(args: &Args) -> Report {
    let threads = args.threads;
    let config =
        BuddyConfig::new(TREE_TOTAL, TREE_MIN, TREE_MAX).expect("valid tree configuration");
    let t = Instant::now();
    let tree = W::wrap(NbbsFourLevel::new(config), Layer::Tree);
    let setup_ns = t.elapsed().as_nanos() as u64;

    let arena = Arena::new(TREE_TOTAL);
    let rings: Vec<Spsc<Block>> = (0..threads).map(|_| Spsc::new(4096)).collect();
    let done = AtomicUsize::new(0);
    let barrier = Barrier::new(threads + 1);
    let (run_ns, ns_per_cycle, results) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (tree, arena, rings, done, barrier) = (&tree, &arena, &rings, &done, &barrier);
                s.spawn(move || {
                    let mut rng = Rng::new(args.seed, t as u64);
                    let mut id = (t as u64) << 40;
                    let mut d = Larson {
                        tree,
                        arena,
                        seed: args.seed,
                        tally: Tally::default(),
                    };
                    let mut slots: Vec<Option<Block>> = (0..LARSON_SLOTS)
                        .map(|_| {
                            id += 1;
                            d.alloc(rng.log_uniform(TREE_MIN, TREE_MAX), id)
                        })
                        .collect();
                    // Warm-up with local frees only: the tree's metadata
                    // pages are faulted in before the timed phase.
                    for _ in 0..LARSON_WARMUP {
                        id += 1;
                        d.replace(&mut slots, &mut rng, id, None);
                    }
                    // Only the timed phase is measured; defects found
                    // before it still count.
                    d.tally = Tally {
                        samples: Vec::with_capacity((3 * LARSON_ITERS / SAMPLE_EVERY) as usize),
                        failed: d.tally.failed,
                        mismatches: d.tally.mismatches,
                        ..Tally::default()
                    };
                    let (mine, next) = (&rings[t], &rings[(t + 1) % threads]);
                    barrier.wait();
                    spans::reset_thread();
                    for _ in 0..LARSON_ITERS {
                        while let Some(b) = mine.pop() {
                            d.free(b);
                        }
                        id += 1;
                        d.replace(&mut slots, &mut rng, id, Some(next));
                    }
                    done.fetch_add(1, Ordering::Release);
                    // Every push precedes its producer's `done` increment,
                    // so once all are counted one more drain empties the ring.
                    loop {
                        let all_done = done.load(Ordering::Acquire) == threads;
                        while let Some(b) = mine.pop() {
                            d.free(b);
                        }
                        if all_done {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    d.tally.spans = spans::take_thread();
                    (d.tally, slots)
                })
            })
            .collect();
        barrier.wait();
        let clock = Clock::start();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("larson worker panicked"))
            .collect();
        let (run_ns, ns_per_cycle) = clock.stop();
        (run_ns, ns_per_cycle, results)
    });
    let peak_kb = proc_status_kb("VmHWM");

    let mut cleanup = Larson {
        tree: &tree,
        arena: &arena,
        seed: args.seed,
        tally: Tally::default(),
    };
    let mut tally = Tally::default();
    for (t, slots) in results {
        tally = tally.merge(t);
        for b in slots.into_iter().flatten() {
            cleanup.free(b);
        }
    }
    tally.mismatches += cleanup.tally.mismatches;
    let leaked = tree.allocated_bytes();

    let mut out = Report::default();
    let requests = tally.requests;
    report_common(&mut out, setup_ns, run_ns, ns_per_cycle, &mut tally);
    let ops = tree.stats();
    out.num("peak_kb", peak_kb as f64)
        .num("trough_kb", proc_status_kb("VmRSS") as f64)
        .num("leaked_bytes", leaked as f64)
        .num("c.tree.calls", (ops.allocs + ops.frees) as f64)
        .num("tree.cas_per_op", ops.cas_per_op())
        .num(
            "tree.cas_fail_per_op",
            ratio(ops.cas_failures as f64, (ops.allocs + ops.frees) as f64),
        )
        .num("tree.new_ms", setup_ns as f64 / 1e6);
    report_layer(&mut out, Layer::Tree, &tally.spans, requests, ns_per_cycle);
    out
}

// -------------------------------------------------------------- stack-handoff

/// Bytes managed by each `ElasticSet` region.
const REGION: usize = 8 << 20;
const MAX_REGIONS: usize = 8;
/// Requests each thread produces, then consumes, per wave.
const WAVE: usize = 1024;
const WAVES: usize = 64;
const HEADER_MIN: usize = 16;
const HEADER_MAX: usize = 512;
/// Bodies start here and double until they reach their target size.
const BODY_START: usize = 64;
const BODY_MAX: usize = 32 << 10;
/// Attempts per allocating call before the request counts as failed.
/// `ElasticSet` grows only after two consecutive misses, and its miss
/// streak is shared: any thread's success resets it.  A large request can
/// therefore miss several times in a row while the other thread's smaller
/// ones succeed, until frees or a grow let it through.
const MAX_ATTEMPTS: usize = 64;

type Tree<W> = <W as Wrap>::W<NbbsFourLevel>;
type Set<W> = <W as Wrap>::W<ElasticSet<Tree<W>>>;
type Slab<W> = <W as Wrap>::W<SlabBackend<Set<W>>>;
type Cache<W> = <W as Wrap>::W<MagazineCache<Slab<W>>>;
type Stack<W> = NbbsAllocator<Cache<W>>;

#[derive(Clone, Copy)]
struct Request {
    header: NonNull<u8>,
    header_size: usize,
    body: NonNull<u8>,
    body_size: usize,
    pat: u64,
}

// SAFETY: a request is handed to exactly one consumer, which becomes the
// sole owner of both blocks.
unsafe impl Send for Request {}

fn layout(size: usize) -> Layout {
    Layout::from_size_align(size, 8).expect("request layout")
}

struct Handoff<'a, W: Wrap> {
    stack: &'a Stack<W>,
    tally: Tally,
}

impl<W: Wrap> Handoff<'_, W> {
    /// Runs an allocating facade call, retrying refusals: `ElasticSet`
    /// grows only after consecutive misses, so a program under pressure
    /// retries.  Refused attempts count towards `fail_frac`; a request
    /// that exhausts its retries counts as failed.
    fn retrying<T, E>(&mut self, mut f: impl FnMut(&Stack<W>) -> Result<T, E>) -> Option<T> {
        for _ in 0..MAX_ATTEMPTS {
            self.tally.attempts += 1;
            match W::span(Layer::Facade, true, || f(self.stack)) {
                Ok(v) => return Some(v),
                Err(_) => self.tally.refused += 1,
            }
        }
        self.tally.failed += 1;
        None
    }

    fn allocate(&mut self, size: usize) -> Option<NonNull<u8>> {
        self.retrying(|s| s.allocate(layout(size)))
            .map(NonNull::cast)
    }

    fn deallocate(&mut self, ptr: NonNull<u8>, size: usize) {
        // SAFETY: `ptr` was allocated (or last grown) with `layout(size)`
        // by this facade and is owned by the caller.
        W::span(Layer::Facade, false, || unsafe {
            self.stack.deallocate(ptr, layout(size))
        });
    }

    /// Builds one request: header, then a body grown in doubling steps.
    fn produce(&mut self, rng: &mut Rng, seed: u64, id: u64) -> Option<Request> {
        let header_size = rng.log_uniform(HEADER_MIN, HEADER_MAX);
        let target = rng.log_uniform(BODY_START, BODY_MAX);
        let pat = pattern(seed, id);
        let header = self.allocate(header_size)?;
        // SAFETY: the facade just granted at least `header_size` bytes,
        // 8-aligned (the layout's alignment).
        unsafe { stamp(header.as_ptr(), header_size, pat) };
        let Some(mut body) = self.allocate(BODY_START) else {
            self.deallocate(header, header_size);
            return None;
        };
        // SAFETY: as for the header.
        unsafe { stamp(body.as_ptr(), BODY_START, !pat) };
        let mut size = BODY_START;
        while size < target {
            let next = (size * 2).min(target);
            // SAFETY: `body` is live with `layout(size)`, and `next > size`;
            // a refused grow leaves it live and unchanged.
            let grown = self.retrying(|s| unsafe { s.grow(body, layout(size), layout(next)) });
            match grown {
                Some(block) => (body, size) = (block.cast(), next),
                None => {
                    self.deallocate(body, size);
                    self.deallocate(header, header_size);
                    return None;
                }
            }
        }
        // The first stamp must have survived every grow's copy.
        // SAFETY: `body` is live with `size >= BODY_START` bytes.
        if !unsafe { check(body.as_ptr(), BODY_START, !pat) } {
            self.tally.mismatches += 1;
        }
        // SAFETY: as above.
        unsafe { stamp(body.as_ptr(), size, !pat) };
        Some(Request {
            header,
            header_size,
            body,
            body_size: size,
            pat,
        })
    }

    fn consume(&mut self, r: Request) {
        // SAFETY: the consumer owns both blocks of the request.
        let intact = unsafe {
            check(r.header.as_ptr(), r.header_size, r.pat)
                && check(r.body.as_ptr(), r.body_size, !r.pat)
        };
        if !intact {
            self.tally.mismatches += 1;
        }
        self.deallocate(r.header, r.header_size);
        self.deallocate(r.body, r.body_size);
    }
}

fn build_stack<W: Wrap>(config: BuddyConfig) -> Stack<W> {
    let set = ElasticSet::new(MAX_REGIONS, move |_| {
        W::wrap(NbbsFourLevel::new(config), Layer::Tree)
    });
    let slab = SlabBackend::new(W::wrap(set, Layer::Set));
    NbbsAllocator::new(W::wrap(
        MagazineCache::new(W::wrap(slab, Layer::Slab)),
        Layer::Cache,
    ))
}

fn slab_of<W: Wrap>(stack: &Stack<W>) -> &SlabBackend<Set<W>> {
    W::peel(W::peel(stack.backend()).backend())
}

fn stack_handoff<W: Wrap>(args: &Args) -> Report {
    let threads = args.threads;
    let config = BuddyConfig::new(REGION, 64, 64 << 10).expect("valid region configuration");
    let t = Instant::now();
    let stack = build_stack::<W>(config);
    let setup_ns = t.elapsed().as_nanos() as u64;
    // Start from a scrubbed region, so committed bytes count what the
    // round touched rather than the whole reserved span.
    stack.region().scrub_pass();

    // `None` stands for a request that failed, so the consumer still
    // counts a full wave.
    let rings: Vec<Spsc<Option<Request>>> = (0..threads).map(|_| Spsc::new(2 * WAVE)).collect();
    let barrier = Barrier::new(threads + 1);
    let pages_peak = AtomicUsize::new(0);
    let (run_ns, ns_per_cycle, results) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (stack, rings, barrier, pages_peak) = (&stack, &rings, &barrier, &pages_peak);
                s.spawn(move || {
                    let mut rng = Rng::new(args.seed, t as u64);
                    let mut d = Handoff::<W> {
                        stack,
                        tally: Tally {
                            samples: Vec::with_capacity(WAVES * WAVE / SAMPLE_EVERY as usize + 1),
                            ..Tally::default()
                        },
                    };
                    let (mine, next) = (&rings[t], &rings[(t + 1) % threads]);
                    let mut id = (t as u64) << 40;
                    barrier.wait();
                    spans::reset_thread();
                    for _ in 0..WAVES {
                        for _ in 0..WAVE {
                            let sampled = d.tally.requests.is_multiple_of(SAMPLE_EVERY);
                            d.tally.requests += 1;
                            id += 1;
                            let c0 = cycles_now();
                            let mut r = d.produce(&mut rng, args.seed, id);
                            // A full ring waits for the consumer; rings
                            // hold two waves, so it never waits long.
                            while let Err(back) = next.push(r) {
                                r = back;
                                std::thread::yield_now();
                            }
                            if sampled {
                                d.tally.samples.push(cycles_now() - c0);
                            }
                        }
                        if t == 0 {
                            let live = slab_of::<W>(stack).frag_snapshot().pages_live as usize;
                            pages_peak.fetch_max(live, Ordering::Relaxed);
                        }
                        for _ in 0..WAVE {
                            let r = loop {
                                match mine.pop() {
                                    Some(r) => break r,
                                    None => std::thread::yield_now(),
                                }
                            };
                            if let Some(r) = r {
                                d.consume(r);
                            }
                        }
                    }
                    d.tally.spans = spans::take_thread();
                    d.tally
                })
            })
            .collect();
        barrier.wait();
        let clock = Clock::start();
        let results: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("handoff worker panicked"))
            .collect();
        let (run_ns, ns_per_cycle) = clock.stop();
        (run_ns, ns_per_cycle, results)
    });
    let peak_kb = proc_status_kb("VmHWM");
    // Regions never built count as committed in the region's accounting
    // but hold no pages; count only the built ones.
    let unbuilt = MAX_REGIONS
        - W::peel(slab_of::<W>(&stack).inner())
            .elastic_stats()
            .built_regions;
    let committed_peak = stack.memory_stats().committed_bytes as usize - unbuilt * REGION;
    let mut tally = results.into_iter().fold(Tally::default(), Tally::merge);

    // Trough: load has stopped; return parked chunks and warm pages, retire
    // idle regions and decommit what is free.
    let cache = W::peel(stack.backend());
    let slab = slab_of::<W>(&stack);
    let set = W::peel(slab.inner());
    let cache_stats = cache.snapshot();
    let frag = slab.frag_snapshot();
    stack.backend().drain_cache();
    let leaked = stack.allocated_bytes() + set.allocated_bytes();
    stack.backend().trim_empty_pages();
    let t = Instant::now();
    stack.region().scrub_pass();
    let scrub_ms = t.elapsed().as_secs_f64() * 1e3;
    let trough_kb = proc_status_kb("VmRSS");
    let mem = stack.memory_stats();
    let elastic = set.elastic_stats();
    let facade = stack.facade_stats();
    let ops = set.stats();

    let mut out = Report::default();
    let requests = tally.requests;
    report_common(&mut out, setup_ns, run_ns, ns_per_cycle, &mut tally);
    let tree_calls = (ops.allocs + ops.frees) as f64;
    let slab_allocs = tally.spans.of(Layer::Slab).allocs as f64;
    out.num("peak_kb", peak_kb as f64)
        .num("trough_kb", trough_kb as f64)
        .num("leaked_bytes", leaked as f64)
        .num("c.cache.hits", cache_stats.hits as f64)
        .num("c.cache.misses", cache_stats.misses as f64)
        .num("c.slab.pages_retired", frag.pages_retired as f64)
        .num(
            "c.slab.pages_live_peak",
            pages_peak.load(Ordering::Relaxed) as f64,
        )
        .num("c.tree.calls", tree_calls)
        .num("c.elastic.grows", elastic.grows as f64)
        .num("tree.cas_per_op", ops.cas_per_op())
        .num(
            "tree.cas_fail_per_op",
            ratio(ops.cas_failures as f64, tree_calls),
        )
        .num("tree.new_ms", tree_new_ms(config))
        .num("elastic.grows", elastic.grows as f64)
        .num("elastic.retires", elastic.retires as f64)
        .num(
            "slab.pages_live_peak",
            pages_peak.load(Ordering::Relaxed) as f64,
        )
        .num("slab.committed_over_requested", frag.ratio())
        .num(
            "slab.passthrough_frac",
            ratio(frag.passthrough_allocs as f64, slab_allocs),
        )
        .num("cache.hit_rate", cache_stats.hit_rate())
        .num(
            "cache.depot_exchanges_per_kreq",
            ratio(cache_stats.depot_exchanges as f64 * 1e3, requests as f64),
        )
        .num(
            "cache.flushed_per_kreq",
            ratio(cache_stats.flushed as f64 * 1e3, requests as f64),
        )
        .num(
            "cache.transient_retries",
            cache_stats.transient_retries as f64,
        )
        .num("facade.grow_in_place_rate", facade.grow_in_place_rate())
        .num(
            "facade.granted_over_requested",
            facade.granted_over_requested(),
        )
        .num("region.scrub_pass_ms", scrub_ms)
        .num(
            "region.committed_peak_mb",
            committed_peak as f64 / 1048576.0,
        )
        .num(
            "region.decommitted_mb",
            mem.decommitted_bytes as f64 / 1048576.0,
        )
        .num(
            "region.recommitted_mb",
            mem.recommitted_bytes as f64 / 1048576.0,
        );
    for layer in [
        Layer::Facade,
        Layer::Cache,
        Layer::Slab,
        Layer::Set,
        Layer::Tree,
    ] {
        report_layer(&mut out, layer, &tally.spans, requests, ns_per_cycle);
    }
    out
}
