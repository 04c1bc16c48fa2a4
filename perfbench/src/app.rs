//! `app-churn`: an ordinary allocation-heavy program, run under whichever
//! `#[global_allocator]` the calling binary declares.
//!
//! Each worker owns a `BTreeMap<u64, String>` and a `HashMap<u64, Vec<u8>>`
//! and applies seeded updates: `format!`ted values replacing old ones,
//! byte vectors growing through `realloc`, removals, and short-lived joined
//! strings.  One request is one update.  The program's output is an
//! order-independent checksum of the final maps, which must not depend on
//! the allocator.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::{Arc, Barrier};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use nbbs::BuddyConfig;
use nbbs_alloc::NbbsGlobalAlloc;
use nbbs_sync::cycles_now;

use crate::spans::{self, Layer, Totals};
use crate::util::{mix, percentile, proc_status_kb, ratio, tree_new_ms, Args, Clock, Report, Rng};

/// The shell configuration of `examples/global_allocator.rs`, which every
/// `app-churn` binary declares.
pub const SHELL_TOTAL: usize = 64 << 20;
/// Allocation unit of the shell's tree.
pub const SHELL_MIN: usize = 32;
/// Largest request the shell's tree serves.
pub const SHELL_MAX: usize = 64 << 10;

/// Updates each worker applies in the timed phase.
const UPDATES: u64 = 400_000;
/// Distinct keys per worker map.
const KEYS: u64 = 4096;
/// A byte vector is dropped and regrown from empty past this length.
const MAX_VEC: usize = 2048;
/// One update in this many is timed.
const SAMPLE_EVERY: u64 = 8;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

struct Worker {
    checksum: u64,
    samples: Vec<u64>,
    spans: Totals,
}

fn churn(seed: u64, thread: u64, barrier: &Barrier) -> Worker {
    let mut rng = Rng::new(seed, thread);
    let mut tree: BTreeMap<u64, String> = BTreeMap::new();
    // A fixed-key hasher: with per-process random keys, where removals
    // leave tombstones (and so when the table regrows) would change from
    // run to run, and the allocation sequence with it.
    let mut hash: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut samples = Vec::with_capacity((UPDATES / SAMPLE_EVERY + 1) as usize);
    let mut joined = 0u64;
    barrier.wait();
    spans::reset_thread();
    for i in 0..UPDATES {
        let t0 = i.is_multiple_of(SAMPLE_EVERY).then(cycles_now);
        let key = rng.below(KEYS);
        match rng.below(10) {
            0..=3 => {
                let value = format!("k{key}-u{i}-{:x}", rng.next_u64() >> 40);
                tree.insert(key, value);
            }
            4..=6 => {
                let add = 1 + rng.below(192) as usize;
                let v = hash.entry(key).or_default();
                if v.len() + add > MAX_VEC {
                    *v = Vec::new();
                }
                v.extend(std::iter::repeat_n((key ^ i) as u8, add));
            }
            7 => {
                tree.remove(&key);
            }
            8 => {
                hash.remove(&key);
            }
            _ => {
                let parts: Vec<String> = (0..1 + rng.below(8))
                    .map(|j| format!("{key}.{j}"))
                    .collect();
                joined = joined.wrapping_add(fnv(parts.join("/").as_bytes()));
            }
        }
        if let Some(t0) = t0 {
            samples.push(cycles_now() - t0);
        }
    }
    let mut checksum = joined;
    for (k, v) in &tree {
        checksum = checksum.wrapping_add(mix(k ^ fnv(v.as_bytes())));
    }
    for (k, v) in &hash {
        checksum = checksum.wrapping_add(mix(k.rotate_left(17) ^ fnv(v) ^ v.len() as u64));
    }
    drop((tree, hash));
    Worker {
        checksum: mix(checksum ^ thread),
        samples,
        spans: spans::take_thread(),
    }
}

/// Counters of the stock shell, read before and after the timed phase.
#[derive(Default, Clone, Copy)]
struct ShellCounters {
    hits: u64,
    misses: u64,
    depot_exchanges: u64,
    flushed: u64,
    transient_retries: u64,
    grows_in_place: u64,
    grows_moved: u64,
    requested: u64,
    granted: u64,
    local_allocs: u64,
    remote_allocs: u64,
    tree_allocs: u64,
    tree_frees: u64,
    tree_failed: u64,
    cas_ops: u64,
    cas_failures: u64,
    buddy_bytes: u64,
    system_bytes: u64,
    failovers: u64,
}

impl ShellCounters {
    fn read(g: &NbbsGlobalAlloc) -> Self {
        let cache = g.cache_stats().unwrap_or_default();
        let facade = g.facade_stats().unwrap_or_default();
        let nodes = g.node_stats().unwrap_or_default();
        let ops = g.metrics().backend_ops;
        let (buddy_bytes, system_bytes) = g.bytes_served();
        ShellCounters {
            hits: cache.hits,
            misses: cache.misses,
            depot_exchanges: cache.depot_exchanges,
            flushed: cache.flushed,
            transient_retries: cache.transient_retries,
            grows_in_place: facade.grows_in_place,
            grows_moved: facade.grows_moved,
            requested: facade.requested_bytes,
            granted: facade.granted_bytes,
            local_allocs: nodes.iter().map(|n| n.local_allocs).sum(),
            remote_allocs: nodes.iter().map(|n| n.remote_allocs).sum(),
            tree_allocs: ops.allocs,
            tree_frees: ops.frees,
            tree_failed: ops.failed_allocs,
            cas_ops: ops.cas_ops,
            cas_failures: ops.cas_failures,
            buddy_bytes,
            system_bytes,
            failovers: g.system_failovers(),
        }
    }

    fn since(&self, before: &Self) -> Self {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        ShellCounters {
            hits: d(self.hits, before.hits),
            misses: d(self.misses, before.misses),
            depot_exchanges: d(self.depot_exchanges, before.depot_exchanges),
            flushed: d(self.flushed, before.flushed),
            transient_retries: d(self.transient_retries, before.transient_retries),
            grows_in_place: d(self.grows_in_place, before.grows_in_place),
            grows_moved: d(self.grows_moved, before.grows_moved),
            requested: d(self.requested, before.requested),
            granted: d(self.granted, before.granted),
            local_allocs: d(self.local_allocs, before.local_allocs),
            remote_allocs: d(self.remote_allocs, before.remote_allocs),
            tree_allocs: d(self.tree_allocs, before.tree_allocs),
            tree_frees: d(self.tree_frees, before.tree_frees),
            tree_failed: d(self.tree_failed, before.tree_failed),
            cas_ops: d(self.cas_ops, before.cas_ops),
            cas_failures: d(self.cas_failures, before.cas_failures),
            buddy_bytes: d(self.buddy_bytes, before.buddy_bytes),
            system_bytes: d(self.system_bytes, before.system_bytes),
            failovers: d(self.failovers, before.failovers),
        }
    }
}

/// Runs one `app-churn` round and prints its report.  `shell` is the
/// binary's `NbbsGlobalAlloc`, or `None` under `std::alloc::System`.
pub fn main(shell: Option<&'static NbbsGlobalAlloc>) {
    // The stack is built by the first allocation (normally one of std's
    // before `main`); set-up ends once a request has been served.
    drop(std::hint::black_box(Box::new(0u64)));
    let ready_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let args = Args::parse();
    if let Some(g) = shell {
        // Start from a scrubbed region, so committed bytes count what the
        // round touched rather than the whole reserved span.
        g.scrub_pass();
    }
    let before = shell.map(ShellCounters::read);

    let barrier = Arc::new(Barrier::new(args.threads + 1));
    let handles: Vec<_> = (0..args.threads as u64)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            let seed = args.seed;
            std::thread::spawn(move || churn(seed, t, &barrier))
        })
        .collect();
    barrier.wait();
    let clock = Clock::start();
    let workers: Vec<Worker> = handles
        .into_iter()
        .map(|h| h.join().expect("churn worker panicked"))
        .collect();
    let (run_ns, ns_per_cycle) = clock.stop();
    let peak_kb = proc_status_kb("VmHWM");

    let mut samples: Vec<u64> = workers
        .iter()
        .flat_map(|w| w.samples.iter().copied())
        .collect();
    samples.sort_unstable();
    let checksum = workers.iter().fold(0u64, |acc, w| acc ^ w.checksum);
    let mut shell_spans = Totals::default();
    for w in &workers {
        shell_spans.merge(&w.spans);
    }
    drop(workers);

    let mut out = Report::default();
    let requests = args.threads as u64 * UPDATES;
    out.num("ready_unix_ns", ready_unix_ns as f64)
        .num("run_ns", run_ns as f64)
        .num(
            "req_p50_ns",
            percentile(&samples, 0.50) as f64 * ns_per_cycle,
        )
        .num(
            "req_p99_ns",
            percentile(&samples, 0.99) as f64 * ns_per_cycle,
        )
        .num("samples", samples.len() as f64)
        .num("peak_kb", peak_kb as f64)
        .num("attempted", requests as f64)
        .text("checksum", &format!("{checksum:016x}"));

    let Some(g) = shell else {
        out.num("trough_kb", proc_status_kb("VmRSS") as f64)
            .num("failed", 0.0)
            .num("fail_frac", 0.0);
        out.print();
        return;
    };
    let c = ShellCounters::read(g).since(&before.unwrap_or_default());
    let committed_peak = g.memory_stats().unwrap_or_default().committed_bytes;
    // Trough: load has stopped; hand parked chunks back and scrub.
    g.drain_cache();
    let t = Instant::now();
    g.scrub_pass();
    let scrub_ms = t.elapsed().as_secs_f64() * 1e3;
    let mem = g.memory_stats().unwrap_or_default();
    let shell_t = shell_spans.of(Layer::Shell);
    let tree_calls = c.tree_allocs + c.tree_frees;
    out.num("trough_kb", proc_status_kb("VmRSS") as f64)
        .num("failed", c.failovers as f64)
        .num(
            "fail_frac",
            ratio(c.failovers as f64, (c.hits + c.misses) as f64),
        )
        .num("c.cache.hits", c.hits as f64)
        .num("c.cache.misses", c.misses as f64)
        .num("c.tree.calls", tree_calls as f64)
        .num("c.facade.grows_in_place", c.grows_in_place as f64)
        .num("c.facade.grows_moved", c.grows_moved as f64)
        .num(
            "tree.calls_per_kreq",
            ratio(tree_calls as f64 * 1e3, requests as f64),
        )
        .num(
            "tree.fail_frac",
            ratio(c.tree_failed as f64, c.tree_allocs as f64),
        )
        .num(
            "tree.cas_per_op",
            ratio(c.cas_ops as f64, tree_calls as f64),
        )
        .num(
            "tree.cas_fail_per_op",
            ratio(c.cas_failures as f64, tree_calls as f64),
        )
        .num(
            "node.remote_frac",
            ratio(
                c.remote_allocs as f64,
                (c.local_allocs + c.remote_allocs) as f64,
            ),
        )
        .num(
            "cache.hit_rate",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        )
        .num(
            "cache.depot_exchanges_per_kreq",
            ratio(c.depot_exchanges as f64 * 1e3, requests as f64),
        )
        .num(
            "cache.flushed_per_kreq",
            ratio(c.flushed as f64 * 1e3, requests as f64),
        )
        .num("cache.transient_retries", c.transient_retries as f64)
        .num(
            "facade.grow_in_place_rate",
            ratio(
                c.grows_in_place as f64,
                (c.grows_in_place + c.grows_moved) as f64,
            ),
        )
        .num(
            "facade.granted_over_requested",
            ratio(c.granted as f64, c.requested as f64),
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
        )
        .num(
            "shell.ns_per_call",
            ratio(shell_t.cycles as f64 * ns_per_cycle, shell_t.calls as f64),
        )
        .num(
            "shell.system_share",
            ratio(
                c.system_bytes as f64,
                (c.buddy_bytes + c.system_bytes) as f64,
            ),
        )
        .num("shell.failovers", c.failovers as f64)
        .num(
            "tree.new_ms",
            tree_new_ms(
                BuddyConfig::new(SHELL_TOTAL, SHELL_MIN, SHELL_MAX)
                    .expect("valid shell configuration"),
            ),
        );
    out.print();
}
