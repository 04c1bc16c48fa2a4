//! The *NUMA Skew* workload (this reproduction's own, part of the Figure 12
//! multi-node sweep): cross-node allocator traffic with a configurable
//! home-node hit ratio.
//!
//! Two drivers share the parameter set:
//!
//! * [`run`] works over any [`SharedBackend`].  Every thread churns
//!   alloc/free pairs; a `home_ratio` fraction of blocks is freed by the
//!   allocating thread, the rest is handed to the next thread (ring order)
//!   and freed there.  Over a plain backend this is Larson-style remote-free
//!   pressure; over an `nbbs-numa` `NodeSet` the hand-off crosses the node
//!   boundary, exercising the arithmetic free routing and (when a cache is
//!   interposed) the remote chunks flowing through the *freeing* thread's
//!   node-local magazines.
//! * [`run_on_nodes`] drives a concrete [`NodeSet`] and skews the
//!   *allocation targeting* instead: a `home_ratio` fraction of requests
//!   routes normally (home node first), the rest explicitly targets a
//!   remote node (`alloc_on`, the `__GFP_THISNODE`-style pin).  The
//!   caller reads [`nbbs::SlotSet::slot_stats`] afterwards for the per-node
//!   share table `nbbs-bench fig12` prints.

use std::sync::{Arc, Barrier, Mutex};

use nbbs::BuddyBackend;
use nbbs_numa::NodeSet;
use nbbs_obs::{size_detail, OpKind, OpOutcome, Recorder};
use nbbs_sync::CycleTimer;

use crate::factory::SharedBackend;
use crate::measure::WorkloadResult;
use crate::rng::SplitMix64;

/// Parameters of the NUMA Skew workload.
#[derive(Debug, Clone, Copy)]
pub struct NumaSkewParams {
    /// Number of worker threads.
    pub threads: usize,
    /// Fixed request size in bytes.
    pub size: usize,
    /// Total alloc/free pairs across all threads.
    pub total_pairs: u64,
    /// Fraction of traffic that stays home: blocks freed by their
    /// allocating thread ([`run`]) or requests routed to the home node
    /// ([`run_on_nodes`]).  `1.0` is perfectly node-local, `0.0` all-remote.
    pub home_ratio: f64,
    /// In-flight blocks each thread keeps before freeing the oldest
    /// (occupancy, so remote frees meet live neighbours).
    pub window: usize,
}

impl NumaSkewParams {
    /// The reference configuration: 2M pairs, 80% home traffic, a
    /// 32-block window.
    pub fn paper(threads: usize, size: usize) -> Self {
        NumaSkewParams {
            threads,
            size,
            total_pairs: 2_000_000,
            home_ratio: 0.8,
            window: 32,
        }
    }

    /// Scales the total pair count (the harness's `--scale`).
    #[must_use]
    pub fn scaled(mut self, scale: f64) -> Self {
        self.total_pairs =
            ((self.total_pairs as f64 * scale).round() as u64).max(self.threads as u64);
        self
    }

    /// Replaces the home-node hit ratio.
    #[must_use]
    pub fn with_home_ratio(mut self, ratio: f64) -> Self {
        self.home_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    fn pairs_per_thread(&self) -> u64 {
        (self.total_pairs / self.threads.max(1) as u64).max(1)
    }

    /// `home_ratio` as a threshold over `SplitMix64::next_u64`.
    fn home_threshold(&self) -> u64 {
        (self.home_ratio * u64::MAX as f64) as u64
    }
}

/// Runs the backend-generic variant: remote traffic is blocks handed to the
/// next thread (ring order) for freeing.  See the [module docs](self).
pub fn run(alloc: &SharedBackend, params: NumaSkewParams) -> WorkloadResult {
    assert!(params.threads > 0, "need at least one thread");
    let pairs_per_thread = params.pairs_per_thread();
    let threshold = params.home_threshold();
    let barrier = Arc::new(Barrier::new(params.threads + 1));
    // One mailbox per thread: neighbours drop offsets in, the owner frees
    // them.  A Mutex<Vec> is fine off the measured hot path's critical
    // sections (drains are batched).
    let mailboxes: Arc<Vec<Mutex<Vec<usize>>>> = Arc::new(
        (0..params.threads)
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
    );

    let mut handles = Vec::with_capacity(params.threads);
    for t in 0..params.threads {
        let alloc = Arc::clone(alloc);
        let barrier = Arc::clone(&barrier);
        let mailboxes = Arc::clone(&mailboxes);
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(0xD15C0 ^ t as u64);
            let mut live = Vec::with_capacity(params.window + 1);
            let mut failed = 0u64;
            barrier.wait();
            for i in 0..pairs_per_thread {
                match alloc.alloc(params.size) {
                    Some(off) => {
                        if rng.next_u64() <= threshold {
                            live.push(off);
                        } else {
                            // Remote: the ring neighbour frees this block.
                            let next = (t + 1) % params.threads;
                            mailboxes[next].lock().unwrap().push(off);
                        }
                    }
                    None => failed += 1,
                }
                if live.len() > params.window {
                    alloc.dealloc(live.remove(0));
                }
                // Drain our own mailbox periodically (and near the end, so
                // nothing is stranded while neighbours still run).
                if i % 32 == 0 || i + 32 >= pairs_per_thread {
                    let drained = std::mem::take(&mut *mailboxes[t].lock().unwrap());
                    for off in drained {
                        alloc.dealloc(off);
                    }
                }
            }
            for off in live {
                alloc.dealloc(off);
            }
            failed
        }));
    }

    let timer = CycleTimer::start();
    barrier.wait();
    let mut failed = 0u64;
    for h in handles {
        failed += h.join().expect("worker panicked");
    }
    // Stragglers: blocks posted after a neighbour's final drain.
    for mailbox in mailboxes.iter() {
        for off in std::mem::take(&mut *mailbox.lock().unwrap()) {
            alloc.dealloc(off);
        }
    }
    let (seconds, cycles) = timer.stop();

    let pairs = pairs_per_thread * params.threads as u64;
    let granted = alloc.granted_size_for(params.size).unwrap_or(params.size) as u64;
    WorkloadResult {
        threads: params.threads,
        operations: pairs * 2,
        seconds,
        cycles,
        failed_allocs: failed,
        bytes_requested: params.size as u64 * pairs,
        bytes_committed: granted * pairs,
    }
}

/// Runs the [`NodeSet`]-targeted variant: a `home_ratio` fraction of
/// requests routes normally (home first), the rest pins an explicit remote
/// node.  Read [`nbbs::SlotSet::slot_stats`] afterwards for the per-node shares.
///
/// When a `recorder` is supplied, one in [`nbbs_obs::DEFAULT_SAMPLE_STRIDE`]
/// alloc/free pairs is timed into it — the explicit `alloc_on` targeting
/// keeps this driver off the generic [`nbbs_obs::Recorded`] wrapper, so the
/// sampling lives in the loop instead.
pub fn run_on_nodes<A: BuddyBackend + 'static>(
    set: &Arc<NodeSet<A>>,
    params: NumaSkewParams,
    recorder: Option<Arc<Recorder>>,
) -> WorkloadResult {
    assert!(params.threads > 0, "need at least one thread");
    let pairs_per_thread = params.pairs_per_thread();
    let threshold = params.home_threshold();
    let barrier = Arc::new(Barrier::new(params.threads + 1));

    let mut handles = Vec::with_capacity(params.threads);
    for t in 0..params.threads {
        let set = Arc::clone(set);
        let barrier = Arc::clone(&barrier);
        let recorder = recorder.clone();
        handles.push(std::thread::spawn(move || {
            let n = set.slot_count();
            let home = set.home_slot();
            let mut rng = SplitMix64::new(0xF1612 ^ t as u64);
            let mut live = Vec::with_capacity(params.window + 1);
            let mut failed = 0u64;
            let mut tick = 0u32;
            barrier.wait();
            for _ in 0..pairs_per_thread {
                let sample = recorder.as_ref().filter(|_| {
                    let hit = tick.is_multiple_of(nbbs_obs::DEFAULT_SAMPLE_STRIDE);
                    tick = tick.wrapping_add(1);
                    hit
                });
                let t0 = sample.map(|_| nbbs_sync::cycles_now());
                let offset = if n == 1 || rng.next_u64() <= threshold {
                    set.alloc(params.size)
                } else {
                    // Explicitly target a non-home node, like a skewed
                    // memory policy binding pages elsewhere.
                    let victim = (home + 1 + rng.next_below(n - 1)) % n;
                    set.alloc_on(victim, params.size)
                };
                if let (Some(rec), Some(t0)) = (sample, t0) {
                    rec.record_since(
                        OpKind::Alloc,
                        t0,
                        size_detail(params.size),
                        OpOutcome::from_ok(offset.is_some()),
                    );
                }
                match offset {
                    Some(off) => live.push(off),
                    None => failed += 1,
                }
                if live.len() > params.window {
                    let off = live.remove(0);
                    if let Some(rec) = sample {
                        let t0 = nbbs_sync::cycles_now();
                        set.dealloc(off);
                        rec.record_since(OpKind::Free, t0, 0, OpOutcome::Ok);
                    } else {
                        set.dealloc(off);
                    }
                }
            }
            for off in live {
                set.dealloc(off);
            }
            failed
        }));
    }

    let timer = CycleTimer::start();
    barrier.wait();
    let mut failed = 0u64;
    for h in handles {
        failed += h.join().expect("worker panicked");
    }
    let (seconds, cycles) = timer.stop();

    let pairs = pairs_per_thread * params.threads as u64;
    let granted = set.granted_size_for(params.size).unwrap_or(params.size) as u64;
    WorkloadResult {
        threads: params.threads,
        operations: pairs * 2,
        seconds,
        cycles,
        failed_allocs: failed,
        bytes_requested: params.size as u64 * pairs,
        bytes_committed: granted * pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build, AllocatorKind};
    use nbbs::BuddyConfig;
    use nbbs_numa::{NodePlacement, NodePolicy, NodeSet, Topology};

    fn params(threads: usize) -> NumaSkewParams {
        NumaSkewParams {
            threads,
            size: 128,
            total_pairs: 4_000,
            home_ratio: 0.7,
            window: 16,
        }
    }

    #[test]
    fn generic_run_leaks_nothing_on_any_allocator() {
        for kind in [
            AllocatorKind::FourLevelNb,
            AllocatorKind::Cached4LvlNb,
            AllocatorKind::Numa4LvlNb,
        ] {
            let alloc = build(kind, BuddyConfig::new(1 << 20, 8, 16 << 10).unwrap());
            let result = run(&alloc, params(3));
            assert_eq!(result.threads, 3);
            assert!(result.operations > 0);
            assert_eq!(result.failed_allocs, 0, "allocator {kind}");
            alloc.drain_cache();
            assert_eq!(alloc.allocated_bytes(), 0, "allocator {kind} leaked");
        }
    }

    #[test]
    fn node_targeted_run_records_remote_service() {
        let set = Arc::new(NodeSet::with_placement(
            2,
            move |_| nbbs::NbbsFourLevel::new(BuddyConfig::new(1 << 18, 64, 1 << 12).unwrap()),
            NodePlacement::new(Topology::synthetic(2), NodePolicy::HomeFirst),
        ));
        let recorder = Arc::new(Recorder::new());
        let result = run_on_nodes(
            &set,
            params(2).with_home_ratio(0.5),
            Some(Arc::clone(&recorder)),
        );
        assert_eq!(result.failed_allocs, 0);
        assert_eq!(set.allocated_bytes(), 0, "all pairs returned");
        let stats = set.slot_stats();
        let remote: u64 = stats.iter().map(|s| s.remote_allocs).sum();
        let served: u64 = stats.iter().map(|s| s.served()).sum();
        assert!(served > 0);
        assert!(remote > 0, "half the traffic targeted remote nodes");
        let lat = recorder
            .merged_snapshot(&[OpKind::Alloc, OpKind::Free])
            .percentiles();
        assert!(lat.count > 0, "sampled recording captured latency");
        assert!(lat.p50_ns.is_finite() && lat.p50_ns > 0.0);
    }

    #[test]
    fn fully_home_ratio_stays_local_on_nodes() {
        let set = Arc::new(NodeSet::with_placement(
            2,
            move |_| nbbs::NbbsFourLevel::new(BuddyConfig::new(1 << 18, 64, 1 << 12).unwrap()),
            NodePlacement::new(Topology::synthetic(2), NodePolicy::HomeFirst),
        ));
        let result = run_on_nodes(&set, params(2).with_home_ratio(1.0), None);
        assert_eq!(result.failed_allocs, 0);
        let stats = set.slot_stats();
        let remote: u64 = stats.iter().map(|s| s.remote_allocs).sum();
        assert_eq!(
            remote, 0,
            "home-only traffic never needed a remote fallback: {stats:?}"
        );
    }

    #[test]
    fn params_scale_and_clamp() {
        let p = NumaSkewParams::paper(4, 128).scaled(0.001);
        assert_eq!(p.total_pairs, 2_000);
        assert_eq!(p.home_ratio, 0.8);
        assert_eq!(p.with_home_ratio(7.0).home_ratio, 1.0);
    }
}
