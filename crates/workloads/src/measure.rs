//! Measurement records produced by the workload drivers.

use std::fmt;

/// Raw result of running one workload on one allocator configuration.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadResult {
    /// Number of threads that participated.
    pub threads: usize,
    /// Completed allocator operations (one alloc or one free counts as one).
    pub operations: u64,
    /// Wall-clock duration of the measured section, in seconds.
    pub seconds: f64,
    /// Clock cycles elapsed over the measured section (TSC-based; the metric
    /// of the paper's Figure 12).
    pub cycles: u64,
    /// Allocation attempts that failed (out of memory / transient conflicts
    /// that exhausted the scan); the paper's workloads are sized so that this
    /// stays at zero.
    pub failed_allocs: u64,
    /// Sum of the byte sizes the workload asked the allocator for, over its
    /// successful allocations.  Zero when the workload does not track bytes
    /// (fragmentation reporting then shows no ratio).
    pub bytes_requested: u64,
    /// Sum of the bytes the allocator actually committed for those requests
    /// (granted block sizes — a power of two for the plain trees, the size
    /// class under a slab front-end).  Zero when untracked.
    pub bytes_committed: u64,
}

impl WorkloadResult {
    /// Throughput in thousands of operations per second (Figure 10's unit).
    pub fn kops_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.operations as f64 / self.seconds / 1_000.0
    }

    /// Average nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.operations == 0 {
            return 0.0;
        }
        self.seconds * 1e9 / self.operations as f64
    }

    /// Committed-to-requested byte ratio — the workload-measured internal
    /// fragmentation factor (1.0 = no over-provisioning; a pure power-of-two
    /// allocator averages ~1.33 over uniform sizes).  `NaN` when the
    /// workload did not track bytes.
    pub fn committed_ratio(&self) -> f64 {
        if self.bytes_requested == 0 {
            return f64::NAN;
        }
        self.bytes_committed as f64 / self.bytes_requested as f64
    }
}

/// One cell of a paper figure: a workload result annotated with the
/// allocator, workload and request size it belongs to.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name (e.g. `"linux-scalability"`).
    pub workload: String,
    /// Allocator name (e.g. `"4lvl-nb"`).
    pub allocator: String,
    /// Request size in bytes the workload was parameterized with.
    pub size: usize,
    /// The underlying result.
    pub result: WorkloadResult,
    /// Counters of the allocator's magazine-cache layer, if it has one
    /// (`cached-*` kinds); `None` for plain backends.
    pub cache: Option<nbbs::CacheStatsSnapshot>,
    /// Operation counters of the *backend* underneath any cache layer
    /// (CAS traffic, retries, skips).  All zeros unless the workspace is
    /// built with the `op-stats` feature; reports use this to show how much
    /// CAS traffic the cache's spill path still generates.
    pub backend_ops: nbbs::OpStatsSnapshot,
    /// Per-class magazine capacities of the cache layer at the end of the
    /// run, as `(class_size, capacity)` pairs — the adaptive resize
    /// controller's converged geometry; `None` for plain backends.
    pub magazine_capacities: Option<Vec<(usize, usize)>>,
    /// Per-node telemetry of a multi-node (`nbbs-numa` `NodeSet`) backend at
    /// the end of the run — allocation shares, remote-fallback and failure
    /// counts per node; `None` for single-arena backends.  Recorded in the
    /// JSON output ([`Measurement::to_json`]) so benchmark snapshots capture
    /// the multi-node trajectory.
    pub node_shares: Option<Vec<nbbs_numa::NodeStatsSnapshot>>,
    /// Tail-latency summary (merged alloc + free distribution) of the run,
    /// recorded by the [`nbbs_obs`] layer when the harness runs with
    /// recording on; `None` for unobserved runs, e.g. the overhead A/B
    /// baseline.  Percentile fields are NaN (JSON `null`) when no sample
    /// was recorded.
    pub latency: Option<nbbs_obs::LatencyPercentiles>,
}

impl Measurement {
    /// Creates a measurement record.
    pub fn new(
        workload: impl Into<String>,
        allocator: impl Into<String>,
        size: usize,
        result: WorkloadResult,
    ) -> Self {
        Measurement {
            workload: workload.into(),
            allocator: allocator.into(),
            size,
            result,
            cache: None,
            backend_ops: nbbs::OpStatsSnapshot::default(),
            magazine_capacities: None,
            node_shares: None,
            latency: None,
        }
    }

    /// Attaches cache-layer counters to this measurement.
    #[must_use]
    pub fn with_cache(mut self, cache: Option<nbbs::CacheStatsSnapshot>) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches the backend's operation counters to this measurement.
    #[must_use]
    pub fn with_backend_ops(mut self, ops: nbbs::OpStatsSnapshot) -> Self {
        self.backend_ops = ops;
        self
    }

    /// Attaches the cache layer's per-class magazine capacities.
    #[must_use]
    pub fn with_capacities(mut self, capacities: Option<Vec<(usize, usize)>>) -> Self {
        self.magazine_capacities = capacities;
        self
    }

    /// Attaches a multi-node backend's per-node telemetry.
    #[must_use]
    pub fn with_node_shares(mut self, shares: Option<Vec<nbbs_numa::NodeStatsSnapshot>>) -> Self {
        self.node_shares = shares;
        self
    }

    /// Attaches the run's tail-latency summary.
    #[must_use]
    pub fn with_latency(mut self, latency: Option<nbbs_obs::LatencyPercentiles>) -> Self {
        self.latency = latency;
        self
    }

    /// Renders the measurement as one self-contained JSON object (one line,
    /// no trailing newline) — the stable snapshot format for
    /// `BENCH_*.json`-style records, including the per-node share table of
    /// multi-node runs.
    ///
    /// Hand-rolled (the workspace is offline, no serde): strings go through
    /// [`nbbs_obs::json::esc`] (quotes, backslashes, control characters) and
    /// non-finite floats through [`nbbs_obs::json::num`] (rendered `null`),
    /// so the emitted line is always valid JSON.
    pub fn to_json(&self) -> String {
        use nbbs_obs::json::esc;
        fn fnum(v: f64, decimals: usize) -> String {
            if v.is_finite() {
                format!("{v:.decimals$}")
            } else {
                "null".to_string()
            }
        }
        let mut out = format!(
            "{{\"workload\":\"{}\",\"allocator\":\"{}\",\"size\":{},\"threads\":{},\
             \"operations\":{},\"seconds\":{},\"kops_per_sec\":{},\"cycles\":{},\
             \"failed_allocs\":{},\"bytes_requested\":{},\"bytes_committed\":{},\
             \"committed_ratio\":{}",
            esc(&self.workload),
            esc(&self.allocator),
            self.size,
            self.result.threads,
            self.result.operations,
            fnum(self.result.seconds, 6),
            fnum(self.result.kops_per_sec(), 3),
            self.result.cycles,
            self.result.failed_allocs,
            self.result.bytes_requested,
            self.result.bytes_committed,
            fnum(self.result.committed_ratio(), 4)
        );
        if let Some(shares) = &self.node_shares {
            out.push_str(",\"node_shares\":[");
            for (i, n) in shares.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"node\":{},\"allocated_bytes\":{},\"local_allocs\":{},\
                     \"remote_allocs\":{},\"failed_allocs\":{}}}",
                    n.slot, n.allocated_bytes, n.local_allocs, n.remote_allocs, n.failed_allocs
                ));
            }
            out.push(']');
        }
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                ",\"cache\":{{\"hits\":{},\"misses\":{},\"flushed\":{},\"drained\":{},\
                 \"depot_shards\":{}}}",
                cache.hits, cache.misses, cache.flushed, cache.drained, cache.depot_shards
            ));
        }
        if let Some(lat) = &self.latency {
            out.push_str(",\"latency\":");
            out.push_str(&lat.to_json());
        }
        out.push('}');
        out
    }

    /// CSV header matching [`Measurement::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "workload,allocator,size,threads,operations,seconds,kops_per_sec,cycles,failed_allocs,\
         bytes_requested,bytes_committed"
    }

    /// Renders the measurement as one CSV row.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{:.6},{:.3},{},{},{},{}",
            self.workload,
            self.allocator,
            self.size,
            self.result.threads,
            self.result.operations,
            self.result.seconds,
            self.result.kops_per_sec(),
            self.result.cycles,
            self.result.failed_allocs,
            self.result.bytes_requested,
            self.result.bytes_committed
        )
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<20} {:<12} size={:<7} threads={:<3} {:>10.4}s {:>12.1} KOps/s",
            self.workload,
            self.allocator,
            self.size,
            self.result.threads,
            self.result.seconds,
            self.result.kops_per_sec()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            threads: 4,
            operations: 2_000_000,
            seconds: 2.0,
            cycles: 5_400_000_000,
            failed_allocs: 0,
            bytes_requested: 0,
            bytes_committed: 0,
        }
    }

    #[test]
    fn throughput_and_latency_derivations() {
        let r = sample();
        assert!((r.kops_per_sec() - 1_000.0).abs() < 1e-9);
        assert!((r.ns_per_op() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_is_guarded() {
        let r = WorkloadResult {
            threads: 1,
            operations: 0,
            seconds: 0.0,
            cycles: 0,
            failed_allocs: 0,
            bytes_requested: 0,
            bytes_committed: 0,
        };
        assert_eq!(r.kops_per_sec(), 0.0);
        assert_eq!(r.ns_per_op(), 0.0);
        assert!(
            r.committed_ratio().is_nan(),
            "untracked bytes have no ratio"
        );
    }

    #[test]
    fn committed_ratio_reflects_fragmentation() {
        let mut r = sample();
        r.bytes_requested = 4_000;
        r.bytes_committed = 5_000;
        assert!((r.committed_ratio() - 1.25).abs() < 1e-9);
        let json = Measurement::new("mixed-layout", "slab-4lvl-nb", 40, r).to_json();
        assert!(json.contains("\"bytes_requested\":4000"));
        assert!(json.contains("\"bytes_committed\":5000"));
        assert!(json.contains("\"committed_ratio\":1.2500"));
        // Untracked runs render the ratio as null, not zero.
        let json = Measurement::new("larson", "4lvl-nb", 128, sample()).to_json();
        assert!(json.contains("\"committed_ratio\":null"));
    }

    #[test]
    fn csv_rows_are_well_formed() {
        let m = Measurement::new("larson", "4lvl-nb", 128, sample());
        let row = m.to_csv_row();
        assert_eq!(
            row.split(',').count(),
            Measurement::csv_header().split(',').count()
        );
        assert!(row.starts_with("larson,4lvl-nb,128,4,"));
    }

    #[test]
    fn cache_counters_attach_optionally() {
        let m = Measurement::new("larson", "cached-4lvl-nb", 128, sample());
        assert!(m.cache.is_none());
        let snap = nbbs::CacheStatsSnapshot {
            hits: 9,
            misses: 1,
            ..Default::default()
        };
        let m = m.with_cache(Some(snap));
        assert_eq!(m.cache.unwrap().hits, 9);
    }

    #[test]
    fn display_is_informative() {
        let m = Measurement::new("thread-test", "buddy-sl", 1024, sample());
        let s = m.to_string();
        assert!(s.contains("thread-test"));
        assert!(s.contains("buddy-sl"));
        assert!(s.contains("1024"));
    }

    #[test]
    fn json_records_node_shares_when_present() {
        let m = Measurement::new("numa-skew", "numa-4lvl-nb", 128, sample());
        let bare = m.to_json();
        assert!(bare.starts_with('{') && bare.ends_with('}'));
        assert!(bare.contains("\"workload\":\"numa-skew\""));
        assert!(!bare.contains("node_shares"), "absent when not attached");
        let m = m.with_node_shares(Some(vec![
            nbbs_numa::NodeStatsSnapshot {
                slot: 0,
                allocated_bytes: 0,
                local_allocs: 90,
                remote_allocs: 10,
                failed_allocs: 0,
            },
            nbbs_numa::NodeStatsSnapshot {
                slot: 1,
                allocated_bytes: 64,
                local_allocs: 80,
                remote_allocs: 20,
                failed_allocs: 1,
            },
        ]));
        let json = m.to_json();
        assert!(json.contains("\"node_shares\":[{\"node\":0,"));
        assert!(json.contains("\"remote_allocs\":20"));
        assert!(json.contains("\"failed_allocs\":1}]"));
        assert!(!json.contains('\n'), "one line per measurement");
    }

    #[test]
    fn json_escapes_hostile_strings() {
        let m = Measurement::new("lar\"son\n", "4lvl\\nb\t", 128, sample());
        let json = m.to_json();
        assert!(json.contains("\"workload\":\"lar\\\"son\\n\""));
        assert!(json.contains("\"allocator\":\"4lvl\\\\nb\\t\""));
        assert!(!json.contains('\n'), "control chars escaped, line intact");
    }

    #[test]
    fn json_renders_non_finite_numbers_as_null() {
        let mut r = sample();
        r.seconds = f64::NAN; // NaN passes kops_per_sec's <= 0.0 guard too
        let m = Measurement::new("larson", "4lvl-nb", 128, r);
        let json = m.to_json();
        assert!(
            json.contains("\"seconds\":null"),
            "NaN becomes null: {json}"
        );
        assert!(json.contains("\"kops_per_sec\":null"), "NaN ratio: {json}");
        let mut r = sample();
        r.seconds = f64::INFINITY;
        let json = Measurement::new("larson", "4lvl-nb", 128, r).to_json();
        assert!(
            json.contains("\"seconds\":null"),
            "inf becomes null: {json}"
        );
    }

    #[test]
    fn json_records_latency_when_attached() {
        let m = Measurement::new("larson", "4lvl-nb", 128, sample());
        assert!(!m.to_json().contains("latency"), "absent when not attached");
        // An empty summary still serializes — percentiles become null.
        let m = m.with_latency(Some(nbbs_obs::LatencyPercentiles::empty()));
        let json = m.to_json();
        assert!(json.contains("\"latency\":{\"count\":0,\"p50_ns\":null"));
        assert!(json.contains("\"p999_ns\":null"));
        let m = m.with_latency(Some(nbbs_obs::LatencyPercentiles {
            count: 10,
            p50_ns: 120.0,
            p90_ns: 300.0,
            p99_ns: 950.0,
            p999_ns: 1800.0,
            max_ns: 2000.0,
        }));
        let json = m.to_json();
        assert!(json.contains("\"p50_ns\":120.000"));
        assert!(json.contains("\"p99_ns\":950.000"));
        assert!(!json.contains('\n'), "one line per measurement");
    }
}
