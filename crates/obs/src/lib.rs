//! # nbbs-obs — the observability layer of the NBBS reproduction.
//!
//! The paper (and the first five PRs of this reproduction) evaluate the
//! allocators on *throughput*; the production north star is judged on
//! p99/p99.9.  This crate supplies the missing layer, threaded through
//! core → cache → numa → alloc → workloads:
//!
//! * [`LatencyHistogram`] — lock-free, sharded, log-bucketed (two
//!   sub-buckets per octave) histograms over `nbbs_sync::cycles`
//!   timestamps; merge-on-snapshot, p50/p90/p99/p99.9/max, calibrated to
//!   nanoseconds via [`tsc_hz`].
//! * [`Recorder`] / [`OpKind`] — the recording handle the facade, cache
//!   and workload harness hold as `Option<Arc<Recorder>>`: when `None`, no
//!   timestamp is ever taken (zero-cost-when-disabled); when present, one
//!   recording is two TSC reads plus relaxed counter updates.
//! * [`FlightRecorder`] — fixed-capacity per-thread rings of recent
//!   operations (kind, size class/level, latency bucket, outcome),
//!   dumpable from `atexit` hooks, panic paths and failing soak
//!   assertions, so the next one-in-140k anomaly comes with its trailing
//!   op history.
//! * [`MetricsRegistry`] / [`StackSnapshot`] — one typed snapshot
//!   unifying every counter family the stack grew (`OpStatsSnapshot`,
//!   `CacheStatsSnapshot`, magazine capacities, per-node shares, facade
//!   byte shares, histograms) with a single text-table and JSON
//!   exposition.
//! * [`Recorded`] — a `BuddyBackend` wrapper timing alloc/free, which
//!   instruments every workload driver without touching their loops.
//!
//! The crate depends only on `nbbs` (core) and `nbbs-sync`, so every
//! higher layer can use it without cycles; node and facade figures flow
//! through the core's `SlotStatsSnapshot` and the neutral [`FacadeShare`].

pub mod flight;
pub mod hist;
pub mod recorded;
pub mod recorder;
pub mod registry;

pub use flight::{FlightEvent, FlightRecorder, FLIGHT_CAPACITY, FLIGHT_RINGS};
pub use hist::{
    bucket_high, bucket_index, bucket_low, cycles_to_ns, tsc_hz, HistogramSnapshot,
    LatencyHistogram, LatencyPercentiles, BUCKETS,
};
pub use recorded::{Recorded, DEFAULT_SAMPLE_STRIDE};
pub use recorder::{size_detail, EventSink, OpKind, OpOutcome, Recorder};
pub use registry::{FacadeShare, MetricsRegistry, StackSnapshot};

/// Hand-rolled JSON helpers shared by every exposition path in the
/// workspace (the build environment is offline — no serde).
pub mod json {
    /// Escapes a string for inclusion inside JSON double quotes:
    /// backslash, quote, and every control character below U+0020.
    pub fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Renders a float as a JSON number, or `null` when it is NaN or
    /// infinite (the required encoding for percentiles of an empty
    /// histogram — JSON has no NaN).
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn esc_handles_quotes_backslashes_and_controls() {
            assert_eq!(esc("plain"), "plain");
            assert_eq!(esc("a\"b"), "a\\\"b");
            assert_eq!(esc("a\\b"), "a\\\\b");
            assert_eq!(esc("a\nb\tc\r"), "a\\nb\\tc\\r");
            assert_eq!(esc("\u{1}"), "\\u0001");
            assert_eq!(esc("uni\u{e9}"), "uni\u{e9}", "non-ASCII passes through");
        }

        #[test]
        fn num_maps_non_finite_to_null() {
            assert_eq!(num(1.5), "1.500");
            assert_eq!(num(f64::NAN), "null");
            assert_eq!(num(f64::INFINITY), "null");
            assert_eq!(num(f64::NEG_INFINITY), "null");
        }
    }
}
