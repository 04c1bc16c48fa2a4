//! Shared pieces of the workload programs: the seeded generator, block stamping,
//! clocks, percentiles, `/proc` readings and the one-line JSON report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nbbs::{BuddyConfig, NbbsFourLevel};
use nbbs_sync::cycles_now;

/// SplitMix64 finalizer: a bijective 64-bit mix.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 generator; the only source of workload randomness, so one
/// seed fixes every request a round makes.
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` (a thread index) of the run seeded `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `pct / 100`.
    #[inline]
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// Log-uniform size in `lo..hi` (both powers of two): a uniformly
    /// chosen octave, then a uniform size inside it.
    #[inline]
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo.is_power_of_two() && hi.is_power_of_two() && lo < hi);
        let k = lo.trailing_zeros() as u64
            + self.below((hi.trailing_zeros() - lo.trailing_zeros()) as u64);
        (1usize << k) + self.below(1 << k) as usize
    }
}

/// The stamp a block with unique id `id` carries in a run seeded `seed`.
#[inline]
pub fn pattern(seed: u64, id: u64) -> u64 {
    mix(seed ^ id.wrapping_mul(0xD6E8_FEB8_6659_FD93)) | 1
}

/// The first and last whole words of `[ptr, ptr + len)`.
#[inline]
fn stamp_words(ptr: *mut u8, len: usize) -> (*mut u64, *mut u64) {
    debug_assert!(len >= 16 && (ptr as usize).is_multiple_of(8));
    (ptr.cast(), ptr.wrapping_add((len & !7) - 8).cast())
}

/// Writes `pat` into the first and last word of a granted block.  A block
/// handed out twice, or overlapping another live block at either end,
/// fails [`check`] when the earlier owner frees it.
///
/// # Safety
///
/// `[ptr, ptr + len)` must be memory the caller was granted, 8-aligned,
/// with `len >= 16`.
#[inline]
pub unsafe fn stamp(ptr: *mut u8, len: usize, pat: u64) {
    let (first, last) = stamp_words(ptr, len);
    // SAFETY: both words lie inside the granted block and are 8-aligned
    // (caller contract); atomic access keeps an overlapping grant — the
    // defect this detects — from being a data race.
    unsafe {
        AtomicU64::from_ptr(first).store(pat, Ordering::Relaxed);
        AtomicU64::from_ptr(last).store(!pat, Ordering::Relaxed);
    }
}

/// Whether the block still carries the stamp [`stamp`] wrote.
///
/// # Safety
///
/// Same contract as [`stamp`].
#[inline]
pub unsafe fn check(ptr: *mut u8, len: usize, pat: u64) -> bool {
    let (first, last) = stamp_words(ptr, len);
    // SAFETY: as in `stamp`.
    unsafe {
        AtomicU64::from_ptr(first).load(Ordering::Relaxed) == pat
            && AtomicU64::from_ptr(last).load(Ordering::Relaxed) == !pat
    }
}

/// Wall clock and cycle counter read together, so cycle-stamped samples
/// convert to nanoseconds with the rate measured over the same phase.
pub struct Clock {
    t0: Instant,
    c0: u64,
}

impl Clock {
    /// Starts both clocks.
    pub fn start() -> Self {
        Clock {
            t0: Instant::now(),
            c0: cycles_now(),
        }
    }

    /// Elapsed nanoseconds and nanoseconds per cycle since [`Clock::start`].
    pub fn stop(&self) -> (u64, f64) {
        let c = cycles_now() - self.c0;
        let ns = self.t0.elapsed().as_nanos() as u64;
        (ns, ns as f64 / c.max(1) as f64)
    }
}

/// Wall time of building one tree of `config`, in milliseconds.
pub fn tree_new_ms(config: BuddyConfig) -> f64 {
    let t = Instant::now();
    let tree = std::hint::black_box(NbbsFourLevel::new(config));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(tree);
    ms
}

/// Nearest-rank percentile (`q` in `0..=1`) of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), or 0 where the
/// file does not exist.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Command-line arguments shared by the round binaries.
pub struct Args {
    /// `--workload`, for binaries that run more than one.
    pub workload: String,
    /// `--seed`: every input of the round derives from it.
    pub seed: u64,
    /// `--threads`: worker threads of the timed phase.
    pub threads: usize,
    /// `--traced`: place span-recording passthroughs between layers.
    pub traced: bool,
}

impl Args {
    /// Parses the process arguments; exits with code 2 on malformed input.
    pub fn parse() -> Args {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            threads: 1,
            traced: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().unwrap_or_else(|| usage(&flag));
            match flag.as_str() {
                "--workload" => args.workload = value(),
                "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("--seed")),
                "--threads" => {
                    args.threads = value()
                        .parse()
                        .ok()
                        .filter(|&t| t >= 1)
                        .unwrap_or_else(|| usage("--threads"))
                }
                "--traced" => args.traced = true,
                _ => usage(&flag),
            }
        }
        args
    }
}

fn usage(flag: &str) -> ! {
    eprintln!(
        "bad or missing value for {flag}; usage: --seed N --threads T [--workload W] [--traced]"
    );
    std::process::exit(2)
}

/// One flat JSON object, printed as a single line: the round's report.
#[derive(Default)]
pub struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    /// Adds a numeric field (non-finite values are reported as 0).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() { value } else { 0.0 };
        self.fields.push((key.to_string(), format!("{v}")));
        self
    }

    /// Adds a string field.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.fields
            .push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Prints the object as one line on stdout.
    pub fn print(&self) {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("{{{}}}", body.join(", "));
    }
}
