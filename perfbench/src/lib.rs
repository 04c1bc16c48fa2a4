//! Seeded, closed-loop benchmark workloads for the NBBS stack.
//!
//! The workloads call only the public API of each layer — `BuddyBackend`
//! on the tree, `ElasticSet`, `SlabBackend` and `MagazineCache`;
//! `NbbsAllocator::{allocate, grow, deallocate}`; `BuddyRegion::scrub_pass`;
//! and the `NbbsGlobalAlloc` accessors — so the stack under test is built
//! from source exactly as the repository ships it.  Each binary runs one
//! fixed-work round in a fresh process and prints one JSON line of raw
//! measurements; `run.py` next to this package repeats rounds, takes
//! medians and checks correctness.

pub mod app;
pub mod ring;
pub mod spans;
pub mod util;
