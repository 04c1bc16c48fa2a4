//! `app-churn` under `std::alloc::System`: the reference line, and the
//! checksum every other allocator must reproduce.

use std::alloc::System;

#[global_allocator]
static GLOBAL: System = System;

fn main() {
    perfbench::app::main(None);
}
