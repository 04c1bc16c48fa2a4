//! `app-churn` under the stock shell, configured as in
//! `examples/global_allocator.rs`.

use nbbs_alloc::NbbsGlobalAlloc;
use perfbench::app::{SHELL_MAX, SHELL_MIN, SHELL_TOTAL};

#[global_allocator]
static GLOBAL: NbbsGlobalAlloc = NbbsGlobalAlloc::new(SHELL_TOTAL, SHELL_MIN, SHELL_MAX);

fn main() {
    perfbench::app::main(Some(&GLOBAL));
}
