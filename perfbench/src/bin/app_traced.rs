//! `app-churn` under the stock shell with a span-recording `GlobalAlloc`
//! passthrough around it.

use nbbs_alloc::NbbsGlobalAlloc;
use perfbench::app::{SHELL_MAX, SHELL_MIN, SHELL_TOTAL};
use perfbench::spans::TracedShell;

#[global_allocator]
static GLOBAL: TracedShell<NbbsGlobalAlloc> =
    TracedShell(NbbsGlobalAlloc::new(SHELL_TOTAL, SHELL_MIN, SHELL_MAX));

fn main() {
    perfbench::app::main(Some(&GLOBAL.0));
}
