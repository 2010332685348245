//! `bench_report` — emit the tracked benchmark baseline (`BENCH_*.json`).
//!
//! Usage:
//!
//! ```text
//! bench_report [--quick] [--out PATH] [--compare BENCH_N.json]
//!              [--require-keys k1,k2,...]
//! ```
//!
//! `--quick` shrinks sizes and sample budgets to a CI-smoke footprint
//! (seconds); the default full run takes on the order of a minute. The
//! committed reference file (`BENCH_10.json`, emitted by `load_gen`)
//! carries the same `fig_quick` section this binary gates on. Without
//! `--out` the report goes to stdout only, so CI can smoke-run without
//! touching the tree.
//!
//! `--compare PATH` is the regression gate: the freshly computed
//! quick-scale deterministic numbers (`fig_quick`: fig9/fig10/fig11 wire
//! bytes and eqid counts, peak index sizes, wire models, coordinator and
//! transport `|M|`) are checked against the committed report's
//! `fig_quick` section; any integer leaf more than 20% above its
//! reference fails the run with exit code 1. Wall-clock and ops/sec
//! numbers are never gated.
//!
//! `--require-keys k1,k2,...` asserts each named key occurs somewhere in
//! the produced report (any nesting level) and exits with code 1 and an
//! explicit message otherwise — the robust replacement for CI `grep`ping
//! the JSON: a renamed or dropped metric fails with its name, instead of
//! a silent smoke pass or an inscrutable grep miss.

use bench::cli::ReportCli;
use bench::report::build_report;

fn main() {
    bench::cli::run(
        ReportCli {
            bin: "bench_report",
            gate: "bench",
            gated: "fig",
            sections: &["fig_quick"],
        },
        build_report,
    );
}
