//! `load_gen` — emit the sustained-load benchmark report (`BENCH_10.json`),
//! including the concurrency `speedup` curve, the shared-plan
//! `cfd_sweep` and the validation-suite `suite` section.
//!
//! Usage:
//!
//! ```text
//! load_gen [--quick] [--out PATH] [--compare BENCH_10.json]
//!          [--require-keys k1,k2,...]
//! ```
//!
//! `--quick` runs the scenario catalog at smoke scale, the speedup
//! curve at 2/4 sites and the CFD sweep over the quick fig9 stream
//! (seconds); the default full run (scenarios at 40k rows, speedup at
//! 2/4/8/16 sites, sweep over the full fig9 stream) is what gets
//! committed as `BENCH_10.json`. Without `--out` the report goes to
//! stdout only.
//!
//! `--compare PATH` is the regression gate: the freshly computed
//! quick-scale deterministic load numbers (`load_quick`: updates
//! applied, Σ|ΔV| marks, final violation marks, modeled and measured
//! wire bytes per scenario × strategy × codec) are checked against the
//! committed report's `load_quick` section, and the validation-suite
//! integers (`suite.quick`: updates, finding marks, inclusion probe
//! bytes) against its `suite.quick`; any integer leaf more than 20%
//! above its reference fails the run with exit code 1. Latency and
//! throughput floats are never gated.
//!
//! `--require-keys k1,k2,...` asserts each named key occurs somewhere in
//! the produced report (any nesting level), failing with the missing
//! key's name otherwise — same contract as `bench_report`.

use bench::cli::ReportCli;
use bench::load::build_load_report;

fn main() {
    bench::cli::run(
        ReportCli {
            bin: "load_gen",
            gate: "load",
            gated: "load and suite",
            sections: &["load_quick", "suite.quick"],
        },
        build_load_report,
    );
}
