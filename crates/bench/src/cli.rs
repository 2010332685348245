//! The command line shared by the report binaries (`bench_report`,
//! `load_gen`): flag parsing, report output, the `--require-keys` check
//! and the `--compare` regression gate.
//!
//! ```text
//! <bin> [--quick] [--out PATH] [--compare BENCH_N.json]
//!       [--require-keys k1,k2,...]
//! ```
//!
//! Bad arguments exit 2, a failed gate exits 1.

use crate::report::{compare_deterministic, Json};
use std::io::Write;

/// What distinguishes one report binary from another.
#[derive(Debug, Clone, Copy)]
pub struct ReportCli {
    /// Binary name, for the usage line.
    pub bin: &'static str,
    /// Prefix of the gate's stderr lines (`"bench"` → `bench gate: …`).
    pub gate: &'static str,
    /// What the `--compare` success line says was gated.
    pub gated: &'static str,
    /// Dotted paths of the report sections `--compare` gates. The
    /// reference must carry the first; each later one is gated only when
    /// the reference has it (older references predate it).
    pub sections: &'static [&'static str],
}

/// Does `key` name a field anywhere in `j`?
fn key_present(j: &Json, key: &str) -> bool {
    match j {
        Json::Obj(fields) => fields.iter().any(|(k, v)| k == key || key_present(v, key)),
        _ => false,
    }
}

/// The section of `j` at a dotted `path`.
fn section<'a>(j: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(j, |j, key| j.get(key))
}

fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parse the process arguments, build the report (`build(quick)`), write
/// it, then run the requested gates, exiting non-zero on failure.
pub fn run(cli: ReportCli, build: impl FnOnce(bool) -> Json) {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut require_keys: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| exit_usage("--out requires a path")),
                );
            }
            "--compare" => {
                compare = Some(
                    args.next()
                        .unwrap_or_else(|| exit_usage("--compare requires a path")),
                );
            }
            "--require-keys" => {
                let list = args.next().unwrap_or_else(|| {
                    exit_usage("--require-keys requires a comma-separated list")
                });
                require_keys.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: {} [--quick] [--out PATH] [--compare BENCH_N.json] \
                     [--require-keys k1,k2,...]",
                    cli.bin
                );
                return;
            }
            other => exit_usage(&format!("unknown argument `{other}` (try --help)")),
        }
    }

    let report = build(quick);
    let rendered = report.render();
    match out {
        Some(path) => {
            let mut f = std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            f.write_all(rendered.as_bytes()).expect("write report");
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }

    let gate = cli.gate;
    if !require_keys.is_empty() {
        let missing: Vec<&String> = require_keys
            .iter()
            .filter(|k| !key_present(&report, k))
            .collect();
        if missing.is_empty() {
            eprintln!(
                "{gate} gate: all {} required metric keys present",
                require_keys.len()
            );
        } else {
            eprintln!(
                "{gate} gate FAILED: required metric key(s) missing from the report \
                 (renamed or dropped section?):"
            );
            for k in missing {
                eprintln!("  missing key: {k}");
            }
            std::process::exit(1);
        }
    }

    if let Some(path) = compare {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read reference {path}: {e}"));
        let reference =
            Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse reference {path}: {e}"));
        let mut regressions = Vec::new();
        for (i, &name) in cli.sections.iter().enumerate() {
            let Some(ref_section) = section(&reference, name) else {
                if i == 0 {
                    exit_usage(&format!(
                        "reference {path} has no `{name}` section — cannot gate"
                    ));
                }
                continue;
            };
            let cur_section = section(&report, name)
                .unwrap_or_else(|| panic!("{} reports always embed {name}", cli.bin));
            regressions.extend(compare_deterministic(cur_section, ref_section, 0.2));
        }
        if regressions.is_empty() {
            eprintln!(
                "{gate} gate: deterministic {} numbers within 20% of {path}",
                cli.gated
            );
        } else {
            eprintln!("{gate} gate FAILED against {path}:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
