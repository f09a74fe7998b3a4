//! `xorp-bench` — the router's benchmark.
//!
//! ```text
//! xorp-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one run; prints every metric by name and, last, one JSON result line
//! xorp-bench all --seed <n> [--seconds <s>] [--runs <r>] [--quick] --out <file>
//!     every workload, <r> end-to-end runs and one traced run each
//! xorp-bench compare <a.json> <b.json>
//!     row by row; exits 1 on a regression or a higher fail ratio
//! ```

use std::process::ExitCode;

use xorp_perfbench::json::Json;
use xorp_perfbench::run::{run, RunArgs};
use xorp_perfbench::{report, spec};

const RUN_SECONDS: f64 = spec::RUN_SECONDS as f64;

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
            None => default.ok_or(format!("{flag} is required")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn write_file(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("writing {path}: {e}"))
}

fn read_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<ExitCode, String> {
    let flags = Flags(std::env::args().skip(1).collect());
    match flags.0.first().map(String::as_str) {
        Some("compare") => {
            let (Some(a), Some(b)) = (flags.0.get(1), flags.0.get(2)) else {
                return Err("usage: xorp-bench compare <a.json> <b.json>".into());
            };
            let (rows, pass) = report::compare(&read_report(a)?, &read_report(b)?)?;
            print!("{}", report::render_comparison(&rows));
            println!("{}", if pass { "PASS" } else { "FAIL" });
            Ok(if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        Some("all") => {
            let out = flags.value("--out").ok_or("--out <file> is required")?;
            let doc = report::run_all(
                flags.parsed("--seed", None)?,
                flags.parsed("--seconds", Some(RUN_SECONDS))?,
                flags.parsed("--runs", Some(3))?,
                flags.has("--quick"),
            )?;
            write_file(out, &doc)?;
            let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            println!("report written to {out}; {failed} operations failed");
            Ok(if failed == 0.0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        _ => {
            let name = flags
                .value("--workload")
                .ok_or("--workload <name> is required")?;
            let workload = spec::workload(name).ok_or_else(|| {
                let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; one of {known:?}")
            })?;
            let report = run(RunArgs {
                workload,
                seed: flags.parsed("--seed", None)?,
                seconds: flags.parsed("--seconds", Some(RUN_SECONDS))?,
                traced: match flags.parsed::<u8>("--trace", Some(0))? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                },
                quick: flags.has("--quick"),
            });
            print!("{}", report.render_text());
            println!("{}", report.result_line());
            // A failed check is reported in the result line (`correct`),
            // not through the exit code: the run itself completed.
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("xorp-bench: {e}");
        ExitCode::from(2)
    })
}
