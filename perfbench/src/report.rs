//! Sets of runs: `xorp-bench all` runs every workload several times (each
//! run a fresh process, so one run's heap is not the next one's baseline)
//! and writes one report; `xorp-bench compare` holds two reports together.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{median, quartiles};

/// Where and on what a set was measured.
fn environment(seed: u64, seconds: f64, runs: usize) -> Json {
    let tool = |cmd: &str, args: &[&str]| -> String {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
    };
    Json::obj([
        ("git_sha", Json::str(tool("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(tool("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |c| c.get()) as f64),
        ),
        ("network", Json::str("loopback")),
        ("first_seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("runs_per_workload", Json::Num(runs as f64)),
    ])
}

/// One child run through the driver's own interface; returns its result
/// line parsed.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    // The child's progress and any FAILED lines go straight to our stderr;
    // `output` waits for the child to end.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run of {workload} seed {seed} exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().unwrap_or(""))
}

/// Run the whole set and return the report.
pub fn run_all(seed: u64, seconds: f64, runs: usize, quick: bool) -> Result<Json, String> {
    let mut rows = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for wl in &spec::WORKLOADS {
        // metric name -> one value per run
        let mut samples: Vec<(&spec::MetricDef, Vec<f64>)> = spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER)
            .map(|m| (m, Vec::new()))
            .collect();
        let plan = (0..runs)
            .map(|i| (seed + i as u64, false))
            .chain([(seed, true)]);
        for (run_seed, traced) in plan {
            eprintln!(
                "{}: seed {run_seed}, {}",
                wl.name,
                if traced { "traced" } else { "end to end" }
            );
            let result = child_run(wl.name, run_seed, seconds, traced, quick)?;
            let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += num("attempted");
            failed += num("failed");
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("result line without metrics")?;
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without value")?;
                let slot = samples
                    .iter_mut()
                    .find(|(def, _)| def.name == name)
                    .ok_or_else(|| format!("unknown metric {name}"))?;
                slot.1.push(value);
            }
        }
        for (def, values) in samples {
            if values.is_empty() {
                return Err(format!("{}: {} never reported", wl.name, def.name));
            }
            let (q1, q3) = if values.len() >= 2 {
                quartiles(&values)
            } else {
                (values[0], values[0])
            };
            rows.push(Json::obj([
                ("workload", Json::str(wl.name)),
                ("metric", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better.as_str())),
                ("bound", Json::Num(def.bound)),
                ("n", Json::Num(values.len() as f64)),
                ("median", Json::Num(median(&values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]));
        }
    }
    Ok(Json::obj([
        ("benchmark", Json::str("xorp-bench")),
        ("claim", Json::Null),
        ("environment", environment(seed, seconds, runs)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("fail_ratio", Json::Num(failed / attempted.max(1.0))),
        ("rows", Json::Arr(rows)),
    ]))
}

/// How one (workload, metric) row fared between two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound: no call either way.
    Unresolved,
    /// Per-layer rows carry no bound.
    Ledger,
}

/// One compared row.
#[derive(Debug, Clone)]
pub struct Compared {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Share of `a`'s median by which `b` is *worse* (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compare report `b` against baseline `a`.  Returns the rows and whether
/// `b` passes: no regression and no higher fail ratio.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Compared>, bool), String> {
    let rows = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("report without rows")?
            .to_vec())
    };
    let text = |row: &Json, k: &str| -> Result<String, String> {
        Ok(row
            .get(k)
            .and_then(Json::as_str)
            .ok_or(format!("row without {k}"))?
            .to_string())
    };
    let num = |row: &Json, k: &str| -> Result<f64, String> {
        row.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("row without {k}"))
    };
    let b_rows = rows(b)?;
    let mut out = Vec::new();
    let mut pass = true;
    for ra in rows(a)? {
        let (workload, metric) = (text(&ra, "workload")?, text(&ra, "metric")?);
        let Some(rb) = b_rows.iter().find(|r| {
            r.get("workload").and_then(Json::as_str) == Some(&workload)
                && r.get("metric").and_then(Json::as_str) == Some(&metric)
        }) else {
            return Err(format!(
                "{workload}/{metric} missing from the second report"
            ));
        };
        let stats = |r: &Json| -> Result<(f64, f64, f64), String> {
            Ok((num(r, "median")?, num(r, "q1")?, num(r, "q3")?))
        };
        let (sa, sb) = (stats(&ra)?, stats(rb)?);
        let bound = num(&ra, "bound")?;
        let higher_is_better = text(&ra, "better")? == Better::Higher.as_str();
        let change = (sb.0 - sa.0) / sa.0.abs().max(f64::MIN_POSITIVE);
        let worse_by = if higher_is_better { -change } else { change };
        let spread = |s: (f64, f64, f64)| (s.2 - s.1) / s.0.abs().max(f64::MIN_POSITIVE);
        let verdict = if bound == 0.0 {
            Verdict::Ledger
        } else if spread(sa).max(spread(sb)) > bound {
            Verdict::Unresolved
        } else if worse_by > bound {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
        pass &= verdict != Verdict::Regression;
        out.push(Compared {
            workload,
            metric,
            unit: text(&ra, "unit")?,
            a: sa,
            b: sb,
            worse_by,
            bound,
            verdict,
        });
    }
    let ratio = |doc: &Json| doc.get("fail_ratio").and_then(Json::as_f64).unwrap_or(0.0);
    pass &= ratio(b) <= ratio(a);
    Ok((out, pass))
}

/// The comparison as a table.
pub fn render_comparison(rows: &[Compared]) -> String {
    let mut out = format!(
        "{:<10} {:<32} {:>14} {:>22} {:>14} {:>22} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "a median",
        "a [q1, q3]",
        "b median",
        "b [q1, q3]",
        "worse",
        "bound",
        "verdict"
    );
    for r in rows {
        let iqr = |s: (f64, f64, f64)| format!("[{:.4}, {:.4}]", s.1, s.2);
        out.push_str(&format!(
            "{:<10} {:<32} {:>14.4} {:>22} {:>14.4} {:>22} {:>+7.1}% {:>5.0}%  {}\n",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            r.a.0,
            iqr(r.a),
            r.b.0,
            iqr(r.b),
            r.worse_by * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
                Verdict::Ledger => "-",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rate: [f64; 3], latency: [f64; 3], fail_ratio: f64) -> Json {
        let row = |metric: &str, better: &str, bound: f64, v: [f64; 3]| {
            let (q1, q3) = quartiles(&v);
            Json::obj([
                ("workload", Json::str("w\"1")),
                ("metric", Json::str(metric)),
                ("unit", Json::str("1/s")),
                ("better", Json::str(better)),
                ("bound", Json::Num(bound)),
                ("median", Json::Num(median(&v))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
            ])
        };
        Json::obj([
            ("fail_ratio", Json::Num(fail_ratio)),
            (
                "rows",
                Json::Arr(vec![
                    row("rate", "higher", 0.10, rate),
                    row("latency", "lower", 0.10, latency),
                    row("layer", "lower", 0.0, latency),
                ]),
            ),
        ])
    }

    /// Reports survive the writer and the parser, and `compare` reads the
    /// direction of "better" from the row.
    #[test]
    fn round_trip_and_verdicts() {
        let base = report([100.0, 101.0, 102.0], [10.0, 10.1, 10.2], 0.0);
        let reparsed = Json::parse(&base.render_pretty()).unwrap();
        assert_eq!(reparsed, base);

        // Same numbers: everything ok.
        let (rows, pass) = compare(&base, &reparsed).unwrap();
        assert!(pass);
        assert_eq!(rows[0].workload, "w\"1");
        assert_eq!(
            rows.iter().map(|r| r.verdict).collect::<Vec<_>>(),
            [Verdict::Ok, Verdict::Ok, Verdict::Ledger]
        );

        // A lower rate and a higher latency are both regressions ...
        let worse = report([80.0, 81.0, 82.0], [12.0, 12.1, 12.2], 0.0);
        let (rows, pass) = compare(&base, &worse).unwrap();
        assert!(!pass);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert!((rows[0].worse_by - 0.198).abs() < 0.001);
        assert_eq!(rows[1].verdict, Verdict::Regression);
        assert_eq!(rows[2].verdict, Verdict::Ledger, "ledger rows never gate");
        // ... the other way round they are gains.
        let (rows, pass) = compare(&worse, &base).unwrap();
        assert!(pass && rows[0].worse_by < 0.0 && rows[1].worse_by < 0.0);

        // A spread wider than the bound resolves nothing.
        let noisy = report([60.0, 100.0, 140.0], [10.0, 10.1, 10.2], 0.0);
        let (rows, pass) = compare(&base, &noisy).unwrap();
        assert!(pass);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);

        // More failures fail the comparison on their own.
        let failing = report([100.0, 101.0, 102.0], [10.0, 10.1, 10.2], 0.001);
        assert!(!compare(&base, &failing).unwrap().1);
        assert!(compare(&failing, &base).unwrap().1);

        assert!(render_comparison(&rows).contains("unresolved"));
        assert!(compare(&base, &Json::obj([("rows", Json::Arr(vec![]))])).is_err());
    }
}
