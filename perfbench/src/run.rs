//! One benchmark run: a workload, a seed, a length, end-to-end or traced.

use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;

use crate::json::Json;
use crate::scenario::{self, Plan, Tally};
use crate::spec::{self, MetricDef, Workload};
use crate::{gen, micro, walk};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// `false`: the end-to-end run, tracing dormant.  `true`: the traced
    /// run that fills the per-layer ledger.
    pub traced: bool,
    /// Smoke-test size (10k-route table).  Never reported.
    pub quick: bool,
}

/// The result of one run: every end-to-end metric, or every per-layer one.
#[derive(Debug)]
pub struct RunReport {
    pub args: RunArgs,
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub tally: Tally,
}

/// Where the traced run leaves its spans: `out/` in the benchmark's own
/// directory — found from the repository root when run from there (as the
/// driver does), else where this binary was built from.
pub fn trace_path(workload: &str) -> PathBuf {
    let here = PathBuf::from("perfbench");
    let dir = if here.join("Cargo.toml").exists() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    dir.join("out").join(format!("trace_{workload}.json"))
}

pub fn run(args: RunArgs) -> RunReport {
    let wl = args.workload;
    let (defs, values, mut tally) = if !args.traced {
        let plan = if args.quick {
            Plan::quick()
        } else {
            Plan::full(args.seconds)
        };
        let out = scenario::run(wl, args.seed, &plan);
        (spec::END_TO_END, out.e2e, out.tally)
    } else {
        let plan = if args.quick {
            Plan::quick()
        } else {
            Plan::beside_walk(args.seconds)
        };
        // The threaded router first (its outside counters and the
        // diagnostics), then the same table through the layer walk.
        let out = scenario::run(wl, args.seed, &plan);
        let (mut ledger, mut tally) = (out.ledger, out.tally);
        let table = gen::table(args.seed, plan.table_routes);
        let walked = walk::run(wl, args.seed, &table, out.add_ns_per_route);
        ledger.extend(walked.ledger);
        tally.absorb(walked.tally);
        ledger.extend(micro::run(args.seed, &table));
        ledger.insert(
            "trace.overhead_ratio",
            scenario::trace_overhead(wl, args.seed, &mut tally),
        );

        let path = trace_path(wl.name);
        let written = fs::create_dir_all(path.parent().expect("out/ has a parent"))
            .and_then(|()| fs::File::create(&path))
            .and_then(|f| {
                let mut w = BufWriter::new(f);
                walked.log.write_json(&mut w, wl.name, args.seed)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => eprintln!(
                "{} spans written to {}",
                walked.log.spans().len(),
                path.display()
            ),
            Err(e) => tally.fail(1, format!("writing {}: {e}", path.display())),
        }
        (spec::PER_LAYER, ledger, tally)
    };

    let metrics = defs
        .iter()
        .map(|def| {
            let value = values.get(def.name).copied().filter(|v| v.is_finite());
            if value.is_none() {
                tally.fail(1, format!("metric {} was not measured", def.name));
            }
            (def, value.unwrap_or(0.0))
        })
        .collect();
    RunReport {
        args,
        metrics,
        tally,
    }
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// Every metric by name with its unit, one per line.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  {} s  {}\n",
            self.args.workload.name,
            self.args.seed,
            self.args.seconds,
            if self.args.traced {
                "traced run (per-layer ledger)"
            } else {
                "end-to-end run"
            }
        );
        for (def, value) in &self.metrics {
            out.push_str(&format!("{:<34} {:>16.4} {}\n", def.name, value, def.unit));
        }
        out.push_str(&format!(
            "fail_ratio {} / {} operations\n",
            self.tally.failed, self.tally.attempted
        ));
        out
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(def, value)| {
                    (
                        def.name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}
