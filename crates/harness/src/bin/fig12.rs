//! Figure 12: route-propagation latency with a full backbone table,
//! probes on a DIFFERENT peering — "which exercises different code-paths"
//! (the alternatives comparison in the decision process).
//!
//! Usage: `fig12 [--routes N] [--probes N] [--batch-size N]` (default
//! 146515 routes, per-route XRLs)

use xorp_harness::figures::latency_experiment_opts;

fn main() {
    let (probes, routes) = xorp_harness::figargs::parse(xorp_harness::workload::PAPER_TABLE_SIZE);
    let batch_size = xorp_harness::figargs::parse_batch();
    let out = latency_experiment_opts(
        &format!(
            "Figure 12: route propagation latency (ms), {routes} initial routes, \
             different peering, batch size {batch_size}"
        ),
        routes,
        true,
        probes,
        batch_size,
    );
    println!("{}", out.report);
    println!("preload throughput: {:.0} routes/s", out.preload_rps);
    xorp_harness::figargs::print_series(&out.series);
}
