//! Figure 13: "BGP route latency induced by a router" — 255 routes, one
//! per second, through four router models; the scanner-based routers
//! (Cisco/Quagga) batch everything on a 30-second timer while the
//! event-driven routers (XORP/MRTd) forward each route immediately.
//!
//! Runs in virtual time: 300 modeled seconds complete in milliseconds.

use xorp_harness::figargs::flag_value;
use xorp_harness::figures::route_flow_models;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let count: u32 = flag_value(&args, "--routes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(255);

    println!("Figure 13: BGP route flow (delay before route is propagated)\n");
    let models = route_flow_models(count);

    // Summary table.
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "router", "min (s)", "avg (s)", "max (s)"
    );
    for (name, series) in &models {
        let delays: Vec<f64> = series.iter().map(|(_, d)| *d).collect();
        let avg = delays.iter().sum::<f64>() / delays.len() as f64;
        let min = delays.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = delays.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!("{name:<8} {min:>10.3} {avg:>10.3} {max:>10.3}");
    }

    // The series themselves (arrival time s, delay s) for plotting.
    println!(
        "\narrival_s{}",
        models
            .iter()
            .map(|(n, _)| format!("\t{n}"))
            .collect::<String>()
    );
    let len = models[0].1.len();
    for i in 0..len {
        let t = models[0].1[i].0;
        let row: String = models
            .iter()
            .map(|(_, s)| format!("\t{:.3}", s[i].1))
            .collect();
        println!("{t:.0}{row}");
    }

    println!(
        "\nPaper shape: XORP and MRTd stay under 1 s for every route; Cisco\n\
         and Quagga show a 0–30 s sawtooth — 'all the routes received in the\n\
         previous 30 seconds are processed in one batch.  Fast convergence\n\
         is simply not possible with such a scanner-based approach.'"
    );
}
