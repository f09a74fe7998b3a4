//! The churn-storm overload experiment: flap a backbone table through a
//! slow RIB and report what the router does with the excess.  The
//! outstanding-request queue stays bounded near the Xoff watermark, the
//! backlog waits in the fanout queue, keepalive probes stay fast on the
//! priority lane, nothing is shed, and no process is falsely restarted.
//! The run must converge exactly: flow control, not loss.
//!
//! With `--check`, asserts all of the above (peak outstanding under the
//! cap, during-storm probe latency within 2× steady state plus a small
//! absolute floor, zero shed, zero restarts, exact convergence).
//!
//! Usage: `fig-storm [--routes N] [--rounds N] [--quick] [--check]`
//! (default 100000 routes x 1 flap round; --quick/--check 2000 x 2)

use xorp_harness::figargs::flag_value;
use xorp_harness::figures::storm_experiment;
use xorp_xrl::QueuePolicy;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = check || args.iter().any(|a| a == "--quick");
    let int = |flag: &str, default: usize| -> usize {
        flag_value(&args, flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let routes = int("--routes", if quick { 2_000 } else { 100_000 });
    let rounds = int("--rounds", if quick { 2 } else { 1 }) as u32;

    // Tighter than the default so a 2,000-route storm is many windows deep.
    let policy = QueuePolicy {
        high_watermark: 64,
        low_watermark: 16,
        hard_cap: 512,
    };

    let storm = storm_experiment(routes, rounds, policy);
    println!("{}", storm.report);

    // Flow control, not loss: the run must deliver the exact table.
    assert!(storm.converged, "storm did not converge");
    assert_eq!(
        storm.shed, 0,
        "backpressure must hold frames, never shed them"
    );

    if check {
        // Bounded: the pending queue never exceeds the hard cap (it should
        // in fact hover near the Xoff watermark plus in-flight slack).
        assert!(
            storm.peak_outstanding <= policy.hard_cap,
            "outstanding XRLs ({}) exceeded the hard cap ({})",
            storm.peak_outstanding,
            policy.hard_cap
        );
        // Busy is not dead: probes ride the priority lane, the supervisor
        // never fires.  Allow 2x steady state with a 50 ms floor so
        // scheduler noise on a sub-millisecond baseline doesn't flake.
        let bound = (2.0 * storm.steady_probe_ms).max(50.0);
        assert!(
            storm.storm_probe_max_ms <= bound,
            "probe latency during storm ({:.2} ms) exceeded bound ({:.2} ms)",
            storm.storm_probe_max_ms,
            bound
        );
        assert_eq!(storm.restarts, 0, "saturated process was falsely restarted");
        assert!(
            !storm.degraded,
            "storm escalated to Degraded inside its budget"
        );
        println!(
            "\ncheck passed: bounded {} <= cap {}, storm probe {:.2} ms <= {:.2} ms, 0 shed, 0 restarts",
            storm.peak_outstanding, policy.hard_cap, storm.storm_probe_max_ms, bound
        );
    }
}
