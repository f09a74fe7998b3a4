//! Tiny shared CLI parsing for the figure binaries and `xorp-router`.

/// The value after `flag` in `args` (`--flag value`), if the flag is given.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Parse `--probes N` (default 255) and `--routes N` (default
/// `default_routes`) plus `--quick` (64 probes, 10k routes).
pub fn parse(default_routes: usize) -> (u32, usize) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let probes = flag_value(&args, "--probes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 64 } else { 255 });
    let routes = flag_value(&args, "--routes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick {
            default_routes.min(10_000)
        } else {
            default_routes
        });
    (probes, routes)
}

/// Parse the batched-pipeline knob `--batch-size N` (default 1 —
/// per-route XRLs).  A bad value exits with a message.  A batch is one
/// XRL frame, whose row count the wire holds in 16 bits, so a size above
/// 65,535 is refused rather than cut short.
pub fn parse_batch() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let size: u64 = match flag_value(&args, "--batch-size") {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(format!("--batch-size expects an integer, got {v:?}"))),
        None => 1,
    };
    let size = size.max(1);
    if size > u16::MAX as u64 {
        fail(format!(
            "--batch-size {size} exceeds {}, the most rows one XRL frame can carry",
            u16::MAX
        ));
    }
    size as usize
}

/// Print the per-probe kernel-latency series (the scatter in the
/// figures).
pub fn print_series(series: &[f64]) {
    println!("\nper-route latency to kernel (ms):");
    println!("route\tms");
    for (i, ms) in series.iter().enumerate() {
        println!("{i}\t{ms:.3}");
    }
}
