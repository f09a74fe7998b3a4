//! The benchmark's fixed vocabulary: workloads and metrics, by name.
//! `BENCHMARK.json` at the repository root states the same lists for the
//! driver; a test holds the two together.

/// `BENCHMARK.json`'s `run_seconds`, and the default length of a run.
pub const RUN_SECONDS: u32 = 60;

/// One workload: the full scenario (bulk announce, churn, bulk withdraw)
/// against a router built with one batch size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `RouterOptions::batch_size`: routes per XRL frame on both hops.
    pub batch_size: usize,
    /// Offered churn load in route updates per second — about a third of
    /// what the router sustains at this batch size on the reference box,
    /// so the open loop queues without a growing backlog.
    pub churn_routes_per_s: u64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "full_b1",
        why: "batch_size 1: one XRL frame per route on both hops, so per-frame cost (marshal, socket, dispatch, route codec) does most of the work",
        batch_size: 1,
        churn_routes_per_s: 6_400,
    },
    Workload {
        name: "full_b256",
        why: "batch_size 256: frame cost amortised 256 times, so the BGP pipeline, RIB apply and FEA install dominate and a wire-only change should not move it",
        batch_size: 256,
        churn_routes_per_s: 19_200,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics are unbounded (0).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the router sees.  Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("add_routes_per_s", "1/s", Higher, 0.25),
    e2e("del_routes_per_s", "1/s", Higher, 0.25),
    e2e("rss_full_table_mb", "MB", Lower, 0.20),
    e2e("churn_p50_ms", "ms", Lower, 0.25),
];

/// The ledger: one layer (crate or module) per name prefix.  Times are
/// nanoseconds per route unless the unit says otherwise.
pub const PER_LAYER: &[MetricDef] = &[
    // bgp
    layer("bgp.msg.decode_ns", "ns", Lower),
    layer("bgp.pipeline.add_ns", "ns", Lower),
    layer("bgp.pipeline.del_ns", "ns", Lower),
    layer("bgp.pipeline.replace_ns", "ns", Lower),
    layer("bgp.nexthop.queries_per_kroute", "count", Lower),
    layer("bgp.table_bytes_per_route", "B", Lower),
    // harness (route codec and batcher)
    layer("harness.codec.encode_ns", "ns", Lower),
    layer("harness.codec.decode_ns", "ns", Lower),
    layer("batch.rib_fill_ratio", "ratio", Higher),
    // xrl
    layer("xrl.marshal.encode_ns", "ns", Lower),
    layer("xrl.marshal.decode_ns", "ns", Lower),
    layer("xrl.wire.bytes_per_route", "B", Lower),
    layer("xrl.socket_ns", "ns", Lower),
    layer("xrl.dispatch.intra_ns", "ns", Lower),
    layer("xrl.tcp.call_ns", "ns", Lower),
    layer("xrl.tcp.a25_ns", "ns", Lower),
    layer("xrl.tcp.rtt_us", "us", Lower),
    layer("xrl.retransmit_total", "count", Lower),
    layer("xrl.shed_total", "count", Lower),
    // event
    layer("event.post_wakeup_us", "us", Lower),
    layer("event.run_one_ns", "ns", Lower),
    layer("q.bgp.event_depth_max", "count", Lower),
    layer("q.rib.event_depth_max", "count", Lower),
    layer("q.fea.event_depth_max", "count", Lower),
    // rib
    layer("rib.apply.add_ns", "ns", Lower),
    layer("rib.apply.del_ns", "ns", Lower),
    layer("rib.apply.replace_ns", "ns", Lower),
    layer("rib.redist.share_ns", "ns", Lower),
    layer("rib.register_interest_ns", "ns", Lower),
    layer("rib.longest_match_ns", "ns", Lower),
    layer("rib.table_bytes_per_route", "B", Lower),
    // fea
    layer("fea.install.add_ns", "ns", Lower),
    layer("fea.install.del_ns", "ns", Lower),
    layer("fea.lookup_ns", "ns", Lower),
    layer("fea.table_bytes_per_route", "B", Lower),
    // net
    layer("net.patricia.insert_ns", "ns", Lower),
    layer("net.patricia.lookup_ns", "ns", Lower),
    layer("net.patricia.remove_ns", "ns", Lower),
    // profiler
    layer("profiler.stamp_dormant_ns", "ns", Lower),
    layer("profiler.stamp_enabled_ns", "ns", Lower),
    layer("profiler.span_sampled_ns", "ns", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    // processes, counted from outside during one bulk cycle
    layer("proc.bgp.cpu_ns", "ns", Lower),
    layer("proc.rib.cpu_ns", "ns", Lower),
    layer("proc.fea.cpu_ns", "ns", Lower),
    layer("proc.xrl_read.cpu_ns", "ns", Lower),
    layer("proc.driver.cpu_ns", "ns", Lower),
    layer("proc.cpu_util", "ratio", Higher),
    layer("q.bgp.xrl_pending_max", "count", Lower),
    layer("q.rib.xrl_pending_max", "count", Lower),
    layer("q.bgp.fanout_len_max", "count", Lower),
    // reconciliation of the layer walk against the threaded router
    layer("walk.serial_ns", "ns", Lower),
    layer("walk.unattributed_ns", "ns", Lower),
    layer("walk.pipeline_ratio", "ratio", Lower),
    // diagnostics: recorded, too noisy to gate
    layer("probe.p50_ms", "ms", Lower),
    layer("probe.p90_ms", "ms", Lower),
    layer("probe.p99_ms", "ms", Lower),
    layer("probe.max_ms", "ms", Lower),
    layer("churn.p90_ms", "ms", Lower),
    layer("churn.p99_ms", "ms", Lower),
    layer("churn.late_p90_ms", "ms", Lower),
    layer("churn.backlog_end", "count", Lower),
];
