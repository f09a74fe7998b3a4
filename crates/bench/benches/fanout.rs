//! Fanout-queue ablation (§5.1.1): "If we queued updates in the n Peer Out
//! stages, we could potentially require a large amount of memory for all n
//! queues ... the Fanout Queue module then maintains a single route change
//! queue, with n readers."
//!
//! Measures pushing a burst through (a) the shared queue with slow
//! readers and (b) naive per-peer cloned queues, and reports the memory
//! proxy (queued entries) for each.

use std::net::Ipv4Addr;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xorp_bench::bench_routes;
use xorp_bgp::fanout::{FanoutQueue, ReaderId};
use xorp_bgp::{BgpRoute, PeerId};
use xorp_event::EventLoop;
use xorp_stages::{stage_ref, OriginId, RouteOp, SinkStage, Stage};

const PEERS: u32 = 8;
const SLOW: u32 = 4;
const BURST: u32 = 10_000;

fn ops() -> Vec<RouteOp<Ipv4Addr, BgpRoute<Ipv4Addr>>> {
    bench_routes(BURST)
        .into_iter()
        .map(|mut r| {
            r.source = Some(99);
            RouteOp::Add {
                net: r.net,
                route: r,
            }
        })
        .collect()
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout");
    group.sample_size(10);
    group.throughput(Throughput::Elements(BURST as u64));

    group.bench_function(BenchmarkId::new("shared_queue", "4_of_8_slow"), |b| {
        b.iter_batched(
            ops,
            |ops| {
                let mut el = EventLoop::new_virtual();
                let mut fanout: FanoutQueue<Ipv4Addr> = FanoutQueue::new();
                for p in 0..PEERS {
                    fanout.add_reader(ReaderId::Peer(PeerId(p)), stage_ref(SinkStage::new()));
                }
                for p in 0..SLOW {
                    fanout
                        .reader_flow(ReaderId::Peer(PeerId(p)))
                        .unwrap()
                        .set(false);
                }
                for op in ops {
                    fanout.route_op(&mut el, OriginId(99), op);
                }
                // Memory proxy: ONE queue holds the backlog.
                let queued = fanout.queue_len();
                for p in 0..SLOW {
                    fanout.resume(&mut el, ReaderId::Peer(PeerId(p)));
                }
                queued
            },
            criterion::BatchSize::LargeInput,
        );
    });

    group.bench_function(BenchmarkId::new("per_peer_queues", "4_of_8_slow"), |b| {
        b.iter_batched(
            ops,
            |ops| {
                // Naive design: each slow peer keeps its own copy.
                let mut queues: Vec<Vec<RouteOp<Ipv4Addr, BgpRoute<Ipv4Addr>>>> =
                    (0..SLOW).map(|_| Vec::new()).collect();
                let mut el = EventLoop::new_virtual();
                let fast: Vec<_> = (0..PEERS - SLOW)
                    .map(|_| stage_ref(SinkStage::new()))
                    .collect();
                for op in ops {
                    for q in queues.iter_mut() {
                        q.push(op.clone()); // n copies
                    }
                    for f in &fast {
                        f.borrow_mut().route_op(&mut el, OriginId(99), op.clone());
                    }
                }
                // Memory proxy: SLOW queues × burst entries.
                queues.iter().map(Vec::len).sum::<usize>()
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();

    eprintln!(
        "fanout memory proxy: shared queue holds {BURST} entries total; \
         per-peer queues hold {} (×{SLOW} duplication)",
        BURST * SLOW
    );
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
