//! Deletion-stage ablation (§5.1.2): background sliced deletion vs doing
//! the whole withdrawal "in a single event handler".
//!
//! Two measurements: total drain time (the synchronous version wins
//! slightly — no scheduling) and, the paper's actual concern, the longest
//! stall the event loop suffers: "the deletion of more than 100,000 routes
//! takes too long to be done in a single event handler".

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xorp_bench::bench_routes;
use xorp_bgp::{DeletionStage, PeerId, PeerTable};
use xorp_event::EventLoop;
use xorp_net::ProtocolId;
use xorp_stages::{stage_ref, OriginId, RouteOp, SinkStage, Stage};

const N: u32 = 50_000;

fn table() -> PeerTable<Ipv4Addr> {
    let mut t = PeerTable::new(PeerId(1), ProtocolId::Ebgp);
    for r in bench_routes(N) {
        t.insert(r.net, r.attrs);
    }
    t
}

fn bench_deletion(c: &mut Criterion) {
    let mut group = c.benchmark_group("deletion");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));

    group.bench_function(BenchmarkId::new("background_sliced", N), |b| {
        b.iter_batched(
            table,
            |t| {
                let mut el = EventLoop::new_virtual();
                let sink = stage_ref(SinkStage::new());
                let del = stage_ref(DeletionStage::new(t));
                del.borrow_mut().set_downstream(sink.clone());
                DeletionStage::start(&mut el, del);
                el.run_until_idle();
                {
                    let n = sink.borrow().log.len();
                    n
                }
            },
            criterion::BatchSize::LargeInput,
        );
    });

    group.bench_function(BenchmarkId::new("synchronous_bulk", N), |b| {
        b.iter_batched(
            table,
            |mut t| {
                let mut el = EventLoop::new_virtual();
                let sink = stage_ref(SinkStage::new());
                // One giant event handler, as a monolithic design would.
                let nets: Vec<_> = t.iter().map(|r| r.net).collect();
                for net in nets {
                    let old = t.remove(&net).unwrap();
                    sink.borrow_mut()
                        .route_op(&mut el, OriginId(1), RouteOp::Delete { net, old });
                }
                {
                    let n = sink.borrow().log.len();
                    n
                }
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();

    // The latency story: longest uninterrupted stall of the event loop.
    let mut el = EventLoop::new_virtual();
    let sink = stage_ref(SinkStage::new());
    let del = stage_ref(DeletionStage::new(table()));
    del.borrow_mut().set_downstream(sink.clone());
    DeletionStage::start(&mut el, del);
    let mut max_slice = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        if !el.run_one() {
            break;
        }
        max_slice = max_slice.max(t0.elapsed());
    }
    let t0 = Instant::now();
    {
        let mut t = table();
        let nets: Vec<_> = t.iter().map(|r| r.net).collect();
        for net in nets {
            t.remove(&net);
        }
    }
    let bulk_stall = t0.elapsed();
    eprintln!(
        "deletion stall: background max slice {:?} vs synchronous bulk {:?} \
         (the event loop is blocked for the whole bulk duration)",
        max_slice, bulk_stall
    );
}

criterion_group!(benches, bench_deletion);
criterion_main!(benches);
