//! `profile/1.0` replies are written as wire rows, and their bytes are
//! those of the atom trees the interface used to build: each reply equals
//! `WireList::from_atoms` of the tree for the same input, built here as
//! the reference.  So an observer built against the tree form still
//! decodes every reply.

use std::cell::RefCell;
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_profiler::tracing::Span;
use xorp_profiler::{MetricSample, Metrics, PointInfo, Profiler, Record, Tracer};
use xorp_xrl::profile::profile::Client;
use xorp_xrl::profile::{add_profile_responder, decode_records};
use xorp_xrl::{AtomValue, Finder, WireList, XrlError, XrlRouter};

type Reply<T> = Box<dyn FnOnce(&mut EventLoop, Result<T, XrlError>)>;

fn point_tree(p: &PointInfo) -> AtomValue {
    AtomValue::List(vec![
        AtomValue::Text(p.name.clone()),
        AtomValue::Bool(p.enabled),
        AtomValue::U64(p.len as u64),
        AtomValue::U64(p.dropped),
    ])
}

fn record_tree(r: &Record) -> AtomValue {
    AtomValue::List(vec![
        AtomValue::U64(r.nanos),
        AtomValue::Text(r.payload.clone()),
    ])
}

fn metric_tree(m: &MetricSample) -> AtomValue {
    AtomValue::List(vec![
        AtomValue::Text(m.name.clone()),
        AtomValue::Text(m.value.kind().to_string()),
        AtomValue::I64(m.value.primary()),
        AtomValue::Text(m.value.render()),
    ])
}

fn span_tree(s: &Span) -> AtomValue {
    AtomValue::List(vec![
        AtomValue::U64(s.trace_id),
        AtomValue::U32(s.span_id),
        AtomValue::U32(s.parent_span),
        AtomValue::Text(s.process.to_string()),
        AtomValue::Text(s.point.clone()),
        AtomValue::U64(s.wall_us),
        AtomValue::U64(s.start_ns),
        AtomValue::U64(s.end_ns),
        AtomValue::U64(s.link),
    ])
}

/// The reference bytes: `items` as a tree, encoded.
fn encoded<T>(items: &[T], tree: fn(&T) -> AtomValue) -> WireList {
    WireList::from_atoms(&items.iter().map(tree).collect::<Vec<_>>()).unwrap()
}

/// Make one call and run the loop until its reply lands.
fn call<T: 'static>(el: &mut EventLoop, send: impl FnOnce(&mut EventLoop, Reply<T>)) -> T {
    let slot = Rc::new(RefCell::new(None));
    let s = slot.clone();
    send(el, Box::new(move |_el, r| *s.borrow_mut() = Some(r)));
    el.run_until_idle();
    let reply = slot.borrow_mut().take().expect("the call completed");
    reply.expect("the call succeeded")
}

#[test]
fn profile_replies_keep_the_atom_tree_bytes() {
    let mut el = EventLoop::new_virtual();
    let router = XrlRouter::new(&mut el, Finder::new());
    router.register_target("prof", "prof-0", true).unwrap();
    let (profiler, metrics, tracer) = (Profiler::new(), Metrics::new(), Tracer::new());
    add_profile_responder(&router, "prof-0", &profiler, &metrics, &tracer);
    let client = Client::new(&router, "prof");

    profiler.enable("route_bgpin");
    let bgp_in = profiler.point("route_bgpin");
    for i in 0..3 {
        bgp_in.record(|| format!("add 10.0.{i}.0/24"));
    }
    profiler.point("dormant");
    metrics.counter("xrl.shed_total").add(7);
    metrics.gauge("rib.xrl.pending").set(-2);
    metrics.histogram("fea.batch_size").observe(64);
    tracer.set_sampling(1);
    let bgp = tracer.recorder("bgp");
    let child = bgp.instant(tracer.sample().unwrap(), "bgp_in");
    bgp.instant(child, "fanout");
    bgp.fan_in(child, 42);
    let (spans, _) = tracer.snapshot("bgp");
    assert_eq!(spans.len(), 3);

    let (rows,) = call(&mut el, |el, done| client.list(el, done));
    assert_eq!(rows, encoded(&profiler.list(), point_tree));

    let (rows,) = call(&mut el, |el, done| client.get_metrics(el, done));
    assert_eq!(rows, encoded(&metrics.snapshot(), metric_tree));

    let (rows, ..) = call(&mut el, |el, done| {
        client.get_spans(el, "bgp".into(), 16, done)
    });
    assert_eq!(rows, encoded(&spans, span_tree));

    // A record's stamp is read only by the clearing drain, so its
    // reference tree is built from the decoded page, whose payloads are
    // the ones recorded.
    let (rows, remaining, dropped) = call(&mut el, |el, done| {
        client.get_records(el, "route_bgpin".into(), 16, done)
    });
    let page = decode_records(&rows, remaining, dropped).unwrap();
    let payloads: Vec<_> = page.items.iter().map(|r| r.payload.as_str()).collect();
    assert_eq!(
        payloads,
        ["add 10.0.0.0/24", "add 10.0.1.0/24", "add 10.0.2.0/24"]
    );
    assert_eq!(rows, encoded(&page.items, record_tree));
}
