//! The `profile/1.0` XRL interface: §8.2's external-observer story.
//!
//! "The profiling variables can be enabled and the results collected via
//! XRLs, typically by the `xorp_profiler` program" — this module is that
//! XRL surface.  The interface is declared once with
//! [`crate::xrl_interface!`]; [`add_profile_responder`] registers the
//! generated server on an existing target instance (the same pattern as
//! [`crate::keepalive::add_keepalive_responder`]), so every harness
//! process exports its shared [`Profiler`] and [`Metrics`] over the same
//! transports, retry policy and fault plane as real traffic:
//!
//! | method        | arguments                 | reply                                         |
//! |---------------|---------------------------|-----------------------------------------------|
//! | `enable`      | `point:txt`               | `ok:bool`                                     |
//! | `disable`     | `point:txt`               | `ok:bool`                                     |
//! | `list`        | —                         | `points` rows: name, enabled, len, dropped    |
//! | `get_records` | `point:txt`, `max:u32`    | `records` rows: nanos, payload; `remaining:u32`, `dropped:u64` |
//! | `get_metrics` | —                         | `metrics` rows: name, kind, primary, detail   |
//! | `get_spans`   | `process:txt`, `max:u32`  | `spans` rows (see [`decode_spans`]); `remaining:u32`, `dropped:u64` |
//!
//! `enable`/`disable` accept the pseudo-point `route_flow`, expanding to
//! all eight §8.2 route-flow points.
//!
//! `get_records` and `get_spans` **clear** what they return and serve at
//! most [`MAX_RECORDS_PER_SLICE`] rows per call (the `remaining` count
//! says whether to call again): a buffer that filled during a storm is
//! collected in bounded slices, never as one reply that would stall the
//! answering event loop and trip its keepalive.  Both are the same drain
//! of the profiler crate's one ring, served by one paging path and
//! decoded into its one page type, [`Drained`].  Because the tracer is
//! shared router-wide, any process's responder can serve any process's
//! span ring — `xorp-stats` asks each process for its own name, and the
//! supervisor can read a dead process's spans through a survivor.

use xorp_event::EventLoop;
use xorp_profiler::tracing::Span;
use xorp_profiler::{points, Drained, Metrics, PointInfo, Profiler, Record, Tracer};

use crate::atom::AtomValue;
use crate::error::XrlError;
use crate::idl::TypedResponder;
use crate::router::XrlRouter;
use crate::xrl_interface;

/// Pseudo-point expanding to all eight §8.2 route-flow points.
pub const ROUTE_FLOW_ALIAS: &str = "route_flow";

/// Upper bound on rows per `get_records`/`get_spans` reply, whatever
/// `max` the caller asked for.
pub const MAX_RECORDS_PER_SLICE: usize = 4096;

xrl_interface! {
    /// The profiling/metrics observer surface.  Row-valued returns travel
    /// as lists of lists; [`decode_points`], [`decode_records`] and
    /// [`decode_metrics`] turn them back into native structs.
    pub interface profile("profile", "1.0") {
        fn enable(point: String) -> (ok: bool);
        fn disable(point: String) -> (ok: bool);
        fn list() -> (points: Vec<AtomValue>);
        fn get_records(point: String, max: u32)
            -> (records: Vec<AtomValue>, remaining: u32, dropped: u64);
        fn get_metrics() -> (metrics: Vec<AtomValue>);
        // Appended after get_metrics: method ids are registration-order
        // indices, so new methods must go last to keep v2 ids stable.
        fn get_spans(process: String, max: u32)
            -> (spans: Vec<AtomValue>, remaining: u32, dropped: u64);
    }
}

struct ProfileServer {
    profiler: Profiler,
    metrics: Metrics,
    tracer: Tracer,
}

impl profile::Server for ProfileServer {
    fn enable(&self, el: &mut EventLoop, point: String, responder: TypedResponder<(bool,)>) {
        if point == ROUTE_FLOW_ALIAS {
            self.profiler.enable_route_flow();
        } else {
            self.profiler.enable(&point);
        }
        responder.ok(el, (true,));
    }

    fn disable(&self, el: &mut EventLoop, point: String, responder: TypedResponder<(bool,)>) {
        if point == ROUTE_FLOW_ALIAS {
            for pt in points::ROUTE_FLOW {
                self.profiler.disable(pt);
            }
        } else {
            self.profiler.disable(&point);
        }
        responder.ok(el, (true,));
    }

    fn list(&self, el: &mut EventLoop, responder: TypedResponder<(Vec<AtomValue>,)>) {
        let rows = self
            .profiler
            .list()
            .into_iter()
            .map(|info| {
                AtomValue::List(vec![
                    AtomValue::Text(info.name),
                    AtomValue::Bool(info.enabled),
                    AtomValue::U64(info.len as u64),
                    AtomValue::U64(info.dropped),
                ])
            })
            .collect();
        responder.ok(el, (rows,));
    }

    fn get_records(
        &self,
        el: &mut EventLoop,
        point: String,
        max: u32,
        responder: TypedResponder<PageReply>,
    ) {
        let d = self.profiler.drain(&point, slice_len(max));
        let reply = page(d.items, d.remaining, d.dropped, |r| {
            AtomValue::List(vec![AtomValue::U64(r.nanos), AtomValue::Text(r.payload)])
        });
        responder.ok(el, reply);
    }

    fn get_metrics(&self, el: &mut EventLoop, responder: TypedResponder<(Vec<AtomValue>,)>) {
        let rows = self
            .metrics
            .snapshot()
            .into_iter()
            .map(|s| {
                AtomValue::List(vec![
                    AtomValue::Text(s.name),
                    AtomValue::Text(s.value.kind().to_string()),
                    AtomValue::I64(s.value.primary()),
                    AtomValue::Text(s.value.render()),
                ])
            })
            .collect();
        responder.ok(el, (rows,));
    }

    fn get_spans(
        &self,
        el: &mut EventLoop,
        process: String,
        max: u32,
        responder: TypedResponder<PageReply>,
    ) {
        let d = self.tracer.drain(&process, slice_len(max));
        let reply = page(d.spans, d.remaining, d.dropped, |s| {
            AtomValue::List(vec![
                AtomValue::U64(s.trace_id),
                AtomValue::U32(s.span_id),
                AtomValue::U32(s.parent_span),
                AtomValue::Text(s.process.to_string()),
                AtomValue::Text(s.point),
                AtomValue::U64(s.wall_us),
                AtomValue::U64(s.start_ns),
                AtomValue::U64(s.end_ns),
                AtomValue::U64(s.link),
            ])
        });
        responder.ok(el, reply);
    }
}

/// The page size a `get_records`/`get_spans` caller asking for `max`
/// gets.
fn slice_len(max: u32) -> usize {
    (max as usize).min(MAX_RECORDS_PER_SLICE)
}

/// The parts of a `get_records`/`get_spans` reply: rows, `remaining`,
/// `dropped`.
pub type PageReply = (Vec<AtomValue>, u32, u64);

/// One drained ring page as reply parts.
fn page<T>(
    items: Vec<T>,
    remaining: usize,
    dropped: u64,
    row: impl Fn(T) -> AtomValue,
) -> PageReply {
    (
        items.into_iter().map(row).collect(),
        remaining as u32,
        dropped,
    )
}

/// Register the `profile/1.0` interface on a target instance, exporting
/// this process's profiler, metrics registry and span tracer.  Call after
/// `register_target`, alongside the keepalive responder.
pub fn add_profile_responder(
    router: &XrlRouter,
    instance: &str,
    profiler: &Profiler,
    metrics: &Metrics,
    tracer: &Tracer,
) {
    profile::register(
        router,
        instance,
        ProfileServer {
            profiler: profiler.clone(),
            metrics: metrics.clone(),
            tracer: tracer.clone(),
        },
    );
}

fn row<'a>(value: &'a AtomValue, what: &str) -> Result<&'a [AtomValue], XrlError> {
    match value {
        AtomValue::List(items) => Ok(items),
        other => Err(XrlError::BadArgs(format!(
            "{what}: row not a list: {other:?}"
        ))),
    }
}

fn row_text(row: &[AtomValue], i: usize, what: &str) -> Result<String, XrlError> {
    match row.get(i) {
        Some(AtomValue::Text(s)) => Ok(s.clone()),
        other => Err(XrlError::BadArgs(format!(
            "{what}[{i}]: not text: {other:?}"
        ))),
    }
}

fn row_u64(row: &[AtomValue], i: usize, what: &str) -> Result<u64, XrlError> {
    match row.get(i) {
        Some(AtomValue::U64(v)) => Ok(*v),
        other => Err(XrlError::BadArgs(format!(
            "{what}[{i}]: not u64: {other:?}"
        ))),
    }
}

fn row_u32(row: &[AtomValue], i: usize, what: &str) -> Result<u32, XrlError> {
    match row.get(i) {
        Some(AtomValue::U32(v)) => Ok(*v),
        other => Err(XrlError::BadArgs(format!(
            "{what}[{i}]: not u32: {other:?}"
        ))),
    }
}

/// Decode a `list` reply's `points` rows into [`PointInfo`] values.
pub fn decode_points(rows: &[AtomValue]) -> Result<Vec<PointInfo>, XrlError> {
    rows.iter()
        .map(|value| {
            let row = row(value, "points")?;
            let enabled = match row.get(1) {
                Some(AtomValue::Bool(b)) => *b,
                other => return Err(XrlError::BadArgs(format!("points[1]: not bool: {other:?}"))),
            };
            Ok(PointInfo {
                name: row_text(row, 0, "points")?,
                enabled,
                len: row_u64(row, 2, "points")? as usize,
                dropped: row_u64(row, 3, "points")?,
            })
        })
        .collect()
}

/// Decode one `get_records`/`get_spans` reply into the ring page the
/// server drained, each row through `item`.
fn decode_page<T>(
    rows: &[AtomValue],
    remaining: u32,
    dropped: u64,
    what: &str,
    item: impl Fn(&[AtomValue]) -> Result<T, XrlError>,
) -> Result<Drained<T>, XrlError> {
    let items = rows
        .iter()
        .map(|value| item(row(value, what)?))
        .collect::<Result<Vec<_>, XrlError>>()?;
    Ok(Drained {
        items,
        remaining: remaining as usize,
        dropped,
    })
}

/// Decode a `get_records` reply's parts.  Row layout: `[nanos:u64,
/// payload:txt]`.
pub fn decode_records(
    rows: &[AtomValue],
    remaining: u32,
    dropped: u64,
) -> Result<Drained<Record>, XrlError> {
    decode_page(rows, remaining, dropped, "records", |row| {
        Ok(Record {
            nanos: row_u64(row, 0, "records")?,
            payload: row_text(row, 1, "records")?,
        })
    })
}

/// Decode a `get_spans` reply's parts.  Row layout: `[trace_id:u64,
/// span_id:u32, parent_span:u32, process:txt, point:txt, wall_us:u64,
/// start_ns:u64, end_ns:u64, link:u64]`.
pub fn decode_spans(
    rows: &[AtomValue],
    remaining: u32,
    dropped: u64,
) -> Result<Drained<Span>, XrlError> {
    decode_page(rows, remaining, dropped, "spans", |row| {
        Ok(Span {
            trace_id: row_u64(row, 0, "spans")?,
            span_id: row_u32(row, 1, "spans")?,
            parent_span: row_u32(row, 2, "spans")?,
            process: row_text(row, 3, "spans")?.into(),
            point: row_text(row, 4, "spans")?,
            wall_us: row_u64(row, 5, "spans")?,
            start_ns: row_u64(row, 6, "spans")?,
            end_ns: row_u64(row, 7, "spans")?,
            link: row_u64(row, 8, "spans")?,
        })
    })
}

/// One decoded `get_metrics` row.
#[derive(Debug, Clone)]
pub struct MetricRow {
    pub name: String,
    /// `counter`, `gauge` or `histogram`.
    pub kind: String,
    /// The metric's single most useful number (total, level, or count).
    pub primary: i64,
    /// Human-readable rendering (includes gauge max / histogram stats).
    pub detail: String,
}

/// Decode a `get_metrics` reply's `metrics` rows.
pub fn decode_metrics(rows: &[AtomValue]) -> Result<Vec<MetricRow>, XrlError> {
    rows.iter()
        .map(|value| {
            let row = row(value, "metrics")?;
            let primary = match row.get(2) {
                Some(AtomValue::I64(v)) => *v,
                other => return Err(XrlError::BadArgs(format!("metrics[2]: not i64: {other:?}"))),
            };
            Ok(MetricRow {
                name: row_text(row, 0, "metrics")?,
                kind: row_text(row, 1, "metrics")?,
                primary,
                detail: row_text(row, 3, "metrics")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::Finder;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn wait<T: 'static>(el: &mut EventLoop, slot: Rc<RefCell<Option<T>>>) -> T {
        el.run_until_idle();
        slot.borrow_mut().take().expect("profile call completed")
    }

    fn slot<T>() -> Rc<RefCell<Option<T>>> {
        Rc::new(RefCell::new(None))
    }

    #[test]
    fn profile_interface_round_trips_intra_process() {
        let mut el = EventLoop::new_virtual();
        let finder = Finder::new();
        let router = XrlRouter::new(&mut el, finder);
        router.register_target("prof", "prof-0", true).unwrap();
        let profiler = Profiler::new();
        let metrics = Metrics::new();
        metrics.counter("xrl.shed_total").add(7);
        let tracer = Tracer::new();
        add_profile_responder(&router, "prof-0", &profiler, &metrics, &tracer);
        let client = profile::Client::new(&router, "prof");

        // Enable the whole route-flow set via the alias.
        let r = slot();
        let s = r.clone();
        client.enable(&mut el, ROUTE_FLOW_ALIAS.to_string(), move |_el, reply| {
            *s.borrow_mut() = Some(reply);
        });
        let (ok,) = wait(&mut el, r).unwrap();
        assert!(ok);
        for pt in points::ROUTE_FLOW {
            assert!(profiler.is_enabled(pt));
        }

        let bgp_in = profiler.point(points::BGP_IN);
        for i in 0..10 {
            bgp_in.record(|| format!("add 10.0.{i}.0/24"));
        }

        let r = slot();
        let s = r.clone();
        client.list(&mut el, move |_el, reply| {
            *s.borrow_mut() = Some(reply);
        });
        let (rows,) = wait(&mut el, r).unwrap();
        let pts = decode_points(&rows).unwrap();
        let bgp_in = pts.iter().find(|p| p.name == points::BGP_IN).unwrap();
        assert!(bgp_in.enabled);
        assert_eq!((bgp_in.len, bgp_in.dropped), (10, 0));

        // Paginated, clearing reads.
        let r = slot();
        let s = r.clone();
        client.get_records(&mut el, points::BGP_IN.to_string(), 6, move |_el, reply| {
            *s.borrow_mut() = Some(reply);
        });
        let (rows, remaining, dropped) = wait(&mut el, r).unwrap();
        let a = decode_records(&rows, remaining, dropped).unwrap();
        assert_eq!((a.items.len(), a.remaining, a.dropped), (6, 4, 0));
        assert_eq!(a.items[0].payload, "add 10.0.0.0/24");

        let r = slot();
        let s = r.clone();
        client.get_records(&mut el, points::BGP_IN.to_string(), 6, move |_el, reply| {
            *s.borrow_mut() = Some(reply);
        });
        let (rows, remaining, dropped) = wait(&mut el, r).unwrap();
        let b = decode_records(&rows, remaining, dropped).unwrap();
        assert_eq!((b.items.len(), b.remaining), (4, 0));
        assert_eq!(b.items[0].payload, "add 10.0.6.0/24");

        // Metrics export.
        let r = slot();
        let s = r.clone();
        client.get_metrics(&mut el, move |_el, reply| {
            *s.borrow_mut() = Some(reply);
        });
        let (rows,) = wait(&mut el, r).unwrap();
        let metric_rows = decode_metrics(&rows).unwrap();
        let shed = metric_rows
            .iter()
            .find(|m| m.name == "xrl.shed_total")
            .unwrap();
        assert_eq!((shed.kind.as_str(), shed.primary), ("counter", 7));

        // Disable via the alias.
        let r = slot();
        let s = r.clone();
        client.disable(&mut el, ROUTE_FLOW_ALIAS.to_string(), move |_el, reply| {
            *s.borrow_mut() = Some(reply);
        });
        let (ok,) = wait(&mut el, r).unwrap();
        assert!(ok);
        assert!(!profiler.is_enabled(points::BGP_IN));
    }

    #[test]
    fn get_records_slices_are_bounded() {
        let mut el = EventLoop::new_virtual();
        let finder = Finder::new();
        let router = XrlRouter::new(&mut el, finder);
        router.register_target("prof", "prof-0", true).unwrap();
        let profiler = Profiler::new();
        let metrics = Metrics::new();
        let tracer = Tracer::new();
        add_profile_responder(&router, "prof-0", &profiler, &metrics, &tracer);
        let client = profile::Client::new(&router, "prof");
        profiler.enable("x");
        let x = profiler.point("x");
        for i in 0..(MAX_RECORDS_PER_SLICE + 100) {
            x.record(|| format!("r{i}"));
        }
        // Asking for more than the slice cap still gets at most the cap.
        let r = slot();
        let s = r.clone();
        client.get_records(&mut el, "x".to_string(), u32::MAX, move |_el, reply| {
            *s.borrow_mut() = Some(reply);
        });
        let (rows, remaining, dropped) = wait(&mut el, r).unwrap();
        let sl = decode_records(&rows, remaining, dropped).unwrap();
        assert_eq!(sl.items.len(), MAX_RECORDS_PER_SLICE);
        assert_eq!(sl.remaining, 100);
    }

    #[test]
    fn get_spans_round_trips_and_paginates() {
        let mut el = EventLoop::new_virtual();
        let finder = Finder::new();
        let router = XrlRouter::new(&mut el, finder);
        router.register_target("prof", "prof-0", true).unwrap();
        let profiler = Profiler::new();
        let metrics = Metrics::new();
        let tracer = Tracer::new();
        add_profile_responder(&router, "prof-0", &profiler, &metrics, &tracer);
        let client = profile::Client::new(&router, "prof");

        tracer.set_sampling(1);
        let bgp = tracer.recorder("bgp");
        for _ in 0..10 {
            let ctx = tracer.sample().unwrap();
            let child = bgp.instant(ctx, "bgp_in");
            bgp.instant(child, "fanout");
        }

        let fetch = |el: &mut EventLoop, max: u32| {
            let r = slot();
            let s = r.clone();
            client.get_spans(el, "bgp".to_string(), max, move |_el, reply| {
                *s.borrow_mut() = Some(reply);
            });
            let (rows, remaining, dropped) = wait(el, r).unwrap();
            decode_spans(&rows, remaining, dropped).unwrap()
        };

        let a = fetch(&mut el, 12);
        assert_eq!((a.items.len(), a.remaining, a.dropped), (12, 8, 0));
        assert_eq!(a.items[0].point, "bgp_in");
        assert_eq!(&*a.items[0].process, "bgp");
        assert_eq!(a.items[0].parent_span, 0);
        assert_eq!(a.items[1].point, "fanout");
        assert_eq!(a.items[1].parent_span, a.items[0].span_id);
        assert_eq!(a.items[1].trace_id, a.items[0].trace_id);

        // Exact-boundary slice closes the pagination.
        let b = fetch(&mut el, 8);
        assert_eq!((b.items.len(), b.remaining), (8, 0));
        // Unknown processes drain empty rather than erroring.
        let c = fetch(&mut el, 4);
        assert_eq!((c.items.len(), c.remaining), (0, 0));
    }
}
