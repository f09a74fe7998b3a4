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
//! Rows travel as route rows do, as [`WireList`]s written with
//! [`ListWriter::put`] and read in place by [`WireList::read_rows`] and
//! [`AtomReader::next_as`]: a bad row rejects the whole reply, and the
//! bytes are those of the atom trees older builds sent.
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

use crate::error::XrlError;
use crate::idl::TypedResponder;
use crate::router::XrlRouter;
use crate::wire::{AtomReader, ListWriter, WireList, MAX_ITEMS};
use crate::xrl_interface;

/// Pseudo-point expanding to all eight §8.2 route-flow points.
pub const ROUTE_FLOW_ALIAS: &str = "route_flow";

/// Upper bound on rows per `get_records`/`get_spans` reply, whatever
/// `max` the caller asked for.
pub const MAX_RECORDS_PER_SLICE: usize = 4096;

xrl_interface! {
    /// The profiling/metrics observer surface.  Row-valued returns travel
    /// as lists of lists; [`decode_points`], [`decode_records`],
    /// [`decode_metrics`] and [`decode_spans`] turn them into structs.
    pub interface profile("profile", "1.0") {
        fn enable(point: String) -> (ok: bool);
        fn disable(point: String) -> (ok: bool);
        fn list() -> (points: WireList);
        fn get_records(point: String, max: u32)
            -> (records: WireList, remaining: u32, dropped: u64);
        fn get_metrics() -> (metrics: WireList);
        // Appended after get_metrics: method ids are registration-order
        // indices, so new methods must go last to keep v2 ids stable.
        fn get_spans(process: String, max: u32)
            -> (spans: WireList, remaining: u32, dropped: u64);
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

    fn list(&self, el: &mut EventLoop, responder: TypedResponder<(WireList,)>) {
        let points = rows(&self.profiler.list(), |row, p| {
            row.text(&p.name)
                .put(&p.enabled)
                .put(&(p.len as u64))
                .put(&p.dropped);
        });
        responder.ok(el, (points,));
    }

    fn get_records(
        &self,
        el: &mut EventLoop,
        point: String,
        max: u32,
        responder: TypedResponder<PageReply>,
    ) {
        let d = self.profiler.drain(&point, slice_len(max));
        let records = rows(&d.items, |row, r| {
            row.put(&r.nanos).text(&r.payload);
        });
        responder.ok(el, (records, d.remaining as u32, d.dropped));
    }

    fn get_metrics(&self, el: &mut EventLoop, responder: TypedResponder<(WireList,)>) {
        let metrics = rows(&self.metrics.snapshot(), |row, m| {
            row.text(&m.name)
                .text(m.value.kind())
                .put(&m.value.primary())
                .text(&m.value.render());
        });
        responder.ok(el, (metrics,));
    }

    fn get_spans(
        &self,
        el: &mut EventLoop,
        process: String,
        max: u32,
        responder: TypedResponder<PageReply>,
    ) {
        let d = self.tracer.drain(&process, slice_len(max));
        let spans = rows(&d.spans, |row, s| {
            row.put(&s.trace_id)
                .put(&s.span_id)
                .put(&s.parent_span)
                .text(&s.process)
                .text(&s.point)
                .put(&s.wall_us)
                .put(&s.start_ns)
                .put(&s.end_ns)
                .put(&s.link);
        });
        responder.ok(el, (spans, d.remaining as u32, d.dropped));
    }
}

/// The page size a `get_records`/`get_spans` caller asking for `max`
/// gets.
fn slice_len(max: u32) -> usize {
    (max as usize).min(MAX_RECORDS_PER_SLICE)
}

/// The parts of a `get_records`/`get_spans` reply: rows, `remaining`,
/// `dropped`.
pub type PageReply = (WireList, u32, u64);

/// A reply's rows, each written by `row`: at most [`MAX_ITEMS`], the most
/// the wire counts.  A page holds fewer, and so do the metrics, all named
/// in code; but `enable` makes a point of any name a caller sends, so a
/// `list` past the cap is cut there.
fn rows<T>(items: &[T], row: impl Fn(&mut ListWriter, &T)) -> WireList {
    let mut w = ListWriter::default();
    for item in items.iter().take(MAX_ITEMS) {
        w.list(|w| row(w, item));
    }
    w.take()
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

/// `rows`, each of exactly `width` items read by `item`.
fn read<'a, T>(
    rows: &'a WireList,
    what: &str,
    width: u16,
    item: impl Fn(&mut AtomReader<'a>) -> Result<T, XrlError>,
) -> Result<Vec<T>, XrlError> {
    rows.read_rows(what, |r, n| match n == width {
        true => item(r),
        false => Err(XrlError::BadArgs(format!("{n} items, not {width}"))),
    })
}

/// Decode a `list` reply's `points` rows into [`PointInfo`] values.
pub fn decode_points(rows: &WireList) -> Result<Vec<PointInfo>, XrlError> {
    read(rows, "points", 4, |r| {
        Ok(PointInfo {
            name: r.next_as()?,
            enabled: r.next_as()?,
            len: r.next_as::<u64>()? as usize,
            dropped: r.next_as()?,
        })
    })
}

/// One drained ring page, from a `get_records`/`get_spans` reply's parts.
fn drained<T>(items: Vec<T>, remaining: u32, dropped: u64) -> Drained<T> {
    Drained {
        items,
        remaining: remaining as usize,
        dropped,
    }
}

/// Decode a `get_records` reply's parts.  Row layout: `[nanos:u64,
/// payload:txt]`.
pub fn decode_records(
    rows: &WireList,
    remaining: u32,
    dropped: u64,
) -> Result<Drained<Record>, XrlError> {
    let items = read(rows, "records", 2, |r| {
        Ok(Record {
            nanos: r.next_as()?,
            payload: r.next_as()?,
        })
    })?;
    Ok(drained(items, remaining, dropped))
}

/// Decode a `get_spans` reply's parts.  Row layout: `[trace_id:u64,
/// span_id:u32, parent_span:u32, process:txt, point:txt, wall_us:u64,
/// start_ns:u64, end_ns:u64, link:u64]`.
pub fn decode_spans(
    rows: &WireList,
    remaining: u32,
    dropped: u64,
) -> Result<Drained<Span>, XrlError> {
    let items = read(rows, "spans", 9, |r| {
        Ok(Span {
            trace_id: r.next_as()?,
            span_id: r.next_as()?,
            parent_span: r.next_as()?,
            process: r.next_as::<String>()?.into(),
            point: r.next_as()?,
            wall_us: r.next_as()?,
            start_ns: r.next_as()?,
            end_ns: r.next_as()?,
            link: r.next_as()?,
        })
    })?;
    Ok(drained(items, remaining, dropped))
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
pub fn decode_metrics(rows: &WireList) -> Result<Vec<MetricRow>, XrlError> {
    read(rows, "metrics", 4, |r| {
        Ok(MetricRow {
            name: r.next_as()?,
            kind: r.next_as()?,
            primary: r.next_as()?,
            detail: r.next_as()?,
        })
    })
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

    /// One item of a row, written into the row's list.
    type Item = fn(&mut ListWriter) -> &mut ListWriter;

    /// A decoder under test, its reply's row name, a good row, and for
    /// each position an item of a type the decoder must refuse there.
    struct Case {
        what: &'static str,
        decode: fn(&WireList) -> Result<(), XrlError>,
        good: Vec<Item>,
        wrong: Vec<Item>,
    }

    fn cases() -> Vec<Case> {
        vec![
            Case {
                what: "points",
                decode: |l| decode_points(l).map(drop),
                good: vec![
                    |w| w.text("route_bgpin"),
                    |w| w.put(&true),
                    |w| w.put(&3u64),
                    |w| w.put(&1u64),
                ],
                wrong: vec![
                    |w| w.put(&b"route_bgpin".to_vec()),
                    |w| w.put(&1u32),
                    |w| w.put(&3u32),
                    |w| w.put(&1i64),
                ],
            },
            Case {
                what: "records",
                decode: |l| decode_records(l, 0, 0).map(drop),
                good: vec![|w| w.put(&7u64), |w| w.text("add 10.0.0.0/8")],
                wrong: vec![|w| w.put(&7u32), |w| w.put(&vec![0xffu8])],
            },
            Case {
                what: "metrics",
                decode: |l| decode_metrics(l).map(drop),
                good: vec![
                    |w| w.text("xrl.shed_total"),
                    |w| w.text("counter"),
                    |w| w.put(&7i64),
                    |w| w.text("7"),
                ],
                wrong: vec![
                    |w| w.put(&false),
                    |w| w.put(&vec![1u8]),
                    |w| w.put(&7u64),
                    |w| w.put(&7i32),
                ],
            },
            Case {
                what: "spans",
                decode: |l| decode_spans(l, 0, 0).map(drop),
                good: vec![
                    |w| w.put(&9u64),
                    |w| w.put(&2u32),
                    |w| w.put(&1u32),
                    |w| w.text("bgp"),
                    |w| w.text("bgp_in"),
                    |w| w.put(&5u64),
                    |w| w.put(&6u64),
                    |w| w.put(&8u64),
                    |w| w.put(&0u64),
                ],
                wrong: vec![
                    |w| w.put(&9u32),
                    |w| w.put(&2u64),
                    |w| w.put(&1i32),
                    |w| w.put(&3u64),
                    |w| w.put(&true),
                    |w| w.text("5"),
                    |w| w.put(&6i64),
                    |w| w.put(&8u32),
                    |w| w.put(&vec![0u8]),
                ],
            },
        ]
    }

    /// Append a row of `items`.
    fn row<'a>(w: &'a mut ListWriter, items: &[Item]) -> &'a mut ListWriter {
        w.list(|w| {
            for item in items {
                item(w);
            }
        })
    }

    /// A reply whose rows are `rows`.
    fn reply(rows: &[Vec<Item>]) -> WireList {
        let mut w = ListWriter::default();
        for items in rows {
            row(&mut w, items);
        }
        w.take()
    }

    /// `decode` refuses `rows` with `BadArgs` naming row `at`.
    fn refused(case: &Case, rows: &WireList, at: usize, why: &str) {
        let at = format!("{}[{at}]: ", case.what);
        match (case.decode)(rows) {
            Err(XrlError::BadArgs(m)) => assert!(m.starts_with(&at), "{why}: {m}"),
            other => panic!("{at}{why}: {other:?}"),
        }
    }

    #[test]
    fn decoders_refuse_hostile_rows_whole() {
        for case in cases() {
            let good = &case.good;
            (case.decode)(&reply(&[good.clone(), good.clone()])).expect("good rows");

            // A short row before a good one: the arity check refuses it,
            // so the good row's items are never read as the short row's.
            let short = good[..good.len() - 1].to_vec();
            refused(&case, &reply(&[short, good.clone()]), 0, "short row");
            // A long row: its extra item would otherwise pass for row 1.
            let mut long = good.clone();
            long.push(good[0]);
            refused(&case, &reply(&[long, good.clone()]), 0, "long row");

            for (i, wrong) in case.wrong.iter().enumerate() {
                let mut row = good.clone();
                row[i] = *wrong;
                refused(&case, &reply(&[good.clone(), row]), 1, "wrong type");
            }

            let mut w = ListWriter::default();
            row(&mut w, good).put(&1u64);
            refused(&case, &w.take(), 1, "not a list");

            // Truncated anywhere, the row is refused, never read past.
            let mut whole = ListWriter::default();
            row(&mut whole, good);
            for cut in 0..whole.buf.len() {
                let mut w = whole.clone();
                w.buf.truncate(cut);
                refused(&case, &w.take(), 0, "truncated");
            }
        }
    }

    #[test]
    fn a_list_reply_stops_at_the_wire_count() {
        let mut el = EventLoop::new_virtual();
        let router = XrlRouter::new(&mut el, Finder::new());
        router.register_target("prof", "prof-0", true).unwrap();
        let profiler = Profiler::new();
        add_profile_responder(
            &router,
            "prof-0",
            &profiler,
            &Metrics::new(),
            &Tracer::new(),
        );
        // `enable` makes a point of any name; more than one list holds.
        for i in 0..=MAX_ITEMS {
            profiler.enable(&format!("p{i}"));
        }
        let r = slot();
        let s = r.clone();
        profile::Client::new(&router, "prof").list(&mut el, move |_el, reply| {
            *s.borrow_mut() = Some(reply);
        });
        let (rows,) = wait(&mut el, r).unwrap();
        assert_eq!(decode_points(&rows).unwrap().len(), MAX_ITEMS);
    }
}
