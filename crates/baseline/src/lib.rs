//! Comparator router models for the Figure 13 experiment.
//!
//! "We introduced 255 routes from one BGP peer at one second intervals and
//! recorded the time that the route appeared at another BGP peer.  The
//! experiment was performed on XORP, Cisco-4500, Quagga-0.96.5 and
//! MRTD-2.2.2a routers ... The Cisco and Quagga routers exhibit the
//! obvious symptoms of a 30-second route scanner, where all the routes
//! received in the previous 30 seconds are processed in one batch."
//!
//! We cannot run IOS or 2004-era Quagga, so we model the *structural*
//! property the figure exposes — when received routes are processed:
//!
//! * [`EventDrivenModel`] — processes each route immediately (plus a small
//!   per-hop processing/IPC cost).  Parameterized to represent both the
//!   multi-process XORP shape and the monolithic MRTD shape.
//! * [`ScannerModel`] — queues received routes and processes the batch
//!   when its periodic scan timer fires, like Cisco IOS and Zebra/Quagga
//!   (§2: "Cisco IOS and Zebra both use route scanners").
//!
//! Both run on a virtual-time [`EventLoop`], so the full 300-second
//! experiment completes in milliseconds without changing the semantics.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use xorp_event::{EventLoop, Time};
use xorp_net::Ipv4Net;

/// One observation: a route arrived at `arrival` and was propagated to the
/// downstream peer after `delay`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Propagation {
    /// When the route reached the router (virtual time).
    pub arrival: Time,
    /// How long until it left for the downstream peer.
    pub delay: Duration,
}

/// A router model: routes in, propagation observations out.
pub trait RouterModel {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// A route arrives from the upstream peer.
    fn receive_route(&self, el: &mut EventLoop, net: Ipv4Net);

    /// Observations so far.
    fn propagations(&self) -> Vec<Propagation>;
}

/// Immediate, event-driven processing (XORP / MRTD shape).
pub struct EventDrivenModel {
    name: &'static str,
    /// Per-route processing cost before it is sent on (covers decision +
    /// IPC hops; ~4 ms measured for XORP in Figures 10–12, ~0 for a
    /// monolithic process).
    processing: Duration,
    log: Rc<RefCell<Vec<Propagation>>>,
}

impl EventDrivenModel {
    /// The multi-process XORP shape: a few milliseconds of pipeline + IPC
    /// latency per route.
    pub fn xorp() -> Self {
        EventDrivenModel {
            name: "XORP",
            processing: Duration::from_millis(4),
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// The monolithic event-driven MRTD shape: function calls instead of
    /// IPC.
    pub fn mrtd() -> Self {
        EventDrivenModel {
            name: "MRTd",
            processing: Duration::from_micros(500),
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }
}

impl RouterModel for EventDrivenModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn receive_route(&self, el: &mut EventLoop, _net: Ipv4Net) {
        let arrival = el.now();
        let log = self.log.clone();
        // "we attempt to process that event to completion" — the route is
        // propagated as soon as its processing completes.
        el.after(self.processing, move |el| {
            log.borrow_mut().push(Propagation {
                arrival,
                delay: el.now() - arrival,
            });
        });
    }

    fn propagations(&self) -> Vec<Propagation> {
        self.log.borrow().clone()
    }
}

/// Periodic route-scanner processing (Cisco IOS / Quagga shape).
pub struct ScannerModel {
    name: &'static str,
    scan_interval: Duration,
    /// Routes received since the last scan.
    pending: Rc<RefCell<Vec<(Time, Ipv4Net)>>>,
    log: Rc<RefCell<Vec<Propagation>>>,
    /// Per-route processing cost during the batch.
    batch_per_route: Duration,
    started: std::cell::Cell<bool>,
}

impl ScannerModel {
    /// The classic 30-second scanner.
    pub fn cisco() -> Self {
        Self::with_interval("Cisco", Duration::from_secs(30))
    }

    /// Quagga 0.96's scanner (same 30 s period; named separately so the
    /// figure shows both series, as in the paper).
    pub fn quagga() -> Self {
        Self::with_interval("Quagga", Duration::from_secs(30))
    }

    /// A scanner with an arbitrary period (ablation: 1 s / 5 s / 30 s).
    pub fn with_interval(name: &'static str, scan_interval: Duration) -> Self {
        ScannerModel {
            name,
            scan_interval,
            pending: Rc::new(RefCell::new(Vec::new())),
            log: Rc::new(RefCell::new(Vec::new())),
            batch_per_route: Duration::from_millis(2),
            started: std::cell::Cell::new(false),
        }
    }

    /// The scanner runs whether or not routes are arriving; arm its timer.
    pub fn start(&self, el: &mut EventLoop) {
        if self.started.replace(true) {
            return;
        }
        let pending = self.pending.clone();
        let log = self.log.clone();
        let per_route = self.batch_per_route;
        el.every(self.scan_interval, move |el| {
            // Process everything received since the last scan, in one
            // batch — the paper's "all the routes received in the previous
            // 30 seconds are processed in one batch".
            let batch: Vec<(Time, Ipv4Net)> = pending.borrow_mut().drain(..).collect();
            let now = el.now();
            for (i, (arrival, _)) in batch.into_iter().enumerate() {
                let done = now + per_route * (i as u32 + 1);
                log.borrow_mut().push(Propagation {
                    arrival,
                    delay: done - arrival,
                });
            }
        });
    }

    /// Pending (unscanned) routes.
    pub fn pending_count(&self) -> usize {
        self.pending.borrow().len()
    }
}

impl RouterModel for ScannerModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn receive_route(&self, el: &mut EventLoop, net: Ipv4Net) {
        assert!(self.started.get(), "ScannerModel::start not called");
        self.pending.borrow_mut().push((el.now(), net));
    }

    fn propagations(&self) -> Vec<Propagation> {
        self.log.borrow().clone()
    }
}

/// Run the Figure 13 workload against a model: `count` routes, one per
/// `spacing`, starting at t=`start`.  Returns observations sorted by
/// arrival.
pub fn run_route_flow(
    el: &mut EventLoop,
    model: &dyn RouterModel,
    count: u32,
    spacing: Duration,
) -> Vec<Propagation> {
    let start = el.now();
    for i in 0..count {
        let at = start + spacing * i;
        el.run_until(at);
        let net: Ipv4Net =
            xorp_net::Prefix::new(std::net::Ipv4Addr::from(0x0a00_0000 + (i << 8)), 24).unwrap();
        model.receive_route(el, net);
    }
    // Let the tail drain (a full scan interval past the last arrival).
    let end = el.now() + Duration::from_secs(61);
    el.run_until(end);
    let mut props = model.propagations();
    props.sort_by_key(|p| p.arrival);
    props
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_driven_delay_is_flat_and_small() {
        let mut el = EventLoop::new_virtual();
        let model = EventDrivenModel::xorp();
        let props = run_route_flow(&mut el, &model, 50, Duration::from_secs(1));
        assert_eq!(props.len(), 50);
        for p in &props {
            assert!(p.delay <= Duration::from_millis(10), "{:?}", p.delay);
        }
    }

    #[test]
    fn mrtd_faster_than_xorp_but_same_shape() {
        let mut el = EventLoop::new_virtual();
        let xorp = EventDrivenModel::xorp();
        let mrtd = EventDrivenModel::mrtd();
        let px = run_route_flow(&mut el, &xorp, 20, Duration::from_secs(1));
        let pm = run_route_flow(&mut el, &mrtd, 20, Duration::from_secs(1));
        let max_x = px.iter().map(|p| p.delay).max().unwrap();
        let max_m = pm.iter().map(|p| p.delay).max().unwrap();
        assert!(max_m < max_x);
        assert!(max_x < Duration::from_secs(1)); // both sub-second
    }

    #[test]
    fn scanner_produces_sawtooth() {
        let mut el = EventLoop::new_virtual();
        let model = ScannerModel::cisco();
        model.start(&mut el);
        let props = run_route_flow(&mut el, &model, 90, Duration::from_secs(1));
        assert_eq!(props.len(), 90);
        let max = props.iter().map(|p| p.delay).max().unwrap();
        let min = props.iter().map(|p| p.delay).min().unwrap();
        // Routes arriving just after a scan wait ~30 s; just before, ~0 s.
        assert!(max > Duration::from_secs(25), "max {max:?}");
        assert!(min < Duration::from_secs(2), "min {min:?}");
        // Sawtooth: delays decrease within each scan window.  Check one
        // descending run of at least 20 consecutive arrivals.
        let mut longest_desc = 1;
        let mut cur = 1;
        for w in props.windows(2) {
            if w[1].delay < w[0].delay {
                cur += 1;
                longest_desc = longest_desc.max(cur);
            } else {
                cur = 1;
            }
        }
        assert!(longest_desc >= 20, "longest descending run {longest_desc}");
    }

    #[test]
    fn scanner_interval_bounds_delay() {
        for secs in [1u64, 5, 30] {
            let mut el = EventLoop::new_virtual();
            let model = ScannerModel::with_interval("sweep", Duration::from_secs(secs));
            model.start(&mut el);
            let props = run_route_flow(&mut el, &model, 40, Duration::from_millis(500));
            let max = props.iter().map(|p| p.delay).max().unwrap();
            assert!(
                max <= Duration::from_secs(secs) + Duration::from_secs(1),
                "interval {secs}s gave max {max:?}"
            );
        }
    }

    #[test]
    fn all_routes_eventually_propagate() {
        let mut el = EventLoop::new_virtual();
        let model = ScannerModel::quagga();
        model.start(&mut el);
        let props = run_route_flow(&mut el, &model, 255, Duration::from_secs(1));
        assert_eq!(props.len(), 255);
        assert_eq!(model.pending_count(), 0);
    }
}
