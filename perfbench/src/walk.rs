//! The traced run's *layer walk*: one thread pushes the seeded table
//! through each layer's public functions in the order a route crosses them
//! in the running router, every call wrapped in a benchmark-side span.
//!
//! ```text
//! per UPDATE   bgp.msg.decode   BgpMessage::decode  (+ UpdateMessage -> UpdateIn)
//!              bgp.pipeline     BgpProcess::apply_update, loop run to idle
//! per frame, on the BGP->RIB hop and again on the RIB->FEA hop:
//!              harness.codec.encode   xrl_ifaces::add_row / delete_row
//!              xrl.marshal.encode     Frame::encode          (request, then reply)
//!              xrl.socket             write_all + read_frame on a loopback TcpStream pair
//!              xrl.marshal.decode     Frame::decode
//!              harness.codec.decode   get_arg / decode_add_rows -> RouteEntry / FibEntry
//!              rib.apply              Rib::add_route / delete_route / apply_batch
//!              fea.install            Fea::add_route4 / delete_route4
//! ```
//!
//! A *step* is `max(64, batch)` routes: the UPDATEs that fill one frame.
//! Every step runs (the tables must fill as they do in the router), but
//! spans are recorded for a sample of steps only, to keep the trace file a
//! few megabytes.  BGP's RIB output, its nexthop service and the RIB's FEA
//! watcher are benchmark stubs that just collect what comes out.
//!
//! What the walk leaves out, by construction: the threads, their wake-ups
//! and queues, and the typed stubs' dispatch — the gap between the walk's
//! serial cost and the threaded router's rate is `walk.pipeline_ratio`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use bytes::BytesMut;
use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::msg::{BgpMessage, UpdateMessage};
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RibNexthopAnswer};
use xorp_bgp::{BgpConfig, BgpProcess, PeerConfig, PeerId};
use xorp_event::EventLoop;
use xorp_fea::{test_iface, Fea, FibEntry};
use xorp_harness::workload::BackboneRoute;
use xorp_harness::xrl_ifaces::{self, RouteWire};
use xorp_net::{AsNum, Ipv4Net, PathAttributes, ProtocolId, RouteEntry};
use xorp_policy::FilterBank;
use xorp_rib::{BatchOp, RedistWatcher, Rib};
use xorp_stages::RouteOp;
use xorp_xrl::marshal::{read_frame, Frame};
use xorp_xrl::{AtomValue, XrlArgs};

use crate::gen::{self, Rng, CHURN_PEER, TABLE_PEER, UPDATE_ROUTES};
use crate::oracle::Oracle;
use crate::scenario::Tally;
use crate::spans::SpanLog;
use crate::spec::Workload;

type Route = RouteEntry<Ipv4Addr>;
type Op = RouteOp<Ipv4Addr, Route>;

/// Table prefixes the replace phase flips to the churn peer and back.
const REPLACE_ROUTES: usize = 16_384;
/// Forwarding lookups checked against the oracle after each phase.
const LOOKUPS: usize = 10_000;

/// Answers every nexthop inside the connected 192.168.0.0/16 at metric 1,
/// as the RIB would, and counts how often BGP had to ask.
struct CountingNexthops(Rc<Cell<u64>>);

impl NexthopService<Ipv4Addr> for CountingNexthops {
    fn resolve_nexthop(&self, el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        self.0.set(self.0.get() + 1);
        let connected: Ipv4Net = "192.168.0.0/16".parse().expect("literal prefix");
        cb(
            el,
            RibNexthopAnswer {
                valid: connected,
                metric: connected.contains_addr(addr).then_some(1),
            },
        );
    }
}

/// The three kinds of step.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Add,
    Replace,
    Del,
}

impl Phase {
    /// Root span name of a step in this phase.
    fn root(self) -> &'static str {
        match self {
            Phase::Add => "walk.step.add",
            Phase::Replace => "walk.step.replace",
            Phase::Del => "walk.step.del",
        }
    }
}

/// Which process a frame is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hop {
    Rib,
    Fea,
}

struct Walk {
    batch: usize,
    el: EventLoop,
    bgp: BgpProcess<Ipv4Addr>,
    from_bgp: Rc<RefCell<Vec<Op>>>,
    rib: Rib<Ipv4Addr>,
    from_rib: Rc<RefCell<Vec<Op>>>,
    fea: Fea,
    /// A connected loopback pair: requests go `near` -> `far`, replies back.
    near: TcpStream,
    far: TcpStream,
    log: SpanLog,
    seq: u64,
    steps: u32,
    wire_bytes: u64,
    nexthop_queries: Rc<Cell<u64>>,
}

impl Walk {
    fn new(batch: usize) -> Walk {
        let mut el = EventLoop::new();
        let nexthop_queries = Rc::new(Cell::new(0));
        let mut bgp = BgpProcess::new(
            BgpConfig {
                local_as: AsNum(65000),
                router_id: "10.255.0.1".parse().expect("literal address"),
                local_addr: IpAddr::V4("192.168.0.1".parse().expect("literal address")),
                hold_time: 90,
            },
            Rc::new(CountingNexthops(nexthop_queries.clone())),
        );
        // As the harness wires it: coalesced fanout when batching.
        if batch > 1 {
            bgp.set_coalesce(batch);
        }
        let from_bgp: Rc<RefCell<Vec<Op>>> = Rc::default();
        let sink = from_bgp.clone();
        bgp.set_rib_output(&mut el, move |_el, _origin, op| sink.borrow_mut().push(op));
        for (peer, asn) in [(TABLE_PEER, 65001), (CHURN_PEER, 65002)] {
            bgp.add_peer(&mut el, PeerConfig::simple(PeerId(peer), AsNum(asn)), None);
            bgp.peering_up(&mut el, PeerId(peer));
        }

        let mut rib: Rib<Ipv4Addr> = Rib::new(false);
        let from_rib: Rc<RefCell<Vec<Op>>> = Rc::default();
        let sink = from_rib.clone();
        rib.add_redist_watcher(
            &mut el,
            RedistWatcher::new(
                "fea",
                None,
                FilterBank::accept_by_default(),
                Rc::new(move |_el, op| sink.borrow_mut().push(op)),
            ),
        );
        let mut fea = Fea::new();
        fea.configure_interface(test_iface("eth0", "192.168.0.1", 16));

        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        let near = TcpStream::connect(listener.local_addr().expect("bound address"))
            .expect("connect loopback");
        let (far, _) = listener.accept().expect("accept loopback");
        for s in [&near, &far] {
            s.set_nodelay(true).expect("TCP_NODELAY"); // as the XRL transport does
        }

        let mut walk = Walk {
            batch,
            el,
            bgp,
            from_bgp,
            rib,
            from_rib,
            fea,
            near,
            far,
            log: SpanLog::default(),
            seq: 0,
            steps: 0,
            wire_bytes: 0,
            nexthop_queries,
        };
        // The connected route the harness pre-installs, through the same
        // RIB -> FEA hop as everything else (untraced).
        let mut attrs = PathAttributes::new(IpAddr::V4("192.168.0.1".parse().expect("literal")));
        attrs.ebgp = false;
        let mut connected = Route::new(
            "192.168.0.0/16".parse().expect("literal prefix"),
            Arc::new(attrs),
            1,
            ProtocolId::Connected,
        );
        connected.ifname = Some("eth0".into());
        walk.rib.add_route(&mut walk.el, connected);
        walk.el.run_until_idle();
        let ops = std::mem::take(&mut *walk.from_rib.borrow_mut());
        walk.hop(Hop::Fea, ops);
        walk
    }

    /// One BGP UPDATE off the wire and through the BGP pipeline.
    fn update(&mut self, peer: u32, wire: &BytesMut) {
        let s = self.log.begin("bgp.msg.decode");
        let mut buf = wire.clone();
        let msg = BgpMessage::decode(&mut buf)
            .expect("the benchmark encoded this UPDATE")
            .expect("a whole message");
        let BgpMessage::Update(update) = msg else {
            unreachable!("only UPDATEs are generated");
        };
        // UpdateMessage -> UpdateIn, as a session handler does.
        let announce = update.nexthop.map(|nh| {
            let mut attrs = PathAttributes::new(IpAddr::V4(nh));
            attrs.as_path = update.as_path.unwrap_or_default();
            attrs.med = update.med;
            attrs.local_pref = update.local_pref;
            (Arc::new(attrs), update.nlri)
        });
        let update = UpdateIn {
            withdrawn: update.withdrawn,
            announce,
        };
        self.log.end(s);

        let s = self.log.begin("bgp.pipeline");
        self.bgp.apply_update(&mut self.el, PeerId(peer), update);
        self.el.run_until_idle();
        self.log.end(s);
    }

    /// Carry `ops` across one XRL hop in frames of `self.batch` routes and
    /// apply them on the far side.  Adds and deletes travel in separate
    /// frames, as the harness's batcher sends them.
    fn hop(&mut self, hop: Hop, ops: Vec<Op>) {
        let mut run: Vec<Op> = Vec::with_capacity(self.batch);
        for op in ops {
            let is_delete = |o: &Op| matches!(o, RouteOp::Delete { .. });
            if run.len() == self.batch || run.last().is_some_and(|l| is_delete(l) != is_delete(&op))
            {
                self.frame(hop, std::mem::take(&mut run));
            }
            run.push(op);
        }
        if !run.is_empty() {
            self.frame(hop, run);
        }
    }

    /// One request frame and its reply.
    fn frame(&mut self, hop: Hop, ops: Vec<Op>) {
        let delete = matches!(ops[0], RouteOp::Delete { .. });

        // -- sender: rows, then the positional (wire v2) argument list ----
        let s = self.log.begin("harness.codec.encode");
        let mut rows: Vec<Vec<AtomValue>> = ops
            .iter()
            .map(|op| match op {
                RouteOp::Add { net, route }
                | RouteOp::Replace {
                    net, new: route, ..
                } => xrl_ifaces::add_row(*net, route),
                RouteOp::Delete { net, old } => {
                    xrl_ifaces::delete_row(*net, (hop == Hop::Rib).then_some(old.proto))
                }
            })
            .collect();
        let mut args = XrlArgs::new();
        if self.batch > 1 {
            args.push_value(AtomValue::List(
                rows.into_iter().map(AtomValue::List).collect(),
            ));
        } else {
            // Per-route methods take the row's atoms as their arguments
            // (the FEA's add_route has no trailing `proto`).
            let mut atoms = rows.pop().expect("one route per frame");
            if hop == Hop::Fea && !delete {
                atoms.truncate(4);
            }
            for atom in atoms {
                args.push_value(atom);
            }
        }
        self.log.end(s);

        let s = self.log.begin("xrl.marshal.encode");
        self.seq += 1;
        let request = Frame::Request {
            seq: self.seq,
            sender: 1,
            target: if hop == Hop::Rib { "rib-0" } else { "fea-0" }.into(),
            key: [7; 16],
            path: String::new(),
            method_id: Some(delete as u32),
            args,
            priority: false,
            trace: None,
        }
        .encode();
        self.log.end(s);

        let s = self.log.begin("xrl.socket");
        self.near.write_all(&request).expect("loopback write");
        let body = read_frame(&mut self.far).expect("loopback read");
        self.log.end(s);
        self.wire_bytes += request.len() as u64;

        let s = self.log.begin("xrl.marshal.decode");
        let Ok(Frame::Request { args, .. }) = Frame::decode(body) else {
            unreachable!("the benchmark encoded this frame");
        };
        self.log.end(s);

        // -- receiver: arguments back to routes, then apply ---------------
        let s = self.log.begin("harness.codec.decode");
        let (adds, dels): (Vec<RouteWire>, Vec<(Ipv4Net, ProtocolId)>) = if self.batch > 1 {
            let rows: Vec<AtomValue> = args.get_arg(0, "routes").expect("rows argument");
            if delete {
                (
                    vec![],
                    xrl_ifaces::decode_delete_rows(&rows).expect("delete rows"),
                )
            } else {
                (
                    xrl_ifaces::decode_add_rows(&rows).expect("add rows"),
                    vec![],
                )
            }
        } else {
            // The RIB's per-route methods end in the protocol's name; the
            // FEA's carry none.
            let proto = |idx: usize| match hop {
                Hop::Rib => {
                    let name: String = args.get_arg(idx, "proto").expect("proto");
                    ProtocolId::from_name(&name).unwrap_or(ProtocolId::Ebgp)
                }
                Hop::Fea => ProtocolId::Ebgp,
            };
            let net = args.get_arg(0, "net").expect("net");
            if delete {
                (vec![], vec![(net, proto(1))])
            } else {
                let wire = RouteWire {
                    net,
                    nexthop: args.get_arg(1, "nexthop").expect("nexthop"),
                    ifname: args.get_arg(2, "ifname").expect("ifname"),
                    metric: args.get_arg(3, "metric").expect("metric"),
                    proto: proto(4),
                };
                (vec![wire], vec![])
            }
        };
        // What the harness's servers build from a decoded row.
        let rib_ops: Vec<BatchOp<Ipv4Addr>> = match hop {
            Hop::Rib => adds
                .iter()
                .map(|w| {
                    let mut attrs = PathAttributes::new(IpAddr::V4(w.nexthop));
                    attrs.ebgp = w.proto == ProtocolId::Ebgp;
                    let mut route = Route::new(w.net, Arc::new(attrs), w.metric, w.proto);
                    if !w.ifname.is_empty() {
                        route.ifname = Some(w.ifname.as_str().into());
                    }
                    BatchOp::Add(route)
                })
                .chain(
                    dels.iter()
                        .map(|&(net, proto)| BatchOp::Delete { proto, net }),
                )
                .collect(),
            Hop::Fea => vec![],
        };
        let fib_adds: Vec<FibEntry<Ipv4Addr>> = match hop {
            Hop::Rib => vec![],
            Hop::Fea => adds
                .into_iter()
                .map(|w| FibEntry {
                    net: w.net,
                    nexthop: IpAddr::V4(w.nexthop),
                    ifname: if w.ifname.is_empty() {
                        "eth0".to_string()
                    } else {
                        w.ifname
                    },
                    metric: w.metric,
                })
                .collect(),
        };
        self.log.end(s);

        let applied = ops.len() as u32;
        match hop {
            Hop::Rib => {
                let s = self.log.begin("rib.apply");
                if self.batch > 1 {
                    self.rib.apply_batch(&mut self.el, rib_ops);
                } else {
                    for op in rib_ops {
                        match op {
                            BatchOp::Add(route) => self.rib.add_route(&mut self.el, route),
                            BatchOp::Delete { proto, net } => {
                                self.rib.delete_route(&mut self.el, proto, net);
                            }
                        }
                    }
                }
                self.el.run_until_idle();
                self.log.end(s);
            }
            Hop::Fea => {
                let s = self.log.begin("fea.install");
                for entry in fib_adds {
                    self.fea.add_route4(entry);
                }
                for (net, _) in &dels {
                    self.fea.delete_route4(net);
                }
                self.log.end(s);
            }
        }

        // -- the reply travels back the same way ---------------------------
        let s = self.log.begin("xrl.marshal.encode");
        let reply = Frame::Response {
            seq: self.seq,
            result: Ok(if self.batch > 1 {
                XrlArgs::new().add_u32("count", applied)
            } else {
                XrlArgs::new()
            }),
            priority: false,
        }
        .encode();
        self.log.end(s);
        let s = self.log.begin("xrl.socket");
        self.far.write_all(&reply).expect("loopback write");
        let body = read_frame(&mut self.near).expect("loopback read");
        self.log.end(s);
        self.wire_bytes += reply.len() as u64;
        let s = self.log.begin("xrl.marshal.decode");
        let decoded = Frame::decode(body);
        debug_assert!(matches!(decoded, Ok(Frame::Response { .. })));
        self.log.end(s);
    }

    /// Run `updates` (already in BGP wire form) as steps of
    /// `max(64, batch)` routes, recording spans for one step in
    /// `sample_every`.  Returns (routes in recorded steps, ns spent in
    /// unrecorded steps, routes in unrecorded steps).
    fn phase(
        &mut self,
        phase: Phase,
        peer: u32,
        updates: &[(BytesMut, usize)],
        sample_every: usize,
    ) -> PhaseCount {
        let per_step = self.batch.max(UPDATE_ROUTES) / UPDATE_ROUTES;
        let mut count = PhaseCount::default();
        for (i, step) in updates.chunks(per_step).enumerate() {
            let routes: usize = step.iter().map(|(_, n)| n).sum();
            self.log.recording = i % sample_every == 0;
            self.steps += 1;
            self.log.set_trace(self.steps);
            let bare = Instant::now();
            let root = self.log.begin(phase.root());
            for (wire, _) in step {
                self.update(peer, wire);
            }
            let ops = std::mem::take(&mut *self.from_bgp.borrow_mut());
            self.hop(Hop::Rib, ops);
            let ops = std::mem::take(&mut *self.from_rib.borrow_mut());
            self.hop(Hop::Fea, ops);
            self.log.end(root);
            if self.log.recording {
                count.traced_routes += routes;
            } else {
                count.bare_routes += routes;
                count.bare_ns += bare.elapsed().as_nanos() as u64;
            }
        }
        self.log.recording = false;
        count
    }

    /// Table sizes and `LOOKUPS` forwarding decisions against the oracle.
    fn verify(&self, what: &str, oracle: &Oracle, addrs: &[Ipv4Addr], tally: &mut Tally) {
        let want = (
            oracle.bgp_routes(),
            oracle.fib_routes(),
            oracle.fib_routes(),
        );
        let got = (
            self.bgp.route_count(),
            self.rib.route_count(),
            self.fea.route_count4(),
        );
        tally.check(got == want, || {
            format!("walk, after {what}: (bgp, rib, fib) routes {got:?}, oracle {want:?}")
        });
        let mut wrong = 0u64;
        for &addr in addrs {
            let got = self.fea.lookup4(addr).map(|e| e.nexthop);
            if got != oracle.lookup(addr).map(IpAddr::V4) {
                wrong += 1;
            }
        }
        tally.ops(addrs.len());
        if wrong > 0 {
            tally.fail(
                wrong,
                format!(
                    "walk, after {what}: {wrong} of {} FIB lookups disagree with the oracle",
                    addrs.len()
                ),
            );
        }
    }
}

#[derive(Default, Clone, Copy)]
struct PhaseCount {
    traced_routes: usize,
    bare_routes: usize,
    bare_ns: u64,
}

/// Encode a chunk of routes as one BGP UPDATE; returns it with its route
/// count.
fn encode_update(nets: Vec<Ipv4Net>, attrs: Option<&PathAttributes>) -> (BytesMut, usize) {
    let n = nets.len();
    let msg = match attrs {
        Some(a) => UpdateMessage {
            origin: Some(a.origin),
            as_path: Some(a.as_path.clone()),
            nexthop: match a.nexthop {
                IpAddr::V4(nh) => Some(nh),
                IpAddr::V6(_) => unreachable!("the generators are IPv4"),
            },
            med: a.med,
            nlri: nets,
            ..Default::default()
        },
        None => UpdateMessage {
            withdrawn: nets,
            ..Default::default()
        },
    };
    (BgpMessage::Update(msg).encode(), n)
}

/// What the walk measured.
pub struct WalkResult {
    pub ledger: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    /// The recorded spans, for the trace file.
    pub log: SpanLog,
}

/// Run the walk for one workload over `table`.  `e2e_add_ns_per_route` is
/// the threaded router's figure for the same announce phase.
pub fn run(
    wl: &Workload,
    seed: u64,
    table: &[BackboneRoute],
    e2e_add_ns_per_route: f64,
) -> WalkResult {
    let mut tally = Tally::default();
    let mut ledger = BTreeMap::new();
    let mut rng = Rng::new(seed ^ 0x77a1_c0de);
    let addrs = gen::lookup_addrs(&mut rng, table, LOOKUPS);
    let n = table.len();
    // Sample so that both batch sizes record a similar number of spans.
    let (every, every_replace) = if wl.batch_size == 1 { (32, 4) } else { (4, 1) };

    // ---- inputs, in wire form (untimed) -----------------------------------
    let chunks = || table.chunks(UPDATE_ROUTES);
    let announces: Vec<_> = chunks()
        .map(|c| encode_update(c.iter().map(|r| r.net).collect(), Some(&c[0].attrs)))
        .collect();
    let withdraws: Vec<_> = chunks()
        .map(|c| encode_update(c.iter().map(|r| r.net).collect(), None))
        .collect();
    let flipped: Vec<Ipv4Net> = {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        order
            .iter()
            .take(REPLACE_ROUTES.min(n / 2))
            .map(|&i| table[i].net)
            .collect()
    };
    let churn_attrs = gen::churn_attrs();
    let flips: Vec<_> = flipped
        .chunks(UPDATE_ROUTES)
        .map(|c| encode_update(c.to_vec(), Some(&churn_attrs)))
        .collect();
    let restores: Vec<_> = flipped
        .chunks(UPDATE_ROUTES)
        .map(|c| encode_update(c.to_vec(), None))
        .collect();

    let mut oracle = Oracle::with_connected();
    let mut walk = Walk::new(wl.batch_size);
    walk.verify("start", &oracle, &addrs[..100], &mut tally);

    // ---- add ---------------------------------------------------------------
    let wire_before = walk.wire_bytes;
    let add = walk.phase(Phase::Add, TABLE_PEER, &announces, every);
    let wire_add = walk.wire_bytes - wire_before;
    for r in table {
        let IpAddr::V4(nh) = r.attrs.nexthop else {
            unreachable!("the table is IPv4")
        };
        oracle.announce(TABLE_PEER, &r.net, r.attrs.as_path.path_len(), nh);
    }
    tally.ops(n);
    walk.verify("add", &oracle, &addrs, &mut tally);
    ledger.insert(
        "bgp.nexthop.queries_per_kroute",
        walk.nexthop_queries.get() as f64 * 1000.0 / n as f64,
    );
    ledger.insert("xrl.wire.bytes_per_route", wire_add as f64 / n as f64);
    ledger.insert(
        "bgp.table_bytes_per_route",
        walk.bgp.memory_bytes() as f64 / n as f64,
    );
    ledger.insert(
        "rib.table_bytes_per_route",
        walk.rib.memory_bytes() as f64 / n as f64,
    );
    ledger.insert(
        "fea.table_bytes_per_route",
        walk.fea.memory_bytes() as f64 / n as f64,
    );

    // ---- reads against the full table --------------------------------------
    let per_call = |t0: Instant| t0.elapsed().as_nanos() as f64 / addrs.len() as f64;
    let t0 = Instant::now();
    for &a in &addrs {
        std::hint::black_box(walk.fea.lookup4(std::hint::black_box(a)));
    }
    ledger.insert("fea.lookup_ns", per_call(t0));
    let t0 = Instant::now();
    for &a in &addrs {
        std::hint::black_box(walk.rib.longest_match(std::hint::black_box(a)));
    }
    ledger.insert("rib.longest_match_ns", per_call(t0));
    let mut register_ns = 0u64;
    for &a in &addrs {
        let t0 = Instant::now();
        let answer = walk.rib.register_interest(1, a);
        register_ns += t0.elapsed().as_nanos() as u64;
        // Untimed: leave no registration behind for the delete phase to
        // invalidate.
        walk.rib.deregister_interest(1, &answer.valid);
    }
    ledger.insert(
        "rib.register_interest_ns",
        register_ns as f64 / addrs.len() as f64,
    );

    // ---- replace: the churn peer takes over a share, then gives it back ----
    let flip = walk.phase(Phase::Replace, CHURN_PEER, &flips, every_replace);
    for net in &flipped {
        oracle.announce(CHURN_PEER, net, gen::CHURN_PATH_LEN, gen::CHURN_NEXTHOP);
    }
    tally.ops(flipped.len());
    walk.verify("replace", &oracle, &addrs, &mut tally);
    let restore = walk.phase(Phase::Replace, CHURN_PEER, &restores, every_replace);
    for net in &flipped {
        oracle.withdraw(CHURN_PEER, net);
    }
    tally.ops(flipped.len());
    walk.verify("restore", &oracle, &addrs, &mut tally);

    // ---- delete ------------------------------------------------------------
    let del = walk.phase(Phase::Del, TABLE_PEER, &withdraws, every);
    for r in table {
        oracle.withdraw(TABLE_PEER, &r.net);
    }
    tally.ops(n);
    walk.verify("delete", &oracle, &addrs, &mut tally);

    // ---- spans -> ledger -----------------------------------------------------
    let by = walk.log.self_by_root();
    let self_ns = |root: Phase, name: &str| -> f64 {
        by.iter()
            .filter(|((r, s), _)| *r == root.root() && *s == name)
            .map(|(_, ns)| *ns as f64)
            .sum()
    };
    let add_routes = add.traced_routes as f64;
    let replace_routes = (flip.traced_routes + restore.traced_routes) as f64;
    let del_routes = del.traced_routes as f64;
    for (metric, span) in [
        ("bgp.msg.decode_ns", "bgp.msg.decode"),
        ("bgp.pipeline.add_ns", "bgp.pipeline"),
        ("harness.codec.encode_ns", "harness.codec.encode"),
        ("harness.codec.decode_ns", "harness.codec.decode"),
        ("xrl.marshal.encode_ns", "xrl.marshal.encode"),
        ("xrl.marshal.decode_ns", "xrl.marshal.decode"),
        ("xrl.socket_ns", "xrl.socket"),
        ("rib.apply.add_ns", "rib.apply"),
        ("fea.install.add_ns", "fea.install"),
        ("walk.unattributed_ns", Phase::Add.root()),
    ] {
        ledger.insert(metric, self_ns(Phase::Add, span) / add_routes);
    }
    ledger.insert(
        "bgp.pipeline.replace_ns",
        self_ns(Phase::Replace, "bgp.pipeline") / replace_routes,
    );
    ledger.insert(
        "rib.apply.replace_ns",
        self_ns(Phase::Replace, "rib.apply") / replace_routes,
    );
    ledger.insert(
        "bgp.pipeline.del_ns",
        self_ns(Phase::Del, "bgp.pipeline") / del_routes,
    );
    ledger.insert(
        "rib.apply.del_ns",
        self_ns(Phase::Del, "rib.apply") / del_routes,
    );
    ledger.insert(
        "fea.install.del_ns",
        self_ns(Phase::Del, "fea.install") / del_routes,
    );
    // Serial cost per route: the recorded add steps, root span start to end.
    let serial: f64 = by
        .iter()
        .filter(|((r, _), _)| *r == Phase::Add.root())
        .map(|(_, ns)| *ns as f64)
        .sum::<f64>()
        / add_routes;
    ledger.insert("walk.serial_ns", serial);
    ledger.insert("walk.pipeline_ratio", e2e_add_ns_per_route / serial);
    eprintln!(
        "walk: add {:.0} ns/route traced, {:.0} ns/route bare ({} and {} routes)",
        serial,
        add.bare_ns as f64 / add.bare_routes.max(1) as f64,
        add.traced_routes,
        add.bare_routes
    );

    WalkResult {
        ledger,
        tally,
        log: walk.log,
    }
}
