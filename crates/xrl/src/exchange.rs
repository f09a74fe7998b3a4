//! The XRL exchange core: the life of every request a router sends, and
//! the identities of the requests it receives, as one plain state machine.
//!
//! [`Exchange`] holds no event loop, socket or callback; it is generic over
//! the sender's per-request payload and the connection a request was
//! written to.  Its five inputs are send ([`Exchange::admit`],
//! [`Exchange::launch`]), frame in ([`Exchange::complete`],
//! [`Exchange::request_in`]), timer fired, connection closed and shutdown.
//! Each queues [`Effect`]s for the owner to perform in order.  A timer is
//! never cancelled: it names its attempt, and one that fires for an
//! attempt already answered or retransmitted finds nothing.  DESIGN.md
//! ("The exchange core") states the invariants; the model test at the end
//! of this file checks them.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use xorp_event::Time;
use xorp_net::FxHashMap;
use xorp_profiler::{Counter, Gauge, Metrics};

use crate::error::XrlError;
use crate::marshal::Frame;
use crate::transport::Via;
use crate::XrlResult;

/// Timeout-and-retransmit policy for remote requests.  `None` (the router
/// default) preserves the original fire-and-wait behaviour: a request with
/// no response waits until its connection dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts, including the first.
    pub max_attempts: u32,
    /// Timeout for the first attempt; doubles per retry.
    pub base_timeout: Duration,
    /// Backoff cap.
    pub max_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_timeout: Duration::from_millis(100),
            max_timeout: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The timeout armed for transmission attempt `attempt` (1-based):
    /// `base * 2^(attempt-1)`, capped at `max_timeout`.
    fn timeout_for(&self, attempt: u32) -> Duration {
        let factor = 2u32.saturating_pow(attempt.saturating_sub(1));
        self.base_timeout
            .saturating_mul(factor)
            .min(self.max_timeout)
    }

    /// Upper bound on how long after the *first* transmission a
    /// retransmission of the same request can still arrive: the sum of all
    /// armed backoffs, plus one extra `max_timeout` of grace for transit
    /// delay of the final copy.  The receiver's dedup cache must remember a
    /// request identity at least this long, or a late retransmission would
    /// re-dispatch its handler.
    pub fn retransmission_window(&self) -> Duration {
        let mut w = Duration::ZERO;
        for attempt in 1..=self.max_attempts {
            w = w.saturating_add(self.timeout_for(attempt));
        }
        w.saturating_add(self.max_timeout)
    }
}

/// Bounds on the per-lane send queue: the count of this router's requests
/// outstanding toward one remote endpoint, parked UDP requests included.
///
/// Crossing `high_watermark` emits [`CongestionSignal::Xoff`] for the lane;
/// draining back to `low_watermark` emits [`CongestionSignal::Xon`].  The
/// gap between the two is hysteresis — producers that react to `Xoff`
/// should not be whipsawed by a single completion.  A data-priority send
/// finding the lane at `hard_cap` is shed outright with
/// [`XrlError::Overloaded`] instead of growing the queue; priority sends
/// (supervision keepalives) always pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Lane depth at which `Xoff` fires.
    pub high_watermark: usize,
    /// Lane depth a congested lane must drain to before `Xon` fires.
    pub low_watermark: usize,
    /// Depth beyond which data frames are shed with `Overloaded`.
    pub hard_cap: usize,
}

impl Default for QueuePolicy {
    fn default() -> Self {
        QueuePolicy {
            high_watermark: 512,
            low_watermark: 128,
            hard_cap: 2048,
        }
    }
}

/// Flow-control event for one transport lane, delivered through the
/// router's congestion callback.  Lane labels match
/// `XrlRouter::lane_of` (`tcp:127.0.0.1:5000`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CongestionSignal {
    /// The lane crossed its high watermark: stop producing toward it.
    Xoff {
        /// Transport lane label.
        lane: String,
    },
    /// The congested lane drained below its low watermark: resume.
    Xon {
        /// Transport lane label.
        lane: String,
    },
}

impl CongestionSignal {
    /// The lane this signal concerns.
    pub fn lane(&self) -> &str {
        match self {
            CongestionSignal::Xoff { lane } | CongestionSignal::Xon { lane } => lane,
        }
    }
}

/// Top bit of a request's `seq`: set by a sender that can put a second
/// copy of the request on the wire — it has a [`RetryPolicy`] (timeout
/// retransmission) or a fault plan (injected duplicates) when the number
/// is allocated.  Part of the wire contract: a receiver keeps a dedup
/// identity for a TCP request only when the bit is set.  The frame layout
/// is unchanged (`seq` stays an opaque u64 that responses echo verbatim),
/// and a sender with neither policy emits the same bytes it always did.
pub const SEQ_MAY_RECUR: u64 = 1 << 63;

/// How long a receiver with no [`RetryPolicy`] of its own remembers a
/// request identity: long enough for a sender running the default policy.
/// Who pays, and when: only receivers of requests that can recur (UDP, or
/// [`SEQ_MAY_RECUR`] set) — about 120 B per identity, evicted by age alone,
/// so a lossy or retrying batch-1 feed at ~80k requests/s holds ~2.4M
/// identities here.  `xrl.dedup_entries` shows it.  Requests over TCP from
/// a sender with neither a retry policy nor a fault plan cost nothing.
pub(crate) const DEDUP_DEFAULT_WINDOW: Duration = Duration::from_secs(30);

/// What the owner of an [`Exchange`] must do, in queue order.
pub(crate) enum Effect<P> {
    /// Write `frame` toward `via`, then report with [`Exchange::written`].
    Write { seq: u64, via: Via, frame: Frame },
    /// Feed [`Exchange::timer_fired`]`(seq, attempt)` after `after`.
    Arm {
        seq: u64,
        attempt: u32,
        after: Duration,
    },
    /// The request is over: hand `result` to its payload.
    Complete { payload: P, result: XrlResult },
    /// A lane crossed a watermark.
    Signal(CongestionSignal),
}

/// How the receiver treats an arriving request that may arrive twice.
pub(crate) enum Verdict {
    /// A new identity: run the handler.
    Dispatch,
    /// A copy of a request whose handler has not replied: that reply
    /// answers it.
    Drop,
    /// A copy of an answered request: replay the answer.
    Replay(XrlResult),
}

/// One request awaiting its response.
struct Request<P, C> {
    payload: P,
    via: Via,
    /// Transmission attempts made so far (1 from admission).
    attempt: u32,
    /// The request's frame while it is parked, and afterwards its
    /// retransmission copy when a [`RetryPolicy`] is set.
    frame: Option<Frame>,
    /// The connection it was last written to.
    conn: Option<C>,
    /// Waiting behind its UDP peer's request in flight; never written.
    parked: bool,
    /// The lane it is charged to: every remote data-priority send.
    /// `Rc<str>` so interned senders share one label per lane.
    lane: Option<Rc<str>>,
}

/// Per-lane overload accounting.
#[derive(Default)]
struct LaneLoad {
    /// Outstanding data-priority requests charged to the lane.
    depth: usize,
    /// Whether the lane is in the Xoff state.
    xoff: bool,
}

/// One UDP peer's slot: the data request in flight, and those parked
/// behind it in order.  A peer with nothing in flight has no slot.
struct Slot {
    holder: u64,
    parked: VecDeque<u64>,
}

/// Receiver-side state for one `(sender, seq)` request identity.
enum Seen {
    /// Handler dispatched, no reply yet.
    InFlight,
    /// Handler replied: replay this to any retransmission.
    Done(XrlResult),
}

/// The registry handles the exchange reports through; detached until
/// [`Exchange::set_metrics`].
#[derive(Default)]
struct ExchangeMetrics {
    /// `xrl.pending` — outstanding requests of every kind (peak).
    pending: Gauge,
    /// `xrl.lane_depth` — per-lane charged depth, across all lanes.
    lane_depth: Gauge,
    /// `xrl.dedup_entries` — remembered request identities (peak).
    dedup_entries: Gauge,
    /// `xrl.xoff_total` / `xrl.xon_total` — watermark crossings.
    xoff: Counter,
    xon: Counter,
    /// `xrl.shed_total` — data sends refused at the hard cap.
    shed: Counter,
    /// `xrl.retransmit_total` — timeout-driven retransmissions.
    retransmit: Counter,
}

/// Every request, lane load, UDP slot and received identity of one router.
pub(crate) struct Exchange<P, C> {
    /// Retransmission policy; `None` leaves a request pending until its
    /// connection dies.
    pub(crate) retry: Option<RetryPolicy>,
    /// Per-lane queue bounds.
    pub(crate) overload: QueuePolicy,
    /// A fault plan may put a second copy on the wire.
    pub(crate) may_recur: bool,
    next_seq: u64,
    requests: FxHashMap<u64, Request<P, C>>,
    /// Keyed by the label the charged requests share, looked up by `&str`.
    lanes: FxHashMap<Rc<str>, LaneLoad>,
    slots: FxHashMap<Via, Slot>,
    seen: HashMap<(u64, u64), Seen>,
    /// Identities in arrival order with their arrival time.  One is
    /// evicted only once older than the retransmission window — never by
    /// a size cap, which could drop one still within retry budget.
    seen_order: VecDeque<((u64, u64), Time)>,
    effects: VecDeque<Effect<P>>,
    /// Data sends refused at the hard cap.
    pub(crate) shed: u64,
    pub(crate) shut_down: bool,
    metrics: ExchangeMetrics,
}

impl<P, C: PartialEq> Exchange<P, C> {
    pub(crate) fn new() -> Self {
        Exchange {
            retry: None,
            overload: QueuePolicy::default(),
            may_recur: false,
            next_seq: 1,
            requests: Default::default(),
            lanes: Default::default(),
            slots: Default::default(),
            seen: HashMap::new(),
            seen_order: VecDeque::new(),
            effects: VecDeque::new(),
            shed: 0,
            shut_down: false,
            metrics: ExchangeMetrics::default(),
        }
    }

    /// Report through `metrics` from now on.
    pub(crate) fn set_metrics(&mut self, metrics: &Metrics) {
        self.metrics = ExchangeMetrics {
            pending: metrics.gauge("xrl.pending"),
            lane_depth: metrics.gauge("xrl.lane_depth"),
            dedup_entries: metrics.gauge("xrl.dedup_entries"),
            xoff: metrics.counter("xrl.xoff_total"),
            xon: metrics.counter("xrl.xon_total"),
            shed: metrics.counter("xrl.shed_total"),
            retransmit: metrics.counter("xrl.retransmit_total"),
        };
    }

    /// The next effect to perform, in the order the inputs queued them.
    pub(crate) fn next_effect(&mut self) -> Option<Effect<P>> {
        self.effects.pop_front()
    }

    // ----- send ----------------------------------------------------------

    /// Admit one request toward `via`: the one place a send is charged to
    /// its lane, shed at the hard cap, and numbered.  `lane` is `None` for
    /// intra dispatch; priority sends pass uncharged.  Returns the
    /// request's `seq`, or hands the payload back with the error to fail
    /// it with.  A send that crosses the high watermark queues `Xoff`.
    pub(crate) fn admit(
        &mut self,
        via: Via,
        lane: Option<Rc<str>>,
        priority: bool,
        payload: P,
    ) -> Result<u64, (P, XrlError)> {
        if self.shut_down {
            return Err((payload, XrlError::TargetDied));
        }
        let lane = lane.filter(|_| !priority);
        if let Some(lane) = &lane {
            let load = match self.lanes.get_mut(lane.as_ref()) {
                Some(load) => load,
                None => self.lanes.entry(lane.clone()).or_default(),
            };
            if load.depth >= self.overload.hard_cap {
                self.shed += 1;
                self.metrics.shed.inc();
                return Err((payload, XrlError::Overloaded));
            }
            load.depth += 1;
            self.metrics.lane_depth.set(load.depth as i64);
            if !load.xoff && load.depth >= self.overload.high_watermark {
                load.xoff = true;
                self.metrics.xoff.inc();
                let lane = lane.to_string();
                self.effects
                    .push_back(Effect::Signal(CongestionSignal::Xoff { lane }));
            }
        }
        let recur = self.retry.is_some() || self.may_recur;
        let seq = self.next_seq | if recur { SEQ_MAY_RECUR } else { 0 };
        self.next_seq += 1;
        let request = Request {
            payload,
            via,
            attempt: 1,
            frame: None,
            conn: None,
            parked: false,
            lane,
        };
        self.requests.insert(seq, request);
        self.metrics.pending.set(self.requests.len() as i64);
        Ok(seq)
    }

    /// Put admitted request `seq`'s frame out toward `via`: now, or — a
    /// UDP data request whose peer's slot is taken — parked behind the
    /// holder, in order, with no timer until its turn.  Priority requests
    /// never wait for the slot and never hold it.
    pub(crate) fn launch(&mut self, seq: u64, via: Via, frame: Frame) {
        if let (Via::Udp(_), false) = (via, frame.is_priority()) {
            if let Some(slot) = self.slots.get_mut(&via) {
                slot.parked.push_back(seq);
                if let Some(r) = self.requests.get_mut(&seq) {
                    (r.parked, r.frame) = (true, Some(frame));
                }
                return;
            }
            let (holder, parked) = (seq, VecDeque::new());
            self.slots.insert(via, Slot { holder, parked });
        }
        self.effects.push_back(Effect::Write { seq, via, frame });
    }

    /// Request `seq`'s frame was written to `conn` (`None`: no connection
    /// could be had), with `outcome`.  With a retry policy the frame is
    /// kept for retransmission and the attempt's timer armed — a failed
    /// write is then just a lost frame; without one a failed write fails
    /// the request.
    pub(crate) fn written(
        &mut self,
        seq: u64,
        conn: Option<C>,
        frame: Frame,
        outcome: Result<(), XrlError>,
    ) {
        let Some(r) = self.requests.get_mut(&seq) else {
            return;
        };
        r.conn = conn;
        match (self.retry, outcome) {
            (Some(policy), _) => {
                r.frame = Some(frame);
                let (attempt, after) = (r.attempt, policy.timeout_for(r.attempt));
                self.effects.push_back(Effect::Arm {
                    seq,
                    attempt,
                    after,
                });
            }
            (None, Err(e)) => self.complete(seq, Err(e)),
            (None, Ok(())) => {}
        }
    }

    // ----- frame in ------------------------------------------------------

    /// Request `seq` is over with `result`: its response arrived, or it
    /// failed.  A duplicate response finds nothing.  The lane is released
    /// (queueing `Xon` once a congested lane drains to its low watermark)
    /// and a UDP slot passes to the next parked request, which is written.
    pub(crate) fn complete(&mut self, seq: u64, result: XrlResult) {
        let Some(r) = self.requests.remove(&seq) else {
            return;
        };
        self.metrics.pending.set(self.requests.len() as i64);
        if let Some(lane) = &r.lane {
            self.dequeue(lane);
        }
        let payload = r.payload;
        self.effects.push_back(Effect::Complete { payload, result });
        if !r.parked {
            self.release(r.via, seq);
        }
    }

    fn dequeue(&mut self, lane: &str) {
        let Some(load) = self.lanes.get_mut(lane) else {
            return;
        };
        load.depth = load.depth.saturating_sub(1);
        self.metrics.lane_depth.set(load.depth as i64);
        if load.xoff && load.depth <= self.overload.low_watermark {
            load.xoff = false;
            self.metrics.xon.inc();
            let lane = lane.to_string();
            self.effects
                .push_back(Effect::Signal(CongestionSignal::Xon { lane }));
        }
    }

    /// `seq` toward `via` is finished: if it held its UDP peer's slot, the
    /// next parked request takes the slot and is written.
    fn release(&mut self, via: Via, seq: u64) {
        if !matches!(via, Via::Udp(_)) {
            return;
        }
        let Some(slot) = self.slots.get_mut(&via) else {
            return;
        };
        if slot.holder != seq {
            return;
        }
        while let Some(next) = slot.parked.pop_front() {
            let Some(r) = self.requests.get_mut(&next) else {
                continue;
            };
            slot.holder = next;
            r.parked = false;
            let frame = r.frame.take().expect("a parked request holds its frame");
            self.effects.push_back(Effect::Write {
                seq: next,
                via,
                frame,
            });
            return;
        }
        self.slots.remove(&via);
    }

    /// Judge an arriving request by its identity `(sender, seq)` at `now`.
    /// A new identity is remembered — until it is older than the sender's
    /// possible retransmission horizon, and never evicted sooner — and
    /// dispatched.
    pub(crate) fn request_in(&mut self, id: (u64, u64), now: Time) -> Verdict {
        match self.seen.get(&id) {
            Some(Seen::InFlight) => return Verdict::Drop,
            Some(Seen::Done(result)) => return Verdict::Replay(result.clone()),
            None => {}
        }
        self.seen.insert(id, Seen::InFlight);
        self.seen_order.push_back((id, now));
        let window = self
            .retry
            .map_or(DEDUP_DEFAULT_WINDOW, |p| p.retransmission_window());
        while let Some(&(old, at)) = self.seen_order.front() {
            if now.duration_since(at) <= window {
                break;
            }
            self.seen_order.pop_front();
            self.seen.remove(&old);
        }
        self.metrics.dedup_entries.set(self.seen.len() as i64);
        Verdict::Dispatch
    }

    /// The handler of identity `id` replied: replay `result` to any copy.
    pub(crate) fn replied(&mut self, id: (u64, u64), result: &XrlResult) {
        if let Some(state) = self.seen.get_mut(&id) {
            *state = Seen::Done(result.clone());
        }
    }

    // ----- timer fired, connection closed, shutdown ----------------------

    /// The timer armed for `seq`'s attempt `attempt` fired: retransmit with
    /// the *same* sequence number (so a late response to any copy still
    /// correlates, and the receiver can dedup), or give up with
    /// [`XrlError::Timeout`].  A UDP peer whose request spent its budget is
    /// dead: everything queued on its slot fails with it.
    pub(crate) fn timer_fired(&mut self, seq: u64, attempt: u32) {
        let Some(policy) = self.retry else {
            return;
        };
        let Some(r) = self.requests.get_mut(&seq) else {
            return;
        };
        if r.attempt != attempt {
            return;
        }
        if r.attempt < policy.max_attempts {
            if let Some(frame) = r.frame.take() {
                r.attempt += 1;
                self.metrics.retransmit.inc();
                let via = r.via;
                self.effects.push_back(Effect::Write { seq, via, frame });
                return;
            }
        }
        if let Some(slot) = self.slots.remove(&r.via) {
            for victim in std::iter::once(slot.holder).chain(slot.parked) {
                self.complete(victim, Err(XrlError::Timeout));
            }
        }
        self.complete(seq, Err(XrlError::Timeout));
    }

    /// Connection `conn` died.  With a retry policy nothing changes: every
    /// request written to it has its timer armed, and the retransmission
    /// reconnects.  Without one, the requests it carried fail.
    pub(crate) fn connection_closed(&mut self, conn: &C) {
        if self.retry.is_some() {
            return;
        }
        let carried = self.requests.iter();
        let dead: Vec<u64> = carried
            .filter(|(_, r)| r.conn.as_ref() == Some(conn))
            .map(|(seq, _)| *seq)
            .collect();
        for seq in dead {
            self.complete(seq, Err(XrlError::TargetDied));
        }
    }

    /// Fail every request with [`XrlError::TargetDied`] and admit no more.
    /// No parked request takes the slot a failure frees, and no write or
    /// timer already queued is performed.
    pub(crate) fn shutdown(&mut self) {
        if std::mem::replace(&mut self.shut_down, true) {
            return;
        }
        self.slots.clear();
        self.effects
            .retain(|e| !matches!(e, Effect::Write { .. } | Effect::Arm { .. }));
        let seqs: Vec<u64> = self.requests.keys().copied().collect();
        for seq in seqs {
            self.complete(seq, Err(XrlError::TargetDied));
        }
    }

    // ----- diagnostics ---------------------------------------------------

    pub(crate) fn pending_len(&self) -> usize {
        self.requests.len()
    }

    pub(crate) fn lane_depth(&self, lane: &str) -> usize {
        self.lanes.get(lane).map_or(0, |l| l.depth)
    }

    pub(crate) fn any_lane_congested(&self) -> bool {
        self.lanes.values().any(|l| l.xoff)
    }

    /// Requests parked behind a UDP peer's request in flight.
    pub(crate) fn parked_len(&self) -> usize {
        self.slots.values().map(|s| s.parked.len()).sum()
    }

    /// Bytes held per request (excluding payload captures) plus the frames
    /// kept for parking or retransmission.
    pub(crate) fn retained_bytes(&self) -> usize {
        let frames = self.requests.values().filter_map(|r| r.frame.as_ref());
        let frames: usize = frames.map(Frame::wire_len).sum();
        self.requests.len() * std::mem::size_of::<Request<P, C>>() + frames
    }

    pub(crate) fn dedup_len(&self) -> usize {
        self.seen.len()
    }
}

/// The model test: the exchange core driven directly, with no loop and no
/// socket, against a network that loses, duplicates and reorders frames,
/// timers that fire late, early and stale, connections that die, and a
/// shutdown.  A receiver-side core judges the requests that arrive.
#[cfg(test)]
mod model {
    use std::collections::{HashMap, HashSet};
    use std::net::SocketAddr;

    use proptest::prelude::*;

    use super::*;
    use crate::atom::XrlArgs;

    #[derive(Debug, Clone)]
    enum Step {
        /// A send toward peer `peer` (of two), over UDP or TCP.
        Send {
            peer: u8,
            udp: bool,
            priority: bool,
        },
        /// The frame in flight at `ix` arrives: a request at the receiver,
        /// a response at the sender.
        Deliver(usize),
        Lose(usize),
        Duplicate(usize),
        /// The receiver's handler replies to its `ix`th unanswered request.
        Reply(usize),
        /// The armed timer at `ix` fires, whether or not it is stale.
        Fire(usize),
        /// The TCP connection toward `peer` dies with what it carried.
        Close(u8),
        Advance(u64),
        Shutdown,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (0u8..2, any::<bool>(), 0u8..5)
                .prop_map(|(peer, udp, p)| Step::Send { peer, udp, priority: p == 0 }),
            6 => any::<usize>().prop_map(Step::Deliver),
            1 => any::<usize>().prop_map(Step::Lose),
            1 => any::<usize>().prop_map(Step::Duplicate),
            3 => any::<usize>().prop_map(Step::Reply),
            2 => any::<usize>().prop_map(Step::Fire),
            1 => (0u8..2).prop_map(Step::Close),
            1 => (0u64..60).prop_map(Step::Advance),
            1 => Just(Step::Shutdown),
        ]
    }

    enum Packet {
        Request { seq: u64, conn: u32 },
        Response { seq: u64, conn: u32 },
    }

    struct World {
        sender: Exchange<u32, u32>,
        receiver: Exchange<(), u32>,
        net: Vec<Packet>,
        timers: Vec<(u64, u32)>,
        now: Time,
        /// Each peer's current TCP connection; UDP peers use `100 + peer`.
        conns: [u32; 2],
        next_id: u32,
        /// Per admitted id: its charged lane, if any.
        lanes: HashMap<u32, Option<String>>,
        by_seq: HashMap<u64, u32>,
        completed: HashMap<u32, u32>,
        /// UDP data requests written and not yet complete, per peer.
        udp_open: HashMap<Via, HashSet<u64>>,
        xoff: HashMap<String, bool>,
        /// Handler runs per request identity, with the first one's time.
        dispatched: HashMap<u64, (u32, Time)>,
        /// Dispatched requests awaiting their handler's reply, with the
        /// connection to answer on.
        unanswered: Vec<(u64, u32)>,
        shut_down: bool,
    }

    fn via(peer: u8, udp: bool) -> Via {
        let addr = SocketAddr::from(([127, 0, 0, 1], 5000 + peer as u16));
        if udp {
            Via::Udp(addr)
        } else {
            Via::Tcp(addr)
        }
    }

    impl World {
        fn new(retry: Option<RetryPolicy>) -> World {
            let overload = QueuePolicy {
                high_watermark: 3,
                low_watermark: 1,
                hard_cap: 5,
            };
            let (mut sender, mut receiver) = (Exchange::new(), Exchange::new());
            (sender.retry, sender.overload, sender.may_recur) = (retry, overload, true);
            receiver.retry = retry;
            World {
                sender,
                receiver,
                net: Vec::new(),
                timers: Vec::new(),
                now: Time::ZERO,
                conns: [0, 1],
                next_id: 0,
                lanes: HashMap::new(),
                by_seq: HashMap::new(),
                completed: HashMap::new(),
                udp_open: HashMap::new(),
                xoff: HashMap::new(),
                dispatched: HashMap::new(),
                unanswered: Vec::new(),
                shut_down: false,
            }
        }

        fn complete(&mut self, id: u32) {
            let n = self.completed.entry(id).or_insert(0);
            *n += 1;
            assert_eq!(*n, 1, "request {id} completed twice");
            self.lanes.remove(&id);
            for open in self.udp_open.values_mut() {
                open.retain(|seq| self.by_seq.get(seq) != Some(&id));
            }
        }

        /// Perform the sender's effects as the router does.
        fn perform(&mut self) {
            while let Some(effect) = self.sender.next_effect() {
                match effect {
                    Effect::Write { seq, via, frame } => {
                        assert!(!self.shut_down, "seq {seq} written after shutdown");
                        let conn = match via {
                            Via::Tcp(a) => self.conns[(a.port() - 5000) as usize],
                            Via::Udp(a) => 100 + (a.port() - 5000) as u32,
                            _ => unreachable!(),
                        };
                        if let (Via::Udp(_), false) = (via, frame.is_priority()) {
                            let open = self.udp_open.entry(via).or_default();
                            assert!(
                                open.iter().all(|&s| s == seq),
                                "seq {seq} written while {open:?} holds the UDP slot"
                            );
                            open.insert(seq);
                        }
                        self.net.push(Packet::Request { seq, conn });
                        self.sender.written(seq, Some(conn), frame, Ok(()));
                    }
                    Effect::Arm { seq, attempt, .. } => self.timers.push((seq, attempt)),
                    Effect::Complete { payload, .. } => self.complete(payload),
                    Effect::Signal(signal) => {
                        let xoff = matches!(signal, CongestionSignal::Xoff { .. });
                        let was = self.xoff.insert(signal.lane().to_string(), xoff);
                        assert_ne!(was.unwrap_or(false), xoff, "{signal:?} repeats");
                    }
                }
            }
        }

        fn send(&mut self, peer: u8, udp: bool, priority: bool) {
            let (id, via) = (self.next_id, via(peer, udp));
            self.next_id += 1;
            match self.sender.admit(via, via.lane(), priority, id) {
                Err((id, _)) => self.complete(id),
                Ok(seq) => {
                    let lane = via.lane().filter(|_| !priority).map(|l| l.to_string());
                    self.lanes.insert(id, lane);
                    self.by_seq.insert(seq, id);
                    let frame = Frame::Request {
                        seq,
                        sender: 1,
                        target: String::new(),
                        key: [0; 16],
                        path: String::new(),
                        args: XrlArgs::new(),
                        method_id: None,
                        priority,
                        trace: None,
                    };
                    self.sender.launch(seq, via, frame);
                }
            }
        }

        fn deliver(&mut self, packet: Packet) {
            match packet {
                Packet::Response { seq, .. } => self.sender.complete(seq, Ok(XrlArgs::new())),
                Packet::Request { seq, conn } => match self.receiver.request_in((1, seq), self.now)
                {
                    Verdict::Dispatch => {
                        let window = self
                            .receiver
                            .retry
                            .map_or(DEDUP_DEFAULT_WINDOW, |p| p.retransmission_window());
                        let now = self.now;
                        let (runs, first) = self.dispatched.entry(seq).or_insert((0, now));
                        *runs += 1;
                        assert!(
                            *runs == 1 || now.duration_since(*first) > window,
                            "seq {seq} dispatched again inside its dedup window"
                        );
                        self.unanswered.push((seq, conn));
                    }
                    Verdict::Drop => {}
                    Verdict::Replay(_) => self.net.push(Packet::Response { seq, conn }),
                },
            }
        }

        fn apply(&mut self, step: Step) {
            let pick = |ix: usize, len: usize| (len > 0).then(|| ix % len);
            match step {
                Step::Send {
                    peer,
                    udp,
                    priority,
                } => self.send(peer, udp, priority),
                Step::Deliver(ix) => {
                    if let Some(ix) = pick(ix, self.net.len()) {
                        let packet = self.net.remove(ix);
                        self.deliver(packet);
                    }
                }
                Step::Lose(ix) => {
                    if let Some(ix) = pick(ix, self.net.len()) {
                        self.net.remove(ix);
                    }
                }
                Step::Duplicate(ix) => {
                    if let Some(ix) = pick(ix, self.net.len()) {
                        let copy = match self.net[ix] {
                            Packet::Request { seq, conn } => Packet::Request { seq, conn },
                            Packet::Response { seq, conn } => Packet::Response { seq, conn },
                        };
                        self.net.push(copy);
                    }
                }
                Step::Reply(ix) => {
                    if let Some(ix) = pick(ix, self.unanswered.len()) {
                        let (seq, conn) = self.unanswered.remove(ix);
                        self.receiver.replied((1, seq), &Ok(XrlArgs::new()));
                        self.net.push(Packet::Response { seq, conn });
                    }
                }
                Step::Fire(ix) => {
                    if let Some(ix) = pick(ix, self.timers.len()) {
                        let (seq, attempt) = self.timers.remove(ix);
                        self.sender.timer_fired(seq, attempt);
                    }
                }
                Step::Close(peer) => {
                    let dead = self.conns[peer as usize];
                    self.conns[peer as usize] += 2;
                    self.net.retain(|p| match p {
                        Packet::Request { conn, .. } | Packet::Response { conn, .. } => {
                            *conn != dead
                        }
                    });
                    self.sender.connection_closed(&dead);
                }
                Step::Advance(ms) => self.now += Duration::from_millis(ms),
                Step::Shutdown => {
                    self.sender.shutdown();
                    self.shut_down = true;
                }
            }
            self.perform();
            self.check_lanes();
        }

        /// Every lane's charged depth is its charged requests still pending.
        fn check_lanes(&self) {
            let mut charged: HashMap<&str, usize> = HashMap::new();
            for lane in self.lanes.values().flatten() {
                *charged.entry(lane).or_default() += 1;
            }
            for lane in self
                .xoff
                .keys()
                .map(String::as_str)
                .chain(charged.keys().copied())
            {
                let want = charged.get(lane).copied().unwrap_or(0);
                assert_eq!(self.sender.lane_depth(lane), want, "lane {lane}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random interleavings of data and priority sends over TCP and UDP,
        /// with and without a retry policy: every request completes exactly
        /// once, a handler runs once per identity inside its dedup window,
        /// lane depth is what is charged and Xoff/Xon alternate, nothing is
        /// written after shutdown, and a parked UDP request is written only
        /// when it holds its peer's slot.
        #[test]
        fn exchange_matches_its_model(
            retry in any::<bool>(),
            steps in prop::collection::vec(step(), 1..160),
        ) {
            let retry = retry.then_some(RetryPolicy {
                max_attempts: 3,
                base_timeout: Duration::from_millis(10),
                max_timeout: Duration::from_millis(40),
            });
            let mut world = World::new(retry);
            for step in steps {
                world.apply(step);
            }
            world.apply(Step::Shutdown);
            for id in 0..world.next_id {
                prop_assert_eq!(world.completed.get(&id).copied(), Some(1), "request {}", id);
            }
            prop_assert_eq!(world.sender.pending_len(), 0);
            prop_assert_eq!(world.sender.parked_len(), 0);
        }
    }
}
