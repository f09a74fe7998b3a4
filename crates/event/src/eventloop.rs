//! The event loop itself.

use std::any::{Any, TypeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
// parking_lot, not std::sync: a panic in a posting thread must not poison
// the priority lane — supervision keepalives ride it, and a poisoned lane
// would panic the whole loop on the next post or drain.
use parking_lot::Mutex;
use xorp_profiler::{Gauge, Histogram, Metrics};

use crate::background::{BackgroundTask, SliceResult};
use crate::time::{ClockKind, Time};

/// A callback dispatched by the loop.  Callbacks receive the loop itself so
/// they can schedule timers, post events and plumb background tasks.
type LocalEvent = Box<dyn FnOnce(&mut EventLoop)>;
/// A callback posted from another thread (I/O reader threads, other
/// "processes").
type RemoteEvent = Box<dyn FnOnce(&mut EventLoop) + Send>;
/// A cross-thread lane beside the bulk channel: a plain shared deque.
/// Senders push here and wake the loop with a no-op marker on the bulk
/// channel, so the blocking receives need only watch one channel.
type Lane = Arc<Mutex<VecDeque<RemoteEvent>>>;

/// Handle for cancelling a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(u64);

/// Handle for cancelling a background task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackgroundHandle(u64);

struct TimerEntry {
    deadline: Time,
    seq: u64,
    id: u64,
    cb: LocalEvent,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// Cross-thread handle for posting events into a loop.
///
/// This is how I/O reader threads and other router processes inject work:
/// the closure runs on the loop's thread, to completion, in arrival order
/// within its lane.
#[derive(Clone)]
pub struct EventSender {
    tx: Sender<RemoteEvent>,
    pri: Lane,
    completion: Lane,
    metrics: Arc<OnceLock<LoopMetrics>>,
    /// Bulk-lane depth, counted from loop birth — the gauge attached
    /// later by `set_metrics` mirrors this, so posts made before the
    /// registry existed are never under-counted.
    depth: Arc<AtomicI64>,
}

impl EventSender {
    /// Post a closure to run on the loop thread.  Returns `false` if the
    /// loop has been dropped.
    pub fn post<F: FnOnce(&mut EventLoop) + Send + 'static>(&self, f: F) -> bool {
        self.send_bulk(Box::new(f))
    }

    /// Post a closure on the priority lane: it runs before anything still
    /// queued on the bulk lane, however deep that backlog is.  This is the
    /// receive-side half of overload control — a saturated loop may hold
    /// seconds of bulk posts, and control traffic (supervision keepalives,
    /// congestion signals) must not FIFO behind them.  Ordering *within*
    /// each lane is still arrival order.
    pub fn post_priority<F: FnOnce(&mut EventLoop) + Send + 'static>(&self, f: F) -> bool {
        // Push before the wakeup: once a blocked loop receives the no-op
        // marker on the bulk channel, the lane already holds the event.
        push_lane(&self.pri, Box::new(f), &self.metrics, |m| &m.pri_depth);
        self.send_bulk(Box::new(|_| {}))
    }

    /// Post a closure on the completion lane — the lane XRL transports
    /// post responses on.  While both hold work the loop alternates one
    /// completion with one bulk event, so work already in flight finishes
    /// (and a sender's window reopens) without waiting behind every input
    /// queued ahead of it, and neither lane waits behind more than one
    /// item of the other.  Priority events still run first; ordering
    /// within the lane is arrival order, but not across the two lanes, in
    /// either direction: a bulk event can also run before a completion
    /// posted ahead of it, when older completions outnumber the bulk
    /// events queued ahead of it.
    pub fn post_completion<F: FnOnce(&mut EventLoop) + Send + 'static>(&self, f: F) -> bool {
        // One wakeup per empty → non-empty transition is enough: the loop
        // blocks only after finding every lane empty, so a lane that was
        // already non-empty will be drained without another marker.
        if !push_lane(&self.completion, Box::new(f), &self.metrics, |m| {
            &m.completion_depth
        }) {
            return true;
        }
        let ok = self.send_bulk(Box::new(|_| {}));
        if !ok {
            // The loop is gone: empty the lane so the next post tries the
            // channel again and reports it.
            self.completion.lock().clear();
        }
        ok
    }

    /// Put one event on the bulk channel.
    fn send_bulk(&self, f: RemoteEvent) -> bool {
        // Count BEFORE the send: once the event is in the channel the loop
        // may consume (and decrement) it immediately, and a decrement that
        // lands first would swing the depth negative.
        note_bulk_change(&self.depth, &self.metrics, 1);
        let ok = self.tx.send(f).is_ok();
        if !ok {
            note_bulk_change(&self.depth, &self.metrics, -1);
        }
        ok
    }

    /// Ask the loop to stop after the current event.
    pub fn stop(&self) -> bool {
        self.post(|el| el.stop())
    }
}

/// A single-threaded event loop: timers + posted events + background
/// slices, driven by a real or virtual clock.
pub struct EventLoop {
    kind: ClockKind,
    start: Instant,
    vnow: Time,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    cancelled: HashSet<u64>,
    next_id: u64,
    seq: u64,
    rx: Receiver<RemoteEvent>,
    tx: Sender<RemoteEvent>,
    /// Cross-thread priority lane, drained ahead of `rx`.
    pri: Lane,
    /// Cross-thread completion lane, alternating with `rx` (see
    /// [`EventSender::post_completion`]).
    completion: Lane,
    /// The completion lane, not `rx`, ran the last of the two lanes'
    /// items: the next turn tries `rx` first.
    completion_ran_last: bool,
    local: VecDeque<LocalEvent>,
    /// Work that waits for the loop's input to drain (see
    /// [`EventLoop::defer_idle`]).
    idle: VecDeque<LocalEvent>,
    background: VecDeque<BackgroundTask>,
    cancelled_bg: HashSet<u64>,
    stopped: bool,
    slots: HashMap<TypeId, Box<dyn Any>>,
    /// Loop health metrics, armed once by [`EventLoop::set_metrics`] and
    /// shared with every [`EventSender`] (a sender handed out before the
    /// registry was attached still reports once it is).
    metrics: Arc<OnceLock<LoopMetrics>>,
    /// Bulk-lane depth (see [`EventSender::depth`]).
    depth: Arc<AtomicI64>,
}

/// The loop's own instrumentation: lane depths and timer slack.
struct LoopMetrics {
    bulk_depth: Gauge,
    pri_depth: Gauge,
    completion_depth: Gauge,
    timer_slack_us: Histogram,
}

/// Append `f` to a shared lane and mirror its depth into the lane's
/// gauge.  Returns whether the lane was empty before.
fn push_lane(
    lane: &Lane,
    f: RemoteEvent,
    metrics: &OnceLock<LoopMetrics>,
    gauge: fn(&LoopMetrics) -> &Gauge,
) -> bool {
    let depth = {
        let mut lane = lane.lock();
        lane.push_back(f);
        lane.len()
    };
    if let Some(m) = metrics.get() {
        gauge(m).set(depth as i64);
    }
    depth == 1
}

/// Take the oldest event off a shared lane, mirroring its new depth.
fn pop_lane(
    lane: &Lane,
    metrics: &OnceLock<LoopMetrics>,
    gauge: fn(&LoopMetrics) -> &Gauge,
) -> Option<RemoteEvent> {
    let mut lane = lane.lock();
    let f = lane.pop_front()?;
    if let Some(m) = metrics.get() {
        gauge(m).set(lane.len() as i64);
    }
    Some(f)
}

/// Apply a bulk-lane depth change to the always-present counter and
/// mirror the new depth into the gauge when a registry is attached.
fn note_bulk_change(depth: &AtomicI64, metrics: &OnceLock<LoopMetrics>, delta: i64) {
    let now = depth.fetch_add(delta, Ordering::Relaxed) + delta;
    if let Some(m) = metrics.get() {
        m.bulk_depth.set(now);
    }
}

impl Default for EventLoop {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLoop {
    /// A loop driven by the wall clock.
    pub fn new() -> Self {
        Self::with_clock(ClockKind::Real)
    }

    /// A loop driven by virtual time: deterministic, and as fast as the CPU
    /// allows — idle periods are skipped by jumping to the next deadline.
    pub fn new_virtual() -> Self {
        Self::with_clock(ClockKind::Virtual)
    }

    fn with_clock(kind: ClockKind) -> Self {
        let (tx, rx) = unbounded();
        EventLoop {
            kind,
            start: Instant::now(),
            vnow: Time::ZERO,
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_id: 1,
            seq: 0,
            rx,
            tx,
            pri: Lane::default(),
            completion: Lane::default(),
            completion_ran_last: false,
            local: VecDeque::new(),
            idle: VecDeque::new(),
            background: VecDeque::new(),
            cancelled_bg: HashSet::new(),
            stopped: false,
            slots: HashMap::new(),
            metrics: Arc::new(OnceLock::new()),
            depth: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Attach a metrics registry: the loop reports its bulk, priority and
    /// completion lane depths as gauges (`event.bulk_depth`,
    /// `event.pri_depth`, `event.completion_depth`) and timer firing slack
    /// as a histogram (`event.timer_slack_us`).  First call wins; later
    /// calls are ignored.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        let _ = self.metrics.set(LoopMetrics {
            bulk_depth: metrics.gauge("event.bulk_depth"),
            pri_depth: metrics.gauge("event.pri_depth"),
            completion_depth: metrics.gauge("event.completion_depth"),
            timer_slack_us: metrics.histogram("event.timer_slack_us"),
        });
        // Seed the gauge with whatever was already queued before the
        // registry arrived — depth has been counted since loop birth.
        if let Some(m) = self.metrics.get() {
            m.bulk_depth.set(self.depth.load(Ordering::Relaxed));
        }
    }

    /// Which clock drives this loop.
    pub fn clock_kind(&self) -> ClockKind {
        self.kind
    }

    /// Current loop time.
    pub fn now(&self) -> Time {
        match self.kind {
            ClockKind::Real => Time(self.start.elapsed().as_nanos() as u64),
            ClockKind::Virtual => self.vnow,
        }
    }

    /// A cloneable cross-thread sender for this loop.
    pub fn sender(&self) -> EventSender {
        EventSender {
            tx: self.tx.clone(),
            pri: self.pri.clone(),
            completion: self.completion.clone(),
            metrics: self.metrics.clone(),
            depth: self.depth.clone(),
        }
    }

    /// Request the loop stop once the current event completes.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// True once [`EventLoop::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    // ----- typed context slots --------------------------------------------
    //
    // A loop hosts one value per type: the XRL router, a protocol process,
    // etc.  Cross-thread closures (which must be `Send`) reach the loop's
    // single-threaded state through these slots instead of capturing it.

    /// Store `v` in the loop's slot for type `T`, replacing any previous
    /// value of that type.
    pub fn set_slot<T: 'static>(&mut self, v: T) {
        self.slots.insert(TypeId::of::<T>(), Box::new(v));
    }

    /// Borrow the slot for type `T`.
    pub fn slot<T: 'static>(&self) -> Option<&T> {
        self.slots
            .get(&TypeId::of::<T>())
            .and_then(|b| b.downcast_ref())
    }

    /// Mutably borrow the slot for type `T`.
    pub fn slot_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.slots
            .get_mut(&TypeId::of::<T>())
            .and_then(|b| b.downcast_mut())
    }

    /// Remove and return the slot for type `T`.
    pub fn remove_slot<T: 'static>(&mut self) -> Option<T> {
        self.slots
            .remove(&TypeId::of::<T>())
            .and_then(|b| b.downcast().ok())
            .map(|b| *b)
    }

    // ----- scheduling ----------------------------------------------------

    /// Queue `f` on the local lane.  Local work runs ahead of every
    /// cross-thread lane, in the order it was deferred: after the current
    /// event and any local work queued before it, but *before* priority,
    /// completion and bulk events already waiting.  Use
    /// [`EventLoop::defer_idle`] for work that should wait for those.
    pub fn defer<F: FnOnce(&mut EventLoop) + 'static>(&mut self, f: F) {
        self.local.push_back(Box::new(f));
    }

    /// Queue `f` on the idle lane: it runs once the loop's input is
    /// drained — the local, priority, completion and bulk lanes all empty
    /// and no timer due — and before any background slice.  Idle items
    /// run one per turn in the order they were queued, so work one of
    /// them defers runs before the next.  A coalescer arms its flush here:
    /// everything the queued input adds shares the one flush.
    pub fn defer_idle<F: FnOnce(&mut EventLoop) + 'static>(&mut self, f: F) {
        self.idle.push_back(Box::new(f));
    }

    /// Run `f` once at absolute loop time `t` (immediately if `t` is past).
    pub fn at<F: FnOnce(&mut EventLoop) + 'static>(&mut self, t: Time, f: F) -> TimerHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.schedule(t, id, Box::new(f));
        TimerHandle(id)
    }

    /// Run `f` once after `d`.
    pub fn after<F: FnOnce(&mut EventLoop) + 'static>(&mut self, d: Duration, f: F) -> TimerHandle {
        let t = self.now() + d;
        self.at(t, f)
    }

    /// Run `f` every `d`, starting one period from now, until cancelled.
    pub fn every<F: FnMut(&mut EventLoop) + 'static>(&mut self, d: Duration, f: F) -> TimerHandle {
        let id = self.next_id;
        self.next_id += 1;
        let deadline = self.now() + d;
        self.arm_periodic(deadline, id, d, Box::new(f));
        TimerHandle(id)
    }

    fn arm_periodic(
        &mut self,
        deadline: Time,
        id: u64,
        period: Duration,
        mut f: Box<dyn FnMut(&mut EventLoop)>,
    ) {
        self.schedule(
            deadline,
            id,
            Box::new(move |el| {
                f(el);
                // Re-arm under the same id so a held TimerHandle still
                // cancels the series.  Skip if cancelled inside f.
                if !el.cancelled.contains(&id) {
                    let next = deadline + period;
                    el.arm_periodic(next, id, period, f);
                }
            }),
        );
    }

    fn schedule(&mut self, deadline: Time, id: u64, cb: LocalEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.timers.push(Reverse(TimerEntry {
            deadline,
            seq,
            id,
            cb,
        }));
    }

    /// Cancel a pending (or periodic) timer.
    pub fn cancel(&mut self, h: TimerHandle) {
        self.cancelled.insert(h.0);
    }

    /// Plumb a background task: `f` is called with the loop whenever no
    /// events are pending, until it returns [`SliceResult::Done`].
    /// Multiple background tasks round-robin.
    pub fn spawn_background<F: FnMut(&mut EventLoop) -> SliceResult + 'static>(
        &mut self,
        f: F,
    ) -> BackgroundHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.background
            .push_back(BackgroundTask { id, f: Box::new(f) });
        BackgroundHandle(id)
    }

    /// Cancel a background task before it completes.
    pub fn cancel_background(&mut self, h: BackgroundHandle) {
        self.cancelled_bg.insert(h.0);
    }

    /// Number of live background tasks.
    pub fn background_count(&self) -> usize {
        self.background
            .iter()
            .filter(|t| !self.cancelled_bg.contains(&t.id))
            .count()
    }

    // ----- running -------------------------------------------------------

    /// Process at most one pending item (event, due timer, idle item or
    /// background slice).  Returns `true` if anything ran.  Never blocks
    /// and never advances virtual time.
    ///
    /// Lane order: deferred local events, then the priority lane, then the
    /// completion and bulk lanes alternating while both hold work (one
    /// item each, completion first unless it ran last), then due timers,
    /// then idle items, then background slices.  Arrival order holds
    /// within each lane; an item of either of the two alternating lanes
    /// may run before one the other lane received earlier.
    pub fn run_one(&mut self) -> bool {
        // Local (deferred) events first: they were queued by callbacks that
        // ran before anything currently in the remote queue was accepted.
        if let Some(f) = self.local.pop_front() {
            f(self);
            return true;
        }
        // Priority lane drains ahead of the others: control traffic posted
        // by reader threads must not wait behind a data backlog.
        if let Some(f) = pop_lane(&self.pri, &self.metrics, |m| &m.pri_depth) {
            f(self);
            return true;
        }
        // Completions finish work already in flight; bulk events start new
        // work.  Alternating bounds each lane's wait to one item of the
        // other however deep either grows.
        let completion_first = !self.completion_ran_last;
        if completion_first && self.run_completion() {
            return true;
        }
        match self.rx.try_recv() {
            Ok(f) => {
                self.run_bulk(f);
                return true;
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {}
        }
        if !completion_first && self.run_completion() {
            return true;
        }
        if self.fire_due_timer() {
            return true;
        }
        // The input is drained: work that waited for it runs now, ahead
        // of background slices, which yield to anything that arrives.
        if let Some(f) = self.idle.pop_front() {
            f(self);
            return true;
        }
        self.run_background_slice()
    }

    fn run_completion(&mut self) -> bool {
        let Some(f) = pop_lane(&self.completion, &self.metrics, |m| &m.completion_depth) else {
            return false;
        };
        self.completion_ran_last = true;
        f(self);
        true
    }

    fn run_bulk(&mut self, f: RemoteEvent) {
        note_bulk_change(&self.depth, &self.metrics, -1);
        self.completion_ran_last = false;
        f(self);
    }

    fn fire_due_timer(&mut self) -> bool {
        let now = self.now();
        while let Some(Reverse(top)) = self.timers.peek() {
            if top.deadline > now {
                return false;
            }
            // Unreachable panic: `peek()` just returned `Some` and nothing
            // between the peek and this pop can mutate the heap.
            let Reverse(entry) = self
                .timers
                .pop()
                .expect("timer heap non-empty: peek returned Some");
            if self.cancelled.remove(&entry.id) {
                continue; // cancelled; swallow and keep looking
            }
            if let Some(m) = self.metrics.get() {
                // Slack: how late past its deadline the timer fired — the
                // loop's scheduling-latency signal under load.
                m.timer_slack_us
                    .observe((now - entry.deadline).as_micros() as u64);
            }
            (entry.cb)(self);
            return true;
        }
        false
    }

    fn run_background_slice(&mut self) -> bool {
        while let Some(mut task) = self.background.pop_front() {
            if self.cancelled_bg.remove(&task.id) {
                continue;
            }
            let result = (task.f)(self);
            if result == SliceResult::Continue && !self.cancelled_bg.remove(&task.id) {
                self.background.push_back(task);
            }
            return true;
        }
        false
    }

    /// The earliest pending (non-cancelled) timer deadline.
    fn next_deadline(&mut self) -> Option<Time> {
        while let Some(Reverse(top)) = self.timers.peek() {
            if self.cancelled.contains(&top.id) {
                // Unreachable panic: same peek-then-pop pattern as
                // `fire_due_timer` — the heap cannot empty in between.
                let Reverse(entry) = self
                    .timers
                    .pop()
                    .expect("timer heap non-empty: peek returned Some");
                self.cancelled.remove(&entry.id);
                continue;
            }
            return Some(top.deadline);
        }
        None
    }

    /// Run until there is nothing runnable *right now*: queues empty (the
    /// idle lane included), no due timers, no background tasks.  Future
    /// timers are left pending.  Virtual time does not advance.  Returns
    /// the number of items run.
    pub fn run_until_idle(&mut self) -> usize {
        let mut n = 0;
        while !self.stopped && self.run_one() {
            n += 1;
        }
        n
    }

    /// Run, advancing time, until loop time reaches `until` or the loop is
    /// stopped.
    ///
    /// * Virtual clock: processes everything runnable, then jumps `vnow`
    ///   to the next timer deadline; returns when no work remains before
    ///   `until` (leaving `vnow == until`).
    /// * Real clock: blocks on the event channel between deadlines.
    pub fn run_until(&mut self, until: Time) -> usize {
        let mut n = 0;
        loop {
            if self.stopped {
                return n;
            }
            if self.run_one() {
                n += 1;
                continue;
            }
            // Nothing runnable: wait for or jump to the next deadline.
            match self.kind {
                ClockKind::Virtual => {
                    match self.next_deadline() {
                        Some(d) if d <= until => {
                            self.vnow = self.vnow.max(d);
                            // loop; timer now due
                        }
                        _ => {
                            self.vnow = self.vnow.max(until);
                            return n;
                        }
                    }
                }
                ClockKind::Real => {
                    let now = self.now();
                    if now >= until {
                        return n;
                    }
                    let wait_until = match self.next_deadline() {
                        Some(d) => d.min(until),
                        None => until,
                    };
                    let dur = wait_until - now;
                    match self.rx.recv_timeout(dur) {
                        Ok(f) => {
                            self.run_bulk(f);
                            n += 1;
                        }
                        Err(_) => { /* timeout or disconnect: loop re-checks */ }
                    }
                }
            }
        }
    }

    /// Run for `d` from now; see [`EventLoop::run_until`].
    pub fn run_for(&mut self, d: Duration) -> usize {
        let t = self.now() + d;
        self.run_until(t)
    }

    /// Run until [`EventLoop::stop`] is called (from a callback or via
    /// [`EventSender::stop`]).
    pub fn run(&mut self) {
        loop {
            if self.stopped {
                return;
            }
            if self.run_one() {
                continue;
            }
            match self.kind {
                ClockKind::Virtual => match self.next_deadline() {
                    Some(d) => self.vnow = self.vnow.max(d),
                    None => {
                        // A virtual loop with no timers can only be woken by
                        // a remote event; block for one.  Priority and
                        // completion posts also wake this via their
                        // bulk-lane marker.
                        match self.rx.recv() {
                            Ok(f) => self.run_bulk(f),
                            Err(_) => return,
                        }
                    }
                },
                ClockKind::Real => {
                    let wait = self
                        .next_deadline()
                        .map(|d| d - self.now())
                        .unwrap_or(Duration::from_millis(100));
                    if let Ok(f) = self.rx.recv_timeout(wait.max(Duration::from_micros(1))) {
                        self.run_bulk(f)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn defer_runs_in_order() {
        let mut el = EventLoop::new_virtual();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let log = log.clone();
            el.defer(move |_| log.borrow_mut().push(i));
        }
        el.run_until_idle();
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn priority_posts_overtake_bulk_posts() {
        let mut el = EventLoop::new_virtual();
        let sender = el.sender();
        let log: Rc<RefCell<Vec<i32>>> = Rc::new(RefCell::new(Vec::new()));
        el.set_slot(log.clone());
        // Three bulk posts, then a priority post: despite arriving last it
        // must run first.  Within each lane, arrival order holds.
        for i in 0..3 {
            sender.post(move |el| {
                el.slot::<Rc<RefCell<Vec<i32>>>>()
                    .unwrap()
                    .borrow_mut()
                    .push(i)
            });
        }
        sender.post_priority(|el| {
            el.slot::<Rc<RefCell<Vec<i32>>>>()
                .unwrap()
                .borrow_mut()
                .push(99)
        });
        el.run_until_idle();
        assert_eq!(*log.borrow(), vec![99, 0, 1, 2]);
    }

    type Log = Rc<RefCell<Vec<String>>>;

    /// A postable closure that appends `tag` to the loop's [`Log`] slot.
    fn logs(tag: impl Into<String>) -> impl FnOnce(&mut EventLoop) + Send {
        let tag = tag.into();
        move |el| el.slot::<Log>().unwrap().borrow_mut().push(tag)
    }

    fn logged_loop() -> (EventLoop, Log) {
        let mut el = EventLoop::new_virtual();
        let log = Log::default();
        el.set_slot(log.clone());
        (el, log)
    }

    #[test]
    fn completion_overtakes_a_bulk_backlog() {
        let (mut el, log) = logged_loop();
        let sender = el.sender();
        for i in 0..100 {
            sender.post(logs(format!("b{i}")));
        }
        sender.post_completion(logs("c"));
        let mut items = 0;
        while !log.borrow().iter().any(|t| t == "c") {
            assert!(el.run_one(), "the completion never ran");
            items += 1;
        }
        assert!(items <= 2, "the completion ran as item {items}");
        el.run_until_idle();
        assert_eq!(log.borrow().len(), 101);
    }

    #[test]
    fn completions_and_bulk_alternate_while_both_hold_work() {
        let (mut el, log) = logged_loop();
        let sender = el.sender();
        for i in 0..50 {
            sender.post(logs(format!("b{i}")));
        }
        for i in 0..50 {
            sender.post_completion(logs(format!("c{i}")));
        }
        el.run_until_idle();
        let expected: Vec<String> = (0..50)
            .flat_map(|i| [format!("c{i}"), format!("b{i}")])
            .collect();
        assert_eq!(*log.borrow(), expected);

        // Uneven lanes: strict alternation while both hold work, then the
        // longer lane alone — never two of one lane while the other waits.
        log.borrow_mut().clear();
        for i in 0..3 {
            sender.post(logs(format!("b{i}")));
        }
        for i in 0..6 {
            sender.post_completion(logs(format!("c{i}")));
        }
        el.run_until_idle();
        assert_eq!(
            *log.borrow(),
            ["c0", "b0", "c1", "b1", "c2", "b2", "c3", "c4", "c5"]
        );
    }

    #[test]
    fn local_then_priority_then_alternating_lanes_in_arrival_order() {
        let (mut el, log) = logged_loop();
        let sender = el.sender();
        sender.post(logs("b0"));
        sender.post(logs("b1"));
        sender.post_completion(|el| {
            logs("c0")(el);
            // Deferred by a completion: runs before either lane moves on.
            el.defer(logs("d"));
        });
        sender.post_completion(logs("c1"));
        sender.post_priority(logs("p0"));
        sender.post_priority(logs("p1"));
        el.defer(logs("l0"));
        el.run_until_idle();
        assert_eq!(
            *log.borrow(),
            ["l0", "p0", "p1", "c0", "d", "b0", "c1", "b1"]
        );
    }

    #[test]
    fn blocked_real_loop_wakes_for_completions_from_another_thread() {
        fn wait_for(what: &str, cond: impl Fn() -> bool) {
            let deadline = Instant::now() + Duration::from_secs(20);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::yield_now();
            }
        }
        let mut el = EventLoop::new();
        let metrics = Metrics::new();
        el.set_metrics(&metrics);
        // A loop that missed its wakeup would sleep until this fires.
        el.after(Duration::from_secs(30), |el| el.stop());
        let sender = el.sender();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        let poster = std::thread::spawn(move || {
            let count = |r: &Arc<AtomicUsize>| {
                let r = r.clone();
                move |_: &mut EventLoop| {
                    r.fetch_add(1, Ordering::SeqCst);
                }
            };
            // An empty lane: the post wakes the blocked loop.
            std::thread::sleep(Duration::from_millis(20));
            sender.post_completion(count(&r));
            wait_for("the first completion", || r.load(Ordering::SeqCst) == 1);

            // Two posts while the loop is busy: the second finds the lane
            // non-empty and adds no marker, yet still runs.
            let (inside_tx, inside_rx) = std::sync::mpsc::channel();
            let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
            sender.post(move |_| {
                inside_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            });
            inside_rx.recv().unwrap();
            sender.post_completion(count(&r));
            sender.post_completion(count(&r));
            let bulk_depth = match metrics.get("event.bulk_depth") {
                Some(xorp_profiler::MetricValue::Gauge { value, .. }) => value,
                other => panic!("bulk_depth: {other:?}"),
            };
            assert_eq!(bulk_depth, 1, "one marker for two completions");
            gate_tx.send(()).unwrap();
            wait_for("both completions", || r.load(Ordering::SeqCst) == 3);

            // Blocked again: the last completion stops the loop.
            std::thread::sleep(Duration::from_millis(20));
            sender.post_completion(|el| el.stop());
        });
        let start = Instant::now();
        el.run();
        poster.join().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "a completion waited for the timer instead of waking the loop"
        );
    }

    #[test]
    fn virtual_timers_fire_in_deadline_order() {
        let mut el = EventLoop::new_virtual();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        let l3 = log.clone();
        el.after(Duration::from_secs(3), move |_| l1.borrow_mut().push(3));
        el.after(Duration::from_secs(1), move |_| l2.borrow_mut().push(1));
        el.after(Duration::from_secs(2), move |_| l3.borrow_mut().push(2));
        el.run_until(Time::from_secs(10));
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(el.now(), Time::from_secs(10));
    }

    #[test]
    fn run_until_stops_before_later_timers() {
        let mut el = EventLoop::new_virtual();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        el.after(Duration::from_secs(5), move |_| *f.borrow_mut() = true);
        el.run_until(Time::from_secs(2));
        assert!(!*fired.borrow());
        assert_eq!(el.now(), Time::from_secs(2));
        el.run_until(Time::from_secs(6));
        assert!(*fired.borrow());
    }

    #[test]
    fn cancel_timer() {
        let mut el = EventLoop::new_virtual();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        let h = el.after(Duration::from_secs(1), move |_| *f.borrow_mut() = true);
        el.cancel(h);
        el.run_until(Time::from_secs(5));
        assert!(!*fired.borrow());
    }

    #[test]
    fn periodic_timer_and_cancel() {
        let mut el = EventLoop::new_virtual();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        let h = el.every(Duration::from_secs(1), move |_| *c.borrow_mut() += 1);
        el.run_until(Time::from_millis(3500));
        assert_eq!(*count.borrow(), 3);
        el.cancel(h);
        el.run_until(Time::from_secs(10));
        assert_eq!(*count.borrow(), 3);
    }

    #[test]
    fn periodic_self_cancel() {
        let mut el = EventLoop::new_virtual();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        // Cancels itself from inside after 2 firings.
        let h = Rc::new(RefCell::new(None));
        let h2 = h.clone();
        let handle = el.every(Duration::from_secs(1), move |el| {
            *c.borrow_mut() += 1;
            if *c.borrow() == 2 {
                el.cancel(h2.borrow().unwrap());
            }
        });
        *h.borrow_mut() = Some(handle);
        el.run_until(Time::from_secs(10));
        assert_eq!(*count.borrow(), 2);
    }

    #[test]
    fn background_runs_only_when_idle() {
        let mut el = EventLoop::new_virtual();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mut slices = 0;
        el.spawn_background(move |_| {
            slices += 1;
            l.borrow_mut().push(format!("bg{slices}"));
            if slices == 3 {
                SliceResult::Done
            } else {
                SliceResult::Continue
            }
        });
        let l2 = log.clone();
        el.defer(move |_| l2.borrow_mut().push("ev1".into()));
        let l3 = log.clone();
        el.defer(move |_| l3.borrow_mut().push("ev2".into()));
        el.run_until_idle();
        // Both events run before any background slice.
        assert_eq!(*log.borrow(), vec!["ev1", "ev2", "bg1", "bg2", "bg3"]);
        assert_eq!(el.background_count(), 0);
    }

    #[test]
    fn background_interleaves_with_arriving_events() {
        let mut el = EventLoop::new_virtual();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mut slices = 0;
        el.spawn_background(move |el| {
            slices += 1;
            l.borrow_mut().push(format!("bg{slices}"));
            if slices == 1 {
                // An event arrives while the background task is mid-way.
                let l2 = l.clone();
                el.defer(move |_| l2.borrow_mut().push("event".into()));
            }
            if slices == 2 {
                SliceResult::Done
            } else {
                SliceResult::Continue
            }
        });
        el.run_until_idle();
        // The event pre-empts the second slice.
        assert_eq!(*log.borrow(), vec!["bg1", "event", "bg2"]);
    }

    #[test]
    fn idle_work_waits_for_every_lane_and_a_due_timer() {
        let (mut el, log) = logged_loop();
        let sender = el.sender();
        el.defer_idle(logs("idle"));
        el.after(Duration::from_secs(1), logs("later"));
        el.at(el.now(), logs("t"));
        let again = sender.clone();
        sender.post(move |el| {
            logs("b0")(el);
            // Input that arrives while the loop drains holds idle work too.
            again.post(logs("b1"));
        });
        sender.post_completion(logs("c"));
        sender.post_priority(logs("p"));
        el.defer(logs("l"));
        el.run_until_idle();
        assert_eq!(*log.borrow(), ["l", "p", "c", "b0", "b1", "t", "idle"]);
        // A timer not yet due does not hold idle work back.
        el.run_until(Time::from_secs(2));
        assert_eq!(log.borrow().last().map(String::as_str), Some("later"));
    }

    #[test]
    fn idle_work_runs_before_a_background_slice() {
        let (mut el, log) = logged_loop();
        let mut slices = 0;
        el.spawn_background(move |el| {
            slices += 1;
            logs(format!("bg{slices}"))(el);
            if slices == 1 {
                // Idle work queued by a slice runs before the next one.
                el.defer_idle(logs("idle1"));
                SliceResult::Continue
            } else {
                SliceResult::Done
            }
        });
        el.defer_idle(logs("idle0"));
        el.run_until_idle();
        assert_eq!(*log.borrow(), ["idle0", "bg1", "idle1", "bg2"]);
    }

    #[test]
    fn work_an_idle_item_defers_runs_before_the_next_idle_item() {
        let (mut el, log) = logged_loop();
        let sender = el.sender();
        el.defer_idle(move |el| {
            logs("i0")(el);
            sender.post(logs("b"));
            el.defer(logs("d"));
        });
        el.defer_idle(logs("i1"));
        el.run_until_idle();
        assert_eq!(*log.borrow(), ["i0", "d", "b", "i1"]);
    }

    #[test]
    fn run_until_idle_drains_the_idle_lane() {
        fn chain(n: u32) -> impl FnOnce(&mut EventLoop) {
            move |el| {
                logs(format!("i{n}"))(el);
                if n < 3 {
                    el.defer_idle(chain(n + 1));
                }
            }
        }
        let (mut el, log) = logged_loop();
        el.defer_idle(chain(0));
        assert_eq!(el.run_until_idle(), 4);
        assert_eq!(*log.borrow(), ["i0", "i1", "i2", "i3"]);
        assert!(!el.run_one(), "idle work left behind");
    }

    #[test]
    fn a_real_loop_runs_idle_work_before_it_blocks() {
        let mut el = EventLoop::new();
        let sender = el.sender();
        let poster = std::thread::spawn(move || {
            sender.post(|el| el.defer_idle(|el| el.stop()));
        });
        // Nothing else would wake the loop for a minute: only idle work
        // run before the loop blocks again ends it sooner.
        let t0 = Instant::now();
        el.run_for(Duration::from_secs(60));
        poster.join().unwrap();
        assert!(el.is_stopped());
        assert!(t0.elapsed() < Duration::from_secs(20), "{:?}", t0.elapsed());
    }

    #[test]
    fn two_background_tasks_round_robin() {
        let mut el = EventLoop::new_virtual();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let l = log.clone();
            let mut n = 0;
            el.spawn_background(move |_| {
                n += 1;
                l.borrow_mut().push(format!("{name}{n}"));
                if n == 2 {
                    SliceResult::Done
                } else {
                    SliceResult::Continue
                }
            });
        }
        el.run_until_idle();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn cancel_background() {
        let mut el = EventLoop::new_virtual();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        let h = el.spawn_background(move |_| {
            *c.borrow_mut() += 1;
            SliceResult::Continue
        });
        el.run_one();
        el.cancel_background(h);
        el.run_until_idle();
        assert_eq!(*count.borrow(), 1);
        assert_eq!(el.background_count(), 0);
    }

    #[test]
    fn cross_thread_events() {
        let mut el = EventLoop::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let sender = el.sender();
        let c = counter.clone();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                let c = c.clone();
                sender.post(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            sender.stop();
        });
        el.run();
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn real_clock_timer_fires() {
        let mut el = EventLoop::new();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        el.after(Duration::from_millis(10), move |el| {
            *f.borrow_mut() = true;
            el.stop();
        });
        el.run();
        assert!(*fired.borrow());
        assert!(el.now() >= Time::from_millis(10));
    }

    #[test]
    fn typed_slots() {
        let mut el = EventLoop::new_virtual();
        el.set_slot::<u32>(7);
        el.set_slot::<String>("hello".into());
        assert_eq!(el.slot::<u32>(), Some(&7));
        assert_eq!(el.slot::<String>().map(|s| s.as_str()), Some("hello"));
        *el.slot_mut::<u32>().unwrap() = 9;
        assert_eq!(el.slot::<u32>(), Some(&9));
        // Replacement and removal.
        el.set_slot::<u32>(1);
        assert_eq!(el.remove_slot::<u32>(), Some(1));
        assert_eq!(el.slot::<u32>(), None);
        assert_eq!(el.remove_slot::<u32>(), None);
        assert!(el.slot::<f64>().is_none());
    }

    #[test]
    fn slots_reachable_from_posted_closures() {
        let mut el = EventLoop::new_virtual();
        el.set_slot::<u32>(41);
        let sender = el.sender();
        sender.post(|el| {
            *el.slot_mut::<u32>().unwrap() += 1;
        });
        el.run_until_idle();
        assert_eq!(el.slot::<u32>(), Some(&42));
    }

    #[test]
    fn events_processed_to_completion_in_order() {
        // An event that posts another event: the chained event runs after
        // other already-queued events (run-to-completion, FIFO).
        let mut el = EventLoop::new_virtual();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        el.defer(move |el| {
            l1.borrow_mut().push("first");
            let l = l1.clone();
            el.defer(move |_| l.borrow_mut().push("chained"));
        });
        let l2 = log.clone();
        el.defer(move |_| l2.borrow_mut().push("second"));
        el.run_until_idle();
        assert_eq!(*log.borrow(), vec!["first", "second", "chained"]);
    }

    // ----- panic-regression tests for the timer-heap hot paths ----------
    //
    // `fire_due_timer` and `next_deadline` both pop immediately after a
    // successful peek; these tests drive every adversarial shape we could
    // construct (cancelled heads, fully-cancelled heaps, stale handles)
    // through both paths and must complete without panicking.

    /// Regression for the poisoned-priority-lane bug: the lane used
    /// `std::sync::Mutex` + `expect("priority lane lock")`, so a panic in
    /// any posting thread poisoned the lock and the next `post_priority`
    /// or drain panicked the whole event loop — the exact keepalive path
    /// supervision depends on.  With `parking_lot::Mutex` there is no
    /// poisoning: even a panic inside the critical section just unlocks,
    /// so the lane survives any dying poster.
    #[test]
    fn panicking_poster_does_not_kill_the_loop() {
        let mut el = EventLoop::new_virtual();
        let counter = Arc::new(AtomicUsize::new(0));
        let sender = el.sender();
        let c = counter.clone();
        let t = std::thread::spawn(move || {
            sender.post_priority(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
            panic!("poster dies after posting");
        });
        assert!(t.join().is_err(), "poster thread must have panicked");
        // The already-posted event still runs...
        el.run_until_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        // ...and the lane still accepts and drains new posts, from other
        // threads and in priority order.
        let sender = el.sender();
        let c = counter.clone();
        let t = std::thread::spawn(move || {
            assert!(sender.post_priority(move |_| {
                c.fetch_add(10, Ordering::SeqCst);
            }));
        });
        t.join().unwrap();
        el.run_until_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn loop_metrics_report_lane_depths_and_timer_slack() {
        use xorp_profiler::MetricValue;
        let mut el = EventLoop::new_virtual();
        let metrics = Metrics::new();
        el.set_metrics(&metrics);
        let sender = el.sender();
        for _ in 0..3 {
            sender.post(|_| {});
        }
        sender.post_priority(|_| {});
        sender.post_completion(|_| {});
        sender.post_completion(|_| {});
        // Depth gauges track the posts (the priority marker and the
        // completion lane's one wakeup ride the bulk lane too, hence 5).
        match metrics.get("event.bulk_depth") {
            Some(MetricValue::Gauge { max, .. }) => assert_eq!(max, 5),
            other => panic!("bulk_depth: {other:?}"),
        }
        match metrics.get("event.pri_depth") {
            Some(MetricValue::Gauge { max, .. }) => assert_eq!(max, 1),
            other => panic!("pri_depth: {other:?}"),
        }
        match metrics.get("event.completion_depth") {
            Some(MetricValue::Gauge { max, .. }) => assert_eq!(max, 2),
            other => panic!("completion_depth: {other:?}"),
        }
        el.run_until_idle();
        for lane in [
            "event.pri_depth",
            "event.completion_depth",
            "event.bulk_depth",
        ] {
            match metrics.get(lane) {
                Some(MetricValue::Gauge { value, .. }) => assert_eq!(value, 0, "{lane}"),
                other => panic!("{lane}: {other:?}"),
            }
        }
        // A timer whose deadline (t=1s) is already 2s in the past when it
        // fires shows 2s of slack.
        el.run_until(Time::from_secs(3));
        el.at(Time::from_secs(1), |_| {});
        el.run_until_idle();
        match metrics.get("event.timer_slack_us") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.max, 2_000_000);
            }
            other => panic!("timer_slack_us: {other:?}"),
        }
    }

    #[test]
    fn cancelled_head_timer_is_swallowed_without_panic() {
        let mut el = EventLoop::new_virtual();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let h1 = el.after(Duration::from_secs(1), move |_| l1.borrow_mut().push(1));
        let l2 = log.clone();
        el.after(Duration::from_secs(2), move |_| l2.borrow_mut().push(2));
        // The earliest timer is cancelled: next_deadline must skip past it
        // and fire_due_timer must swallow it, both via peek-then-pop.
        el.cancel(h1);
        el.run_until(Time::from_secs(3));
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn fully_cancelled_heap_advances_cleanly() {
        let mut el = EventLoop::new_virtual();
        let mut handles = Vec::new();
        for i in 1..=3u64 {
            handles.push(el.after(Duration::from_secs(i), |_| panic!("cancelled timer fired")));
        }
        for h in handles {
            el.cancel(h);
        }
        // next_deadline drains the whole heap to None; run_until must then
        // jump straight to `until` without firing anything.
        el.run_until(Time::from_secs(10));
        assert_eq!(el.now(), Time::from_secs(10));
    }

    #[test]
    fn stale_and_double_cancels_are_harmless() {
        let mut el = EventLoop::new_virtual();
        let fired = Rc::new(RefCell::new(0u32));
        let f = fired.clone();
        let h = el.after(Duration::from_secs(1), move |_| *f.borrow_mut() += 1);
        el.run_until(Time::from_secs(2));
        assert_eq!(*fired.borrow(), 1);
        // Cancelling an already-fired timer, twice, must not disturb later
        // timers (ids are never reused).
        el.cancel(h);
        el.cancel(h);
        let f2 = fired.clone();
        el.after(Duration::from_secs(1), move |_| *f2.borrow_mut() += 10);
        el.run_until(Time::from_secs(5));
        assert_eq!(*fired.borrow(), 11);
    }
}
