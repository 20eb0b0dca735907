//! Forwarding wrappers around the stack's public traits. Each forwards
//! every call unchanged and times it from outside the crate.

use crate::spans::{self, now_ns, span};
use qtag_core::QTag;
use qtag_render::{ScriptCtx, TagScript};
use qtag_server::{ApplyOutcome, ShardJournal};
use qtag_wire::sender::{AckKey, Transport, TransportError};
use qtag_wire::Beacon;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// [`TagScript`] around the Q-Tag: every callback is a `core.tag` span
/// tagged with the op the caller is running.
pub struct TimedTag {
    pub inner: QTag,
    pub op: Rc<Cell<u64>>,
}

impl TagScript for TimedTag {
    fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>) {
        span("core.tag", self.op.get(), || self.inner.on_attach(ctx));
    }
    fn on_animation_frame(&mut self, ctx: &mut ScriptCtx<'_>) {
        span("core.tag", self.op.get(), || {
            self.inner.on_animation_frame(ctx)
        });
    }
    fn on_timer(&mut self, ctx: &mut ScriptCtx<'_>) {
        span("core.tag", self.op.get(), || self.inner.on_timer(ctx));
    }
    fn on_click(&mut self, ctx: &mut ScriptCtx<'_>) {
        span("core.tag", self.op.get(), || self.inner.on_click(ctx));
    }
}

/// Per-beacon clock for an open-loop sender: when each beacon was due,
/// whether it has been written yet, and the due-to-ack latencies.
#[derive(Default)]
pub struct AckClock {
    due: HashMap<AckKey, (u64, bool)>,
    /// Due time to first ack, per acked beacon, in ms.
    pub latencies_ms: Vec<f64>,
    /// Due time to first write, per beacon (traced phase only), in ms.
    pub queue_wait_ms: Vec<f64>,
}

impl AckClock {
    pub fn due(&mut self, key: AckKey, due_ns: u64) {
        self.due.insert(key, (due_ns, false));
    }
}

/// [`Transport`] wrapper: `send_frame`, `poll_acks` and `reopen` are
/// spans named by the caller (the transport's own crate), and an
/// optional [`AckClock`], shared with the code offering beacons,
/// timestamps first writes and acks as they happen.
pub struct TimedTransport<T> {
    pub inner: T,
    pub names: [&'static str; 3],
    pub clock: Option<Rc<RefCell<AckClock>>>,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T, names: [&'static str; 3]) -> Self {
        TimedTransport {
            inner,
            names,
            clock: None,
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if let (Some(clock), true) = (&self.clock, spans::enabled()) {
            let mut clock = clock.borrow_mut();
            // Frame = 2-byte length prefix + one binary beacon.
            if let Ok(b) = qtag_wire::binary::decode(&frame[2..]) {
                if let Some((due, written)) = clock.due.get_mut(&AckKey::from(&b)) {
                    if !*written {
                        *written = true;
                        let wait = now_ns().saturating_sub(*due);
                        clock.queue_wait_ms.push(wait as f64 / 1e6);
                    }
                }
            }
        }
        span(self.names[0], 0, || self.inner.send_frame(frame))
    }

    fn poll_acks(&mut self, out: &mut Vec<AckKey>) -> Result<(), TransportError> {
        let from = out.len();
        let r = span(self.names[1], 0, || self.inner.poll_acks(out));
        if let Some(clock) = &self.clock {
            let mut clock = clock.borrow_mut();
            let now = now_ns();
            for key in &out[from..] {
                if let Some((due, _)) = clock.due.remove(key) {
                    clock
                        .latencies_ms
                        .push(now.saturating_sub(due) as f64 / 1e6);
                }
            }
        }
        r
    }

    fn reopen(&mut self) -> Result<(), TransportError> {
        span(self.names[2], 0, || self.inner.reopen())
    }
}

/// [`ShardJournal`] wrapper. Journal appends run on the daemon's shard
/// applier threads, so calls and busy time are atomics and kept spans
/// sit behind a mutex; timing is off until [`TimedJournal::set_on`].
pub struct TimedJournal {
    inner: Arc<dyn ShardJournal>,
    on: AtomicBool,
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
    pub spans: Mutex<Vec<(u64, u64, u64)>>,
}

impl TimedJournal {
    pub fn new(inner: Arc<dyn ShardJournal>) -> Self {
        TimedJournal {
            inner,
            on: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Release);
    }
}

impl ShardJournal for TimedJournal {
    fn append_beacons(&self, shard: usize, batch: &[Beacon], outcomes: &[ApplyOutcome]) {
        if !self.on.load(Ordering::Acquire) {
            return self.inner.append_beacons(shard, batch, outcomes);
        }
        let start = now_ns();
        self.inner.append_beacons(shard, batch, outcomes);
        let end = now_ns();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        let mut kept = self.spans.lock().expect("journal span list");
        if kept.len() < spans::SPAN_FILE_CAP {
            kept.push((start, end, shard as u64));
        }
    }
}
