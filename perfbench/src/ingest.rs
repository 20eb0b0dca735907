//! `ingest`: an open loop over real loopback TCP into an in-process
//! `Collector` (epoll reactor, 2 shards, `DurableBackend` under batch
//! sync in a fresh directory). The generator uses two threads and two
//! persistent connections:
//!
//! * connection A (main thread) carries acked tag traffic through a
//!   `BeaconSender` over a `TcpTransport`, offered at a fixed rate;
//! * connection B carries a pre-encoded fire-and-forget binary stream
//!   at a fixed rate; the same thread runs a reporter that reads
//!   merge-on-read reports on a fixed cadence while the store is being
//!   written.
//!
//! Beacons come from a rolling population of live impressions whose
//! served records are registered before the timed phase. One op is one
//! beacon; latency is due time to ack on connection A.

use crate::report::Outcome;
use crate::spans::{self, now_ns, span, Recorded};
use crate::stats;
use crate::wrap::{AckClock, TimedJournal, TimedTransport};
use crate::{Phase, RunCfg, Timing};
use bytes::BytesMut;
use qtag_collectd::{Collector, CollectorConfig};
use qtag_obs::{RegistrySnapshot, Stage};
use qtag_server::{ReportBuilder, ServedImpression, ShardJournal};
use qtag_store::{DurableBackend, DurableConfig, StorageBackend, StoreStatsSnapshot};
use qtag_wire::framing::encode_frame;
use qtag_wire::sender::{AckKey, BeaconSender, SenderConfig, SenderStats, TcpTransport};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Acked beacons offered per second on connection A.
const RATE_A: f64 = 40_000.0;
/// Fire-and-forget beacons offered per second on connection B.
const RATE_B: f64 = 400_000.0;
const SHARDS: usize = 2;
/// Live impressions per connection; each emits its beacons in turn.
const LIVE: usize = 256;
const CAMPAIGNS: u32 = 99;
/// Reporter cadence on the connection-B thread.
const REPORT_EVERY_S: f64 = 1.0;
/// Per-shard inlet capacity in batches (one per socket read, about 60
/// beacons at these rates): one to two seconds of the offered load, so a
/// host stall of a few hundred ms is absorbed instead of shed.
const INLET_BATCHES: usize = 8192;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Trace-ring capacity in traced runs, sized so nothing is overwritten.
const TRACE_CAPACITY: usize = 4_000_000;
/// The generator lagged if its p99 lateness exceeds this.
const MAX_LAG_P99_MS: f64 = 25.0;
/// Connection A drains for at most this long after the timed phase.
const DRAIN_S: f64 = 10.0;
const FRAME_LEN: usize = 2 + qtag_wire::binary::ENCODED_LEN;

/// Generates a connection's beacons from the seed, handing each to
/// `emit` in send order; returns the impressions they belong to.
fn traffic(
    seed: u64,
    conn: u64,
    count: usize,
    mut emit: impl FnMut(Beacon),
) -> Vec<ServedImpression> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut served = Vec::new();
    let mut next_id = (conn << 40) | 1;
    // A fresh impression: (served record, next seq, beacons it sends).
    // Quotas stay under the store's 48-entry sparse dedup threshold, so
    // store memory grows by a few bytes per beacon, not an 8 KiB bitmap
    // per impression.
    let mut fresh = |rng: &mut ChaCha8Rng, served: &mut Vec<ServedImpression>| {
        let (os, browser, site_type) = match rng.gen_range(0..4) {
            0 => (OsKind::Windows10, BrowserKind::Chrome, SiteType::Browser),
            1 => (OsKind::Android, BrowserKind::Chrome, SiteType::Browser),
            2 => (OsKind::Android, BrowserKind::AndroidWebView, SiteType::App),
            _ => (OsKind::Ios, BrowserKind::Safari, SiteType::Browser),
        };
        let s = ServedImpression {
            impression_id: next_id,
            campaign_id: rng.gen_range(1..=CAMPAIGNS),
            os,
            browser,
            site_type,
            ad_format: if rng.gen_bool(0.2) {
                AdFormat::Video
            } else {
                AdFormat::Display
            },
        };
        next_id += 1;
        served.push(s.clone());
        (s, 0u16, rng.gen_range(30..=46u16))
    };
    let mut live: Vec<_> = (0..LIVE).map(|_| fresh(&mut rng, &mut served)).collect();
    // Timestamps spread the run over one simulated day so every hourly
    // rollup bucket is populated.
    let day_us = 86_400_000_000u64;
    for k in 0..count {
        let j = rng.gen_range(0..LIVE);
        let (s, seq, quota) = &mut live[j];
        let event = match *seq {
            0 => EventKind::TagLoaded,
            1 => EventKind::Measurable,
            2 if rng.gen_bool(0.5) => EventKind::InView,
            _ => EventKind::Heartbeat,
        };
        let b = Beacon {
            impression_id: s.impression_id,
            campaign_id: s.campaign_id,
            event,
            timestamp_us: k as u64 * day_us / count as u64,
            ad_format: s.ad_format,
            visible_fraction_milli: rng.gen_range(0..=1000),
            exposure_ms: u32::from(*seq) * 100,
            os: s.os,
            browser: s.browser,
            site_type: s.site_type,
            seq: *seq,
        };
        *seq += 1;
        if *seq == *quota {
            live[j] = fresh(&mut rng, &mut served);
        }
        emit(b);
    }
    served
}

/// Everything built before the timed phase.
struct Daemon {
    dir: PathBuf,
    backend: DurableBackend,
    journal: Arc<TimedJournal>,
    collector: Collector,
    a: Vec<Beacon>,
    b_stream: BytesMut,
    /// `now_ns()` just before the collector started; its trace ring
    /// counts microseconds from (about) here.
    epoch_ns: u64,
}

fn start_daemon(cfg: &RunCfg, rates: (f64, f64), attempt: usize) -> Daemon {
    let dir = cfg
        .out_dir
        .join(format!("ingest-{}-{attempt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (backend, recovered) =
        DurableBackend::open(DurableConfig::new(&dir, SHARDS)).expect("open WAL directory");
    assert_eq!(recovered.records_replayed, 0, "fresh WAL directory");
    let count = |rate: f64| (rate * cfg.seconds).ceil() as usize;
    let mut a = Vec::with_capacity(count(rates.0));
    let mut served = traffic(cfg.seed, 1, count(rates.0), |b| a.push(b));
    // B goes straight to its wire encoding: only the frames are kept.
    let mut b_stream = BytesMut::with_capacity(count(rates.1) * FRAME_LEN);
    served.extend(traffic(cfg.seed, 2, count(rates.1), |b| {
        encode_frame(&b, &mut b_stream).expect("beacon encodes");
    }));
    for s in served {
        backend.record_served(s);
    }
    let journal = Arc::new(TimedJournal::new(
        backend.journal().expect("durable journal"),
    ));
    let collector_cfg = CollectorConfig {
        reactor: true,
        trace_capacity: if cfg.trace { TRACE_CAPACITY } else { 4096 },
        inlet_capacity: INLET_BATCHES,
        ..CollectorConfig::default()
    };
    let epoch_ns = now_ns();
    let collector = Collector::start_sharded_journaled(
        collector_cfg,
        backend.store().clone(),
        Some(Arc::clone(&journal) as Arc<dyn ShardJournal>),
    )
    .expect("start collector");
    Daemon {
        dir,
        backend,
        journal,
        collector,
        a,
        b_stream,
        epoch_ns,
    }
}

/// Samples of a backlog over the timed phase, `(elapsed s, value)`.
#[derive(Default)]
struct Backlog(Vec<(f64, f64)>);

impl Backlog {
    fn mean_in(&self, from: f64, to: f64) -> f64 {
        let v: Vec<f64> = self
            .0
            .iter()
            .filter(|(t, _)| (from..to).contains(t))
            .map(|(_, v)| *v)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Mean over the first and over the last tenth of a phase of
    /// `seconds`.
    fn ends(&self, seconds: f64) -> (f64, f64) {
        (
            self.mean_in(0.0, seconds / 10.0),
            self.mean_in(seconds * 0.9, f64::INFINITY),
        )
    }

    fn max(&self) -> f64 {
        self.0.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }
}

/// Daemon-side counters at one instant of the timed phase.
struct Counters {
    registry: RegistrySnapshot,
    store: StoreStatsSnapshot,
    ns: u64,
    acked: u64,
}

/// What the connection-A (main) thread hands back.
struct SideA {
    timing: Timing,
    stats: SenderStats,
    offered: u64,
    rejected: u64,
    acked_in_phase: u64,
    clock: AckClock,
    lag_ms: Vec<f64>,
    pending: Backlog,
    cpu_s: f64,
    at_switch: Option<Counters>,
    at_end: Counters,
    recorded: Recorded,
}

fn counters(d: &Daemon, acked: u64) -> Counters {
    Counters {
        registry: d.collector.registry().snapshot(),
        store: d.backend.stats().snapshot(),
        ns: now_ns(),
        acked,
    }
}

fn side_a(d: &Daemon, mut phase: Phase, (rate, rate_b): (f64, f64)) -> SideA {
    let clock = Rc::new(RefCell::new(AckClock::default()));
    let mut transport = TimedTransport::new(
        TcpTransport::new(d.collector.local_addr()),
        ["wire.send_frame", "wire.poll_acks", "wire.reopen"],
    );
    transport.clock = Some(Rc::clone(&clock));
    let cfg = SenderConfig {
        seed: 0xA5EED,
        ..SenderConfig::default()
    };
    let mut sender = BeaconSender::new(transport, cfg);
    let cpu0 = stats::thread_cpu_s();
    let t0_ns = now_ns();
    let us = || (now_ns() - t0_ns) / 1_000;
    let due_ns = |k: usize| t0_ns + (k as f64 * 1e9 / rate) as u64;
    let (mut next, mut rejected) = (0usize, 0u64);
    let (mut lag_ms, mut pending) = (Vec::new(), Backlog::default());
    let mut at_switch = None;
    while !phase.done() {
        if phase.tick(sender.stats().acked + (phase.elapsed() * rate_b) as u64) {
            d.journal.set_on(true);
            at_switch = Some(counters(d, sender.stats().acked));
        }
        let now = now_ns();
        while next < d.a.len() && due_ns(next) <= now {
            let b = &d.a[next];
            lag_ms.push(now.saturating_sub(due_ns(next)) as f64 / 1e6);
            clock.borrow_mut().due(AckKey::from(b), due_ns(next));
            let accepted =
                span("wire.offer", next as u64, || sender.offer(b, us())).expect("beacon encodes");
            rejected += u64::from(!accepted);
            next += 1;
        }
        // Polls for acks (a short blocking read), then writes due frames.
        span("wire.pump", 0, || sender.pump(us()));
        pending.0.push((phase.elapsed(), sender.pending() as f64));
    }
    let acked_in_phase = sender.stats().acked;
    let b_due = (phase.elapsed() * rate_b) as u64;
    let timing = phase.finish(acked_in_phase + b_due);
    d.journal.set_on(false);
    let at_end = counters(d, acked_in_phase);
    // Drain what is in flight; leftovers are abandoned and count failed.
    let t_drain = Instant::now();
    while !sender.is_idle() && t_drain.elapsed().as_secs_f64() < DRAIN_S {
        span("wire.pump", 0, || sender.pump(us()));
    }
    sender.abandon_pending();
    let stats = sender.stats();
    drop(sender);
    SideA {
        timing,
        stats,
        offered: next as u64,
        rejected,
        acked_in_phase,
        clock: Rc::try_unwrap(clock)
            .ok()
            .expect("sender dropped")
            .into_inner(),
        lag_ms,
        pending,
        cpu_s: stats::thread_cpu_s() - cpu0,
        at_switch,
        at_end,
        recorded: spans::take(),
    }
}

/// What the connection-B thread hands back.
struct SideB {
    sent: u64,
    sent_at_switch: u64,
    lag_ms: Vec<f64>,
    report_ms: Vec<f64>,
    queue_depth: Backlog,
    cpu_s: f64,
    recorded: Recorded,
}

fn side_b(d: &Daemon, start: Instant, seconds: f64, trace_from: f64, rate: f64) -> SideB {
    let mut sock = TcpStream::connect(d.collector.local_addr()).expect("connect B");
    let _ = sock.set_nodelay(true);
    let frames = d.b_stream.len() / FRAME_LEN;
    let cpu0 = stats::thread_cpu_s();
    let elapsed = || start.elapsed().as_secs_f64();
    let (mut sent, mut sent_at_switch) = (0usize, None);
    let (mut lag_ms, mut report_ms, mut depth) = (Vec::new(), Vec::new(), Backlog::default());
    let mut next_report = REPORT_EVERY_S;
    loop {
        let t = elapsed();
        if t >= seconds {
            break;
        }
        if t >= trace_from && sent_at_switch.is_none() {
            sent_at_switch = Some(sent as u64);
            spans::set_enabled(true);
        }
        let due = ((t * rate) as usize).min(frames);
        if due > sent {
            lag_ms.push((t - sent as f64 / rate).max(0.0) * 1e3);
            sock.write_all(&d.b_stream[sent * FRAME_LEN..due * FRAME_LEN])
                .expect("write fire-and-forget stream");
            sent = due;
        }
        if t >= next_report {
            let t0 = Instant::now();
            span("server.report", 0, || {
                std::hint::black_box(ReportBuilder::per_campaign_sharded(d.backend.store()));
                std::hint::black_box(d.backend.merged_hourly());
            });
            report_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            next_report += REPORT_EVERY_S;
        }
        let q = d.collector.registry().get("qtag_ingest_queue_depth");
        depth.0.push((elapsed(), q.unwrap_or(0) as f64));
        std::thread::sleep(Duration::from_millis(1));
    }
    let cpu_s = stats::thread_cpu_s() - cpu0;
    drop(sock);
    SideB {
        sent: sent as u64,
        sent_at_switch: sent_at_switch.unwrap_or(sent as u64),
        lag_ms,
        report_ms,
        queue_depth: depth,
        cpu_s,
        recorded: spans::take(),
    }
}

fn teardown(d: Daemon) {
    d.collector.shutdown();
    drop(d.journal);
    drop(d.backend);
    let _ = std::fs::remove_dir_all(&d.dir);
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let rates = (RATE_A, RATE_B);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for attempt in 0..SETUPS {
        if let Some(d) = daemon.take() {
            teardown(d);
        }
        let t0 = Instant::now();
        daemon = Some(start_daemon(cfg, rates, attempt));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let d = daemon.expect("daemon");

    let phase = Phase::start(cfg);
    let (start, trace_from) = (phase.start, phase.trace_from());
    let (a, b) = std::thread::scope(|s| {
        let d = &d;
        let hb = s.spawn(move || side_b(d, start, cfg.seconds, trace_from, rates.1));
        let a = side_a(d, phase, rates);
        (a, hb.join().expect("connection B thread"))
    });
    let ring = Arc::clone(d.collector.trace());
    let Daemon {
        dir,
        backend,
        journal,
        collector,
        a: frames_a,
        b_stream,
        epoch_ns,
    } = d;
    // The inputs are spent; free them before recovery replays the log.
    drop((frames_a, b_stream));
    let ops = collector.shutdown();

    // Judges: conservation on both sides of the wire.
    let sent = b.sent + a.stats.frames_written;
    let shed = ops.ingest.shed_beacons;
    out.judge(
        sent == ops.ingest.beacons + ops.collector.corrupt_frames + shed
            && ops.ingest.rejected_after_shutdown == 0,
        format!(
            "sent {sent} == applied {} + corrupt {} + shed {shed}",
            ops.ingest.beacons, ops.collector.corrupt_frames
        ),
    );
    let s = a.stats;
    out.judge(
        s.conserves(0),
        format!(
            "enqueued {} == acked {} + dropped {} + abandoned {}",
            s.enqueued, s.acked, s.dropped_after_retries, s.abandoned_unconfirmed
        ),
    );

    // WAL recovery must reproduce the live store's report.
    backend.flush().expect("flush WAL");
    let live = ReportBuilder::per_campaign_sharded(backend.store());
    let (live_unique, live_dups) = (
        backend.store().unique_beacons(),
        backend.store().total_duplicates(),
    );
    let journal_spans = std::mem::take(&mut *journal.spans.lock().expect("journal spans"));
    let journal_calls = journal.calls.load(Ordering::Relaxed);
    let journal_busy_s = journal.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
    drop(journal);
    drop(backend);
    let t0 = Instant::now();
    let (recovered, _) =
        DurableBackend::open(DurableConfig::new(&dir, SHARDS)).expect("recover WAL directory");
    let recovery_s = t0.elapsed().as_secs_f64();
    out.judge(
        ReportBuilder::per_campaign_sharded(recovered.store()) == live
            && recovered.store().unique_beacons() == live_unique
            && recovered.store().total_duplicates() == live_dups,
        format!("WAL recovery reproduces the live report ({live_unique} unique beacons)"),
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    // Open-loop honesty: the generator kept its schedule and the
    // backlog did not grow from the first to the last tenth.
    let lags = stats::sorted(a.lag_ms.iter().chain(&b.lag_ms).copied().collect());
    let lag_p99 = stats::percentile(&lags, 990).unwrap_or(f64::INFINITY);
    out.judge(
        lag_p99 <= MAX_LAG_P99_MS,
        format!("generator lateness p99 {lag_p99:.2} ms <= {MAX_LAG_P99_MS} ms"),
    );
    let (q0, q1) = b.queue_depth.ends(cfg.seconds);
    out.judge(
        q1 <= 2.0 * q0 + 32.0,
        format!("ingest queue depth flat: first tenth {q0:.1}, last tenth {q1:.1} batches"),
    );
    let (p0, p1) = a.pending.ends(cfg.seconds);
    let slack = (rates.0 * 0.025).max(64.0);
    out.judge(
        p1 <= 2.0 * p0 + slack,
        format!("sender backlog flat: first tenth {p0:.1}, last tenth {p1:.1} beacons"),
    );
    if cfg.trace {
        out.judge(ring.dropped() == 0, "trace ring dropped no events");
    }

    // Ops: every offered beacon. Failed: shed at the daemon, corrupt,
    // rejected at the sender queue, dropped after retries, abandoned.
    let a_failed = a.rejected + s.dropped_after_retries + s.abandoned_unconfirmed;
    out.attempted = a.offered + b.sent;
    out.failed = shed + ops.collector.corrupt_frames + a_failed;
    let mut timing = a.timing;
    timing.ops = a.acked_in_phase + b.sent;
    let mut latencies = a.clock.latencies_ms;
    latencies.extend(std::iter::repeat_n(f64::INFINITY, a_failed as usize));
    timing.put_e2e(&mut out.e2e, stats::median(&setups), latencies);
    out.info
        .put("report_p50_ms", stats::median(&b.report_ms), "ms");

    if cfg.trace {
        let (sw, end) = (a.at_switch.expect("traced half ran"), a.at_end);
        if let Some(t) = timing.switch.as_mut() {
            t.1 = sw.acked + b.sent_at_switch;
        }
        let mut rec = a.recorded;
        rec.merge(b.recorded);
        // The daemon's own trace ring, traced half only.
        for ev in ring.snapshot() {
            let start = epoch_ns + ev.start_us * 1_000;
            if !(sw.ns..=end.ns).contains(&start) {
                continue;
            }
            let name = match ev.stage {
                Stage::Decode => "collectd.decode",
                Stage::Inlet => "server.inlet",
                Stage::ShardApply => "server.shard_apply",
                Stage::Ack => "collectd.ack",
            };
            rec.add_root(name, start, start + ev.dur_us * 1_000, ev.key);
        }
        for (start, end, shard) in journal_spans {
            rec.add_root("store.journal", start, end, shard);
        }
        let reg = |n: &str| {
            let v = |r: &RegistrySnapshot| r.value(n).unwrap_or(0);
            v(&end.registry).saturating_sub(v(&sw.registry)) as f64
        };
        let apply_us = {
            let h = |r: &RegistrySnapshot| {
                r.histogram("qtag_ingest_apply_latency_us")
                    .map_or(0, |h| h.sum)
            };
            h(&end.registry).saturating_sub(h(&sw.registry)) as f64
        };
        let busy = |n: &str| rec.total(n).busy_ns as f64 / 1e9;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let st = (end.store, sw.store);
        let l = &mut out.layers;
        l.put(
            "wire.pump_calls",
            rec.total("wire.pump").calls as f64,
            "count",
        );
        l.put(
            "wire.pump_busy_s",
            rec.total("wire.pump").self_ns as f64 / 1e9,
            "s",
        );
        l.put("wire.poll_acks_busy_s", busy("wire.poll_acks"), "s");
        l.put(
            "wire.queue_wait_ms",
            stats::median(&a.clock.queue_wait_ms),
            "ms",
        );
        l.put("wire.reconnects", s.reconnects as f64, "count");
        l.put(
            "collectd.frames_decoded",
            reg("qtag_collectd_frames_decoded_total"),
            "count",
        );
        l.put(
            "collectd.bytes_read",
            reg("qtag_collectd_bytes_read_total"),
            "bytes",
        );
        l.put("collectd.decode_busy_s", busy("collectd.decode"), "s");
        l.put("collectd.ack_busy_s", busy("collectd.ack"), "s");
        l.put(
            "collectd.acks_per_flush",
            ratio(
                reg("qtag_collectd_acks_sent_total"),
                reg("qtag_collectd_ack_flushes_total"),
            ),
            "ratio",
        );
        l.put(
            "collectd.ack_backpressure_pauses",
            reg("qtag_collectd_ack_backpressure_pauses_total"),
            "count",
        );
        l.put("server.inlet_busy_s", busy("server.inlet"), "s");
        l.put("server.apply_busy_s", apply_us / 1e6, "s");
        let groups = reg("qtag_ingest_batches_applied_total");
        l.put("server.apply_groups", groups, "count");
        l.put(
            "server.batches_per_group",
            ratio(reg("qtag_ingest_batches_merged_total"), groups),
            "ratio",
        );
        l.put("server.queue_depth_max", b.queue_depth.max(), "count");
        l.put(
            "server.shed_beacons",
            reg("qtag_ingest_shed_beacons_total"),
            "count",
        );
        l.put("server.report_busy_s", busy("server.report"), "s");
        l.put("store.journal_calls", journal_calls as f64, "count");
        l.put("store.journal_busy_s", journal_busy_s, "s");
        let fsyncs = st.0.fsyncs.saturating_sub(st.1.fsyncs) as f64;
        let records = st.0.records_appended.saturating_sub(st.1.records_appended) as f64;
        l.put("store.fsyncs", fsyncs, "count");
        l.put("store.records_per_fsync", ratio(records, fsyncs), "ratio");
        let bytes = st.0.bytes_appended.saturating_sub(st.1.bytes_appended);
        l.put("store.bytes_appended", bytes as f64, "bytes");
        let io_errors = st.0.io_errors.saturating_sub(st.1.io_errors);
        l.put("store.io_errors", io_errors as f64, "count");
        l.put("store.recovery_s", recovery_s, "s");
        l.put("bench.gen_lag_p99_ms", lag_p99, "ms");
        l.put("bench.gen_cpu_s", a.cpu_s + b.cpu_s, "s");
        timing.put_overhead(l);
        out.spans = rec;
    }
    out
}
