//! `campaign`: the paper's §5 production path as a closed loop on one
//! thread. Each served impression goes through an `Exchange::run`
//! auction, `SessionSim::run` with the Q-Tag and the commercial
//! verifier, Q-Tag beacons through a `BeaconSender` over a
//! `SimCollectorTransport` with the population's loss (reliable mode),
//! verifier beacons through a `LossyLink` and a `FrameDecoder`, and an
//! `ImpressionStore`; `ReportBuilder` reads both stores at the end of
//! every flight. One op is one served impression.
//!
//! A flight is one portfolio delivery: a fresh DSP and fresh stores
//! serve exactly `CAMPAIGNS x PER_CAMPAIGN` impressions. Flights repeat
//! until the timed phase ends; the request streams they consume are
//! generated from the seed during set-up.

use crate::report::Outcome;
use crate::spans::{self, span};
use crate::stats;
use crate::wrap::TimedTransport;
use crate::{Phase, RunCfg};
use qtag_adtech::{AdSlotRequest, Campaign, Dsp, Exchange, ExchangeKind, GeoRegion, Sector};
use qtag_bench::DeliveryTotals;
use qtag_geometry::Size;
use qtag_server::{
    CampaignReport, ImpressionStore, LossyLink, ReportBuilder, ServedImpression,
    SimCollectorTransport, SimFaults,
};
use qtag_user::{EnvSample, Population, PopulationConfig, SessionSim};
use qtag_wire::framing::FrameEvent;
use qtag_wire::sender::{BeaconSender, SenderConfig};
use qtag_wire::{Beacon, BrowserKind, FrameDecoder, OsKind, SiteType};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const CAMPAIGNS: u32 = 99;
const PER_CAMPAIGN: u32 = 10;
const TARGET: u64 = CAMPAIGNS as u64 * PER_CAMPAIGN as u64;
/// Distinct flight request streams generated in set-up; flights cycle
/// through them.
const STREAMS: usize = 40;
/// Requests generated per flight stream. A flight consumes about 2.2
/// per served impression; one that runs dry fails the run.
const REQUESTS_PER_STREAM: u64 = TARGET * 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Reliable delivery gives up at the page-unload horizon.
const HORIZON_US: u64 = 60_000_000;

struct Request {
    req: AdSlotRequest,
    env: EnvSample,
    exchange: usize,
}

/// The campaign portfolio of `pipeline.rs`: alternating creative sizes,
/// sector spread, one geography per campaign, per-campaign fold share.
fn portfolio() -> (Vec<Campaign>, Vec<f64>) {
    let campaigns = (0..CAMPAIGNS)
        .map(|i| {
            let size = if i % 2 == 0 {
                Size::MEDIUM_RECTANGLE
            } else {
                Size::MOBILE_BANNER
            };
            let sector = Sector::ALL[i as usize % Sector::ALL.len()];
            let mut c = Campaign::display(i + 1, &format!("advertiser-{}", i + 1), sector, size);
            c.targeting.geos = vec![GeoRegion::ALL[i as usize % GeoRegion::ALL.len()]];
            c.impression_budget = u64::from(PER_CAMPAIGN);
            c
        })
        .collect();
    let fold = (0..CAMPAIGNS)
        .map(|i| 0.14 + 0.08 * f64::from(i % 4))
        .collect();
    (campaigns, fold)
}

fn browser_for(env: &EnvSample) -> BrowserKind {
    match (env.site_type, env.os) {
        (SiteType::App, OsKind::Ios) => BrowserKind::IosWebView,
        (SiteType::App, _) => BrowserKind::AndroidWebView,
        (SiteType::Browser, OsKind::Ios) => BrowserKind::Safari,
        (SiteType::Browser, _) => BrowserKind::Chrome,
    }
}

fn request_stream(population: &Population, seed: u64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let slot_sizes = [Size::MEDIUM_RECTANGLE, Size::MOBILE_BANNER];
    (1..=REQUESTS_PER_STREAM)
        .map(|request_id| {
            let env = population.sample(&mut rng);
            let exchange = rng.gen_range(0..ExchangeKind::ALL.len());
            let req = AdSlotRequest {
                request_id,
                geo: GeoRegion::ALL[rng.gen_range(0..GeoRegion::ALL.len())],
                os: env.os,
                browser: browser_for(&env),
                site_type: env.site_type,
                slot_size: slot_sizes[rng.gen_range(0..slot_sizes.len())],
                floor_cpm_milli: 200,
            };
            Request { req, env, exchange }
        })
        .collect()
}

struct Inputs {
    campaigns: Vec<Campaign>,
    fold: Vec<f64>,
    streams: Vec<Vec<Request>>,
}

fn setup(seed: u64) -> Inputs {
    let population = Population::new(PopulationConfig::default());
    let (campaigns, fold) = portfolio();
    let streams = (0..STREAMS as u64)
        .map(|s| request_stream(&population, seed ^ (s + 1).wrapping_mul(0x9E37_79B9)))
        .collect();
    Inputs {
        campaigns,
        fold,
        streams,
    }
}

/// One session's Q-Tag beacons through the reliable path. Returns the
/// sender's counters.
fn deliver_reliable(
    store: &mut ImpressionStore,
    beacons: &[Beacon],
    loss: f64,
    seed: u64,
    op: u64,
) -> qtag_wire::SenderStats {
    let transport = SimCollectorTransport::new(store, SimFaults::symmetric(loss, 0.002), seed);
    let timed = TimedTransport::new(
        transport,
        [
            "server.collector_send",
            "server.collector_poll",
            "server.collector_open",
        ],
    );
    let cfg = SenderConfig {
        seed: seed ^ 0x5EED,
        ..SenderConfig::default()
    };
    let mut sender = BeaconSender::new(timed, cfg);
    span("wire.sender", op, || {
        for b in beacons {
            sender.offer(b, 0).expect("beacon encodes");
        }
    });
    let mut now = 0u64;
    while !sender.is_idle() && now < HORIZON_US {
        span("wire.sender", op, || sender.pump(now));
        now += 5_000;
    }
    sender.abandon_pending();
    sender.stats()
}

/// Verifier beacons: one pass over the lossy link, streaming decode,
/// store apply.
fn deliver_lossy(store: &mut ImpressionStore, beacons: &[Beacon], loss: f64, seed: u64, op: u64) {
    let bytes = span("server.link", op, || {
        LossyLink::new(loss, 0.002, seed).transmit(beacons)
    })
    .expect("beacons encode");
    let events = span("wire.decode", op, || {
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        dec.drain()
    });
    span("server.apply", op, || {
        for ev in events {
            if let FrameEvent::Beacon(b) = ev {
                store.apply(&b);
            }
        }
    });
}

fn add(t: &mut DeliveryTotals, s: &qtag_wire::SenderStats) {
    t.enqueued += s.enqueued;
    t.frames_written += s.frames_written;
    t.retransmits += s.retransmits;
    t.acked += s.acked;
    t.dropped_after_retries += s.dropped_after_retries;
    t.abandoned_unconfirmed += s.abandoned_unconfirmed;
    t.reconnects += s.reconnects;
}

fn merge(into: &mut Vec<CampaignReport>, from: Vec<CampaignReport>) {
    for r in from {
        match into.iter_mut().find(|x| x.campaign_id == r.campaign_id) {
            Some(x) => x.merge(&r),
            None => into.push(r),
        }
    }
}

#[derive(Default)]
struct Run {
    served: u64,
    auctions: u64,
    failed_ops: u64,
    latencies_ms: Vec<f64>,
    report_ms: Vec<f64>,
    delivery: DeliveryTotals,
    qtag: Vec<CampaignReport>,
    verifier: Vec<CampaignReport>,
    short_flights: u64,
    /// `(served, auctions, delivery)` when tracing switched on.
    at_switch: Option<(u64, u64, DeliveryTotals)>,
}

/// Serves one flight: exactly `TARGET` impressions from a fresh DSP.
fn flight(inputs: &Inputs, seed: u64, flight_no: u64, phase: &mut Phase, run: &mut Run) {
    let stream = &inputs.streams[flight_no as usize % STREAMS];
    let mut dsp = Dsp::new(inputs.campaigns.clone());
    let mut exchanges: Vec<Exchange> = ExchangeKind::ALL
        .iter()
        .map(|k| Exchange::new(*k))
        .collect();
    let mut qstore = ImpressionStore::new();
    let mut vstore = ImpressionStore::new();
    let mut next = stream.iter();
    let mut served = 0u64;
    while served < TARGET {
        if phase.tick(run.served) {
            run.at_switch = Some((run.served, run.auctions, run.delivery));
        }
        let op = run.served;
        let t0 = Instant::now();
        let done = span("bench.op", op, || {
            // Auctions until one fills (or the stream runs dry).
            let (ad, r) = loop {
                let r = next.next()?;
                run.auctions += 1;
                let won = span("adtech.auction", op, || {
                    exchanges[r.exchange].run(&r.req, &mut dsp)
                });
                if let Some((ad, _)) = won {
                    break (ad, r);
                }
            };
            let served_imp = ServedImpression {
                impression_id: ad.impression_id,
                campaign_id: ad.campaign_id.0,
                os: r.env.os,
                browser: r.req.browser,
                site_type: r.env.site_type,
                ad_format: ad.format,
            };
            span("server.record_served", op, || {
                qstore.record_served(served_imp.clone());
                vstore.record_served(served_imp);
            });
            let ci = (ad.campaign_id.0 as usize - 1) % inputs.fold.len();
            let sim = SessionSim {
                above_fold_share: inputs.fold[ci],
                ..SessionSim::default()
            };
            let session_seed = seed ^ ad.impression_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let out = span("user.session", op, || sim.run(&ad, &r.env, session_seed));
            let loss = r.env.beacon_loss;
            let stats = if out.qtag_beacons.is_empty() {
                qtag_wire::SenderStats::default()
            } else {
                deliver_reliable(&mut qstore, &out.qtag_beacons, loss, session_seed ^ 1, op)
            };
            deliver_lossy(
                &mut vstore,
                &out.verifier_beacons,
                loss,
                session_seed ^ 2,
                op,
            );
            Some(stats)
        });
        let Some(stats) = done else {
            break; // stream exhausted before the flight filled
        };
        served += 1;
        run.served += 1;
        add(&mut run.delivery, &stats);
        let failed = stats.dropped_after_retries + stats.abandoned_unconfirmed > 0;
        run.failed_ops += u64::from(failed);
        run.latencies_ms.push(if failed {
            f64::INFINITY
        } else {
            t0.elapsed().as_secs_f64() * 1e3
        });
    }
    if served < TARGET {
        run.short_flights += 1;
    }
    let t0 = Instant::now();
    // Figure 3's per-campaign rates and Table 2's slices, both tags.
    let (q, v) = span("server.report", flight_no, || {
        std::hint::black_box(ReportBuilder::slice_table(&qstore));
        std::hint::black_box(ReportBuilder::slice_table(&vstore));
        (
            ReportBuilder::per_campaign(&qstore),
            ReportBuilder::per_campaign(&vstore),
        )
    });
    run.report_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    merge(&mut run.qtag, q);
    merge(&mut run.verifier, v);
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(setup(cfg.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set up");

    let mut phase = Phase::start(cfg);
    let mut run = Run::default();
    let mut flights = 0u64;
    while !phase.done() {
        flight(&inputs, cfg.seed, flights, &mut phase, &mut run);
        flights += 1;
    }
    let timing = phase.finish(run.served);
    let recorded = spans::take();

    // Judges.
    out.judge(
        run.short_flights == 0,
        format!("every flight served exactly {TARGET} impressions ({flights} flights)"),
    );
    let q = ReportBuilder::summary(&run.qtag);
    let v = ReportBuilder::summary(&run.verifier);
    out.judge(
        (0.85..=0.99).contains(&q.mean_measured_rate),
        format!(
            "Q-Tag measured rate {:.3} in [0.85, 0.99]",
            q.mean_measured_rate
        ),
    );
    out.judge(
        (0.60..=0.85).contains(&v.mean_measured_rate),
        format!(
            "verifier measured rate {:.3} in [0.60, 0.85]",
            v.mean_measured_rate
        ),
    );
    let gap = (q.mean_viewability_rate - v.mean_viewability_rate).abs();
    out.judge(
        gap < 0.12,
        format!(
            "viewability rates {:.3} vs {:.3} within 12 pp",
            q.mean_viewability_rate, v.mean_viewability_rate
        ),
    );
    let d = run.delivery;
    out.judge(
        d.conserves() && d.enqueued > 0,
        format!(
            "delivery conserves: enqueued {} == acked {} + dropped {} + abandoned {}",
            d.enqueued, d.acked, d.dropped_after_retries, d.abandoned_unconfirmed
        ),
    );

    out.attempted = run.served;
    out.failed = run.failed_ops;
    timing.put_e2e(
        &mut out.e2e,
        stats::median(&setups),
        std::mem::take(&mut run.latencies_ms),
    );
    out.info
        .put("report_p50_ms", stats::median(&run.report_ms), "ms");

    if cfg.trace {
        let (served0, auctions0, d0) = run.at_switch.expect("traced half ran");
        let l = &mut out.layers;
        let s = |n: &str| recorded.total(n).self_ns as f64 / 1e9;
        let auction = recorded.total("adtech.auction");
        l.put("adtech.auction_calls", auction.calls as f64, "count");
        l.put("adtech.busy_s", s("adtech.auction"), "s");
        l.put(
            "adtech.fill_ratio",
            (run.served - served0) as f64 / (run.auctions - auctions0) as f64,
            "ratio",
        );
        let session = recorded.total("user.session");
        l.put("user.session_calls", session.calls as f64, "count");
        l.put("user.session_busy_s", s("user.session"), "s");
        l.put("wire.sender_busy_s", s("wire.sender"), "s");
        l.put(
            "wire.frames_per_beacon",
            (d.frames_written - d0.frames_written) as f64 / (d.enqueued - d0.enqueued) as f64,
            "ratio",
        );
        l.put(
            "wire.retransmits",
            (d.retransmits - d0.retransmits) as f64,
            "count",
        );
        l.put("wire.decode_busy_s", s("wire.decode"), "s");
        l.put("server.link_busy_s", s("server.link"), "s");
        let apply = s("server.apply") + s("server.collector_send") + s("server.collector_poll");
        l.put("server.apply_busy_s", apply, "s");
        l.put("server.report_busy_s", s("server.report"), "s");
        timing.put_layers(l, &recorded);
        out.spans = recorded;
    }
    out
}
