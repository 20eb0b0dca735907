//! `fleet`: N resident sessions, each an [`Engine`] with the real
//! [`QTag`] attached (25 probes, 10 Hz heartbeat), ticked in frame
//! rounds on one thread. One op is one session-frame. Beacons drained
//! from each outbox go straight into an in-process [`ShardedStore`].

use crate::report::Outcome;
use crate::spans::{self, span};
use crate::stats;
use crate::wrap::TimedTag;
use crate::{Phase, RunCfg};
use qtag_core::{QTag, QTagConfig};
use qtag_dom::{
    Element, ElementKind, ElementRef, Origin, Page, Screen, Tab, TabId, WindowId, WindowKind,
};
use qtag_geometry::{Point, Rect, Size, Vector};
use qtag_render::{
    CpuLoadModel, DeviceProfile, Engine, EngineConfig, OutgoingBeacon, PlaybackAction,
    PlaybackCommand, RenderMode, SimDuration, SimTime, TagScript, VideoPlayer, VideoPlayerConfig,
};
use qtag_server::{ServedImpression, ShardedStore};
use qtag_wire::{AdFormat, BrowserKind, OsKind, SiteType};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Resident sessions: ~10 KB each, so the working set is ~5x a 32 MB L3.
pub const SESSIONS: u64 = 16_000;
/// Fleet builds per run; `setup_s` is their median.
const BUILDS: usize = 3;
/// Sessions replayed in [`RenderMode::Naive`] by the equivalence judge.
const REPLAYED: usize = 48;
const SCROLL_EVERY: u64 = 10;
const SCROLL_PERIOD: u64 = 30;
const VIDEO_EVERY: u64 = 4;
const OVERLAY_PERIOD: u64 = 45;
const CAMPAIGNS: u64 = 99;
/// Frames per 10 Hz timer period at 60 fps.
const TIMER_FRAMES: u64 = 6;

/// Per-session schedule, derived from the workload seed.
#[derive(Clone, Copy)]
struct Plan {
    id: u64,
    engine_seed: u64,
    video: bool,
    scroll_phase: Option<u64>,
    overlay_phase: u64,
    /// Frames ticked at build time: sessions load at different moments,
    /// so their 10 Hz timers do not all fire on the same frame.
    warmup: u64,
}

fn plans(seed: u64) -> Vec<Plan> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let scroll_class = rng.gen_range(0..SCROLL_EVERY);
    let video_class = rng.gen_range(0..VIDEO_EVERY);
    (0..SESSIONS)
        .map(|i| Plan {
            id: i + 1,
            engine_seed: rng.gen(),
            video: i % VIDEO_EVERY == video_class,
            scroll_phase: (i % SCROLL_EVERY == scroll_class)
                .then(|| rng.gen_range(0..SCROLL_PERIOD)),
            overlay_phase: rng.gen_range(0..OVERLAY_PERIOD),
            warmup: rng.gen_range(0..TIMER_FRAMES),
        })
        .collect()
}

fn player() -> VideoPlayer {
    let at = |ms: u64| SimTime::from_micros(ms * 1_000);
    let cmd = |ms, action| PlaybackCommand { at: at(ms), action };
    VideoPlayer::new(
        VideoPlayerConfig {
            duration: SimDuration::from_secs(30),
            initial_buffer: SimDuration::from_millis(900),
            fill_permille: 900,
            resume_watermark: SimDuration::from_millis(400),
        },
        vec![
            cmd(0, PlaybackAction::Play),
            cmd(2_000, PlaybackAction::Pause),
            cmd(3_000, PlaybackAction::Play),
        ],
    )
}

struct Session {
    engine: Engine,
    window: WindowId,
    overlay: Option<ElementRef>,
    plan: Plan,
}

fn creative(plan: &Plan) -> Size {
    if plan.video {
        Size::VIDEO_PLAYER
    } else {
        Size::MEDIUM_RECTANGLE
    }
}

/// A 1280x3000 publisher page: SSP iframe embedding the creative (or a
/// root-level video player under a z-ordered overlay), plus two
/// always-on-top windows clipping corners of the browser.
fn build(plan: Plan, mode: RenderMode, op: Option<&Rc<Cell<u64>>>) -> Session {
    let size = creative(&plan);
    let (screen, window, ad, overlay) = span("render.scene", plan.id, || {
        let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 3000.0));
        let ssp = page.create_frame(Origin::https("ssp.example"), Size::new(400.0, 700.0));
        page.embed_iframe(page.root(), ssp, Rect::new(150.0, 60.0, 400.0, 700.0))
            .expect("embed ssp");
        let ad = page.create_frame(Origin::https("dsp.example"), size);
        let mut overlay = None;
        if plan.video {
            page.embed_iframe(page.root(), ad, Rect::new(600.0, 100.0, 640.0, 360.0))
                .expect("embed player");
            let el = Element::new(
                "pip-overlay",
                ElementKind::Overlay,
                Rect::new(620.0, 120.0, 200.0, 120.0),
            )
            .with_z(5);
            overlay = Some(page.add_element(page.root(), el).expect("overlay"));
        } else {
            page.embed_iframe(ssp, ad, Rect::new(50.0, 40.0, 300.0, 250.0))
                .expect("embed creative");
        }
        let mut screen = Screen::desktop();
        let browser = WindowKind::Browser {
            tabs: vec![Tab::new(page)],
            active: TabId(0),
        };
        let w = screen.add_window(browser, Rect::new(0.0, 0.0, 1280.0, 880.0), 80.0);
        screen.add_window(
            WindowKind::OpaqueApp,
            Rect::new(1150.0, 20.0, 240.0, 90.0),
            0.0,
        );
        screen.add_window(
            WindowKind::OpaqueApp,
            Rect::new(1040.0, 720.0, 320.0, 180.0),
            0.0,
        );
        let _ = screen.focus(w);
        (screen, w, ad, overlay)
    });
    let cfg = EngineConfig {
        profile: DeviceProfile::desktop(BrowserKind::Chrome, OsKind::Windows10),
        cpu: CpuLoadModel::idle(),
        seed: plan.engine_seed,
        mode,
    };
    let mut engine = span("render.build", plan.id, || Engine::new(cfg, screen));
    let tag = span("core.build", plan.id, || {
        let campaign = (plan.id % CAMPAIGNS) as u32 + 1;
        let mut c = QTagConfig::new(
            plan.id,
            campaign,
            Rect::new(0.0, 0.0, size.width, size.height),
        );
        c.heartbeat_every = 1;
        if plan.video {
            QTag::new(c.video()).with_player(player())
        } else {
            QTag::new(c)
        }
    });
    let script: Box<dyn TagScript> = match op {
        Some(op) => Box::new(TimedTag {
            inner: tag,
            op: Rc::clone(op),
        }),
        None => Box::new(tag),
    };
    span("render.build", plan.id, || {
        engine.attach_script(
            window,
            Some(TabId(0)),
            ad,
            Origin::https("dsp.example"),
            script,
        )
    })
    .expect("attach tag");
    for _ in 0..plan.warmup {
        engine.tick();
    }
    Session {
        engine,
        window,
        overlay,
        plan,
    }
}

fn served(plan: &Plan) -> ServedImpression {
    ServedImpression {
        impression_id: plan.id,
        campaign_id: (plan.id % CAMPAIGNS) as u32 + 1,
        os: OsKind::Windows10,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        ad_format: if plan.video {
            AdFormat::Video
        } else {
            AdFormat::Display
        },
    }
}

/// Applies frame `f`'s scripted scroll / overlay move, then ticks.
fn step(s: &mut Session, f: u64, op: u64) {
    let plan = s.plan;
    if let Some(phase) = plan.scroll_phase {
        let k = f + phase;
        if k.is_multiple_of(SCROLL_PERIOD) {
            let target = Vector::new(0.0, ((k / SCROLL_PERIOD) % 5) as f64 * 400.0);
            span("render.mutate", op, || {
                s.engine.scroll_page_to(s.window, Some(TabId(0)), target)
            })
            .expect("scroll");
        }
    }
    if let Some(overlay) = s.overlay {
        let k = f + plan.overlay_phase;
        if k.is_multiple_of(OVERLAY_PERIOD) {
            let step = ((k / OVERLAY_PERIOD) % 3) as f64;
            let to = Point::new(620.0 + step * 150.0, 120.0 + step * 60.0);
            span("render.mutate", op, || {
                let page = s
                    .engine
                    .screen_mut()
                    .window_mut(s.window)
                    .ok()
                    .and_then(|w| w.active_page_mut());
                if let Some(el) = page.and_then(|p| p.element_mut(overlay).ok()) {
                    el.rect.origin = to;
                }
            });
        }
    }
    span("render.tick", op, || s.engine.tick());
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let plans = plans(cfg.seed);
    let op = Rc::new(Cell::new(0u64));
    let traced = cfg.trace.then_some(&op);

    // Set-up: build the whole fleet BUILDS times (dropping the previous
    // one first) and keep the last; the last build is traced.
    let mut setups = Vec::new();
    let mut fleet: Vec<Session> = Vec::new();
    let mut store = ShardedStore::new(2);
    let mut build_rss_kb = 0;
    for b in 0..BUILDS {
        drop(std::mem::take(&mut fleet));
        spans::set_enabled(cfg.trace && b + 1 == BUILDS);
        let rss0 = stats::rss_kb();
        let t0 = Instant::now();
        store = ShardedStore::new(2);
        for p in &plans {
            span("server.record_served", p.id, || {
                store.record_served(served(p))
            });
        }
        fleet = plans
            .iter()
            .map(|p| build(*p, RenderMode::Indexed, traced))
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        if b == 0 {
            // Later builds reuse memory the allocator kept from the
            // dropped fleet, so only the first shows the growth.
            build_rss_kb = stats::rss_kb().saturating_sub(rss0);
        }
    }
    spans::set_enabled(false);
    let build_spans = spans::take();

    // Sessions whose beacon streams the naive replay must reproduce.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xF1EE7);
    let mut sample_slot = vec![usize::MAX; SESSIONS as usize];
    let mut sampled: Vec<(usize, Vec<OutgoingBeacon>)> = Vec::new();
    while sampled.len() < REPLAYED {
        let i = rng.gen_range(0..SESSIONS as usize);
        if sample_slot[i] == usize::MAX {
            sample_slot[i] = sampled.len();
            sampled.push((i, Vec::new()));
        }
    }

    let mut phase = Phase::start(cfg);
    let mut rounds = 0u64;
    let mut emitted = 0u64;
    let mut emitted_untraced = 0u64;
    let mut round_ms = Vec::new();
    while !phase.done() {
        if phase.tick(rounds * SESSIONS) {
            emitted_untraced = emitted;
        }
        let t0 = Instant::now();
        span("bench.round", rounds, || {
            for (i, s) in fleet.iter_mut().enumerate() {
                let o = rounds * SESSIONS + i as u64;
                op.set(o);
                step(s, rounds, o);
                let drained = span("render.drain", o, || s.engine.drain_outbox());
                if drained.is_empty() {
                    continue;
                }
                emitted += drained.len() as u64;
                span("server.apply", o, || {
                    for b in &drained {
                        store.apply(&b.beacon);
                    }
                });
                if sample_slot[i] != usize::MAX {
                    sampled[sample_slot[i]].1.extend(drained);
                }
            }
        });
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rounds += 1;
    }
    let ops = rounds * SESSIONS;
    let timing = phase.finish(ops);
    let recorded = spans::take();

    // Judges.
    let mut replay_ok = true;
    for (i, stream) in &sampled {
        let mut naive = build(plans[*i], RenderMode::Naive, None);
        let mut replayed = Vec::new();
        for f in 0..rounds {
            step(&mut naive, f, 0);
            replayed.extend(naive.engine.drain_outbox());
        }
        if &replayed != stream {
            eprintln!("  session {} diverged from its naive replay", plans[*i].id);
            replay_ok = false;
        }
    }
    out.judge(
        replay_ok,
        format!(
            "{REPLAYED} sampled sessions replay bit-identically in naive mode over {rounds} frames"
        ),
    );
    let (unique, dups, orphans) = (
        store.unique_beacons(),
        store.total_duplicates(),
        store.orphan_beacons(),
    );
    out.judge(
        emitted > 0 && unique == emitted && dups == 0 && orphans == 0,
        format!(
            "beacons emitted {emitted} == applied {unique} (duplicates {dups}, orphans {orphans})"
        ),
    );

    out.attempted = ops;
    timing.put_e2e(&mut out.e2e, stats::median(&setups), round_ms);
    let campaigns = qtag_server::ReportBuilder::per_campaign_sharded(&store).len() as u64;
    out.judge(
        campaigns == CAMPAIGNS,
        format!("report covers all {CAMPAIGNS} campaigns"),
    );

    if cfg.trace {
        let l = &mut out.layers;
        let s = |n: &str| recorded.total(n).self_ns as f64 / 1e9;
        let b = |n: &str| build_spans.total(n).busy_ns as f64 / 1e9;
        l.put("render.tick_self_s", s("render.tick"), "s");
        l.put("render.build_s", b("render.build"), "s");
        l.put("core.build_s", b("core.build"), "s");
        l.put(
            "render.rss_per_session_kb",
            build_rss_kb as f64 / SESSIONS as f64,
            "kB",
        );
        l.put(
            "core.tag_calls",
            recorded.total("core.tag").calls as f64,
            "count",
        );
        l.put("core.tag_busy_s", s("core.tag"), "s");
        l.put("core.beacons", (emitted - emitted_untraced) as f64, "count");
        l.put("server.apply_busy_s", s("server.apply"), "s");
        timing.put_layers(l, &recorded);
        out.spans = recorded;
        out.spans.merge(build_spans);
    }
    out
}
