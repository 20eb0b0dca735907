//! Whole-stack benchmark for the Q-Tag workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|campaign|ingest|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload measures for `--seconds`, judges its own outputs and
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Layers are timed from outside: calls into each crate's public
//! functions, forwarding wrappers around `TagScript`, `Transport` and
//! `ShardJournal`, and the collector's own registry and trace ring.
//! A failed judge exits non-zero. `--workload all` runs the three
//! workloads one after another, each in its own process.

mod campaign;
mod fleet;
mod ingest;
mod report;
mod spans;
mod stats;
mod wrap;

use report::{Metrics, Outcome};
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["fleet", "campaign", "ingest"];

/// Every per-layer metric, printed on every traced run (0 where a
/// layer does no work in that workload).
const LAYER_METRICS: &[(&str, &str)] = &[
    ("render.tick_self_s", "s"),
    ("render.build_s", "s"),
    ("render.rss_per_session_kb", "kB"),
    ("core.build_s", "s"),
    ("core.tag_calls", "count"),
    ("core.tag_busy_s", "s"),
    ("core.beacons", "count"),
    ("adtech.auction_calls", "count"),
    ("adtech.busy_s", "s"),
    ("adtech.fill_ratio", "ratio"),
    ("user.session_calls", "count"),
    ("user.session_busy_s", "s"),
    ("wire.sender_busy_s", "s"),
    ("wire.frames_per_beacon", "ratio"),
    ("wire.retransmits", "count"),
    ("wire.decode_busy_s", "s"),
    ("wire.pump_calls", "count"),
    ("wire.pump_busy_s", "s"),
    ("wire.poll_acks_busy_s", "s"),
    ("wire.queue_wait_ms", "ms"),
    ("wire.reconnects", "count"),
    ("collectd.frames_decoded", "count"),
    ("collectd.bytes_read", "bytes"),
    ("collectd.decode_busy_s", "s"),
    ("collectd.ack_busy_s", "s"),
    ("collectd.acks_per_flush", "ratio"),
    ("collectd.ack_backpressure_pauses", "count"),
    ("server.inlet_busy_s", "s"),
    ("server.apply_busy_s", "s"),
    ("server.apply_groups", "count"),
    ("server.batches_per_group", "ratio"),
    ("server.queue_depth_max", "count"),
    ("server.shed_beacons", "count"),
    ("server.report_busy_s", "s"),
    ("server.link_busy_s", "s"),
    ("store.journal_calls", "count"),
    ("store.journal_busy_s", "s"),
    ("store.fsyncs", "count"),
    ("store.records_per_fsync", "ratio"),
    ("store.bytes_appended", "bytes"),
    ("store.io_errors", "count"),
    ("store.recovery_s", "s"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.gen_cpu_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.trace_cpu_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// One run's parameters (the workload seed is the only input; every
/// workload generates its inputs from it).
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch and span files go here, under the working directory.
    pub out_dir: PathBuf,
}

/// The timed phase. Traced runs spend the first half untraced and the
/// second half traced, so tracing overhead is measured within the run.
/// Every [`WINDOW_S`] the phase marks ops and CPU so throughput and CPU
/// per op can be reported as medians over windows.
pub struct Phase {
    start: Instant,
    seconds: f64,
    trace: bool,
    cpu0: f64,
    /// `(elapsed s, ops, process cpu s)` at each window boundary.
    marks: Vec<(f64, u64, f64)>,
    /// The same, when tracing switched on.
    switch: Option<(f64, u64, f64)>,
}

/// Throughput and CPU windows are this long.
const WINDOW_S: f64 = 1.0;

/// Wall and CPU of a finished timed phase.
pub struct Timing {
    wall_s: f64,
    cpu_s: f64,
    /// VmHWM when the phase ended, before any post-run judge.
    peak_rss_mb: f64,
    ops: u64,
    marks: Vec<(f64, u64, f64)>,
    switch: Option<(f64, u64, f64)>,
}

impl Phase {
    pub fn start(cfg: &RunCfg) -> Phase {
        Phase {
            start: Instant::now(),
            seconds: cfg.seconds,
            trace: cfg.trace,
            cpu0: stats::process_cpu_s(),
            marks: vec![(0.0, 0, 0.0)],
            switch: None,
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn done(&self) -> bool {
        self.elapsed() >= self.seconds
    }

    /// Seconds into the phase at which tracing turns on.
    pub fn trace_from(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            f64::INFINITY
        }
    }

    fn mark(&self, ops: u64) -> (f64, u64, f64) {
        (self.elapsed(), ops, stats::process_cpu_s() - self.cpu0)
    }

    /// Called between ops with the op count so far: marks window
    /// boundaries, and turns this thread's span recorder on once the
    /// traced half begins. Returns `true` on the call that switches.
    pub fn tick(&mut self, ops: u64) -> bool {
        let t = self.elapsed();
        if t >= self.marks.len() as f64 * WINDOW_S {
            self.marks.push(self.mark(ops));
        }
        if self.switch.is_some() || t < self.trace_from() {
            return false;
        }
        self.switch = Some(self.mark(ops));
        spans::set_enabled(true);
        true
    }

    pub fn finish(mut self, ops: u64) -> Timing {
        spans::set_enabled(false);
        let end = self.mark(ops);
        self.marks.push(end);
        Timing {
            wall_s: end.0,
            cpu_s: end.2,
            peak_rss_mb: stats::peak_rss_mb(),
            ops,
            marks: self.marks,
            switch: self.switch,
        }
    }
}

impl Timing {
    /// Per-window `(ops/s, cpu us/op)`, windows shorter than half a
    /// window (the tail) left out.
    fn windows(&self) -> Vec<(f64, f64)> {
        self.marks
            .windows(2)
            .filter(|w| w[1].0 - w[0].0 >= WINDOW_S / 2.0 && w[1].1 > w[0].1)
            .map(|w| {
                let ops = (w[1].1 - w[0].1) as f64;
                (ops / (w[1].0 - w[0].0), (w[1].2 - w[0].2) * 1e6 / ops)
            })
            .collect()
    }

    /// Median ops/s over windows (whole-phase rate if none is full).
    pub fn throughput(&self) -> f64 {
        let w: Vec<f64> = self.windows().iter().map(|w| w.0).collect();
        if w.is_empty() {
            self.ops as f64 / self.wall_s
        } else {
            stats::median(&w)
        }
    }

    /// Median CPU microseconds per op over windows.
    pub fn cpu_us_per_op(&self) -> f64 {
        let w: Vec<f64> = self.windows().iter().map(|w| w.1).collect();
        if w.is_empty() {
            self.cpu_s * 1e6 / self.ops.max(1) as f64
        } else {
            stats::median(&w)
        }
    }

    /// Seconds the traced half lasted.
    pub fn traced_s(&self) -> f64 {
        self.switch.map_or(0.0, |(t, ..)| self.wall_s - t)
    }

    /// The end-to-end metrics every workload shares. `latencies_ms`
    /// holds one sample per op (or per frame round) in completion
    /// order, failed ops as infinity.
    pub fn put_e2e(&self, m: &mut Metrics, setup_s: f64, latencies_ms: Vec<f64>) {
        let rates: Vec<String> = self
            .windows()
            .iter()
            .map(|(r, c)| format!("{r:.0}/s {c:.3}us"))
            .collect();
        eprintln!("  windows: {}", rates.join(", "));
        eprintln!("  latency samples: {}", latencies_ms.len());
        let p99 = stats::chunked_p99(&latencies_ms);
        let lat = stats::sorted(latencies_ms);
        m.put("setup_s", setup_s, "s");
        m.put("throughput_per_s", self.throughput(), "1/s");
        m.put(
            "latency_p50_ms",
            stats::percentile(&lat, 500).unwrap_or(f64::NAN),
            "ms",
        );
        m.put("latency_p99_ms", p99.unwrap_or(f64::NAN), "ms");
        m.put("cpu_us_per_op", self.cpu_us_per_op(), "us");
        m.put("peak_rss_mb", self.peak_rss_mb, "MB");
    }

    /// Tracing overhead: throughput and CPU per op of the traced half
    /// against the untraced half.
    pub fn put_overhead(&self, m: &mut Metrics) {
        let Some((t, ops_at, cpu_at)) = self.switch else {
            return;
        };
        let untraced = ops_at as f64 / t;
        let traced = (self.ops - ops_at) as f64 / (self.wall_s - t);
        m.put(
            "bench.trace_overhead_frac",
            1.0 - traced / untraced,
            "ratio",
        );
        let cpu_untraced = cpu_at / ops_at.max(1) as f64;
        let cpu_traced = (self.cpu_s - cpu_at) / (self.ops - ops_at).max(1) as f64;
        m.put(
            "bench.trace_cpu_overhead_frac",
            cpu_traced / cpu_untraced - 1.0,
            "ratio",
        );
    }

    /// [`Timing::put_overhead`] plus, for single-threaded workloads,
    /// the share of the traced wall time no layer accounts for.
    pub fn put_layers(&self, m: &mut Metrics, recorded: &spans::Recorded) {
        self.put_overhead(m);
        let layered: u64 = recorded
            .totals
            .iter()
            .filter(|(n, _)| !n.starts_with("bench."))
            .map(|(_, t)| t.self_ns)
            .sum();
        m.put(
            "bench.unattributed_frac",
            1.0 - layered as f64 / 1e9 / self.traced_s(),
            "ratio",
        );
    }
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload fleet|campaign|ingest|all --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match arg(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
    }
}

/// Runs every workload in its own child process and combines their
/// result lines.
fn run_all(args: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("own executable");
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let i = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was given");
        child_args[i + 1] = w.to_string();
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn workload");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("").to_string();
        all_ok &= out.status.success() && last.starts_with("{\"correct\": true");
        lines.push((w, last));
    }
    println!("== all workloads ==");
    for (w, line) in &lines {
        println!("{w}: {line}");
        for field in ["attempted", "failed"] {
            let key = format!("\"{field}\": ");
            let n: u64 = line
                .split(&key)
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            if field == "attempted" {
                attempted += n;
            } else {
                failed += n;
            }
        }
    }
    println!(
        "{}",
        report::result_json(all_ok, attempted.max(1), failed, &Metrics::default())
    );
    i32::from(!all_ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload").unwrap_or_else(|| usage());
    if workload == "all" {
        std::process::exit(run_all(&args));
    }
    let cfg = RunCfg {
        seed: parse(&args, "--seed", 2019),
        seconds: parse(&args, "--seconds", 20.0),
        trace: parse::<u8>(&args, "--trace", 0) == 1,
        out_dir: PathBuf::from(".bench_out"),
    };
    eprintln!(
        "perfbench: workload {workload}, seed {}, {} s, trace {}",
        cfg.seed, cfg.seconds, cfg.trace
    );
    let mut out: Outcome = match workload.as_str() {
        "fleet" => fleet::run(&cfg),
        "campaign" => campaign::run(&cfg),
        "ingest" => ingest::run(&cfg),
        _ => usage(),
    };

    for (name, value, _) in &out.e2e.0 {
        if cfg.trace || value.is_finite() {
            continue;
        }
        out.failures.push(if value.is_nan() {
            format!("{name} not measurable (too few samples)")
        } else {
            format!("{name} infinite: more than 1 % of ops failed")
        });
    }
    let metrics = if cfg.trace {
        let mut layers = Metrics::default();
        for (name, unit) in LAYER_METRICS {
            layers.put(name, out.layers.get(name).unwrap_or(0.0), unit);
        }
        let path = cfg
            .out_dir
            .join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
        out.spans.write(&path).expect("write span file");
        println!(
            "span file: {} ({} spans)",
            path.display(),
            out.spans.spans.len()
        );
        layers
    } else {
        out.e2e.clone()
    };
    let mut table = out.e2e.clone();
    table.0.extend(out.info.0.iter().copied());
    table.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    report::print_table(&format!("== {workload}: end-to-end =="), &table);
    if cfg.trace {
        report::print_table(&format!("== {workload}: per layer =="), &metrics);
    }
    let correct = out.failures.is_empty() && out.attempted > 0;
    for f in &out.failures {
        println!("JUDGE FAILED: {f}");
    }
    println!(
        "{}",
        report::result_json(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
