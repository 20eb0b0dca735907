//! The benchmark's own statistics: percentiles with an explicit
//! sample-count rule, and the `/proc` readers behind the CPU and memory
//! metrics.

/// Every reported percentile must have at least this many samples
/// strictly beyond it, or the run does not publish it.
pub const TAIL_SAMPLES: u64 = 10;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 by the
/// Linux ABI regardless of the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// Nearest-rank position (1-based) of the `permille`-th percentile in
/// `n` sorted samples. Integer arithmetic: `0.99 * 1000` is not 990 in
/// floating point, and the rank rule must not wobble on that.
pub fn rank(n: u64, permille: u64) -> u64 {
    ((n * permille).div_ceil(1000)).max(1)
}

/// Samples strictly beyond the `permille`-th percentile of `n`.
pub fn samples_beyond(n: u64, permille: u64) -> u64 {
    n.saturating_sub(rank(n, permille))
}

/// Nearest-rank percentile of ascending `sorted` samples, or `None` if
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], permille: u64) -> Option<f64> {
    let n = sorted.len() as u64;
    if n == 0 || samples_beyond(n, permille) < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[(rank(n, permille) - 1) as usize])
}

/// Most chunks a p99 is taken over.
const P99_CHUNKS: usize = 12;

/// The p99 of time-ordered samples as the median of per-chunk p99s:
/// up to [`P99_CHUNKS`] equal consecutive chunks of at least 1000
/// samples each (so every chunk's p99 keeps ten samples beyond it), a
/// single chunk when there are fewer than 2000. A burst of noise then
/// moves one chunk, not the result. If failed ops (infinite samples)
/// put the whole-run p99 at infinity, that is the answer: failures
/// miss every limit. `None` when the samples cannot support a p99.
pub fn chunked_p99(samples: &[f64]) -> Option<f64> {
    let whole = percentile(&sorted(samples.to_vec()), 990)?;
    if whole.is_infinite() {
        return Some(whole);
    }
    let chunks = (samples.len() / 1000).clamp(1, P99_CHUNKS);
    let size = samples.len() / chunks;
    let p99s: Vec<f64> = samples
        .chunks(size)
        .take(chunks)
        .filter_map(|c| percentile(&sorted(c.to_vec()), 990))
        .collect();
    Some(median(&p99s))
}

/// Sorts latency samples ascending; failed operations enter as
/// `f64::INFINITY` so they miss every latency limit.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (upper median for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    s[s.len() / 2]
}

/// CPU seconds (utime + stime) from the text of a `/proc/.../stat`
/// file. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `kB` field (e.g. `VmHWM`, `VmRSS`) from `/proc/self/status` text.
pub fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = value.split_whitespace();
        let kb = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kb)
    })
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// CPU seconds used so far by the whole process.
pub fn process_cpu_s() -> f64 {
    parse_stat_cpu_s(&read("/proc/self/stat")).expect("parse /proc/self/stat")
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    parse_stat_cpu_s(&read("/proc/thread-self/stat")).expect("parse /proc/thread-self/stat")
}

/// Peak resident set size of the process, in MB.
pub fn peak_rss_mb() -> f64 {
    parse_status_kb(&read("/proc/self/status"), "VmHWM").expect("VmHWM") as f64 / 1024.0
}

/// Current resident set size of the process, in kB.
pub fn rss_kb() -> u64 {
    parse_status_kb(&read("/proc/self/status"), "VmRSS").expect("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(samples_beyond(999, 990), 9);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 990), Some(990.0));
        assert_eq!(percentile(&v[..999], 990), None);
        assert_eq!(percentile(&v, 500), Some(500.0));
    }

    #[test]
    fn every_published_percentile_keeps_ten_beyond() {
        for n in [20u64, 37, 150, 999, 1000, 1001, 12_345] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for pm in [500, 900, 950, 990, 999] {
                match percentile(&v, pm) {
                    Some(x) => assert!(n - 1 - x as u64 >= TAIL_SAMPLES, "n={n} p={pm}"),
                    None => assert!(samples_beyond(n, pm) < TAIL_SAMPLES, "n={n} p={pm}"),
                }
            }
        }
        assert_eq!(percentile(&[1.0; 19], 500), None);
        assert_eq!(percentile(&[1.0; 20], 500), Some(1.0));
    }

    #[test]
    fn failed_ops_sort_last_and_miss_every_limit() {
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        v.extend([f64::INFINITY; 20]);
        let s = sorted(v);
        assert_eq!(percentile(&s, 990), Some(f64::INFINITY));
        assert_eq!(percentile(&s, 500), Some(509.0));
    }

    #[test]
    fn stat_cpu_parses_names_with_spaces_and_parens() {
        let line = "4242 (qtag (perf) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 75 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(line), Some(3.25));
        let thread = "77 (perfbench) S 1 2 3 0 -1 0 0 0 0 0 7 3 0 0 20 0 1 0 9";
        assert_eq!(parse_stat_cpu_s(thread), Some(0.10));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) R 1 2"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_kb() > 0);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tperfbench\nVmPeak:\t  912344 kB\nVmHWM:\t  523412 kB\n\
                      VmRSS:\t  401200 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(523_412));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(401_200));
        assert_eq!(parse_status_kb(status, "Threads"), None);
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A field name that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn chunked_p99_is_the_median_of_chunk_p99s() {
        // Fewer than 2000 samples: one chunk, the plain p99.
        let v: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(chunked_p99(&v), percentile(&v, 990));
        assert_eq!(chunked_p99(&v[..999]), None);
        // Three chunks; a spike confined to one chunk moves only it.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(chunked_p99(&v), Some(989.0));
        // Failed ops beyond 1 % of all samples: infinite.
        let mut v: Vec<f64> = vec![1.0; 2000];
        v.extend([f64::INFINITY; 40]);
        assert_eq!(chunked_p99(&v), Some(f64::INFINITY));
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}
