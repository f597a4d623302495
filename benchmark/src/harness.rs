//! What every workload shares: run arguments, repeated set-up, peak RSS,
//! and the windowed summaries the end-to-end metrics are read from.

use crate::metrics::Report;
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How large the workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is recorded at.
    Full,
    /// A few hundred trees and fixed operation counts: the package's
    /// tests run every workload, oracle included, in about a second.
    Tiny,
}

/// Arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Every input is made from this and nothing else.
    pub seed: u64,
    /// Length of the timed section (`--trace 0`); the traced run sizes
    /// its fixed operation counts from it.
    pub seconds: f64,
    /// Traced run: stage-by-stage replay with spans, per-layer metrics.
    pub trace: bool,
    /// Deliberately damage the reference, to show a mismatch is caught.
    pub corrupt_oracle: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Where `trace-<workload>.json` goes (`None`: not written).
    pub trace_dir: Option<PathBuf>,
}

/// Set-up runs this many times per process; `setup_s` is the median.
pub const SETUP_PASSES: usize = 5;

/// Runs `setup` [`SETUP_PASSES`] times — dropping each result before the
/// next pass, so peak RSS and bound ports are those of one set-up — and
/// returns the last result with the median wall time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_PASSES);
    let mut last = None;
    for _ in 0..SETUP_PASSES {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up pass"),
        stats::median(&mut times),
    )
}

/// The value of `field` (e.g. `"VmHWM"`) in `/proc/self/status`.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?;
    Some(value.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|value| value.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How a workload's timed section is cut up and summarized.
#[derive(Debug, Clone, Copy)]
pub struct Windowing {
    /// Operations per window: the fewest that carry `tail_q` with ten
    /// samples beyond it.
    pub window: usize,
    /// The tail percentile of one window.
    pub tail_q: f64,
    /// Trees one operation processes (throughput is trees per second).
    pub trees_per_op: f64,
}

/// The timed section: calls `op` (which returns its own latency in
/// seconds) in whole windows until `--seconds` have gone by, never fewer
/// than three windows; at tiny scale exactly one. Returns every latency,
/// in order.
pub fn timed_section(
    args: &RunArgs,
    windowing: &Windowing,
    mut op: impl FnMut() -> f64,
) -> Vec<f64> {
    let started = Instant::now();
    let mut latencies = Vec::new();
    loop {
        let windows_done = latencies.len() / windowing.window;
        let more = match args.scale {
            Scale::Tiny => windows_done == 0,
            Scale::Full => windows_done < 3 || started.elapsed().as_secs_f64() < args.seconds,
        };
        if !more {
            return latencies;
        }
        latencies.extend((0..windowing.window).map(|_| op()));
    }
}

/// The share of windows the end-to-end numbers are read from: the quietest
/// tenth. The sandbox's co-tenants slow the CPU by up to 40 % for seconds
/// at a time and only ever add time, so a run's median swings by a quarter
/// between identical runs while its quiet decile holds to a few percent. A
/// change to the program moves every window, quiet ones included.
const QUIET_SHARE: f64 = 0.1;
/// Sliding windows start this fraction of a window apart, so a quiet
/// stretch of the host is caught whatever its alignment.
const STRIDE_SHARE: usize = 8;

/// The quiet-decile value of repeated timings of the same work.
pub fn quiet(times: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(times), QUIET_SHARE)
}

/// The traced runs' bookkeeping: per round, a value (µs) per name. Every
/// round measures the one-call path and its staged replay back to back, so
/// ratios are taken per round and absolute times at the quiet decile.
#[derive(Debug, Default)]
pub struct Rounds(Vec<BTreeMap<&'static str, f64>>);

impl Rounds {
    /// Files one finished round.
    pub fn push(&mut self, row: BTreeMap<&'static str, f64>) {
        self.0.push(row);
    }

    /// Rounds filed so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no round was filed yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn column(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .map(|row| row.get(name).copied().unwrap_or(0.0))
            .collect()
    }

    /// `name` at the quiet decile over rounds.
    pub fn quiet(&self, name: &str) -> f64 {
        quiet(&self.column(name))
    }

    /// Median of `name` over rounds — for differences of two timings,
    /// where the quiet decile would pick the rounds in which the host sped
    /// up between the two.
    pub fn median(&self, name: &str) -> f64 {
        stats::median(&mut self.column(name))
    }

    /// Median over rounds of `num / den`.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let (num, den) = (self.column(num), self.column(den));
        stats::median(&mut num.iter().zip(&den).map(|(n, d)| n / d).collect::<Vec<_>>())
    }
}

/// Fills the end-to-end metrics from the timed section's latencies: p50,
/// tail and throughput of every sliding window of `windowing.window`
/// consecutive operations, each reported at the quiet decile over windows
/// (for throughput, the matching high decile).
///
/// # Panics
/// Panics if a window is too short for `tail_q` to have ten samples beyond
/// it — the window length is a constant of the workload, so that is a
/// harness bug.
pub fn report_end_to_end(
    report: &mut Report,
    setup_s: f64,
    latencies_s: &[f64],
    windowing: &Windowing,
) {
    let Windowing {
        window,
        tail_q,
        trees_per_op,
    } = *windowing;
    let supported = stats::highest_supported_percentile(window);
    assert!(
        supported.is_some_and(|q| q >= tail_q),
        "{window} samples cannot carry p{}",
        tail_q * 100.0
    );
    let (mut p50, mut tail, mut slowness) = (Vec::new(), Vec::new(), Vec::new());
    for start in (0..=latencies_s.len() - window).step_by((window / STRIDE_SHARE).max(1)) {
        let sorted = stats::sorted(&latencies_s[start..start + window]);
        p50.push(stats::percentile(&sorted, 0.5) * 1e6);
        tail.push(stats::percentile(&sorted, tail_q) * 1e6);
        // Seconds per tree: its quiet decile is the throughput's high one.
        slowness.push(sorted.iter().sum::<f64>() / (window as f64 * trees_per_op));
    }
    report.set("setup_s", setup_s);
    report.set("op_p50_us", quiet(&p50));
    report.set("op_tail_us", quiet(&tail));
    report.set("trees_per_s", 1.0 / quiet(&slowness));
    report.set("rss_peak_mb", rss_peak_mb());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_repeated_and_earlier_results_dropped_first() {
        let live = std::rc::Rc::new(());
        let mut calls = 0;
        let (last, median_s) = repeat_setup(|| {
            calls += 1;
            // The previous pass's clone is gone before this one is made.
            assert_eq!(std::rc::Rc::strong_count(&live), 1);
            live.clone()
        });
        assert_eq!(calls, SETUP_PASSES);
        assert_eq!(std::rc::Rc::strong_count(&last), 2);
        assert!(median_s >= 0.0);
    }

    fn tiny_args() -> RunArgs {
        RunArgs {
            seed: 1,
            seconds: 1.0,
            trace: false,
            corrupt_oracle: false,
            scale: Scale::Tiny,
            trace_dir: None,
        }
    }

    const WINDOWING: Windowing = Windowing {
        window: 50,
        tail_q: 0.8,
        trees_per_op: 10.0,
    };

    #[test]
    fn the_timed_section_runs_whole_windows() {
        let mut calls = 0;
        let latencies = timed_section(&tiny_args(), &WINDOWING, || {
            calls += 1;
            1e-6
        });
        assert_eq!((calls, latencies.len()), (50, 50));
        let full = RunArgs {
            scale: Scale::Full,
            seconds: 0.0,
            ..tiny_args()
        };
        assert_eq!(timed_section(&full, &WINDOWING, || 1e-6).len(), 150);
    }

    #[test]
    fn end_to_end_numbers_come_from_the_quiet_windows() {
        // 400 operations of 10 µs; a noisy neighbour triples the middle
        // 200. The quiet windows say 10 µs, whatever the middle did.
        let latencies: Vec<f64> = (0..400)
            .map(|i| {
                if (100..300).contains(&i) {
                    30e-6
                } else {
                    10e-6
                }
            })
            .collect();
        let mut report = Report::default();
        report_end_to_end(&mut report, 0.5, &latencies, &WINDOWING);
        assert_eq!(report.get("op_p50_us").unwrap().round(), 10.0);
        assert_eq!(report.get("op_tail_us").unwrap().round(), 10.0);
        assert_eq!(report.get("trees_per_s").unwrap().round(), 1e6);
        assert_eq!(report.get("setup_s"), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "cannot carry")]
    fn a_short_window_cannot_claim_a_high_percentile() {
        let short = Windowing {
            window: 40,
            ..WINDOWING
        };
        report_end_to_end(&mut Report::default(), 0.1, &[1e-6; 40], &short);
    }

    #[test]
    fn rss_is_read_from_proc() {
        assert!(rss_peak_mb() > 1.0);
        assert!(proc_status("Cpus_allowed_list").is_some());
        assert_eq!(proc_status("NoSuchField"), None);
    }

    #[test]
    fn rounds_take_ratios_per_round_and_times_at_the_quiet_decile() {
        let mut rounds = Rounds::default();
        for (base, replay) in [(10.0, 11.0), (20.0, 22.0), (12.0, 13.2)] {
            rounds.push(BTreeMap::from([("base", base), ("replay", replay)]));
        }
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds.quiet("base"), 10.0);
        assert_eq!(rounds.median("base"), 12.0);
        assert!((rounds.ratio("replay", "base") - 1.1).abs() < 1e-12);
        assert_eq!(rounds.quiet("absent"), 0.0);
    }
}
