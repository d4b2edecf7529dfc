//! The run's result line, the metric catalogue it must cover, order
//! statistics, and the process and host readings stored beside it.

use std::fmt::Write as _;

/// End-to-end metrics every timed run prints: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("response_p50_ms", "ms"),
    ("response_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every traced run prints: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("webgen.generate_ms", "ms"),
    ("webgen.install_ms", "ms"),
    ("browser.fetch_us", "us"),
    ("browser.fetch_allocs", "count"),
    ("browser.load_us", "us"),
    ("browser.load_allocs", "count"),
    ("webdom.parse_us", "us"),
    ("webdom.parse_allocs", "count"),
    ("bannerclick.analyze_us", "us"),
    ("bannerclick.analyze_allocs", "count"),
    ("langid.detect_us", "us"),
    ("analysis.crawl.cache_hit_ratio", "ratio"),
    ("analysis.crawl.cache_misses", "count"),
    ("analysis.crawl.utilization", "ratio"),
    ("analysis.crawl.region_skew_ms", "ms"),
    ("analysis.persist.encode_us", "us"),
    ("analysis.experiments.sweep_s", "s"),
    ("analysis.experiments.ablation_s", "s"),
    ("analysis.experiments.botdetect_s", "s"),
    ("analysis.experiments.fig4_s", "s"),
    ("analysis.experiments.fig5_s", "s"),
    ("analysis.experiments.bypass_s", "s"),
    ("store.put_us", "us"),
    ("store.seal_ms", "ms"),
    ("store.append_calls", "count"),
    ("store.write_bytes_per_payload_byte", "ratio"),
    ("store.snapshot_open_ms", "ms"),
    ("store.snapshot_open_read_bytes", "bytes"),
    ("serve.answer_us.wall-status.p50", "us"),
    ("serve.answer_us.wall-status.p99", "us"),
    ("serve.answer_us.prevalence.p50", "us"),
    ("serve.answer_us.prevalence.p99", "us"),
    ("serve.answer_us.prices.p50", "us"),
    ("serve.answer_us.prices.p99", "us"),
    ("serve.answer_us.diff.p50", "us"),
    ("serve.answer_us.diff.p99", "us"),
    ("serve.sim_us.wall-status.p50", "us"),
    ("serve.sim_us.wall-status.p99", "us"),
    ("serve.sim_us.prevalence.p50", "us"),
    ("serve.sim_us.prevalence.p99", "us"),
    ("serve.sim_us.prices.p50", "us"),
    ("serve.sim_us.prices.p99", "us"),
    ("serve.sim_us.diff.p50", "us"),
    ("serve.sim_us.diff.p99", "us"),
    ("serve.ingest.lag_ms", "ms"),
    ("serve.ingest.epochs", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics that are pure counts of a single-worker traced
/// run: they must repeat exactly across two traced runs of one seed.
pub const DETERMINISTIC: &[&str] = &[
    "browser.fetch_allocs",
    "browser.load_allocs",
    "webdom.parse_allocs",
    "bannerclick.analyze_allocs",
    "analysis.crawl.cache_hit_ratio",
    "analysis.crawl.cache_misses",
    "store.append_calls",
    "store.write_bytes_per_payload_byte",
    "store.snapshot_open_read_bytes",
    "serve.sim_us.wall-status.p50",
    "serve.sim_us.wall-status.p99",
    "serve.sim_us.prevalence.p50",
    "serve.sim_us.prevalence.p99",
    "serve.sim_us.prices.p50",
    "serve.sim_us.prices.p99",
    "serve.sim_us.diff.p50",
    "serve.sim_us.diff.p99",
];

/// The measured values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every `(name, value)` set so far, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// What one run did and measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Count `n` operations, `bad` of which failed their check.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line: the metrics of `catalogue`, in its order. A
    /// metric the run did not set is an error in the benchmark itself.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (k, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {value}"));
            }
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if k == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile `p` of an ascending slice, by nearest rank, but
/// never one with fewer than ten samples beyond it: with too few samples
/// it falls back to the highest percentile that has ten beyond it, and
/// to the median when no percentile above the median has.
pub fn tail(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = (((p / 100.0) * n as f64).ceil() as usize).min(n.saturating_sub(10));
    if rank <= n.div_ceil(2) {
        median(sorted)
    } else {
        sorted[rank - 1]
    }
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host noise over a run: CPU ticks stolen by the hypervisor and spent
/// waiting on IO (from `/proc/stat`), and the load average.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostNoise {
    pub steal_ticks: u64,
    pub iowait_ticks: u64,
    pub total_ticks: u64,
    pub loadavg_1m: f64,
}

impl HostNoise {
    /// The `/proc/stat` aggregate CPU line's counters right now.
    pub fn sample() -> HostNoise {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        let field = |i: usize| ticks.get(i).copied().unwrap_or(0);
        let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
        HostNoise {
            iowait_ticks: field(4),
            steal_ticks: field(7),
            total_ticks: ticks.iter().sum(),
            loadavg_1m: loadavg
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0),
        }
    }

    /// Ticks accrued since `start`, with this sample's load average.
    pub fn since(&self, start: &HostNoise) -> HostNoise {
        HostNoise {
            steal_ticks: self.steal_ticks.saturating_sub(start.steal_ticks),
            iowait_ticks: self.iowait_ticks.saturating_sub(start.iowait_ticks),
            total_ticks: self.total_ticks.saturating_sub(start.total_ticks),
            loadavg_1m: self.loadavg_1m,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"steal_ticks\": {}, \"iowait_ticks\": {}, \"total_ticks\": {}, \"loadavg_1m\": {:?}}}",
            self.steal_ticks, self.iowait_ticks, self.total_ticks, self.loadavg_1m
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[3u64, 9], 99.0), 9);
        assert_eq!(percentile::<u64>(&[], 50.0), 0);
    }

    #[test]
    fn tail_percentiles_keep_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), 990.0);
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), 40.0);
        assert_eq!(tail(&[1.0, 3.0], 99.0), 2.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_needs_every_catalogued_metric() {
        let mut o = Outcome::default();
        o.tally(4, 1);
        o.metrics.set("a", 1.5);
        assert!(o.to_json(&[("a", "s"), ("b", "ms")]).is_err());
        o.metrics.set("b", 2.0);
        let line = o.to_json(&[("a", "s"), ("b", "ms")]).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
        assert!(line.contains("\"b\": {\"value\": 2.0, \"unit\": \"ms\"}"));
    }
}
