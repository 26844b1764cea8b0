//! Small numeric helpers: exact percentiles, medians, memory high-water
//! mark, and the ordered metric list a run prints.

/// Exact nearest-rank percentile (`rank = ceil(p·n)`) of unsorted values;
/// 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Whether `n` samples leave at least ten beyond percentile `p`, the
/// condition for reporting that percentile at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() >= 10.0
}

/// Mean of the values; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU jiffies over all CPUs from `/proc/stat`, or
/// zeros where it is unavailable. Steal is time the hypervisor ran other
/// guests on this machine's virtual CPUs.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// Metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn metrics_print_full_precision() {
        let mut m = Metrics::default();
        m.add("a", 1.0 / 3.0, "ms", 1);
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}"
        );
    }
}
