//! Result plumbing shared by every workload: the metric catalogue,
//! order statistics, the deterministic-output digest and the final
//! JSON line.

use std::fmt::Write as _;

/// Whether a metric belongs to the untraced (end-to-end) or the traced
/// (per-layer) report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// One catalogue entry: name, unit, whether higher is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        kind: Kind::Layer,
    }
}

/// Every metric the benchmark prints. An untraced run prints every
/// end-to-end entry; a traced run prints every layer entry, with 0 for
/// a layer the workload does not exercise.
pub const CATALOGUE: &[MetricDef] = &[
    e2e("setup_s", "s", false),
    e2e("peak_rss_mb", "MB", false),
    e2e("ops_per_s", "1/s", true),
    e2e("op_p50_ms", "ms", false),
    e2e("op_p90_ms", "ms", false),
    layer("dataset.build_s", "s", false),
    layer("llm.train_s", "s", false),
    layer("opt.steps", "count/op", false),
    layer("opt.step_ms_p50", "ms", false),
    layer("opt.step_ms_p90", "ms", false),
    layer("opt.self_frac", "ratio", false),
    layer("opt.gp_fit_ms", "ms", false),
    layer("opt.gp_predict_us", "us", false),
    layer("opt.propose_ms", "ms", false),
    layer("sim.calls", "count/op", false),
    layer("sim.call_us_p50", "us", false),
    layer("sim.busy_frac", "ratio", false),
    layer("sim.screen.self_ms", "ms/op", false),
    layer("sim.screen.reject_ratio", "ratio", true),
    layer("sim.corners.self_frac", "ratio", false),
    layer("sim.corners.grids", "count/op", false),
    layer("sim.cache.hit_ratio", "ratio", true),
    layer("sim.cache.coalesced", "count", true),
    layer("agents.self_frac", "ratio", false),
    layer("agents.llm_steps_per_op", "count/op", false),
    layer("resilience.attempts_per_op", "count/op", false),
    layer("design.success_ratio", "ratio", true),
    layer("serve.codec_us", "us/op", false),
    layer("serve.frame_bytes", "B/op", false),
    layer("serve.batch_occupancy_mean", "count", true),
    layer("serve.dedup_ratio", "ratio", true),
    layer("serve.cache_served_ratio", "ratio", true),
    layer("serve.unique_ratio", "ratio", false),
    layer("serve.busy_rejects", "count", false),
    layer("trace.overhead_frac", "ratio", false),
    layer("trace.unattributed_frac", "ratio", false),
];

/// Looks a metric up in the catalogue.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    CATALOGUE.iter().find(|d| d.name == name)
}

/// True when `name` is a legal metric name (`[A-Za-z0-9_.-]+`).
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Linear-interpolated percentile of an unsorted sample (`p` in
/// `[0, 1]`); 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a run's deterministic outputs: success flags,
/// performance bit patterns, billed testbed seconds, reply payloads.
/// Timing never enters it, so every run of one seed prints one digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    pub fn performance(&mut self, perf: Option<&artisan::sim::Performance>) {
        match perf {
            Some(p) => {
                self.bool(true);
                for v in perf_bits(p) {
                    self.u64(v);
                }
            }
            None => self.bool(false),
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The bit patterns of every performance field, for bit-identity checks.
pub fn perf_bits(p: &artisan::sim::Performance) -> [u64; 5] {
    [
        p.gain.value().to_bits(),
        p.gbw.value().to_bits(),
        p.pm.value().to_bits(),
        p.power.value().to_bits(),
        p.fom.to_bits(),
    ]
}

/// Bit-identity of two optional performances.
pub fn same_perf(
    a: Option<&artisan::sim::Performance>,
    b: Option<&artisan::sim::Performance>,
) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => perf_bits(a) == perf_bits(b),
        (None, None) => true,
        _ => false,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run reports: op counts, the correctness verdict and its
/// metrics in catalogue order.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub digest: Option<Digest>,
    /// A traced run's spans, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl RunReport {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "{name} is not in the catalogue");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Records a failed correctness check; the caller counts the op.
    pub fn fail(&mut self, why: String) {
        self.check_failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`
    /// holding every catalogue metric of `kind` (0 where unset).
    pub fn json_line(&self, kind: Kind) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for d in CATALOGUE.iter().filter(|d| d.kind == kind) {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        for (i, d) in CATALOGUE.iter().enumerate() {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(
                CATALOGUE[i + 1..].iter().all(|o| o.name != d.name),
                "{} listed twice",
                d.name
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_lists_every_metric_of_its_kind() {
        let mut r = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        r.set("ops_per_s", 12.5);
        let line = r.json_line(Kind::EndToEnd);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for d in CATALOGUE.iter().filter(|d| d.kind == Kind::EndToEnd) {
            assert!(line.contains(&format!("\"{}\"", d.name)));
        }
        assert!(line.contains("\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(!line.contains("opt.steps"));
    }
}
