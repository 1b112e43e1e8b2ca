//! The process-wide metrics registry: named counters and log₂-bucketed
//! histograms with a zero-cost disabled mode.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::{object, Value};

/// A histogram over `u64` observations with power-of-two buckets.
///
/// Bucket `i` counts observations whose value has `i` significant bits
/// (bucket 0 holds zeros), i.e. value ∈ `[2^(i-1), 2^i)`. Quantiles are
/// answered to bucket resolution — exact enough to separate "3 hops"
/// from "300", which is what the experiments need.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The upper bound of the bucket containing quantile `q` ∈ [0, 1].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 }.min(self.max);
            }
        }
        self.max
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// The process-wide registry. Obtain it via [`metrics()`].
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

/// The global registry (created on first use, disabled by default).
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| MetricsRegistry {
        enabled: AtomicBool::new(false),
        inner: Mutex::new(Inner::default()),
    })
}

impl MetricsRegistry {
    /// Starts recording. Until called, every recording call is a no-op
    /// costing one relaxed atomic load.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (accumulated values are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Adds `delta` to the counter `name`.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    /// Records `value` into the histogram `name`.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.histograms.entry(name).or_default().record(value);
    }

    /// Clears every counter and histogram (the enabled flag is kept).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.counters.clear();
        inner.histograms.clear();
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        }
    }
}

/// A point-in-time copy of the registry, detached from further updates.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter name → accumulated value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → accumulated distribution.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders a two-section human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counter                                   value\n");
            out.push_str("----------------------------------------  ------------\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<40}  {value:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(
                "histogram                                  count      mean       p50       p99       max\n",
            );
            out.push_str(
                "----------------------------------------  ------  --------  --------  --------  --------\n",
            );
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{name:<40}  {:>6}  {:>8.1}  {:>8}  {:>8}  {:>8}\n",
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max()
                ));
            }
        }
        out
    }

    /// Renders one JSON object per line, one line per metric.
    ///
    /// `scope` tags every line (e.g. an experiment id), letting multiple
    /// snapshots share one stream.
    pub fn to_json_lines(&self, scope: &str) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&object(&[
                ("type", Value::Str("counter".into())),
                ("scope", Value::Str(scope.into())),
                ("name", Value::Str(name.clone())),
                ("value", Value::U64(*value)),
            ]));
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            out.push_str(&object(&[
                ("type", Value::Str("histogram".into())),
                ("scope", Value::Str(scope.into())),
                ("name", Value::Str(name.clone())),
                ("count", Value::U64(h.count())),
                ("sum", Value::U64(h.sum())),
                ("min", Value::U64(h.min())),
                ("max", Value::U64(h.max())),
                ("p50", Value::U64(h.quantile(0.5))),
                ("p90", Value::U64(h.quantile(0.9))),
                ("p99", Value::U64(h.quantile(0.99))),
            ]));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
        };
        r.add("a", 3);
        r.observe("h", 5);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn enabled_registry_accumulates() {
        let r = MetricsRegistry {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner::default()),
        };
        r.add("a", 3);
        r.add("a", 4);
        r.observe("h", 1);
        r.observe("h", 1000);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a"], 7);
        let h = &snap.histograms["h"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1001);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert!(h.quantile(0.0) <= h.quantile(1.0));
        assert_eq!(h.quantile(1.0), 100);
        assert!(h.quantile(0.5) <= 7);
    }

    #[test]
    fn snapshot_exports_both_formats() {
        let r = MetricsRegistry {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner::default()),
        };
        r.add("net.messages", 12);
        r.observe("overlay.index_hops_per_locate", 3);
        let snap = r.snapshot();
        let table = snap.render_table();
        assert!(table.contains("net.messages"));
        assert!(table.contains("overlay.index_hops_per_locate"));
        let json = snap.to_json_lines("e4");
        assert!(json.contains(r#""type":"counter""#));
        assert!(json.contains(r#""scope":"e4""#));
        assert!(json.contains(r#""type":"histogram""#));
    }
}
