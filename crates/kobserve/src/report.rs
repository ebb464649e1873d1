//! Machine-readable run reports.
//!
//! A [`RunReport`] bundles one experiment run: phase spans, the metric
//! registry's counters/gauges/histograms, and any number of named
//! *sections* of numeric fields (miss rates per optimization level,
//! speedups per penalty, ...). It serializes to JSON beside the
//! human-readable `.txt` outputs and parses back.

use std::fs;
use std::io;
use std::path::Path;

use crate::json::{self, DocError, JsonValue, Node};
use crate::metrics::{HistogramSummary, MetricRegistry};

/// One aggregated phase span in a report.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEntry {
    /// Span name.
    pub name: String,
    /// Total seconds across all scopes with this name.
    pub secs: f64,
    /// Number of scopes.
    pub count: u64,
}

/// A named group of numeric fields, e.g. one per optimization level.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Section {
    name: String,
    fields: Vec<(String, f64)>,
}

/// A serializable account of one experiment run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    name: String,
    spans: Vec<SpanEntry>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, HistogramSummary)>,
    sections: Vec<Section>,
}

impl RunReport {
    /// Creates an empty report for the named run.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    /// The run name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds span totals (usually [`crate::flight::span_totals`]) to the
    /// report, sorted by name. The store keeps first-closed order, which
    /// depends on thread interleaving under sharded execution; sorting
    /// makes the report layout identical at any worker count.
    pub fn add_spans(&mut self, totals: impl IntoIterator<Item = SpanEntry>) {
        self.spans.extend(totals);
        self.spans.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Copies every counter, gauge, and histogram from a registry.
    pub fn add_metrics(&mut self, registry: &MetricRegistry) {
        self.counters.extend(registry.counters());
        self.gauges.extend(registry.gauges());
        self.histograms.extend(registry.histograms());
    }

    /// Appends a section of `(field, value)` pairs.
    pub fn add_section<S: Into<String>>(
        &mut self,
        name: &str,
        fields: impl IntoIterator<Item = (S, f64)>,
    ) {
        self.sections.push(Section {
            name: name.to_owned(),
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        });
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[SpanEntry] {
        &self.spans
    }

    /// The recorded counters.
    #[must_use]
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// The recorded gauges.
    #[must_use]
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// The recorded histogram summaries.
    #[must_use]
    pub fn histograms(&self) -> &[(String, HistogramSummary)] {
        &self.histograms
    }

    /// Total number of named metrics (counters + gauges + histograms).
    #[must_use]
    pub fn metric_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Section names in insertion order.
    #[must_use]
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    /// A field of a named section.
    #[must_use]
    pub fn section_field(&self, section: &str, field: &str) -> Option<f64> {
        self.sections
            .iter()
            .find(|s| s.name == section)
            .and_then(|s| s.fields.iter().find(|(k, _)| k == field))
            .map(|(_, v)| *v)
    }

    /// Serializes the report to a JSON value.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let num = |n: u64| JsonValue::Num(n as f64);
        let numbers = |fields: &[(String, f64)]| {
            JsonValue::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                    .collect(),
            )
        };
        let spans = self.spans.iter().map(|s| {
            JsonValue::object([
                ("name".to_owned(), JsonValue::Str(s.name.clone())),
                ("secs".to_owned(), JsonValue::Num(s.secs)),
                ("count".to_owned(), num(s.count)),
            ])
        });
        let histograms = self.histograms.iter().map(|(k, h)| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(lo, c)| JsonValue::Array(vec![num(lo), num(c)]));
            let summary = JsonValue::object([
                ("count".to_owned(), num(h.count)),
                ("sum".to_owned(), num(h.sum)),
                ("max".to_owned(), num(h.max)),
                ("p50".to_owned(), num(h.p50)),
                ("p95".to_owned(), num(h.p95)),
                ("p99".to_owned(), num(h.p99)),
                ("buckets".to_owned(), JsonValue::Array(buckets.collect())),
            ]);
            (k.clone(), summary)
        });
        let counters = self.counters.iter().map(|(k, v)| (k.clone(), num(*v)));
        let sections = self
            .sections
            .iter()
            .map(|s| (s.name.clone(), numbers(&s.fields)));
        JsonValue::object([
            ("name".to_owned(), JsonValue::Str(self.name.clone())),
            ("spans".to_owned(), JsonValue::Array(spans.collect())),
            ("counters".to_owned(), JsonValue::Object(counters.collect())),
            ("gauges".to_owned(), numbers(&self.gauges)),
            (
                "histograms".to_owned(),
                JsonValue::Object(histograms.collect()),
            ),
            ("sections".to_owned(), JsonValue::Object(sections.collect())),
        ])
    }

    /// Serializes the report to a JSON value with every wall-clock field
    /// removed, keeping all deterministic *content*:
    ///
    /// * span entries keep their name and count but drop `secs` (the
    ///   only per-span field that varies run to run);
    /// * counters, gauges, histograms, and section values are kept in
    ///   full — a simulation-content difference between two runs *must*
    ///   change these bytes;
    /// * sections whose name starts with `perf.` are dropped entirely:
    ///   that namespace is reserved for self-measurement (allocation
    ///   counts, machine-local timing) that legitimately differs between
    ///   an archived replay and a live run.
    ///
    /// Two runs of a deterministic experiment produce byte-identical
    /// output from this serialization, so it is what reproducibility
    /// gates diff — `ci.sh` compares archived-replay reports against
    /// live ones with it, at several worker counts — and any metric or
    /// section divergence shows up as a content diff, not a silent pass.
    #[must_use]
    pub fn to_json_deterministic(&self) -> JsonValue {
        let mut v = self.to_json();
        let JsonValue::Object(members) = &mut v else {
            unreachable!("to_json always builds an object");
        };
        for (key, val) in members.iter_mut() {
            match (key.as_str(), val) {
                ("spans", JsonValue::Array(spans)) => {
                    for span in spans {
                        if let JsonValue::Object(fields) = span {
                            fields.retain(|(k, _)| k != "secs");
                        }
                    }
                }
                ("sections", JsonValue::Object(sections)) => {
                    sections.retain(|(name, _)| !name.starts_with("perf."));
                }
                _ => {}
            }
        }
        v
    }

    /// Parses a report back from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`DocError`] if the text is not valid JSON or lacks the
    /// report structure.
    pub fn from_json(text: &str) -> Result<Self, DocError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Reads a report from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`DocError`] if the value lacks the report structure.
    pub fn from_value(v: &JsonValue) -> Result<Self, DocError> {
        let doc = Node::root(v);
        let mut report = RunReport::new(doc.member("name")?.str()?);
        for s in doc.member("spans")?.items()? {
            report.spans.push(SpanEntry {
                name: s.member("name")?.str()?.to_owned(),
                secs: s.member("secs")?.f64()?,
                count: s.member("count")?.u64()?,
            });
        }
        for (k, val) in doc.member("counters")?.members()? {
            report.counters.push((k.to_owned(), val.u64()?));
        }
        for (k, val) in doc.member("gauges")?.members()? {
            report.gauges.push((k.to_owned(), val.f64()?));
        }
        for (k, val) in doc.member("histograms")?.members()? {
            // Percentiles were added after the first reports were
            // written; default to 0 so old files still parse.
            let percentile = |key| val.member(key).and_then(|n| n.u64()).unwrap_or(0);
            let mut summary = HistogramSummary {
                count: val.member("count")?.u64()?,
                sum: val.member("sum")?.u64()?,
                max: val.member("max")?.u64()?,
                p50: percentile("p50"),
                p95: percentile("p95"),
                p99: percentile("p99"),
                buckets: Vec::new(),
            };
            for pair in val.member("buckets")?.items()? {
                let mut lo_count = pair.items()?;
                let (Some(lo), Some(c), None) = (lo_count.next(), lo_count.next(), lo_count.next())
                else {
                    return Err(pair.wrong("must be a [low, count] pair"));
                };
                summary.buckets.push((lo.u64()?, c.u64()?));
            }
            report.histograms.push((k.to_owned(), summary));
        }
        for (name, val) in doc.member("sections")?.members()? {
            let fields = val
                .members()?
                .map(|(k, fv)| Ok((k.to_owned(), fv.f64()?)))
                .collect::<Result<_, DocError>>()?;
            report.sections.push(Section {
                name: name.to_owned(),
                fields,
            });
        }
        Ok(report)
    }

    /// Writes the report as pretty-printed JSON, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error on failure.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_json().to_json_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Probe;

    fn report_with(miss_rate: f64) -> RunReport {
        let mut r = RunReport::new("run");
        r.add_section("fig12.cc1", [("Base", 0.2), ("OptA", miss_rate)]);
        r
    }

    fn span(name: &str, secs: f64, count: u64) -> SpanEntry {
        SpanEntry {
            name: name.to_owned(),
            secs,
            count,
        }
    }

    #[test]
    fn full_report_round_trips_through_json() {
        let registry = MetricRegistry::new();
        registry.counter_add("cache.evictions", 42);
        registry.gauge_set("cache.miss_rate", 0.0525);
        registry.histogram_record("trace.invocation_blocks", 100, 1);
        registry.histogram_record("trace.invocation_blocks", 3, 1);

        let mut report = RunReport::new("all_experiments");
        report.add_spans([
            span("study.trace", 0.150, 2),
            span("layout.opt_s", 0.005, 1),
        ]);
        report.add_metrics(&registry);
        report.add_section("fig12.shell", [("Base", 0.071), ("OptS", 0.021)]);

        let text = report.to_json().to_json_pretty();
        let parsed = RunReport::from_json(&text).expect("round trip");
        assert_eq!(parsed, report);
        assert_eq!(parsed.metric_count(), 3);
        assert_eq!(parsed.section_field("fig12.shell", "OptS"), Some(0.021));
        // Spans are name-sorted regardless of the order they are added in.
        assert_eq!(parsed.spans()[0].name, "layout.opt_s");
        let trace_span = &parsed.spans()[1];
        assert_eq!(trace_span.name, "study.trace");
        assert_eq!(trace_span.count, 2);
        assert!((trace_span.secs - 0.150).abs() < 1e-9);
    }

    #[test]
    fn write_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "kobserve_test_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let report = report_with(0.05);
        let json_path = dir.join("run.json");
        report.write(&json_path).unwrap();
        let back = RunReport::from_json(&fs::read_to_string(&json_path).unwrap()).unwrap();
        assert_eq!(back, report);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deterministic_json_drops_secs_but_keeps_counts() {
        let mut report = RunReport::new("r");
        report.add_spans([span("study.trace", 0.007, 1)]);
        report.add_section("fig12.shell", [("Base", 0.071)]);
        let text = report.to_json_deterministic().to_json_pretty();
        assert!(!text.contains("secs"));
        assert!(text.contains("\"count\""));
        assert!(text.contains("study.trace"));
        assert!(text.contains("fig12.shell"));

        // Identical content with different timings serializes identically.
        let mut report2 = RunReport::new("r");
        report2.add_spans([span("study.trace", 0.9, 1)]);
        report2.add_section("fig12.shell", [("Base", 0.071)]);
        assert_eq!(text, report2.to_json_deterministic().to_json_pretty());
    }

    #[test]
    fn deterministic_json_detects_content_differences() {
        // Archived-vs-live gates diff this serialization, so a metric or
        // section *value* change must change the bytes.
        let make = |evictions: u64, base: f64| {
            let registry = MetricRegistry::new();
            registry.counter_add("cache.evictions", evictions);
            registry.gauge_set("cache.miss_rate", 0.05);
            registry.histogram_record("trace.invocation_blocks", 17, 1);
            let mut r = RunReport::new("r");
            r.add_metrics(&registry);
            r.add_section("fig12.shell", [("Base", base)]);
            r
        };
        let a = make(42, 0.071).to_json_deterministic().to_json_pretty();
        assert_eq!(a, make(42, 0.071).to_json_deterministic().to_json_pretty());
        assert_ne!(
            a,
            make(43, 0.071).to_json_deterministic().to_json_pretty(),
            "counter value difference must be visible"
        );
        assert_ne!(
            a,
            make(42, 0.072).to_json_deterministic().to_json_pretty(),
            "section value difference must be visible"
        );
        // Full metric content survives, not just names.
        assert!(a.contains("\"cache.evictions\": 42"), "{a}");
        assert!(a.contains("\"cache.miss_rate\": 0.05"), "{a}");
        assert!(a.contains("trace.invocation_blocks"), "{a}");
    }

    #[test]
    fn deterministic_json_excludes_perf_sections() {
        let mut r = report_with(0.05);
        r.add_section("perf.alloc", [("alloc_calls", 123.0)]);
        let full = r.to_json().to_json_pretty();
        assert!(full.contains("perf.alloc"), "full JSON keeps perf.alloc");
        let det = r.to_json_deterministic().to_json_pretty();
        assert!(!det.contains("perf.alloc"), "{det}");
        assert!(det.contains("fig12.cc1"), "other sections survive");
    }

    #[test]
    fn from_json_rejects_non_reports() {
        assert!(RunReport::from_json("[]").is_err());
        assert!(RunReport::from_json("{\"name\": \"x\"}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }
}
