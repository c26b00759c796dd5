//! Point-in-time exporters: one [`ObsSnapshot`] carries every counter,
//! gauge, and histogram in the registry plus the recent span rings,
//! renderable as text or JSON and encodable on the wire (the codec
//! lives in `orchestra-net`, which answers the `METRICS` opcode with
//! exactly this struct).
//!
//! Determinism: metric sections iterate the registry's `BTreeMap`s, so
//! they are always name-sorted; spans are sorted by their global
//! completion sequence. Two snapshots taken with no intervening
//! activity are byte-identical in every rendering.

use crate::registry::with_registry;
use crate::span::collect_spans;

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    /// One count per bucket; bounds are implicit
    /// ([`crate::bucket_bound`]).
    pub buckets: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    pub name: String,
    pub trace: u64,
    pub start_us: u64,
    pub dur_us: u64,
    pub thread: u64,
    pub seq: u64,
    pub attrs: Vec<(String, String)>,
}

/// Everything the obs layer knows, at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSnapshot {
    /// Name-sorted `(name, registry total)` pairs.
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<HistogramSnapshot>,
    /// Recent spans from every thread ring, sorted by completion seq.
    pub spans: Vec<SpanSnapshot>,
}

/// Snapshot the whole registry.
pub fn snapshot() -> ObsSnapshot {
    snapshot_filtered("")
}

/// Snapshot only entries (metrics by name, spans by span name) that
/// start with `prefix`. Tests use unique prefixes to stay isolated
/// from the process-global registry shared with parallel test threads.
pub fn snapshot_filtered(prefix: &str) -> ObsSnapshot {
    let (counters, gauges, histograms) = with_registry(|r| {
        let counters: Vec<(String, u64)> = r
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, e)| (n.clone(), e.total()))
            .collect();
        let gauges: Vec<(String, i64)> = r
            .gauges
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, e)| (n.clone(), e.total()))
            .collect();
        let histograms: Vec<HistogramSnapshot> = r
            .histograms
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, e)| {
                let (count, sum, buckets) = e.read();
                HistogramSnapshot {
                    name: n.clone(),
                    count,
                    sum,
                    buckets,
                }
            })
            .collect();
        (counters, gauges, histograms)
    });
    let mut spans: Vec<SpanSnapshot> = collect_spans()
        .into_iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| SpanSnapshot {
            name: s.name.to_string(),
            trace: s.trace,
            start_us: s.start_us,
            dur_us: s.dur_us,
            thread: s.thread,
            seq: s.seq,
            attrs: s
                .attrs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        })
        .collect();
    spans.sort_by_key(|s| s.seq);
    ObsSnapshot {
        counters,
        gauges,
        histograms,
        spans,
    }
}

impl ObsSnapshot {
    /// Keep only entries whose name starts with `prefix` (applies the
    /// same rule [`snapshot_filtered`] uses, but to an existing
    /// snapshot — e.g. one received over the wire).
    pub fn filtered(&self, prefix: &str) -> ObsSnapshot {
        ObsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|h| h.name.starts_with(prefix))
                .cloned()
                .collect(),
            spans: self
                .spans
                .iter()
                .filter(|s| s.name.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }

    /// Human-readable dump (`orchestra-top`, debugging).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# counters\n");
        for (n, v) in &self.counters {
            out.push_str(&format!("{n} = {v}\n"));
        }
        out.push_str("# gauges\n");
        for (n, v) in &self.gauges {
            out.push_str(&format!("{n} = {v}\n"));
        }
        out.push_str("# histograms (count / sum_us / mean_us)\n");
        for h in &self.histograms {
            let mean = h.sum.checked_div(h.count).unwrap_or(0);
            out.push_str(&format!(
                "{} = {} / {} / {}\n",
                h.name, h.count, h.sum, mean
            ));
        }
        out.push_str(&format!("# spans ({})\n", self.spans.len()));
        for s in &self.spans {
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "[{:016x}] {} +{}us {}us t{} {}\n",
                s.trace,
                s.name,
                s.start_us,
                s.dur_us,
                s.thread,
                attrs.join(" ")
            ));
        }
        out
    }

    /// JSON rendering (hand-rolled; no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_pairs(
            &mut out,
            self.counters.iter().map(|(n, v)| (n, v.to_string())),
        );
        out.push_str("},\"gauges\":{");
        push_pairs(
            &mut out,
            self.gauges.iter().map(|(n, v)| (n, v.to_string())),
        );
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for h in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum_us\":{},\"buckets\":[{}]}}",
                json_str(&h.name),
                h.count,
                h.sum,
                h.buckets
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        out.push_str("},\"spans\":[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":{},\"trace\":\"{:016x}\",\"start_us\":{},\"dur_us\":{},\
                 \"thread\":{},\"seq\":{},\"attrs\":{{",
                json_str(&s.name),
                s.trace,
                s.start_us,
                s.dur_us,
                s.thread,
                s.seq
            ));
            push_pairs(&mut out, s.attrs.iter().map(|(k, v)| (k, json_str(v))));
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

fn push_pairs<'a>(out: &mut String, pairs: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (k, v) in pairs {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&json_str(k));
        out.push(':');
        out.push_str(&v);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_deterministic_and_name_sorted() {
        // Register deliberately out of name order.
        let b = crate::counter("test.detsnap.b");
        let a = crate::counter("test.detsnap.a");
        b.add(2);
        a.add(1);
        let g = crate::gauge("test.detsnap.g");
        g.set(-3);
        let h = crate::histogram("test.detsnap.h");
        h.record(10);

        let s1 = snapshot_filtered("test.detsnap.");
        let s2 = snapshot_filtered("test.detsnap.");
        assert_eq!(s1, s2);
        assert_eq!(s1.render_text(), s2.render_text());
        assert_eq!(s1.to_json(), s2.to_json());
        let names: Vec<&str> = s1.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["test.detsnap.a", "test.detsnap.b"]);
        assert_eq!(s1.counters[0].1, 1);
        assert_eq!(s1.counters[1].1, 2);
        assert_eq!(s1.gauges, vec![("test.detsnap.g".to_string(), -3)]);
        assert_eq!(s1.histograms.len(), 1);
        assert_eq!(s1.histograms[0].count, 1);
    }

    #[test]
    fn json_escapes_and_has_shape() {
        let snap = ObsSnapshot {
            counters: vec![("a\"b".to_string(), 1)],
            gauges: vec![("g".to_string(), -2)],
            histograms: vec![HistogramSnapshot {
                name: "h".to_string(),
                count: 1,
                sum: 5,
                buckets: vec![0, 1],
            }],
            spans: vec![SpanSnapshot {
                name: "s".to_string(),
                trace: 0xab,
                start_us: 1,
                dur_us: 2,
                thread: 3,
                seq: 4,
                attrs: vec![("k".to_string(), "line\nbreak".to_string())],
            }],
        };
        let j = snap.to_json();
        assert!(j.contains("\"a\\\"b\":1"));
        assert!(j.contains("\"gauges\":{\"g\":-2}"));
        assert!(j.contains("\"sum_us\":5"));
        assert!(j.contains("\"trace\":\"00000000000000ab\""));
        assert!(j.contains("line\\nbreak"));
    }

    #[test]
    fn filtered_matches_snapshot_filtered() {
        let c = crate::counter("test.filtview.x");
        c.inc();
        let full = snapshot_filtered("test.filtview");
        assert_eq!(full.filtered("test.filtview"), full);
        assert!(full.filtered("test.nothing").counters.is_empty());
    }
}
