//! The traced run's raw material: the benchmark's own spans around its
//! calls into each layer, kept in memory and written out at exit, and the
//! per-query profiles the solver already exports.

use alive2_obs::json::{esc, JsonValue};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one item share `item`; `parent` indexes the
/// span that made the call, in the same list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One JSON line; `parent` is the parent's index plus one, 0 for none.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"item\":{}}}",
            esc(self.name),
            self.start_ns,
            self.end_ns,
            self.parent.map_or(0, |p| p + 1),
            self.item
        )
    }
}

/// One client's span list. When disabled, opening a span reads no clock.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(false, Instant::now())
    }
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(
        &mut self,
        name: &'static str,
        item: usize,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns_since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns_since_epoch(Instant::now());
        }
    }

    /// The spans, with parent indices shifted by `offset` for appending
    /// to a list that already holds `offset` spans.
    pub fn into_spans(self, offset: usize) -> impl Iterator<Item = Span> {
        self.spans.into_iter().map(move |mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        })
    }
}

/// Sums the durations of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.to_json_line())?;
    }
    out.flush()
}

/// The fields of one `QueryProfile` line the per-layer split needs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Query {
    pub wall_us: u64,
    pub clauses_pre: u64,
    pub conflicts: u64,
    pub discharged: bool,
    pub cache_hit: bool,
    /// Not discharged and never looked up in the cache.
    pub bypassed: bool,
    pub solved: bool,
}

impl Query {
    pub fn from_json(v: &JsonValue) -> Query {
        let cache = v.get("cache").and_then(JsonValue::as_str).unwrap_or("none");
        let discharged = v.num("discharged") == 1;
        Query {
            wall_us: v.num("wall_us"),
            clauses_pre: v.num("clauses_pre"),
            conflicts: v.num("conflicts"),
            discharged,
            cache_hit: cache == "hit",
            bypassed: !discharged && cache == "none",
            solved: v.num("solved") == 1,
        }
    }
}

/// Reads the query profiles of a `--profile`-format file, skipping its
/// trailer line.
pub fn read_profiles(path: &Path) -> std::io::Result<Vec<Query>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter_map(JsonValue::parse)
        .filter(|v| v.get("rule_fires").is_none())
        .map(|v| Query::from_json(&v))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize_for_the_workspace_codec() {
        let mut rec = Recorder::new(true, Instant::now());
        let top = rec.open("bench.item", 4, None);
        let child = rec.open("ir.parse_module", 4, top);
        rec.close(child);
        rec.close(top);
        let spans: Vec<Span> = rec.into_spans(10).collect();
        assert_eq!(spans[1].parent, Some(10));
        assert!(spans[0].ns() >= spans[1].ns());
        for s in &spans {
            let v = JsonValue::parse(&s.to_json_line()).expect("a span line parses");
            assert_eq!(v.num("item"), 4);
            assert_eq!(v.get("name").and_then(JsonValue::as_str), Some(s.name));
        }
        assert_eq!(total_ns(&spans, "ir.parse_module"), spans[1].ns());
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::default();
        assert_eq!(rec.open("bench.item", 0, None), None);
        assert_eq!(rec.into_spans(0).count(), 0);
    }

    #[test]
    fn query_classes() {
        let line = "{\"job\":\"j\",\"wall_us\":12,\"clauses_pre\":30,\"conflicts\":2,\
                    \"discharged\":0,\"cache\":\"none\",\"incremental\":1,\"solved\":1,\
                    \"result\":\"unsat\"}";
        let q = Query::from_json(&JsonValue::parse(line).unwrap());
        assert!(q.bypassed && q.solved && !q.cache_hit && !q.discharged);
        assert_eq!((q.wall_us, q.clauses_pre, q.conflicts), (12, 30, 2));
    }
}
