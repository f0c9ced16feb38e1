//! In-memory span recording, summary statistics and the result report.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the library itself is not instrumented. A
//! disabled [`Spans`] records nothing, so the untraced runs that produce
//! the end-to-end metrics pay only a branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span: a named interval on one thread. `unit` groups the
/// spans of one unit of work (a 64-shot batch, a served round), and
/// `parent` is the index of the enclosing span in the same buffer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub unit: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer sharing one time origin with its siblings.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Spans {
        Spans {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; returns its index (or `None` when disabled).
    pub fn open(&mut self, name: &'static str, unit: u64, parent: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, unit, None);
        let out = f();
        self.close(span);
        out
    }

    /// An empty buffer on the same thread and time origin.
    pub fn empty_like(&self, enabled: bool) -> Spans {
        Spans::new(enabled, self.origin, self.thread)
    }

    /// Moves the spans of `other` to the end of this buffer.
    pub fn append(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }
}

impl Default for Spans {
    /// A disabled buffer.
    fn default() -> Spans {
        Spans::new(false, Instant::now(), 0)
    }
}

/// Span totals per name: count, total and self time (total minus the part
/// covered by direct children).
#[derive(Default, Clone, Copy, Debug)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarise(buffers: &[Spans]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for buf in buffers {
        let mut child_ns = vec![0u64; buf.spans.len()];
        for s in &buf.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in buf.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
    }
    out
}

/// Writes every span as one CSV row: `thread,unit,index,parent,name,start_ns,end_ns`.
pub fn write_spans(path: &Path, buffers: &[Spans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,unit,index,parent,name,start_ns,end_ns")?;
    for buf in buffers {
        for (i, s) in buf.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                buf.thread, s.unit, i, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

/// Nearest-rank percentile of an unsorted sample (`q` in `0..=1`).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// `trace.overhead` of a repeatable pass: `pass(traced)` runs it once with
/// spans on or off and returns its wall seconds. The passes run untraced,
/// traced, traced, untraced, so a steady drift in pass time (a shared
/// cache that grows, a host that speeds up) cancels out; the result is the
/// mean of the two traced/untraced wall ratios, minus 1. The caller warms
/// the pass up first.
pub fn overhead(mut pass: impl FnMut(bool) -> f64) -> f64 {
    let (plain_a, traced_a) = (pass(false), pass(true));
    let (traced_b, plain_b) = (pass(true), pass(false));
    let ratios = [traced_a / plain_a, traced_b / plain_b];
    println!("  traced/untraced wall ratios: {ratios:.3?}");
    (ratios[0] + ratios[1]) / 2.0 - 1.0
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The metrics of one run, in insertion order, with their units.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if let Some(m) = self.metrics.iter_mut().find(|m| m.0 == name) {
            *m = (name, value, unit);
        } else {
            self.metrics.push((name, value, unit));
        }
    }

    /// Prints the human-readable table: the named metrics, then every
    /// other metric that was measured (non-zero).
    pub fn print(&self, names: &[&str], title: &str) {
        println!("{title}");
        let named = names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|m| m.0 == *n));
        let others = self
            .metrics
            .iter()
            .filter(|m| !names.contains(&m.0) && m.1 != 0.0);
        for (name, value, unit) in named.chain(others) {
            if *value != 0.0 && value.abs() < 1e-3 {
                println!("  {name:<34} {value:>16.6e} {unit}");
            } else {
                println!("  {name:<34} {value:>16.6} {unit}");
            }
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with the named metrics in the given order.
    pub fn json(&self, names: &[&str], attempted: u64, failed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, name) in names.iter().enumerate() {
            let (_, value, unit) = self
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `VmHWM` (peak resident set) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds consumed so far by a process.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, in clock ticks (100 per second
    // on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}
