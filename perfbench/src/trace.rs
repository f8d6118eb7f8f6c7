//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into the libraries'
//! public functions; nothing inside the libraries is instrumented. Each
//! span records its name, an optional phase tag, start and end (seconds
//! since the recorder was created), its parent and, unless opened with
//! [`Tracer::span_light`], the process CPU seconds spent while it was open.
//! Spans stay in memory until [`Tracer::write_jsonl`] writes them out.
//!
//! A disabled recorder ([`Tracer::off`]) runs the closure and records
//! nothing, so the same workload code serves the timed (untraced) runs.

use crate::host::process_cpu_s;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the recorder's span list.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// `layer.operation`; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Optional phase tag (e.g. `baseline`, `warmup`, `policy` for steps).
    pub phase: Option<&'static str>,
    /// Start, seconds since the recorder's epoch.
    pub start_s: f64,
    /// End, seconds since the recorder's epoch.
    pub end_s: f64,
    /// Process CPU seconds (all threads) while the span was open.
    pub cpu_s: Option<f64>,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing (the timed runs).
    pub fn off() -> Self {
        Self::new(false, String::new())
    }

    /// A recording tracer; every span carries `run_id`.
    pub fn on(run_id: String) -> Self {
        Self::new(true, run_id)
    }

    fn new(enabled: bool, run_id: String) -> Self {
        Self { enabled, run_id, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span that also measures process CPU time.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.record(name, None, true, f)
    }

    /// [`Tracer::span`] with a phase tag.
    pub fn span_in<T>(
        &mut self,
        name: &'static str,
        phase: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.record(name, Some(phase), true, f)
    }

    /// A span without the CPU reading, for calls of a few microseconds
    /// where two `/proc` reads would dwarf the call itself.
    pub fn span_light<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.record(name, None, false, f)
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        phase: Option<&'static str>,
        cpu: bool,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let cpu0 = cpu.then(process_cpu_s);
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span { id, parent, name, phase, start_s, end_s: start_s, cpu_s: None });
        self.open.push(id);
        let out = f(self);
        let end_s = self.epoch.elapsed().as_secs_f64();
        let cpu_s = cpu0.map(|c0| process_cpu_s() - c0);
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_s = end_s;
        span.cpu_s = cpu_s;
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with exactly this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The root span with this name (the last one, if several).
    pub fn root(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.parent.is_none() && s.name == name)
    }

    fn children(&self, id: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Self time of a span: its wall time minus the part of its interval
    /// that its direct children cover (children clipped to the parent and
    /// overlaps counted once).
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut intervals: Vec<(f64, f64)> = self
            .children(id)
            .map(|c| (c.start_s.max(span.start_s), c.end_s.min(span.end_s)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_s;
        for (a, b) in intervals {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.wall_s() - covered
    }

    /// Per-layer self time within the subtree of `root`, largest first.
    pub fn layer_self_times(&self, root: usize) -> Vec<(&'static str, f64)> {
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for s in self.subtree(root) {
            let t = self.self_time(s.id);
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some(entry) => entry.1 += t,
                None => by_layer.push((s.layer(), t)),
            }
        }
        by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
        by_layer
    }

    fn subtree(&self, root: usize) -> Vec<&Span> {
        let mut members = vec![root];
        // Children are always opened after their parent, so one forward
        // pass collects the whole subtree.
        for s in &self.spans[root + 1..] {
            if s.parent.is_some_and(|p| members.contains(&p)) {
                members.push(s.id);
            }
        }
        members.into_iter().map(|id| &self.spans[id]).collect()
    }

    /// Whether the root's direct children plus its self time add up to
    /// its wall time (children inside the root, none overlapping), to
    /// within a microsecond.
    pub fn root_adds_up(&self, root: usize) -> bool {
        let children: f64 = self.children(root).map(Span::wall_s).sum();
        (children + self.self_time(root) - self.spans[root].wall_s()).abs() < 1e-6
    }

    /// Prints, per root span, each layer's self time and share of the
    /// root, and whether the tree adds up. Returns `false` if any root's
    /// children and self time do not add up to it.
    pub fn print_summary(&self) -> bool {
        let mut all_add_up = true;
        for root in self.spans.iter().filter(|s| s.parent.is_none()) {
            let adds_up = self.root_adds_up(root.id);
            all_add_up &= adds_up;
            println!(
                "span root {} = {:.4} s (self {:.4} s; children + self add up: {adds_up})",
                root.name,
                root.wall_s(),
                self.self_time(root.id)
            );
            for (layer, t) in self.layer_self_times(root.id) {
                println!(
                    "  layer {layer:<10} self {t:>10.4} s  {:>5.1}% of root",
                    100.0 * t / root.wall_s()
                );
            }
        }
        all_add_up
    }

    /// Writes one JSON object per span (after a `run` header line holding
    /// `header`, a JSON object) to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(out, "{{\"run\":{},\"header\":{header}}}", json_str(&self.run_id));
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":{},\"phase\":{},\"start_s\":{},\"end_s\":{},\"cpu_s\":{}}}",
                json_str(&self.run_id),
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(s.name),
                s.phase.map_or("null".to_string(), json_str),
                s.start_s,
                s.end_s,
                s.cpu_s.map_or("null".to_string(), |c| c.to_string()),
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn nested_spans_partition_the_root() {
        let mut t = Tracer::on("test".into());
        t.span("pipeline.root", |t| {
            t.span("a.x", |t| {
                t.span_light("b.y", |_| std::thread::sleep(std::time::Duration::from_millis(2)))
            });
            t.span_in("a.x", "later", |_| std::thread::sleep(std::time::Duration::from_millis(1)));
        });
        let root = t.root("pipeline.root").expect("root recorded").id;
        assert!(t.root_adds_up(root));
        let total: f64 = t.layer_self_times(root).iter().map(|(_, s)| s).sum();
        assert!((total - t.spans()[root].wall_s()).abs() < 1e-9);
        assert_eq!(t.named("a.x").count(), 2);
        assert!(t.named("b.y").all(|s| s.cpu_s.is_none() && s.parent == Some(1)));
    }

    #[test]
    fn overlapping_children_are_reported() {
        let mut t = Tracer::on("test".into());
        t.span("pipeline.root", |t| {
            t.span("a.x", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        // Forge a second child covering the first: children would sum to
        // more than the root.
        let mut forged = t.spans()[1].clone();
        forged.id = 2;
        t.spans.push(forged);
        assert!(!t.root_adds_up(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("a.x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
