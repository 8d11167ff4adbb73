//! In-memory span recorder around the benchmark's calls into the
//! library, written out at exit as Chrome Trace Event JSON (viewable in
//! Perfetto or `chrome://tracing`).
//!
//! A disabled tracer records nothing: [`Tracer::span`] is then a plain
//! call of its closure, so the untraced timings pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `[start, end)` in nanoseconds since the tracer
/// was created, the enclosing span (if any) and the op it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace clock overflow")
    }

    /// Sets the op id stamped on the spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name` (a plain call when off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Closes the spans a panic left open, so later spans still nest.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        while let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = now;
        }
    }

    /// Self time of every span: its length minus the time its children
    /// cover (children of one span run one after another, never
    /// overlapping, so their lengths add).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per span name, the self time summed within each op, one entry per
    /// op that called it (in op order).
    pub fn self_ns_per_op(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let own = self.self_ns();
        let mut per: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *per.entry(s.name).or_default().entry(s.op).or_default() += ns;
        }
        per.into_iter().map(|(name, ops)| (name, ops.into_values().collect())).collect()
    }

    /// Checks that every span lies inside its parent and belongs to the
    /// parent's op.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns || s.op != ps.op {
                    return Err(format!("span {i} ({}) escapes parent {p} ({})", s.name, ps.name));
                }
            }
        }
        Ok(())
    }

    /// The spans as Chrome Trace Event JSON: complete (`"ph":"X"`)
    /// events in microseconds, with span id, parent id and op id in
    /// `args`.
    pub fn chrome_json(&self, category: &str) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{category}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            t.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("b", |_| ());
        });
        let own = t.self_ns();
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(own[0] + own[1] + own[2], total);
        assert!(own[1] >= 2_000_000);
        t.check_nesting().unwrap();
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |t| t.span("a", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }
}
