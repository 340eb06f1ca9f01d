//! The benchmark's own spans: one per call into a layer's public function,
//! recorded from the benchmark's code (the engine is not instrumented).
//! Spans stay in memory and are written once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The job (batch job, refresh or repair) the span belongs to.
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. Disabled, `begin`/`end` record nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Spans opened from now on belong to `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self times (ns) of every span called `name`, optionally only those
    /// whose parent is called `parent`.
    pub fn self_times(&self, name: &str, parent: Option<&str>) -> Vec<u64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .filter(|(_, s)| match parent {
                None => true,
                Some(p) => s.parent.is_some_and(|i| self.spans[i].name == p),
            })
            .map(|(i, s)| {
                let kids: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                    .collect();
                self_time(s.start_ns, s.end_ns, &kids)
            })
            .collect()
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                out[p].push(i);
            }
        }
        out
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// A span's duration minus the union of its children's intervals, each
/// clipped to the span. Overlapping children are counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_duration() {
        assert_eq!(self_time(10, 50, &[]), 40);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // [20,40) and [30,60) overlap: union [20,60) = 40 of the 100.
        assert_eq!(self_time(0, 100, &[(20, 40), (30, 60)]), 60);
        // Nested child inside another child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Disjoint children add up.
        assert_eq!(self_time(0, 100, &[(0, 10), (50, 70)]), 70);
    }

    #[test]
    fn self_time_clips_children_to_the_span() {
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
    }

    #[test]
    fn recorder_links_parents_and_jobs() {
        let mut s = Spans::new(true);
        s.set_job(7);
        let outer = s.begin("job");
        s.time("formats.read", || ());
        s.end(outer);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].job, 7);
        assert_eq!(s.self_times("formats.read", Some("job")).len(), 1);
        assert!(s.self_times("formats.read", Some("probe")).is_empty());
        assert!(s.to_json().contains("\"name\": \"formats.read\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let o = s.begin("job");
        s.end(o);
        assert!(s.spans().is_empty());
    }
}
