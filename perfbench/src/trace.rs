//! In-memory spans for the traced run: `{name, start_ns, end_ns,
//! parent, burst}`, recorded from the benchmark's own files around the
//! calls into each layer and written out as JSONL when the run ends.
//! A layer's self time is its span's duration minus its children's.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u16,
    /// The burst this span belongs to (its request identifier).
    pub burst: u32,
    /// Index of the parent span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Start, ns since the recorder's zero.
    pub start_ns: u64,
    /// End, ns since the recorder's zero.
    pub end_ns: u64,
}

/// The span recorder: the first `cap` spans, enough to read a trace by
/// hand. The per-layer metrics do not come from here: `layers.rs` sums
/// the same intervals as it takes them.
#[derive(Debug)]
pub struct Recorder {
    zero: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    cap: usize,
}

/// "No parent".
pub const ROOT: u32 = u32::MAX;

impl Recorder {
    /// A recorder keeping at most `cap` spans.
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            zero: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }

    /// Nanoseconds since the recorder's zero.
    pub fn now_ns(&self) -> u64 {
        self.zero.elapsed().as_nanos() as u64
    }

    /// Interns a span name (a dozen names at most: a linear search).
    fn intern(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Whether `n` more spans fit under the cap — asked before a parent
    /// is recorded, so a span is never kept without its children.
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.cap
    }

    /// Records a finished span and returns its index, usable as a
    /// parent — or `None`, recording nothing, once the cap is reached.
    pub fn record(
        &mut self,
        name: &'static str,
        burst: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u32> {
        if !self.has_room(1) {
            return None;
        }
        let name = self.intern(name);
        self.spans.push(Span { name, burst, parent, start_ns, end_ns });
        Some((self.spans.len() - 1) as u32)
    }

    /// The spans kept.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSONL, one span per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_owned() } else { s.parent.to_string() };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"burst\": {}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns, s.burst
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_and_the_cap_drops_whole_spans() {
        let mut r = Recorder::new(3);
        let root = r.record("burst", 7, ROOT, 0, 1_000).unwrap();
        assert_eq!(r.record("wire.decode", 7, root, 100, 500), Some(1));
        assert!(r.has_room(1) && !r.has_room(2));
        assert_eq!(r.record("route", 7, root, 600, 900), Some(2));
        assert_eq!(r.record("burst", 8, ROOT, 1_000, 2_000), None);
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.spans()[2].parent, 0);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"id\": 0, \"name\": \"burst\", \"start_ns\": 0, \"end_ns\": 1000, \"parent\": null, \"burst\": 7}"));
        assert!(text.contains("{\"id\": 2, \"name\": \"route\", \"start_ns\": 600, \"end_ns\": 900, \"parent\": 0, \"burst\": 7}"));
    }
}
