//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing is written while a loop runs; the traced run writes all
//! spans out once, at the end.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one operation share `op`; `parent` is the
/// span that caused this one (0 for an operation's root span).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Ids are unique across threads because each
/// thread's ids carry its index in the top bits.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, thread: u64, enabled: bool) -> Self {
        Spans {
            epoch,
            enabled,
            next: (thread << 48) + 1,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `[start_ns, end_ns)` under `parent` and returns its id (0
    /// when recording is off).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_recording_can_be_off() {
        let mut a = Spans::new(Instant::now(), 1, true);
        let mut b = Spans::new(Instant::now(), 2, true);
        let root = a.record("op", 1, 0, 0, 100);
        let child = a.record("child", 1, root, 10, 40);
        let other = b.record("op", 2, 0, 0, 5);
        assert_eq!(a.spans[1].parent, root);
        assert!(root != child && root != other && child != other);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        let mut off = Spans::new(Instant::now(), 3, false);
        assert_eq!(off.record("op", 1, 0, 0, 1), 0);
        assert!(off.spans.is_empty());
    }
}
