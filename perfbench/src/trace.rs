//! Spans recorded by the benchmark around calls into each layer's public
//! functions. A span records its name, start, end, parent and the id of
//! the wire request it belongs to; spans stay in memory and are written
//! out when the run ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent id of a span with no parent.
pub const NO_PARENT: u64 = 0;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never [`NO_PARENT`]).
    pub id: u64,
    /// The enclosing span's id, or [`NO_PARENT`].
    pub parent: u64,
    /// Id of the wire request the span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `concurrent.commit`.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in ns.
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Id of the client-side parent span of wire request `request`.
pub fn client_span_id(request: u64) -> u64 {
    (1 << 63) | request
}

/// Id of wire request `seq` (warm-up included) of connection `conn`.
pub fn request_id(conn: usize, seq: usize) -> u64 {
    ((conn as u64) << 32) | seq as u64
}

/// A single thread's span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    /// Spans recorded so far, in closing order.
    pub spans: Vec<Span>,
}

/// A span that has been opened and not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The open span's id (to parent further spans under it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The wire request the open span belongs to.
    pub fn request(&self) -> u64 {
        self.request
    }
}

impl SpanLog {
    /// A log for thread `thread`, timing from `epoch`. Span ids are
    /// unique across threads.
    pub fn new(thread: usize, epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            next: ((thread as u64 + 1) << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        let id = self.next;
        self.next += 1;
        Open {
            id,
            parent,
            request,
            name,
            start_ns: self.now(),
        }
    }

    /// Close `open` now; returns its end time.
    pub fn close(&mut self, open: Open) -> u64 {
        let end_ns = self.now();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
        end_ns
    }

    /// Record a span measured inside the program, of which only the
    /// length is known: it is placed to end at `end_ns`.
    pub fn record_len(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        end_ns: u64,
        len_ns: u64,
    ) {
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: end_ns.saturating_sub(len_ns),
            end_ns,
        });
    }
}

/// Self time per span name: each span's duration minus the part its
/// children cover (children of one span never overlap — they ran one
/// after the other on the span's thread), summed by name.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            *covered.entry(s.parent).or_default() += s.duration();
        }
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        let own = s
            .duration()
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Total duration of each span's direct children, by parent id.
pub fn child_time(spans: &[Span]) -> HashMap<u64, u64> {
    let mut out: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            *out.entry(s.parent).or_default() += s.duration();
        }
    }
    out
}

/// Write spans as CSV (`request,id,parent,name,start_ns,end_ns`).
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "request,id,parent,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.request, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(2, 1, "child", 10, 30),
            span(3, 1, "child", 40, 45),
            span(4, 2, "grandchild", 12, 20),
            span(1, NO_PARENT, "root", 0, 100),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], 75);
        assert_eq!(st["child"], 17);
        assert_eq!(st["grandchild"], 8);
        assert_eq!(child_time(&spans)[&1], 25);
    }
}
