//! Boundary spans recorded from outside the layers, and the
//! [`Traced`] operand wrapper that records one around every
//! [`LinearOperand`] call.
//!
//! Spans live in a per-thread buffer (the harness drives every workload
//! from one load-generating thread), are kept in memory for the whole
//! run, and are written to `out/spans-<workload>.jsonl` at exit. With
//! tracing off, opening a span is one relaxed load.

use morpheus_core::{LinearOperand, Matrix};
use morpheus_dense::DenseMatrix;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the buffer.
    pub id: u32,
    /// The span that was open when this one started, or [`NO_PARENT`].
    pub parent: u32,
    /// Boundary name, e.g. `core.op.lmm`.
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
}

impl Span {
    /// `end − start` in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static BUFFER: RefCell<Buffer> = RefCell::new(Buffer::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    now_ns(); // pin the epoch before the first span
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records its end when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard(Option<u32>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let end = now_ns();
            BUFFER.with(|b| {
                let mut b = b.borrow_mut();
                b.spans[id as usize].end_ns = end;
                let popped = b.open.pop();
                debug_assert_eq!(popped, Some(id), "spans must close innermost first");
            });
        }
    }
}

/// Opens a span on the calling thread, child of whatever span that
/// thread has open.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let id = b.spans.len() as u32;
        let parent = b.open.last().copied().unwrap_or(NO_PARENT);
        b.open.push(id);
        b.spans.push(Span {
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        id
    });
    // Stamp the start after the bookkeeping so it is not charged to the span.
    let start = now_ns();
    BUFFER.with(|b| b.borrow_mut().spans[id as usize].start_ns = start);
    SpanGuard(Some(id))
}

/// Runs `f` inside a span.
pub fn in_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

/// Id of the innermost span open on the calling thread.
pub fn current() -> Option<u32> {
    BUFFER.with(|b| b.borrow().open.last().copied())
}

/// A copy of the spans the calling thread has recorded so far.
pub fn snapshot() -> Vec<Span> {
    BUFFER.with(|b| b.borrow().spans.clone())
}

/// Per-span self time: its duration minus the part of it its direct
/// children cover. Children of one thread never overlap, so that part is
/// the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Sum of durations, in seconds, of the spans `keep` selects.
pub fn total_s(spans: &[Span], keep: impl Fn(&Span) -> bool) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| keep(s))
        .map(Span::duration_ns)
        .sum();
    ns as f64 / 1e9
}

/// Sum of durations, in seconds, of the spans named `name`.
pub fn named_s(spans: &[Span], name: &str) -> f64 {
    total_s(spans, |s| s.name == name)
}

/// Whether `s` has an ancestor (or is itself) named `name`.
pub fn is_under(spans: &[Span], s: &Span, name: &str) -> bool {
    let mut cur = *s;
    loop {
        if cur.name == name {
            return true;
        }
        if cur.parent == NO_PARENT {
            return false;
        }
        cur = spans[cur.parent as usize];
    }
}

/// Writes `spans` as JSON lines: `{"id","parent","name","start_ns","end_ns"}`,
/// `parent` being `null` for roots.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Prefix shared by the operand-call spans [`Traced`] records.
pub const OP_PREFIX: &str = "core.op.";

/// A [`LinearOperand`] that delegates every call to the wrapped operand
/// and records a span around it. Results are the wrapped operand's own,
/// bit for bit; `scale` / `squared` stay wrapped so derived operands keep
/// being traced.
#[derive(Debug, Clone)]
pub struct Traced<M>(pub M);

impl<M: LinearOperand> LinearOperand for Traced<M> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }

    fn ncols(&self) -> usize {
        self.0.ncols()
    }

    fn lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        in_span("core.op.lmm", || self.0.lmm(x))
    }

    fn lmm_into(&self, x: &DenseMatrix, out: &mut [f64]) {
        in_span("core.op.lmm", || self.0.lmm_into(x, out))
    }

    fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        in_span("core.op.t_lmm", || self.0.t_lmm(x))
    }

    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        in_span("core.op.rmm", || self.0.rmm(x))
    }

    fn crossprod(&self) -> DenseMatrix {
        in_span("core.op.crossprod", || self.0.crossprod())
    }

    fn row_sums(&self) -> DenseMatrix {
        in_span("core.op.row_sums", || self.0.row_sums())
    }

    fn col_sums(&self) -> DenseMatrix {
        in_span("core.op.col_sums", || self.0.col_sums())
    }

    fn sum(&self) -> f64 {
        in_span("core.op.sum", || self.0.sum())
    }

    fn scale(&self, x: f64) -> Self {
        Traced(in_span("core.op.scale", || self.0.scale(x)))
    }

    fn squared(&self) -> Self {
        Traced(in_span("core.op.squared", || self.0.squared()))
    }

    fn ginv(&self) -> DenseMatrix {
        in_span("core.op.ginv", || self.0.ginv())
    }

    fn materialize(&self) -> Matrix {
        in_span("core.op.materialize", || self.0.materialize())
    }
}
