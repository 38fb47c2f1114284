//! Bench-owned spans. Nothing inside the program is instrumented: a
//! layer is timed by wrapping the calls into its public functions,
//! either with [`Tracer::span`] or, for simulation backends, with the
//! [`Timed`] wrapper that nests around each layer of a backend stack.
//!
//! Spans are kept in memory and written out as JSON lines when the
//! traced run ends.

use artisan::circuit::{Netlist, Topology};
use artisan::sim::cost::CostLedger;
use artisan::sim::{AnalysisReport, Result as SimResult, SimBackend};
use std::cell::RefCell;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Buf {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// A single-threaded span recorder. Clones share one buffer, so every
/// wrapper of one backend stack records into the same tree.
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Buf>>);

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer(Rc::new(RefCell::new(Buf {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        })))
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&self, op: u32) {
        self.0.borrow_mut().op = op;
    }

    fn now_ns(buf: &Buf) -> u64 {
        buf.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&self, name: &'static str) -> u32 {
        let mut buf = self.0.borrow_mut();
        let parent = buf.open.last().copied().unwrap_or(NO_PARENT);
        let op = buf.op;
        let id = buf.spans.len() as u32;
        let start_ns = Self::now_ns(&buf);
        buf.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        buf.open.push(id);
        id
    }

    pub fn exit(&self, id: u32) {
        let mut buf = self.0.borrow_mut();
        let end = Self::now_ns(&buf);
        buf.spans[id as usize].end_ns = end;
        let popped = buf.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Moves the recorded spans out.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.0.borrow_mut().spans)
    }
}

/// A transparent timing wrapper: every analysis call into `inner` is
/// one span named after the layer `inner` is. Results, ledger and
/// fault notes are the inner backend's, untouched.
pub struct Timed<B> {
    inner: B,
    tracer: Tracer,
    name: &'static str,
}

impl<B: SimBackend> Timed<B> {
    pub fn new(inner: B, tracer: &Tracer, name: &'static str) -> Self {
        Timed {
            inner,
            tracer: tracer.clone(),
            name,
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: SimBackend> SimBackend for Timed<B> {
    fn analyze_topology(&mut self, topo: &Topology) -> SimResult<AnalysisReport> {
        let id = self.tracer.enter(self.name);
        let out = self.inner.analyze_topology(topo);
        self.tracer.exit(id);
        out
    }

    fn analyze_netlist(&mut self, netlist: &Netlist) -> SimResult<AnalysisReport> {
        let id = self.tracer.enter(self.name);
        let out = self.inner.analyze_netlist(netlist);
        self.tracer.exit(id);
        out
    }

    fn analyze_batch(&mut self, topos: &[Topology]) -> Vec<SimResult<AnalysisReport>> {
        let id = self.tracer.enter(self.name);
        let out = self.inner.analyze_batch(topos);
        self.tracer.exit(id);
        out
    }

    fn ledger(&self) -> &CostLedger {
        self.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut CostLedger {
        self.inner.ledger_mut()
    }

    fn drain_fault_notes(&mut self) -> Vec<String> {
        self.inner.drain_fault_notes()
    }

    fn calls_made(&self) -> u64 {
        self.inner.calls_made()
    }

    fn fast_forward_calls(&mut self, calls: u64) {
        self.inner.fast_forward_calls(calls)
    }
}

/// Self time per span: its duration minus what its children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// Total duration of spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Total self time of spans named `name`.
pub fn total_self_ns(spans: &[Span], selfs: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| *t)
        .sum()
}

/// Durations (µs) of spans named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e3)
        .collect()
}

/// Writes spans as JSON lines under `.bench_trace/` in the working
/// directory (one file per workload, overwritten by each traced run).
pub fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan::sim::Simulator;

    #[test]
    fn timed_wrapper_is_transparent_and_nests() {
        let tracer = Tracer::new(Instant::now());
        let topo = Topology::nmc_example();
        let mut plain = Simulator::new();
        let mut timed = Timed::new(
            Timed::new(Simulator::new(), &tracer, "inner"),
            &tracer,
            "outer",
        );
        let a = plain.analyze_topology(&topo).map(|r| r.performance);
        let b = timed.analyze_topology(&topo).map(|r| r.performance);
        assert_eq!(a, b);
        assert_eq!(plain.ledger(), timed.ledger());
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, 0);
        let selfs = self_ns(&spans);
        assert_eq!(selfs[0] + spans[1].ns(), spans[0].ns());
    }
}
