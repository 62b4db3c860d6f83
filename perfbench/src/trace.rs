//! The traced run's spans, kept in memory and written out at the end.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions. Every sampled op gets a root span
//! (`layer` = `"op"`); spans of calls made inside the op, and of the layer
//! calls replayed after it on the same inputs, name the op span as their
//! parent. A replayed span starts after its op ended.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub op: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// Per-op layer totals: for each layer, the summed duration (µs) of the
/// op's spans, and any counts recorded for the op.
#[derive(Debug, Clone, Default)]
pub struct OpSample {
    pub op_us: f64,
    pub layer_us: BTreeMap<&'static str, f64>,
    pub calls: BTreeMap<&'static str, u64>,
    pub counts: BTreeMap<&'static str, f64>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    samples: Vec<OpSample>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            samples: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs one op under a root span and opens its sample; `f` receives an
    /// [`OpScope`] to time the calls it makes inside the op. Returns the
    /// op's result and the scope, for the layer calls replayed after it.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut OpScope) -> T) -> (T, OpScope) {
        let root = self.spans.len() as u32;
        let mut scope = OpScope {
            epoch: self.epoch,
            op,
            root,
            children: Vec::new(),
            sample: OpSample::default(),
        };
        let start_ns = scope.now_ns();
        let out = f(&mut scope);
        let end_ns = scope.now_ns();
        self.spans.push(Span {
            id: root,
            op,
            layer: "op",
            start_ns,
            end_ns,
            parent: None,
        });
        scope.sample.op_us = (end_ns - start_ns) as f64 / 1e3;
        (out, scope)
    }

    /// Closes an op once its replayed calls are done: its child spans get
    /// their ids and its sample is kept.
    pub fn finish(&mut self, scope: OpScope) {
        for mut span in scope.children {
            span.id = self.spans.len() as u32;
            self.spans.push(span);
        }
        self.samples.push(scope.sample);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn samples(&self) -> &[OpSample] {
        &self.samples
    }

    /// Writes a header line and then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"op\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.id, s.op, s.layer, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

/// The spans and sample of one op in progress.
#[derive(Debug)]
pub struct OpScope {
    epoch: Instant,
    op: u64,
    root: u32,
    children: Vec<Span>,
    sample: OpSample,
}

impl OpScope {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.children.push(Span {
            id: 0,
            op: self.op,
            layer,
            start_ns,
            end_ns,
            parent: Some(self.root),
        });
        *self.sample.layer_us.entry(layer).or_default() += (end_ns - start_ns) as f64 / 1e3;
        *self.sample.calls.entry(layer).or_default() += 1;
        out
    }

    /// Adds `value` to the op's count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.sample.counts.entry(name).or_default() += value;
    }
}
