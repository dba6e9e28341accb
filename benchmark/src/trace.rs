//! The benchmark's own span recorder. Spans are taken around calls into each
//! layer from outside (the product code has no spans yet), kept in memory, and
//! written to `benchmark/out/trace-<workload>.jsonl` when the run ends. Spans
//! of one click share its click id; a span's self time is its duration minus
//! what its children cover.

use crate::json::{number, quote};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub click: u32,
    pub name: &'static str,
    /// What was clicked (`Q7`, `F1`, …) on root spans, empty otherwise.
    pub label: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its id for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        label: &'static str,
        parent: u32,
        click: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            click,
            name,
            label,
            start,
            end,
        });
        id
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_us = vec![0.0f64; self.spans.len() + 1];
        for s in &self.spans {
            child_us[s.parent as usize] += s.ms() * 1e3;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let us = s.ms() * 1e3;
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"click\":{},\"name\":{},\"label\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
                s.id,
                s.parent,
                s.click,
                quote(s.name),
                quote(s.label),
                number((s.start - self.epoch).as_secs_f64() * 1e6),
                number((s.end - self.epoch).as_secs_f64() * 1e6),
                number((us - child_us[s.id as usize]).max(0.0)),
            )?;
        }
        out.flush()
    }
}
