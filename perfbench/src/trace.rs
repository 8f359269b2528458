//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers, written out when the run ends.
//!
//! A span's layer is the first two components of its name
//! (`chain.mempool.insert` belongs to `chain.mempool`). Self time is a
//! span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, as `<crate>.<module>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The record or block the call worked on (first 8 bytes of its id).
    pub id: u64,
}

/// Calls and self time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, in seconds.
    pub self_s: f64,
}

/// Records nested spans against one monotonic clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// The span id of a 32-byte digest.
pub fn id_of(digest: &[u8; 32]) -> u64 {
    let mut head = [0u8; 8];
    head.copy_from_slice(&digest[..8]);
    u64::from_be_bytes(head)
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    match name.match_indices('.').nth(1) {
        Some((at, _)) => &name[..at],
        None => name,
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Index of each span's outermost ancestor (itself for a root).
    fn roots(&self) -> Vec<usize> {
        let mut roots: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (index, span) in self.spans.iter().enumerate() {
            // A parent always starts, and so is stored, before its child.
            roots.push(span.parent.map_or(index, |p| roots[p]));
        }
        roots
    }

    /// Calls and self time per span name. With `under`, only the spans
    /// below a root span of that name count, the roots themselves not.
    pub fn by_name(&self, under: Option<&str>) -> BTreeMap<&'static str, Busy> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let roots = self.roots();
        let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            if let Some(root) = under {
                if span.parent.is_none() || self.spans[roots[index]].name != root {
                    continue;
                }
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[index]);
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Self time per layer below the root spans named `under`.
    pub fn by_layer(&self, under: &str) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (name, busy) in self.by_name(Some(under)) {
            *out.entry(layer_of(name).to_string()).or_default() += busy.self_s;
        }
        out
    }

    /// Summed duration of the root spans named `root`, in seconds.
    pub fn root_s(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":\"{:016x}\"}}",
                span.name, span.start_ns, span.end_ns, span.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_is_first_two_components() {
        assert_eq!(layer_of("chain.mempool.insert"), "chain.mempool");
        assert_eq!(layer_of("detect.autoverif"), "detect.autoverif");
        assert_eq!(layer_of("vm"), "vm");
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("perfbench.loop", 0, |t| {
            t.span("core.node.handle", 1, |t| {
                t.span("chain.record.sig_verify", 1, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
        });
        t.span("perfbench.restart", 0, |t| {
            t.span("core.node.restore", 2, |_| ())
        });
        let all = t.by_name(None);
        let parent = all["core.node.handle"];
        let child = all["chain.record.sig_verify"];
        assert_eq!(parent.calls, 1);
        assert!(child.self_s >= 0.005);
        assert!(parent.self_s < child.self_s);
        assert_eq!(t.spans[2].parent, Some(1));
        let in_loop = t.by_name(Some("perfbench.loop"));
        assert!(!in_loop.contains_key("perfbench.loop"));
        assert!(!in_loop.contains_key("core.node.restore"));
        let layers = t.by_layer("perfbench.loop");
        let sum: f64 = layers.values().sum();
        assert!((sum - parent.self_s - child.self_s).abs() < 1e-12);
        assert!(t.root_s("perfbench.loop") >= sum);
    }
}
