//! Turns a run's measurements into named metrics and prints the context
//! line and the result line.

use crate::context::{self, Context};
use crate::stats::{self, Quantile};
use crate::{Measured, TraceRun};
use std::fmt::Write;

/// Root span of each traced replay's served loop.
pub const LOOP_ROOT: &str = "perfbench.loop";

/// Layers whose self time and share of the untraced wall time the traced
/// run reports.
const LAYERS: [&str; 11] = [
    "chain.record",
    "chain.mempool",
    "chain.block",
    "chain.store",
    "chain.validate",
    "chain.storage",
    "net.sync",
    "detect.autoverif",
    "core.verify",
    "core.node",
    "core.platform",
];

/// Largest stage-sum gap, as a share of the untraced wall time, that the
/// traced replay may show before the run flags it.
const STAGE_SUM_TOLERANCE: f64 = 0.10;

#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Debug, Default)]
struct Metrics {
    list: Vec<Metric>,
    quantiles: Vec<(String, Quantile)>,
}

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.list.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn quantile(&mut self, name: &str, q: Quantile) {
        self.push(name, q.value, "ms");
        self.quantiles.push((name.to_string(), q));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A percentile of `samples` taken per episode and averaged over the
/// run's episodes; `EpisodeTotals::samples[which]` gives each episode's
/// share of `samples`. The host's speed drifts in phases of seconds: a
/// percentile of the pooled samples would jump to whichever phase holds
/// most of them, where the mean over episodes moves with the share of
/// each. A stall that delays every record in flight stays in its own
/// episode's tail.
fn per_episode(
    m: &Measured,
    samples: &[f64],
    which: usize,
    percentile: fn(&[f64]) -> Quantile,
) -> Quantile {
    let mut start = 0;
    let mut per: Vec<Quantile> = Vec::new();
    for e in &m.episodes {
        let end = start + e.samples[which];
        if end > start {
            per.push(percentile(&samples[start..end]));
        }
        start = end;
    }
    let mean = |f: fn(&Quantile) -> f64| per.iter().map(f).sum::<f64>() / per.len().max(1) as f64;
    Quantile {
        value: mean(|q| q.value),
        percentile: mean(|q| q.percentile),
        n: samples.len(),
    }
}

fn end_to_end(m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    out.push("setup_s", stats::median(&m.setup_s), "s");
    out.push(
        "records_per_s",
        ratio(m.records_confirmed as f64, m.loop_s),
        "1/s",
    );
    out.quantile(
        "record_confirm_p50_ms",
        per_episode(m, &m.record_confirm_ms, 0, stats::p50),
    );
    out.quantile(
        "record_confirm_tail_ms",
        per_episode(m, &m.record_confirm_ms, 0, stats::tail),
    );
    out.push("blocks_per_s", ratio(m.blocks as f64, m.loop_s), "1/s");
    out.quantile(
        "block_accept_p50_ms",
        per_episode(m, &m.block_accept_ms, 1, stats::p50),
    );
    out.quantile(
        "block_accept_tail_ms",
        per_episode(m, &m.block_accept_ms, 1, stats::tail),
    );
    out.push("restart_s", stats::median(&m.restart_s), "s");
    out.push(
        "reports_per_s",
        ratio(m.reports_resolved as f64, m.loop_s),
        "1/s",
    );
    out.quantile("submit_p50_ms", per_episode(m, &m.submit_ms, 2, stats::p50));
    out.quantile(
        "submit_tail_ms",
        per_episode(m, &m.submit_ms, 2, stats::tail),
    );
    out.push("peak_rss_mb", context::peak_rss_mb(), "MB");
    out
}

fn per_layer(m: &Measured, t: &TraceRun, flags: &mut Vec<String>) -> Metrics {
    let mut out = Metrics::default();
    let c = &t.counters;
    let all = t.tracer.by_name(None);
    let busy = |name: &str| all.get(name).map_or(0.0, |b| b.self_s);
    let calls = |name: &str| all.get(name).map_or(0, |b| b.calls) as f64;

    out.push(
        "chain.record.sig_verify.calls",
        c.sigcache_miss as f64,
        "count",
    );
    out.push(
        "chain.record.sig_verify.busy_s",
        busy("chain.record.sig_verify"),
        "s",
    );
    out.push(
        "core.verify.report_sig.calls",
        calls("core.verify.report_sig"),
        "count",
    );
    out.push(
        "core.verify.report_sig.busy_s",
        busy("core.verify.report_sig"),
        "s",
    );
    out.push("detect.autoverif.calls", c.autoverif_runs as f64, "count");
    out.push("detect.autoverif.busy_s", busy("detect.autoverif"), "s");
    out.push(
        "detect.autoverif.pass_ratio",
        ratio(c.autoverif_pass as f64, c.autoverif_runs as f64),
        "ratio",
    );
    out.push(
        "chain.mempool.insert.busy_s",
        busy("chain.mempool.insert"),
        "s",
    );
    out.push(
        "chain.mempool.take_best.busy_s",
        busy("chain.mempool.take_best"),
        "s",
    );
    out.push(
        "chain.mempool.queue_wait_p50_ms",
        stats::median(&t.queue_wait_ms),
        "ms",
    );
    out.push(
        "chain.block.assemble.busy_s",
        busy("chain.block.assemble"),
        "s",
    );
    out.push("chain.store.commit.busy_s", busy("chain.store.commit"), "s");
    out.push(
        "chain.validate.block.calls",
        calls("chain.validate.block"),
        "count",
    );
    out.push(
        "chain.validate.block.busy_s",
        busy("chain.validate.block"),
        "s",
    );
    out.push("net.sync.offer.busy_s", busy("net.sync.offer"), "s");
    out.push(
        "net.sync.buffered_ratio",
        ratio(c.sync_buffered as f64, c.sync_offers as f64),
        "ratio",
    );
    out.push(
        "chain.storage.commit.busy_s",
        busy("chain.storage.commit"),
        "s",
    );
    out.push(
        "chain.storage.bytes_per_block",
        ratio(t.store_bytes as f64, t.store_blocks as f64),
        "B",
    );
    out.push("chain.storage.open_s", stats::median(&t.open_s), "s");
    out.push("core.node.restore_s", stats::median(&t.restore_s), "s");
    out.push("vm.exec.calls", c.vm_exec_calls as f64, "count");
    out.push("vm.exec.gas_total", c.vm_gas as f64, "gas");
    out.push(
        "core.platform.submit.busy_s",
        busy("core.platform.submit"),
        "s",
    );
    out.push(
        "core.platform.mine_block.busy_s",
        busy("core.platform.mine_block"),
        "s",
    );
    let lookups = (c.sigcache_hit + c.sigcache_miss) as f64;
    out.push(
        "chain.sigcache.hit_ratio",
        ratio(c.sigcache_hit as f64, lookups),
        "ratio",
    );
    out.push("chain.sigcache.hits", c.sigcache_hit as f64, "count");
    out.push("chain.sigcache.misses", c.sigcache_miss as f64, "count");
    out.push(
        "pool.tasks_per_record",
        ratio(c.pool_tasks as f64, m.records_delivered as f64),
        "count",
    );
    out.push("core.node.record_dropped", c.record_dropped as f64, "count");
    out.push(
        "core.node.blocks_rejected",
        c.blocks_rejected as f64,
        "count",
    );
    out.push(
        "chain.validate.rejected",
        c.validate_rejected as f64,
        "count",
    );
    out.push("chain.mempool.rejected", c.mempool_rejected as f64, "count");
    out.push(
        "core.verify.autoverif_fail",
        c.autoverif_fail as f64,
        "count",
    );
    out.push(
        "error_rate",
        ratio(m.failed as f64, m.attempted as f64),
        "ratio",
    );

    let layers = t.tracer.by_layer(LOOP_ROOT);
    let stage_sum: f64 = layers.values().sum();
    for layer in LAYERS {
        let own = layers.get(layer).copied().unwrap_or(0.0);
        out.push(format!("layer.{layer}.self_s"), own, "s");
        out.push(
            format!("layer.{layer}.share"),
            ratio(own, t.untraced_s),
            "ratio",
        );
    }
    let gap = ratio(stage_sum, t.untraced_s) - 1.0;
    out.push("trace.stage_sum_s", stage_sum, "s");
    out.push("trace.untraced_wall_s", t.untraced_s, "s");
    out.push("trace.traced_wall_s", t.traced_s, "s");
    out.push("trace.stage_sum_gap", gap, "ratio");
    out.push(
        "trace.overhead",
        ratio(t.traced_s, t.untraced_s) - 1.0,
        "ratio",
    );
    if gap.abs() > STAGE_SUM_TOLERANCE {
        flags.push(format!(
            "stage sum {stage_sum:.3} s is {:+.1}% of the untraced wall time {:.3} s (tolerance ±{:.0}%)",
            gap * 100.0,
            t.untraced_s,
            STAGE_SUM_TOLERANCE * 100.0
        ));
    }
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the context line and then the result line.
pub fn print(ctx: &Context, m: &Measured, traced: Option<&TraceRun>) {
    let mut flags = Vec::new();
    let metrics = match traced {
        Some(t) => per_layer(m, t, &mut flags),
        None => end_to_end(m),
    };
    let steal = ctx.cpu_after.steal.saturating_sub(ctx.cpu_before.steal);
    let ticks = ctx.cpu_after.total.saturating_sub(ctx.cpu_before.total);
    let quantiles: Vec<String> = metrics
        .quantiles
        .iter()
        .map(|(name, q)| {
            format!(
                "{}:{{\"percentile\":{},\"n\":{}}}",
                string(name),
                num(q.percentile),
                q.n
            )
        })
        .collect();
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| string(s))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "{{\"context\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"commit\":{},\"nproc\":{},\"pool_threads\":{},\"episodes\":{},\"records_delivered\":{},\"measured_s\":{},\"episode_loop_s\":[{}],\"host_steal_ticks\":{steal},\"host_cpu_ticks\":{ticks},\"quantiles\":{{{}}},\"failed_checks\":[{}],\"flags\":[{}]}}}}",
        string(ctx.args.workload.name()),
        ctx.args.seed,
        num(ctx.args.seconds),
        u8::from(ctx.args.trace),
        ctx.args.smoke,
        string(&context::commit()),
        ctx.nproc,
        ctx.pool_threads,
        ctx.episodes,
        m.records_delivered,
        num(m.loop_s + traced.map_or(0.0, |t| t.traced_s)),
        m.episodes
            .iter()
            .map(|e| num(e.loop_s))
            .collect::<Vec<_>>()
            .join(","),
        quantiles.join(","),
        list(&m.check_failures),
        list(&flags),
    );
    for flag in &flags {
        eprintln!("perfbench: warning: {flag}");
    }
    let body: Vec<String> = metrics
        .list
        .iter()
        .map(|x| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(&x.name),
                num(x.value),
                string(x.unit)
            )
        })
        .collect();
    let correct = m.check_failures.is_empty() && m.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.attempted,
        m.failed,
        body.join(",")
    );
}
