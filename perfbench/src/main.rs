//! End-to-end and per-layer benchmark of a SmartCrowd provider node.
//!
//! ```text
//! perfbench --workload <ingest|catchup|bounty> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each workload is a closed loop in this one process, driven only
//! through the public API. One episode is one fresh system (node or
//! platform) fed one seeded input set; episodes repeat until `--seconds`
//! of measured time has passed. Input generation runs between episodes
//! and is never timed. Delivery between nodes is instant, so every
//! latency is processor plus disk time.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` each episode runs untraced first and then replays the
//! same inputs with spans around every call into a layer; the run prints
//! the per-layer metrics, the stage sum against the untraced wall time,
//! and writes the spans to `perfbench/out/`. The last line of standard
//! output is the result object; the line before it is the run context.
//! `README.md` beside this crate defines every metric.

mod bounty;
mod catchup;
mod confirm;
mod context;
mod ingest;
mod report;
mod stats;
mod trace;

use smartcrowd::chain::persist::{export_chain, import_chain};
use smartcrowd::chain::{sigcache, Block, ChainQuery, Record};
use smartcrowd::core::node::ProviderNode;
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::detect::library::VulnLibrary;
use smartcrowd::telemetry::{buckets, global};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Minimum episodes per run, so `setup_s` and `restart_s` are medians.
const MIN_EPISODES: u64 = 5;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Signed reports gossiped into one provider node that mines them.
    Ingest,
    /// A follower on the durable store catching up on a sparse chain.
    Catchup,
    /// The platform's escrowed bounty market from release to payout.
    Bounty,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "catchup" => Some(Workload::Catchup),
            "bounty" => Some(Workload::Bounty),
            _ => None,
        }
    }

    /// The name used on the command line and in key derivation.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Catchup => "catchup",
            Workload::Bounty => "bounty",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Tiny inputs and a single episode, for the benchmark's own tests.
    pub smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut smoke = false;
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = rest.next().ok_or(format!("{flag} needs a value"))?;
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let workload =
        Workload::parse(get("--workload")?).ok_or("--workload is ingest, catchup or bounty")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err("--seconds must be within 0..=3600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// A seed for one episode's inputs, distinct per workload and episode.
pub fn episode_seed(args: &Args, episode: u64) -> u64 {
    let tag = match args.workload {
        Workload::Ingest => 1u64,
        Workload::Catchup => 2,
        Workload::Bounty => 3,
    };
    // SplitMix64 finalizer over (seed, workload, episode).
    let mut z = args
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag << 56)
        .wrapping_add(episode.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A label that makes keys and names unique to one run, workload and
/// episode, so no record id repeats across them.
pub fn episode_label(args: &Args, episode: u64) -> String {
    format!("perfbench/{}/{}/{episode}", args.workload.name(), args.seed)
}

/// What the untraced passes measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up time of each episode's system, seconds.
    pub setup_s: Vec<f64>,
    /// Restart time of each episode's node, seconds.
    pub restart_s: Vec<f64>,
    /// Wall time of the served loops, seconds.
    pub loop_s: f64,
    /// Delivered records that reached 6 confirmations.
    pub records_confirmed: u64,
    /// Blocks connected.
    pub blocks: u64,
    /// Report pairs resolved.
    pub reports_resolved: u64,
    /// Per record: delivery to 6 confirmations, ms.
    pub record_confirm_ms: Vec<f64>,
    /// Per block-connecting call, ms.
    pub block_accept_ms: Vec<f64>,
    /// Per report-delivering call, ms.
    pub submit_ms: Vec<f64>,
    /// Records handed to the system.
    pub records_delivered: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    /// Each episode's loop time and sample counts.
    pub episodes: Vec<EpisodeTotals>,
}

/// How long one episode's served loop took and what it sampled.
#[derive(Debug, Default, Clone, Copy)]
pub struct EpisodeTotals {
    /// Wall time of the loop, seconds.
    pub loop_s: f64,
    /// Samples added to `record_confirm_ms`, `block_accept_ms` and
    /// `submit_ms`.
    pub samples: [usize; 3],
}

impl Measured {
    fn totals(&self) -> EpisodeTotals {
        EpisodeTotals {
            loop_s: self.loop_s,
            samples: [
                self.record_confirm_ms.len(),
                self.block_accept_ms.len(),
                self.submit_ms.len(),
            ],
        }
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Program counters read around the untraced passes; each field holds
/// the counter [`Counters::now`] reads into it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub sigcache_hit: u64,
    pub sigcache_miss: u64,
    pub pool_tasks: u64,
    pub record_dropped: u64,
    pub blocks_rejected: u64,
    pub validate_rejected: u64,
    pub mempool_rejected: u64,
    pub autoverif_runs: u64,
    pub autoverif_pass: u64,
    pub autoverif_fail: u64,
    pub vm_exec_calls: u64,
    pub vm_gas: u64,
    pub sync_offers: u64,
    pub sync_buffered: u64,
}

impl Counters {
    /// The program's counters now.
    pub fn now() -> Counters {
        let g = global();
        let c = |name: &str| g.counter(name, &[]).get();
        let offers = |outcome: &str| g.counter("net.sync.offers", &[("outcome", outcome)]).get();
        Counters {
            sigcache_hit: c("chain.sigcache.hit"),
            sigcache_miss: c("chain.sigcache.miss"),
            pool_tasks: c("pool.tasks"),
            record_dropped: c("core.node.record_dropped"),
            blocks_rejected: c("core.node.blocks_rejected"),
            validate_rejected: c("chain.validate.rejected"),
            mempool_rejected: c("chain.mempool.rejected"),
            autoverif_runs: c("core.verify.autoverif_runs"),
            autoverif_pass: c("core.verify.autoverif_pass"),
            autoverif_fail: c("core.verify.autoverif_fail"),
            vm_exec_calls: c("vm.exec.calls"),
            vm_gas: g.histogram("vm.exec.gas", &[], buckets::GAS).snapshot().sum,
            sync_offers: ["connected", "buffered", "duplicate", "rejected"]
                .iter()
                .map(|o| offers(o))
                .sum(),
            sync_buffered: offers("buffered"),
        }
    }

    /// Adds `later - earlier` to `self`.
    pub fn accumulate(&mut self, earlier: &Counters, later: &Counters) {
        macro_rules! add {
            ($($f:ident),*) => { $( self.$f += later.$f - earlier.$f; )* };
        }
        add!(
            sigcache_hit,
            sigcache_miss,
            pool_tasks,
            record_dropped,
            blocks_rejected,
            validate_rejected,
            mempool_rejected,
            autoverif_runs,
            autoverif_pass,
            autoverif_fail,
            vm_exec_calls,
            vm_gas,
            sync_offers,
            sync_buffered
        );
    }
}

/// What the traced run adds to the untraced passes.
#[derive(Debug, Default)]
pub struct TraceRun {
    /// Spans of every traced replay.
    pub tracer: Tracer,
    /// Untraced loop wall time of the episodes that were replayed.
    pub untraced_s: f64,
    /// Traced replay loop wall time.
    pub traced_s: f64,
    /// Program counters over the untraced passes.
    pub counters: Counters,
    /// Per record: end of its mempool admission to the start of the
    /// call that took it into a block, ms.
    pub queue_wait_ms: Vec<f64>,
    /// `DurableStore::open_existing` time per restart, seconds.
    pub open_s: Vec<f64>,
    /// `ProviderNode::restore_backend` time per restart, seconds.
    pub restore_s: Vec<f64>,
    /// Store directory bytes after catch-up, summed over episodes.
    pub store_bytes: u64,
    /// Blocks those bytes hold.
    pub store_blocks: u64,
}

/// Crash-restarts an in-memory node from the chain `store` holds: the
/// chain is exported untimed (it stands for the disk), then
/// `persist::import_chain` plus `ProviderNode::restore` is timed as one
/// restart.
pub fn restart_from_export(
    store: &dyn ChainQuery,
    key: &KeyPair,
    library: &VulnLibrary,
    m: &mut Measured,
) -> Result<(), String> {
    let dump = export_chain(store);
    let (key, library) = (*key, library.clone());
    let started = Instant::now();
    let recovered = import_chain(&dump).map_err(|e| format!("import_chain: {e}"))?;
    let restored = ProviderNode::restore(key, recovered, library);
    m.restart_s.push(started.elapsed().as_secs_f64());
    m.check(restored.store().best_tip() == store.best_tip(), || {
        "restarted node lost the tip".into()
    });
    Ok(())
}

/// `record` as a peer receives it: decoded from its bytes, so none of the
/// hashes the generator memoized come along.
pub fn off_the_wire(record: &Record) -> Record {
    Record::decode(record.encoded()).expect("a record decodes from its own encoding")
}

/// `block` as a peer receives it (see [`off_the_wire`]).
pub fn block_off_the_wire(block: &Block) -> Block {
    Block::decode(&block.encode()).expect("a block decodes from its own encoding")
}

/// Where the benchmark writes its spans and temporary stores.
pub fn work_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(sub)
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_threads = smartcrowd::pool::global().threads();
    if pool_threads > nproc {
        return Err(format!(
            "worker pool has {pool_threads} threads but the host has {nproc}: lower SMARTCROWD_THREADS"
        ));
    }
    let cpu_before = context::cpu_ticks();
    let mut measured = Measured::default();
    let mut traced = args.trace.then(TraceRun::default);
    let mut measured_s = 0.0;
    let mut episode = 0u64;
    let min_episodes = if args.smoke { 1 } else { MIN_EPISODES };
    while episode < min_episodes || measured_s < args.seconds {
        sigcache::reset();
        let before = measured.totals();
        let traced_before = traced.as_ref().map_or(0.0, |t| t.traced_s);
        match args.workload {
            Workload::Ingest => ingest::episode(args, episode, &mut measured, traced.as_mut()),
            Workload::Catchup => catchup::episode(args, episode, &mut measured, traced.as_mut()),
            Workload::Bounty => bounty::episode(args, episode, &mut measured, traced.as_mut()),
        }
        .map_err(|e| format!("episode {episode}: {e}"))?;
        let after = measured.totals();
        let loop_s = after.loop_s - before.loop_s;
        measured.episodes.push(EpisodeTotals {
            loop_s,
            samples: [0, 1, 2].map(|i| after.samples[i] - before.samples[i]),
        });
        measured_s += loop_s;
        if let Some(t) = traced.as_mut() {
            t.untraced_s += loop_s;
            measured_s += t.traced_s - traced_before;
        }
        episode += 1;
    }
    let cpu_after = context::cpu_ticks();
    if args.workload == Workload::Ingest && measured.records_delivered >= sigcache::CAPACITY as u64
    {
        measured.check_failures.push(format!(
            "ingest delivered {} records in one run, not below the signature cache's {}",
            measured.records_delivered,
            sigcache::CAPACITY
        ));
    }
    if measured.attempted == 0 {
        measured
            .check_failures
            .push("no operation was attempted".into());
    }
    if let Some(t) = &traced {
        let path = work_dir("out").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        t.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let ctx = context::Context {
        args: args.clone(),
        episodes: episode,
        nproc,
        pool_threads,
        cpu_before,
        cpu_after,
    };
    report::print(&ctx, &measured, traced.as_ref());
    if measured.check_failures.is_empty() && measured.failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} failed operations; failed checks: {:?}",
            measured.failed, measured.check_failures
        ))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let started = Instant::now();
    let result = parse_args(&argv).and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!(
            "perfbench: {e} (after {:.1} s)",
            started.elapsed().as_secs_f64()
        );
        std::process::exit(1);
    }
}
