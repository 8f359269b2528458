//! `catchup`: a fresh follower on the durable store catching up on a
//! sparse chain, then restarting from disk.
//!
//! The chain looks like the paper's: a few records per block, mostly
//! R†+R* pairs with each R* seven blocks after its R†, and an SRA every
//! few dozen blocks. It is built only by signing and `Block::assemble`,
//! so the follower's signature cache starts cold. One adjacent pair of
//! blocks in eight arrives swapped, the child ahead of its parent, as
//! late `BlockRequest` replies do.

use crate::confirm::{ids, Confirmer};
use crate::report::LOOP_ROOT;
use crate::trace::{id_of, Tracer};
use crate::{
    block_off_the_wire, episode_label, episode_seed, work_dir, Args, Counters, Measured, TraceRun,
};
use smartcrowd::chain::mempool::Mempool;
use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::store::RecordLocation;
use smartcrowd::chain::validate::{validate_block, FnValidator};
use smartcrowd::chain::{
    sigcache, Block, BlockHeader, BlockId, ChainBackend, ChainQuery, Difficulty, DurableStore,
    Ether, Record, RecordKind, StorageError, CONFIRMATION_DEPTH,
};
use smartcrowd::core::node::ProviderNode;
use smartcrowd::core::report::{create_report_pair, DetailedReport, Findings, InitialReport};
use smartcrowd::core::sra::{Sra, SraId};
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::crypto::{Address, Digest};
use smartcrowd::detect::library::VulnLibrary;
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::net::sync::{SyncBuffer, SyncOutcome};
use smartcrowd::net::Message;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seconds between blocks' timestamps.
const BLOCK_INTERVAL: u64 = 15;
/// One SRA every this many blocks.
const SRA_EVERY: u64 = 30;
/// One adjacent pair of blocks in this many arrives swapped.
const SWAP_ONE_IN: u64 = 8;
/// Blocks between an R† and its R*: the R† is final when the R* lands.
const REVEAL_AFTER: u64 = CONFIRMATION_DEPTH + 1;

fn blocks_per_episode(args: &Args) -> u64 {
    if args.smoke {
        24
    } else {
        80
    }
}

fn fee() -> Ether {
    Ether::from_milliether(11)
}

/// Everything one episode feeds the follower, generated before timing.
struct Input {
    follower_key: KeyPair,
    genesis: Block,
    library: VulnLibrary,
    /// The chain in height order (genesis excluded).
    chain: Vec<Block>,
    /// Indices into `chain`, in delivery order.
    order: Vec<usize>,
    /// Ids of the R* records on the chain.
    detailed: HashSet<Digest>,
}

fn generate(args: &Args, episode: u64) -> Input {
    let label = episode_label(args, episode);
    let mut rng = SimRng::seed_from_u64(episode_seed(args, episode));
    let library = VulnLibrary::synthetic(500, rng.next_u64());
    let providers: Vec<KeyPair> = (0..2)
        .map(|p| KeyPair::from_seed(format!("{label}/provider/{p}").as_bytes()))
        .collect();
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let total = blocks_per_episode(args);
    let mut sras: Vec<(SraId, IoTSystem)> = Vec::new();
    let mut reveals: Vec<(u64, Record)> = Vec::new();
    let mut detailed = HashSet::new();
    let mut nonces = [0u64; 2];
    let mut chain: Vec<Block> = Vec::new();
    let mut detector = 0u64;
    for height in 1..=total {
        let mut records = Vec::new();
        let miner = (height % 2) as usize;
        if (height - 1) % SRA_EVERY == 0 {
            let vulns = library
                .sample_ids(6, &mut rng)
                .expect("library is large enough");
            let name = format!("{label}/fw{height}");
            let system = IoTSystem::build(&name, "1.0", &library, vulns, &mut rng)
                .expect("sampled vulnerabilities are in the library");
            let link = format!("sim://{name}/1.0");
            let sra = Sra::create(
                &providers[miner],
                system.name(),
                system.version(),
                *system.image_hash(),
                &link,
                Ether::from_ether(1000),
                Ether::from_ether(25),
            );
            nonces[miner] += 1;
            records.push(Record::signed(
                RecordKind::Sra,
                sra.encode(),
                fee(),
                nonces[miner],
                &providers[miner],
            ));
            sras.push((*sra.id(), system));
        }
        let (due, later): (Vec<_>, Vec<_>) = reveals.into_iter().partition(|(h, _)| *h <= height);
        reveals = later;
        records.extend(due.into_iter().map(|(_, r)| r));
        if height + REVEAL_AFTER <= total {
            for _ in 0..1 + rng.next_below(2) {
                let (sra_id, system) = &sras[rng.next_below(sras.len() as u64) as usize];
                let truth = system.ground_truth();
                let found = vec![truth[rng.next_below(truth.len() as u64) as usize]];
                let key = KeyPair::from_seed(format!("{label}/detector/{detector}").as_bytes());
                detector += 1;
                let (r1, r2) = create_report_pair(&key, *sra_id, Findings::new(found, "catchup"));
                records.push(Record::signed(
                    RecordKind::InitialReport,
                    r1.encode(),
                    fee(),
                    0,
                    &key,
                ));
                let reveal =
                    Record::signed(RecordKind::DetailedReport, r2.encode(), fee(), 1, &key);
                detailed.insert(reveal.id());
                reveals.push((height + REVEAL_AFTER, reveal));
            }
        }
        let parent = chain.last().unwrap_or(&genesis);
        let timestamp = genesis.header().timestamp + BLOCK_INTERVAL * height;
        let block = Block::assemble(
            parent,
            records,
            timestamp,
            Difficulty::from_u64(1),
            providers[miner].address(),
        );
        chain.push(block);
    }
    let mut order = Vec::with_capacity(chain.len());
    let mut i = 0;
    while i < chain.len() {
        if i + 1 < chain.len() && rng.next_below(SWAP_ONE_IN) == 0 {
            order.extend([i + 1, i]);
            i += 2;
        } else {
            order.push(i);
            i += 1;
        }
    }
    Input {
        follower_key: KeyPair::from_seed(format!("{label}/follower").as_bytes()),
        genesis,
        library,
        chain,
        order,
        detailed,
    }
}

fn store_dir(args: &Args, episode: u64, pass: &str) -> PathBuf {
    work_dir("tmp").join(format!(
        "catchup-{}-{}-{episode}-{pass}",
        std::process::id(),
        args.seed
    ))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| match e.metadata() {
                    Ok(meta) if meta.is_dir() => dir_bytes(&e.path()),
                    Ok(meta) => meta.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn open_fresh(dir: &Path, genesis: &Block) -> Result<DurableStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    DurableStore::open(dir, genesis).map_err(|e| format!("open {}: {e}", dir.display()))
}

pub fn episode(
    args: &Args,
    episode: u64,
    m: &mut Measured,
    traced: Option<&mut TraceRun>,
) -> Result<(), String> {
    let input = generate(args, episode);
    let tip = input.chain.last().expect("chain is not empty").id();
    let records: usize = input.chain.iter().map(|b| b.records().len()).sum();
    m.records_delivered += records as u64;
    m.attempted += input.chain.len() as u64;
    let dir = store_dir(args, episode, "node");

    let library = input.library.clone();
    let started = Instant::now();
    let store = open_fresh(&dir, &input.genesis)?;
    let mut node = ProviderNode::with_backend(input.follower_key, Box::new(store), library);
    m.setup_s.push(started.elapsed().as_secs_f64());

    let mut confirmer = Confirmer::at_height(0);
    let messages: Vec<Message> = input
        .order
        .iter()
        .map(|&i| Message::Block(Box::new(block_off_the_wire(&input.chain[i]))))
        .collect();
    let counters_before = Counters::now();
    let loop_start = Instant::now();
    for (message, &i) in messages.into_iter().zip(&input.order) {
        let block = &input.chain[i];
        let t0 = Instant::now();
        for r in block.records() {
            confirmer.deliver(r.id(), input.detailed.contains(&r.id()), t0);
        }
        node.handle(message);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        m.block_accept_ms.push(ms);
        if block.records().iter().any(|r| r.kind().is_report()) {
            m.submit_ms.push(ms);
        }
        confirmer.advance(node.store().best_height(), t1, m, |h| {
            ids(&input.chain[h as usize - 1])
        });
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    m.loop_s += loop_s;
    let counters_after = Counters::now();
    m.blocks += input.chain.len() as u64;

    let missing = input
        .chain
        .iter()
        .filter(|b| !node.store().is_canonical(&b.id()))
        .count();
    m.failed += missing as u64;
    m.check(missing == 0 && node.store().best_tip() == tip, || {
        format!("follower tip differs from the generator's; {missing} blocks not connected")
    });
    let misses = counters_after.sigcache_miss - counters_before.sigcache_miss;
    m.check(misses >= records as u64, || {
        format!("signature cache was not cold: {misses} misses for {records} records")
    });
    let bytes = dir_bytes(&dir);

    drop(node);
    let library = input.library.clone();
    let started = Instant::now();
    let store = DurableStore::open_existing(&dir).map_err(|e| format!("reopen: {e}"))?;
    let opened = started.elapsed().as_secs_f64();
    let node = ProviderNode::restore_backend(input.follower_key, Box::new(store), library);
    let restart = started.elapsed().as_secs_f64();
    m.restart_s.push(restart);
    m.check(node.store().best_tip() == tip, || {
        "follower tip differs from the generator's after restart".into()
    });
    drop(node);
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(t) = traced {
        t.counters.accumulate(&counters_before, &counters_after);
        t.open_s.push(opened);
        t.restore_s.push(restart - opened);
        t.store_bytes += bytes;
        t.store_blocks += input.chain.len() as u64;
        sigcache::reset();
        let dir = store_dir(args, episode, "replay");
        let (before, after) = replay(&input, &dir, t)?;
        let _ = std::fs::remove_dir_all(&dir);
        m.check(before == tip && after == tip, || {
            "traced replay ended on a different tip than the generator's".into()
        });
    }
    Ok(())
}

/// A chain backend that records a span around every durable commit.
#[derive(Debug)]
struct TracedStore<'a> {
    inner: &'a mut DurableStore,
    tracer: &'a mut Tracer,
}

impl ChainQuery for TracedStore<'_> {
    fn genesis_id(&self) -> BlockId {
        self.inner.genesis_id()
    }
    fn best_tip(&self) -> BlockId {
        self.inner.best_tip()
    }
    fn best_height(&self) -> u64 {
        self.inner.best_height()
    }
    fn best_block(&self) -> Block {
        self.inner.best_block()
    }
    fn block_count(&self) -> usize {
        self.inner.block_count()
    }
    fn header_of(&self, id: &BlockId) -> Option<BlockHeader> {
        self.inner.header_of(id)
    }
    fn get_block(&self, id: &BlockId) -> Option<Block> {
        self.inner.get_block(id)
    }
    fn canonical_id_at(&self, height: u64) -> Option<BlockId> {
        self.inner.canonical_id_at(height)
    }
    fn canonical_block_at(&self, height: u64) -> Option<Block> {
        self.inner.canonical_block_at(height)
    }
    fn is_canonical(&self, id: &BlockId) -> bool {
        self.inner.is_canonical(id)
    }
    fn confirmations(&self, id: &BlockId) -> u64 {
        self.inner.confirmations(id)
    }
    fn find_record(&self, record_id: &Digest) -> Option<RecordLocation> {
        self.inner.find_record(record_id)
    }
    fn record_with_confirmations(&self, record_id: &Digest) -> Option<(Record, u64)> {
        self.inner.record_with_confirmations(record_id)
    }
    fn contains_block(&self, id: &BlockId) -> bool {
        self.inner.contains_block(id)
    }
}

impl ChainBackend for TracedStore<'_> {
    fn commit(&mut self, block: Block) -> Result<BlockId, StorageError> {
        let inner = &mut *self.inner;
        let id = id_of(block.id().as_digest());
        self.tracer.span("chain.storage.commit", id, |_| {
            ChainBackend::commit(inner, block)
        })
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// The follower's state that `handle(Block)` works on, rebuilt from the
/// public pieces it is made of.
struct Follower {
    store: DurableStore,
    sync: SyncBuffer,
    mempool: Mempool,
    sras: HashMap<SraId, Sra>,
    initials: HashMap<(SraId, Address), InitialReport>,
}

impl Follower {
    /// `ProviderNode::semantic_ok` for a follower that holds no images.
    fn semantic_ok(&mut self, t: &mut Tracer, block: &Block) -> bool {
        for record in block.records() {
            let id = id_of(&record.id());
            if t.span("chain.record.sig_verify", id, |_| {
                sigcache::verify_cached(record)
            })
            .is_err()
            {
                return false;
            }
            match record.kind() {
                RecordKind::Sra => {
                    let Ok(sra) = Sra::decode(record.payload()) else {
                        return false;
                    };
                    if t.span("core.verify.report_sig", id, |_| sra.verify())
                        .is_err()
                    {
                        return false;
                    }
                    self.sras.entry(*sra.id()).or_insert(sra);
                }
                RecordKind::InitialReport => {
                    let Ok(r) = InitialReport::decode(record.payload()) else {
                        return false;
                    };
                    if t.span("core.verify.report_sig", id, |_| r.verify())
                        .is_err()
                    {
                        return false;
                    }
                    self.initials
                        .entry((*r.sra_id(), r.detector()))
                        .or_insert(r);
                }
                // Without the image, the node's check of an R* ends at the
                // missing artifact, before any signature work.
                RecordKind::DetailedReport if DetailedReport::decode(record.payload()).is_err() => {
                    return false;
                }
                _ => {}
            }
        }
        true
    }

    /// `ProviderNode::handle(Message::Block)`.
    fn handle_block(&mut self, t: &mut Tracer, block: Block) {
        let id = id_of(block.id().as_digest());
        if !self.semantic_ok(t, &block) {
            return;
        }
        if self.store.contains_block(&block.header().prev) {
            let store = &self.store;
            let verdict = t.span("chain.validate.block", id, |_| {
                validate_block(store, &block, &FnValidator(|_r: &Record| Ok(())))
            });
            if verdict.is_err() {
                return;
            }
        }
        let (sync, store) = (&mut self.sync, &mut self.store);
        let offered = block.clone();
        let outcome = t.span("net.sync.offer", id, |tracer| {
            let mut traced = TracedStore {
                inner: store,
                tracer,
            };
            sync.offer(&mut traced, offered)
        });
        match outcome {
            SyncOutcome::Connected { .. } => {
                let mempool = &mut self.mempool;
                t.span("chain.mempool.remove_included", id, |_| {
                    mempool.remove_included(&block)
                });
            }
            SyncOutcome::Buffered => {
                // The node asks peers for these; the benchmark delivers
                // the parent next anyway.
                drop(self.sync.missing_parents());
            }
            _ => {}
        }
    }
}

/// `ProviderNode::restore_backend`'s rebuild of verified SRAs and R†s.
fn restore(t: &mut Tracer, store: &DurableStore) -> (usize, usize) {
    let blocks = t.span("chain.storage.read", 0, |_| store.canonical_blocks());
    let mut sras = HashMap::new();
    let mut initials = HashMap::new();
    for block in &blocks {
        for record in block.records() {
            let id = id_of(&record.id());
            match record.kind() {
                RecordKind::Sra => {
                    if let Ok(sra) = Sra::decode(record.payload()) {
                        if t.span("core.verify.report_sig", id, |_| sra.verify())
                            .is_ok()
                        {
                            sras.insert(*sra.id(), sra);
                        }
                    }
                }
                RecordKind::InitialReport => {
                    if let Ok(r) = InitialReport::decode(record.payload()) {
                        if t.span("core.verify.report_sig", id, |_| r.verify()).is_ok() {
                            initials.entry((*r.sra_id(), r.detector())).or_insert(r);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    (sras.len(), initials.len())
}

/// Replays the episode through the functions `handle(Block)` and the
/// restart are built from, with a span around each; returns the tip
/// before and after the restart.
fn replay(input: &Input, dir: &Path, t: &mut TraceRun) -> Result<(BlockId, BlockId), String> {
    let mut follower = Follower {
        store: open_fresh(dir, &input.genesis)?,
        sync: SyncBuffer::new(),
        mempool: Mempool::default(),
        sras: HashMap::new(),
        initials: HashMap::new(),
    };
    let blocks: Vec<Block> = input
        .order
        .iter()
        .map(|&i| block_off_the_wire(&input.chain[i]))
        .collect();
    let tracer = &mut t.tracer;
    let started = Instant::now();
    tracer.span(LOOP_ROOT, 0, |tr| {
        for block in blocks {
            let id = id_of(block.id().as_digest());
            tr.span("core.node.handle", id, |tr| {
                follower.handle_block(tr, block)
            });
        }
    });
    t.traced_s += started.elapsed().as_secs_f64();
    let before = follower.store.best_tip();
    drop(follower);

    let reopened = tracer.span("perfbench.restart", 0, |tr| {
        let store = tr.span("chain.storage.open", 0, |_| {
            DurableStore::open_existing(dir)
        });
        store.inspect(|store| {
            tr.span("core.node.restore", 0, |tr| restore(tr, store));
        })
    });
    let store = reopened.map_err(|e| format!("replay reopen: {e}"))?;
    Ok((before, store.best_tip()))
}
