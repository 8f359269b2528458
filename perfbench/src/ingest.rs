//! `ingest`: the admission funnel of one provider node.
//!
//! A `ProviderNode` on the in-memory backend releases a few SRAs, so it
//! hosts their images. Detectors' signed R† records and then their R*
//! records arrive as gossip rounds through `handle_batch`; after each
//! round the node mines once, with room for the whole round, so no
//! backlog builds. Rounds go on until every record is 6 blocks deep.

use crate::confirm::{ids, Confirmer};
use crate::report::LOOP_ROOT;
use crate::trace::{id_of, Tracer};
use crate::{
    episode_label, episode_seed, off_the_wire, restart_from_export, Args, Counters, Measured,
    TraceRun,
};
use smartcrowd::chain::mempool::Mempool;
use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::{
    sigcache, Block, ChainStore, Difficulty, Ether, Record, RecordKind, CONFIRMATION_DEPTH,
};
use smartcrowd::core::node::ProviderNode;
use smartcrowd::core::report::{create_report_pair, DetailedReport, Findings, InitialReport};
use smartcrowd::core::sra::{Sra, SraId};
use smartcrowd::core::verify;
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::crypto::{Address, Digest};
use smartcrowd::detect::autoverif::AutoVerifier;
use smartcrowd::detect::library::VulnLibrary;
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::net::{Message, Scoreboard};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Seconds between mined blocks' timestamps.
const BLOCK_INTERVAL: u64 = 15;
/// Vulnerabilities planted in each released image.
const VULNS_PER_SYSTEM: usize = 6;

struct Size {
    sras: usize,
    detectors_per_sra: usize,
    round: usize,
}

fn size(args: &Args) -> Size {
    if args.smoke {
        Size {
            sras: 2,
            detectors_per_sra: 4,
            round: 4,
        }
    } else {
        // 256 records per episode in 8 rounds; the per-run total stays
        // far below the signature cache's capacity.
        Size {
            sras: 4,
            detectors_per_sra: 32,
            round: 32,
        }
    }
}

fn fee() -> Ether {
    Ether::from_milliether(11)
}

fn insurance() -> (Ether, Ether) {
    (Ether::from_ether(1000), Ether::from_ether(25))
}

/// Everything one episode feeds the node, generated before timing.
struct Input {
    node_key: KeyPair,
    genesis: Block,
    library: VulnLibrary,
    systems: Vec<IoTSystem>,
    /// Per SRA, its detectors and the vulnerabilities each claims.
    claims: Vec<Vec<(KeyPair, Vec<smartcrowd::detect::vulnerability::VulnId>)>>,
}

fn generate(args: &Args, episode: u64) -> Input {
    let size = size(args);
    let label = episode_label(args, episode);
    let mut rng = SimRng::seed_from_u64(episode_seed(args, episode));
    let library = VulnLibrary::synthetic(500, rng.next_u64());
    let mut systems = Vec::new();
    let mut claims = Vec::new();
    for s in 0..size.sras {
        let vulns = library
            .sample_ids(VULNS_PER_SYSTEM, &mut rng)
            .expect("library holds enough vulnerabilities");
        let system = IoTSystem::build(&format!("{label}/fw{s}"), "1.0", &library, vulns, &mut rng)
            .expect("sampled vulnerabilities are in the library");
        let detectors = (0..size.detectors_per_sra)
            .map(|d| {
                let key = KeyPair::from_seed(format!("{label}/detector/{s}/{d}").as_bytes());
                let truth = system.ground_truth();
                let first = truth[rng.next_below(truth.len() as u64) as usize];
                let second = truth[rng.next_below(truth.len() as u64) as usize];
                let mut found = vec![first];
                if second != first && rng.next_below(2) == 0 {
                    found.push(second);
                }
                (key, found)
            })
            .collect();
        systems.push(system);
        claims.push(detectors);
    }
    Input {
        node_key: KeyPair::from_seed(format!("{label}/node").as_bytes()),
        genesis: Block::genesis(Difficulty::from_u64(1)),
        library,
        systems,
        claims,
    }
}

/// The gossip rounds: every R† record, then every R* record.
fn rounds(input: &Input, sra_ids: &[SraId], round: usize) -> (Vec<Vec<Record>>, HashSet<Digest>) {
    let mut initials = Vec::new();
    let mut detailed = Vec::new();
    for (sra_id, detectors) in sra_ids.iter().zip(&input.claims) {
        for (key, found) in detectors {
            let (r1, r2) = create_report_pair(key, *sra_id, Findings::new(found.clone(), "ingest"));
            initials.push(Record::signed(
                RecordKind::InitialReport,
                r1.encode(),
                fee(),
                0,
                key,
            ));
            detailed.push(Record::signed(
                RecordKind::DetailedReport,
                r2.encode(),
                fee(),
                1,
                key,
            ));
        }
    }
    let detailed_ids = detailed.iter().map(Record::id).collect();
    let all: Vec<Record> = initials.into_iter().chain(detailed).collect();
    (
        all.chunks(round).map(<[Record]>::to_vec).collect(),
        detailed_ids,
    )
}

/// Room in each block: the whole round plus the node's own SRAs.
fn capacity(size: &Size) -> usize {
    size.round + size.sras
}

pub fn episode(
    args: &Args,
    episode: u64,
    m: &mut Measured,
    traced: Option<&mut TraceRun>,
) -> Result<(), String> {
    let size = size(args);
    let input = generate(args, episode);
    let (insure, incentive) = insurance();

    let (library, systems) = (input.library.clone(), input.systems.clone());
    let counters_before = Counters::now();
    let started = Instant::now();
    let mut node = ProviderNode::new(input.node_key, input.genesis.clone(), library);
    let sra_ids: Vec<SraId> = systems
        .into_iter()
        .map(|system| node.release(system, insure, incentive).0)
        .collect();
    m.setup_s.push(started.elapsed().as_secs_f64());

    let (rounds, detailed_ids) = rounds(&input, &sra_ids, size.round);
    let delivered: Vec<Digest> = rounds.iter().flatten().map(Record::id).collect();
    m.records_delivered += delivered.len() as u64;
    m.attempted += delivered.len() as u64;
    let messages: Vec<Vec<Message>> = rounds
        .iter()
        .map(|r| r.iter().map(|r| Message::Record(off_the_wire(r))).collect())
        .collect();

    let genesis_ts = input.genesis.header().timestamp;
    let mut confirmer = Confirmer::at_height(0);
    let mut pending_rounds = messages.into_iter();
    let mut round_records = rounds.iter();
    let loop_start = Instant::now();
    // One block per round, then empty rounds until the last round's
    // records are 6 deep; a record still pending after that is a failure.
    for _ in 0..rounds.len() as u64 + CONFIRMATION_DEPTH {
        let t0 = Instant::now();
        if let Some(batch) = pending_rounds.next() {
            for r in round_records.next().expect("one record list per round") {
                confirmer.deliver(r.id(), detailed_ids.contains(&r.id()), t0);
            }
            node.handle_batch(batch);
            m.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let t1 = Instant::now();
        let height = node.store().best_height() + 1;
        let (block, _) = node.mine(genesis_ts + BLOCK_INTERVAL * height, capacity(&size));
        let t2 = Instant::now();
        m.block_accept_ms.push((t2 - t1).as_secs_f64() * 1e3);
        m.blocks += 1;
        confirmer.advance(block.header().height, t2, m, |h| {
            node.store()
                .canonical_block_at(h)
                .as_ref()
                .map_or_else(Vec::new, ids)
        });
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    m.loop_s += loop_s;
    let counters_after = Counters::now();

    let unconfirmed = delivered
        .iter()
        .filter(|id| !node.store().record_confirmed(id))
        .count();
    m.failed += unconfirmed as u64;
    m.check(unconfirmed == 0, || {
        format!("{unconfirmed} delivered records are not 6 blocks deep")
    });
    m.check(node.mempool_len() == 0, || {
        format!("{} records left in the mempool", node.mempool_len())
    });

    restart_from_export(node.store(), &input.node_key, &input.library, m)?;

    if let Some(t) = traced {
        t.counters.accumulate(&counters_before, &counters_after);
        sigcache::reset();
        let (tip, replay_sras) = replay(&input, &rounds, &size, t);
        m.check(
            tip == node.store().best_tip() && replay_sras == sra_ids,
            || "traced replay built a different chain than the node".into(),
        );
    }
    Ok(())
}

/// The node's state that `handle_batch` and `mine` work on, rebuilt from
/// the public pieces they are made of.
struct Replay<'a> {
    address: Address,
    library: &'a VulnLibrary,
    mempool: Mempool,
    store: ChainStore,
    scoreboard: Scoreboard,
    images: HashMap<SraId, IoTSystem>,
    initials: HashMap<(SraId, Address), InitialReport>,
    /// When each pooled record finished admission.
    admitted_at: HashMap<Digest, Instant>,
}

impl Replay<'_> {
    fn admit(&mut self, t: &mut Tracer, id: u64, record: Record) {
        let rid = record.id();
        if t.span("chain.mempool.insert", id, |_| self.mempool.insert(record))
            .is_ok()
        {
            self.admitted_at.insert(rid, Instant::now());
        }
    }

    /// `ProviderNode::handle` for one report record, in the node's order.
    fn handle_record(&mut self, t: &mut Tracer, record: Record) {
        let id = id_of(&record.id());
        if t.span("chain.record.sig_verify", id, |_| {
            sigcache::verify_cached(&record)
        })
        .is_err()
        {
            return;
        }
        match record.kind() {
            RecordKind::InitialReport => {
                let Ok(report) = InitialReport::decode(record.payload()) else {
                    return;
                };
                let board = &self.scoreboard;
                if t.span("core.verify.report_sig", id, |_| {
                    verify::verify_initial(&report, Some(board))
                })
                .is_err()
                {
                    return;
                }
                let key = (*report.sra_id(), report.detector());
                if let std::collections::hash_map::Entry::Vacant(slot) = self.initials.entry(key) {
                    slot.insert(report);
                    self.admit(t, id, record);
                }
            }
            RecordKind::DetailedReport => {
                let Ok(report) = DetailedReport::decode(record.payload()) else {
                    return;
                };
                let key = (*report.sra_id(), report.detector());
                let Some(initial) = self.initials.get(&key).cloned() else {
                    return;
                };
                let Some(system) = self.images.get(report.sra_id()).cloned() else {
                    return;
                };
                // `verify::verify_detailed`, split into its report
                // signature check and its AutoVerif call.
                if t.span("core.verify.report_sig", id, |_| {
                    report.verify_against(&initial)
                })
                .is_err()
                {
                    return;
                }
                let verifier = AutoVerifier::new(self.library);
                let claims = &report.findings().vulnerabilities;
                if t.span("detect.autoverif", id, |_| {
                    verifier.auto_verif(&system, claims)
                }) {
                    self.scoreboard.record_confirmed(report.detector());
                    self.admit(t, id, record);
                } else {
                    self.scoreboard.record_strike(report.detector());
                }
            }
            _ => self.admit(t, id, record),
        }
    }

    /// `ProviderNode::mine`.
    fn mine(&mut self, t: &mut Tracer, timestamp: u64, capacity: usize, waits: &mut Vec<f64>) {
        let taken_at = Instant::now();
        let records = t.span("chain.mempool.take_best", 0, |_| {
            self.mempool.take_best(capacity)
        });
        for r in &records {
            if let Some(at) = self.admitted_at.remove(&r.id()) {
                waits.push((taken_at - at).as_secs_f64() * 1e3);
            }
        }
        let parent = self.store.best_block().clone();
        let block = t.span("chain.block.assemble", 0, |_| {
            Block::assemble(
                &parent,
                records,
                timestamp.max(parent.header().timestamp),
                Difficulty::from_u64(1),
                self.address,
            )
        });
        let id = id_of(block.id().as_digest());
        t.span("chain.store.commit", id, |_| self.store.insert(block))
            .expect("own block extends own tip");
    }
}

/// Replays the episode through the functions the node's calls are built
/// from, with a span around each, and returns the tip it built.
fn replay(
    input: &Input,
    rounds: &[Vec<Record>],
    size: &Size,
    t: &mut TraceRun,
) -> (smartcrowd::chain::BlockId, Vec<SraId>) {
    let key = &input.node_key;
    let (insure, incentive) = insurance();
    let mut r = Replay {
        address: key.address(),
        library: &input.library,
        mempool: Mempool::default(),
        store: ChainStore::new(input.genesis.clone()),
        scoreboard: Scoreboard::default(),
        images: HashMap::new(),
        initials: HashMap::new(),
        admitted_at: HashMap::new(),
    };
    // `ProviderNode::release`, untraced: it is set-up.
    let mut sra_ids = Vec::new();
    for (nonce, system) in (1u64..).zip(&input.systems) {
        let link = format!("sim://{}/{}", system.name(), system.version());
        let sra = Sra::create(
            key,
            system.name(),
            system.version(),
            *system.image_hash(),
            &link,
            insure,
            incentive,
        );
        sra_ids.push(*sra.id());
        r.images.insert(*sra.id(), system.clone());
        let record = Record::signed(RecordKind::Sra, sra.encode(), fee(), nonce, key);
        r.mempool.insert(record).expect("own SRA is admitted");
    }

    let genesis_ts = input.genesis.header().timestamp;
    let arriving: Vec<Vec<Record>> = rounds
        .iter()
        .map(|round| round.iter().map(off_the_wire).collect())
        .collect();
    let tracer = &mut t.tracer;
    let waits = &mut t.queue_wait_ms;
    let started = Instant::now();
    tracer.span(LOOP_ROOT, 0, |tr| {
        let mut height = 0u64;
        let mut mine = |tr: &mut Tracer, r: &mut Replay| {
            height += 1;
            tr.span("core.node.mine", 0, |tr| {
                r.mine(
                    tr,
                    genesis_ts + BLOCK_INTERVAL * height,
                    capacity(size),
                    waits,
                )
            });
        };
        for round in arriving {
            tr.span("core.node.handle_batch", 0, |tr| {
                let refs: Vec<&Record> = round.iter().collect();
                tr.span("chain.record.sig_verify", 0, |_| sigcache::warm(&refs));
                for record in round {
                    let id = id_of(&record.id());
                    tr.span("core.node.handle", id, |tr| r.handle_record(tr, record));
                }
            });
            mine(tr, &mut r);
        }
        for _ in 0..CONFIRMATION_DEPTH {
            mine(tr, &mut r);
        }
    });
    t.traced_s += started.elapsed().as_secs_f64();
    (r.store.best_tip(), sra_ids)
}
