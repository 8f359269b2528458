//! `bounty`: the platform's escrowed bounty market, from release to
//! payout.
//!
//! `Platform::new(PlatformConfig::paper())` (5 providers, blocks of 64
//! records) releases SRAs across its providers. Detectors arrive in
//! waves, one per block interval: each submits its R†, the benchmark
//! mines, and once its R† is 6 blocks deep the detector submits its R*.
//! Mining goes on until every honest R* is 6 deep and paid. One detector
//! in eight forges its R*: the platform must reject it and strike the
//! detector.
//!
//! `Platform` keeps its VM and world state private, so a `submit_*` or
//! `mine_block` call cannot be split from outside; the traced run records
//! each as one span and takes the layer split from the program's
//! counters.

use crate::confirm::{ids, Confirmer};
use crate::report::LOOP_ROOT;
use crate::trace::{id_of, Tracer};
use crate::{episode_label, episode_seed, restart_from_export, Args, Counters, Measured, TraceRun};
use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::{sigcache, BlockId, Ether, CONFIRMATION_DEPTH};
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::core::report::{create_report_pair, DetailedReport, Findings, InitialReport};
use smartcrowd::core::sra::SraId;
use smartcrowd::core::CoreError;
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::crypto::Digest;
use smartcrowd::detect::library::VulnLibrary;
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// One detector in this many forges its R*.
const FORGE_ONE_IN: usize = 8;
/// Vulnerabilities planted in each released image.
const VULNS_PER_SYSTEM: usize = 6;

struct Size {
    sras: usize,
    detectors_per_sra: usize,
}

fn size(args: &Args) -> Size {
    if args.smoke {
        Size {
            sras: 2,
            detectors_per_sra: FORGE_ONE_IN,
        }
    } else {
        Size {
            sras: 8,
            detectors_per_sra: FORGE_ONE_IN,
        }
    }
}

/// One detector's claim against one SRA.
struct Claim {
    sra: usize,
    key: KeyPair,
    found: Vec<VulnId>,
    forged: bool,
}

/// Everything one episode feeds the platform, generated before timing.
struct Input {
    config: PlatformConfig,
    systems: Vec<IoTSystem>,
    claims: Vec<Claim>,
}

fn generate(args: &Args, episode: u64) -> Input {
    let size = size(args);
    let label = episode_label(args, episode);
    let mut rng = SimRng::seed_from_u64(episode_seed(args, episode));
    let config = PlatformConfig {
        seed: rng.next_u64(),
        ..PlatformConfig::paper()
    };
    // The library `Platform::new` derives from its config, so the images
    // embed signatures its AutoVerif knows.
    let library = VulnLibrary::synthetic(config.library_size, config.seed ^ 0xdead);
    let mut systems = Vec::new();
    let mut claims = Vec::new();
    for s in 0..size.sras {
        let vulns = library
            .sample_ids(VULNS_PER_SYSTEM, &mut rng)
            .expect("library holds enough vulnerabilities");
        let system = IoTSystem::build(&format!("{label}/fw{s}"), "1.0", &library, vulns, &mut rng)
            .expect("sampled vulnerabilities are in the library");
        for d in 0..size.detectors_per_sra {
            let forged = d % FORGE_ONE_IN == FORGE_ONE_IN - 1;
            let found = if forged {
                let mut fake = VulnId(1 + rng.next_below(library.len() as u64));
                while system.ground_truth().contains(&fake) {
                    fake = VulnId(1 + rng.next_below(library.len() as u64));
                }
                vec![fake]
            } else {
                let truth = system.ground_truth();
                vec![truth[rng.next_below(truth.len() as u64) as usize]]
            };
            claims.push(Claim {
                sra: s,
                key: KeyPair::from_seed(format!("{label}/detector/{s}/{d}").as_bytes()),
                found,
                forged,
            });
        }
        systems.push(system);
    }
    Input {
        config,
        systems,
        claims,
    }
}

fn insurance() -> (Ether, Ether) {
    (Ether::from_ether(200), Ether::from_ether(10))
}

/// Boots the platform and releases every system; the set-up.
fn set_up(input: &Input, systems: Vec<IoTSystem>) -> Result<(Platform, Vec<SraId>), String> {
    let (insure, incentive) = insurance();
    let mut platform = Platform::new(input.config.clone());
    let providers = platform.providers().len();
    let sra_ids = systems
        .into_iter()
        .enumerate()
        .map(|(i, system)| platform.release_system(i % providers, system, insure, incentive))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("release_system: {e}"))?;
    Ok((platform, sra_ids))
}

/// How one episode's calls are made: plainly, or inside spans.
trait Calls {
    fn submit(
        &mut self,
        id: u64,
        f: impl FnOnce() -> Result<Digest, CoreError>,
    ) -> Result<Digest, CoreError>;
    fn mine(&mut self, f: impl FnOnce());
}

struct Plain;

impl Calls for Plain {
    fn submit(
        &mut self,
        _: u64,
        f: impl FnOnce() -> Result<Digest, CoreError>,
    ) -> Result<Digest, CoreError> {
        f()
    }
    fn mine(&mut self, f: impl FnOnce()) {
        f()
    }
}

impl Calls for Tracer {
    fn submit(
        &mut self,
        id: u64,
        f: impl FnOnce() -> Result<Digest, CoreError>,
    ) -> Result<Digest, CoreError> {
        self.span("core.platform.submit", id, |_| f())
    }
    fn mine(&mut self, f: impl FnOnce()) {
        self.span("core.platform.mine_block", 0, |_| f())
    }
}

/// Detectors whose reports arrive together: one wave submits its R† in
/// the same block interval, and its R* once those are 6 blocks deep.
const WAVE: usize = FORGE_ONE_IN;

/// Records delivered and not yet 6 blocks deep, and the mempool waits
/// seen from outside: end of the admitting call to the start of the
/// `mine_block` call that took the record.
struct Pending {
    confirmer: Confirmer,
    admitted: HashMap<Digest, Instant>,
    queue_wait_ms: Vec<f64>,
}

impl Pending {
    fn deliver(&mut self, record: Digest, detailed: bool, at: Instant) {
        self.confirmer.deliver(record, detailed, at);
        self.admitted.insert(record, Instant::now());
    }

    /// Mines one block and notes the records it took and confirmed.
    fn mine(&mut self, platform: &mut Platform, calls: &mut impl Calls, m: &mut Measured) {
        let t0 = Instant::now();
        calls.mine(|| drop(platform.mine_block()));
        let t1 = Instant::now();
        m.block_accept_ms.push((t1 - t0).as_secs_f64() * 1e3);
        m.blocks += 1;
        let store = platform.store();
        for id in ids(store.best_block()) {
            if let Some(at) = self.admitted.remove(&id) {
                self.queue_wait_ms.push((t0 - at).as_secs_f64() * 1e3);
            }
        }
        self.confirmer.advance(store.best_height(), t1, m, |h| {
            store.block_at_height(h).map_or_else(Vec::new, ids)
        });
    }
}

/// The served loop of one episode, measured into `m`; returns the
/// mempool waits it saw.
///
/// Each block interval, a new wave submits its R†, every wave whose R†
/// are all 6 deep submits its R*, and one block is mined. The market
/// stays busy: a block carries one wave's R† and an older wave's R*.
fn serve(
    platform: &mut Platform,
    pairs: &[(InitialReport, DetailedReport)],
    input: &Input,
    calls: &mut impl Calls,
    m: &mut Measured,
) -> Vec<f64> {
    let mut pending = Pending {
        confirmer: Confirmer::at_height(platform.store().best_height()),
        admitted: HashMap::new(),
        queue_wait_ms: Vec::new(),
    };
    let indices: Vec<usize> = (0..pairs.len()).collect();
    let mut waves = indices.chunks(WAVE);
    // Waves whose R† are submitted, with the R† record ids.
    let mut waiting: VecDeque<(&[usize], Vec<Digest>)> = VecDeque::new();
    // Blocks mined since the last submission. A wave's R† is 6 deep, or
    // its R* is, within `CONFIRMATION_DEPTH + 1` blocks; twice that with
    // nothing to show means a record was lost.
    let mut idle = 0;
    loop {
        let submitted = m.attempted;
        while let Some((wave, initials)) = waiting.front() {
            if !initials
                .iter()
                .all(|id| platform.store().record_confirmed(id))
            {
                break;
            }
            for &i in *wave {
                let (claim, detailed) = (&input.claims[i], &pairs[i].1);
                let t0 = Instant::now();
                let result = calls.submit(id_of(detailed.id()), || {
                    platform.submit_detailed(&claim.key, detailed.clone())
                });
                m.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                m.attempted += 1;
                match (result, claim.forged) {
                    (Ok(record), false) => pending.deliver(record, true, t0),
                    (Err(CoreError::AutoVerifFailed { .. }), true) => m.reports_resolved += 1,
                    (Ok(_), true) => {
                        m.failed += 1;
                        m.check_failures.push("forged R* was accepted".into());
                    }
                    (Err(e), _) => {
                        m.failed += 1;
                        m.check_failures
                            .push(format!("R* rejected with an unexpected error: {e}"));
                    }
                }
            }
            waiting.pop_front();
        }
        if let Some(wave) = waves.next() {
            let mut initials = Vec::with_capacity(wave.len());
            for &i in wave {
                let (claim, initial) = (&input.claims[i], &pairs[i].0);
                let t0 = Instant::now();
                let result = calls.submit(id_of(initial.id()), || {
                    platform.submit_initial(&claim.key, initial.clone())
                });
                m.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                m.attempted += 1;
                match result {
                    Ok(record) => {
                        pending.deliver(record, false, t0);
                        initials.push(record);
                    }
                    Err(e) => {
                        m.failed += 1;
                        m.check_failures.push(format!("honest R† rejected: {e}"));
                    }
                }
            }
            waiting.push_back((wave, initials));
        } else if waiting.is_empty() && pending.confirmer.is_empty() {
            break;
        }
        idle = if m.attempted == submitted {
            idle + 1
        } else {
            0
        };
        if idle > 2 * (CONFIRMATION_DEPTH + 1) {
            let lost =
                pending.confirmer.len() + waiting.iter().map(|(w, _)| w.len()).sum::<usize>();
            m.failed += lost as u64;
            m.check_failures
                .push(format!("{lost} reports never became final"));
            break;
        }
        pending.mine(platform, calls, m);
    }
    pending.queue_wait_ms
}

pub fn episode(
    args: &Args,
    episode: u64,
    m: &mut Measured,
    traced: Option<&mut TraceRun>,
) -> Result<(), String> {
    let input = generate(args, episode);

    let systems = input.systems.clone();
    let started = Instant::now();
    let (mut platform, sra_ids) = set_up(&input, systems)?;
    m.setup_s.push(started.elapsed().as_secs_f64());

    let pairs: Vec<(InitialReport, DetailedReport)> = input
        .claims
        .iter()
        .map(|c| {
            create_report_pair(
                &c.key,
                sra_ids[c.sra],
                Findings::new(c.found.clone(), "bounty"),
            )
        })
        .collect();
    m.records_delivered += 2 * pairs.len() as u64;

    let counters_before = Counters::now();
    let loop_start = Instant::now();
    let queue_wait_ms = serve(&mut platform, &pairs, &input, &mut Plain, m);
    let loop_s = loop_start.elapsed().as_secs_f64();
    m.loop_s += loop_s;
    let counters_after = Counters::now();

    check(&platform, &input, &sra_ids, m);

    let provider = &platform.providers()[0].keypair;
    restart_from_export(platform.store(), provider, platform.library(), m)?;

    if let Some(t) = traced {
        t.counters.accumulate(&counters_before, &counters_after);
        t.queue_wait_ms.extend(queue_wait_ms);
        sigcache::reset();
        let tip = replay(&input, &pairs, t)?;
        m.check(tip == platform.store().best_tip(), || {
            "traced replay built a different chain than the untraced run".into()
        });
    }
    Ok(())
}

/// The platform's outputs that must hold after every episode.
fn check(platform: &Platform, input: &Input, sra_ids: &[SraId], m: &mut Measured) {
    let honest: HashSet<(usize, VulnId)> = input
        .claims
        .iter()
        .filter(|c| !c.forged)
        .flat_map(|c| c.found.iter().map(move |v| (c.sra, *v)))
        .collect();
    let paid = platform.payouts().len();
    m.check(paid == honest.len(), || {
        format!("{paid} payouts for {} distinct honest claims", honest.len())
    });
    for (s, sra_id) in sra_ids.iter().enumerate() {
        let confirmed = platform.confirmed_vulnerabilities(sra_id);
        let truth = input.systems[s].ground_truth();
        m.check(confirmed.iter().all(|v| truth.contains(v)), || {
            format!("SRA {s} paid a vulnerability its image does not hold")
        });
        let forged = input
            .claims
            .iter()
            .filter(|c| c.sra == s && c.forged)
            .flat_map(|c| c.found.iter());
        for v in forged {
            m.check(!confirmed.contains(v), || {
                format!("forged {v:?} was paid on SRA {s}")
            });
        }
    }
    for c in input.claims.iter().filter(|c| c.forged) {
        let strikes = platform.scoreboard().score(&c.key.address()).strikes;
        m.check(strikes >= 1, || "forging detector was not struck".into());
    }
    let (supply, issued) = platform.audit_supply();
    m.check(supply == issued, || {
        format!("supply {supply:?} != issued {issued:?}")
    });
}

/// Runs the episode again on a fresh platform with a span around every
/// call, and returns the tip it built.
fn replay(
    input: &Input,
    pairs: &[(InitialReport, DetailedReport)],
    t: &mut TraceRun,
) -> Result<BlockId, String> {
    let (mut platform, _) = set_up(input, input.systems.clone())?;
    let mut scratch = Measured::default();
    let tracer = &mut t.tracer;
    let started = Instant::now();
    tracer.span(LOOP_ROOT, 0, |tr| {
        serve(&mut platform, pairs, input, tr, &mut scratch)
    });
    if !scratch.check_failures.is_empty() {
        return Err(format!("traced replay: {:?}", scratch.check_failures));
    }
    t.traced_s += started.elapsed().as_secs_f64();
    Ok(platform.store().best_tip())
}
