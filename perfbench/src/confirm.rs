//! Tracking delivered records until they are 6 blocks deep.

use crate::Measured;
use smartcrowd::chain::{Block, Record, CONFIRMATION_DEPTH};
use smartcrowd::crypto::Digest;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The ids of a block's records.
pub fn ids(block: &Block) -> Vec<Digest> {
    block.records().iter().map(Record::id).collect()
}

/// Delivered records not yet 6 blocks deep, with when each arrived.
#[derive(Debug, Default)]
pub struct Confirmer {
    delivered: HashMap<Digest, Instant>,
    /// The delivered R* records: confirming one resolves its pair.
    detailed: HashSet<Digest>,
    /// Highest height whose records are final.
    final_height: u64,
}

impl Confirmer {
    /// Tracks records on a chain whose tip is at `height`.
    pub fn at_height(height: u64) -> Self {
        Confirmer {
            final_height: height,
            ..Confirmer::default()
        }
    }

    /// Notes `record`, an R* when `detailed`, as handed over at `at`.
    pub fn deliver(&mut self, record: Digest, detailed: bool, at: Instant) {
        self.delivered.insert(record, at);
        if detailed {
            self.detailed.insert(record);
        }
    }

    /// Delivered records not final yet.
    pub fn len(&self) -> usize {
        self.delivered.len()
    }

    /// Whether every delivered record is final.
    pub fn is_empty(&self) -> bool {
        self.delivered.is_empty()
    }

    /// With the tip at `tip`, every height up to `tip - 6` is final. Each
    /// delivered record in a newly final block counts in `m` as confirmed
    /// at `now`. `ids_at` reads the record ids of the block at a height.
    pub fn advance(
        &mut self,
        tip: u64,
        now: Instant,
        m: &mut Measured,
        mut ids_at: impl FnMut(u64) -> Vec<Digest>,
    ) {
        while self.final_height + CONFIRMATION_DEPTH < tip {
            self.final_height += 1;
            for id in ids_at(self.final_height) {
                if let Some(at) = self.delivered.remove(&id) {
                    m.record_confirm_ms.push((now - at).as_secs_f64() * 1e3);
                    m.records_confirmed += 1;
                    if self.detailed.remove(&id) {
                        m.reports_resolved += 1;
                    }
                }
            }
        }
    }
}
