//! # webtable-bench
//!
//! Shared fixtures for the `perf_report` micro-benchmark harness and the
//! closed-loop load driver. Each `perf_report` group measures one cost
//! that the paper's evaluation rests on:
//!
//! | group | paper artifact it supports |
//! |-------|----------------------------|
//! | `similarity` | §4.2.1 feature kernels (the 80%-of-runtime claim, Fig. 7) |
//! | `candidates/*` | §4.3 candidate generation / lemma-index probes |
//! | `bp/*` | §4.4.2 message passing (the <1%-of-runtime claim, Fig. 7) |
//! | `annotate/*` | Fig. 7 per-table cost: collective vs baselines, and per phase |
//! | `search/*` | §5/Fig. 9 query latency: baseline vs typed processors |
//! | `catalog` | §4.2.3 catalog probes: `dist`, extents, relatedness |

pub mod load;

use std::sync::{Arc, OnceLock};

use webtable_catalog::{generate_world, World, WorldConfig};
use webtable_core::Annotator;
use webtable_tables::{LabeledTable, NoiseConfig, TableGenerator, TruthMask};

/// A lazily-built shared fixture: default-scale world + annotator.
pub struct Fixture {
    /// The synthetic world.
    pub world: World,
    /// Annotator over the published catalog (index prebuilt).
    pub annotator: Annotator,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

/// Returns the process-wide fixture, building it on first use.
pub fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let world = generate_world(&WorldConfig::default()).expect("world");
        let annotator = Annotator::new(Arc::clone(&world.catalog));
        Fixture { world, annotator }
    })
}

/// Generates `n` labeled tables with the given noise preset.
pub fn tables(n: usize, rows: usize, noise: NoiseConfig, seed: u64) -> Vec<LabeledTable> {
    let f = fixture();
    let mut g = TableGenerator::new(&f.world, noise, TruthMask::full(), seed);
    g.gen_corpus(n, rows)
}

/// The duplicate-heavy corpus of `perf_report`'s `batch/*` and
/// `stream/annotate` groups: a small base set of wide tables repeated
/// several times, the common shape of real web-table crawls (the same
/// entity strings recur across millions of tables). One definition so
/// every row of those groups measures the same workload.
pub fn duplicate_heavy_corpus() -> Vec<webtable_tables::Table> {
    let base: Vec<webtable_tables::Table> =
        tables(4, 50, NoiseConfig::web(), 41).into_iter().map(|lt| lt.table).collect();
    let mut corpus = Vec::with_capacity(base.len() * 4);
    for _ in 0..4 {
        corpus.extend(base.iter().cloned());
    }
    corpus
}

/// The corpus-scale batch profile of `perf_report`'s `batch/*` and
/// `stream/annotate` groups: the fixture's catalog and index with a lean
/// type budget (`type_k` 16, not the served default of 64), which keeps
/// per-table model construction proportionate so the workload is
/// candidate-bound — the regime the cross-table cache (and the paper's
/// Fig. 7 80% claim) targets. Cached and uncached runs both use this
/// profile, so the comparison is apples-to-apples.
pub fn batch_annotator() -> Annotator {
    fixture()
        .annotator
        .clone()
        .with_config(webtable_core::AnnotatorConfig { type_k: 16, ..Default::default() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_once() {
        let a = fixture();
        let b = fixture();
        assert!(std::ptr::eq(a, b));
        assert!(a.world.catalog.num_entities() > 1000);
    }
}
