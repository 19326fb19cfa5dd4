//! `repro save` / `repro load` — the cross-process persistence smoke.
//!
//! `save` builds a deterministic suite of indexes — a [`CorrelatedIndex`]
//! and a sharded correlated deployment — writes them under a directory via
//! [`LsfIndex::save`] and [`ShardedIndex::save`], then prints every answer
//! surface as TSV.
//! `load`, run in a **fresh process**, reopens the same files, regenerates
//! the identical query stream from the seed (the builds and the queries use
//! independent seeded RNG streams, so skipping the builds does not perturb
//! the queries), and prints the same TSV. CI diffs the two outputs
//! byte-for-byte — any drift between a built and a reloaded index fails the
//! pipeline.
//!
//! [`LsfIndex::save`]: skewsearch_core::LsfIndex::save

use crate::table::{fmt, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skewsearch_core::{
    CorrelatedIndex, CorrelatedParams, CorrelatedScheme, IndexOptions, Match, PersistError,
    Repetitions, SetSimilaritySearch, ShardedIndex,
};
use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch_sets::SparseVec;
use std::path::Path;

/// Deterministic inputs shared by `save` and `load`.
#[derive(Clone, Copy, Debug)]
pub struct PersistConfig {
    /// Dataset size `n`.
    pub scale: usize,
    /// Master seed; the dataset, the builds, and the queries each derive
    /// their own [`StdRng`] stream from it.
    pub seed: u64,
    /// Number of correlated queries to answer.
    pub queries: usize,
    /// Query correlation `α`.
    pub alpha: f64,
    /// Shard count for the sharded deployment.
    pub shards: usize,
}

impl PersistConfig {
    /// The CI smoke setting: small enough to run in seconds, large enough
    /// that every section of the on-disk format is non-trivially populated.
    pub fn default_config() -> Self {
        Self {
            scale: 400,
            seed: 42,
            queries: 24,
            alpha: 0.8,
            shards: 3,
        }
    }

    fn profile(&self) -> BernoulliProfile {
        // lint:allow(no-panic-in-lib, experiment driver — fixed valid constants)
        BernoulliProfile::two_block(900, 0.15, 0.01).unwrap()
    }

    /// The dataset, regenerated identically in both processes.
    fn dataset(&self) -> (BernoulliProfile, Dataset) {
        let profile = self.profile();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ds = Dataset::generate(&profile, self.scale, &mut rng);
        (profile, ds)
    }

    /// The query stream, regenerated identically in both processes from a
    /// seed stream independent of the builds.
    fn query_stream(&self, profile: &BernoulliProfile, ds: &Dataset) -> Vec<SparseVec> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x51E57);
        (0..self.queries)
            .map(|_| {
                let target = rng.random_range(0..ds.n());
                correlated_query(ds.vector(target), profile, self.alpha, &mut rng)
            })
            .collect()
    }
}

/// Builds the index suite, saves it under `dir` (`correlated.skx`,
/// `sharded/`), and returns the answer table.
pub fn save(config: &PersistConfig, dir: &Path) -> Result<Table, PersistError> {
    let (profile, ds) = config.dataset();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xB01D);
    let opts = IndexOptions {
        repetitions: Repetitions::Fixed(8),
        ..IndexOptions::default()
    };
    let correlated = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(config.alpha)
            // lint:allow(no-panic-in-lib, experiment driver — an invalid experiment config is a fatal setup error reported by panicking)
            .unwrap()
            .with_options(opts),
        &mut rng,
    );
    let sharded = ShardedIndex::build(&correlated, config.shards);

    std::fs::create_dir_all(dir)?;
    correlated.save(&dir.join("correlated.skx"))?;
    sharded.save(&dir.join("sharded"))?;
    report_memory(config, &correlated);

    let queries = config.query_stream(&profile, &ds);
    Ok(answers(&correlated, &sharded, &queries))
}

/// Loads the suite saved by [`save`] from `dir` and returns the answer table
/// for the identical query stream. Byte-identical output to [`save`]'s is
/// the persistence contract.
pub fn load(config: &PersistConfig, dir: &Path) -> Result<Table, PersistError> {
    let (profile, ds) = config.dataset();
    let correlated = CorrelatedIndex::load(&dir.join("correlated.skx"))?;
    let sharded = ShardedIndex::<CorrelatedScheme>::load(&dir.join("sharded"))?;
    report_memory(config, &correlated);
    let queries = config.query_stream(&profile, &ds);
    Ok(answers(&correlated, &sharded, &queries))
}

/// Logs the accounted resident footprint of the index to **stderr**.
/// This deliberately stays out of the returned [`Table`]: CI diffs the
/// save/load TSV byte-for-byte, and capacity-based byte counts legitimately
/// differ between a freshly built index and one reloaded from disk (the
/// reload allocates exactly-sized arrays).
fn report_memory(config: &PersistConfig, correlated: &CorrelatedIndex) {
    let stats = correlated.memory_stats();
    eprintln!(
        "[memory] correlated: {stats} — {:.1} B/set over n={}",
        stats.bytes_per_set(config.scale),
        config.scale,
    );
}

/// One row per (index, query): the best match, the full `search_all` id
/// list, and the batch-surface result count. The title is identical for the
/// save and load paths so the two outputs diff cleanly.
fn answers(
    correlated: &CorrelatedIndex,
    sharded: &ShardedIndex<CorrelatedScheme>,
    queries: &[SparseVec],
) -> Table {
    let mut t = Table::new(
        "Persistence smoke: answer surfaces",
        &["index", "query", "best", "all_ids", "batch_matches"],
    );
    surface_rows(&mut t, "correlated", correlated, queries);
    surface_rows(&mut t, "sharded", sharded, queries);
    t
}

fn surface_rows<S: SetSimilaritySearch>(t: &mut Table, name: &str, index: &S, qs: &[SparseVec]) {
    let batch = index.search_batch(qs);
    for (i, q) in qs.iter().enumerate() {
        let best = match index.search(q) {
            Some(m) => format!("{}:{}", m.id, fmt(m.similarity, 4)),
            None => "-".to_string(),
        };
        let all = index.search_all(q);
        let all_ids = if all.is_empty() {
            "-".to_string()
        } else {
            all.iter()
                .map(|m: &Match| m.id.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        t.push_row(vec![
            name.to_string(),
            i.to_string(),
            best,
            all_ids,
            batch[i].len().to_string(),
        ]);
    }
}
