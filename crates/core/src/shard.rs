//! The sharding layer: partition any index across `N` shards without
//! changing a single byte of any answer.
//!
//! The ROADMAP's "millions of users" north star needs indexes that outgrow
//! one allocation and one build. The paper's filter family distributes
//! naturally (LSF-Join makes the same observation for the join setting):
//! repetitions are embarrassingly parallel, and hash-partitioning the sets
//! keeps shards balanced even under the skewed distributions this workspace
//! targets. [`ShardedIndex`] packages both decompositions behind the normal
//! [`SetSimilaritySearch`] interface:
//!
//! * [`ShardStrategy::ByRepetition`] — each shard owns a contiguous slice of
//!   the probe passes (LSF repetitions / MinHash bands) over the **full**
//!   dataset. Shard builds and probes are independent; a candidate can
//!   surface in several shards, so the merge deduplicates across shards.
//! * [`ShardStrategy::ByDataset`] — the vectors are hash-partitioned by set
//!   content ([`set_partition_key`]); each shard is a full index over its
//!   slice with local ids. Every candidate lives in exactly one shard, so
//!   cross-shard dedup is vacuous and the merge only reorders and remaps.
//!
//! ## The merge protocol
//!
//! Both strategies reconstruct the unsharded index's `search_all` output
//! **byte-identically** (`tests/shard_equivalence.rs` pins this down for all
//! five index types). The key fact: every structure here emits matches in
//! first-discovery order, and a candidate's first discovery happens at a
//! lexicographically minimal `(pass, step)` coordinate — repetition/band,
//! then filter/bucket — with ids ascending inside one coordinate (bucket
//! insertion order). So the unsharded output order is exactly "sort
//! candidates by `(pass, step, id)` of their first discovery". Shards report
//! that coordinate per match ([`SetSimilaritySearch::probe_passes`]);
//! the merge offsets passes (`ByRepetition`), remaps local ids to global
//! (`ByDataset`), sorts by `(pass, step, id)`, and drops all but the first
//! occurrence of each id. Dedup-before-verify holds *within* each shard
//! exactly as in the unsharded index, and the merge never re-verifies —
//! but note that under `ByRepetition` a candidate surfacing in several
//! pass-slices is verified once *per owning shard* (up to `N` similarity
//! computations for a hot candidate; the per-shard `seen` sets cannot see
//! each other). `ByDataset` has no such duplication: every candidate lives
//! in exactly one shard.
//!
//! Cross-shard fan-out and shard construction both run on the existing
//! work-stealing executor ([`crate::batch::batch_map_chunked`] with a claim
//! chunk of 1, so a handful of expensive shard probes actually spread across
//! workers).
//!
//! ## The plan broadcast (enumerate once, probe everywhere)
//!
//! `ByDataset` shards share the parent's hash stacks and key interners, so a
//! query's filter set `F(q)` — and hence its [`QueryPlan`](crate::QueryPlan) — is
//! **shard-invariant**. The wrapper therefore runs the pipeline's stage 1
//! exactly once per query ([`SetSimilaritySearch::plan_query`] on one shard)
//! and broadcasts the resulting plan to every shard's probe, which only
//! touches the shard's inverted index: one enumeration per query at any
//! shard count and, because a plan is plain owned data, exactly what a
//! cross-machine fan-out would serialize and ship. `ByRepetition` shards own
//! *disjoint* pass slices, so each shard enumerates its own slice lazily —
//! total enumeration is the unsharded `1×` either way.
//! `tests/enumeration_count.rs` pins the exactly-one-enumeration claim with
//! the counting hook [`crate::engine::enumeration_count`].
//!
//! ## Trade-offs (documented, not hidden)
//!
//! `ByRepetition` duplicates the dataset into every shard (memory `N·|S|`)
//! but enumerates query filters once per shard slice — total probe work
//! matches the unsharded index. `ByDataset` partitions the vectors (memory
//! `≈ |S|` plus per-shard hash stacks) and, with the plan broadcast,
//! enumerates once per query like the unsharded index — only bucket probing
//! and verification run per shard. Both keep per-shard structures small
//! enough to build, rebuild, and eventually place on separate machines.

use crate::batch::{batch_map, batch_map_chunked};
use crate::index::LsfIndex;
use crate::persist::{
    kind, load_container, write_container, Persist, PersistError, ShardManifest, ShardManifestEntry,
};
use crate::scheme::ThresholdScheme;
use crate::traits::{
    DeadlineExceeded, Match, MutationError, PassSource, ProbeControl, SetId, SetSimilaritySearch,
    TaggedMatch,
};
use skewsearch_hashing::{mix, FxHashSet};
use skewsearch_sets::SparseVec;

/// How a [`ShardedIndex`] decomposes the underlying index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Each shard owns a contiguous slice of the probe passes (repetitions /
    /// bands) over the full dataset.
    ByRepetition,
    /// Vectors are hash-partitioned by set content; each shard is a full
    /// index over its slice.
    ByDataset,
}

/// An index that knows how to split itself into shards. Implemented by every
/// index structure in the workspace (the LSF family and MinHash); the
/// sharded wrapper is generic over this trait.
///
/// Implementations must uphold the tag contract of
/// [`SetSimilaritySearch::probe_passes`] with *genuine* probe
/// coordinates — the byte-identical merge guarantee of [`ShardedIndex`]
/// holds only then — and the **plan-invariance contract**: dataset shards
/// keep the parent's probe-plan structure, i.e.
/// `self.shard_of_ids(ids).plan_query(q) == self.plan_query(q)` for every
/// query. The wrapper's enumerate-once broadcast plans on one shard and
/// probes the same [`crate::QueryPlan`] on all of them; a shard that redrew hash
/// stacks would silently probe the wrong buckets.
pub trait Shardable: SetSimilaritySearch + Sized {
    /// Number of probe passes (repetitions / bands) this index runs.
    fn passes(&self) -> usize;

    /// Clones out a shard owning the pass slice `range` over the full
    /// dataset. Shard pass `r` must be byte-identical to this index's pass
    /// `range.start + r`. An empty range yields an index that finds nothing.
    fn shard_of_passes(&self, range: std::ops::Range<usize>) -> Self;

    /// Clones out a shard owning only the vectors with the given global ids
    /// (strictly ascending), remapped to local ids `0..ids.len()`.
    fn shard_of_ids(&self, ids: &[u32]) -> Self;

    /// Stable content-hash of the indexed vector `id`, used to assign it to
    /// a dataset shard. Equal sets always land in the same shard.
    fn partition_key(&self, id: u32) -> u64;

    /// Total id slots ever assigned, live or not. For frozen structures this
    /// is `len()` (the default); mutable structures report retired
    /// (tombstoned) slots too, and [`ShardedIndex::build`] partitions *all*
    /// of them so local/global id maps stay dense and monotone.
    fn slot_count(&self) -> usize {
        self.len()
    }
}

/// Stable 64-bit content hash of a set, for dataset partitioning: mixes each
/// dimension through [`mix::splitmix64`] and folds with [`mix::combine64`],
/// so the key depends only on the set's contents (not its id), and duplicate
/// sets co-locate on one shard.
pub fn set_partition_key(x: &SparseVec) -> u64 {
    x.iter().fold(0x9E37_79B9_7F4A_7C15, |acc, i| {
        mix::combine64(acc, mix::splitmix64(i as u64))
    })
}

/// Builds the global→local id table a dataset shard uses to filter buckets:
/// `table[g]` is `g`'s local id when the shard owns `g`, `u32::MAX`
/// otherwise. Shared by every [`Shardable::shard_of_ids`] implementation.
///
/// # Panics
/// Panics if `ids` is not strictly ascending or contains an id `≥ len`.
pub fn local_id_table(ids: &[u32], len: usize) -> Vec<u32> {
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "shard ids must be strictly ascending"
    );
    let mut table = vec![u32::MAX; len];
    for (local, &global) in ids.iter().enumerate() {
        table[global as usize] = local as u32;
    }
    table
}

/// Filters one bucket down to a shard's ids, remapping globals to locals via
/// a [`local_id_table`]; `None` when the shard owns none of the bucket.
/// Bucket order (ascending global id) is preserved — the table is monotone —
/// which is what keeps shard probes in the unsharded discovery order.
pub fn remap_bucket(bucket: &[u32], local_of: &[u32]) -> Option<Vec<u32>> {
    let local: Vec<u32> = bucket
        .iter()
        .map(|&id| local_of[id as usize])
        .filter(|&l| l != u32::MAX)
        .collect();
    (!local.is_empty()).then_some(local)
}

/// One shard plus the bookkeeping the merge needs to globalize its answers.
struct Shard<S> {
    index: S,
    /// Added to the shard's pass tags (`ByRepetition` slices; 0 otherwise).
    pass_offset: u32,
    /// Local id → global id (`ByDataset`; `None` when ids are already
    /// global).
    id_map: Option<Vec<u32>>,
}

impl<S> Shard<S> {
    /// Lifts a shard-local tagged match into global coordinates: offsets the
    /// pass (`ByRepetition`) and remaps the id (`ByDataset`).
    fn globalize(&self, mut t: TaggedMatch) -> TaggedMatch {
        t.pass += self.pass_offset;
        if let Some(map) = &self.id_map {
            t.hit.id = map[t.hit.id] as usize;
        }
        t
    }
}

/// A sharded index: `N` shards of an underlying [`Shardable`] index, merged
/// behind [`SetSimilaritySearch`] with answers **byte-identical** to the
/// unsharded index — same matches, same similarities, same order, for
/// `search`, `search_all`, and `search_batch`.
///
/// Every query fans out across the shards on one worker per core;
/// `search_batch` instead runs its queries on one worker per core, each
/// fanning out on one worker.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use skewsearch_core::{
///     CorrelatedIndex, CorrelatedParams, SetSimilaritySearch, ShardStrategy, ShardedIndex,
/// };
/// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let profile = BernoulliProfile::two_block(800, 0.2, 0.02).unwrap();
/// let data = Dataset::generate(&profile, 200, &mut rng);
/// let index = CorrelatedIndex::build(
///     &data,
///     &profile,
///     CorrelatedParams::new(0.8).unwrap(),
///     &mut rng,
/// );
/// let sharded = ShardedIndex::build(&index, ShardStrategy::ByDataset, 4);
/// let q = correlated_query(data.vector(3), &profile, 0.8, &mut rng);
/// assert_eq!(sharded.search_all(&q), index.search_all(&q));
/// ```
pub struct ShardedIndex<S> {
    shards: Vec<Shard<S>>,
    strategy: ShardStrategy,
    threshold: f64,
    len: usize,
    /// The next global [`SetId`] to hand out — starts at the source index's
    /// slot count, so the wrapper assigns exactly the ids the unsharded
    /// index would.
    next_id: usize,
    /// Global id → `(shard, local id)` under `ByDataset` (every slot, live
    /// or tombstoned, lives in exactly one shard); empty under
    /// `ByRepetition`, where ids are already global in every shard.
    owner: Vec<(u32, u32)>,
}

impl<S: Shardable + Send + Sync> ShardedIndex<S> {
    /// Partitions `index` into `shards` shards under `strategy`. Shard
    /// construction fans out on the work-stealing executor.
    ///
    /// Shard counts exceeding the pass count (`ByRepetition`) or vector
    /// count (`ByDataset`) produce empty shards, which are valid and simply
    /// contribute nothing.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn build(index: &S, strategy: ShardStrategy, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let slot_count = index.slot_count();
        let mut owner = Vec::new();
        let built = match strategy {
            ShardStrategy::ByRepetition => {
                let passes = index.passes();
                // Balanced contiguous slices; later slices may be empty when
                // shards > passes.
                let ranges: Vec<std::ops::Range<usize>> = (0..shards)
                    .map(|k| (k * passes / shards)..((k + 1) * passes / shards))
                    .collect();
                batch_map_chunked(&ranges, 0, 1, |range| Shard {
                    index: index.shard_of_passes(range.clone()),
                    pass_offset: range.start as u32,
                    id_map: None,
                })
            }
            ShardStrategy::ByDataset => {
                // Every slot is routed, tombstoned ones included: that keeps
                // each shard's local↔global map dense and monotone, so a
                // mutated source index shards exactly like a frozen one.
                let mut ids: Vec<Vec<u32>> = vec![Vec::new(); shards];
                for id in 0..slot_count as u32 {
                    ids[(index.partition_key(id) % shards as u64) as usize].push(id);
                }
                owner = vec![(0, 0); slot_count];
                for (shard_ix, ids) in ids.iter().enumerate() {
                    for (local, &global) in ids.iter().enumerate() {
                        owner[global as usize] = (shard_ix as u32, local as u32);
                    }
                }
                batch_map_chunked(&ids, 0, 1, |ids| Shard {
                    index: index.shard_of_ids(ids),
                    pass_offset: 0,
                    id_map: Some(ids.clone()),
                })
            }
        };
        Self {
            shards: built,
            strategy,
            threshold: index.threshold(),
            len: index.len(),
            next_id: slot_count,
            owner,
        }
    }

    /// The decomposition strategy.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Number of shards (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Indexed-vector count per shard. Under `ByRepetition` every shard
    /// reports the full dataset; under `ByDataset` the counts partition it.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.index.len()).collect()
    }

    /// The one fan-out behind every query surface: probes every shard under
    /// `ctl` (`threads` workers, claim chunk 1, so each shard probe can take
    /// its own worker), globalizes tags and ids, and merges back into the
    /// unsharded discovery order: sort by `(pass, step, id)`, then keep only
    /// the first occurrence of each id — under `first_only`, only the first
    /// match overall, the `(pass, step, id)`-minimum of the shards' own
    /// first hits.
    ///
    /// Under `ByDataset` the query is planned once, on the first shard —
    /// plans are shard-invariant there (the [`Shardable`] plan-invariance
    /// contract), so even a shard owning zero vectors derives the parent's
    /// plan — and every shard probes that one plan: exactly one `F(q)`
    /// enumeration per query, no matter the shard count. `ByRepetition`
    /// shards own disjoint pass slices and enumerate their own lazily, so a
    /// `first_only` probe stops enumerating at the shard's first hit.
    ///
    /// The deadline is polled before planning, then by every shard at its
    /// own pass boundaries; if *any* shard reports [`DeadlineExceeded`] the
    /// whole query does — a merge over a partial shard set would silently
    /// drop matches.
    fn fan_out(
        &self,
        q: &SparseVec,
        ctl: ProbeControl<'_>,
        threads: usize,
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        ctl.poll()?;
        let plan = match self.strategy {
            ShardStrategy::ByDataset => Some(self.shards[0].index.plan_query(q)),
            ShardStrategy::ByRepetition => None,
        };
        let source = plan.as_ref().map_or(PassSource::Query(q), PassSource::Plan);
        let per_shard = batch_map_chunked(&self.shards, threads, 1, |shard| {
            shard.index.probe_passes(source, ctl)
        });
        let mut all: Vec<TaggedMatch> = Vec::new();
        for (shard, tagged) in self.shards.iter().zip(per_shard) {
            all.extend(tagged?.into_iter().map(|t| shard.globalize(t)));
        }
        all.sort_by_key(|t| (t.pass, t.step, t.hit.id));
        let mut seen: FxHashSet<usize> = FxHashSet::default();
        all.retain(|t| seen.insert(t.hit.id));
        if ctl.first_only {
            all.truncate(1);
        }
        Ok(all)
    }
}

impl<S: Shardable + Persist + Send + Sync> ShardedIndex<S> {
    /// Saves the whole deployment into `dir` (created if missing): one
    /// container file per shard (`shard-0000.skx`, `shard-0001.skx`, …) plus
    /// a `manifest.skx` recording the strategy, thresholds, watermark, owner
    /// table, and each shard's file, pass offset, and local→global id map —
    /// see [`crate::persist::ShardManifest`] and the "restoring a sharded
    /// deployment" walkthrough in `docs/PERSISTENCE.md`.
    ///
    /// [`ShardedIndex::load`] on the same directory restores a wrapper whose
    /// every answer surface is byte-identical to this one's.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{
    ///     CorrelatedIndex, CorrelatedParams, SetSimilaritySearch, ShardStrategy, ShardedIndex,
    /// };
    /// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(21);
    /// let profile = BernoulliProfile::two_block(400, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 100, &mut rng);
    /// let index = CorrelatedIndex::build(
    ///     &data,
    ///     &profile,
    ///     CorrelatedParams::new(0.8).unwrap(),
    ///     &mut rng,
    /// );
    /// let sharded = ShardedIndex::build(&index, ShardStrategy::ByDataset, 2);
    ///
    /// let dir = std::env::temp_dir().join(format!(
    ///     "skewsearch_doctest_deployment_{}",
    ///     std::process::id()
    /// ));
    /// sharded.save(&dir).unwrap();
    /// let restored: ShardedIndex<CorrelatedIndex> = ShardedIndex::load(&dir).unwrap();
    /// std::fs::remove_dir_all(&dir).unwrap();
    ///
    /// let q = correlated_query(data.vector(4), &profile, 0.8, &mut rng);
    /// assert_eq!(restored.search_all(&q), sharded.search_all(&q));
    /// assert_eq!(restored.shard_count(), sharded.shard_count());
    /// ```
    pub fn save(&self, dir: &std::path::Path) -> Result<(), PersistError> {
        std::fs::create_dir_all(dir)?;
        let mut entries = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let file = format!("shard-{i:04}.skx");
            shard.index.save(&dir.join(&file))?;
            entries.push(ShardManifestEntry {
                file,
                pass_offset: shard.pass_offset,
                id_map: shard.id_map.clone(),
            });
        }
        let manifest = ShardManifest {
            strategy: self.strategy,
            threshold: self.threshold,
            len: self.len,
            next_id: self.next_id,
            owner: self.owner.clone(),
            shards: entries,
        };
        write_container(
            &dir.join("manifest.skx"),
            kind::MANIFEST,
            &manifest.encode(),
        )
    }

    /// Restores a deployment saved by [`ShardedIndex::save`]: reads and
    /// validates `dir/manifest.skx`, loads every shard file it lists, and
    /// checks the manifest against the loaded shards. Fails with a typed
    /// [`PersistError`] on a corrupt manifest, a missing or corrupt shard
    /// file, or a manifest that disagrees with its shards (the checks of
    /// `docs/PERSISTENCE.md` §7.1) — never panics.
    pub fn load(dir: &std::path::Path) -> Result<Self, PersistError> {
        let manifest = load_container(
            &dir.join("manifest.skx"),
            kind::MANIFEST,
            ShardManifest::decode,
        )?;
        let mut shards = Vec::with_capacity(manifest.shards.len());
        for entry in manifest.shards {
            shards.push(Shard {
                index: S::load(&dir.join(&entry.file))?,
                pass_offset: entry.pass_offset,
                id_map: entry.id_map,
            });
        }
        let index = Self {
            shards,
            strategy: manifest.strategy,
            threshold: manifest.threshold,
            len: manifest.len,
            next_id: manifest.next_id,
            owner: manifest.owner,
        };
        index.check_manifest()?;
        Ok(index)
    }

    /// The invariants [`ShardedIndex::build`] establishes and the merge and
    /// mutation paths index by, checked on a loaded deployment. Every shard
    /// shares the manifest's threshold. Under `ByDataset`, pass offsets are
    /// 0, and each shard's id map is strictly ascending and as long as its
    /// slot count; the owner table, `next_id` long, is their exact inverse;
    /// the shards' live counts sum to `len`. Under `ByRepetition`, there are
    /// no id maps and no owner table, every shard holds `next_id` slots and
    /// `len` live sets, and pass offsets are the running sum of the shards'
    /// passes.
    fn check_manifest(&self) -> Result<(), PersistError> {
        if self.shards.is_empty() {
            return Err(PersistError::Malformed("manifest lists no shards"));
        }
        let dataset = self.strategy == ShardStrategy::ByDataset;
        let mut ok = self.owner.len() == if dataset { self.next_id } else { 0 };
        let (mut passes, mut slots, mut live) = (0usize, 0usize, 0usize);
        for (k, shard) in self.shards.iter().enumerate() {
            ok &= shard.index.threshold() == self.threshold
                && shard.pass_offset as usize == if dataset { 0 } else { passes };
            match &shard.id_map {
                Some(map) if dataset => {
                    ok &= map.len() == shard.index.slot_count()
                        && map.windows(2).all(|w| w[0] < w[1])
                        && map.iter().enumerate().all(|(local, &global)| {
                            self.owner.get(global as usize) == Some(&(k as u32, local as u32))
                        });
                    slots += map.len();
                    live += shard.index.len();
                }
                None if !dataset => {
                    ok &= shard.index.slot_count() == self.next_id && shard.index.len() == self.len;
                }
                _ => ok = false,
            }
            passes += shard.index.passes();
        }
        if dataset {
            ok &= slots == self.next_id && live == self.len;
        }
        if ok {
            Ok(())
        } else {
            Err(PersistError::Malformed(
                "manifest disagrees with its shards",
            ))
        }
    }
}

impl<S: Shardable + Send + Sync> SetSimilaritySearch for ShardedIndex<S> {
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.search_all_tagged(q)
            .into_iter()
            .map(|t| t.hit)
            .collect()
    }

    /// The shard fan-out (see [`ShardedIndex`]'s merge protocol): the merged
    /// tags are the *unsharded* index's global `(pass, step)` coordinates,
    /// and a first-only probe runs no shard past its own first verified hit.
    /// Shards re-derive their keys from the source's query — a plan from
    /// one shard is not a plan for the whole deployment.
    fn probe_passes(
        &self,
        source: PassSource<'_>,
        ctl: ProbeControl<'_>,
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        self.fan_out(source.query(), ctl, 0)
    }

    /// Parallelizes across *queries* on one worker per core (the shard
    /// fan-out inside each query stays sequential to avoid nested
    /// oversubscription); results equal
    /// `queries.iter().map(|q| self.search_all(q))` regardless.
    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        batch_map(queries, 0, |q| {
            let all = self.fan_out(q, ProbeControl::ALL, 1).unwrap_or_default();
            all.into_iter().map(|t| t.hit).collect()
        })
    }

    /// Routes the insert to its owning shard and assigns the exact global
    /// [`SetId`] the unsharded index would: under `ByDataset` the new set
    /// goes to the shard its content hash selects (the same routing
    /// [`ShardedIndex::build`] uses, so duplicates still co-locate) and the
    /// fresh global id is appended to that shard's id map (which stays
    /// monotone — the merge protocol is untouched); under `ByRepetition`
    /// every shard indexes the set under its own pass slice, so the total
    /// enumeration work equals one unsharded insert.
    ///
    /// Errs with [`MutationError::Unsupported`] — before touching anything —
    /// iff the underlying index type is read-only.
    fn insert(&mut self, set: SparseVec) -> Result<SetId, MutationError> {
        if !self.supports_mutation() {
            return Err(MutationError::Unsupported);
        }
        let global = self.next_id;
        match self.strategy {
            ShardStrategy::ByDataset => {
                let shard_ix = (set_partition_key(&set) % self.shards.len() as u64) as usize;
                let shard = &mut self.shards[shard_ix];
                let local = shard.index.insert(set)?;
                if let Some(map) = shard.id_map.as_mut() {
                    assert_eq!(local, map.len(), "shard-local ids must stay dense");
                    map.push(global as u32);
                }
                self.owner.push((shard_ix as u32, local as u32));
            }
            ShardStrategy::ByRepetition => {
                for shard in &mut self.shards {
                    let local = shard.index.insert(set.clone())?;
                    assert_eq!(local, global, "ByRepetition shard ids are global");
                }
            }
        }
        self.next_id += 1;
        self.len += 1;
        Ok(global)
    }

    /// Tombstones the set in whichever shard(s) hold it: the owner-table
    /// lookup under `ByDataset`, a broadcast under `ByRepetition` (every
    /// shard keeps its own liveness for the full dataset). Same semantics
    /// as the unsharded remove: `Ok(false)` for unassigned or already-dead
    /// ids, and ids are never reused.
    fn remove(&mut self, id: SetId) -> Result<bool, MutationError> {
        if !self.supports_mutation() {
            return Err(MutationError::Unsupported);
        }
        let removed = match self.strategy {
            ShardStrategy::ByDataset => {
                if id >= self.owner.len() {
                    false
                } else {
                    let (shard_ix, local) = self.owner[id];
                    self.shards[shard_ix as usize]
                        .index
                        .remove(local as usize)?
                }
            }
            ShardStrategy::ByRepetition => {
                let mut removed = false;
                for shard in &mut self.shards {
                    // Every shard sees the same full-dataset liveness, so
                    // each reports the same answer.
                    removed = shard.index.remove(id)?;
                }
                removed
            }
        };
        if removed {
            self.len -= 1;
        }
        Ok(removed)
    }

    /// Mutable exactly when every shard's underlying index is.
    fn supports_mutation(&self) -> bool {
        self.shards.iter().all(|s| s.index.supports_mutation())
    }

    /// Sum of the shards' accounting plus the wrapper's own owner table.
    fn memory_stats(&self) -> crate::traits::MemoryStats {
        let mut total = crate::traits::MemoryStats::default();
        for shard in &self.shards {
            let s = shard.index.memory_stats();
            total.posting_bytes += s.posting_bytes;
            total.vector_bytes += s.vector_bytes;
            total.aux_bytes += s.aux_bytes;
        }
        total.aux_bytes += self.owner.capacity() * std::mem::size_of::<(u32, u32)>();
        total
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Live sets only, kept in lockstep with the shards' own counts.
    fn len(&self) -> usize {
        self.len
    }
}

impl<S: ThresholdScheme + Clone> Shardable for LsfIndex<S> {
    fn passes(&self) -> usize {
        self.repetition_count()
    }

    fn shard_of_passes(&self, range: std::ops::Range<usize>) -> Self {
        LsfIndex::shard_of_passes(self, range)
    }

    fn shard_of_ids(&self, ids: &[u32]) -> Self {
        LsfIndex::shard_of_ids(self, ids)
    }

    fn partition_key(&self, id: u32) -> u64 {
        set_partition_key(&self.vectors()[id as usize])
    }

    fn slot_count(&self) -> usize {
        LsfIndex::slot_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexOptions, Repetitions};
    use crate::scheme::CorrelatedScheme;
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};

    fn fixture(reps: usize) -> (LsfIndex<CorrelatedScheme>, Vec<SparseVec>) {
        let profile = BernoulliProfile::two_block(500, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(0x5AAD);
        let ds = Dataset::generate(&profile, 160, &mut rng);
        let scheme = CorrelatedScheme::new(0.8, ds.n(), &profile);
        let index = LsfIndex::build(
            ds.vectors().to_vec(),
            profile.clone(),
            scheme,
            0.8 / 1.3,
            IndexOptions {
                repetitions: Repetitions::Fixed(reps),
                ..IndexOptions::default()
            },
            &mut rng,
        );
        let queries: Vec<SparseVec> = (0..25)
            .map(|t| correlated_query(ds.vector(t * 7 % ds.n()), &profile, 0.8, &mut rng))
            .chain(std::iter::once(SparseVec::empty()))
            .collect();
        (index, queries)
    }

    #[test]
    fn both_strategies_reproduce_unsharded_output() {
        let (index, queries) = fixture(6);
        for strategy in [ShardStrategy::ByRepetition, ShardStrategy::ByDataset] {
            for shards in [1, 2, 5] {
                let sharded = ShardedIndex::build(&index, strategy, shards);
                assert_eq!(sharded.len(), index.len());
                assert_eq!(sharded.threshold(), index.threshold());
                for q in &queries {
                    assert_eq!(
                        sharded.search_all(q),
                        index.search_all(q),
                        "{strategy:?} shards={shards}"
                    );
                    assert_eq!(sharded.search(q), index.search(q));
                }
            }
        }
    }

    #[test]
    fn empty_shards_are_harmless() {
        let (index, queries) = fixture(3);
        // 3 repetitions over 8 shards: at least five shards own no passes.
        let by_rep = ShardedIndex::build(&index, ShardStrategy::ByRepetition, 8);
        assert_eq!(by_rep.shard_count(), 8);
        for q in &queries {
            assert_eq!(by_rep.search_all(q), index.search_all(q));
        }
    }

    #[test]
    fn by_dataset_partitions_the_vectors() {
        let (index, _) = fixture(4);
        let sharded = ShardedIndex::build(&index, ShardStrategy::ByDataset, 4);
        assert_eq!(sharded.strategy(), ShardStrategy::ByDataset);
        assert_eq!(sharded.shard_lens().iter().sum::<usize>(), index.len());
        // Content hashing spreads 160 vectors over 4 shards non-degenerately.
        assert!(sharded.shard_lens().iter().filter(|&&l| l > 0).count() >= 2);
    }

    #[test]
    fn sharded_indexes_compose() {
        // Tags stay global through a merge, so sharding a sharded index
        // still reproduces the original output.
        let (index, queries) = fixture(6);
        let inner = ShardedIndex::build(&index, ShardStrategy::ByRepetition, 3);
        for q in &queries {
            let once = inner.search_all_tagged(q);
            let direct = index.search_all_tagged(q);
            assert_eq!(once, direct);
        }
    }

    #[test]
    fn partition_key_is_content_based() {
        let a = SparseVec::from_unsorted(vec![3, 1, 4, 15]);
        let b = SparseVec::from_unsorted(vec![15, 4, 3, 1]);
        assert_eq!(set_partition_key(&a), set_partition_key(&b));
        let c = SparseVec::from_unsorted(vec![3, 1, 4]);
        assert_ne!(set_partition_key(&a), set_partition_key(&c));
        assert_eq!(
            set_partition_key(&SparseVec::empty()),
            0x9E37_79B9_7F4A_7C15
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let (index, _) = fixture(2);
        let _ = ShardedIndex::build(&index, ShardStrategy::ByRepetition, 0);
    }

    /// Fresh vectors (drawn apart from the fixture) to insert after build.
    fn extra_vectors(n: usize) -> Vec<SparseVec> {
        let profile = BernoulliProfile::two_block(500, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(0xFEED);
        Dataset::generate(&profile, n, &mut rng).vectors().to_vec()
    }

    #[test]
    fn mutated_sharded_equals_mutated_unsharded() {
        let (mut index, queries) = fixture(5);
        let extras = extra_vectors(30);
        // Apply one mutation script to the unsharded index and to every
        // sharded wrapper; all must agree on ids and on every answer.
        let script = |target: &mut dyn FnMut(usize, Option<SparseVec>) -> usize| {
            let mut ids = Vec::new();
            for v in extras.iter().take(20) {
                ids.push(target(usize::MAX, Some(v.clone())));
            }
            for id in [0usize, 7, 155, ids[0], ids[5]] {
                target(id, None);
            }
            for v in extras.iter().skip(20) {
                ids.push(target(usize::MAX, Some(v.clone())));
            }
        };
        let mut apply_unsharded = |id: usize, set: Option<SparseVec>| -> usize {
            match set {
                Some(set) => index.insert_set(set),
                None => {
                    index.remove_set(id);
                    id
                }
            }
        };
        script(&mut apply_unsharded);
        for strategy in [ShardStrategy::ByRepetition, ShardStrategy::ByDataset] {
            for shards in [1, 3, 8] {
                let (fresh, _) = fixture(5);
                let mut sharded = ShardedIndex::build(&fresh, strategy, shards);
                assert!(sharded.supports_mutation());
                let mut apply_sharded = |id: usize, set: Option<SparseVec>| -> usize {
                    match set {
                        Some(set) => sharded.insert(set).expect("LSF shards are mutable"),
                        None => {
                            sharded.remove(id).expect("LSF shards are mutable");
                            id
                        }
                    }
                };
                script(&mut apply_sharded);
                assert_eq!(sharded.len(), index.len(), "{strategy:?} {shards}");
                for q in &queries {
                    assert_eq!(
                        sharded.search_all_tagged(q),
                        index.search_all_tagged(q),
                        "{strategy:?} shards={shards}"
                    );
                    assert_eq!(sharded.search(q), index.search(q));
                }
            }
        }
    }

    #[test]
    fn sharded_insert_assigns_unsharded_ids_and_routes_by_content() {
        let (index, _) = fixture(4);
        let extras = extra_vectors(10);
        for strategy in [ShardStrategy::ByRepetition, ShardStrategy::ByDataset] {
            let mut sharded = ShardedIndex::build(&index, strategy, 4);
            let before = sharded.len();
            for (k, v) in extras.iter().enumerate() {
                // Global ids continue exactly where the source index stopped.
                assert_eq!(sharded.insert(v.clone()), Ok(index.len() + k));
            }
            assert_eq!(sharded.len(), before + extras.len());
            // Duplicate content co-locates: inserting a copy of an indexed
            // vector must land on the shard already holding it (ByDataset).
            if strategy == ShardStrategy::ByDataset {
                let lens_before = sharded.shard_lens();
                let dup = index.vectors()[3].clone();
                let expected_shard =
                    (set_partition_key(&dup) % sharded.shard_count() as u64) as usize;
                sharded.insert(dup).unwrap();
                let lens_after = sharded.shard_lens();
                for s in 0..sharded.shard_count() {
                    let grew = usize::from(s == expected_shard);
                    assert_eq!(lens_after[s], lens_before[s] + grew);
                }
            }
            // Remove semantics mirror the unsharded index.
            assert_eq!(sharded.remove(index.len()), Ok(true));
            assert_eq!(sharded.remove(index.len()), Ok(false), "idempotent");
            assert_eq!(sharded.remove(123_456), Ok(false), "never assigned");
        }
    }

    #[test]
    fn sharding_a_mutated_index_reproduces_its_answers() {
        // Build shards FROM an already-mutated source: tombstoned slots and
        // delta segments must survive both decompositions.
        let (mut index, queries) = fixture(5);
        let extras = extra_vectors(15);
        for v in &extras {
            index.insert_set(v.clone());
        }
        for id in [2usize, 90, 160, 165] {
            assert!(index.remove_set(id));
        }
        assert!(index.pending_mutations() > 0);
        for strategy in [ShardStrategy::ByRepetition, ShardStrategy::ByDataset] {
            for shards in [1, 3, 8] {
                let sharded = ShardedIndex::build(&index, strategy, shards);
                assert_eq!(sharded.len(), index.len());
                for q in &queries {
                    assert_eq!(
                        sharded.search_all_tagged(q),
                        index.search_all_tagged(q),
                        "{strategy:?} shards={shards}"
                    );
                }
            }
        }
    }
}
