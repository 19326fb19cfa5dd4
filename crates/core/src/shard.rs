//! The sharding layer: partition any index across `N` shards without
//! changing a single byte of any answer.
//!
//! The ROADMAP's "millions of users" north star needs indexes that outgrow
//! one allocation and one build. [`ShardedIndex`] hash-partitions the
//! indexed sets by content ([`set_partition_key`]), which keeps shards
//! balanced even under the skewed distributions this workspace targets and
//! co-locates duplicate sets. Each shard is a full index over its slice with
//! local ids and the parent's hash stacks: memory stays `≈ |S|` plus the
//! per-shard stacks, and every candidate lives in exactly one shard, so each
//! is verified once. LSF-Join makes the same partitioning observation for
//! the join setting.
//!
//! ## The merge protocol
//!
//! The wrapper reconstructs the unsharded index's `search_all` output
//! **byte-identically** (`tests/shard_equivalence.rs` pins this down for all
//! five index types). The key fact: every structure here emits matches in
//! first-discovery order, and a candidate's first discovery happens at a
//! lexicographically minimal `(pass, step)` coordinate — repetition/band,
//! then filter/bucket — with ids ascending inside one coordinate (bucket
//! insertion order). So the unsharded output order is exactly "sort
//! candidates by `(pass, step, id)` of their first discovery". Shards report
//! that coordinate per match ([`SetSimilaritySearch::probe_passes`]); the
//! merge remaps local ids to global and sorts by `(pass, step, id)`.
//! Dedup-before-verify holds within each shard exactly as in the unsharded
//! index, and since no id lives in two shards, the merge neither dedups nor
//! re-verifies.
//!
//! Cross-shard fan-out and shard construction both run on the existing
//! work-stealing executor ([`crate::batch::batch_map_chunked`] with a claim
//! chunk of 1, so a handful of expensive shard probes actually spread across
//! workers).
//!
//! ## The plan broadcast (enumerate once, probe everywhere)
//!
//! Shards share the parent's hash stacks and key interners, so a query's
//! filter set `F(q)` — and hence its [`QueryPlan`](crate::QueryPlan) — is
//! **shard-invariant**. The wrapper therefore runs the pipeline's stage 1
//! exactly once per query ([`SetSimilaritySearch::plan_query`] on one shard)
//! and broadcasts the resulting plan to every shard's probe, which only
//! touches the shard's inverted index: one enumeration per query at any
//! shard count and, because a plan is plain owned data, exactly what a
//! cross-machine fan-out would serialize and ship. Only bucket probing and
//! verification run per shard. `tests/enumeration_count.rs` pins the
//! exactly-one-enumeration claim with the counting hook
//! [`crate::engine::enumeration_count`].

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
use skewsearch_hashing::mix;
use skewsearch_sets::SparseVec;

/// An index that knows how to split itself into dataset shards. Implemented
/// by every index structure in the workspace (the LSF family and MinHash);
/// the sharded wrapper is generic over this trait.
///
/// Implementations must uphold the tag contract of
/// [`SetSimilaritySearch::probe_passes`] with *genuine* probe
/// coordinates — the byte-identical merge guarantee of [`ShardedIndex`]
/// holds only then — and the **plan-invariance contract**: shards keep the
/// parent's probe-plan structure, i.e.
/// `self.shard_of_ids(ids).plan_query(q) == self.plan_query(q)` for every
/// query. The wrapper's enumerate-once broadcast plans on one shard and
/// probes the same [`crate::QueryPlan`] on all of them; a shard that redrew hash
/// stacks would silently probe the wrong buckets.
pub trait Shardable: SetSimilaritySearch + Sized {
    /// Clones out a shard owning only the vectors with the given global ids
    /// (strictly ascending), remapped to local ids `0..ids.len()`.
    fn shard_of_ids(&self, ids: &[u32]) -> Self;

    /// Stable content-hash of the indexed vector `id`, used to assign it to
    /// a shard. Equal sets always land in the same shard.
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

/// Builds the global→local id table a shard uses to filter buckets:
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

/// One shard plus the local → global id map the merge globalizes its
/// answers with.
struct Shard<S> {
    index: S,
    id_map: Vec<u32>,
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
/// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch, ShardedIndex};
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
/// let sharded = ShardedIndex::build(&index, 4);
/// let q = correlated_query(data.vector(3), &profile, 0.8, &mut rng);
/// assert_eq!(sharded.search_all(&q), index.search_all(&q));
/// ```
pub struct ShardedIndex<S> {
    shards: Vec<Shard<S>>,
    threshold: f64,
    len: usize,
    /// Global id → `(shard, local id)` for every slot, live or tombstoned.
    /// Its length is the next global [`SetId`] to hand out: it starts at
    /// the source index's slot count, so the wrapper assigns exactly the
    /// ids the unsharded index would.
    owner: Vec<(u32, u32)>,
}

impl<S: Shardable + Send + Sync> ShardedIndex<S> {
    /// Partitions `index` into `shards` shards by set content. Shard
    /// construction fans out on the work-stealing executor.
    ///
    /// Shard counts exceeding the vector count produce empty shards, which
    /// are valid and simply contribute nothing.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn build(index: &S, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        // Every slot is routed, tombstoned ones included: that keeps each
        // shard's local↔global map dense and monotone, so a mutated source
        // index shards exactly like a frozen one.
        let slot_count = index.slot_count();
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for id in 0..slot_count as u32 {
            ids[(index.partition_key(id) % shards as u64) as usize].push(id);
        }
        let mut owner = vec![(0, 0); slot_count];
        for (shard_ix, ids) in ids.iter().enumerate() {
            for (local, &global) in ids.iter().enumerate() {
                owner[global as usize] = (shard_ix as u32, local as u32);
            }
        }
        Self {
            shards: batch_map_chunked(&ids, 0, 1, |ids| Shard {
                index: index.shard_of_ids(ids),
                id_map: ids.clone(),
            }),
            threshold: index.threshold(),
            len: index.len(),
            owner,
        }
    }

    /// Number of shards (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Indexed-vector count per shard; the counts partition the dataset.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.index.len()).collect()
    }

    /// The one fan-out behind every query surface: plans the query once, on
    /// the first shard — plans are shard-invariant (the [`Shardable`]
    /// plan-invariance contract), so even a shard owning zero vectors
    /// derives the parent's plan — probes that one plan on every shard
    /// under `ctl` (`threads` workers, claim chunk 1, so each shard probe
    /// can take its own worker), remaps ids to global, and sorts by
    /// `(pass, step, id)` back into the unsharded discovery order: exactly
    /// one `F(q)` enumeration per query, no matter the shard count. Under
    /// `first_only`, only the first match overall is kept, the
    /// `(pass, step, id)`-minimum of the shards' own first hits.
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
        let plan = self.shards[0].index.plan_query(q);
        let per_shard = batch_map_chunked(&self.shards, threads, 1, |shard| {
            shard.index.probe_passes(PassSource::Plan(&plan), ctl)
        });
        let mut all: Vec<TaggedMatch> = Vec::new();
        for (shard, tagged) in self.shards.iter().zip(per_shard) {
            all.extend(tagged?.into_iter().map(|mut t| {
                t.hit.id = shard.id_map[t.hit.id] as usize;
                t
            }));
        }
        all.sort_by_key(|t| (t.pass, t.step, t.hit.id));
        if ctl.first_only {
            all.truncate(1);
        }
        Ok(all)
    }
}

impl<S: Shardable + Persist + Send + Sync> ShardedIndex<S> {
    /// Saves the whole deployment into `dir` (created if missing): one
    /// container file per shard (`shard-0000.skx`, `shard-0001.skx`, …) plus
    /// a `manifest.skx` recording the threshold, watermark, owner table, and
    /// each shard's file and local→global id map — see
    /// [`crate::persist::ShardManifest`] and the "restoring a sharded
    /// deployment" walkthrough in `docs/PERSISTENCE.md`.
    ///
    /// [`ShardedIndex::load`] on the same directory restores a wrapper whose
    /// every answer surface is byte-identical to this one's.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch, ShardedIndex};
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
    /// let sharded = ShardedIndex::build(&index, 2);
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
                id_map: shard.id_map.clone(),
            });
        }
        let manifest = ShardManifest {
            threshold: self.threshold,
            len: self.len,
            next_id: self.owner.len(),
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
                id_map: entry.id_map,
            });
        }
        let index = Self {
            shards,
            threshold: manifest.threshold,
            len: manifest.len,
            owner: manifest.owner,
        };
        index.check_manifest(manifest.next_id)?;
        Ok(index)
    }

    /// The invariants [`ShardedIndex::build`] establishes and the merge and
    /// mutation paths index by, checked on a loaded deployment: every shard
    /// shares the manifest's threshold; each shard's id map is strictly
    /// ascending and as long as its slot count; the owner table, `next_id`
    /// long, is their exact inverse; the shards' live counts sum to `len`.
    fn check_manifest(&self, next_id: usize) -> Result<(), PersistError> {
        if self.shards.is_empty() {
            return Err(PersistError::Malformed("manifest lists no shards"));
        }
        let mut ok = self.owner.len() == next_id;
        let (mut slots, mut live) = (0usize, 0usize);
        for (k, shard) in self.shards.iter().enumerate() {
            let map = &shard.id_map;
            ok &= shard.index.threshold() == self.threshold
                && map.len() == shard.index.slot_count()
                && map.windows(2).all(|w| w[0] < w[1])
                && map.iter().enumerate().all(|(local, &global)| {
                    self.owner.get(global as usize) == Some(&(k as u32, local as u32))
                });
            slots += map.len();
            live += shard.index.len();
        }
        if ok && slots == next_id && live == self.len {
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

    /// Routes the insert to the shard its content hash selects (the same
    /// routing [`ShardedIndex::build`] uses, so duplicates still co-locate)
    /// and assigns the exact global [`SetId`] the unsharded index would,
    /// appended to that shard's id map (which stays monotone — the merge
    /// protocol is untouched).
    ///
    /// Errs with [`MutationError::Unsupported`] — before touching anything —
    /// iff the underlying index type is read-only.
    fn insert(&mut self, set: SparseVec) -> Result<SetId, MutationError> {
        if !self.supports_mutation() {
            return Err(MutationError::Unsupported);
        }
        let global = self.owner.len();
        let shard_ix = (set_partition_key(&set) % self.shards.len() as u64) as usize;
        let shard = &mut self.shards[shard_ix];
        let local = shard.index.insert(set)?;
        assert_eq!(local, shard.id_map.len(), "shard-local ids must stay dense");
        shard.id_map.push(global as u32);
        self.owner.push((shard_ix as u32, local as u32));
        self.len += 1;
        Ok(global)
    }

    /// Tombstones the set in the shard the owner table names. Same
    /// semantics as the unsharded remove: `Ok(false)` for unassigned or
    /// already-dead ids, and ids are never reused.
    fn remove(&mut self, id: SetId) -> Result<bool, MutationError> {
        if !self.supports_mutation() {
            return Err(MutationError::Unsupported);
        }
        let removed = match self.owner.get(id) {
            Some(&(shard_ix, local)) => self.shards[shard_ix as usize]
                .index
                .remove(local as usize)?,
            None => false,
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

    /// Sum of the shards' accounting plus the wrapper's own tables: the
    /// owner table and each shard's id map, both in `aux_bytes`.
    fn memory_stats(&self) -> crate::traits::MemoryStats {
        let mut total = crate::traits::MemoryStats::default();
        for shard in &self.shards {
            let s = shard.index.memory_stats();
            total.posting_bytes += s.posting_bytes;
            total.vector_bytes += s.vector_bytes;
            total.aux_bytes += s.aux_bytes + shard.id_map.capacity() * std::mem::size_of::<u32>();
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
        for shards in [1, 2, 5] {
            let sharded = ShardedIndex::build(&index, shards);
            assert_eq!(sharded.len(), index.len());
            assert_eq!(sharded.threshold(), index.threshold());
            for q in &queries {
                assert_eq!(
                    sharded.search_all(q),
                    index.search_all(q),
                    "shards={shards}"
                );
                assert_eq!(sharded.search(q), index.search(q));
            }
        }
    }

    #[test]
    fn empty_shards_are_harmless() {
        let (index, queries) = fixture(3);
        // 160 vectors over 200 shards: at least forty shards own nothing.
        let sharded = ShardedIndex::build(&index, 200);
        assert_eq!(sharded.shard_count(), 200);
        assert!(sharded.shard_lens().iter().filter(|&&l| l == 0).count() >= 40);
        for q in &queries {
            assert_eq!(sharded.search_all(q), index.search_all(q));
        }
    }

    #[test]
    fn by_dataset_partitions_the_vectors() {
        let (index, _) = fixture(4);
        let sharded = ShardedIndex::build(&index, 4);
        assert_eq!(sharded.shard_lens().iter().sum::<usize>(), index.len());
        // Content hashing spreads 160 vectors over 4 shards non-degenerately.
        assert!(sharded.shard_lens().iter().filter(|&&l| l > 0).count() >= 2);
    }

    #[test]
    fn sharded_indexes_compose() {
        // Tags stay global through the merge: the wrapper's tagged answers
        // are the unsharded index's, passes and steps included.
        let (index, queries) = fixture(6);
        let inner = ShardedIndex::build(&index, 3);
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
    fn memory_stats_count_the_owner_table_and_every_id_map() {
        let (index, _) = fixture(3);
        for shards in [1, 3, 8] {
            let sharded = ShardedIndex::build(&index, shards);
            let inner: usize = sharded
                .shards
                .iter()
                .map(|s| s.index.memory_stats().aux_bytes)
                .sum();
            let id_maps: usize = sharded.shards.iter().map(|s| s.id_map.capacity() * 4).sum();
            assert!(id_maps >= index.slot_count() * 4);
            assert_eq!(
                sharded.memory_stats().aux_bytes - inner,
                sharded.owner.capacity() * 8 + id_maps,
                "shards={shards}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let (index, _) = fixture(2);
        let _ = ShardedIndex::build(&index, 0);
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
        for shards in [1, 3, 8] {
            let (fresh, _) = fixture(5);
            let mut sharded = ShardedIndex::build(&fresh, shards);
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
            assert_eq!(sharded.len(), index.len(), "shards={shards}");
            for q in &queries {
                assert_eq!(
                    sharded.search_all_tagged(q),
                    index.search_all_tagged(q),
                    "shards={shards}"
                );
                assert_eq!(sharded.search(q), index.search(q));
            }
        }
    }

    #[test]
    fn sharded_insert_assigns_unsharded_ids_and_routes_by_content() {
        let (index, _) = fixture(4);
        let extras = extra_vectors(10);
        let mut sharded = ShardedIndex::build(&index, 4);
        let before = sharded.len();
        for (k, v) in extras.iter().enumerate() {
            // Global ids continue exactly where the source index stopped.
            assert_eq!(sharded.insert(v.clone()), Ok(index.len() + k));
        }
        assert_eq!(sharded.len(), before + extras.len());
        // Duplicate content co-locates: inserting a copy of an indexed
        // vector must land on the shard already holding it.
        let lens_before = sharded.shard_lens();
        let dup = index.vectors()[3].clone();
        let expected_shard = (set_partition_key(&dup) % sharded.shard_count() as u64) as usize;
        sharded.insert(dup).unwrap();
        let lens_after = sharded.shard_lens();
        for s in 0..sharded.shard_count() {
            let grew = usize::from(s == expected_shard);
            assert_eq!(lens_after[s], lens_before[s] + grew);
        }
        // Remove semantics mirror the unsharded index.
        assert_eq!(sharded.remove(index.len()), Ok(true));
        assert_eq!(sharded.remove(index.len()), Ok(false), "idempotent");
        assert_eq!(sharded.remove(123_456), Ok(false), "never assigned");
    }

    #[test]
    fn sharding_a_mutated_index_reproduces_its_answers() {
        // Build shards FROM an already-mutated source: tombstoned slots and
        // delta segments must survive the partition.
        let (mut index, queries) = fixture(5);
        let extras = extra_vectors(15);
        for v in &extras {
            index.insert_set(v.clone());
        }
        for id in [2usize, 90, 160, 165] {
            assert!(index.remove_set(id));
        }
        assert!(index.pending_mutations() > 0);
        for shards in [1, 3, 8] {
            let sharded = ShardedIndex::build(&index, shards);
            assert_eq!(sharded.len(), index.len());
            for q in &queries {
                assert_eq!(
                    sharded.search_all_tagged(q),
                    index.search_all_tagged(q),
                    "shards={shards}"
                );
            }
        }
    }
}
