//! The public search interface shared by the paper's structure and all
//! baselines.

use crate::plan::{QueryPlan, QueryPlanner};
use skewsearch_sets::SparseVec;
use std::sync::Arc;

/// Stable identifier of an indexed set, as returned by
/// [`SetSimilaritySearch::insert`] and consumed by
/// [`SetSimilaritySearch::remove`].
///
/// For the mutable structures in this workspace a `SetId` is the set's slot
/// in the index (the same value [`Match::id`] reports), it is assigned
/// monotonically at insertion, and it is **never reused**: removing a set
/// retires its id forever, and re-inserting identical content yields a fresh
/// id.
pub type SetId = usize;

/// Why a mutation was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// The structure is read-only: it does not support incremental
    /// `insert`/`remove` (the trait defaults — brute force, prefix
    /// filtering, and MinHash keep the frozen-snapshot model for now).
    Unsupported,
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::Unsupported => {
                write!(f, "this structure does not support incremental mutation")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// Returned by [`SetSimilaritySearch::probe_passes`] (and so by
/// [`SetSimilaritySearch::probe_plan_tagged_deadline`]) when the
/// caller-supplied expiry check fired before the probe ran to completion.
///
/// The type is deliberately empty: a deadline carries no partial answer. A
/// probe either completes (byte-identical to the undeadlined probe) or it
/// reports this and the caller sees *nothing* — partial match lists would
/// break the byte-identity contracts the equivalence suites pin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query deadline exceeded before the probe completed")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Resident heap bytes of a search structure, broken down by role — the
/// accounting behind bytes-per-set reporting in the benches and `repro`.
///
/// The numbers are *capacity-based estimates* (what the structure's own
/// arrays and maps hold on the heap), not allocator-measured RSS; they are
/// deterministic for a deterministic build, which is what lets benchmarks
/// compare substrates. Structures that do not account their memory report
/// all-zero stats (the trait default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes held by posting storage (bucket keys + offsets + id arenas, or
    /// the equivalent hash-map estimate for uncompressed substrates).
    pub posting_bytes: usize,
    /// Bytes held by the stored vectors themselves.
    pub vector_bytes: usize,
    /// Everything else: hash coefficients, interners, tombstone bitmaps.
    pub aux_bytes: usize,
}

impl MemoryStats {
    /// Total resident bytes across all categories.
    pub fn total(&self) -> usize {
        self.posting_bytes + self.vector_bytes + self.aux_bytes
    }

    /// Total bytes divided by a live-set count — the bytes/set budget the
    /// memory-diet work is measured in. Zero when `sets` is zero.
    pub fn bytes_per_set(&self, sets: usize) -> f64 {
        if sets == 0 {
            0.0
        } else {
            self.total() as f64 / sets as f64
        }
    }
}

impl std::fmt::Display for MemoryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "postings={}B vectors={}B aux={}B total={}B",
            self.posting_bytes,
            self.vector_bytes,
            self.aux_bytes,
            self.total()
        )
    }
}

/// A verified search result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Match {
    /// Index of the matching vector in the indexed dataset.
    pub id: usize,
    /// Its Braun-Blanquet similarity to the query.
    pub similarity: f64,
}

/// A [`Match`] annotated with *where* in the probe sequence its candidate was
/// first discovered.
///
/// Every structure in this workspace probes in a sequence of **passes**
/// (LSF repetitions, MinHash bands) and, within a pass, a sequence of
/// **steps** (enumerated filters, band buckets); within one `(pass, step)`
/// bucket, candidates surface in ascending id (bucket insertion order). The
/// triple `(pass, step, id)` therefore totally orders candidate discovery,
/// which is exactly what the sharding layer
/// ([`crate::shard::ShardedIndex`]) needs to merge per-shard results back
/// into the unsharded first-discovery order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaggedMatch {
    /// Probe pass (repetition / band index) of the candidate's *first*
    /// discovery.
    pub pass: u32,
    /// Step within the pass (filter / bucket index) of the first discovery.
    pub step: u32,
    /// The verified match itself.
    pub hit: Match,
}

/// How a probe runs (see [`SetSimilaritySearch::probe_passes`]): whether it
/// stops at the first verified match, and the caller's deadline.
#[derive(Clone, Copy)]
pub struct ProbeControl<'a> {
    /// Stop at the first verified match — the paper's query procedure: "If
    /// we find a sufficiently close x we return it".
    pub first_only: bool,
    /// Caller-supplied expiry check, polled at the probe's pass boundaries.
    /// It is an opaque closure (typically comparing `Instant::now()` against
    /// an absolute deadline on the *caller's* side), which keeps this crate
    /// wall-clock-free: it can only decide *whether* the probe finishes,
    /// never which candidates surface or in what order.
    pub expired: Option<&'a (dyn Fn() -> bool + Sync)>,
}

impl<'a> ProbeControl<'a> {
    /// Every match, no deadline.
    pub const ALL: Self = Self {
        first_only: false,
        expired: None,
    };

    /// The first match only, no deadline.
    pub const FIRST: Self = Self {
        first_only: true,
        expired: None,
    };

    /// Every match, abandoning the probe once `expired` fires.
    pub fn deadline(expired: &'a (dyn Fn() -> bool + Sync)) -> Self {
        Self {
            first_only: false,
            expired: Some(expired),
        }
    }

    /// Polls the deadline: `Err` iff it has fired.
    pub fn poll(&self) -> Result<(), DeadlineExceeded> {
        match self.expired {
            Some(expired) if expired() => Err(DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// Common interface for set-similarity-search structures (the paper's
/// indexes and every baseline implement this, so experiments and joins are
/// generic over the structure).
///
/// Every query method is provided in terms of two: the required
/// [`SetSimilaritySearch::search_all`], and
/// [`SetSimilaritySearch::probe_passes`], the one probe primitive. Index
/// structures with a bucketed probe override `probe_passes` with their own
/// walk; other structures keep its default, a single pass over
/// `search_all`.
///
/// All structures verify candidates exactly, so a returned [`Match`] always
/// satisfies `similarity ≥ threshold()`; randomized structures may *miss*
/// matches with the failure probability of their analysis.
///
/// # Examples
///
/// Build one of the paper's indexes and query it through the trait:
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
/// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let profile = BernoulliProfile::two_block(1000, 0.2, 0.02).unwrap();
/// let data = Dataset::generate(&profile, 300, &mut rng);
/// let index = CorrelatedIndex::build(
///     &data,
///     &profile,
///     CorrelatedParams::new(0.8).unwrap(),
///     &mut rng,
/// );
/// let q = correlated_query(data.vector(7), &profile, 0.8, &mut rng);
/// for m in index.search_all(&q) {
///     assert!(m.similarity >= index.threshold());
/// }
/// ```
pub trait SetSimilaritySearch {
    /// Returns some vector with Braun-Blanquet similarity at least
    /// [`SetSimilaritySearch::threshold`] to `q`, if the structure finds one.
    ///
    /// Stops at the first verified hit (the paper's query procedure: "If we
    /// find a sufficiently close x we return it"): the first element of
    /// [`SetSimilaritySearch::search_all`], found by a probe that stops
    /// there.
    fn search(&self, q: &SparseVec) -> Option<Match> {
        let first = self.probe_passes(q, None, ProbeControl::FIRST);
        first.unwrap_or_default().first().map(|t| t.hit)
    }

    /// All distinct vectors the structure can verify at or above the
    /// threshold.
    ///
    /// **Candidate-handling contract** (shared by every index in this
    /// workspace so batch results are consistent across structures):
    /// candidate ids are *deduplicated before verification* — each distinct
    /// candidate is verified exactly once — and matches appear in
    /// first-discovery probe order (repetitions/bands in build order, then
    /// filter enumeration order, then bucket insertion order). Callers must
    /// not rely on any similarity ordering.
    fn search_all(&self, q: &SparseVec) -> Vec<Match>;

    /// [`SetSimilaritySearch::search_all`] with discovery tags: the same
    /// matches in the same order, each annotated with the `(pass, step)`
    /// coordinates of its candidate's first discovery (see [`TaggedMatch`]).
    ///
    /// The projection `search_all_tagged(q)[i].hit == search_all(q)[i]` must
    /// hold for every implementation. The tags are only as genuine as
    /// [`SetSimilaritySearch::probe_passes`]: its default tags the whole
    /// structure as a single pass with one match per step, while index
    /// structures report real `(repetition, filter)` / `(band, bucket)`
    /// coordinates — and the sharding layer's exact-merge guarantee
    /// ([`crate::shard::ShardedIndex`]) only holds for such genuine tags.
    fn search_all_tagged(&self, q: &SparseVec) -> Vec<TaggedMatch> {
        let all = self.probe_passes(q, None, ProbeControl::ALL);
        all.unwrap_or_default()
    }

    /// Stage 1 of the enumerate→probe→verify pipeline: derives a reusable
    /// [`QueryPlan`] for `q` — per probe pass (repetition), the interned
    /// bucket keys the probe stage will look up, in enumeration order.
    ///
    /// **Contract**: probing the plan reproduces the fused search
    /// byte-identically,
    /// `self.probe_plan_tagged(&self.plan_query(q)) == self.search_all_tagged(q)`
    /// — for every implementation (`tests/plan_equivalence.rs` pins all
    /// index types). Planning pays the full enumeration up front (no
    /// early-exit laziness), which is what makes the plan broadcastable:
    /// the sharding layer enumerates once and ships the same plan to every
    /// dataset shard instead of re-enumerating per shard.
    ///
    /// The default asks [`SetSimilaritySearch::planner`]: the LSF family
    /// and a [`crate::shard::ShardedIndex`] of it plan with their planner,
    /// and every other structure (MinHash, brute force, prefix filtering),
    /// having no enumeration to share, returns an *unplanned* plan (query
    /// only), which every probe answers like its query.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
    /// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(11);
    /// let profile = BernoulliProfile::two_block(600, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 150, &mut rng);
    /// let index = CorrelatedIndex::build(
    ///     &data,
    ///     &profile,
    ///     CorrelatedParams::new(0.8).unwrap(),
    ///     &mut rng,
    /// );
    /// let q = correlated_query(data.vector(5), &profile, 0.8, &mut rng);
    /// let plan = index.plan_query(&q);
    /// // One enumeration, any number of probes — always the fused answer.
    /// assert_eq!(index.probe_plan_tagged(&plan), index.search_all_tagged(&q));
    /// assert_eq!(index.probe_plan_tagged(&plan), index.probe_plan_tagged(&plan));
    /// ```
    fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        match self.planner() {
            Some(planner) => planner.plan(q),
            None => QueryPlan::unplanned(q.clone()),
        }
    }

    /// The structure's stage 1 as a shareable value, if it plans: a
    /// [`QueryPlanner`] whose `plan(q)` equals
    /// [`SetSimilaritySearch::plan_query`] now and after any mutation, and
    /// which needs no access to the structure — so a server can plan
    /// without holding its index lock. The LSF family returns its planner,
    /// a [`crate::shard::ShardedIndex`] that of its first shard; the
    /// default is `None` (nothing to plan).
    fn planner(&self) -> Option<Arc<dyn QueryPlanner>> {
        None
    }

    /// Stages 2+3 of the pipeline: probes the inverted index with a
    /// precomputed [`QueryPlan`], verifies the surfaced candidates, and
    /// returns exactly `search_all_tagged(plan.query())`. For a planned
    /// plan, index structures touch only the inverted index (bucket lookups
    /// + verification) — never the enumeration engine.
    fn probe_plan_tagged(&self, plan: &QueryPlan) -> Vec<TaggedMatch> {
        let all = self.probe_passes(plan.query(), plan.passes(), ProbeControl::ALL);
        all.unwrap_or_default()
    }

    /// Deadline-aware [`SetSimilaritySearch::probe_plan_tagged`]: polls the
    /// caller-supplied `expired` check at the structure's pass boundaries
    /// and abandons the probe with [`DeadlineExceeded`] as soon as it fires
    /// — the core hook behind the query service's per-request deadlines.
    ///
    /// **Contract**: with a check that never fires, the `Ok` value is
    /// byte-identical to [`SetSimilaritySearch::probe_plan_tagged`]; with a
    /// check that has already fired, the structure returns `Err` without
    /// probing. There is no partial-result mode. `tests/plan_equivalence.rs`
    /// pins both with a counting check, including that the LSF indexes,
    /// alone or sharded, poll it at least once per repetition.
    fn probe_plan_tagged_deadline(
        &self,
        plan: &QueryPlan,
        expired: &(dyn Fn() -> bool + Sync),
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        self.probe_passes(plan.query(), plan.passes(), ProbeControl::deadline(expired))
    }

    /// The one probe primitive behind every query method: probes the passes
    /// of `q` — `planned[p]` holding pass `p`'s bucket keys when the caller
    /// has them from a [`QueryPlan`], else enumerated lazily, pass by pass —
    /// verifies the surfaced candidates against `q`, and returns the
    /// matches in first-discovery order with their `(pass, step)` tags — all
    /// of them, or under [`ProbeControl::first_only`] just the first. The
    /// deadline in `ctl` is polled before the first pass and between
    /// passes; once it fires the probe returns [`DeadlineExceeded`] and no
    /// partial list.
    ///
    /// `planned` and `None` answer byte-identically: planned keys only skip
    /// the enumeration a `None` probe does lazily (which is what lets
    /// `search` stop enumerating at its first hit).
    ///
    /// The default ignores `planned`, polls the deadline once and tags
    /// [`SetSimilaritySearch::search_all`] as a single pass with one match
    /// per step — correct for every structure, coarse for long probes.
    /// [`crate::LsfIndex`] (and so the paper's indexes), MinHash, and
    /// [`crate::shard::ShardedIndex`] override it with their own walk.
    fn probe_passes(
        &self,
        q: &SparseVec,
        planned: Option<&[Vec<u64>]>,
        ctl: ProbeControl<'_>,
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        let _ = planned;
        ctl.poll()?;
        let mut all = self.search_all(q);
        if ctl.first_only {
            all.truncate(1);
        }
        Ok(all
            .into_iter()
            .enumerate()
            .map(|(step, hit)| TaggedMatch {
                pass: 0,
                step: step as u32,
                hit,
            })
            .collect())
    }

    /// Answers a batch of queries: element `i` of the result is exactly
    /// `self.search_all(&queries[i])`.
    ///
    /// The default implementation is the sequential loop. The LSF indexes
    /// override it to run on [`crate::batch::batch_map`] with their saved
    /// `query_threads` worker count; MinHash and
    /// [`crate::shard::ShardedIndex`] run on one worker per core. Results
    /// are **identical for every worker count** — batching is a throughput
    /// optimization, never a semantics change.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
    /// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(3);
    /// let profile = BernoulliProfile::two_block(800, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 200, &mut rng);
    /// let index = CorrelatedIndex::build(
    ///     &data,
    ///     &profile,
    ///     CorrelatedParams::new(0.8).unwrap(),
    ///     &mut rng,
    /// );
    /// let queries: Vec<_> = (0..10)
    ///     .map(|t| correlated_query(data.vector(t), &profile, 0.8, &mut rng))
    ///     .collect();
    /// let batched = index.search_batch(&queries);
    /// assert_eq!(batched.len(), queries.len());
    /// // Batch answers are exactly the per-query answers, in order.
    /// for (q, matches) in queries.iter().zip(&batched) {
    ///     assert_eq!(matches, &index.search_all(q));
    /// }
    /// ```
    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        queries.iter().map(|q| self.search_all(q)).collect()
    }

    /// Incrementally indexes `set`, returning its stable [`SetId`].
    ///
    /// The default is read-only: it returns
    /// [`MutationError::Unsupported`] without touching the structure, so
    /// baselines without an incremental build (brute force, prefix
    /// filtering, MinHash) satisfy the trait unchanged. Mutable structures
    /// ([`crate::LsfIndex`] under every scheme, [`crate::shard::ShardedIndex`])
    /// override it with the log-structured delta-segment insert.
    ///
    /// **Contract for overriders**: when
    /// [`SetSimilaritySearch::supports_mutation`] returns `true`, `insert`
    /// and [`SetSimilaritySearch::remove`] must be infallible (always `Ok`) —
    /// the sharded wrapper fans one logical mutation out across shards and
    /// relies on this to stay all-or-nothing. After any interleaving of
    /// inserts, removes, and queries, every answer surface must be
    /// byte-identical to a fresh build over the surviving sets (pinned by
    /// `tests/mutation_equivalence.rs`).
    fn insert(&mut self, set: SparseVec) -> Result<SetId, MutationError> {
        let _ = set;
        Err(MutationError::Unsupported)
    }

    /// [`SetSimilaritySearch::insert`] of `plan.query()`, with its filters
    /// already enumerated: `plan` comes from this structure's
    /// [`SetSimilaritySearch::planner`] (or its `plan_query`), and the
    /// LSF family pushes the planned keys without enumerating — the same
    /// id, buckets and saved bytes as `insert`. An unplanned plan is
    /// inserted like its query.
    ///
    /// The default is `insert(plan.query())`.
    ///
    /// # Panics
    /// The LSF family panics, before changing any state, on a planned plan
    /// whose pass count differs from its repetition count (a plan from a
    /// foreign index).
    fn insert_planned(&mut self, plan: QueryPlan) -> Result<SetId, MutationError> {
        self.insert(plan.into_parts().0)
    }

    /// Removes the set with id `id`. `Ok(true)` when a live set was removed,
    /// `Ok(false)` when `id` was never assigned or was already removed —
    /// removal is idempotent, and a retired id never comes back.
    ///
    /// Default: read-only, like [`SetSimilaritySearch::insert`].
    fn remove(&mut self, id: SetId) -> Result<bool, MutationError> {
        let _ = id;
        Err(MutationError::Unsupported)
    }

    /// True when this structure supports incremental
    /// [`SetSimilaritySearch::insert`]/[`SetSimilaritySearch::remove`]
    /// (and guarantees they are infallible). Default: `false`.
    fn supports_mutation(&self) -> bool {
        false
    }

    /// Resident heap bytes of this structure, broken down by role (see
    /// [`MemoryStats`]; [`MemoryStats::total`] sums them). The default
    /// reports all-zero stats, meaning "not accounted" — the indexes in
    /// this workspace override it; divide by [`SetSimilaritySearch::len`]
    /// (or use [`MemoryStats::bytes_per_set`]) for the bytes/set budget.
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats::default()
    }

    /// The verification threshold `b₁`.
    fn threshold(&self) -> f64;

    /// Number of **live** indexed vectors (for mutable structures, slots
    /// retired by [`SetSimilaritySearch::remove`] no longer count).
    fn len(&self) -> usize;

    /// True iff no vectors are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal trait object: a brute-force stub over two fixed vectors used
    /// to exercise the default method implementations.
    struct TwoVec {
        data: Vec<SparseVec>,
        t: f64,
    }

    impl SetSimilaritySearch for TwoVec {
        fn search(&self, q: &SparseVec) -> Option<Match> {
            self.search_all(q).into_iter().next()
        }
        fn search_all(&self, q: &SparseVec) -> Vec<Match> {
            self.data
                .iter()
                .enumerate()
                .map(|(id, x)| Match {
                    id,
                    similarity: skewsearch_sets::similarity::braun_blanquet(x, q),
                })
                .filter(|m| m.similarity >= self.t)
                .collect()
        }
        fn threshold(&self) -> f64 {
            self.t
        }
        fn len(&self) -> usize {
            self.data.len()
        }
    }

    #[test]
    fn default_batch_methods_equal_sequential_loops() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
                SparseVec::from_unsorted(vec![9, 10]),
            ],
            t: 0.4,
        };
        let queries = vec![
            SparseVec::from_unsorted(vec![1, 2, 3]),
            SparseVec::from_unsorted(vec![9, 10]),
            SparseVec::empty(),
        ];
        let all: Vec<_> = queries.iter().map(|q| s.search_all(q)).collect();
        assert_eq!(s.search_batch(&queries), all);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn default_tagged_search_projects_to_search_all() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
            ],
            t: 0.4,
        };
        let q = SparseVec::from_unsorted(vec![1, 2, 3]);
        let tagged = s.search_all_tagged(&q);
        let plain = s.search_all(&q);
        assert_eq!(tagged.len(), plain.len());
        for (i, (t, m)) in tagged.iter().zip(&plain).enumerate() {
            assert_eq!(&t.hit, m);
            assert_eq!(t.pass, 0);
            assert_eq!(t.step, i as u32);
        }
    }

    #[test]
    fn default_plan_hooks_fall_back_to_fused_search() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
            ],
            t: 0.4,
        };
        for q in [SparseVec::from_unsorted(vec![1, 2, 3]), SparseVec::empty()] {
            let plan = s.plan_query(&q);
            assert_eq!(plan.passes(), None, "default plan is unplanned");
            assert_eq!(plan.query(), &q);
            assert_eq!(s.probe_plan_tagged(&plan), s.search_all_tagged(&q));
            assert_eq!(
                s.probe_passes(plan.query(), plan.passes(), ProbeControl::FIRST),
                s.probe_passes(&q, None, ProbeControl::FIRST)
            );
        }
    }

    #[test]
    fn default_deadline_probe_is_all_or_nothing() {
        let s = TwoVec {
            data: vec![
                SparseVec::from_unsorted(vec![1, 2, 3, 4]),
                SparseVec::from_unsorted(vec![1, 2, 3]),
            ],
            t: 0.4,
        };
        let q = SparseVec::from_unsorted(vec![1, 2, 3]);
        let plan = s.plan_query(&q);
        // Never-firing check: byte-identical to the undeadlined probe.
        assert_eq!(
            s.probe_plan_tagged_deadline(&plan, &|| false),
            Ok(s.probe_plan_tagged(&plan))
        );
        // Already-fired check: no partial answer, just the typed error.
        assert_eq!(
            s.probe_plan_tagged_deadline(&plan, &|| true),
            Err(DeadlineExceeded)
        );
    }
}
