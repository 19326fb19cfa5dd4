//! The inverted filter index with independent repetitions.
//!
//! Preprocessing (§3): compute `F(x)` for every `x ∈ S` and build an inverted
//! index `filter → {x : f ∈ F(x)}`. A query enumerates `F(q)` with the *same*
//! hash stack and verifies every vector sharing a filter.
//!
//! Lemma 5 guarantees a shared filter for close pairs with probability only
//! `≥ 1/log n` per hash-stack draw, so the index keeps `R = Θ(log n)`
//! independent **repetitions** (footnote 6 of the paper) and a query probes
//! them in order until a verified hit.
//!
//! Two hot-path engineering choices on top of the paper's construction:
//!
//! * a query hoists its enumeration inputs (thresholds, masses) into one
//!   [`EnumContext`] shared by all repetitions
//!   instead of re-deriving them per repetition;
//! * 128-bit path keys are *interned* to 64-bit bucket keys through a
//!   per-repetition [`TabulationU128`] draw, halving the inverted index's
//!   key width (an interning collision merges two buckets and at worst
//!   causes a spurious verification — never a wrong answer);
//! * every stored set carries a 256-bit [`SetSignature`], and the verify
//!   site turns a candidate away without intersecting it when the
//!   signatures' exact upper bound on the similarity
//!   ([`similarity::braun_blanquet_bound`]) is already below the threshold —
//!   most candidates share a filter with the query but few clear the bar.

use crate::batch::batch_map;
use crate::engine::{enumerate_filters_with, EnumContext, EnumStats, DEFAULT_NODE_BUDGET};
use crate::persist::{
    kind, load_container, read_bucket_map, read_postings, write_bucket_map, write_container,
    write_postings, Persist, PersistError, PersistScheme, Reader, Writer,
};
use crate::plan::QueryPlan;
use crate::postings::{CompressedPostings, PostingsEncoder};
use crate::scheme::ThresholdScheme;
use crate::traits::{
    DeadlineExceeded, Match, MemoryStats, PassSource, ProbeControl, SetSimilaritySearch,
    TaggedMatch,
};
use rand::{Rng, SeedableRng};
use skewsearch_datagen::BernoulliProfile;
use skewsearch_hashing::{FxHashMap, FxHashSet, PathHasherStack, PathKey, TabulationU128};
use skewsearch_sets::similarity::{self, SetSignature};
use skewsearch_sets::SparseVec;
use table::SetTable;

/// How many independent repetitions to build.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Repetitions {
    /// `⌈factor · ln n⌉` repetitions (Lemma 5's `1/log n` success per
    /// repetition makes `Θ(log n)` the natural boost; `factor ≈ 1` gives
    /// constant success probability, larger factors give high probability).
    Auto {
        /// Multiplier on `ln n`.
        factor: f64,
    },
    /// Exactly this many repetitions.
    Fixed(usize),
}

impl Repetitions {
    /// Resolves to a concrete count for a dataset of `n` vectors.
    pub fn resolve(self, n: usize) -> usize {
        match self {
            Repetitions::Auto { factor } => {
                ((n.max(2) as f64).ln() * factor).ceil().max(1.0) as usize
            }
            Repetitions::Fixed(r) => r.max(1),
        }
    }
}

impl Default for Repetitions {
    fn default() -> Self {
        Repetitions::Auto { factor: 1.0 }
    }
}

/// Tuning knobs shared by all LSF indexes.
#[derive(Clone, Copy, Debug)]
pub struct IndexOptions {
    /// Repetition policy.
    pub repetitions: Repetitions,
    /// Worker threads [`SetSimilaritySearch::search_batch`] answers a batch
    /// on — and with it every join over this index. `0` = one worker per
    /// available core. Saved with the index. Batch results are
    /// **identical** for any worker count — see [`crate::batch::batch_map`].
    pub query_threads: usize,
    /// How many pending mutations (inserts + removals since the last
    /// compaction) the delta segment absorbs before the index compacts
    /// itself — see [`LsfIndex::compact`]. Compaction is answer-invariant,
    /// so this knob trades write amortization against probe-time delta
    /// lookups without observable effect; `usize::MAX` disables automatic
    /// compaction entirely.
    pub mutation_buffer: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            repetitions: Repetitions::default(),
            query_threads: 0,
            mutation_buffer: 1024,
        }
    }
}

/// Aggregate statistics from building an index.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Repetitions built.
    pub repetitions: usize,
    /// Total filters stored across vectors and repetitions.
    pub total_filters: usize,
    /// Distinct buckets across repetitions.
    pub distinct_buckets: usize,
    /// Largest single bucket.
    pub max_bucket: usize,
    /// Vectors whose enumeration hit the node budget (any repetition).
    pub truncated_vectors: usize,
    /// Vectors whose enumeration hit the depth cap (any repetition).
    pub depth_capped_vectors: usize,
}

impl BuildStats {
    /// Mean stored filters per vector per repetition.
    pub fn avg_filters_per_vector(&self, n: usize) -> f64 {
        if n == 0 || self.repetitions == 0 {
            return 0.0;
        }
        self.total_filters as f64 / (n as f64 * self.repetitions as f64)
    }
}

/// Statistics from answering one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Filters enumerated for the query (across probed repetitions).
    pub filters: usize,
    /// Posting-list entries touched.
    pub candidates: usize,
    /// Distinct candidates handed to the verify site (live or tombstoned,
    /// intersected or turned away by the signature bound).
    pub verified: usize,
    /// Repetitions probed before returning.
    pub repetitions_probed: usize,
}

/// One repetition: an independently drawn hash stack, its key interner, and
/// its inverted index over interned 64-bit bucket keys.
///
/// The inverted index is log-structured: `base` is the immutable **base
/// segment** (filled at build time or by [`LsfIndex::compact`]), stored as
/// [`CompressedPostings`] — sorted keys under a directory, one word per
/// bucket holding a single id inline, and a delta+varint arena for the
/// other buckets — and `delta` is the small mutable segment absorbing
/// incremental inserts as plain uncompressed buckets. A probe walks the
/// base bucket for a key (streamed by a
/// [`crate::postings::PostingsCursor`], zero allocation), then the delta
/// bucket. Every id in `delta` exceeds every id in `base` (inserts are
/// assigned ids past `LsfIndex::base_len`), so the concatenated walk
/// visits ids in exactly the ascending order a from-scratch build over the
/// same sets would store — which is what keeps mutated answers
/// byte-identical to a rebuild. Build, compaction, dataset
/// sharding and loading each encode a base segment through one
/// [`PostingsEncoder`].
struct Repetition {
    hashers: PathHasherStack,
    interner: TabulationU128,
    base: CompressedPostings,
    delta: FxHashMap<u64, Vec<u32>>,
}

impl Repetition {
    /// Enumerates `F(x)` for `context`'s vector under this repetition's hash
    /// stack into `filters` and replaces `keys` with the interned bucket
    /// keys, in enumeration order — the one enumerate-and-intern step of
    /// build, insert, planning and the lazy probe. Every index enumerates
    /// under [`DEFAULT_NODE_BUDGET`].
    fn enumerate_keys<S: ThresholdScheme>(
        &self,
        context: &EnumContext<'_>,
        scheme: &S,
        filters: &mut Vec<PathKey>,
        keys: &mut Vec<u64>,
    ) -> EnumStats {
        filters.clear();
        let stats =
            enumerate_filters_with(context, scheme, &self.hashers, DEFAULT_NODE_BUDGET, filters);
        keys.clear();
        keys.extend(filters.iter().map(|k| self.interner.hash(k.raw())));
        stats
    }
}

/// The bucket walk of one pass of [`LsfIndex::walk`]: looks `keys` up in
/// the repetition's bucket table in order, feeds each *globally unseen*
/// candidate to `visit` with its discovery coordinate `(pass, step, id)`,
/// and returns `false` iff `visit` stopped the probe.
fn probe_pass_keys(
    rep: &Repetition,
    pass: u32,
    keys: &[u64],
    seen: &mut FxHashSet<u32>,
    stats: &mut QueryStats,
    visit: &mut impl FnMut(u32, u32, u32) -> bool,
) -> bool {
    stats.repetitions_probed += 1;
    stats.filters += keys.len();
    let delta = (!rep.delta.is_empty()).then_some(&rep.delta);
    for (step, key) in keys.iter().enumerate() {
        // Base segment first, then the delta segment: delta ids all exceed
        // base ids, so this is ascending-id order — the order a rebuild
        // would store (see [`Repetition`]). The base bucket is streamed
        // straight out of its word or arena block — no decode buffer.
        if let Some(cursor) = rep.base.get(*key) {
            for id in cursor {
                stats.candidates += 1;
                if seen.insert(id) {
                    stats.verified += 1;
                    if !visit(pass, step as u32, id) {
                        return false;
                    }
                }
            }
        }
        if let Some(bucket) = delta.and_then(|delta| delta.get(key)) {
            stats.candidates += bucket.len();
            for &id in bucket {
                if seen.insert(id) {
                    stats.verified += 1;
                    if !visit(pass, step as u32, id) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

mod table {
    use skewsearch_sets::similarity::SetSignature;
    use skewsearch_sets::SparseVec;

    /// The indexed sets and their signatures, slot by slot. The fields are
    /// private to this module, so no path can change a set without its
    /// signature: every mutation below keeps `signatures[i]` equal to
    /// `SetSignature::of(&sets[i])`.
    pub(super) struct SetTable {
        sets: Vec<SparseVec>,
        signatures: Vec<SetSignature>,
    }

    impl SetTable {
        /// The table over `sets`, deriving every signature.
        pub(super) fn new(sets: Vec<SparseVec>) -> Self {
            let signatures = sets.iter().map(SetSignature::of).collect();
            Self { sets, signatures }
        }

        /// Appends `set` as the next slot.
        pub(super) fn push(&mut self, set: SparseVec) {
            self.signatures.push(SetSignature::of(&set));
            self.sets.push(set);
        }

        /// Releases slot `slot`'s set: it becomes the empty set, whose
        /// signature is all zeros.
        pub(super) fn clear(&mut self, slot: usize) {
            self.sets[slot] = SparseVec::empty();
            self.signatures[slot] = SetSignature::default();
        }

        /// The sets, by slot.
        pub(super) fn sets(&self) -> &[SparseVec] {
            &self.sets
        }

        /// Slot `slot`'s set and signature.
        #[inline]
        pub(super) fn get(&self, slot: usize) -> (&SparseVec, &SetSignature) {
            (&self.sets[slot], &self.signatures[slot])
        }

        /// Heap bytes of the sets (their headers and dims).
        pub(super) fn set_bytes(&self) -> usize {
            self.sets.capacity() * std::mem::size_of::<SparseVec>()
                + self
                    .sets
                    .iter()
                    .map(|v| std::mem::size_of_val(v.dims()))
                    .sum::<usize>()
        }

        /// Heap bytes of the signatures: 32 per slot.
        pub(super) fn signature_bytes(&self) -> usize {
            self.signatures.capacity() * std::mem::size_of::<SetSignature>()
        }
    }
}

/// Where [`LsfIndex::walk`] gets each repetition's bucket keys.
enum PassKeys<'a> {
    /// A planned plan's precomputed keys.
    Planned(&'a [Vec<u64>]),
    /// `F(q)` enumerated lazily, one repetition at a time.
    Lazy(EnumContext<'a>),
}

/// A locality-sensitive filtering index over a dataset, generic in the
/// [`ThresholdScheme`]. This is the shared machinery behind
/// [`crate::AdversarialIndex`], [`crate::CorrelatedIndex`], and the Chosen
/// Path baseline.
pub struct LsfIndex<S: ThresholdScheme> {
    profile: BernoulliProfile,
    /// The indexed sets and their signatures. Signatures derive from the
    /// sets, so they are never persisted: every constructor recomputes them.
    sets: SetTable,
    scheme: S,
    reps: Vec<Repetition>,
    verify_threshold: f64,
    query_threads: usize,
    build_stats: BuildStats,
    /// Slots `0..base_len` live in the base segments; slots `base_len..`
    /// were inserted since the last compaction and live in the deltas.
    base_len: usize,
    /// Liveness per slot; `false` = tombstoned (filtered at the single
    /// [`LsfIndex::verified`] site). Slots are never reused.
    alive: Vec<bool>,
    /// Count of `true` entries in `alive` — the trait's `len()`.
    live: usize,
    /// Mutations (inserts + removals) since the last compaction.
    pending: usize,
    /// Auto-compaction threshold ([`IndexOptions::mutation_buffer`]).
    mutation_buffer: usize,
    /// Compactions performed so far (observable via
    /// [`LsfIndex::compaction_count`]; tests pin that compaction timing is
    /// answer-invariant).
    compactions: u64,
}

impl<S: ThresholdScheme> LsfIndex<S> {
    /// Builds the index: draws `R` hash stacks, enumerates `F(x)` for every
    /// vector under each, and fills the inverted indexes.
    ///
    /// `verify_threshold` is the Braun-Blanquet bar `b₁` candidates must
    /// clear.
    ///
    /// Deterministic under a fixed `rng` seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedScheme, IndexOptions, LsfIndex, SetSimilaritySearch};
    /// use skewsearch_datagen::{BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let profile = BernoulliProfile::two_block(400, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 200, &mut rng);
    /// let scheme = CorrelatedScheme::new(0.8, data.n(), &profile);
    /// let index = LsfIndex::build(
    ///     data.vectors().to_vec(),
    ///     profile.clone(),
    ///     scheme,
    ///     0.8 / 1.3, // verification threshold b₁ (Lemma 10)
    ///     IndexOptions::default(),
    ///     &mut rng,
    /// );
    /// assert_eq!(index.len(), 200);
    /// // A vector queried with itself shares all its filters and is found.
    /// let hit = index.search(data.vector(0)).expect("self-query hits");
    /// assert!(hit.similarity >= index.threshold());
    /// ```
    pub fn build<R: Rng + ?Sized>(
        vectors: Vec<SparseVec>,
        profile: BernoulliProfile,
        scheme: S,
        verify_threshold: f64,
        options: IndexOptions,
        rng: &mut R,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&verify_threshold),
            "verification threshold must lie in [0,1]"
        );
        let n = vectors.len();
        let r = options.repetitions.resolve(n);
        let depth = scheme.depth_bound();
        let mut build_stats = BuildStats {
            repetitions: r,
            ..BuildStats::default()
        };
        let mut truncated: FxHashSet<u32> = FxHashSet::default();
        let mut depth_capped: FxHashSet<u32> = FxHashSet::default();
        let (mut filters, mut keys) = (Vec::new(), Vec::new());
        let mut pairs: Vec<(u64, u32)> = Vec::new();

        // Each repetition gets an independent stack seeded from the caller's
        // RNG; builds stay deterministic under a fixed seed.
        let mut reps = Vec::with_capacity(r);
        for _ in 0..r {
            let mut stack_rng = rand::rngs::StdRng::seed_from_u64(rng.random::<u64>());
            let mut rep = Repetition {
                hashers: PathHasherStack::sample(&mut stack_rng, depth),
                interner: TabulationU128::sample(&mut stack_rng),
                base: CompressedPostings::new(),
                delta: FxHashMap::default(),
            };
            pairs.clear();
            for (id, x) in vectors.iter().enumerate() {
                let id = id as u32;
                let context = EnumContext::new(x, &profile, &scheme, depth);
                let stats = rep.enumerate_keys(&context, &scheme, &mut filters, &mut keys);
                if stats.truncated {
                    truncated.insert(id);
                }
                if stats.depth_capped {
                    depth_capped.insert(id);
                }
                pairs.extend(keys.iter().map(|&key| (key, id)));
            }
            // Sorted as `(key, id)`, ids ascend within each key — the
            // encoder's contract. No two pairs are equal (the encoder
            // asserts it), so an unstable sort gives the order a stable
            // sort by key of the id-ordered pairs would.
            build_stats.total_filters += pairs.len();
            pairs.sort_unstable();
            let mut enc = PostingsEncoder::new();
            for &(key, id) in &pairs {
                enc.push(key, id);
            }
            rep.base = enc.finish();
            build_stats.distinct_buckets += rep.base.bucket_count();
            build_stats.max_bucket = build_stats.max_bucket.max(rep.base.max_bucket_len());
            reps.push(rep);
        }
        build_stats.truncated_vectors = truncated.len();
        build_stats.depth_capped_vectors = depth_capped.len();

        Self {
            profile,
            sets: SetTable::new(vectors),
            scheme,
            reps,
            verify_threshold,
            query_threads: options.query_threads,
            build_stats,
            base_len: n,
            alive: vec![true; n],
            live: n,
            pending: 0,
            mutation_buffer: options.mutation_buffer,
            compactions: 0,
        }
    }

    /// Build statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The scheme driving this index.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The indexed vectors.
    pub fn vectors(&self) -> &[SparseVec] {
        self.sets.sets()
    }

    /// The profile the index was built against.
    pub fn profile(&self) -> &BernoulliProfile {
        &self.profile
    }

    /// The probe walk every query surface runs: per repetition, the
    /// query's bucket keys — from `source`'s plan, or enumerated lazily just
    /// before the pass — then the bucket walk, feeding each *distinct*
    /// candidate to `visit` in first-discovery order with its discovery
    /// coordinate `(pass, step, id)`: `pass` is the repetition, `step` the
    /// position of the discovering filter in the enumeration order.
    ///
    /// `visit` returns whether the candidate is a match; under
    /// [`ProbeControl::first_only`] the walk stops after the first one, so
    /// a query source never enumerates the repetitions it skips. The
    /// deadline in `ctl` is polled before the first repetition and between
    /// repetitions. Returns the query statistics.
    ///
    /// Within one `(pass, step)` bucket, ids ascend (buckets are filled in id
    /// order at build time), so `(pass, step, id)` totally orders candidate
    /// discovery — the invariant the sharding layer's merge protocol
    /// ([`crate::shard::ShardedIndex`]) rests on. The enumeration inputs
    /// (scheme thresholds, dimension masses) are hoisted into one
    /// [`EnumContext`] shared by every repetition.
    ///
    /// # Panics
    /// Panics if a planned plan's pass count differs from this index's
    /// repetition count (a plan from a foreign index — probing it silently
    /// would corrupt answers).
    pub fn walk(
        &self,
        source: PassSource<'_>,
        ctl: ProbeControl<'_>,
        mut visit: impl FnMut(u32, u32, u32) -> bool,
    ) -> Result<QueryStats, DeadlineExceeded> {
        let pass_keys = match source.planned_passes() {
            Some(passes) => {
                assert_eq!(
                    passes.len(),
                    self.reps.len(),
                    "QueryPlan pass count does not match this index's repetitions"
                );
                PassKeys::Planned(passes)
            }
            None => PassKeys::Lazy(self.enum_context(source.query())),
        };
        // Go on unless `visit` reported the match a first-only probe wants.
        let mut visit = |pass, step, id| !(visit(pass, step, id) && ctl.first_only);
        let mut filters = Vec::new();
        let mut enumerated: Vec<u64> = Vec::new();
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut stats = QueryStats::default();
        ctl.poll()?;
        for (pass, rep) in self.reps.iter().enumerate() {
            if pass > 0 {
                ctl.poll()?;
            }
            let keys: &[u64] = match &pass_keys {
                PassKeys::Planned(passes) => &passes[pass],
                PassKeys::Lazy(context) => {
                    rep.enumerate_keys(context, &self.scheme, &mut filters, &mut enumerated);
                    &enumerated
                }
            };
            if !probe_pass_keys(rep, pass as u32, keys, &mut seen, &mut stats, &mut visit) {
                break;
            }
        }
        Ok(stats)
    }

    /// The enumeration inputs of `q`, hoisted once per query.
    fn enum_context<'q>(&self, q: &'q SparseVec) -> EnumContext<'q> {
        EnumContext::new(q, &self.profile, &self.scheme, self.scheme.depth_bound())
    }

    /// Stage 1 of the pipeline: enumerates `F(q)` under every repetition's
    /// hash stack — thresholds and masses hoisted once into an
    /// [`EnumContext`] — and interns the path keys into the per-repetition
    /// 64-bit bucket keys, packaged as a reusable [`QueryPlan`].
    ///
    /// The plan is valid for this index and for any
    /// [`LsfIndex::shard_of_ids`] shard of it (shards keep the parent's hash
    /// stacks and interners, so the plan is shard-invariant — the fact the
    /// sharding layer's enumerate-once broadcast rests on).
    ///
    /// Unlike the fused probe, planning always enumerates **all**
    /// repetitions up front (no early exit) — that is the price of
    /// reusability, repaid as soon as a second consumer probes the plan.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use skewsearch_core::{CorrelatedScheme, IndexOptions, LsfIndex, SetSimilaritySearch};
    /// use skewsearch_datagen::{BernoulliProfile, Dataset};
    ///
    /// let mut rng = StdRng::seed_from_u64(2);
    /// let profile = BernoulliProfile::two_block(400, 0.2, 0.02).unwrap();
    /// let data = Dataset::generate(&profile, 120, &mut rng);
    /// let scheme = CorrelatedScheme::new(0.8, data.n(), &profile);
    /// let index = LsfIndex::build(
    ///     data.vectors().to_vec(),
    ///     profile.clone(),
    ///     scheme,
    ///     0.8 / 1.3,
    ///     IndexOptions::default(),
    ///     &mut rng,
    /// );
    /// let plan = index.plan_query(data.vector(0));
    /// // One key list per repetition, probing reproduces the fused search.
    /// assert_eq!(plan.pass_count(), index.repetition_count());
    /// assert_eq!(index.probe_plan(&plan), index.search_all(data.vector(0)));
    /// ```
    pub fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        let context = self.enum_context(q);
        let mut filters = Vec::new();
        let passes = self
            .reps
            .iter()
            .map(|rep| {
                let mut keys = Vec::new();
                rep.enumerate_keys(&context, &self.scheme, &mut filters, &mut keys);
                keys
            })
            .collect();
        QueryPlan::from_passes(q.clone(), passes)
    }

    /// Verifies candidate `id` against `q`, whose signature is `q_sig`:
    /// its [`Match`] iff the slot is live and the similarity clears the
    /// index's threshold. Stage 3's single verification site, shared by
    /// every search/probe entry point — which makes it the single place
    /// tombstones are filtered: a removed set may still be probed out of a
    /// stale bucket, but it can never be answered.
    ///
    /// A live candidate whose signature bound is below the threshold is
    /// turned away without an intersection; the bound is never below the
    /// similarity (see [`similarity::braun_blanquet_bound`]), so only
    /// candidates that would fail anyway are.
    fn verified(&self, q: &SparseVec, q_sig: &SetSignature, id: u32) -> Option<Match> {
        if !self.alive[id as usize] {
            return None;
        }
        let (x, x_sig) = self.sets.get(id as usize);
        if similarity::braun_blanquet_bound(x, x_sig, q, q_sig) < self.verify_threshold {
            return None;
        }
        let sim = similarity::braun_blanquet(x, q);
        (sim >= self.verify_threshold).then_some(Match {
            id: id as usize,
            similarity: sim,
        })
    }

    /// [`SetSimilaritySearch::search`] with statistics.
    pub fn search_with_stats(&self, q: &SparseVec) -> (Option<Match>, QueryStats) {
        let q_sig = SetSignature::of(q);
        let mut hit = None;
        let stats = self.walk(PassSource::Query(q), ProbeControl::FIRST, |_, _, id| {
            hit = self.verified(q, &q_sig, id);
            hit.is_some()
        });
        (hit, stats.unwrap_or_default())
    }

    /// Distinct candidate ids the index would verify for `q` (no similarity
    /// filtering) — the quantity the paper's `n^ρ` bounds govern.
    pub fn distinct_candidates(&self, q: &SparseVec) -> (Vec<u32>, QueryStats) {
        let mut ids = Vec::new();
        let stats = self.walk(PassSource::Query(q), ProbeControl::ALL, |_, _, id| {
            ids.push(id);
            true
        });
        (ids, stats.unwrap_or_default())
    }

    /// Number of probe passes (= built repetitions).
    pub fn repetition_count(&self) -> usize {
        self.reps.len()
    }

    /// Resident heap bytes of this index by role — the accounting behind
    /// the memory-diet target. `posting_bytes` is exact for the compressed
    /// base segments (four flat arrays measured by capacity: keys, one
    /// word per bucket, the derived directory and the arena of the buckets
    /// that are not inline singletons) and a load-factor-aware estimate
    /// for the uncompressed delta maps;
    /// `aux_bytes` covers hash coefficients, interner tables, the
    /// tombstone bitmap and the set signatures (32 bytes per slot).
    /// Deterministic for a deterministic build — which is what lets
    /// `benches/postings.rs` compare substrates.
    pub fn memory_stats(&self) -> MemoryStats {
        let mut posting = 0usize;
        let mut aux = 0usize;
        for rep in &self.reps {
            posting += rep.base.heap_bytes();
            // Delta estimate: per-slot map overhead (key + Vec header +
            // control byte) plus each bucket's id storage.
            posting += rep.delta.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>() + 1);
            posting += rep
                .delta
                // lint:allow(nondeterministic-iter, sum of bucket capacities is an order-independent reduction)
                .values()
                .map(|b| b.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>();
            aux += TabulationU128::WORDS * std::mem::size_of::<u64>();
            aux += rep.hashers.levels().len() * 3 * std::mem::size_of::<u128>();
        }
        aux += self.alive.capacity();
        aux += self.sets.signature_bytes();
        MemoryStats {
            posting_bytes: posting,
            vector_bytes: self.sets.set_bytes(),
            aux_bytes: aux,
        }
    }

    /// Incrementally indexes `set` in the delta segments and returns its
    /// slot id (the infallible core of [`SetSimilaritySearch::insert`]).
    ///
    /// Enumerates `F(set)` once per repetition with the index's **existing**
    /// hash stacks — exactly the work one vector costs at build time — and
    /// appends the new id to each matching delta bucket. The id is
    /// `slot_count()` before the call; ids ascend with insertion order and
    /// are never reused. May trigger an automatic [`LsfIndex::compact`]
    /// (answer-invariant) once [`IndexOptions::mutation_buffer`] mutations
    /// have accumulated.
    ///
    /// After any interleaving of inserts and removals, every answer surface
    /// is byte-identical to a freshly built index over the surviving sets
    /// (under the monotone slot-id renumbering; pinned by
    /// `tests/mutation_equivalence.rs`).
    pub fn insert_set(&mut self, set: SparseVec) -> usize {
        let id = self.slot_count();
        let (mut filters, mut keys) = (Vec::new(), Vec::new());
        let context = self.enum_context(&set);
        for rep in &mut self.reps {
            rep.enumerate_keys(&context, &self.scheme, &mut filters, &mut keys);
            for &key in &keys {
                rep.delta.entry(key).or_default().push(id as u32);
            }
        }
        self.sets.push(set);
        self.alive.push(true);
        self.live += 1;
        self.pending += 1;
        self.maybe_compact();
        id
    }

    /// Tombstones slot `id`: `true` iff a live set was removed (the
    /// infallible core of [`SetSimilaritySearch::remove`]). Unassigned and
    /// already-dead ids return `false`; removal never panics and a retired
    /// id never comes back.
    ///
    /// The tombstone is honored immediately at the single verification
    /// site (`verified`) — the dead set can still be *probed* (its bucket
    /// entries linger until the next [`LsfIndex::compact`]) but can never
    /// be answered.
    pub fn remove_set(&mut self, id: usize) -> bool {
        if id >= self.alive.len() || !self.alive[id] {
            return false;
        }
        self.alive[id] = false;
        self.live -= 1;
        self.pending += 1;
        self.maybe_compact();
        true
    }

    /// Merges the delta segments into the base segments and prunes
    /// tombstoned ids from every bucket. A no-op when nothing is pending.
    ///
    /// **Answer-invariant**: each bucket key is merged independently — base
    /// survivors (ascending ids) followed by that key's delta ids (also
    /// ascending, and all larger) — so the post-compaction walk order for
    /// every key equals the pre-compaction walk order minus dead ids, which
    /// the `verified` tombstone check was already filtering. Queries before
    /// and after compaction answer byte-identically
    /// (`tests/mutation_equivalence.rs` interleaves explicit compactions).
    ///
    /// Dead slots' vector payloads are released, signatures zeroed with them
    /// (slot ids are never reused, so the slots themselves remain, empty).
    pub fn compact(&mut self) {
        if self.pending == 0 {
            return;
        }
        let alive = &self.alive;
        for rep in &mut self.reps {
            // Re-encode the base segment: a sorted-merge of the old base
            // (already in ascending key order) with the delta keys, pruning
            // tombstoned ids as they stream past. Per key the encoder sees
            // base survivors (ascending ids) then that key's delta ids
            // (also ascending, all larger) — the pre-compaction walk order
            // minus dead ids, which is what keeps compaction
            // answer-invariant.
            // lint:allow(nondeterministic-iter, the delta keys are collected and sorted before the merge — the encoding is independent of the map's iteration order)
            let mut delta_keys: Vec<u64> = rep.delta.keys().copied().collect();
            delta_keys.sort_unstable();
            let mut enc = PostingsEncoder::new();
            let push_delta = |enc: &mut PostingsEncoder, key: u64| {
                if let Some(bucket) = rep.delta.get(&key) {
                    for &id in bucket {
                        if alive[id as usize] {
                            enc.push(key, id);
                        }
                    }
                }
            };
            let mut di = 0usize;
            for (key, cursor) in rep.base.iter() {
                while di < delta_keys.len() && delta_keys[di] < key {
                    push_delta(&mut enc, delta_keys[di]);
                    di += 1;
                }
                for id in cursor {
                    if alive[id as usize] {
                        enc.push(key, id);
                    }
                }
                if di < delta_keys.len() && delta_keys[di] == key {
                    push_delta(&mut enc, key);
                    di += 1;
                }
            }
            while di < delta_keys.len() {
                push_delta(&mut enc, delta_keys[di]);
                di += 1;
            }
            rep.base = enc.finish();
            rep.delta = FxHashMap::default();
        }
        for (slot, &alive) in self.alive.iter().enumerate() {
            if !alive {
                self.sets.clear(slot);
            }
        }
        self.base_len = self.slot_count();
        self.pending = 0;
        self.compactions += 1;
    }

    /// Compacts iff the pending-mutation count has reached the buffer
    /// threshold.
    fn maybe_compact(&mut self) {
        if self.pending >= self.mutation_buffer {
            self.compact();
        }
    }

    /// Total slots ever assigned (live + tombstoned). Slot ids returned by
    /// [`LsfIndex::insert_set`] are always `< slot_count()`, and
    /// [`Match::id`] values are slot ids.
    pub fn slot_count(&self) -> usize {
        self.alive.len()
    }

    /// Mutations (inserts + removals) absorbed since the last compaction.
    pub fn pending_mutations(&self) -> usize {
        self.pending
    }

    /// Compactions performed so far (automatic and explicit).
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Whether slot `id` currently holds a live set.
    pub fn is_live(&self, id: usize) -> bool {
        id < self.alive.len() && self.alive[id]
    }

    /// Clones out a shard owning only the vectors with the given **global**
    /// ids (ascending), remapped to local ids `0..ids.len()` (the sharding
    /// primitive — see [`crate::shard`]). The shard keeps every
    /// repetition's hash stack and interner, with each bucket filtered down
    /// to the shard's ids; bucket order (ascending global id) is preserved
    /// under the monotone remap. Its storage statistics and set signatures
    /// are recomputed; the per-vector truncation counters are a build-time
    /// artifact of the parent and are zeroed.
    ///
    /// # Panics
    /// Panics if `ids` is not strictly ascending or contains an id `≥ len()`.
    pub fn shard_of_ids(&self, ids: &[u32]) -> Self
    where
        S: Clone,
    {
        let local_of = crate::shard::local_id_table(ids, self.slot_count());
        let vectors: Vec<SparseVec> = ids
            .iter()
            .map(|&g| self.vectors()[g as usize].clone())
            .collect();
        let remap = |buckets: &FxHashMap<u64, Vec<u32>>| -> FxHashMap<u64, Vec<u32>> {
            // lint:allow(nondeterministic-iter, filtering every bucket into a new map is a per-key transform — the resulting map does not depend on visit order)
            buckets
                .iter()
                .filter_map(|(&key, bucket)| {
                    crate::shard::remap_bucket(bucket, &local_of).map(|local| (key, local))
                })
                .collect()
        };
        // The base segment decodes bucket by bucket (key-ordered, ids
        // ascending) into a reused scratch buffer, remaps, and re-encodes —
        // the monotone remap preserves both encoder invariants.
        let mut scratch: Vec<u32> = Vec::new();
        let reps: Vec<Repetition> = self
            .reps
            .iter()
            .map(|rep| {
                let mut enc = PostingsEncoder::new();
                for (key, cursor) in rep.base.iter() {
                    scratch.clear();
                    scratch.extend(cursor);
                    if let Some(local) = crate::shard::remap_bucket(&scratch, &local_of) {
                        for id in local {
                            enc.push(key, id);
                        }
                    }
                }
                Repetition {
                    hashers: rep.hashers.clone(),
                    interner: rep.interner.clone(),
                    base: enc.finish(),
                    delta: remap(&rep.delta),
                }
            })
            .collect();
        // Mutation state restricted to the shard's slots: liveness follows
        // each global id; the local segment boundary is where the shard's
        // ids cross the parent's (`ids` ascends, so partition_point finds
        // it); the pending count is the shard's share of unpruned
        // tombstones plus its delta entries — conservative is fine, the
        // count only gates when compaction *may* run, never what it yields.
        let alive: Vec<bool> = ids.iter().map(|&g| self.alive[g as usize]).collect();
        let base_len = ids.partition_point(|&g| (g as usize) < self.base_len);
        let pending = if self.pending == 0 {
            0
        } else {
            let deltas: usize = reps
                .iter()
                // lint:allow(nondeterministic-iter, sum of delta-bucket sizes is an order-independent reduction)
                .map(|r| r.delta.values().map(Vec::len).sum::<usize>())
                .sum();
            deltas + alive.iter().filter(|a| !**a).count()
        };
        let live = alive.iter().filter(|a| **a).count();
        let build_stats = BuildStats {
            repetitions: reps.len(),
            total_filters: reps.iter().map(|r| r.base.posting_count()).sum(),
            distinct_buckets: reps.iter().map(|r| r.base.bucket_count()).sum(),
            max_bucket: reps
                .iter()
                .map(|r| r.base.max_bucket_len())
                .max()
                .unwrap_or(0),
            truncated_vectors: 0,
            depth_capped_vectors: 0,
        };
        Self {
            profile: self.profile.clone(),
            sets: SetTable::new(vectors),
            scheme: self.scheme.clone(),
            reps,
            verify_threshold: self.verify_threshold,
            query_threads: self.query_threads,
            build_stats,
            base_len,
            alive,
            live,
            pending,
            mutation_buffer: self.mutation_buffer,
            compactions: 0,
        }
    }
}

impl<S: ThresholdScheme> SetSimilaritySearch for LsfIndex<S> {
    /// Implements the trait's dedup-then-verify contract: [`LsfIndex::walk`]
    /// deduplicates candidate ids across repetitions *before* the similarity
    /// computation, and matches are pushed in first-discovery probe order.
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.search_all_tagged(q)
            .into_iter()
            .map(|t| t.hit)
            .collect()
    }

    /// Stage 1: full enumeration + interning, one key list per repetition —
    /// see [`LsfIndex::plan_query`].
    fn plan_query(&self, q: &SparseVec) -> QueryPlan {
        LsfIndex::plan_query(self, q)
    }

    /// [`LsfIndex::walk`] with the shared verify site as its visitor: genuine
    /// `(repetition, filter)` tags, the deadline polled once per repetition,
    /// and every source answering byte-identically by construction.
    fn probe_passes(
        &self,
        source: PassSource<'_>,
        ctl: ProbeControl<'_>,
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        let q = source.query();
        let q_sig = SetSignature::of(q);
        let mut out = Vec::new();
        self.walk(source, ctl, |pass, step, id| {
            match self.verified(q, &q_sig, id) {
                Some(hit) => {
                    out.push(TaggedMatch { pass, step, hit });
                    true
                }
                None => false,
            }
        })?;
        Ok(out)
    }

    /// Runs on [`IndexOptions::query_threads`] workers.
    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        batch_map(queries, self.query_threads, |q| self.search_all(q))
    }

    /// Infallible delegation to [`LsfIndex::insert_set`] — the LSF index is
    /// mutable, per its `supports_mutation` contract.
    fn insert(
        &mut self,
        set: SparseVec,
    ) -> Result<crate::traits::SetId, crate::traits::MutationError> {
        Ok(self.insert_set(set))
    }

    /// Infallible delegation to [`LsfIndex::remove_set`].
    fn remove(&mut self, id: crate::traits::SetId) -> Result<bool, crate::traits::MutationError> {
        Ok(self.remove_set(id))
    }

    fn supports_mutation(&self) -> bool {
        true
    }

    /// Genuine accounting — see [`LsfIndex::memory_stats`].
    fn memory_stats(&self) -> MemoryStats {
        LsfIndex::memory_stats(self)
    }

    fn threshold(&self) -> f64 {
        self.verify_threshold
    }

    /// Live sets only — tombstoned slots no longer count (see
    /// [`LsfIndex::slot_count`] for the total).
    fn len(&self) -> usize {
        self.live
    }
}

// --- persistence -----------------------------------------------------------
//
// The index is deterministic given its hash-function draws, so its payload
// is plain data: scheme calibration, profile, vectors, the `alive` bitmap
// and watermark counters, and per repetition the level-hash coefficients,
// interner tables, and both posting segments. Byte layout is specified in
// `docs/PERSISTENCE.md` §4; the container framing lives in
// [`crate::persist`]. Set signatures derive from the vectors, so the reader
// recomputes them and the format does not carry them.

impl<S: ThresholdScheme + PersistScheme> LsfIndex<S> {
    /// Appends this index's complete state to `w` as the kind-1 payload of
    /// `docs/PERSISTENCE.md` §4: base segments as format-v2 compressed
    /// postings (sorted keys + byte offsets + the delta/varint arena,
    /// derived by [`CompressedPostings::v2_parts`]), delta segments as
    /// bucket maps. Public because the wrapper indexes in
    /// `skewsearch-baselines` embed this payload after their own fields;
    /// most callers want [`Persist::save`] instead.
    pub fn write_payload(&self, w: &mut Writer) {
        w.put_u32(S::SCHEME_TAG);
        self.scheme.encode_scheme(w);
        w.put_f64_slice(self.profile.ps());
        w.put_f64(self.verify_threshold);
        w.put_u64(DEFAULT_NODE_BUDGET as u64);
        w.put_u64(self.query_threads as u64);
        w.put_u64(self.mutation_buffer as u64);
        w.put_u64(self.compactions);
        w.put_u64(self.base_len as u64);
        w.put_u64(self.pending as u64);
        w.put_u64(self.build_stats.repetitions as u64);
        w.put_u64(self.build_stats.total_filters as u64);
        w.put_u64(self.build_stats.distinct_buckets as u64);
        w.put_u64(self.build_stats.max_bucket as u64);
        w.put_u64(self.build_stats.truncated_vectors as u64);
        w.put_u64(self.build_stats.depth_capped_vectors as u64);
        w.put_sets(self.vectors());
        w.put_bitmap(&self.alive);
        w.put_u64(self.reps.len() as u64);
        for rep in &self.reps {
            let levels = rep.hashers.levels();
            w.put_u64(levels.len() as u64);
            for level in levels {
                let (a1, a2, b) = level.coefficients();
                w.put_u128(a1);
                w.put_u128(a2);
                w.put_u128(b);
            }
            w.put_u64_slice(&rep.interner.to_words());
            write_postings(w, &rep.base);
            write_bucket_map(w, &rep.delta);
        }
    }

    /// Decodes an index from a payload written by
    /// [`LsfIndex::write_payload`], validating every structural invariant
    /// the query path relies on (offset tables monotone, ids in range and
    /// ascending, varint streams well-formed, the scheme's per-dimension
    /// table one entry per profile dimension, hasher stacks exactly
    /// `depth_bound` deep, delta ids past the base watermark). Never
    /// panics: corrupt bytes yield a [`PersistError`]. Most callers want
    /// [`Persist::load`] instead.
    pub fn read_payload(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let tag = r.get_u32()?;
        if tag != S::SCHEME_TAG {
            return Err(PersistError::Malformed(
                "scheme tag does not match the requested scheme type",
            ));
        }
        let scheme = S::decode_scheme(r)?;
        let ps = r.get_f64_vec()?;
        let profile = BernoulliProfile::new(ps)
            .map_err(|_| PersistError::Malformed("profile probabilities out of range"))?;
        if scheme.table_len().is_some_and(|len| len != profile.d()) {
            return Err(PersistError::Malformed(
                "scheme table length differs from the profile's dimension count",
            ));
        }
        let verify_threshold = r.get_f64()?;
        if !(0.0..=1.0).contains(&verify_threshold) {
            return Err(PersistError::Malformed("verify threshold out of [0,1]"));
        }
        // The base segments hold the filters enumerated under the saved
        // budget, and queries enumerate under `DEFAULT_NODE_BUDGET`: a file
        // saved under any other budget would answer unlike its source index.
        if r.get_u64()? != DEFAULT_NODE_BUDGET as u64 {
            return Err(PersistError::Malformed(
                "node budget differs from the one every index enumerates under",
            ));
        }
        let query_threads = r.get_u64()? as usize;
        let mutation_buffer = r.get_u64()? as usize;
        let compactions = r.get_u64()?;
        let base_len = r.get_u64()? as usize;
        let pending = r.get_u64()? as usize;
        let build_stats = BuildStats {
            repetitions: r.get_u64()? as usize,
            total_filters: r.get_u64()? as usize,
            distinct_buckets: r.get_u64()? as usize,
            max_bucket: r.get_u64()? as usize,
            truncated_vectors: r.get_u64()? as usize,
            depth_capped_vectors: r.get_u64()? as usize,
        };
        let vectors = r.get_sets()?;
        let n = vectors.len();
        let alive = r.get_bitmap()?;
        if alive.len() != n {
            return Err(PersistError::Malformed("liveness bitmap length mismatch"));
        }
        if base_len > n {
            return Err(PersistError::Malformed("base watermark past slot count"));
        }
        let live = alive.iter().filter(|a| **a).count();
        let rep_count = r.get_u64()?;
        let mut reps: Vec<Repetition> = Vec::new();
        for _ in 0..rep_count {
            let level_count = r.get_u64()?;
            if level_count != scheme.depth_bound() as u64 {
                return Err(PersistError::Malformed(
                    "hasher stack depth does not match the scheme's depth bound",
                ));
            }
            let mut levels = Vec::new();
            for _ in 0..level_count {
                let a1 = r.get_u128()?;
                let a2 = r.get_u128()?;
                let b = r.get_u128()?;
                levels.push(skewsearch_hashing::LevelHasher::from_coefficients(
                    a1, a2, b,
                ));
            }
            let words = r.get_u64_vec()?;
            let interner = TabulationU128::from_words(&words).ok_or(PersistError::Malformed(
                "interner table word count mismatch",
            ))?;
            let base = read_postings(r, n, 0)?;
            let delta = read_bucket_map(r, n, base_len as u32)?;
            reps.push(Repetition {
                hashers: PathHasherStack::from_levels(levels),
                interner,
                base,
                delta,
            });
        }
        Ok(Self {
            profile,
            sets: SetTable::new(vectors),
            scheme,
            reps,
            verify_threshold,
            query_threads,
            build_stats,
            base_len,
            alive,
            live,
            pending,
            mutation_buffer,
            compactions,
        })
    }
}

impl<S: ThresholdScheme + PersistScheme> Persist for LsfIndex<S> {
    fn save(&self, path: &std::path::Path) -> Result<(), PersistError> {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        write_container(path, kind::LSF, &w.into_payload())
    }

    fn load(path: &std::path::Path) -> Result<Self, PersistError> {
        load_container(path, kind::LSF, Self::read_payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::CorrelatedScheme;
    use rand::rngs::StdRng;
    use skewsearch_datagen::{correlated_query, Dataset};

    fn small_setup() -> (Dataset, BernoulliProfile, StdRng) {
        let profile = BernoulliProfile::two_block(600, 0.2, 0.02).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let ds = Dataset::generate(&profile, 300, &mut rng);
        (ds, profile, rng)
    }

    fn build_correlated(
        ds: &Dataset,
        profile: &BernoulliProfile,
        alpha: f64,
        reps: usize,
        rng: &mut StdRng,
    ) -> LsfIndex<CorrelatedScheme> {
        let scheme = CorrelatedScheme::new(alpha, ds.n(), profile);
        LsfIndex::build(
            ds.vectors().to_vec(),
            profile.clone(),
            scheme,
            alpha / 1.3,
            IndexOptions {
                repetitions: Repetitions::Fixed(reps),
                ..IndexOptions::default()
            },
            rng,
        )
    }

    #[test]
    fn repetitions_resolve() {
        assert_eq!(Repetitions::Fixed(5).resolve(10), 5);
        assert_eq!(Repetitions::Fixed(0).resolve(10), 1);
        let auto = Repetitions::Auto { factor: 1.0 }.resolve(1000);
        assert_eq!(auto, (1000f64).ln().ceil() as usize);
    }

    #[test]
    fn finds_planted_correlated_vector() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.8;
        let index = build_correlated(&ds, &profile, alpha, 8, &mut rng);
        let mut found = 0;
        let trials = 40;
        for t in 0..trials {
            let target = t % ds.n();
            let q = correlated_query(ds.vector(target), &profile, alpha, &mut rng);
            if let Some(m) = index.search(&q) {
                // Any hit must clear the threshold; usually it's the target.
                assert!(m.similarity >= index.threshold());
                if m.id == target {
                    found += 1;
                }
            }
        }
        assert!(found >= trials * 3 / 4, "found {found}/{trials}");
    }

    #[test]
    fn search_never_returns_below_threshold() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.7, 4, &mut rng);
        let sampler = skewsearch_datagen::VectorSampler::new(&profile);
        for _ in 0..30 {
            let q = sampler.sample(&mut rng);
            if let Some(m) = index.search(&q) {
                assert!(m.similarity >= index.threshold());
            }
        }
    }

    #[test]
    fn search_all_is_deduplicated_and_verified() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.85;
        let index = build_correlated(&ds, &profile, alpha, 8, &mut rng);
        let q = correlated_query(ds.vector(7), &profile, alpha, &mut rng);
        let all = index.search_all(&q);
        let mut ids: Vec<usize> = all.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate ids in search_all");
        for m in &all {
            assert!(m.similarity >= index.threshold());
        }
    }

    #[test]
    fn build_stats_are_populated() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.7, 3, &mut rng);
        let st = index.build_stats();
        assert_eq!(st.repetitions, 3);
        assert!(st.total_filters > 0);
        assert!(st.distinct_buckets > 0);
        assert!(st.max_bucket >= 1);
        assert!(st.avg_filters_per_vector(ds.n()) > 0.0);
    }

    #[test]
    fn query_stats_track_probing() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.8;
        let index = build_correlated(&ds, &profile, alpha, 6, &mut rng);
        let q = correlated_query(ds.vector(3), &profile, alpha, &mut rng);
        let (hit, stats) = index.search_with_stats(&q);
        assert!(stats.repetitions_probed >= 1);
        assert!(stats.filters > 0);
        if hit.is_some() {
            assert!(stats.verified >= 1);
            // Early exit: should not have probed every repetition unless the
            // hit came late.
            assert!(stats.repetitions_probed <= 6);
        }
    }

    #[test]
    fn distinct_candidates_contains_search_hits() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.85;
        let index = build_correlated(&ds, &profile, alpha, 6, &mut rng);
        let q = correlated_query(ds.vector(11), &profile, alpha, &mut rng);
        let (cands, _) = index.distinct_candidates(&q);
        if let Some(m) = index.search(&q) {
            assert!(cands.contains(&(m.id as u32)));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let profile = BernoulliProfile::two_block(400, 0.2, 0.02).unwrap();
        let mut rng1 = StdRng::seed_from_u64(99);
        let ds1 = Dataset::generate(&profile, 150, &mut rng1);
        let idx1 = build_correlated(&ds1, &profile, 0.8, 4, &mut rng1);
        let mut rng2 = StdRng::seed_from_u64(99);
        let ds2 = Dataset::generate(&profile, 150, &mut rng2);
        let idx2 = build_correlated(&ds2, &profile, 0.8, 4, &mut rng2);
        let q = correlated_query(ds1.vector(0), &profile, 0.8, &mut rng1);
        let (c1, s1) = idx1.distinct_candidates(&q);
        let (c2, s2) = idx2.distinct_candidates(&q);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn planned_probe_is_byte_identical_to_fused_search() {
        let (ds, profile, mut rng) = small_setup();
        let alpha = 0.8;
        let index = build_correlated(&ds, &profile, alpha, 7, &mut rng);
        for t in 0..15 {
            let q = correlated_query(ds.vector(t * 13 % ds.n()), &profile, alpha, &mut rng);
            let plan = index.plan_query(&q);
            assert_eq!(plan.pass_count(), index.repetition_count());
            assert_eq!(
                SetSimilaritySearch::probe_plan_tagged(&index, &plan),
                index.search_all_tagged(&q),
                "query {t}"
            );
            assert_eq!(index.probe_plan(&plan), index.search_all(&q));
            assert_eq!(
                index.probe_passes(PassSource::Plan(&plan), ProbeControl::FIRST),
                index.probe_passes(PassSource::Query(&q), ProbeControl::FIRST)
            );
        }
        // Degenerate: the empty query plans to empty key lists and finds
        // nothing, exactly like the fused path.
        let plan = index.plan_query(&SparseVec::empty());
        assert_eq!(plan.pass_count(), index.repetition_count());
        assert_eq!(plan.key_count(), 0);
        assert!(index.probe_plan(&plan).is_empty());
    }

    #[test]
    fn unplanned_plan_falls_back_to_fused_probe() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.8, 4, &mut rng);
        let q = correlated_query(ds.vector(5), &profile, 0.8, &mut rng);
        let plan = crate::plan::QueryPlan::unplanned(q.clone());
        assert_eq!(
            SetSimilaritySearch::probe_plan_tagged(&index, &plan),
            index.search_all_tagged(&q)
        );
    }

    #[test]
    #[should_panic(expected = "pass count")]
    fn foreign_plan_pass_count_mismatch_panics() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.8, 4, &mut rng);
        let plan = crate::plan::QueryPlan::from_passes(SparseVec::empty(), vec![vec![]; 3]);
        let _ = SetSimilaritySearch::probe_plan_tagged(&index, &plan);
    }

    #[test]
    fn dataset_shards_share_the_parents_plan() {
        // shard_of_ids keeps hash stacks and interners, so plan_query is
        // shard-invariant — the contract the broadcast layer rests on.
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.8, 5, &mut rng);
        let q = correlated_query(ds.vector(2), &profile, 0.8, &mut rng);
        let plan = index.plan_query(&q);
        let shard = index.shard_of_ids(&[0, 3, 5, 17, 44]);
        assert_eq!(shard.plan_query(&q), plan);
        assert_eq!(
            SetSimilaritySearch::probe_plan_tagged(&shard, &plan),
            shard.search_all_tagged(&q)
        );
    }

    /// Builds over `vectors` with a dedicated RNG consumed *only* by the
    /// build and a scheme calibrated to a fixed `n` — so two builds with the
    /// same seed draw identical hash stacks and interners no matter how many
    /// vectors each indexes. This is the rebuild oracle the mutation tests
    /// compare against.
    fn build_fixed(
        vectors: Vec<SparseVec>,
        profile: &BernoulliProfile,
        mutation_buffer: usize,
    ) -> LsfIndex<CorrelatedScheme> {
        let scheme = CorrelatedScheme::new(0.8, 300, profile);
        let mut rng = StdRng::seed_from_u64(0xB111D);
        LsfIndex::build(
            vectors,
            profile.clone(),
            scheme,
            0.8 / 1.3,
            IndexOptions {
                repetitions: Repetitions::Fixed(5),
                mutation_buffer,
                ..IndexOptions::default()
            },
            &mut rng,
        )
    }

    /// A mutated index and the from-scratch build over its survivors answer
    /// byte-identically (under the monotone slot renumbering), and explicit
    /// compaction at any point never changes an answer.
    #[test]
    fn mutated_index_answers_like_a_rebuild() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..200].to_vec(), &profile, usize::MAX);
        // Interleave: remove some build-time sets, insert some fresh ones.
        for id in [3usize, 50, 51, 199, 0] {
            assert!(index.remove_set(id));
        }
        for t in 200..230 {
            assert_eq!(index.insert_set(ds.vector(t).clone()), t);
        }
        assert!(index.remove_set(210));
        assert_eq!(index.len(), 200 - 5 + 30 - 1);
        assert_eq!(index.slot_count(), 230);

        // Survivors in ascending slot order + slot → compact-id map.
        let survivors: Vec<usize> = (0..index.slot_count())
            .filter(|&s| index.is_live(s))
            .collect();
        // Slot `s` always holds `ds.vector(s)`: build took 0..200, inserts
        // appended 200..230 in order.
        let vectors: Vec<SparseVec> = survivors.iter().map(|&s| ds.vector(s).clone()).collect();
        let rebuilt = build_fixed(vectors, &profile, usize::MAX);
        let compact_of: FxHashMap<usize, usize> =
            survivors.iter().enumerate().map(|(c, &s)| (s, c)).collect();

        let check = |index: &LsfIndex<CorrelatedScheme>| {
            let mut rng = StdRng::seed_from_u64(7);
            for t in 0..25 {
                let q = correlated_query(ds.vector(t * 11 % 230), &profile, 0.8, &mut rng);
                let got: Vec<(usize, f64)> = index
                    .search_all(&q)
                    .into_iter()
                    .map(|m| (compact_of[&m.id], m.similarity))
                    .collect();
                let want: Vec<(usize, f64)> = rebuilt
                    .search_all(&q)
                    .into_iter()
                    .map(|m| (m.id, m.similarity))
                    .collect();
                assert_eq!(got, want, "query {t}");
                assert_eq!(
                    index.search(&q).map(|m| (compact_of[&m.id], m.similarity)),
                    rebuilt.search(&q).map(|m| (m.id, m.similarity)),
                );
            }
        };
        check(&index);
        // Compaction is answer-invariant.
        assert_eq!(index.compaction_count(), 0);
        index.compact();
        assert_eq!(index.compaction_count(), 1);
        assert_eq!(index.pending_mutations(), 0);
        check(&index);
    }

    #[test]
    fn tombstoned_ids_are_probed_but_never_answered() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..150].to_vec(), &profile, usize::MAX);
        // Self-queries: every live vector finds itself at similarity 1.
        let victim = 42usize;
        let q = ds.vector(victim).clone();
        assert!(index
            .search_all(&q)
            .iter()
            .any(|m| m.id == victim && m.similarity == 1.0));
        assert!(index.remove_set(victim));
        // Still a candidate (its bucket entries linger until compaction) …
        let (cands, _) = index.distinct_candidates(&q);
        assert!(cands.contains(&(victim as u32)), "stale probe expected");
        // … but never an answer, from any surface.
        assert!(index.search_all(&q).iter().all(|m| m.id != victim));
        assert!(index.search(&q).map(|m| m.id) != Some(victim));
        let plan = index.plan_query(&q);
        assert!(index.probe_plan(&plan).iter().all(|m| m.id != victim));
        // After compaction the stale bucket entries are gone too.
        index.compact();
        let (cands, _) = index.distinct_candidates(&q);
        assert!(!cands.contains(&(victim as u32)), "compaction prunes");
        assert!(index.search_all(&q).iter().all(|m| m.id != victim));
    }

    #[test]
    fn compact_on_clean_index_is_a_noop() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..100].to_vec(), &profile, usize::MAX);
        index.compact();
        assert_eq!(index.compaction_count(), 0, "empty delta: no compaction");
        // A mutate-compact cycle, then another explicit compact: also a noop.
        let id = index.insert_set(ds.vector(100).clone());
        assert!(index.remove_set(id));
        index.compact();
        assert_eq!(index.compaction_count(), 1);
        index.compact();
        assert_eq!(index.compaction_count(), 1, "nothing pending: no-op");
    }

    #[test]
    fn auto_compaction_triggers_at_the_buffer_threshold() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..100].to_vec(), &profile, 4);
        assert_eq!(index.pending_mutations(), 0);
        index.insert_set(ds.vector(100).clone());
        index.insert_set(ds.vector(101).clone());
        assert!(index.remove_set(3));
        assert_eq!(index.pending_mutations(), 3);
        assert_eq!(index.compaction_count(), 0);
        index.insert_set(ds.vector(102).clone());
        assert_eq!(index.compaction_count(), 1, "4th mutation compacts");
        assert_eq!(index.pending_mutations(), 0);
        assert!(!index.is_live(3));
        assert!(index.is_live(102));
    }

    #[test]
    fn mutation_bookkeeping_and_degenerate_removes() {
        let (ds, profile, _rng) = small_setup();
        let mut index = build_fixed(ds.vectors()[..50].to_vec(), &profile, usize::MAX);
        assert!(index.supports_mutation());
        // Ids are dense, monotone, and never reused.
        assert_eq!(index.insert_set(ds.vector(50).clone()), 50);
        assert!(index.remove_set(50));
        assert_eq!(index.insert_set(ds.vector(50).clone()), 51, "no reuse");
        // Removal is idempotent; unassigned ids are refused.
        assert!(!index.remove_set(50), "already dead");
        assert!(!index.remove_set(999), "never assigned");
        assert_eq!(index.len(), 51);
        assert_eq!(index.slot_count(), 52);
        // Trait-level mutation is infallible here.
        let via_trait = SetSimilaritySearch::insert(&mut index, ds.vector(51).clone());
        assert_eq!(via_trait, Ok(52));
        assert_eq!(SetSimilaritySearch::remove(&mut index, 52), Ok(true));
        assert_eq!(SetSimilaritySearch::remove(&mut index, 52), Ok(false));
        // Emptying the index entirely leaves a valid structure.
        for id in 0..index.slot_count() {
            let _ = index.remove_set(id);
        }
        assert_eq!(index.len(), 0);
        assert!(index.is_empty());
        let q = ds.vector(0).clone();
        assert!(index.search(&q).is_none());
        assert!(index.search_all(&q).is_empty());
        index.compact();
        assert!(index.search_all(&q).is_empty());
    }

    #[test]
    fn memory_stats_count_the_signature_table() {
        let (ds, profile, mut rng) = small_setup();
        let index = build_correlated(&ds, &profile, 0.8, 3, &mut rng);
        let per_rep = TabulationU128::WORDS * std::mem::size_of::<u64>()
            + index.scheme().depth_bound() * 3 * std::mem::size_of::<u128>();
        let (n, signature) = (ds.n(), std::mem::size_of::<SetSignature>());
        assert_eq!(signature, 32);
        // Interners and level hashes, the tombstone bitmap, the signatures.
        assert_eq!(
            index.memory_stats().aux_bytes,
            3 * per_rep + n + signature * n
        );
    }

    /// The queries of the `serve-skewed` benchmark fixture, whose index
    /// [`skewed_fixture`] builds: correlated at `α = 2/3` to random sets.
    fn skewed_queries(
        ds: &Dataset,
        profile: &BernoulliProfile,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<SparseVec> {
        (0..count)
            .map(|_| {
                let target = ds.vector(rng.random_range(0..ds.n()));
                correlated_query(target, profile, 2.0 / 3.0, rng)
            })
            .collect()
    }

    /// The `serve-skewed` benchmark fixture: n = 800 sets over the skewed
    /// two-block profile of `skewsearch_bench::skewed_profile(800, 8.0)`
    /// (107 dims at p = 1/4, 856 at p = 1/32), 6 repetitions, α = 2/3.
    fn skewed_fixture(rng: &mut StdRng) -> (LsfIndex<CorrelatedScheme>, Dataset, BernoulliProfile) {
        let profile = BernoulliProfile::blocks(&[(107, 0.25), (856, 1.0 / 32.0)]).unwrap();
        let ds = Dataset::generate(&profile, 800, rng);
        let index = build_correlated(&ds, &profile, 2.0 / 3.0, 6, rng);
        (index, ds, profile)
    }

    /// Walks every query's distinct candidates through the signature bound
    /// and the exact similarity. Fails if the bound turns a match away or
    /// the verify site disagrees with the exact similarity; returns the
    /// candidates, the bound's rejections and the matches.
    fn bound_outcomes(
        index: &LsfIndex<CorrelatedScheme>,
        queries: &[SparseVec],
    ) -> (usize, usize, usize) {
        let (mut candidates, mut rejected, mut matches) = (0, 0, 0);
        for q in queries {
            let q_sig = SetSignature::of(q);
            let walked = index.walk(PassSource::Query(q), ProbeControl::ALL, |_, _, id| {
                let (x, x_sig) = index.sets.get(id as usize);
                let below =
                    similarity::braun_blanquet_bound(x, x_sig, q, &q_sig) < index.threshold();
                let hit = similarity::braun_blanquet(x, q) >= index.threshold();
                assert!(!(below && hit), "the bound turned away match {id}");
                assert_eq!(index.verified(q, &q_sig, id).is_some(), hit, "set {id}");
                candidates += 1;
                rejected += usize::from(below);
                matches += usize::from(hit);
                hit
            });
            assert!(walked.is_ok());
        }
        (candidates, rejected, matches)
    }

    /// Asserts the bound turns away at least 95% of the distinct candidates
    /// (the fixture measures about 98.7%): a stale or all-ones signature
    /// rejects far fewer, or rejects a match.
    fn assert_bound_rejects_most(what: &str, outcome: (usize, usize, usize)) {
        let (candidates, rejected, matches) = outcome;
        assert!(
            matches > 0 && candidates > 1000,
            "{what}: vacuous {outcome:?}"
        );
        let share = rejected as f64 / candidates as f64;
        assert!(
            share >= 0.95,
            "{what}: bound rejected {share:.4} of {candidates}"
        );
    }

    #[test]
    fn signature_bound_rejects_most_candidates_and_no_match() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0017);
        let (mut index, ds, profile) = skewed_fixture(&mut rng);
        let queries = skewed_queries(&ds, &profile, 256, &mut rng);
        assert_bound_rejects_most("built", bound_outcomes(&index, &queries));

        let mut w = Writer::new();
        index.write_payload(&mut w);
        let payload = w.into_payload();
        let loaded = LsfIndex::<CorrelatedScheme>::read_payload(&mut Reader::new(&payload))
            .expect("own payload loads");
        assert_bound_rejects_most("loaded", bound_outcomes(&loaded, &queries));

        let ids: Vec<u32> = (0..ds.n() as u32).filter(|id| id % 3 != 1).collect();
        let shard = index.shard_of_ids(&ids);
        assert_bound_rejects_most("shard", bound_outcomes(&shard, &queries));

        // Inserted sets carry signatures too: query at them as well.
        let fresh = Dataset::generate(&profile, 50, &mut rng);
        for set in fresh.vectors() {
            index.insert_set(set.clone());
        }
        let mut queries = skewed_queries(&fresh, &profile, 50, &mut rng);
        let (_, _, fresh_matches) = bound_outcomes(&index, &queries);
        assert!(fresh_matches > 0, "no query matched an inserted set");
        queries.extend(skewed_queries(&ds, &profile, 256, &mut rng));
        assert_bound_rejects_most("inserted", bound_outcomes(&index, &queries));
    }

    /// The base segments' resident bytes stay at most 85% of what the same
    /// postings take in the format-v2 layout (8-byte keys, 8-byte offsets
    /// and the arena): most buckets are singletons held in a 4-byte word.
    #[test]
    fn posting_bytes_undercut_the_v2_layout() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0020);
        let (index, _, _) = skewed_fixture(&mut rng);
        let v2: usize = index
            .reps
            .iter()
            .map(|rep| {
                let (offsets, arena) = rep.base.v2_parts();
                8 * rep.base.keys().len() + 8 * offsets.len() + arena.len()
            })
            .sum();
        let resident = index.memory_stats().posting_bytes;
        assert!(
            20 * resident <= 17 * v2,
            "{resident} resident posting bytes against {v2} in the v2 layout"
        );
    }

    #[test]
    fn empty_index_finds_nothing() {
        let profile = BernoulliProfile::uniform(50, 0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let scheme = CorrelatedScheme::new(0.5, 2, &profile);
        let index: LsfIndex<CorrelatedScheme> = LsfIndex::build(
            vec![],
            profile.clone(),
            scheme,
            0.5,
            IndexOptions::default(),
            &mut rng,
        );
        assert!(index.is_empty());
        let q = SparseVec::from_unsorted(vec![1, 2, 3]);
        assert!(index.search(&q).is_none());
        assert!(index.search_all(&q).is_empty());
    }
}
