//! The reusable query plan: stage 1 of the enumerate→probe→verify pipeline.
//!
//! The paper's query procedure (§3) has two separable halves: *enumerate*
//! the query's filter set `F(q)` under the preprocessing hash stacks, then
//! *probe* the inverted index with those filters (LSF-Join distributes
//! exactly this split by shipping precomputed filter keys to partitions).
//! Our fused probe loop interleaves the two per repetition, which is optimal
//! for a single index — but a sharded index that partitions the *dataset*
//! keeps the same hash stacks in every shard, so enumeration is
//! shard-invariant and fusing it into the per-shard probe re-pays the
//! enumeration cost once per shard (`N×` per query).
//!
//! [`QueryPlan`] materializes stage 1 as plain owned data: the query vector
//! plus, per probe pass (LSF repetition), the interned 64-bit bucket keys in
//! enumeration order. Only the LSF family plans; every other structure
//! (MinHash, brute force, prefix filtering) returns an unplanned plan. A
//! plan is produced once by
//! [`SetSimilaritySearch::plan_query`](crate::SetSimilaritySearch::plan_query)
//! and consumed any number of times by
//! [`SetSimilaritySearch::probe_plan_tagged`](crate::SetSimilaritySearch::probe_plan_tagged)
//! — by the index that planned it, or by any dataset shard of that index —
//! which hands its two halves, `plan.query()` and `plan.passes()`, to the
//! one probe primitive,
//! [`SetSimilaritySearch::probe_passes`](crate::SetSimilaritySearch::probe_passes);
//! a fused search passes its query and `None`.
//! Because it is nothing but a `SparseVec` and a `Vec<Vec<u64>>`, a future
//! network fan-out can serialize it verbatim and ship `(plan, shard)` pairs
//! instead of re-enumerating remotely.
//!
//! A [`QueryPlanner`] is stage 1 apart from its index: the LSF family hands
//! out its planning state, which no mutation touches, so a caller can plan
//! without holding the index at all — the query service plans outside its
//! lock and holds the lock only to probe or to push an insert's keys.

use skewsearch_sets::SparseVec;

/// Stage 1 of the pipeline as a shareable value, returned by
/// [`SetSimilaritySearch::planner`](crate::SetSimilaritySearch::planner).
///
/// A planner reads only state fixed at build time — for the LSF family the
/// profile, the scheme, and each repetition's hash stack and key interner,
/// which §3 draws "once and for all" — and never the postings or sets that
/// `insert`, `remove` and `compact` change. So it may plan while its index
/// is being mutated, and its plans are exactly the index's own:
/// `planner.plan(q) == index.plan_query(q)` before and after any mutation
/// (`tests/plan_equivalence.rs`). A plan for a set can be handed to
/// [`SetSimilaritySearch::insert_planned`](crate::SetSimilaritySearch::insert_planned)
/// as well as to a probe.
pub trait QueryPlanner: Send + Sync {
    /// The plan of `q`: one key list per repetition, in enumeration order.
    fn plan(&self, q: &SparseVec) -> QueryPlan;
}

/// A precomputed probe plan for one query: the owned query vector plus the
/// interned bucket keys to probe, per pass, in enumeration order.
///
/// Two flavors exist:
///
/// * **planned** ([`QueryPlan::from_passes`]) — carries one key list per
///   probe pass; a consuming index probes buckets only, never re-running
///   filter enumeration;
/// * **unplanned** ([`QueryPlan::unplanned`]) — carries only the query;
///   consumers fall back to their fused enumerate-and-probe path. This is
///   what every structure outside the LSF family returns: MinHash hashes
///   its band signatures inside its own walk, and brute force and prefix
///   filtering have no bucketed probe at all.
///
/// The defining contract, pinned by `tests/plan_equivalence.rs` for every
/// index type in the workspace: probing a plan yields **byte-identical**
/// results to the fused search it was split out of,
/// `index.probe_plan_tagged(&index.plan_query(q)) == index.search_all_tagged(q)`.
///
/// Plans are additionally **mutation-invariant**: a plan depends only on
/// the index's hash stacks, key interners, and scheme — never on its
/// buckets or vectors — and incremental `insert`/`remove` touch none of
/// those, so `plan_query(q)` returns the same plan before and after any
/// mutation sequence, and a plan derived earlier stays valid (probing it
/// simply sees the index's current contents). This is what keeps the
/// sharded enumerate-once broadcast correct for mutated shards
/// (`tests/enumeration_count.rs` pins the post-insert broadcast).
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use skewsearch_core::{CorrelatedIndex, CorrelatedParams, SetSimilaritySearch};
/// use skewsearch_datagen::{correlated_query, BernoulliProfile, Dataset};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let profile = BernoulliProfile::two_block(800, 0.2, 0.02).unwrap();
/// let data = Dataset::generate(&profile, 200, &mut rng);
/// let index = CorrelatedIndex::build(
///     &data,
///     &profile,
///     CorrelatedParams::new(0.8).unwrap(),
///     &mut rng,
/// );
/// let q = correlated_query(data.vector(3), &profile, 0.8, &mut rng);
/// // Stage 1 once …
/// let plan = index.plan_query(&q);
/// assert_eq!(plan.passes().map(<[_]>::len), Some(index.repetition_count()));
/// // … stages 2+3 as often as needed, byte-identical to the fused path.
/// assert_eq!(index.probe_plan_tagged(&plan), index.search_all_tagged(&q));
/// assert_eq!(index.probe_plan_tagged(&plan), index.probe_plan_tagged(&plan));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPlan {
    query: SparseVec,
    /// `passes[p]` = interned bucket keys of pass `p`, in enumeration order.
    /// `None` marks an unplanned plan (fused fallback).
    passes: Option<Vec<Vec<u64>>>,
}

impl QueryPlan {
    /// A plan carrying only the query: consumers fall back to their fused
    /// enumerate-and-probe path. This is what the trait-level default
    /// [`plan_query`](crate::SetSimilaritySearch::plan_query) produces.
    pub fn unplanned(query: SparseVec) -> Self {
        Self {
            query,
            passes: None,
        }
    }

    /// A fully planned query: `passes[p]` holds pass `p`'s interned bucket
    /// keys in enumeration order. The pass count must equal the consuming
    /// index's pass count (its repetitions) — planned probes check
    /// this and panic on a mismatch rather than silently misprobe.
    pub fn from_passes(query: SparseVec, passes: Vec<Vec<u64>>) -> Self {
        Self {
            query,
            passes: Some(passes),
        }
    }

    /// The query this plan was built for (verification always needs it).
    pub fn query(&self) -> &SparseVec {
        &self.query
    }

    /// The per-pass key lists, or `None` for an unplanned plan.
    pub fn passes(&self) -> Option<&[Vec<u64>]> {
        self.passes.as_deref()
    }

    /// The query and the per-pass key lists, by value — what an insert of
    /// the planned set consumes.
    pub fn into_parts(self) -> (SparseVec, Option<Vec<Vec<u64>>>) {
        (self.query, self.passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplanned_plans_carry_only_the_query() {
        let q = SparseVec::from_unsorted(vec![3, 1, 4]);
        let plan = QueryPlan::unplanned(q.clone());
        assert_eq!(plan.query(), &q);
        assert_eq!(plan.passes(), None);
    }

    #[test]
    fn planned_plans_expose_passes_and_counts() {
        let q = SparseVec::from_unsorted(vec![7]);
        let plan = QueryPlan::from_passes(q, vec![vec![1, 2], vec![], vec![3]]);
        let passes = plan.passes().expect("a planned plan carries passes");
        assert_eq!(passes.len(), 3);
        assert_eq!(passes.iter().map(Vec::len).sum::<usize>(), 3);
        assert_eq!(passes[0], vec![1, 2]);
    }
}
