//! The paper's indexes as thin wrappers around [`LsfIndex`].
//!
//! [`crate::CorrelatedIndex`], [`crate::AdversarialIndex`], and the Chosen
//! Path baseline are each an [`LsfIndex`] under their own threshold scheme
//! plus a few fields of their own (`α` and the model diagnostics, nothing,
//! `b₂`). Each one dereferences to its embedded index and implements
//! [`LsfWrapper`]; the blanket impls below derive [`SetSimilaritySearch`],
//! [`Shardable`], and [`Persist`] from the embedded index, and `Deref` makes
//! its inherent helpers (`search_with_stats`, `distinct_candidates`,
//! `build_stats`, …) callable on the wrapper directly.

use crate::index::LsfIndex;
use crate::persist::{
    load_container, write_container, Persist, PersistError, PersistScheme, Reader, Writer,
};
use crate::plan::{QueryPlan, QueryPlanner};
use crate::scheme::ThresholdScheme;
use crate::shard::Shardable;
use crate::traits::{
    DeadlineExceeded, Match, MemoryStats, MutationError, PassSource, ProbeControl, SetId,
    SetSimilaritySearch, TaggedMatch,
};
use skewsearch_sets::SparseVec;
use std::ops::DerefMut;
use std::path::Path;
use std::sync::Arc;

/// An index that is an [`LsfIndex`] plus fields of its own — everything a
/// wrapper states beyond `Deref`/`DerefMut` to its embedded index.
pub trait LsfWrapper: DerefMut<Target = LsfIndex<<Self as LsfWrapper>::Scheme>> + Sized {
    /// The embedded index's threshold scheme.
    type Scheme: ThresholdScheme + PersistScheme + 'static;

    /// The wrapper's `.skx` container kind (see [`crate::persist::kind`]).
    const KIND: u32;

    /// This wrapper's own fields around `inner`, a shard of its embedded
    /// index.
    fn rewrap(&self, inner: LsfIndex<Self::Scheme>) -> Self;

    /// Appends the wrapper's own fields: the prefix its container payload
    /// carries before the embedded LSF payload (`docs/PERSISTENCE.md` §5).
    fn encode_fields(&self, w: &mut Writer);

    /// Decodes the prefix [`LsfWrapper::encode_fields`] wrote, then the
    /// embedded payload.
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

impl<W: LsfWrapper> SetSimilaritySearch for W {
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        (**self).search_all(q)
    }

    fn planner(&self) -> Option<Arc<dyn QueryPlanner>> {
        (**self).planner()
    }

    fn probe_passes(
        &self,
        source: PassSource<'_>,
        ctl: ProbeControl<'_>,
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        (**self).probe_passes(source, ctl)
    }

    fn search_batch(&self, queries: &[SparseVec]) -> Vec<Vec<Match>> {
        (**self).search_batch(queries)
    }

    /// Mutable: the embedded index's log-structured insert.
    fn insert(&mut self, set: SparseVec) -> Result<SetId, MutationError> {
        (**self).insert(set)
    }

    fn insert_planned(&mut self, plan: QueryPlan) -> Result<SetId, MutationError> {
        (**self).insert_planned(plan)
    }

    fn remove(&mut self, id: SetId) -> Result<bool, MutationError> {
        (**self).remove(id)
    }

    fn supports_mutation(&self) -> bool {
        true
    }

    fn memory_stats(&self) -> MemoryStats {
        (**self).memory_stats()
    }

    fn threshold(&self) -> f64 {
        (**self).threshold()
    }

    fn len(&self) -> usize {
        (**self).len()
    }
}

impl<W: LsfWrapper> Shardable for W {
    fn shard_of_ids(&self, ids: &[u32]) -> Self {
        self.rewrap((**self).shard_of_ids(ids))
    }

    fn partition_key(&self, id: u32) -> u64 {
        (**self).partition_key(id)
    }

    fn slot_count(&self) -> usize {
        (**self).slot_count()
    }

    fn adopt_planner(&mut self, first: &Self) -> bool {
        (**self).adopt_planner(first)
    }
}

impl<W: LsfWrapper> Persist for W {
    /// A container of the wrapper's own kind: its fields, then the embedded
    /// kind-1 payload (`docs/PERSISTENCE.md` §5).
    fn save(&self, path: &Path) -> Result<(), PersistError> {
        let mut w = Writer::new();
        self.encode_fields(&mut w);
        self.write_payload(&mut w);
        write_container(path, W::KIND, &w.into_payload())
    }

    fn load(path: &Path) -> Result<Self, PersistError> {
        load_container(path, W::KIND, W::decode)
    }
}
