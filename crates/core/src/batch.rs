//! The batch query executor: chunked work stealing over std scoped threads.
//!
//! Answering a batch of queries is embarrassingly parallel — each query only
//! *reads* the index — but query costs are wildly uneven on skewed data (the
//! whole point of the paper: `ρ(q)` varies per query), so static chunking
//! leaves threads idle behind one expensive straggler chunk. [`batch_map`]
//! instead lets workers *claim* small chunks from a shared atomic cursor:
//! cheap queries drain quickly and their workers steal the remaining work.
//!
//! Results are returned **in input order regardless of thread count**, so a
//! batched call is observably identical to the sequential loop — the
//! invariant `tests/batch_equivalence.rs` pins down.
//!
//! Batches and mutations compose by exclusion, not interleaving: the
//! executor borrows the index shared (`&self`) for the whole batch, so the
//! borrow checker statically rules out a concurrent `insert`/`remove` —
//! every batch observes one frozen snapshot of a (possibly mutated) index,
//! and `tests/mutation_equivalence.rs` checks batched answers against that
//! snapshot's rebuild.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many items a worker claims per cursor fetch in [`batch_map`]. Small
/// enough to balance skewed per-query costs, large enough to amortize the
/// atomic traffic. [`batch_map_chunked`] takes the chunk size explicitly.
pub const CLAIM_CHUNK: usize = 8;

/// Resolves a requested worker count: `0` means "one worker per available
/// core", anything else is taken literally (and capped by the item count at
/// the call site).
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Applies `f` to every item on `threads` workers (std scoped threads),
/// distributing work through a shared atomic cursor in small fixed-size
/// chunks. Returns outputs in input order.
///
/// `threads = 0` resolves to the available parallelism; `threads = 1` (or a
/// batch of fewer than two items) degenerates to a plain sequential map with
/// no thread or atomic overhead.
pub fn batch_map<Q, T, F>(items: &[Q], threads: usize, f: F) -> Vec<T>
where
    Q: Sync,
    T: Send,
    F: Fn(&Q) -> T + Sync,
{
    batch_map_chunked(items, threads, CLAIM_CHUNK, f)
}

/// [`batch_map`] with an explicit claim-chunk size.
///
/// The default [`CLAIM_CHUNK`] of 8 amortizes cursor traffic over large query
/// batches, but it also means any batch of ≤ 8 items lands on a single
/// worker. Callers fanning out over a *small number of expensive items* — an
/// LSF build's `R` repetitions, or [`crate::ShardedIndex::build`]'s shards —
/// pass `claim_chunk = 1` so every item gets its own worker. The spawn and
/// join cost about 0.1 ms on two workers, so such items must cost more than
/// that: one query's shard probes do not.
/// Output is identical for every `(threads, claim_chunk)` pair.
pub fn batch_map_chunked<Q, T, F>(items: &[Q], threads: usize, claim_chunk: usize, f: F) -> Vec<T>
where
    Q: Sync,
    T: Send,
    F: Fn(&Q) -> T + Sync,
{
    let claim_chunk = claim_chunk.max(1);
    // Spawn no more workers than there are claimable chunks — extra threads
    // could never receive work.
    let threads = resolve_threads(threads).min(items.len().div_ceil(claim_chunk).max(1));
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    let runs: Vec<(usize, Vec<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut runs: Vec<(usize, Vec<T>)> = Vec::new();
                    loop {
                        // Relaxed is sound here: the cursor is only a
                        // work-claim ticket. `fetch_add` is atomic under any
                        // ordering, so two workers can never claim the same
                        // chunk; results are placed by `start` offset and
                        // the `scope` join synchronizes all writes before
                        // the slots are read. No other memory depends on
                        // observing this counter's value.
                        let start = cursor.fetch_add(claim_chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + claim_chunk).min(items.len());
                        runs.push((start, items[start..end].iter().map(f).collect()));
                    }
                    runs
                })
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(no-panic-in-lib, join only errs when the worker itself panicked in `f` — re-raising the caller's own panic is the correct propagation)
            .flat_map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });

    for (start, outputs) in runs {
        for (off, out) in outputs.into_iter().enumerate() {
            slots[start + off] = Some(out);
        }
    }
    slots
        .into_iter()
        // lint:allow(no-panic-in-lib, the claim loop covers 0..len exactly once so every slot is Some; an empty slot is a lost answer and must not be silently dropped)
        .map(|s| s.expect("every claimed chunk fills its slots"))
        .collect()
}

/// Groups equal items so repeated work is paid once: returns
/// `(representatives, slot_of)` where `representatives` indexes the first
/// occurrence of each distinct item (in first-appearance order) and
/// `slot_of[i]` is the position in `representatives` answering item `i`.
///
/// This is the dedup behind the join layer's plan-once-per-distinct-query
/// guarantee: a probe batch with duplicate sets (common after a sharded
/// index's content-hash co-location) enumerates, plans, and probes each
/// *distinct* query exactly once.
pub fn distinct_slots<Q: std::hash::Hash + Eq>(items: &[Q]) -> (Vec<usize>, Vec<usize>) {
    let mut first: skewsearch_hashing::FxHashMap<&Q, usize> =
        skewsearch_hashing::FxHashMap::default();
    let mut representatives = Vec::new();
    let mut slot_of = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let next = representatives.len();
        let slot = *first.entry(item).or_insert(next);
        if slot == next {
            representatives.push(i);
        }
        slot_of.push(slot);
    }
    (representatives, slot_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let got = batch_map(&items, threads, |x| x * 2);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_batches() {
        let empty: Vec<u32> = vec![];
        assert!(batch_map(&empty, 4, |x| *x).is_empty());
        assert_eq!(batch_map(&[7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Front-loaded costs force stealing: early items sleep, late ones
        // return immediately.
        let items: Vec<u64> = (0..40).collect();
        let got = batch_map(&items, 4, |&x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn resolve_threads_semantics() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn chunked_variant_is_identical_for_any_chunk_size() {
        let items: Vec<usize> = (0..57).collect();
        let expect: Vec<usize> = items.iter().map(|x| x + 3).collect();
        for chunk in [0, 1, 2, 7, 8, 1000] {
            for threads in [1, 3, 8] {
                let got = batch_map_chunked(&items, threads, chunk, |x| x + 3);
                assert_eq!(got, expect, "chunk={chunk} threads={threads}");
            }
        }
    }

    #[test]
    fn distinct_slots_groups_equal_items_in_first_appearance_order() {
        let items = vec!["a", "b", "a", "c", "b", "a"];
        let (reps, slot_of) = distinct_slots(&items);
        assert_eq!(reps, vec![0, 1, 3]);
        assert_eq!(slot_of, vec![0, 1, 0, 2, 1, 0]);
        let empty: Vec<u32> = vec![];
        assert_eq!(distinct_slots(&empty), (vec![], vec![]));
    }

    #[test]
    fn chunk_of_one_parallelizes_small_fanouts() {
        // With claim_chunk = 1, a 4-item fan-out actually uses 4 workers
        // (batch_map's chunk of 8 would collapse it to one). Verified
        // indirectly: results stay ordered and all items are processed.
        let items: Vec<u64> = (0..4).collect();
        let got = batch_map_chunked(&items, 4, 1, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x * 10
        });
        assert_eq!(got, vec![0, 10, 20, 30]);
    }
}
