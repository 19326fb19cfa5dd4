//! The recursive path-enumeration engine: computing `F(x)`.
//!
//! Implements the recursion of §3:
//!
//! ```text
//! F_{j+1}(x) = { v ∘ i  |  v ∈ F_j(x),  ∏_{k≤j} p_{i_k} > 1/n,
//!                i ∈ x \ v,  h_{j+1}(v ∘ i) < s(x, j, i) }
//! F(x)       = ∪_j { v ∈ F_j(x) : ∏ p_{i_k} ≤ 1/n }
//! ```
//!
//! as a depth-first traversal with an explicit scratch path (sampling
//! **without replacement** — `i ∈ x \ v` — is one of the paper's departures
//! from Chosen Path, footnote 7). The stopping product is tracked as mass
//! `Σ log₂(1/p_i)`; the generic [`ThresholdScheme`]
//! supplies both `s(x, j, i)` and the completion rule so the same engine runs
//! the §5 scheme, the §6 scheme, and the Chosen Path baseline.
//!
//! A node *budget* guarantees termination on pathological inputs (e.g.
//! adversarial thresholds clamped to 1); exceeding it truncates enumeration
//! and is reported in [`EnumStats`] — correctness degrades gracefully to
//! "missed filters", never to wrong answers, because candidates are always
//! verified.
//!
//! The DFS runs one *child test* per query dimension at every node, so a
//! query's enumeration cost is its filter count times about `|x|` tests.
//! [`EnumContext`] prepares everything a test needs that does not depend
//! on the path, packed into one row per depth and dimension: the
//! dimension's key term `H(i)` ([`PathKey::dim_term`]) and its threshold
//! pre-scaled for [`LevelHasher::accepts_scaled`]. A test is then one row
//! read, one key extension, one level hash and one compare, and a node
//! scans its rows for the next child the hash accepts in a loop that
//! touches nothing else. The dimension, its mass and the
//! without-replacement scan of the path are read only for the few
//! children the hash accepts. Every step decides exactly what the
//! textbook test does, in the same order, so `F(x)`, its order and
//! [`EnumStats`] are unchanged (pinned against a reference DFS in this
//! module's tests).
//!
//! [`LevelHasher::accepts_scaled`]: skewsearch_hashing::LevelHasher::accepts_scaled

use crate::scheme::ThresholdScheme;
use skewsearch_datagen::BernoulliProfile;
use skewsearch_hashing::{LevelHasher, PathHasherStack, PathKey};
use skewsearch_sets::SparseVec;

/// Per-vector node budget (expansion attempts across the DFS) that every
/// [`crate::LsfIndex`] enumerates under; a saved index records it, and a
/// load rejects any other value.
pub const DEFAULT_NODE_BUDGET: usize = 1 << 21;

/// Process-wide count of filter-set enumerations (instrumentation).
static ENUMERATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide count of [`enumerate_filters_with`] invocations — one per
/// `(vector, hash stack)` pair, so a full `F(q)` derivation over `R`
/// repetitions adds exactly `R`.
///
/// This is the counting hook the plan-pipeline tests use to assert that a
/// `ByDataset`-sharded index enumerates each query's filter set **once**
/// regardless of shard count (`tests/enumeration_count.rs`); the counter is
/// a single relaxed atomic increment per enumeration, negligible next to the
/// DFS it counts. It is process-global and monotone — measure *deltas*, and
/// serialize measured regions against other enumerating threads.
///
/// Incremental mutations are counted too: one
/// [`crate::LsfIndex::insert_set`] enumerates the new set once per
/// repetition (`R` increments — the same as that vector would cost inside a
/// build), removals and [`crate::LsfIndex::compact`] enumerate **nothing**,
/// and queries after mutations still cost exactly `R` at any shard count
/// (also pinned by `tests/enumeration_count.rs`).
pub fn enumeration_count() -> u64 {
    // Relaxed is sound: the counter is a monotone statistic read for its
    // value alone — no other memory is published through it, and callers
    // serialize measured regions themselves (see above).
    ENUMERATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Statistics from one enumeration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Completed paths (filters) emitted.
    pub emitted: usize,
    /// Accepted path extensions (tree edges explored).
    pub nodes: usize,
    /// True iff the node budget cut enumeration short.
    pub truncated: bool,
    /// True iff some path hit the depth cap before completing (only possible
    /// when the hasher stack is shallower than the theoretical bound).
    pub depth_capped: bool,
}

/// Precomputed enumeration inputs for one vector: every scheme threshold
/// `s(x, j, i)`, per-dimension mass `log₂(1/p_i)` and key term `H(i)` the
/// DFS can touch, evaluated once up front.
///
/// Thresholds and masses depend only on the vector, the profile, and the
/// scheme — **not** on the repetition's hash stack — so a query builds this
/// context once and reuses it across all `R = Θ(log n)` repetitions instead
/// of re-deriving `F(q)`'s inputs per repetition (the hot-path hoist the
/// ROADMAP called for). [`LsfIndex::walk`](crate::LsfIndex::walk) does
/// exactly that; [`enumerate_filters`] builds a throwaway context for
/// single-shot callers.
pub struct EnumContext<'a> {
    x: &'a SparseVec,
    /// Depth-major child tests: `tests[j · |x| + t]` tests dimension
    /// `dims[t]` at depth `j`, for `j < max_depth`.
    tests: Vec<ChildTest>,
    /// `masses[t] = log₂(1/p_{dims[t]})`.
    masses: Vec<f64>,
    max_depth: usize,
}

/// What the DFS reads to test one child, packed into one row: everything
/// the test needs before the level hash accepts the child. The dimension
/// itself and its mass are read only for the children the hash accepts.
#[derive(Clone, Copy)]
struct ChildTest {
    /// `H(dims[t])`, the dimension's [`PathKey::dim_term`].
    term: u128,
    /// `s(x, j, dims[t]) · 2⁵³`, pre-scaled for
    /// [`LevelHasher::accepts_scaled`].
    threshold: f64,
    /// `t`, the dimension's position in `x`.
    t: u32,
}

impl<'a> EnumContext<'a> {
    /// Evaluates all thresholds and masses for `x` up to `max_depth` (use the
    /// hasher stack's depth, which index builds size to
    /// [`ThresholdScheme::depth_bound`]).
    ///
    /// A dimension `≥ profile.d()` has `p_i = 0`: it gets threshold 0, so no
    /// path ever samples it, while it still counts in `|x|` (the scheme's
    /// weight, and verification).
    pub fn new<S: ThresholdScheme>(
        x: &'a SparseVec,
        profile: &BernoulliProfile,
        scheme: &S,
        max_depth: usize,
    ) -> Self {
        let weight = x.weight();
        let dims = x.dims();
        let known = dims.partition_point(|&i| (i as usize) < profile.d());
        let terms: Vec<u128> = dims.iter().map(|&i| PathKey::dim_term(i)).collect();
        let mut tests = Vec::with_capacity(max_depth * dims.len());
        for depth in 0..max_depth {
            for (t, (&i, &term)) in dims.iter().zip(&terms).enumerate() {
                let threshold = if t < known {
                    scheme.threshold(weight, depth, i) * LevelHasher::SCALE
                } else {
                    0.0
                };
                tests.push(ChildTest {
                    term,
                    threshold,
                    t: t as u32,
                });
            }
        }
        let mut masses: Vec<f64> = dims[..known]
            .iter()
            .map(|&i| profile.log2_inv_p(i))
            .collect();
        masses.resize(dims.len(), 0.0);
        Self {
            x,
            tests,
            masses,
            max_depth,
        }
    }

    /// The vector this context was built for.
    pub fn vector(&self) -> &SparseVec {
        self.x
    }
}

/// Enumerates `F(x)` into `out`, returning traversal statistics.
///
/// `hashers` must be the stack drawn at preprocessing time — queries *must*
/// reuse the preprocessing stack or no filter can ever coincide.
///
/// Convenience wrapper building a fresh [`EnumContext`] per call; callers
/// that enumerate the same vector under several stacks (the index's
/// repetition probing) should build the context once and call
/// [`enumerate_filters_with`].
pub fn enumerate_filters<S: ThresholdScheme>(
    x: &SparseVec,
    profile: &BernoulliProfile,
    scheme: &S,
    hashers: &PathHasherStack,
    node_budget: usize,
    out: &mut Vec<PathKey>,
) -> EnumStats {
    let context = EnumContext::new(x, profile, scheme, hashers.max_depth());
    enumerate_filters_with(&context, scheme, hashers, node_budget, out)
}

/// Enumerates `F(x)` from a prebuilt [`EnumContext`] — byte-identical output
/// to [`enumerate_filters`], without re-evaluating thresholds or masses.
///
/// `scheme` supplies only the (cheap) completion rule; the per-`(j, i)`
/// thresholds come from the context.
///
/// # Panics
/// Panics if `hashers` is deeper than the context was built for.
pub fn enumerate_filters_with<S: ThresholdScheme>(
    context: &EnumContext<'_>,
    scheme: &S,
    hashers: &PathHasherStack,
    node_budget: usize,
    out: &mut Vec<PathKey>,
) -> EnumStats {
    // Relaxed is sound: a monotone event count with no ordering obligations;
    // the enumeration's outputs flow through return values, never through
    // this counter.
    ENUMERATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut stats = EnumStats::default();
    if context.x.is_empty() {
        return stats;
    }
    assert!(
        hashers.max_depth() <= context.max_depth,
        "EnumContext depth {} shallower than hasher stack {}",
        context.max_depth,
        hashers.max_depth()
    );
    let mut path = vec![0u32; hashers.max_depth()];
    let mut ctx = Ctx {
        cache: context,
        scheme,
        hashers,
        node_budget,
        out,
        stats: &mut stats,
    };
    dfs(&mut ctx, PathKey::EMPTY, 0.0, &mut path, 0);
    stats
}

struct Ctx<'a, S: ThresholdScheme> {
    cache: &'a EnumContext<'a>,
    scheme: &'a S,
    hashers: &'a PathHasherStack,
    node_budget: usize,
    out: &'a mut Vec<PathKey>,
    stats: &'a mut EnumStats,
}

/// Extends the path `path[..depth]`, whose key is `key` and mass `mass`, by
/// every child the level hash accepts; `path` has room for the stack's
/// depth.
fn dfs<S: ThresholdScheme>(
    ctx: &mut Ctx<'_, S>,
    key: PathKey,
    mass: f64,
    path: &mut [u32],
    depth: usize,
) {
    let level = ctx.hashers.level(depth);
    let cache = ctx.cache;
    let dims = cache.x.dims();
    let mut tests = &cache.tests[depth * dims.len()..(depth + 1) * dims.len()];
    while !tests.is_empty() {
        if ctx.stats.nodes >= ctx.node_budget {
            ctx.stats.truncated = true;
            return;
        }
        // The next child the hash accepts. A rejected child changes no
        // state, so the budget check above holds for every child the scan
        // passes over, as it would if each were checked in turn. A
        // threshold of 0 (a dimension outside the profile) rejects every
        // hash.
        let accepted = tests
            .iter()
            .position(|test| level.accepts_scaled(key.extend_term(test.term), test.threshold));
        let Some(at) = accepted else {
            return;
        };
        let test = tests[at];
        tests = &tests[at + 1..];
        // Without replacement: skip dimensions already on the path. Paths are
        // at most a few dozen long, so a linear scan beats any set structure,
        // and it runs only for the few children the hash accepted.
        let t = test.t as usize;
        let i = dims[t];
        if path[..depth].contains(&i) {
            continue;
        }
        ctx.stats.nodes += 1;
        let key2 = key.extend_term(test.term);
        let mass2 = mass + cache.masses[t];
        if ctx.scheme.is_complete(mass2, depth + 1) {
            ctx.out.push(key2);
            ctx.stats.emitted += 1;
        } else if depth + 1 < ctx.hashers.max_depth() {
            path[depth] = i;
            dfs(ctx, key2, mass2, path, depth + 1);
            if ctx.stats.truncated {
                return;
            }
        } else {
            ctx.stats.depth_capped = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{AdversarialScheme, ChosenPathScheme, CorrelatedScheme};
    use rand::{rngs::StdRng, SeedableRng};
    use skewsearch_datagen::VectorSampler;

    fn profile() -> BernoulliProfile {
        BernoulliProfile::two_block(200, 0.25, 0.02).unwrap()
    }

    fn stack(seed: u64, depth: usize) -> PathHasherStack {
        let mut rng = StdRng::seed_from_u64(seed);
        PathHasherStack::sample(&mut rng, depth)
    }

    #[test]
    fn empty_vector_yields_no_filters() {
        let p = profile();
        let scheme = AdversarialScheme::new(0.5, 256, &p);
        let h = stack(1, scheme.depth_bound());
        let mut out = Vec::new();
        let stats = enumerate_filters(
            &SparseVec::empty(),
            &p,
            &scheme,
            &h,
            DEFAULT_NODE_BUDGET,
            &mut out,
        );
        assert_eq!(stats.emitted, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn enumeration_is_deterministic_given_stack() {
        let p = profile();
        let scheme = AdversarialScheme::new(0.4, 256, &p);
        let h = stack(2, scheme.depth_bound());
        let mut rng = StdRng::seed_from_u64(3);
        let x = VectorSampler::new(&p).sample(&mut rng);
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        let s1 = enumerate_filters(&x, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut out1);
        let s2 = enumerate_filters(&x, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut out2);
        assert_eq!(out1, out2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn different_stacks_give_different_filters() {
        let p = profile();
        let scheme = AdversarialScheme::new(0.4, 256, &p);
        let h1 = stack(4, scheme.depth_bound());
        let h2 = stack(5, scheme.depth_bound());
        let mut rng = StdRng::seed_from_u64(6);
        let x = VectorSampler::new(&p).sample(&mut rng);
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        enumerate_filters(&x, &p, &scheme, &h1, DEFAULT_NODE_BUDGET, &mut out1);
        enumerate_filters(&x, &p, &scheme, &h2, DEFAULT_NODE_BUDGET, &mut out2);
        assert_ne!(out1, out2);
    }

    #[test]
    fn identical_vectors_share_all_filters() {
        // F(x) is a deterministic function of x given the stack.
        let p = profile();
        let scheme = CorrelatedScheme::new(0.6, 256, &p);
        let h = stack(7, scheme.depth_bound());
        let mut rng = StdRng::seed_from_u64(8);
        let x = VectorSampler::new(&p).sample(&mut rng);
        let y = x.clone();
        let mut fx = Vec::new();
        let mut fy = Vec::new();
        enumerate_filters(&x, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut fx);
        enumerate_filters(&y, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut fy);
        assert_eq!(fx, fy);
    }

    #[test]
    fn filters_only_use_set_dimensions() {
        // A vector disjoint from x can share no filter with it: their filter
        // sets must be disjoint (paths consist of the owner's 1-bits).
        let p = profile();
        let scheme = CorrelatedScheme::new(0.6, 256, &p);
        let h = stack(9, scheme.depth_bound());
        let a = SparseVec::from_unsorted((0..60).collect());
        let b = SparseVec::from_unsorted((60..120).collect());
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        enumerate_filters(&a, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut fa);
        enumerate_filters(&b, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut fb);
        let sa: std::collections::HashSet<_> = fa.iter().collect();
        assert!(fb.iter().all(|k| !sa.contains(k)));
        assert!(
            !fa.is_empty() && !fb.is_empty(),
            "test should be non-vacuous"
        );
    }

    #[test]
    fn cached_context_matches_direct_enumeration_across_stacks() {
        // The hoisted EnumContext must be observably identical to direct
        // enumeration under every hash stack (it is what probe reuses
        // across repetitions).
        let p = profile();
        let scheme = CorrelatedScheme::new(0.7, 256, &p);
        let mut rng = StdRng::seed_from_u64(99);
        let x = VectorSampler::new(&p).sample(&mut rng);
        let ctx = EnumContext::new(&x, &p, &scheme, scheme.depth_bound());
        assert_eq!(ctx.vector(), &x);
        for seed in 20..26 {
            let h = stack(seed, scheme.depth_bound());
            let mut direct = Vec::new();
            let mut cached = Vec::new();
            let sd = enumerate_filters(&x, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut direct);
            let sc = enumerate_filters_with(&ctx, &scheme, &h, DEFAULT_NODE_BUDGET, &mut cached);
            assert_eq!(direct, cached, "seed={seed}");
            assert_eq!(sd, sc, "seed={seed}");
        }
    }

    /// The enumeration as the recursion of §3 states it, kept as the
    /// engine's oracle: the path scan first, then the scheme's unscaled
    /// threshold and the level hash of `key.extend(i)` as a unit-interval
    /// value.
    struct Reference<'a, S> {
        x: &'a SparseVec,
        profile: &'a BernoulliProfile,
        scheme: &'a S,
        hashers: &'a PathHasherStack,
        node_budget: usize,
        out: Vec<PathKey>,
        stats: EnumStats,
    }

    fn reference_dfs<S: ThresholdScheme>(
        r: &mut Reference<'_, S>,
        key: PathKey,
        mass: f64,
        path: &mut Vec<u32>,
    ) {
        let depth = path.len();
        for &i in r.x.dims() {
            if r.stats.nodes >= r.node_budget {
                r.stats.truncated = true;
                return;
            }
            if path.contains(&i) {
                continue;
            }
            let known = (i as usize) < r.profile.d();
            let s = if known {
                r.scheme.threshold(r.x.weight(), depth, i)
            } else {
                0.0
            };
            if s <= 0.0 {
                continue;
            }
            let key2 = key.extend(i);
            if r.hashers.level(depth).unit(key2) >= s {
                continue;
            }
            r.stats.nodes += 1;
            let mass2 = mass + r.profile.log2_inv_p(i);
            if r.scheme.is_complete(mass2, depth + 1) {
                r.out.push(key2);
                r.stats.emitted += 1;
            } else if depth + 1 < r.hashers.max_depth() {
                path.push(i);
                reference_dfs(r, key2, mass2, path);
                path.pop();
                if r.stats.truncated {
                    return;
                }
            } else {
                r.stats.depth_capped = true;
            }
        }
    }

    /// `F(x)` and its statistics by the reference recursion.
    fn reference_enumerate<S: ThresholdScheme>(
        x: &SparseVec,
        profile: &BernoulliProfile,
        scheme: &S,
        hashers: &PathHasherStack,
        node_budget: usize,
    ) -> (Vec<PathKey>, EnumStats) {
        let mut r = Reference {
            x,
            profile,
            scheme,
            hashers,
            node_budget,
            out: Vec::new(),
            stats: EnumStats::default(),
        };
        reference_dfs(&mut r, PathKey::EMPTY, 0.0, &mut Vec::new());
        (r.out, r.stats)
    }

    /// Asserts the engine and the reference agree on `x`; returns the stats.
    fn assert_matches_reference<S: ThresholdScheme>(
        x: &SparseVec,
        profile: &BernoulliProfile,
        scheme: &S,
        hashers: &PathHasherStack,
        node_budget: usize,
    ) -> EnumStats {
        let mut out = Vec::new();
        let stats = enumerate_filters(x, profile, scheme, hashers, node_budget, &mut out);
        let (want, want_stats) = reference_enumerate(x, profile, scheme, hashers, node_budget);
        assert_eq!(out, want, "filters differ from the reference");
        assert_eq!(stats, want_stats, "stats differ from the reference");
        stats
    }

    #[test]
    fn engine_matches_the_reference_recursion() {
        let p = profile();
        let sampler = VectorSampler::new(&p);
        let mut rng = StdRng::seed_from_u64(40);
        let adversarial = AdversarialScheme::new(0.4, 256, &p);
        let correlated = CorrelatedScheme::new(0.7, 256, &p);
        let chosen = ChosenPathScheme::new(0.6, 0.25, 256);
        let mut emitted = 0;
        for seed in 41..45 {
            // Dims past the profile (threshold 0) ride along in one vector.
            let mut dims = sampler.sample(&mut rng).into_dims();
            dims.extend([p.d() as u32, u32::MAX]);
            for x in [sampler.sample(&mut rng), SparseVec::from_unsorted(dims)] {
                let h = stack(seed, adversarial.depth_bound());
                emitted +=
                    assert_matches_reference(&x, &p, &adversarial, &h, DEFAULT_NODE_BUDGET).emitted;
                let h = stack(seed, correlated.depth_bound());
                emitted +=
                    assert_matches_reference(&x, &p, &correlated, &h, DEFAULT_NODE_BUDGET).emitted;
                let h = stack(seed, chosen.depth_bound());
                emitted +=
                    assert_matches_reference(&x, &p, &chosen, &h, DEFAULT_NODE_BUDGET).emitted;
            }
        }
        assert!(emitted > 100, "non-vacuous: {emitted} filters compared");

        // A budget-truncated enumeration stops at the same node.
        let wide = BernoulliProfile::uniform(64, 0.45).unwrap();
        let scheme = AdversarialScheme::new(0.05, 1 << 20, &wide);
        let x = SparseVec::from_unsorted((0..64).collect());
        let h = stack(46, scheme.depth_bound());
        assert!(assert_matches_reference(&x, &wide, &scheme, &h, 100).truncated);

        // A stack shallower than the scheme's depth bound caps paths.
        let h = stack(47, 2);
        let x = sampler.sample(&mut rng);
        let capped = assert_matches_reference(&x, &p, &correlated, &h, DEFAULT_NODE_BUDGET);
        assert!(capped.depth_capped);
    }

    #[test]
    fn node_budget_truncates() {
        let p = BernoulliProfile::uniform(64, 0.45).unwrap();
        // b1 small → huge thresholds → wide tree; tiny budget must truncate.
        let scheme = AdversarialScheme::new(0.05, 1 << 20, &p);
        let h = stack(10, scheme.depth_bound());
        let x = SparseVec::from_unsorted((0..64).collect());
        let mut out = Vec::new();
        let stats = enumerate_filters(&x, &p, &scheme, &h, 100, &mut out);
        assert!(stats.truncated);
        assert!(stats.nodes <= 101);
    }

    #[test]
    fn chosen_path_emits_only_at_depth_k() {
        let p = BernoulliProfile::uniform(100, 0.3).unwrap();
        let scheme = ChosenPathScheme::new(0.8, 0.3, 64); // k = ceil(ln64/ln(1/0.3))
        let k = scheme.k();
        let h = stack(11, k);
        let x = SparseVec::from_unsorted((0..100).collect());
        let mut out = Vec::new();
        let stats = enumerate_filters(&x, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut out);
        assert_eq!(stats.emitted, out.len());
        assert!(!stats.depth_capped);
        // All emitted keys are depth-k paths; spot-check count consistency:
        // expected branching ~ |x| * 1/(b1|x|) = 1/b1 per level ⇒ ~(1/b1)^k
        // paths. Loose sanity bound only.
        assert!(out.len() < 10_000);
    }

    #[test]
    fn correlated_pair_shares_filters_far_more_than_independent() {
        // The crux of the construction: correlated pairs collide, independent
        // pairs (essentially) don't.
        let p = profile();
        let n = 512;
        let scheme = CorrelatedScheme::new(0.8, n, &p);
        let h = stack(12, scheme.depth_bound());
        let sampler = VectorSampler::new(&p);
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 60;
        let mut shared_corr = 0usize;
        let mut shared_indep = 0usize;
        for _ in 0..trials {
            let x = sampler.sample(&mut rng);
            let q = skewsearch_datagen::correlated_query(&x, &p, 0.8, &mut rng);
            let z = sampler.sample(&mut rng);
            let mut fx = Vec::new();
            let mut fq = Vec::new();
            let mut fz = Vec::new();
            enumerate_filters(&x, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut fx);
            enumerate_filters(&q, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut fq);
            enumerate_filters(&z, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut fz);
            let sx: std::collections::HashSet<_> = fx.iter().collect();
            if fq.iter().any(|k| sx.contains(k)) {
                shared_corr += 1;
            }
            if fz.iter().any(|k| sx.contains(k)) {
                shared_indep += 1;
            }
        }
        assert!(
            shared_corr > shared_indep + trials / 4,
            "corr={shared_corr} indep={shared_indep} of {trials}"
        );
    }

    #[test]
    fn mass_accumulation_matches_product_rule() {
        // Build a tiny deterministic scenario: all thresholds 1 (always
        // extend) by using b1 tiny weight... instead use a scheme wrapper.
        struct AlwaysExtend {
            log2_n: f64,
        }
        impl ThresholdScheme for AlwaysExtend {
            fn threshold(&self, _w: usize, _j: usize, _i: u32) -> f64 {
                1.0
            }
            fn is_complete(&self, mass: f64, _d: usize) -> bool {
                mass >= self.log2_n
            }
            fn depth_bound(&self) -> usize {
                8
            }
        }
        // Two dims with p = 1/4 each (2 bits of mass): n = 16 ⇒ need 4 bits
        // ⇒ exactly paths of length 2: (0,1) and (1,0).
        let p = BernoulliProfile::uniform(2, 0.25).unwrap();
        let scheme = AlwaysExtend { log2_n: 4.0 };
        let h = stack(14, 8);
        let x = SparseVec::from_unsorted(vec![0, 1]);
        let mut out = Vec::new();
        let stats = enumerate_filters(&x, &p, &scheme, &h, DEFAULT_NODE_BUDGET, &mut out);
        assert_eq!(stats.emitted, 2, "both orderings complete at depth 2");
        assert_eq!(out.len(), 2);
        assert_ne!(out[0], out[1], "order-sensitive keys");
    }

    #[test]
    fn rarer_bits_terminate_paths_earlier() {
        // With very rare dims (large mass), paths complete at depth 1;
        // with common dims they must go deeper — the skew-adaptive rule.
        struct AlwaysExtend {
            log2_n: f64,
        }
        impl ThresholdScheme for AlwaysExtend {
            fn threshold(&self, _w: usize, _j: usize, _i: u32) -> f64 {
                1.0
            }
            fn is_complete(&self, mass: f64, _d: usize) -> bool {
                mass >= self.log2_n
            }
            fn depth_bound(&self) -> usize {
                16
            }
        }
        let rare = BernoulliProfile::uniform(3, 1.0 / 1024.0).unwrap(); // 10 bits each
        let scheme = AlwaysExtend { log2_n: 10.0 };
        let h = stack(15, 16);
        let x = SparseVec::from_unsorted(vec![0, 1, 2]);
        let mut out = Vec::new();
        let stats = enumerate_filters(&x, &rare, &scheme, &h, DEFAULT_NODE_BUDGET, &mut out);
        // Each single rare dim is already a complete filter: 3 length-1 paths.
        assert_eq!(stats.emitted, 3);
        assert_eq!(stats.nodes, 3, "no deeper exploration happened");
    }
}
