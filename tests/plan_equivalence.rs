//! Pipeline semantics: for every index type, the split query path —
//! `plan_query` (stage 1: enumerate + intern) followed by
//! `probe_plan_tagged` (or its matches alone) / a first-only `probe_passes`
//! of the plan (stages 2+3: bucket probing + verification) — must answer
//! **byte-identically** to the fused `search_all_tagged` / `search_all` /
//! first-only `probe_passes` of the query, tags included.
//!
//! Deterministic tests pin the 5 index builds (`LsfIndex::with_scheme`, the
//! three schemes' aliases and MinHash); a proptest block randomizes dataset,
//! correlation target, and repetition count. Only the four LSF builds
//! derive planned plans; MinHash keeps the trait's unplanned
//! plan, which its band walk probes like the query itself. Queries carrying
//! dims outside the indexed universe (`p_i = 0`: never sampled, still
//! counted in `|q|`) must keep the same equivalence on every index type,
//! and answer only true matches. Degenerate cases ride along everywhere:
//! the empty query (a plan with all-empty key lists), the *unplanned* plan
//! (fused fallback), and plan reuse (probing must not consume the plan). A
//! final test drives plans through the sharded broadcast, which probes the
//! shards in order on the calling thread.
//!
//! A structure's planner is its stage 1 apart from the structure: for the
//! four LSF builds and a sharded deployment, `planner().plan(q)` equals
//! `plan_query(q)`, before and after mutations; every other structure has
//! no planner and plans unplanned.
//!
//! Both the per-index helper and the sharded test also pin the deadline
//! granularity of `probe_plan_tagged_deadline` with a counting expiry check:
//! a check that never fires must leave the answer untouched, the LSF family
//! must poll it at least once per repetition, and a check that fires
//! mid-probe must abort the whole probe, never return a partial list.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use skewsearch::baselines::{BruteForce, MinHashLsh, MinHashParams, PrefixFilterIndex};
use skewsearch::core::{
    AdversarialIndex, AdversarialParams, ChosenPathIndex, ChosenPathParams, CorrelatedIndex,
    CorrelatedParams, CorrelatedScheme, DeadlineExceeded, IndexOptions, LsfIndex, Match,
    ProbeControl, QueryPlan, Repetitions, SetSimilaritySearch, ShardedIndex,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::sets::SparseVec;
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: u64 = 0x91A4;
const ALPHA: f64 = 0.7;

fn fixture(n: usize, seed: u64) -> (Dataset, BernoulliProfile, Vec<SparseVec>) {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = Dataset::generate(&profile, n, &mut rng);
    let mut queries: Vec<SparseVec> = (0..20)
        .map(|t| correlated_query(ds.vector(t * 13 % n.max(1)), &profile, ALPHA, &mut rng))
        .collect();
    queries.push(SparseVec::empty()); // degenerate: empty query → empty plan
    (ds, profile, queries)
}

fn opts(reps: usize) -> IndexOptions {
    IndexOptions {
        repetitions: Repetitions::Fixed(reps),
        ..IndexOptions::default()
    }
}

/// An expiry check that counts its polls and fires from poll `fire_at` on
/// (`u64::MAX`: never). Atomic, since a probe takes the check as `Sync`.
struct CountingDeadline {
    polls: AtomicU64,
    fire_at: u64,
}

impl CountingDeadline {
    fn new(fire_at: u64) -> Self {
        Self {
            polls: AtomicU64::new(0),
            fire_at,
        }
    }

    fn expired(&self) -> bool {
        self.polls.fetch_add(1, Ordering::Relaxed) + 1 >= self.fire_at
    }

    fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }
}

/// The deadline contract at the probe's real granularity: a check that
/// never fires yields `Ok`, byte-equal to `probe_plan_tagged`, after at
/// least `min_polls` polls; a check that fires from its k-th poll on yields
/// `Err(DeadlineExceeded)` for every k up to that poll count.
fn assert_deadline_granularity<I: SetSimilaritySearch>(
    index: &I,
    plan: &QueryPlan,
    min_polls: u64,
    ctx: &str,
) {
    let never = CountingDeadline::new(u64::MAX);
    assert_eq!(
        index.probe_plan_tagged_deadline(plan, &|| never.expired()),
        Ok(index.probe_plan_tagged(plan)),
        "{ctx} never-firing deadline"
    );
    let polls = never.polls();
    assert!(
        polls >= min_polls.max(1),
        "{ctx}: deadline polled {polls} times, want at least {min_polls}"
    );
    for k in 1..=polls {
        let late = CountingDeadline::new(k);
        assert_eq!(
            index.probe_plan_tagged_deadline(plan, &|| late.expired()),
            Err(DeadlineExceeded),
            "{ctx}: deadline firing at poll {k} of {polls}"
        );
    }
}

/// The pipeline contract, entry point by entry point: planned probes, fused
/// searches, and the unplanned fallback all agree byte-for-byte. The
/// deadline-aware probe polls its check at least `min_polls` times per
/// query (the repetition count for the LSF family).
fn assert_plan_equivalent<I: SetSimilaritySearch>(
    index: &I,
    queries: &[SparseVec],
    min_polls: u64,
    label: &str,
) {
    for (i, q) in queries.iter().enumerate() {
        let ctx = format!("{label} q={i}");
        let plan = index.plan_query(q);
        assert_eq!(plan.query(), q, "{ctx}");
        match index.planner() {
            Some(planner) => assert_eq!(planner.plan(q), plan, "{ctx} planner"),
            None => assert_eq!(plan.passes(), None, "{ctx} no planner, no plan"),
        }
        assert_deadline_granularity(index, &plan, min_polls, &ctx);
        let hits: Vec<Match> = index
            .probe_plan_tagged(&plan)
            .into_iter()
            .map(|t| t.hit)
            .collect();
        assert_eq!(hits, index.search_all(q), "{ctx}");
        assert_eq!(
            index.probe_plan_tagged(&plan),
            index.search_all_tagged(q),
            "{ctx}"
        );
        assert_eq!(
            index.probe_passes(plan.query(), plan.passes(), ProbeControl::FIRST),
            index.probe_passes(q, None, ProbeControl::FIRST),
            "{ctx}"
        );
        // A plan is not consumed by probing: the second probe must agree.
        assert_eq!(
            index.probe_plan_tagged(&plan),
            index.probe_plan_tagged(&plan),
            "{ctx}"
        );
        // Unplanned plans degrade to the fused path, never to a wrong answer.
        let unplanned = QueryPlan::unplanned(q.clone());
        assert_eq!(unplanned.passes(), None, "{ctx}");
        assert_eq!(
            index.probe_plan_tagged(&unplanned),
            index.search_all_tagged(q),
            "{ctx} unplanned"
        );
    }
    // The empty query rides last in every fixture: its plan carries passes
    // but zero keys, and probing it finds nothing.
    let empty_plan = index.plan_query(queries.last().expect("fixture has queries"));
    assert!(
        empty_plan
            .passes()
            .unwrap_or_default()
            .iter()
            .all(Vec::is_empty),
        "{label} empty query plans 0 keys"
    );
    assert!(index.probe_plan_tagged(&empty_plan).is_empty(), "{label}");
}

#[test]
fn lsf_index_plan_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let index = LsfIndex::with_scheme(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(6),
        &mut rng,
    );
    assert_plan_equivalent(&index, &queries, 6, "LsfIndex");
}

#[test]
fn correlated_index_plan_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let params = CorrelatedParams::new(ALPHA).unwrap().with_options(opts(6));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    assert_plan_equivalent(&index, &queries, 6, "CorrelatedIndex");
}

#[test]
fn adversarial_index_plan_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let params = AdversarialParams::new(ALPHA / 1.3)
        .unwrap()
        .with_options(opts(6));
    let index = AdversarialIndex::build(&ds, &profile, params, &mut rng);
    assert_plan_equivalent(&index, &queries, 6, "AdversarialIndex");
}

#[test]
fn chosen_path_index_plan_equivalence() {
    let (ds, profile, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 4);
    let params = ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
        .unwrap()
        .with_options(opts(6));
    let index = ChosenPathIndex::build(&ds, &profile, params, &mut rng);
    assert_plan_equivalent(&index, &queries, 6, "ChosenPathIndex");
}

#[test]
fn minhash_plan_equivalence() {
    let (ds, _, queries) = fixture(250, SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 5);
    let params = MinHashParams::new(0.6, 0.3).unwrap();
    let index = MinHashLsh::build(&ds, params, &mut rng);
    assert_plan_equivalent(&index, &queries, 1, "MinHashLsh");
}

/// Plan equivalence on `queries`, plus soundness: every match `index`
/// returns is in the brute-force answer over `ds` at the index's threshold.
fn assert_plan_equivalent_and_sound<I: SetSimilaritySearch>(
    index: &I,
    ds: &Dataset,
    queries: &[SparseVec],
    min_polls: u64,
    label: &str,
) {
    assert_plan_equivalent(index, queries, min_polls, label);
    let brute = BruteForce::new(ds.vectors().to_vec(), index.threshold());
    for (i, q) in queries.iter().enumerate() {
        let truth = brute.search_all(q);
        for m in index.search_all(q) {
            assert!(truth.contains(&m), "{label} q={i}: {m:?} is not a match");
        }
    }
}

#[test]
fn dims_outside_the_universe_keep_plans_equivalent_and_sound() {
    let (ds, profile, queries) = fixture(250, SEED ^ 8);
    let d = profile.d() as u32;
    let extend =
        |q: &SparseVec| SparseVec::from_unsorted(q.iter().chain([d, d + 7, u32::MAX]).collect());
    // Every correlated query gains the outside dims, a query of nothing
    // else rides along, and the empty query stays last.
    let (empty, correlated) = queries.split_last().unwrap();
    let mut queries: Vec<SparseVec> = correlated.iter().chain([empty]).map(extend).collect();
    queries.push(empty.clone());
    let queries = &queries[..];
    let mut rng = StdRng::seed_from_u64(SEED ^ 9);
    let reps = 4;

    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let lsf = LsfIndex::with_scheme(
        ds.vectors().to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        opts(reps),
        &mut rng,
    );
    assert_plan_equivalent_and_sound(&lsf, &ds, queries, reps as u64, "LsfIndex");
    let correlated = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(opts(reps)),
        &mut rng,
    );
    assert_plan_equivalent_and_sound(&correlated, &ds, queries, reps as u64, "Correlated");
    let adversarial = AdversarialIndex::build(
        &ds,
        &profile,
        AdversarialParams::new(ALPHA / 1.3)
            .unwrap()
            .with_options(opts(reps)),
        &mut rng,
    );
    assert_plan_equivalent_and_sound(&adversarial, &ds, queries, reps as u64, "Adversarial");
    for q in queries {
        assert!(adversarial.predicted_rho(q).is_finite());
    }
    let chosen_path = ChosenPathIndex::build(
        &ds,
        &profile,
        ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
            .unwrap()
            .with_options(opts(reps)),
        &mut rng,
    );
    assert_plan_equivalent_and_sound(&chosen_path, &ds, queries, reps as u64, "ChosenPath");
    let minhash = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.3).unwrap(), &mut rng);
    assert_plan_equivalent_and_sound(&minhash, &ds, queries, 1, "MinHashLsh");
    let prefix = PrefixFilterIndex::build(&ds, ALPHA / 1.3);
    assert_plan_equivalent_and_sound(&prefix, &ds, queries, 1, "PrefixFilterIndex");
}

#[test]
fn empty_index_plans_and_probes_to_nothing() {
    let profile = BernoulliProfile::uniform(50, 0.2).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED ^ 6);
    let scheme = CorrelatedScheme::new(0.5, 2, &profile);
    let index: LsfIndex<CorrelatedScheme> = LsfIndex::with_scheme(
        vec![],
        profile,
        scheme,
        0.5,
        IndexOptions::default(),
        &mut rng,
    );
    let q = SparseVec::from_unsorted(vec![1, 2, 3]);
    let plan = index.plan_query(&q);
    assert_eq!(
        plan.passes().map(<[_]>::len),
        Some(index.repetition_count())
    );
    assert!(index.probe_plan_tagged(&plan).is_empty());
    assert_eq!(
        index.probe_passes(plan.query(), plan.passes(), ProbeControl::FIRST),
        Ok(vec![])
    );
}

#[test]
fn broadcast_probes_match_at_configured_worker_counts() {
    // The sharded fan-out probes one plan on every shard; results must be
    // identical to the unsharded index's.
    let (ds, profile, queries) = fixture(200, SEED ^ 7);
    let mut rng = StdRng::seed_from_u64(SEED ^ 7);
    let reps = 5;
    let params = CorrelatedParams::new(ALPHA)
        .unwrap()
        .with_options(opts(reps));
    let index = CorrelatedIndex::build(&ds, &profile, params, &mut rng);
    let sharded = ShardedIndex::build(&index, 4);
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            sharded.search_all_tagged(q),
            index.search_all_tagged(q),
            "q={i}"
        );
        // Every shard walks every repetition, polling the shared check once
        // per repetition.
        assert_deadline_granularity(
            &sharded,
            &sharded.plan_query(q),
            4 * reps as u64,
            &format!("q={i}"),
        );
    }
    assert_eq!(
        sharded.search_batch(&queries),
        queries
            .iter()
            .map(|q| index.search_all(q))
            .collect::<Vec<_>>()
    );
}

/// `planner().plan(q) == plan_query(q)` for `index`, query by query, and
/// planned whenever the structure has a planner.
fn assert_planner_plans_like_plan_query<I: SetSimilaritySearch>(
    index: &I,
    queries: &[SparseVec],
    label: &str,
) {
    let planner = index.planner().expect("the LSF family has a planner");
    for (i, q) in queries.iter().enumerate() {
        let plan = planner.plan(q);
        assert!(plan.passes().is_some(), "{label} q={i}");
        assert_eq!(plan, index.plan_query(q), "{label} q={i}");
    }
}

#[test]
fn planners_plan_like_plan_query_before_and_after_mutations() {
    let (ds, profile, queries) = fixture(200, SEED ^ 10);
    let mut rng = StdRng::seed_from_u64(SEED ^ 10);
    let reps = 4;
    let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
    let mut lsf = LsfIndex::with_scheme(
        ds.vectors()[..150].to_vec(),
        profile.clone(),
        scheme,
        ALPHA / 1.3,
        IndexOptions {
            repetitions: Repetitions::Fixed(reps),
            mutation_buffer: 7,
            ..IndexOptions::default()
        },
        &mut rng,
    );
    assert_planner_plans_like_plan_query(&lsf, &queries, "LsfIndex");
    let correlated = CorrelatedIndex::build(
        &ds,
        &profile,
        CorrelatedParams::new(ALPHA)
            .unwrap()
            .with_options(opts(reps)),
        &mut rng,
    );
    assert_planner_plans_like_plan_query(&correlated, &queries, "CorrelatedIndex");
    let adversarial = AdversarialIndex::build(
        &ds,
        &profile,
        AdversarialParams::new(ALPHA / 1.3)
            .unwrap()
            .with_options(opts(reps)),
        &mut rng,
    );
    assert_planner_plans_like_plan_query(&adversarial, &queries, "AdversarialIndex");
    let chosen_path = ChosenPathIndex::build(
        &ds,
        &profile,
        ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
            .unwrap()
            .with_options(opts(reps)),
        &mut rng,
    );
    assert_planner_plans_like_plan_query(&chosen_path, &queries, "ChosenPathIndex");

    // A 3-shard deployment plans with its first shard's planner, which is
    // the source index's own: the same plans as the unsharded index.
    let mut sharded = ShardedIndex::build(&correlated, 3);
    assert_planner_plans_like_plan_query(&sharded, &queries, "3 shards");
    let planner = sharded.planner().expect("a sharded LSF index plans");
    for q in &queries {
        assert_eq!(planner.plan(q), correlated.plan_query(q), "3 shards");
    }

    // A planner taken before mutations keeps planning exactly what the
    // mutated index plans, across inserts, removes and compactions.
    let before: Vec<QueryPlan> = queries.iter().map(|q| lsf.plan_query(q)).collect();
    let planner = lsf.planner().expect("an LSF index plans");
    for t in 150..200 {
        lsf.insert_planned(planner.plan(ds.vector(t))).unwrap();
        sharded.insert(ds.vector(t - 150).clone()).unwrap();
        if t % 3 == 0 {
            assert_eq!(lsf.remove(t - 100), Ok(true));
        }
    }
    assert!(
        lsf.compaction_count() > 0,
        "the mutations crossed a compaction"
    );
    for (q, plan) in queries.iter().zip(&before) {
        assert_eq!(&planner.plan(q), plan);
        assert_eq!(&lsf.plan_query(q), plan);
    }
    assert_planner_plans_like_plan_query(&lsf, &queries, "mutated LsfIndex");
    assert_planner_plans_like_plan_query(&sharded, &queries, "mutated 3 shards");

    // Everything else has no planner.
    let minhash = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.3).unwrap(), &mut rng);
    assert!(minhash.planner().is_none());
    assert!(BruteForce::new(ds.vectors().to_vec(), 0.5)
        .planner()
        .is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized sweep: all five index types, random dataset sizes and
    /// repetition counts — the planned path must always reproduce the fused
    /// path byte-for-byte.
    #[test]
    fn planned_equals_fused_for_all_index_types(
        seed in 0u64..1_000_000,
        reps in 2usize..7,
        n in 40usize..120,
    ) {
        let (ds, profile, queries) = fixture(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        // First nine correlated queries plus the trailing empty query.
        let queries: Vec<SparseVec> = queries[..9]
            .iter()
            .chain(queries.last())
            .cloned()
            .collect();
        let queries = &queries[..];

        let scheme = CorrelatedScheme::new(ALPHA, ds.n(), &profile);
        let lsf = LsfIndex::with_scheme(
            ds.vectors().to_vec(),
            profile.clone(),
            scheme,
            ALPHA / 1.3,
            opts(reps),
            &mut rng,
        );
        assert_plan_equivalent(&lsf, queries, reps as u64, "prop LsfIndex");

        let correlated = CorrelatedIndex::build(
            &ds,
            &profile,
            CorrelatedParams::new(ALPHA).unwrap().with_options(opts(reps)),
            &mut rng,
        );
        assert_plan_equivalent(&correlated, queries, reps as u64, "prop CorrelatedIndex");

        let adversarial = AdversarialIndex::build(
            &ds,
            &profile,
            AdversarialParams::new(ALPHA / 1.3).unwrap().with_options(opts(reps)),
            &mut rng,
        );
        assert_plan_equivalent(&adversarial, queries, reps as u64, "prop AdversarialIndex");

        let chosen_path = ChosenPathIndex::build(
            &ds,
            &profile,
            ChosenPathParams::for_correlated_model(&profile, ALPHA, 1.0 / 1.3)
                .unwrap()
                .with_options(opts(reps)),
            &mut rng,
        );
        assert_plan_equivalent(&chosen_path, queries, reps as u64, "prop ChosenPathIndex");

        let minhash = MinHashLsh::build(&ds, MinHashParams::new(0.6, 0.3).unwrap(), &mut rng);
        assert_plan_equivalent(&minhash, queries, 1, "prop MinHashLsh");
    }
}
