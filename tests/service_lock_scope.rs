//! The service plans outside its index lock, pinned with handshakes and the
//! process-global enumeration counter — **no sleeps**. While a `/search`
//! is parked in its probe holding the read lock, a concurrent `/insert`
//! still finishes planning; while that insert is parked holding the write
//! lock, a concurrent `/search` still finishes planning, and
//! `enumeration_count()` has counted its `R` enumerations before the insert
//! is released. Only the stage under the lock waits, so each answer shows
//! exactly the mutations that completed before it probed.
//!
//! The served index is a real `CorrelatedIndex` behind a thin wrapper with
//! three hooks: its planner reports each finished plan, its probe (run
//! under the read lock) reports and parks on one gate, and its
//! `insert_planned` (run under the write lock) reports and parks on
//! another. The test opens each gate once.
//!
//! The counter is process-global, so this binary holds one test function
//! (the discipline of `tests/enumeration_count.rs`).

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::core::{
    enumeration_count, CorrelatedIndex, CorrelatedParams, DeadlineExceeded, IndexOptions, Match,
    MutationError, ProbeControl, QueryPlan, QueryPlanner, Repetitions, SetId, SetSimilaritySearch,
    TaggedMatch,
};
use skewsearch::datagen::{correlated_query, BernoulliProfile, Dataset};
use skewsearch::server::{share, QueryService, Server, ServerConfig, ServerHooks, ServiceClient};
use skewsearch::sets::SparseVec;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const REPS: usize = 5;
/// How long a handshake may take before the test fails instead of hanging;
/// a correct service answers each one at once.
const HANDSHAKE: Duration = Duration::from_secs(60);

/// A gate the parked insert waits on; the test opens it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    signal: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.signal.wait(open).unwrap();
        }
    }
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.signal.notify_all();
    }
}

/// A planner that reports each plan it finishes.
struct Reporting {
    inner: Arc<dyn QueryPlanner>,
    planned: Sender<()>,
}

impl QueryPlanner for Reporting {
    fn plan(&self, q: &SparseVec) -> QueryPlan {
        let plan = self.inner.plan(q);
        self.planned.send(()).unwrap();
        plan
    }
}

/// The served index: a `CorrelatedIndex` whose probe and planned insert
/// report that they hold their lock and park until their gate opens.
struct Parked {
    inner: CorrelatedIndex,
    planned: Sender<()>,
    probing: Sender<()>,
    probe_gate: Arc<Gate>,
    inserting: Sender<()>,
    insert_gate: Arc<Gate>,
}

impl SetSimilaritySearch for Parked {
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.inner.search_all(q)
    }
    fn probe_passes(
        &self,
        q: &SparseVec,
        planned: Option<&[Vec<u64>]>,
        ctl: ProbeControl<'_>,
    ) -> Result<Vec<TaggedMatch>, DeadlineExceeded> {
        self.probing.send(()).unwrap();
        self.probe_gate.wait();
        self.inner.probe_passes(q, planned, ctl)
    }
    fn planner(&self) -> Option<Arc<dyn QueryPlanner>> {
        Some(Arc::new(Reporting {
            inner: self.inner.planner()?,
            planned: self.planned.clone(),
        }))
    }
    fn insert(&mut self, set: SparseVec) -> Result<SetId, MutationError> {
        self.inner.insert(set)
    }
    fn insert_planned(&mut self, plan: QueryPlan) -> Result<SetId, MutationError> {
        self.inserting.send(()).unwrap();
        self.insert_gate.wait();
        self.inner.insert_planned(plan)
    }
    fn supports_mutation(&self) -> bool {
        true
    }
    fn threshold(&self) -> f64 {
        self.inner.threshold()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

fn build(ds: &Dataset, profile: &BernoulliProfile) -> CorrelatedIndex {
    let params = CorrelatedParams::new(0.7)
        .unwrap()
        .with_options(IndexOptions {
            repetitions: Repetitions::Fixed(REPS),
            ..IndexOptions::default()
        });
    CorrelatedIndex::build(ds, profile, params, &mut StdRng::seed_from_u64(0x10C4))
}

fn handshake(rx: &Receiver<()>, what: &str) {
    rx.recv_timeout(HANDSHAKE)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

fn dims(v: &SparseVec) -> Vec<u32> {
    v.iter().collect()
}

#[test]
fn searches_and_inserts_plan_while_the_other_holds_the_lock() {
    let profile = BernoulliProfile::blocks(&[(60, 0.2), (900, 0.01)]).unwrap();
    let ds = Dataset::generate(&profile, 160, &mut StdRng::seed_from_u64(0x10C3));
    let (served, mut twin) = (build(&ds, &profile), build(&ds, &profile));
    let fresh = ds.vector(7).clone();
    let q = correlated_query(&fresh, &profile, 0.7, &mut StdRng::seed_from_u64(0x10C5));
    let before = twin.search_all_tagged(&q);
    assert_eq!(twin.insert(fresh.clone()), Ok(ds.n()));
    let after = twin.search_all_tagged(&q);
    assert!(
        after.iter().any(|m| m.hit.id == ds.n()) && before != after,
        "the query finds the inserted set"
    );

    let (planned_tx, planned) = mpsc::channel();
    let (probing_tx, probing) = mpsc::channel();
    let (inserting_tx, inserting) = mpsc::channel();
    let (probe_gate, insert_gate) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
    let service = QueryService::new(share(Parked {
        inner: served,
        planned: planned_tx,
        probing: probing_tx,
        probe_gate: Arc::clone(&probe_gate),
        inserting: inserting_tx,
        insert_gate: Arc::clone(&insert_gate),
    }));
    let server = Server::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
        ServerHooks::default(),
    )
    .expect("bind");
    let client = || ServiceClient::connect(server.local_addr()).expect("connect");
    let (mut first, mut writer, mut second) = (client(), client(), client());
    let start = enumeration_count();
    let enumerated = || enumeration_count() - start;

    // A search plans, takes the read lock and parks in its probe.
    let (q_dims, insert_dims) = (dims(&q), dims(&fresh));
    let first_search = std::thread::spawn(move || first.search(&q_dims, None));
    handshake(&planned, "the first search plans");
    handshake(&probing, "the first search probes under the read lock");
    assert_eq!(enumerated(), REPS as u64);

    // While it holds the read lock, an insert plans all its repetitions,
    // and only then waits for the write lock.
    let insert = std::thread::spawn(move || writer.insert(&insert_dims));
    handshake(&planned, "the insert plans while a search holds the lock");
    assert_eq!(enumerated(), 2 * REPS as u64, "the insert's R, unlocked");
    assert_eq!(inserting.try_recv(), Err(TryRecvError::Empty));

    // Released, the search answers without the insert, which then takes
    // the write lock and parks.
    probe_gate.open();
    let answer = first_search.join().unwrap().expect("first search");
    assert_eq!(answer, before, "the first search probed before the insert");
    handshake(&inserting, "the insert parks under the write lock");

    // While it holds the write lock, a second search plans all its
    // repetitions: its R enumerations are counted before the insert is
    // released, and only its probe waits for the lock.
    let (done_tx, done) = mpsc::channel();
    let q_dims = dims(&q);
    let second_search = std::thread::spawn(move || {
        let answer = second.search(&q_dims, None);
        done_tx.send(()).unwrap();
        answer
    });
    handshake(
        &planned,
        "the second search plans while an insert holds the lock",
    );
    assert_eq!(enumerated(), 3 * REPS as u64, "the search's R, unlocked");
    assert_eq!(done.try_recv(), Err(TryRecvError::Empty));

    insert_gate.open();
    assert_eq!(insert.join().unwrap().expect("served insert"), ds.n());
    handshake(&probing, "the second search probes after the insert");
    let answer = second_search.join().unwrap().expect("second search");
    assert_eq!(answer, after, "the second search probed after the insert");
    assert_eq!(
        enumerated(),
        3 * REPS as u64,
        "nothing enumerates under a lock"
    );
    server.shutdown();
}
