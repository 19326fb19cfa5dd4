//! Deterministic failure-path tests for the query service: overload is a
//! typed rejection, malformed input is a typed `4xx`, and neither ever
//! panics the server or silently drops a connection. **No sleeps anywhere**
//! — every ordering the tests depend on is pinned by explicit
//! channel/condvar handshakes through [`ServerHooks`].
//!
//! The overload scenario is fully scripted: one worker, queue capacity one.
//! The worker announces it claimed connection A (`before_handle`) and then
//! parks on a gate; the acceptor announces it enqueued connection B
//! (`on_admitted`). Only after both signals is C's connect attempted — the
//! queue is provably full, so C *must* get the typed `429` with
//! `Connection: close`. Releasing the gate lets A and B complete normally,
//! proving rejection sheds load without corrupting admitted work.

use rand::{rngs::StdRng, SeedableRng};
use skewsearch::core::{
    CorrelatedIndex, CorrelatedParams, IndexOptions, Match, MutationError, Repetitions, SetId,
    SetSimilaritySearch,
};
use skewsearch::datagen::{BernoulliProfile, Dataset};
use skewsearch::server::{
    share, ClientError, ErrorKind, QueryService, Server, ServerConfig, ServerHooks, ServiceClient,
};
use skewsearch::sets::SparseVec;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Deterministic in-memory index: every query matches every set at a fixed
/// similarity, so responses are predictable without any build RNG.
struct Toy {
    sets: Vec<Vec<u32>>,
}

impl SetSimilaritySearch for Toy {
    fn search(&self, q: &SparseVec) -> Option<Match> {
        self.search_all(q).into_iter().next()
    }
    fn search_all(&self, q: &SparseVec) -> Vec<Match> {
        self.sets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.iter().any(|d| q.contains(*d)))
            .map(|(id, _)| Match {
                id,
                similarity: 0.875,
            })
            .collect()
    }
    fn insert(&mut self, set: SparseVec) -> Result<SetId, MutationError> {
        self.sets.push(set.iter().collect());
        Ok(self.sets.len() - 1)
    }
    fn remove(&mut self, _id: SetId) -> Result<bool, MutationError> {
        Err(MutationError::Unsupported)
    }
    fn supports_mutation(&self) -> bool {
        true
    }
    fn threshold(&self) -> f64 {
        0.5
    }
    fn len(&self) -> usize {
        self.sets.len()
    }
}

fn toy_service() -> QueryService {
    QueryService::new(share(Toy {
        sets: vec![vec![1, 2], vec![7, 8]],
    }))
}

/// A gate workers park on; the test opens it to release them.
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

#[test]
fn full_admission_queue_rejects_with_typed_429_and_recovers() {
    let service = toy_service();
    let stats = service.stats();
    let gate = Arc::new(Gate::default());
    let (claimed_tx, claimed_rx) = mpsc::channel::<()>();
    let (admitted_tx, admitted_rx) = mpsc::channel::<usize>();
    let hooks = ServerHooks {
        on_admitted: Some(Arc::new(move |depth| {
            let _ = admitted_tx.send(depth);
        })),
        before_handle: Some({
            let gate = Arc::clone(&gate);
            Arc::new(move || {
                let _ = claimed_tx.send(());
                gate.wait();
            })
        }),
    };
    let server = Server::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
        hooks,
    )
    .expect("bind");
    let addr = server.local_addr();

    // A: admitted, claimed by the only worker, which now parks on the gate.
    let client_a = ServiceClient::connect(addr).expect("connect A");
    assert_eq!(admitted_rx.recv(), Ok(1), "A enters the queue");
    claimed_rx.recv().expect("worker claims A");
    // B: admitted into the (now empty) queue. The worker is parked, so B
    // stays queued and the queue is provably full.
    let client_b = ServiceClient::connect(addr).expect("connect B");
    assert_eq!(admitted_rx.recv(), Ok(1), "B fills the queue");
    // C: must be rejected in one round trip with the typed overload error.
    let mut client_c = ServiceClient::connect(addr).expect("connect C");
    let raw = client_c
        .raw_request("POST", "/search", br#"{"dims":[1]}"#)
        .expect("C reads the rejection");
    assert_eq!(raw.status, 429);
    assert!(raw.close, "rejection closes the connection");
    let body = String::from_utf8(raw.body.clone()).unwrap();
    assert!(body.contains("\"kind\":\"overloaded\""), "{body}");
    match ServiceClient::connect(addr)
        .expect("connect C2")
        .search(&[1], None)
    {
        Err(ClientError::Service(e)) => assert_eq!(e.kind, ErrorKind::Overloaded),
        other => panic!("expected typed overload, got {other:?}"),
    }

    // Release the gate: A and B complete normally — load was shed, not
    // corrupted.
    gate.open();
    for (label, mut client) in [("A", client_a), ("B", client_b)] {
        let served = client.search(&[1], None).unwrap_or_else(|e| {
            panic!("{label} after release: {e}");
        });
        assert_eq!(served.len(), 1, "{label}");
        assert_eq!(served[0].hit.id, 0, "{label}");
    }
    assert_eq!(
        skewsearch::server::ServiceStats::get(&stats.rejected_overload),
        2
    );
    drop(claimed_rx);
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_4xx_and_never_kill_the_server() {
    let server = Server::bind(
        "127.0.0.1:0",
        toy_service(),
        ServerConfig {
            max_body_bytes: 256,
            ..ServerConfig::default()
        },
        ServerHooks::default(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut client = ServiceClient::connect(addr).expect("connect");

    // Typed 4xx per failure mode, all on one keep-alive connection.
    for (body, wanted) in [
        (&b"not json"[..], 400u16),
        (br#"{"dims":"x"}"#, 400),
        (br#"{"dims":[-1]}"#, 400),
        (br#"{"dims":[1.5]}"#, 400),
        (br#"{"dims":[4294967296]}"#, 400),
        (br#"{"nope":[1]}"#, 400),
        (br#"{"dims":[1],"deadline_ms":"soon"}"#, 400),
        (br#"[1,2]"#, 400),
    ] {
        let raw = client.raw_request("POST", "/search", body).expect("search");
        assert_eq!(
            raw.status,
            wanted,
            "body {:?}",
            String::from_utf8_lossy(body)
        );
        assert!(!raw.close, "a clean 4xx keeps the connection alive");
        let text = String::from_utf8(raw.body.clone()).unwrap();
        assert!(text.contains("\"kind\":\"bad-request\""), "{text}");
    }
    let raw = client.raw_request("PUT", "/search", b"{}").expect("put");
    assert_eq!(raw.status, 405);
    let raw = client.raw_request("GET", "/nothing", b"").expect("get");
    assert_eq!(raw.status, 404);
    // /remove against an index whose remove() is unsupported → typed 409.
    let raw = client
        .raw_request("POST", "/remove", br#"{"id":0}"#)
        .expect("remove");
    assert_eq!(raw.status, 409);
    assert!(String::from_utf8(raw.body.clone())
        .unwrap()
        .contains("\"kind\":\"read-only\""));

    // Oversized body: typed 400, connection closed (framing is gone)...
    let big = format!(r#"{{"dims":[{}]}}"#, vec!["1"; 300].join(","));
    let raw = client
        .raw_request("POST", "/search", big.as_bytes())
        .expect("oversized");
    assert_eq!(raw.status, 400);
    assert!(raw.close);
    // ...and the *server* survives: the same client transparently
    // reconnects and gets served.
    let served = client.search(&[7], None).expect("after oversize");
    assert_eq!(served[0].hit.id, 1);

    // Raw protocol garbage (not even an HTTP request line) → typed 400.
    {
        use std::io::{Read, Write};
        let mut sock = std::net::TcpStream::connect(addr).expect("raw connect");
        sock.write_all(b"quack\r\n\r\n").expect("write garbage");
        let mut response = String::new();
        sock.read_to_string(&mut response).expect("read rejection");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
    }
    // The server is still healthy afterwards.
    let health = client.healthz().expect("healthz");
    assert_eq!(
        health.get("ok").and_then(skewsearch::server::Json::as_bool),
        Some(true)
    );
    drop(client);
    server.shutdown();
}

#[test]
fn dims_outside_the_universe_are_served_and_never_kill_a_worker() {
    // A dim past the index's universe has p_i = 0: a request holding one is
    // valid. With a single worker, a panic on it would close the connection
    // and leave nothing to answer the next request.
    let profile = BernoulliProfile::two_block(1000, 0.2, 0.02).unwrap();
    let mut rng = StdRng::seed_from_u64(0x0D1);
    let data = Dataset::generate(&profile, 150, &mut rng);
    let options = IndexOptions {
        repetitions: Repetitions::Fixed(4),
        ..IndexOptions::default()
    };
    let params = CorrelatedParams::new(0.8).unwrap().with_options(options);
    let index = CorrelatedIndex::build(&data, &profile, params, &mut rng);
    let queries: [Vec<u32>; 2] = [
        data.vector(3)
            .iter()
            .chain([1000, 5000, u32::MAX])
            .collect(),
        vec![3, 5000],
    ];
    let expected: Vec<_> = queries
        .iter()
        .map(|q| index.search_all_tagged(&SparseVec::from_unsorted(q.clone())))
        .collect();
    let server = Server::bind(
        "127.0.0.1:0",
        QueryService::new(share(index)),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        ServerHooks::default(),
    )
    .expect("bind");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    for (q, expected) in queries.iter().zip(expected) {
        assert_eq!(client.search(q, None).expect("search"), expected);
    }
    assert_eq!(client.insert(&[3, 5000, u32::MAX]).expect("insert"), 150);
    let health = client.healthz().expect("healthz");
    assert_eq!(
        health.get("ok").and_then(skewsearch::server::Json::as_bool),
        Some(true)
    );
    drop(client);
    server.shutdown();
}

#[test]
fn stats_histogram_is_live_and_monotone() {
    let server = Server::bind(
        "127.0.0.1:0",
        toy_service(),
        ServerConfig::default(),
        ServerHooks::default(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut client = ServiceClient::connect(addr).expect("connect");

    let count_of = |stats: &skewsearch::server::Json| {
        stats
            .get("latency")
            .and_then(|l| l.get("count"))
            .and_then(skewsearch::server::Json::as_u64)
            .expect("latency.count")
    };
    let before = client.stats().expect("stats");
    assert_eq!(count_of(&before), 0, "fresh server has an empty histogram");
    let n = 5;
    for _ in 0..n {
        client.search(&[1], None).expect("search");
    }
    let after = client.stats().expect("stats");
    assert_eq!(count_of(&after), n, "every search is recorded");
    assert!(
        after
            .get("latency")
            .and_then(|l| l.get("p99_ns"))
            .and_then(skewsearch::server::Json::as_u64)
            .expect("p99")
            > 0,
        "quantiles come from real recordings"
    );
    assert_eq!(
        after
            .get("requests")
            .and_then(|r| r.get("search"))
            .and_then(skewsearch::server::Json::as_u64),
        Some(n)
    );
    drop(client);
    server.shutdown();
}
