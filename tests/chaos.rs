//! Chaos suite: drives every named failpoint (`--features fault-injection`)
//! under multi-threaded load and checks the fault-tolerance contract:
//!
//! * faults surface as **typed errors** (or graceful fallbacks), never as
//!   hangs — every scenario runs under a watchdog;
//! * panics are **isolated** where the contract promises it (batch
//!   workers, serve workers and acceptor) — pools survive, callers get
//!   `StucError::Internal` / typed `500`s;
//! * caches are never **torn** — once a fault clears, the same engine
//!   returns bit-exact answers, equal to a fresh engine's;
//! * deadlines stay **typed and selective** — an expensive goal under a
//!   tight deadline times out with a `504` while concurrent cheap goals
//!   keep answering exactly.
//!
//! The failpoint registry is process-global, so scenarios serialize on one
//! mutex; the 8-thread load lives *inside* each scenario. CI runs this file
//! with `--features fault-injection --release -- --test-threads=8`, where
//! the lock keeps armed faults from bleeding across tests.

#![cfg(feature = "fault-injection")]

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;
use stuc::core::workloads;
use stuc::data::tid::TidInstance;
use stuc::fault::failpoint::{self, FailAction};
use stuc::query::cq::ConjunctiveQuery;
use stuc::serve::{ServeConfig, Server, ServiceState};
use stuc::{Engine, EvalBudget, StucError};

const THREADS: usize = 8;

/// Serializes scenarios: armed failpoints are process-global state.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` on a helper thread and panics if it does not finish in
/// `limit` — the suite's "no hangs" oracle.
fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(_) => panic!("chaos scenario {what:?} hung past {limit:?}"),
    }
}

fn workload() -> (TidInstance, ConjunctiveQuery) {
    let tid = workloads::path_tid(10, 0.5, 23);
    // Self-join: routes to the circuit back-end, so decomposition, plan
    // build, sweeps and both caches are all on the evaluation path.
    let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    (tid, chain)
}

/// The oracle answer for the workload, from a fresh, unfaulted engine.
fn oracle() -> f64 {
    let (tid, chain) = workload();
    Engine::new().evaluate(&tid, &chain).unwrap().probability
}

/// Drives `rounds × THREADS` evaluations of the workload on one shared
/// engine from 8 OS threads through `evaluate_batch` (the panic-isolated
/// entry point; batches dedup, so each thread submits singletons) and
/// returns the per-query results.
fn batch_under_load(engine: &Engine, rounds: usize) -> Vec<Result<f64, String>> {
    let (tid, chain) = workload();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (tid, chain) = (&tid, &chain);
                scope.spawn(move || {
                    let mut outcomes = Vec::with_capacity(rounds);
                    for _ in 0..rounds {
                        let batch = engine.evaluate_batch(tid, std::slice::from_ref(chain));
                        for report in batch.reports {
                            outcomes
                                .push(report.map(|ok| ok.probability).map_err(|e| e.to_string()));
                        }
                    }
                    outcomes
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("load thread panicked"))
            .collect()
    })
}

/// The core chaos template for engine-side failpoints: arm `name` with
/// `action`, hammer a shared engine from 8 batch workers, assert every
/// outcome is a value or a *typed* error (the watchdog catches hangs),
/// then disarm and require bit-exact recovery on the *same* engine.
fn engine_scenario(name: &str, action: FailAction, expect_in_error: &[&str]) {
    let _serial = chaos_lock();
    let expected = oracle();
    let engine = Arc::new(Engine::new());
    let hits_before = failpoint::hits(name);
    {
        let _armed = failpoint::arm_guard(name, action);
        let under_fault = {
            let engine = Arc::clone(&engine);
            with_watchdog(Duration::from_secs(60), name, move || {
                batch_under_load(&engine, 4)
            })
        };
        for outcome in &under_fault {
            match outcome {
                // Sleep faults (and races that dodge the failpoint) still
                // produce the exact answer.
                Ok(p) => assert_eq!(p.to_bits(), expected.to_bits(), "wrong answer under fault"),
                Err(message) => {
                    assert!(
                        expect_in_error.iter().any(|s| message.contains(s)),
                        "failpoint {name}: error {message:?} does not look injected \
                         (expected one of {expect_in_error:?})"
                    );
                }
            }
        }
    }
    assert!(
        failpoint::hits(name) > hits_before,
        "failpoint {name} was never reached by the workload"
    );
    // Fault cleared: the same engine (whatever its caches now hold) must
    // answer bit-exactly — no torn cache state survives.
    let recovered = with_watchdog(Duration::from_secs(60), name, {
        let engine = Arc::clone(&engine);
        move || batch_under_load(&engine, 2)
    });
    for outcome in recovered {
        assert_eq!(
            outcome
                .expect("typed errors must stop once the fault clears")
                .to_bits(),
            expected.to_bits(),
            "answers must be bit-exact after the fault clears"
        );
    }
}

#[test]
fn decomposition_failpoint_panics_are_isolated_and_recover() {
    engine_scenario(
        "graph-decompose",
        FailAction::Panic,
        &["panic", "failpoint"],
    );
}

#[test]
fn plan_build_failpoint_errors_are_typed_and_recover() {
    engine_scenario(
        "circuit-plan-build",
        FailAction::Error("plan build chaos".into()),
        &["injected fault"],
    );
}

#[test]
fn plan_build_failpoint_panics_are_isolated() {
    engine_scenario(
        "circuit-plan-build",
        FailAction::Panic,
        &["panic", "failpoint"],
    );
}

#[test]
fn sweep_failpoint_errors_are_typed_and_recover() {
    engine_scenario(
        "circuit-sweep",
        FailAction::Error("sweep chaos".into()),
        &["injected fault"],
    );
}

#[test]
fn sweep_failpoint_sleep_slows_but_stays_exact() {
    engine_scenario("circuit-sweep", FailAction::SleepMs(5), &[]);
}

#[test]
fn lineage_compile_failpoint_errors_are_typed_and_recover() {
    engine_scenario(
        "lineage-compile",
        FailAction::Error("compile chaos".into()),
        &["injected fault"],
    );
}

#[test]
fn cache_publish_failpoint_panics_never_tear_the_cache() {
    engine_scenario("cache-publish", FailAction::Panic, &["panic", "failpoint"]);
}

#[test]
fn cache_evict_failpoint_sleep_keeps_answers_exact() {
    // Eviction needs a capacity the workload can exceed; the default
    // engine rarely evicts, so drive it with a tiny lineage cache.
    let _serial = chaos_lock();
    let expected = oracle();
    let engine = Engine::builder().cache_capacity(1).build();
    let _armed = failpoint::arm_guard("cache-evict", FailAction::SleepMs(1));
    let (tid, chain) = workload();
    let chain3 = ConjunctiveQuery::parse("R(x, y), R(y, z), R(z, w)").unwrap();
    for _ in 0..4 {
        // Two distinct lineages through a capacity-1 cache force evictions.
        let got = engine.evaluate(&tid, &chain).unwrap().probability;
        assert_eq!(got.to_bits(), expected.to_bits());
        engine.evaluate(&tid, &chain3).unwrap();
    }
}

/// A fault during decomposition *repair* must degrade to the fallback
/// full rebuild — the update succeeds and answers stay exact.
#[test]
fn repair_failpoint_degrades_to_full_rebuild() {
    let _serial = chaos_lock();
    let _armed = failpoint::arm_guard("graph-repair", FailAction::Error("repair chaos".into()));
    let (mut tid, chain) = workload();
    let engine = Engine::new();
    let before = engine.evaluate(&tid, &chain).unwrap().probability;
    assert!(before > 0.0);
    let delta = stuc::Delta::new().insert("R", &["v3", "v0"], 0.5);
    engine
        .apply_update(&mut tid, &delta)
        .expect("a repair fault must fall back to rebuild, not fail the update");
    let after = engine.evaluate(&tid, &chain).unwrap().probability;
    let fresh = Engine::new().evaluate(&tid, &chain).unwrap().probability;
    assert_eq!(
        after.to_bits(),
        fresh.to_bits(),
        "post-update answers must match a fresh engine bit-exactly"
    );
}

/// A compile fault while an update compacts a patched lineage in place
/// drops that lineage for a lazy rebuild; the update itself succeeds and
/// answers stay exact.
#[test]
fn compile_failpoint_during_compaction_drops_the_lineage() {
    let _serial = chaos_lock();
    let (mut tid, chain) = workload();
    let engine = Engine::new();
    engine.evaluate(&tid, &chain).unwrap();
    // A new match at the path's middle outgrows the lineage's sweep.
    let delta = stuc::Delta::new().insert("R", &["c4", "branch"], 0.5);
    let report = {
        let _armed = failpoint::arm_guard(
            "lineage-compile",
            FailAction::Error("compaction chaos".into()),
        );
        engine
            .apply_update(&mut tid, &delta)
            .expect("a failed compaction must drop the lineage, not fail the update")
    };
    assert_eq!(report.lineages_dropped, 1, "{:?}", report.notes);
    assert!(report.fell_back);
    assert!(
        report.notes.iter().any(|n| n.contains("compaction failed")),
        "{:?}",
        report.notes
    );
    let after = engine.evaluate(&tid, &chain).unwrap();
    assert!(!after.lineage_cached, "the dropped lineage rebuilds lazily");
    let fresh = Engine::new().evaluate(&tid, &chain).unwrap().probability;
    assert!((after.probability - fresh).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Serve-side chaos
// ---------------------------------------------------------------------------

const PROGRAM: &str = "\
0.9 :: Train(\"paris\", \"lyon\").\n\
0.8 :: Train(\"lyon\", \"nice\").\n\
Hop(x, y) :- Train(x, y).\n";

fn exchange(addr: SocketAddr, payload: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn post_query(addr: SocketAddr, path: &str, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ),
    )
}

fn spawn_server(config: ServeConfig) -> Server {
    let state = ServiceState::from_program(Engine::new(), PROGRAM).unwrap();
    Server::spawn(config, state).unwrap()
}

/// Serve-side template: arm a failpoint, fire 8 concurrent clients, and
/// require every client to get *some* complete answer (degraded is fine,
/// hung or empty is not — except for write faults, where the response
/// itself is the casualty and an empty reply is the accepted outcome).
fn serve_scenario(name: &str, action: FailAction, empty_ok: bool) {
    let _serial = chaos_lock();
    let server = spawn_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let hits_before = failpoint::hits(name);
    {
        let _armed = failpoint::arm_guard(name, action);
        let owned_name = name.to_string();
        with_watchdog(Duration::from_secs(60), name, move || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| scope.spawn(move || post_query(addr, "/query", "?- Train(x, y).")))
                    .collect();
                for handle in handles {
                    let response = handle.join().expect("chaos client panicked");
                    if response.is_empty() {
                        assert!(
                            empty_ok,
                            "failpoint {owned_name}: client got an empty reply"
                        );
                        continue;
                    }
                    assert!(
                        response.contains("HTTP/1.1"),
                        "failpoint {owned_name}: malformed reply {response:?}"
                    );
                }
            });
        });
    }
    assert!(
        failpoint::hits(name) > hits_before,
        "failpoint {name} was never reached by the clients"
    );
    // Fault cleared: the pool survived and answers are exact again.
    let healthy = post_query(addr, "/query", "?- Train(x, y).");
    assert!(healthy.contains("\"probability\":0.980000000"), "{healthy}");
    server.shutdown();
}

#[test]
fn serve_read_faults_become_typed_408s_and_the_pool_survives() {
    serve_scenario("serve-read", FailAction::Error("read chaos".into()), false);
}

#[test]
fn serve_read_panics_become_typed_500s_and_the_pool_survives() {
    serve_scenario("serve-read", FailAction::Panic, false);
}

#[test]
fn serve_write_panics_cost_one_response_never_the_worker() {
    serve_scenario("serve-write", FailAction::Panic, true);
}

#[test]
fn serve_accept_panics_drop_connections_never_the_acceptor() {
    // A panic on the accept path loses that connection (client sees EOF);
    // the acceptor itself must survive to serve the post-fault probe.
    serve_scenario("serve-accept", FailAction::Panic, true);
}

#[test]
fn serve_accept_sleep_delays_but_answers_exactly() {
    serve_scenario("serve-accept", FailAction::SleepMs(10), false);
}

/// The acceptance scenario: an expensive goal under a 100 ms deadline gets
/// a typed timeout while concurrent cheap goals answer bit-exactly. The
/// expensive goal is made reliably slow with a sleeping sweep failpoint —
/// wall-clock heavy, CPU-light, deterministic.
#[test]
fn tight_deadlines_time_out_expensive_goals_while_cheap_ones_answer() {
    let _serial = chaos_lock();
    let server = spawn_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    // Warm nothing: the circuit goal sweeps (and thus sleeps) on every
    // evaluation of a *fresh* lineage; cheap safe-plan goals never sweep.
    let _armed = failpoint::arm_guard("circuit-sweep", FailAction::SleepMs(400));
    let outcomes = with_watchdog(Duration::from_secs(60), "deadline-vs-cheap", move || {
        std::thread::scope(|scope| {
            let slow = scope.spawn(move || {
                post_query(addr, "/query?deadline_ms=100", "?- Hop(x, y), Hop(y, z).")
            });
            let cheap: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || post_query(addr, "/query", "?- Train(x, y).")))
                .collect();
            (
                slow.join().unwrap(),
                cheap
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>(),
            )
        })
    });
    let (slow, cheap) = outcomes;
    assert!(slow.contains("504 Gateway Timeout"), "{slow}");
    assert!(slow.contains("\"kind\":\"deadline\""), "{slow}");
    for response in cheap {
        assert!(
            response.contains("\"probability\":0.980000000"),
            "cheap goals must answer exactly under a neighbour's deadline: {response}"
        );
    }
    server.shutdown();
}

/// Budgets also trip on explicit cancellation, reported as `Cancelled`
/// (not `DeadlineExceeded`) — checked engine-side, under load.
#[test]
fn cancellation_surfaces_as_a_typed_error_under_load() {
    let _serial = chaos_lock();
    let (tid, chain) = workload();
    let engine = Engine::new();
    let handle = stuc::CancelHandle::new();
    handle.cancel();
    let budget = EvalBudget::unlimited().cancelled_by(&handle);
    match engine.evaluate_with_budget(&tid, &chain, &budget) {
        Err(StucError::Cancelled { stage }) => assert!(!stage.is_empty()),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The cancel flag is per-budget: the same engine answers without it.
    let expected = oracle();
    let got = engine.evaluate(&tid, &chain).unwrap().probability;
    assert_eq!(got.to_bits(), expected.to_bits());
}
