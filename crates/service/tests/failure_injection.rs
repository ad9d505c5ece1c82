//! Service-layer failure injection: malformed client input, capacity
//! exhaustion, and lifecycle edges must degrade *gracefully* — errors for
//! the offending request, correct service for everyone else, and never a
//! panic or a silently wrong ranking.

use hnd_service::{
    EngineOpts, RankingEngine, ResponseError, ServerError, ServerOpts, SessionManager,
    SessionServer, SessionStore, SolverKind, SolverOpts, StoreOpts,
};
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "hnd-failure-injection-{}-{tag}-{k}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn opts() -> EngineOpts {
    EngineOpts {
        solver: SolverKind::Power,
        solver_opts: SolverOpts {
            orient: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// An ability staircase with a couple of dissenting answers — a
/// well-conditioned instance whose ranking is stable under small edits.
fn staircase(m: usize, n: usize) -> Vec<(usize, usize, Option<u16>)> {
    (0..m)
        .flat_map(|j| (0..n).map(move |i| (j, i, Some(u16::from(j * n > i * m)))))
        .collect()
}

/// Orders agree up to the C1P reversal symmetry.
fn orders_agree(a: &[usize], b: &[usize]) -> bool {
    let rev: Vec<usize> = b.iter().rev().copied().collect();
    a == b || a == rev
}

#[test]
fn out_of_bounds_submit_mid_stream_keeps_previous_version_serving() {
    let mut engine = RankingEngine::new(8, 6, &[2; 6], opts()).unwrap();
    engine.submit_responses(staircase(8, 6)).unwrap();
    engine.current_ranking().unwrap();

    // A malformed batch: one valid edit, then an out-of-roster user. The
    // valid prefix commits (documented non-atomicity), the bad tuple is
    // rejected, and nothing panics.
    let before_version = engine.version();
    let err = engine
        .submit_responses([(0, 0, Some(1)), (99, 0, Some(0)), (1, 1, Some(1))])
        .unwrap_err();
    assert!(matches!(
        err,
        ResponseError::IndexOutOfBounds { user: 99, .. }
    ));
    assert_eq!(engine.version(), before_version + 1, "prefix committed");

    // The engine serves exactly the state an engine fed only the committed
    // prefix would serve — bitwise: the replica replays the identical
    // schedule (bulk, solve, prefix, solve), so both take the same
    // delta+warm path from the same cached state.
    let served = engine.current_ranking().unwrap();
    let mut replica = RankingEngine::new(8, 6, &[2; 6], opts()).unwrap();
    replica.submit_responses(staircase(8, 6)).unwrap();
    replica.current_ranking().unwrap();
    replica.submit_responses([(0, 0, Some(1))]).unwrap();
    assert_eq!(served.scores, replica.current_ranking().unwrap().scores);

    // Out-of-range options are caught by the log the same way.
    let err = engine
        .submit_responses([(2, 2, Some(7)), (3, 3, Some(0))])
        .unwrap_err();
    assert!(matches!(err, ResponseError::OptionOutOfRange { .. }));

    // …and the stream continues: later valid batches serve normally.
    engine.submit_responses([(3, 3, Some(1))]).unwrap();
    assert_eq!(engine.current_ranking().unwrap().len(), 8);
}

#[test]
fn out_of_bounds_submit_through_the_server_poisons_nothing() {
    let srv = SessionServer::new(ServerOpts {
        workers: 2,
        engine: opts(),
        ..Default::default()
    });
    let healthy = srv.create_session(6, 5, &[2; 5]).unwrap();
    let faulty = srv.create_session(6, 5, &[2; 5]).unwrap();
    srv.submit(healthy, staircase(6, 5)).wait().unwrap();
    srv.submit(faulty, staircase(6, 5)).wait().unwrap();

    let err = srv
        .submit(faulty, vec![(100, 0, Some(0))])
        .wait()
        .unwrap_err();
    assert!(matches!(
        err,
        ServerError::Response(ResponseError::IndexOutOfBounds { user: 100, .. })
    ));

    // The faulty session still serves, the healthy one never noticed, and
    // the worker that processed the bad batch is alive for both.
    assert_eq!(srv.ranking(faulty).wait().unwrap().len(), 6);
    assert_eq!(srv.ranking(healthy).wait().unwrap().len(), 6);
}

#[test]
fn slack_exhaustion_surfaces_as_rebuild_stats_not_errors() {
    let srv = SessionServer::new(ServerOpts {
        workers: 2,
        engine: EngineOpts {
            row_slack: 0,
            col_slack: 0,
            ..opts()
        },
        ..Default::default()
    });
    let id = srv.create_session(8, 6, &[2; 6]).unwrap();
    srv.submit(id, staircase(8, 6)).wait().unwrap();
    srv.ranking(id).wait().unwrap();
    let baseline = srv.stats(id).wait().unwrap();

    // Zero slack: every new answer overflows its row/column span. The
    // client sees successful rankings; the overflow shows up only as
    // rebuild counters in EngineStats.
    srv.submit(id, vec![(0, 5, Some(1))]).wait().unwrap();
    let r1 = srv.ranking(id).wait().unwrap();
    assert_eq!(r1.len(), 8);
    let stats = srv.stats(id).wait().unwrap();
    assert!(
        stats.rebuilds > baseline.rebuilds,
        "exhaustion must be observable: {stats:?} vs baseline {baseline:?}"
    );

    // A generously-slacked replica at the same state agrees on the order.
    let mut replica = RankingEngine::new(8, 6, &[2; 6], opts()).unwrap();
    replica.submit_responses(staircase(8, 6)).unwrap();
    replica.submit_responses([(0, 5, Some(1))]).unwrap();
    let expected = replica.current_ranking().unwrap();
    assert!(orders_agree(
        &r1.order_best_to_worst(),
        &expected.order_best_to_worst()
    ));
}

#[test]
fn evicted_then_touched_session_matches_never_evicted_one() {
    let mut fleet = SessionManager::new(opts());
    fleet.set_idle_threshold(Some(6));
    let victim = fleet.create_session(9, 7, &[2; 7]).unwrap();
    let busy = fleet.create_session(9, 7, &[2; 7]).unwrap();
    fleet.submit_responses(victim, staircase(9, 7)).unwrap();
    fleet.submit_responses(busy, staircase(9, 7)).unwrap();
    fleet.current_ranking(victim).unwrap();

    // A control fleet with eviction disabled, fed the identical schedule.
    let mut control = SessionManager::new(opts());
    let c_victim = control.create_session(9, 7, &[2; 7]).unwrap();
    let c_busy = control.create_session(9, 7, &[2; 7]).unwrap();
    control.submit_responses(c_victim, staircase(9, 7)).unwrap();
    control.submit_responses(c_busy, staircase(9, 7)).unwrap();
    control.current_ranking(c_victim).unwrap();

    // Busy traffic pushes the victim over the idle threshold.
    for round in 0..8u16 {
        let batch = [(0usize, 0usize, Some(round % 2))];
        fleet.submit_responses(busy, batch).unwrap();
        control.submit_responses(c_busy, batch).unwrap();
    }
    assert!(fleet.is_evicted(victim));
    assert!(!control.is_evicted(c_victim));
    assert_eq!(fleet.stats().evictions, 1);

    // Touch = rehydration; the ranking must match the never-evicted twin.
    let rehydrated = fleet.current_ranking(victim).unwrap();
    assert_eq!(fleet.stats().rehydrations, 1);
    let never_evicted = control.current_ranking(c_victim).unwrap();
    assert!(
        orders_agree(
            &rehydrated.order_best_to_worst(),
            &never_evicted.order_best_to_worst()
        ),
        "eviction must be invisible in served rankings"
    );

    // Stronger: the rehydrated solve is *bitwise* the solve of a fresh
    // engine over the same durable log (the log is the complete state).
    let fresh = RankingEngine::from_log(fleet.session_log(victim).unwrap(), opts())
        .unwrap()
        .current_ranking()
        .unwrap();
    assert_eq!(rehydrated.scores, fresh.scores);

    // And the session is warm again afterwards: the next trickle (a real
    // state change: (1, 0) holds Some(1) in this staircase) takes the
    // delta+warm path, not another cold rebuild.
    fleet.submit_responses(victim, [(1, 0, Some(0))]).unwrap();
    fleet.current_ranking(victim).unwrap();
    let stats = fleet.session(victim).unwrap().stats();
    assert!(stats.warm_solves >= 1, "rehydrated session warms back up");
}

#[test]
fn eviction_under_server_load_is_invisible_to_clients() {
    let srv = SessionServer::new(ServerOpts {
        workers: 3,
        idle_threshold: Some(4),
        engine: opts(),
        ..Default::default()
    });
    let quiet = srv.create_session(7, 5, &[2; 5]).unwrap();
    let loud = srv.create_session(7, 5, &[2; 5]).unwrap();
    srv.submit(quiet, staircase(7, 5)).wait().unwrap();
    let before = srv.ranking(quiet).wait().unwrap();
    srv.submit(loud, staircase(7, 5)).wait().unwrap();

    // Hammer the loud session until the quiet one has been evicted.
    for round in 0..50u16 {
        srv.submit(loud, vec![(0, 0, Some(round % 2))])
            .wait()
            .unwrap();
        srv.ranking(loud).wait().unwrap();
        if srv.is_evicted(quiet) {
            break;
        }
    }
    assert!(srv.is_evicted(quiet), "idle session must evict under load");

    // The evicted session answers the very next read, identically.
    let after = srv.ranking(quiet).wait().unwrap();
    assert!(!srv.is_evicted(quiet));
    assert!(srv.manager_stats().rehydrations >= 1);
    assert!(orders_agree(
        &before.order_best_to_worst(),
        &after.order_best_to_worst()
    ));
}

/// Evict-to-disk, then a process "restart" (a brand-new manager over the
/// same store directory): the adopted session's first touch must serve a
/// ranking bitwise identical to a never-evicted engine over the same
/// committed log — spilling is invisible in results.
#[test]
fn spilled_session_survives_a_process_restart_bitwise() {
    let dir = temp_dir("restart");
    // "Process 1": commit a roster through a store-backed fleet, spill it.
    {
        let store = Arc::new(SessionStore::open(&dir, StoreOpts::default()).unwrap());
        let mut fleet = SessionManager::with_store(opts(), store);
        let victim = fleet.create_session(9, 7, &[2; 7]).unwrap();
        fleet.submit_responses(victim, staircase(9, 7)).unwrap();
        fleet.current_ranking(victim).unwrap();
        assert!(fleet.evict_session(victim));
        assert!(fleet.is_spilled(victim), "store-backed eviction spills");
        assert_eq!(fleet.stats().spills, 1);
        assert_eq!(fleet.stats().store_errors, 0);
        // Fleet and store drop here: the "process" is gone. Committed
        // state lives only in the directory now.
    }

    // A never-evicted control fed the identical schedule.
    let mut control = SessionManager::new(opts());
    let c_victim = control.create_session(9, 7, &[2; 7]).unwrap();
    control.submit_responses(c_victim, staircase(9, 7)).unwrap();
    control.current_ranking(c_victim).unwrap();

    // "Process 2": a fresh manager adopts the spilled session, id intact.
    let store = Arc::new(SessionStore::open(&dir, StoreOpts::default()).unwrap());
    let mut fleet = SessionManager::with_store(opts(), store);
    assert_eq!(fleet.session_ids(), vec![0]);
    let victim = 0;
    assert!(fleet.is_spilled(victim));
    let restored = fleet.current_ranking(victim).unwrap();
    assert_eq!(fleet.stats().restores, 1);
    assert_eq!(fleet.stats().rehydrations, 1);
    // Snapshot was cut at registration (version 0): the whole stream came
    // back through WAL replay, and the engine knows its recovery cost.
    assert_eq!(fleet.session(victim).unwrap().stats().wal_replayed, 63);

    let never_evicted = control.current_ranking(c_victim).unwrap();
    assert!(
        orders_agree(
            &restored.order_best_to_worst(),
            &never_evicted.order_best_to_worst()
        ),
        "the restart must be invisible in served rankings"
    );
    // Bitwise: both logs hold the identical committed stream, so engines
    // built from them solve to the last bit the same.
    let restored_twin = RankingEngine::from_log(fleet.session_log(victim).unwrap(), opts())
        .unwrap()
        .current_ranking()
        .unwrap();
    let control_twin = RankingEngine::from_log(control.session_log(c_victim).unwrap(), opts())
        .unwrap()
        .current_ranking()
        .unwrap();
    assert_eq!(restored.scores, restored_twin.scores);
    assert_eq!(restored.scores, control_twin.scores);

    // The restored session keeps serving: the stream continues.
    fleet.submit_responses(victim, [(0, 0, Some(0))]).unwrap();
    assert_eq!(fleet.current_ranking(victim).unwrap().len(), 9);
    std::fs::remove_dir_all(&dir).ok();
}

/// A client whose cached version predates the in-memory history
/// truncation must still resync: the server serves the delta off the WAL
/// (one `apply_delta` lands exactly at head), where the log alone would
/// fail with `HistoryUnavailable`.
#[test]
fn catch_up_across_truncated_history_serves_from_the_wal() {
    let dir = temp_dir("catchup");
    let store = Arc::new(SessionStore::open(&dir, StoreOpts::default()).unwrap());
    let srv = SessionServer::with_store(
        ServerOpts {
            workers: 2,
            engine: EngineOpts {
                // Aggressive retention: in-memory history keeps only the
                // last 4 edits, far behind a version-0 client.
                history_retention: Some(4),
                ..opts()
            },
            ..Default::default()
        },
        store,
    );
    let id = srv.create_session(6, 5, &[2; 5]).unwrap();
    // The client caches the version-0 (empty) state.
    let mut client = srv.session_log(id).wait().unwrap().to_matrix();
    for chunk in staircase(6, 5).chunks(2) {
        srv.submit(id, chunk.to_vec()).wait().unwrap();
    }
    let head_log = srv.session_log(id).wait().unwrap();
    assert!(
        head_log.compact_range(0, head_log.version()).is_err(),
        "the in-memory ledger alone must NOT reach version 0 anymore"
    );

    // One delta off the WAL, one apply_delta, exactly at head.
    let delta = srv.catch_up(id, 0).wait().unwrap();
    assert_eq!(delta.from_version, 0);
    assert_eq!(delta.to_version, head_log.version());
    client.apply_delta(&delta).unwrap();
    assert_eq!(client, head_log.to_matrix());

    // A mid-stream pre-truncation version resyncs the same way.
    let mut mid = hnd_service::ResponseLog::new(6, 5, &[2; 5]).unwrap();
    for &(u, i, c) in &staircase(6, 5)[..3] {
        mid.set(u, i, c).unwrap();
    }
    let mut mid_client = mid.to_matrix();
    let delta = srv.catch_up(id, mid.version()).wait().unwrap();
    mid_client.apply_delta(&delta).unwrap();
    assert_eq!(mid_client, head_log.to_matrix());
    std::fs::remove_dir_all(&dir).ok();
}

/// Log reads against a *spilled* session answer straight off the store's
/// files — no restore, no engine rebuild — while a real ranking read
/// restores from disk (and reports the replay cost in its stats).
#[test]
fn spilled_sessions_answer_catch_up_without_restoring() {
    let dir = temp_dir("spilled-catchup");
    let store = Arc::new(SessionStore::open(&dir, StoreOpts::default()).unwrap());
    let srv = SessionServer::with_store(
        ServerOpts {
            workers: 2,
            idle_threshold: Some(2),
            engine: opts(),
            ..Default::default()
        },
        store,
    );
    let quiet = srv.create_session(5, 4, &[2; 4]).unwrap();
    let loud = srv.create_session(5, 4, &[2; 4]).unwrap();
    srv.submit(quiet, staircase(5, 4)).wait().unwrap();
    srv.ranking(quiet).wait().unwrap();
    let mut round = 0u16;
    while !srv.is_evicted(quiet) {
        assert!(round < 64, "quiet session never evicted");
        srv.submit(loud, vec![(0, 0, Some(round % 2))])
            .wait()
            .unwrap();
        round += 1;
    }
    assert!(srv.manager_stats().spills >= 1, "eviction goes to disk");
    let restores = srv.manager_stats().restores;

    let delta = srv.catch_up(quiet, 0).wait().unwrap();
    assert_eq!(delta.to_version, 20);
    assert!(
        srv.is_evicted(quiet),
        "catch_up must not restore a spilled session"
    );
    assert_eq!(srv.manager_stats().restores, restores);
    assert_eq!(srv.session_log(quiet).wait().unwrap().version(), 20);
    assert_eq!(srv.manager_stats().restores, restores);

    // …while an actual ranking read restores from disk.
    let ranking = srv.ranking(quiet).wait().unwrap();
    assert_eq!(ranking.len(), 5);
    assert!(!srv.is_evicted(quiet));
    assert_eq!(srv.manager_stats().restores, restores + 1);
    assert_eq!(srv.stats(quiet).wait().unwrap().wal_replayed, 20);
    std::fs::remove_dir_all(&dir).ok();
}

/// The observability acceptance gate: after an injected mid-stream
/// failure, the flight recorder must reconstruct the *full* lifecycle of
/// a command — enqueue → dequeue (dwell) → checkout → solve → reply —
/// ordered by nanosecond stamp, and the hub must have captured an
/// automatic post-mortem dump at the moment the command failed.
#[test]
fn trace_dump_reconstructs_command_lifecycle_after_injected_failure() {
    use hnd_service::{CommandKind, EventKind};

    // One worker + serial waits: every command drains alone, so each gets
    // its own Checkout event tagged with its own seq.
    let srv = SessionServer::new(ServerOpts {
        workers: 1,
        engine: opts(),
        ..Default::default()
    });
    let id = srv.create_session(6, 5, &[2; 5]).unwrap();
    srv.submit(id, staircase(6, 5)).wait().unwrap();
    srv.ranking(id).wait().unwrap();

    // Injected failure: an out-of-roster user mid-stream.
    let err = srv.submit(id, vec![(100, 0, Some(0))]).wait().unwrap_err();
    assert!(matches!(
        err,
        ServerError::Response(ResponseError::IndexOutOfBounds { user: 100, .. })
    ));

    // The hub captured a post-mortem dump at the failure, containing the
    // failed submit's not-ok reply. Recording happens *before* the reply
    // is sent, so the dump is guaranteed visible the moment `wait`
    // returned — no settling needed.
    let post_mortem = srv
        .last_error_trace()
        .expect("no post-mortem dump captured");
    assert!(!post_mortem.is_empty());
    let failed_reply = post_mortem
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .find(|e| {
            matches!(
                e.kind,
                EventKind::Reply {
                    cmd: CommandKind::Submit,
                    ok: false,
                    ..
                }
            )
        })
        .expect("post-mortem holds the failed submit's reply");
    // Optional CI artifact: serialize the post-mortem next to the build.
    if let Ok(path) = std::env::var("TRACE_DUMP_OUT") {
        std::fs::write(&path, post_mortem.to_json()).expect("write trace artifact");
    }

    // On-demand dump: reconstruct the successful ranking command's
    // lifecycle across rings by its seq.
    let dump = srv.trace_dump();
    let ranking_seq = dump
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .find(|e| {
            matches!(
                e.kind,
                EventKind::Enqueue {
                    cmd: CommandKind::Ranking
                }
            )
        })
        .expect("client ring holds the ranking enqueue")
        .seq;
    let lifecycle = dump.command_events(ranking_seq);
    let names: Vec<&str> = lifecycle.iter().map(|e| e.kind.name()).collect();
    // Full lifecycle in stamp order: enqueue (client ring), checkout (the
    // worker takes the engine before draining), dequeue with dwell, solve
    // start/end, ok reply (worker ring). Backend patch/rebuild events may
    // interleave between dequeue and the solve depending on slack state.
    let pos = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("lifecycle missing {name}: {names:?}"))
    };
    assert_eq!(names[0], "enqueue", "lifecycle: {names:?}");
    assert!(pos("enqueue") < pos("checkout"), "lifecycle: {names:?}");
    assert!(pos("checkout") < pos("dequeue"), "lifecycle: {names:?}");
    assert!(pos("dequeue") < pos("solve_start"), "lifecycle: {names:?}");
    assert!(
        pos("solve_start") < pos("solve_end"),
        "lifecycle: {names:?}"
    );
    assert_eq!(*names.last().unwrap(), "reply", "lifecycle: {names:?}");
    assert!(
        lifecycle.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
        "stamps are nondecreasing"
    );
    assert!(lifecycle.iter().all(|e| e.session == id));
    match lifecycle.last().unwrap().kind {
        EventKind::Reply { ok, e2e_ns, .. } => {
            assert!(ok);
            assert!(e2e_ns > 0, "end-to-end latency was measured");
        }
        _ => unreachable!(),
    }
    // The failed command's seq is strictly after the ranking's.
    assert!(failed_reply.seq > ranking_seq);

    // Telemetry off: the recorder stays empty and dumps are None.
    let quiet = SessionServer::new(ServerOpts {
        workers: 1,
        engine: opts(),
        telemetry: false,
        ..Default::default()
    });
    let qid = quiet.create_session(4, 3, &[2; 3]).unwrap();
    quiet.submit(qid, staircase(4, 3)).wait().unwrap();
    let _ = quiet
        .submit(qid, vec![(99, 0, Some(0))])
        .wait()
        .unwrap_err();
    assert!(quiet.trace_dump().is_empty());
    assert!(quiet.last_error_trace().is_none());
}
