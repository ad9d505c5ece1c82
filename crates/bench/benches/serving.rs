//! Serving-path benchmark: multi-session throughput through the
//! [`SessionServer`] worker pool.
//!
//! One measured iteration is a **wave round**: every session receives a
//! 16-edit submit wave (pipelined, no waits in between) followed by a
//! ranking read per session — the steady-state shape of classroom traffic.
//! The sweep varies the worker-pool size, so the `workers=1` row is the
//! serialized baseline and the larger rows show multi-session scaling on
//! multi-core machines (on a single-core container all rows collapse to
//! the same throughput, which is itself the "no regression at
//! `HND_THREADS=1`" check).
//!
//! Set `HND_BENCH_QUICK=1` to restrict to the smallest fleet (CI smoke);
//! set `BENCH_JSON=path.json` to emit machine-readable results; pass the
//! group name (`cargo bench --bench serving -- serving`) to filter.

use criterion::{criterion_group, BenchmarkId, Criterion};
use hnd_bench::{quick, report};
use hnd_core::{SolverKind, SolverOpts};
use hnd_service::{EngineOpts, Ranking, Reply, ServerOpts, SessionId, SessionServer};

const WAVE_EDITS: usize = 16;

fn engine_opts() -> EngineOpts {
    EngineOpts {
        solver: SolverKind::Power,
        solver_opts: SolverOpts {
            orient: false,
            ..Default::default()
        },
        // Generous slack so steady-state waves ride the delta path (with
        // occasional real rebuilds once spans fill — the serving reality).
        row_slack: 64,
        col_slack: 1024,
        ..Default::default()
    }
}

/// Deterministic ability-structured bulk load for session `s`.
fn bulk_load(s: usize, m: usize, n: usize, k: u16) -> Vec<(usize, usize, Option<u16>)> {
    let mut state = 0xC1A55u64.wrapping_add(s as u64);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..m)
        .flat_map(|u| (0..n).map(move |i| (u, i)))
        .map(|(u, i)| {
            let correct = (i % k as usize) as u16;
            let ability = u as f64 / m as f64;
            let choice = if (next() % 1000) as f64 / 1000.0 < 0.2 + 0.7 * ability {
                correct
            } else {
                (correct + 1 + (next() % (k as u64 - 1)) as u16) % k
            };
            (u, i, Some(choice))
        })
        .collect()
}

fn preload(srv: &SessionServer, sessions: usize, m: usize, n: usize, k: u16) -> Vec<SessionId> {
    let ids: Vec<SessionId> = (0..sessions)
        .map(|s| {
            let id = srv.create_session(m, n, &vec![k; n]).unwrap();
            srv.submit(id, bulk_load(s, m, n, k)).wait().unwrap();
            id
        })
        .collect();
    // Warm every session so the measured rounds are the steady state.
    let warmups: Vec<Reply<Ranking>> = ids.iter().map(|&id| srv.ranking(id)).collect();
    for reply in warmups {
        reply.wait().unwrap();
    }
    ids
}

/// One wave round: pipelined 16-edit submits to every session, then a
/// ranking read per session.
fn wave_round(srv: &SessionServer, ids: &[SessionId], m: usize, n: usize, k: u16, round: u64) {
    let submits: Vec<Reply<u64>> = ids
        .iter()
        .map(|&id| {
            let batch: Vec<(usize, usize, Option<u16>)> = (0..WAVE_EDITS as u64)
                .map(|e| {
                    let u = ((round * 31 + e * 17 + 1) % m as u64) as usize;
                    let i = ((round * 13 + e * 7) % n as u64) as usize;
                    let choice = ((round + e) % k as u64) as u16;
                    (u, i, Some(choice))
                })
                .collect();
            srv.submit(id, batch)
        })
        .collect();
    for reply in submits {
        reply.wait().unwrap();
    }
    let reads: Vec<Reply<Ranking>> = ids.iter().map(|&id| srv.ranking(id)).collect();
    for reply in reads {
        reply.wait().unwrap();
    }
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let k = 3u16;
    let (sessions, m, n) = if quick() { (4, 400, 40) } else { (8, 2000, 60) };
    let worker_counts: &[usize] = if quick() { &[1, 4] } else { &[1, 2, 4, 8] };
    for &workers in worker_counts {
        let srv = SessionServer::new(ServerOpts {
            workers,
            idle_threshold: None,
            engine: engine_opts(),
            ..Default::default()
        });
        let ids = preload(&srv, sessions, m, n, k);
        let mut round = 0u64;
        // Pattern density of each session's fully-answered k-option
        // matrix is 1/k; nnz aggregates the fleet.
        report::note(
            "serving",
            "wave_round",
            format!("w{workers}_s{sessions}_m{m}"),
            report::EntryMeta {
                density: Some(1.0 / f64::from(k)),
                nnz: Some(sessions * m * n),
                ..Default::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("wave_round", format!("w{workers}_s{sessions}_m{m}")),
            &workers,
            |b, _| {
                b.iter(|| {
                    round += 1;
                    wave_round(&srv, &ids, m, n, k, round);
                });
            },
        );
    }
    group.finish();
}

/// Cold-storm rehydration: every session in the fleet is evicted to its
/// log, then the whole fleet is read at once — the reconnect-storm shape.
/// Each rehydrated session solves cold on its own worker pass. The row id
/// keeps its `b1` prefix (one session per pass) so the checked-in baseline
/// still matches.
fn bench_cold_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_cold");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let k = 3u16;
    let (sessions, m, n) = if quick() {
        (6, 300, 30)
    } else {
        (12, 1000, 40)
    };
    let srv = SessionServer::new(ServerOpts {
        workers: 1,
        // Threshold 0: a session is idle the moment it checks in, so the
        // explicit sweep below re-evicts the fleet every round.
        idle_threshold: Some(0),
        engine: engine_opts(),
        ..Default::default()
    });
    let ids = preload(&srv, sessions, m, n, k);
    let row = format!("b1_s{sessions}_m{m}");
    report::note(
        "serving_cold",
        "storm",
        &row,
        report::EntryMeta {
            density: Some(1.0 / f64::from(k)),
            nnz: Some(sessions * m * n),
            ..Default::default()
        },
    );
    group.bench_function(BenchmarkId::new("storm", row), |b| {
        b.iter(|| {
            srv.evict_idle();
            let reads: Vec<Reply<Ranking>> = ids.iter().map(|&id| srv.ranking(id)).collect();
            for reply in reads {
                reply.wait().unwrap();
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_serving, bench_cold_storm);
hnd_bench::bench_main!(benches);
