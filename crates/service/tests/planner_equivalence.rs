//! Planner ≡ forced-configuration equivalence battery.
//!
//! The cost-model planner may pick any backend (single or sharded, any
//! shard count) and any lane-format thresholds — but it must never change
//! *results*. These proptests drive a planner-configured engine and a
//! panel of forced baselines (Single × forced-CSR, Single × forced-bitmap,
//! pinned-Sharded × default formats, and the static-fallback path) through
//! identical edit streams, ranking after every batch, and assert the
//! served scores agree to ≤1e-12 throughout.
//!
//! The planner comes from a real (quick) calibration pass of the build
//! host, so the decisions under test are the decisions production would
//! make on this machine.

use hnd_core::SolverOpts;
use hnd_linalg::DensityPlan;
use hnd_plan::{calibrate, CalibrationOpts, Planner};
use hnd_service::{EngineOpts, RankingEngine, ShardPlan};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One calibration pass shared across every case and baseline.
fn planner() -> &'static Planner {
    static PLANNER: OnceLock<&'static Planner> = OnceLock::new();
    PLANNER.get_or_init(|| Planner::leaked(calibrate(&CalibrationOpts::quick())))
}

/// One write in a generated stream: `(user, item, choice)`.
type Write = (usize, usize, Option<u16>);

/// A generated roster + edit stream: `(m, n, options, batches)`.
type EditStream = (usize, usize, Vec<u16>, Vec<Vec<Write>>);

/// Small heterogeneous rosters with revision/clear edits — the same
/// traffic shape the shard- and delta-equivalence batteries use.
fn edit_stream() -> impl Strategy<Value = EditStream> {
    (3usize..=14, 1usize..=8).prop_flat_map(|(m, n)| {
        let options = proptest::collection::vec(1u16..=4, n);
        options.prop_flat_map(move |opts| {
            let cell = (0..m, 0..n);
            let batch = proptest::collection::vec(
                cell.prop_flat_map(move |(u, i)| {
                    (Just(u), Just(i), proptest::option::weighted(0.8, 0..5u16))
                }),
                1..12,
            );
            let opts2 = opts.clone();
            (
                Just(m),
                Just(n),
                Just(opts),
                proptest::collection::vec(batch, 1..6).prop_map(move |batches| {
                    batches
                        .into_iter()
                        .map(|b| {
                            b.into_iter()
                                .map(|(u, i, c)| (u, i, c.map(|o| o % opts2[i])))
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>()
                }),
            )
        })
    })
}

fn base_opts() -> EngineOpts {
    EngineOpts {
        solver_opts: SolverOpts {
            orient: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Builds an engine, replays the stream ranking after every batch, and
/// returns the final scores plus the per-batch score history.
fn replay(
    m: usize,
    n: usize,
    options: &[u16],
    batches: &[Vec<Write>],
    opts: EngineOpts,
) -> Vec<Vec<f64>> {
    let mut engine = RankingEngine::new(m, n, options, opts).expect("valid roster");
    let mut history = Vec::with_capacity(batches.len());
    for batch in batches {
        engine
            .submit_responses(batch.iter().copied())
            .expect("in-roster writes");
        history.push(engine.current_ranking().expect("solvable").scores);
    }
    history
}

fn assert_history_close(got: &[Vec<f64>], want: &[Vec<f64>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: batch count");
    for (k, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.len(), b.len(), "{what}: batch {k} length");
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x - y).abs() <= 1e-12,
                "{what}: batch {k} diverged ({x} vs {y})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planner_matches_every_forced_baseline((m, n, options, batches) in edit_stream()) {
        let planned = replay(m, n, &options, &batches, EngineOpts {
            planner: Some(planner()),
            ..base_opts()
        });

        // Static fallback (the PR-5 path, hand-tuned constants).
        let fallback = replay(m, n, &options, &batches, EngineOpts {
            planner: None,
            ..base_opts()
        });
        assert_history_close(&planned, &fallback, "planner vs static fallback");

        // Forced single backend, pure-CSR lanes.
        let csr = replay(m, n, &options, &batches, EngineOpts {
            planner: None,
            density_plan: DensityPlan::force_csr(),
            ..base_opts()
        });
        assert_history_close(&planned, &csr, "planner vs forced-CSR");

        // Forced single backend, all-bitmap lanes.
        let bitmap = replay(m, n, &options, &batches, EngineOpts {
            planner: None,
            density_plan: DensityPlan::force_bitmap(),
            ..base_opts()
        });
        assert_history_close(&planned, &bitmap, "planner vs forced-bitmap");

        // Pinned sharded backend (2 shards, activation forced on).
        let sharded = replay(m, n, &options, &batches, EngineOpts {
            planner: None,
            shard_plan: Some(ShardPlan {
                min_users: 2,
                ..ShardPlan::exactly(2)
            }),
            ..base_opts()
        });
        assert_history_close(&planned, &sharded, "planner vs pinned-sharded");
    }

    #[test]
    fn planner_matches_forced_configs_on_planner_opts_too(
        (m, n, options, batches) in edit_stream(),
    ) {
        // The planner with explicitly forced lane formats must equal the
        // same forced formats without a planner: the explicit density plan
        // outranks the measured thresholds, so only budgets may differ —
        // never results.
        let planned_forced = replay(m, n, &options, &batches, EngineOpts {
            planner: Some(planner()),
            density_plan: DensityPlan::force_bitmap(),
            ..base_opts()
        });
        let forced = replay(m, n, &options, &batches, EngineOpts {
            planner: None,
            density_plan: DensityPlan::force_bitmap(),
            ..base_opts()
        });
        assert_history_close(&planned_forced, &forced, "forced formats under planner");
    }
}
