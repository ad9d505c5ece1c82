//! Cost-model planner benchmark: the per-core scaling harness behind the
//! kernel-cost catalog, plus the planner-vs-static serving gate.
//!
//! Two groups:
//!
//! * **Scaling sweep** (`planner_scaling`) — the primitive op classes the
//!   catalog models (`apply`, `delta` patching, warm + cold `solve`) at
//!   m = 10k/50k/200k, swept across kernel thread counts via
//!   [`hnd_linalg::parallel::with_threads`] (the in-process form of the
//!   `HND_THREADS` convention). The emitted `BENCH_planner.json` rows are
//!   the per-core scaling curves the cost model's thread axis is judged
//!   against: id `{op}/m{m}_t{t}` where `t` is the forced thread count.
//! * **Serving gate** (`planner_wave`) — identical 16-edit delta waves on
//!   a dense binary session (≈45% lane density) through three engines:
//!   `waves_planner` (calibrated cost-model planner), `waves_static` (the
//!   PR-5 hand-tuned constants — the planner must not lose to its own
//!   fallback), and `waves_mispinned` (a config pinned for the wrong
//!   machine: `force_csr` on a SIMD box, the shape of a stale hand-tuned
//!   constant). The perf-smoke `--pair` gates hold the planner to parity
//!   with static and to a ≥1.3× win over the mis-pinned config.
//!
//! The planner comes from `$HND_CATALOG`/the default catalog path when a
//! current one exists (the CI-cached artifact), else from an in-process
//! calibration pass — the bench never needs pre-existing host state.
//!
//! Set `HND_BENCH_QUICK=1` for the CI smoke (m = 10 000, single thread
//! count; the `planner_wave` ids are size-keyed so the gated pair ids
//! match the checked-in artifact); set `BENCH_JSON=path.json` to emit
//! through the shared `hnd_bench::report` writer.

use criterion::{BenchmarkId, Criterion};
use hnd_bench::workload::{one_hot_matrix, participation_matrix};
use hnd_bench::{matrix_meta, quick, report};
use hnd_core::operators::UDiffOp;
use hnd_core::{SolverKind, SolverOpts};
use hnd_linalg::op::LinearOp;
use hnd_linalg::{parallel, DensityPlan};
use hnd_plan::{calibrate, CalibrationOpts, Planner};
use hnd_response::{ResponseLog, ResponseOps};
use hnd_service::{EngineOpts, RankingEngine};
use std::sync::OnceLock;

/// One planner shared across both groups: the cached catalog when the
/// host has a current one, else a fresh in-process calibration.
fn planner() -> &'static Planner {
    static PLANNER: OnceLock<&'static Planner> = OnceLock::new();
    PLANNER.get_or_init(|| {
        Planner::shared().unwrap_or_else(|| {
            let opts = if quick() {
                CalibrationOpts::quick()
            } else {
                CalibrationOpts::default()
            };
            Planner::leaked(calibrate(&opts))
        })
    })
}

fn wave_opts() -> EngineOpts {
    EngineOpts {
        solver_opts: SolverOpts {
            orient: false,
            ..Default::default()
        },
        row_slack: 64,
        col_slack: 4096,
        ..Default::default()
    }
}

fn bench_planner_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    // Mixed-density participation shape: 40% is past the AVX promotion
    // thresholds on the row axis, so both lane formats are in play — the
    // regime where the catalog's thread axis actually matters.
    let n = 200usize;
    let density = 0.40;
    let sizes: &[usize] = if quick() {
        &[10_000]
    } else {
        &[10_000, 50_000, 200_000]
    };
    let thread_counts: &[usize] = if quick() { &[1] } else { &[1, 2, 4, 8] };
    let solver = SolverKind::Power.build(SolverOpts {
        orient: false,
        ..Default::default()
    });

    for &m in sizes {
        let matrix = participation_matrix(m, n, density);
        let meta = matrix_meta(&matrix);
        let ops = ResponseOps::new(&matrix);
        let op = UDiffOp::new(&ops);
        let x = hnd_linalg::power::deterministic_start(m - 1);
        let mut y = vec![0.0; m - 1];
        // Converged state for the warm-solve rows (computed once,
        // thread-count independent).
        let warm = solver
            .solve_prepared(&matrix, &ops, None)
            .expect("cold solve")
            .state;
        // Delta rows advance a live engine under the calibrated planner;
        // the kernel structure is thread-count independent, so one engine
        // serves every `t`.
        let mut engine = RankingEngine::from_log(
            ResponseLog::from_matrix(&matrix),
            EngineOpts {
                planner: Some(planner()),
                ..wave_opts()
            },
        )
        .expect("valid log");
        let mut round = 0u64;

        for &t in thread_counts {
            let param = format!("m{m}_t{t}");
            parallel::with_threads(t, || {
                report::note("planner_scaling", "apply", &param, meta.clone());
                group.bench_with_input(BenchmarkId::new("apply", &param), &m, |b, _| {
                    b.iter(|| op.apply(&x, &mut y));
                });

                report::note("planner_scaling", "delta", &param, meta.clone());
                group.bench_with_input(BenchmarkId::new("delta", &param), &m, |b, _| {
                    b.iter(|| {
                        round += 1;
                        let batch: Vec<(usize, usize, Option<u16>)> = (0..16u64)
                            .map(|e| {
                                let u = ((round * 31 + e * 17 + 1) % m as u64) as usize;
                                let i = ((round * 13 + e * 7) % n as u64) as usize;
                                let choice = if (round + e).is_multiple_of(5) {
                                    None
                                } else {
                                    Some(0)
                                };
                                (u, i, choice)
                            })
                            .collect();
                        engine.submit_responses(batch).expect("in roster");
                        engine.advance();
                    });
                });

                report::note("planner_scaling", "solve_warm", &param, meta.clone());
                group.bench_with_input(BenchmarkId::new("solve_warm", &param), &m, |b, _| {
                    b.iter(|| {
                        solver
                            .solve_prepared(&matrix, &ops, Some(&warm))
                            .expect("warm solve")
                    });
                });

                // Cold solves iterate to convergence from the deterministic
                // start — bounded to the small size so the sweep's wall
                // clock stays dominated by the curves, not one cell.
                if m == 10_000 {
                    report::note("planner_scaling", "solve_cold", &param, meta.clone());
                    group.bench_with_input(BenchmarkId::new("solve_cold", &param), &m, |b, _| {
                        b.iter(|| {
                            solver
                                .solve_prepared(&matrix, &ops, None)
                                .expect("cold solve")
                        });
                    });
                }
            });
        }
    }
    group.finish();
}

fn bench_planner_waves(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_wave");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    // The dense serving shape of the hybrid_wave group: binary items at a
    // 90% answer rate (≈45% lane density), where the measured bitmap win
    // is what a correct plan has to capture.
    let n = 100usize;
    let k = 2u16;
    let rate = 0.90;
    let sizes: &[usize] = if quick() {
        &[10_000]
    } else {
        &[10_000, 50_000]
    };

    for &m in sizes {
        let matrix = one_hot_matrix(m, n, k, rate);
        let meta = matrix_meta(&matrix);
        let configs: [(&str, EngineOpts); 3] = [
            (
                "waves_planner",
                EngineOpts {
                    planner: Some(planner()),
                    ..wave_opts()
                },
            ),
            (
                "waves_static",
                EngineOpts {
                    planner: None,
                    ..wave_opts()
                },
            ),
            // A config pinned for the wrong machine: pure-CSR lanes on a
            // SIMD host whose dense sessions want bitmap words. This is
            // what a hand-tuned constant looks like after a hardware
            // change — the planner has to beat it (perf-smoke `--pair`
            // holds the win at ≥1.3×).
            (
                "waves_mispinned",
                EngineOpts {
                    planner: None,
                    density_plan: DensityPlan::force_csr(),
                    ..wave_opts()
                },
            ),
        ];
        for (label, opts) in configs {
            let mut engine =
                RankingEngine::from_log(ResponseLog::from_matrix(&matrix), opts).unwrap();
            engine.current_ranking().expect("warmup solve");
            let planned = label == "waves_planner";
            if planned {
                assert!(
                    engine.plan_decision().is_some(),
                    "planner config must serve under a cost-model decision"
                );
                // The calibrated plan must promote this dense session's
                // lanes wherever the hardware rewards it (the scalar tier
                // legitimately measures CSR as the winner).
                assert!(
                    engine.stats().formats.bitmap_rows > 0
                        || hnd_linalg::simd::kernel_isa() == hnd_linalg::KernelIsa::Scalar,
                    "calibrated plan must promote lanes on a SIMD tier"
                );
            } else {
                assert!(engine.plan_decision().is_none());
            }
            let mut round = 0u64;
            report::note("planner_wave", label, m, meta.clone());
            group.bench_with_input(BenchmarkId::new(label, m), &m, |b, _| {
                b.iter(|| {
                    round += 1;
                    let batch: Vec<(usize, usize, Option<u16>)> = (0..16u64)
                        .map(|e| {
                            let u = ((round * 31 + e * 17 + 1) % m as u64) as usize;
                            let i = ((round * 13 + e * 7) % n as u64) as usize;
                            // Revise answers, occasionally withdrawing one.
                            let choice = match (round + e) % 5 {
                                0 => None,
                                v => Some((v % k as u64) as u16),
                            };
                            (u, i, choice)
                        })
                        .collect();
                    engine.submit_responses(batch).expect("in roster");
                    engine.current_ranking().expect("solves")
                });
            });
            if planned && hnd_linalg::simd::kernel_isa() != hnd_linalg::KernelIsa::Scalar {
                // Bitmap-lane patches are slack-free bit flips and the
                // planner's budget excludes them (the PR-6 bugfix): the
                // steady state must never fall back to a kernel rebuild.
                assert_eq!(
                    engine.stats().rebuilds,
                    0,
                    "planned delta waves must patch in place"
                );
            }
        }
    }
    group.finish();
}

criterion::criterion_group!(benches, bench_planner_scaling, bench_planner_waves);
hnd_bench::bench_main!(benches);
