//! End-to-end serving benchmark of the HITSnDIFFs serving stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload classroom_fleet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` drives one workload through `SessionServer`'s client API
//! (set-up, a fixed-rate phase, a closed-loop saturation phase), checks
//! every answer against computations made apart from the program, and
//! prints the end-to-end metrics. `--trace 1` replays the same seeded
//! workload and prints the per-layer metrics instead. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed check exits with code 1. See `e2ebench/README.md`.

mod drive;
mod mirror;
mod reference;
mod sys;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {value} outside (0, 60]"));
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Share of `--seconds` spent in the fixed-rate phase; the closed-loop
/// phase takes the rest.
const FIXED_SHARE: f64 = 0.7;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Seconds at the start of the fixed-rate phase whose commands are sent
/// and checked but not timed (caches and allocations settle).
const WARMUP_S: f64 = 2.0;
/// Windows each phase's measurements are cut into.
const WINDOWS: usize = 6;
/// Fewest samples of a command kind per latency window.
const MIN_WINDOW_SAMPLES: usize = 25;

/// Benchmark-owned scratch space inside the checkout (store directories,
/// the pinned catalog path).
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".runs")
}

/// Pins what the program reads from its environment, before any thread
/// starts: the planner's kernel catalog points at a benchmark-owned path
/// that holds no catalog (so no planner, and a run does not depend on a
/// calibration pass), and the plan/thread overrides are cleared (worker
/// and kernel threads follow the core count).
fn pin_environment(seed: u64, workload: Workload) -> Result<(), String> {
    let catalog = scratch_dir().join("no-kernel-catalog.json");
    std::fs::create_dir_all(scratch_dir()).map_err(|e| format!("scratch dir: {e}"))?;
    if catalog.exists() {
        std::fs::remove_file(&catalog).map_err(|e| format!("{}: {e}", catalog.display()))?;
    }
    std::env::set_var("HND_CATALOG", &catalog);
    std::env::remove_var("HND_PLAN");
    std::env::remove_var("HND_THREADS");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "e2ebench {} seed {seed}: nproc {nproc}, kernel ISA {:?}, workers {}, \
         HND_CATALOG={} (absent: no planner), HND_PLAN and HND_THREADS unset",
        workload.name(),
        hnd_linalg::simd::kernel_isa(),
        hnd_linalg::parallel::resolve_workers(0),
        catalog.display(),
    );
    Ok(())
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run hands back for the result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn result_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A metric a run could not measure is reported as 0 rather than
        // breaking the JSON line.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <classroom_fleet|cohort_leaderboard|durable_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = pin_environment(args.seed, args.workload) {
        eprintln!("e2ebench: {e}");
        std::process::exit(2);
    }
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        run_end_to_end(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(out) => {
            println!("{}", result_line(&out));
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// A store directory of this process, emptied first.
pub fn fresh_store_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = scratch_dir().join(format!("store-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = workload.config();
    let inputs = workload::sessions(&cfg, seed);
    let mut mirrors = workload::initial_mirrors(&inputs);
    println!(
        "inputs: {} sessions ({} users, {} bulk answers), offered {} arrivals/s \
         (up to {} commands each), {} closed-loop clients",
        inputs.len(),
        inputs.iter().map(|s| s.users).sum::<usize>(),
        inputs.iter().map(|s| s.bulk.len()).sum::<usize>(),
        cfg.arrivals,
        cfg.arrival_max(),
        cfg.clients
    );

    // Set-up, several times: setup_s is the median, the last server serves.
    let mut setups = Vec::new();
    let mut served = None;
    // Earlier set-ups' store directories are removed after the run, so no
    // removal's disk work overlaps a timed set-up.
    let mut spent_dirs: Vec<PathBuf> = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some((srv, _, dir)) = served.take() {
            drop(srv);
            spent_dirs.extend(dir);
        }
        let dir = if cfg.store {
            Some(fresh_store_dir(&format!("setup{rep}"))?)
        } else {
            None
        };
        let (srv, ids, secs) = drive::setup(&cfg, &inputs, &mirrors, dir.as_deref())?;
        setups.push(secs);
        served = Some((srv, ids, dir));
    }
    let (srv, ids, dir) = served.expect("at least one set-up");
    let setup_s = sys::median(&setups);
    println!(
        "setup: {:?} s (median {setup_s:.4} s)",
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );

    let mut stream = workload::CommandStream::new(&inputs, seed, cfg.round);
    let mut open = drive::open_loop(
        &srv,
        &ids,
        &inputs,
        &mut mirrors,
        &mut stream,
        cfg.arrival_max(),
        cfg.arrivals,
        WARMUP_S,
        FIXED_SHARE * seconds,
        WINDOWS,
    );
    let touched_spilled_open = srv.manager_stats().restores
        + srv
            .metrics()
            .get_counter("telemetry_direct_serves")
            .unwrap_or(0);
    let mut closed = drive::closed_loop(
        &srv,
        &ids,
        &inputs,
        &mut mirrors,
        &mut stream,
        cfg.clients,
        (1.0 - FIXED_SHARE) * seconds,
        WINDOWS,
    );
    let peak_rss = open.rss_max_mib.max(closed.rss_max_mib);

    let open_cmds = open.tally.total_attempted();
    let late_p50 = sys::median(&open.lateness_ms);
    let late_max = sys::quantile(&open.lateness_ms, 1.0);
    println!(
        "fixed-rate phase: {open_cmds} commands in {:.2} s ({:.1} cmd/s offered), \
         generator late p50 {late_p50:.3} ms max {late_max:.3} ms; collector: {} blocking \
         waiters, {} replies waited > 0.5 ms for one (max {:.3} ms)",
        open.wall_s,
        open_cmds as f64 / (FIXED_SHARE * seconds),
        cfg.arrival_max() + drive::SPARE_WAITERS,
        open.queued_observations,
        open.max_pickup_lag_ms,
    );
    drive::report("fixed", &open.tally);
    let latency_windows: Vec<Vec<f64>> = workload::Kind::ALL
        .iter()
        .map(|&kind| {
            let lat: Vec<f64> = open
                .commands
                .iter()
                .filter(|(c, at, _)| c.op.kind() == kind && *at >= WARMUP_S)
                .map(|&(_, _, ms)| ms)
                .collect();
            let w = (lat.len() / MIN_WINDOW_SAMPLES).clamp(1, WINDOWS);
            (0..w)
                .map(|i| sys::median(&lat[i * lat.len() / w..(i + 1) * lat.len() / w]))
                .collect()
        })
        .collect();
    let cpu_windows: Vec<f64> = open
        .cpu_windows
        .iter()
        .map(|&(cpu_s, sent)| cpu_s * 1e3 / sent.max(1) as f64)
        .collect();
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for (kind, w) in workload::Kind::ALL.iter().zip(&latency_windows) {
        println!("  windows {:<8} p50 ms: {}", kind.name(), show(w));
    }
    println!("  windows cpu      ms/cmd: {}", show(&cpu_windows));
    println!("  windows closed   cmd/s: {}", show(&closed.window_rates));
    println!(
        "closed-loop phase: {} commands completed in {:.2} s by {} clients",
        closed.completed, closed.wall_s, cfg.clients
    );
    drive::report("closed", &closed.tally);
    if cfg.store {
        let ms = srv.manager_stats();
        println!(
            "store: {} spills, {} restores; fixed-rate phase: {touched_spilled_open} commands \
             ({:.1}%) touched a spilled session (restores + catch-ups served off the store)",
            ms.spills,
            ms.restores,
            100.0 * touched_spilled_open as f64 / open_cmds.max(1) as f64
        );
    }

    let attempted = open_cmds + closed.tally.total_attempted();
    let failed = open.tally.total_failed() + closed.tally.total_failed();
    let mut wrong = std::mem::take(&mut open.tally.wrong);
    wrong.append(&mut closed.tally.wrong);
    let mut catch_ups = std::mem::take(&mut open.tally.catch_ups);
    catch_ups.append(&mut closed.tally.catch_ups);
    let ability = drive::final_checks(&srv, &ids, &inputs, &mirrors, &catch_ups, &mut wrong);
    if let Some(dir) = &dir {
        srv.flush_store().map_err(|e| format!("flush_store: {e}"))?;
        drop(srv);
        drive::reopen_check(&cfg, dir, &ids, &mirrors, &mut wrong);
        spent_dirs.push(dir.clone());
    } else {
        drop(srv);
    }
    for dir in spent_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    for w in wrong.iter().take(10) {
        println!("CHECK FAILED: {w}");
    }

    // The quietest window: the host's load moves every window of a run
    // together, and the lowest window median moved least between runs.
    let p50 = |k: workload::Kind| sys::quantile(&latency_windows[k.index()], 0.0);
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "submit_p50_ms",
            value: p50(workload::Kind::Submit),
            unit: "ms",
        },
        Metric {
            name: "topk_p50_ms",
            value: p50(workload::Kind::TopK),
            unit: "ms",
        },
        Metric {
            name: "ranking_p50_ms",
            value: p50(workload::Kind::Ranking),
            unit: "ms",
        },
        Metric {
            name: "catchup_p50_ms",
            value: p50(workload::Kind::CatchUp),
            unit: "ms",
        },
        Metric {
            name: "sat_cmds_per_s",
            value: sys::median(&closed.window_rates),
            unit: "1/s",
        },
        Metric {
            name: "cpu_ms_per_cmd",
            value: sys::quantile(&cpu_windows, 0.25),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
        Metric {
            name: "ability_spearman",
            value: ability,
            unit: "ratio",
        },
    ];
    Ok(Outcome {
        correct: wrong.is_empty(),
        attempted,
        failed,
        metrics,
    })
}
