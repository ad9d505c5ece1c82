//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Two parts, both on the workload's seeded inputs and command stream:
//!
//! 1. **Served.** The fixed-rate phase runs through `SessionServer` as in
//!    the end-to-end run. Afterwards the benchmark reads what the program
//!    already exposes — `MetricsSnapshot` stage histograms, `ManagerStats`
//!    and the flight-recorder dump — and reconciles each command's client
//!    latency with its queue wait and engine span (matched by the
//!    recorder's sequence numbers), leaving an unattributed residual.
//! 2. **Replayed.** The same commands are replayed against replicas
//!    through each layer's public functions, with a span timed around
//!    every call from outside: `RankingEngine` replicas (`hnd-service`
//!    engine), a response-layer replica of the workload's busiest session
//!    (`ResponseOps`/`ShardedOps` patches, the `hnd-core` solver, one
//!    `UDiffOp` apply), a `SessionStore` replica for the store-backed
//!    workload, and the telemetry record path.
//!
//! A layer a workload never exercises reports 0.

use crate::drive;
use crate::mirror::Mirror;
use crate::sys::median;
use crate::workload::{self, Command, CommandStream, Kind, Op, SessionInput, Workload};
use crate::{Metric, Outcome};
use hnd_core::{HitsNDiffs, SolveState, SpectralSolver, UDiffOp};
use hnd_linalg::{DensityPlan, LinearOp};
use hnd_response::{ResponseDelta, ResponseEdit, ResponseLog, ResponseMatrix, ResponseOps};
use hnd_service::{EngineOpts, EngineStats, EventKind, RankingEngine, SessionStore};
use hnd_shard::{ShardedOps, ShardedUDiffOp};
use hnd_telemetry::{CommandKind, TelemetryHub};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

/// Share of `--seconds` the served part's fixed-rate phase runs.
const SERVED_SHARE: f64 = 0.5;
/// Sessions the store replica keeps loaded before it spills the least
/// recently touched one (a stand-in for the server's idle eviction).
const STORE_RESIDENT: usize = 16;

fn span<T>(samples: &mut Vec<f64>, scale: f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * scale);
    out
}

const MS: f64 = 1e3;
const US: f64 = 1e6;

fn p50_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = workload.config();
    let inputs = workload::sessions(&cfg, seed);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut wrong: Vec<String> = Vec::new();

    // ---- 1. Served: the fixed-rate phase through the server. ----
    let mut mirrors = workload::initial_mirrors(&inputs);
    let dir = if cfg.store {
        Some(crate::fresh_store_dir("traced")?)
    } else {
        None
    };
    let (srv, ids, _) = drive::setup(&cfg, &inputs, &mirrors, dir.as_deref())?;
    let mut stream = CommandStream::new(&inputs, seed, cfg.round);
    let open = drive::open_loop(
        &srv,
        &ids,
        &inputs,
        &mut mirrors,
        &mut stream,
        cfg.arrival_max(),
        cfg.arrivals,
        0.0,
        SERVED_SHARE * seconds,
        1,
    );
    let dump = srv.trace_dump();
    let snap = srv.metrics();
    let manager = srv.manager_stats();
    wrong.extend(open.tally.wrong.iter().cloned());
    let attempted = open.tally.total_attempted();
    let failed = open.tally.total_failed();
    drop(srv);
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let stage_ms = |name: &str| snap.stage(name).map_or(0.0, |s| s.p50_ns as f64 / 1e6);
    metrics.push(Metric {
        name: "server.queue_wait_ms_p50",
        value: stage_ms("queue_wait"),
        unit: "ms",
    });
    let sent: Vec<(Command, f64)> = open
        .commands
        .into_iter()
        .map(|(c, _, ms)| (c, ms))
        .collect();
    let recon = reconcile(&dump, &sent, &ids);
    metrics.push(Metric {
        name: "server.unattributed_ms_p50",
        value: recon,
        unit: "ms",
    });
    metrics.push(Metric {
        name: "session.restores",
        value: manager.restores as f64,
        unit: "count",
    });
    metrics.push(Metric {
        name: "session.spills",
        value: manager.spills as f64,
        unit: "count",
    });
    metrics.push(Metric {
        name: "session.restore_ms_p50",
        value: stage_ms("restore"),
        unit: "ms",
    });
    let seqs: std::collections::BTreeSet<u64> = dump
        .workers
        .iter()
        .flat_map(|w| w.events.iter().map(|e| e.seq))
        .collect();
    metrics.push(Metric {
        name: "telemetry.events_per_cmd",
        value: dump.len() as f64 / seqs.len().max(1) as f64,
        unit: "count",
    });

    // ---- 2. Replayed: the same commands against layer replicas. ----
    let commands: Vec<Command> = sent.into_iter().map(|(c, _)| c).collect();
    metrics.extend(replay_engines(&cfg, &inputs, &commands));
    metrics.extend(replay_response_core(&cfg, &inputs, &commands));
    metrics.extend(replay_store(&cfg, &inputs, &commands)?);
    metrics.push(Metric {
        name: "telemetry.record_ns",
        value: record_cost_ns(),
        unit: "ns",
    });

    for w in wrong.iter().take(10) {
        println!("CHECK FAILED: {w}");
    }
    println!("per-layer metrics:");
    for m in &metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: wrong.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn command_kind(kind: Kind) -> CommandKind {
    match kind {
        Kind::Submit => CommandKind::Submit,
        Kind::TopK => CommandKind::TopK,
        Kind::Ranking => CommandKind::Ranking,
        Kind::CatchUp => CommandKind::CatchUp,
    }
}

/// Matches each served command to its flight-recorder sequence number and
/// splits its client latency into queue wait, engine span (patch +
/// rebuild + solve + WAL append) and the unattributed rest. Prints the
/// per-kind reconciliation; returns the median residual in ms.
fn reconcile(dump: &hnd_telemetry::TraceDump, sent: &[(Command, f64)], ids: &[u64]) -> f64 {
    // Client-ring enqueue events carry (session, seq, kind); the last one
    // is the last command sent, which fixes seq ↔ send index.
    let enqueues: Vec<(u64, u64, CommandKind)> = dump
        .workers
        .iter()
        .filter(|w| w.ring == "client")
        .flat_map(|w| w.events.iter())
        .filter_map(|e| match e.kind {
            EventKind::Enqueue { cmd } => Some((e.seq, e.session, cmd)),
            _ => None,
        })
        .collect();
    let Some(&(last_seq, _, _)) = enqueues.iter().max_by_key(|e| e.0) else {
        println!("reconciliation: no enqueue events recorded");
        return 0.0;
    };
    let n = sent.len() as u64;
    let Some(base) = (last_seq + 1).checked_sub(n) else {
        return 0.0;
    };
    let aligned = enqueues.iter().all(|&(seq, session, cmd)| {
        seq < base || {
            let (command, _) = &sent[(seq - base) as usize];
            ids[command.session] == session && command_kind(command.op.kind()) == cmd
        }
    });
    if !aligned {
        println!("reconciliation: recorder sequence numbers do not line up with the sends");
        return 0.0;
    }
    #[derive(Default)]
    struct Split {
        dwell_ns: u64,
        engine_ns: u64,
        seen: bool,
    }
    let mut split: HashMap<u64, Split> = HashMap::new();
    for w in &dump.workers {
        for e in &w.events {
            if e.seq < base {
                continue;
            }
            let s = split.entry(e.seq).or_default();
            match e.kind {
                EventKind::Dequeue { dwell_ns, .. } => {
                    s.dwell_ns += dwell_ns;
                    s.seen = true;
                }
                EventKind::Patch { ns, .. }
                | EventKind::Rebuild { ns }
                | EventKind::SolveEnd { ns, .. }
                | EventKind::WalAppend { ns } => s.engine_ns += ns,
                EventKind::Reply { .. } => s.seen = true,
                _ => {}
            }
        }
    }
    // A command counts only when its reply is in the dump (the rings keep
    // the most recent events, so the oldest commands fall out).
    let replied: std::collections::HashSet<u64> = dump
        .workers
        .iter()
        .flat_map(|w| w.events.iter())
        .filter(|e| matches!(e.kind, EventKind::Reply { .. }))
        .map(|e| e.seq)
        .collect();
    /// Per-kind samples, ms: client latency, queue wait, engine span, rest.
    #[derive(Default)]
    struct Row {
        client: Vec<f64>,
        dwell: Vec<f64>,
        engine: Vec<f64>,
        rest: Vec<f64>,
    }
    let mut rows: BTreeMap<Kind, Row> = BTreeMap::new();
    let mut residuals = Vec::new();
    for (seq, s) in &split {
        if !s.seen || !replied.contains(seq) {
            continue;
        }
        let (command, client_ms) = &sent[(seq - base) as usize];
        let (kind, client_ms) = (command.op.kind(), *client_ms);
        let dwell = s.dwell_ns as f64 / 1e6;
        let engine = s.engine_ns as f64 / 1e6;
        let rest = client_ms - dwell - engine;
        let row = rows.entry(kind).or_default();
        row.client.push(client_ms);
        row.dwell.push(dwell);
        row.engine.push(engine);
        row.rest.push(rest);
        residuals.push(rest);
    }
    println!(
        "reconciliation (last {} commands in the flight recorder; medians, ms):",
        residuals.len()
    );
    println!(
        "  {:<8} {:>6} {:>10} {:>11} {:>12} {:>14}",
        "kind", "n", "client", "queue wait", "engine span", "unattributed"
    );
    for (kind, row) in &rows {
        println!(
            "  {:<8} {:>6} {:>10.4} {:>11.4} {:>12.4} {:>14.4}",
            kind.name(),
            row.client.len(),
            median(&row.client),
            median(&row.dwell),
            median(&row.engine),
            median(&row.rest)
        );
    }
    p50_or_zero(&residuals)
}

fn initial_log(input: &SessionInput) -> ResponseLog {
    let mut log = ResponseLog::new(input.users, input.items, &vec![input.options; input.items])
        .expect("valid roster");
    log.submit(input.bulk.iter().copied())
        .expect("valid bulk load");
    log
}

fn engine_opts(cfg: &workload::Config) -> EngineOpts {
    drive::server_opts(cfg).engine
}

fn solves(s: &EngineStats) -> u64 {
    s.warm_solves + s.cold_solves
}

/// Engine replicas: every command against a `RankingEngine` built from
/// the session's bulk load.
fn replay_engines(
    cfg: &workload::Config,
    inputs: &[SessionInput],
    commands: &[Command],
) -> Vec<Metric> {
    let opts = engine_opts(cfg);
    let mut engines: HashMap<usize, RankingEngine> = HashMap::new();
    let (mut submit_us, mut topk_ms, mut ranking_ms, mut catchup_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut iters_exact, mut iters_certified) = (Vec::new(), Vec::new());
    let (mut reads, mut solved_reads, mut certified_reads, mut skips) = (0u64, 0u64, 0u64, 0u64);
    for cmd in commands {
        let engine = engines.entry(cmd.session).or_insert_with(|| {
            let mut e = RankingEngine::from_log(initial_log(&inputs[cmd.session]), opts)
                .expect("engine from bulk log");
            e.current_ranking().expect("first ranking");
            e
        });
        let before = engine.stats();
        match &cmd.op {
            Op::Submit { wave, .. } => {
                span(&mut submit_us, US, || {
                    engine.submit_responses(wave.iter().copied())
                })
                .expect("replica submit");
            }
            Op::TopK { k } => {
                span(&mut topk_ms, MS, || engine.top_k(*k)).expect("replica top_k");
                reads += 1;
                certified_reads += 1;
                let after = engine.stats();
                skips += after.skipped_solves - before.skipped_solves;
                if solves(&after) > solves(&before) {
                    solved_reads += 1;
                    iters_certified.push(after.last_iterations as f64);
                }
            }
            Op::Ranking => {
                span(&mut ranking_ms, MS, || engine.current_ranking()).expect("replica ranking");
                reads += 1;
                let after = engine.stats();
                if solves(&after) > solves(&before) {
                    solved_reads += 1;
                    iters_exact.push(after.last_iterations as f64);
                }
            }
            Op::CatchUp { from, .. } => {
                let head = engine.version();
                span(&mut catchup_us, US, || {
                    engine.log().compact_range(*from, head)
                })
                .expect("replica catch-up");
            }
        }
    }
    let mut total = EngineStats::default();
    for e in engines.values() {
        total.absorb(&e.stats());
    }
    vec![
        Metric {
            name: "engine.submit_us_p50",
            value: p50_or_zero(&submit_us),
            unit: "us",
        },
        Metric {
            name: "engine.topk_ms_p50",
            value: p50_or_zero(&topk_ms),
            unit: "ms",
        },
        Metric {
            name: "engine.ranking_ms_p50",
            value: p50_or_zero(&ranking_ms),
            unit: "ms",
        },
        Metric {
            name: "engine.catchup_us_p50",
            value: p50_or_zero(&catchup_us),
            unit: "us",
        },
        Metric {
            name: "engine.solves_per_read",
            value: solved_reads as f64 / reads.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "engine.skip_ratio",
            value: skips as f64 / certified_reads.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "engine.rebuilds",
            value: total.rebuilds as f64,
            unit: "count",
        },
        Metric {
            name: "engine.early_terminations",
            value: total.early_terminations as f64,
            unit: "count",
        },
        Metric {
            name: "core.iters_exact",
            value: p50_or_zero(&iters_exact),
            unit: "count",
        },
        Metric {
            name: "core.iters_certified",
            value: p50_or_zero(&iters_certified),
            unit: "count",
        },
    ]
}

/// The kernel context of the response-layer replica.
enum Ops {
    Single(Box<ResponseOps>),
    Sharded(ShardedOps),
}

/// The edits a wave committed, as a service delta.
fn wave_delta(mirror: &Mirror, from: u64, to: u64) -> ResponseDelta {
    ResponseDelta {
        from_version: from,
        to_version: to,
        edits: mirror.history()[from as usize..to as usize]
            .iter()
            .map(|e| ResponseEdit {
                user: e.user as usize,
                item: e.item as usize,
                from: e.from,
                to: e.to,
            })
            .collect(),
    }
}

/// Response, core, linalg and shard layers on the workload's busiest
/// session: every wave it receives is patched into a replica kernel
/// context and solved warm, and one `Udiff` apply is timed on its matrix.
fn replay_response_core(
    cfg: &workload::Config,
    inputs: &[SessionInput],
    commands: &[Command],
) -> Vec<Metric> {
    let opts = engine_opts(cfg);
    let busiest = (0..inputs.len())
        .max_by(|&a, &b| inputs[a].weight.total_cmp(&inputs[b].weight))
        .expect("sessions");
    let input = &inputs[busiest];
    let mut mirror = Mirror::new(input.users, input.items, input.options);
    mirror.submit(&input.bulk);
    let mut matrix = initial_log(input).to_matrix();
    let nnz = input.bulk.len();

    let mut build_ms = Vec::new();
    for _ in 0..5 {
        span(&mut build_ms, MS, || {
            ResponseOps::with_plan(
                &matrix,
                opts.row_slack,
                opts.col_slack,
                DensityPlan::default(),
            )
        });
    }
    let plan = opts.shard_plan.filter(|p| p.activates(input.users, nnz));
    let build = |matrix: &ResponseMatrix| match plan {
        Some(plan) => Ops::Sharded(ShardedOps::from_plan(
            matrix,
            &plan,
            DensityPlan::default(),
            opts.row_slack,
            opts.col_slack,
        )),
        None => Ops::Single(Box::new(ResponseOps::with_plan(
            matrix,
            opts.row_slack,
            opts.col_slack,
            DensityPlan::default(),
        ))),
    };
    let mut ops = build(&matrix);
    let solver = HitsNDiffs::with_opts(opts.solver_opts);
    let solve = |matrix: &ResponseMatrix, ops: &Ops, warm: Option<&SolveState>| {
        match ops {
            Ops::Single(o) => solver.solve_prepared(matrix, o, warm),
            Ops::Sharded(o) => hnd_shard::solve_power(matrix, o, &opts.solver_opts, warm),
        }
        .expect("replica solve")
    };
    let mut state = solve(&matrix, &ops, None).state;
    let (mut apply_us, mut solve_ms) = (Vec::new(), Vec::new());
    let (mut solve_ns_total, mut iters_total) = (0.0f64, 0usize);
    for cmd in commands.iter().filter(|c| c.session == busiest) {
        let Op::Submit { wave, .. } = &cmd.op else {
            continue;
        };
        let from = mirror.version();
        let to = mirror.submit(wave);
        let delta = wave_delta(&mirror, from, to);
        matrix.apply_delta(&delta).expect("replica matrix patch");
        let patched = span(&mut apply_us, US, || match &mut ops {
            Ops::Single(o) => o.apply_delta(&matrix, &delta).is_ok(),
            Ops::Sharded(o) => o.apply_delta(&matrix, &delta).is_ok(),
        });
        if !patched {
            // Slack exhausted: rebuild, as the engine would.
            ops = build(&matrix);
        }
        let t = Instant::now();
        let out = solve(&matrix, &ops, Some(&state));
        let ns = t.elapsed().as_nanos() as f64;
        solve_ms.push(ns / 1e6);
        solve_ns_total += ns;
        iters_total += out.ranking.iterations;
        state = out.state;
    }

    // One Udiff apply on the unsharded context (the linalg kernels), and
    // on the sharded one when the session shards.
    let single = ResponseOps::with_plan(
        &matrix,
        opts.row_slack,
        opts.col_slack,
        DensityPlan::default(),
    );
    let m = input.users;
    let n_cols = input.items * input.options as usize;
    let x: Vec<f64> = (0..m - 1)
        .map(|i| ((i * 7919) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    let mut y = vec![0.0; m - 1];
    let reps = (20_000_000 / nnz.max(1)).clamp(20, 2000);
    let op = UDiffOp::new(&single);
    let mut udiff_us = Vec::new();
    for _ in 0..reps {
        span(&mut udiff_us, US, || {
            op.apply(std::hint::black_box(&x), &mut y)
        });
    }
    std::hint::black_box(&y);
    let udiff = median(&udiff_us);
    // Traffic model of one apply: every stored answer's index is read in
    // the row layout and in its column mirror (u32 each), and the user
    // (≈6 passes) and option-column (≈3 passes) vectors stream as f64.
    let stored = matrix.row_counts().iter().sum::<usize>();
    let bytes = (8 * stored + 8 * (6 * m + 3 * n_cols)) as f64;
    let (shard_us, shard_count) = match &ops {
        Ops::Sharded(sops) => {
            let sop = ShardedUDiffOp::new(sops);
            let mut v = Vec::new();
            for _ in 0..reps {
                span(&mut v, US, || sop.apply(std::hint::black_box(&x), &mut y));
            }
            (median(&v), sops.shard_count() as f64)
        }
        Ops::Single(_) => (0.0, 0.0),
    };
    println!(
        "response/core replica: session {busiest} ({m} users, {stored} answers, {}), \
         {} waves patched and solved, {reps} Udiff applies timed",
        if shard_count > 0.0 {
            "sharded"
        } else {
            "single-shard"
        },
        apply_us.len()
    );
    vec![
        Metric {
            name: "response.apply_delta_us_p50",
            value: p50_or_zero(&apply_us),
            unit: "us",
        },
        Metric {
            name: "response.compact_range_us_p50",
            value: compact_range_us(inputs, commands),
            unit: "us",
        },
        Metric {
            name: "response.ops_build_ms_p50",
            value: median(&build_ms),
            unit: "ms",
        },
        Metric {
            name: "core.solve_ms_p50",
            value: p50_or_zero(&solve_ms),
            unit: "ms",
        },
        Metric {
            name: "core.ns_per_iter",
            value: if iters_total == 0 {
                0.0
            } else {
                solve_ns_total / iters_total as f64
            },
            unit: "ns",
        },
        Metric {
            name: "linalg.udiff_apply_us",
            value: udiff,
            unit: "us",
        },
        Metric {
            name: "linalg.bytes_per_apply",
            value: bytes,
            unit: "B",
        },
        Metric {
            name: "linalg.apply_gb_per_s",
            value: bytes / (udiff * 1e3),
            unit: "GB/s",
        },
        Metric {
            name: "shard.udiff_apply_us",
            value: shard_us,
            unit: "us",
        },
        Metric {
            name: "shard.count",
            value: shard_count,
            unit: "count",
        },
    ]
}

/// `ResponseLog::compact_range` on plain log replicas, for every catch-up.
fn compact_range_us(inputs: &[SessionInput], commands: &[Command]) -> f64 {
    let mut logs: HashMap<usize, ResponseLog> = HashMap::new();
    let mut samples = Vec::new();
    for cmd in commands {
        let log = logs
            .entry(cmd.session)
            .or_insert_with(|| initial_log(&inputs[cmd.session]));
        match &cmd.op {
            Op::Submit { wave, .. } => {
                log.submit(wave.iter().copied())
                    .expect("replica log submit");
            }
            Op::CatchUp { from, .. } => {
                let head = log.version();
                span(&mut samples, US, || log.compact_range(*from, head))
                    .expect("replica compact_range");
            }
            _ => {}
        }
    }
    p50_or_zero(&samples)
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Store layer (store-backed workload only): the stream's commands against
/// a `SessionStore` replica — submits ship the log tail (`sync_from`),
/// catch-ups read the WAL, and touches beyond `STORE_RESIDENT` loaded
/// sessions spill the least recently used one and load the touched one.
fn replay_store(
    cfg: &workload::Config,
    inputs: &[SessionInput],
    commands: &[Command],
) -> Result<Vec<Metric>, String> {
    let names = [
        ("store.sync_us_p50", "us"),
        ("store.fsyncs_per_frame", "ratio"),
        ("store.load_ms_p50", "ms"),
        ("store.replayed_edits_per_load", "count"),
        ("store.catchup_us_p50", "us"),
        ("store.disk_bytes_per_edit", "B"),
        ("store.spill_ms_p50", "ms"),
    ];
    if !cfg.store {
        return Ok(names
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: 0.0,
                unit,
            })
            .collect());
    }
    let dir = crate::fresh_store_dir("replica")?;
    let store = SessionStore::open(&dir, drive::store_opts()).map_err(|e| e.to_string())?;
    let mut logs: Vec<Option<ResponseLog>> = Vec::new();
    for (s, input) in inputs.iter().enumerate() {
        let log = initial_log(input);
        store.register(s as u64, &log).map_err(|e| e.to_string())?;
        store.spill(s as u64, &log).map_err(|e| e.to_string())?;
        logs.push(None);
    }
    let base = store.stats();
    let (mut sync_us, mut load_ms, mut catchup_us, mut spill_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut lru: VecDeque<usize> = VecDeque::new();
    for cmd in commands {
        let s = cmd.session;
        if let Op::CatchUp { from, .. } = &cmd.op {
            span(&mut catchup_us, US, || store.catch_up(s as u64, *from))
                .map_err(|e| e.to_string())?;
            continue;
        }
        if logs[s].is_none() {
            let (log, _) =
                span(&mut load_ms, MS, || store.load(s as u64)).map_err(|e| e.to_string())?;
            logs[s] = Some(log);
            lru.push_back(s);
            if lru.len() > STORE_RESIDENT {
                let cold = lru.pop_front().expect("non-empty");
                let log = logs[cold].take().expect("resident");
                span(&mut spill_ms, MS, || store.spill(cold as u64, &log))
                    .map_err(|e| e.to_string())?;
            }
        } else if let Some(pos) = lru.iter().position(|&x| x == s) {
            lru.remove(pos);
            lru.push_back(s);
        }
        if let Op::Submit { wave, .. } = &cmd.op {
            let log = logs[s].as_mut().expect("loaded above");
            log.submit(wave.iter().copied())
                .map_err(|e| e.to_string())?;
            span(&mut sync_us, US, || store.sync_from(s as u64, log)).map_err(|e| e.to_string())?;
        }
    }
    store.flush_all().map_err(|e| e.to_string())?;
    let st = store.stats();
    let disk = dir_bytes(&dir);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let frames = st.frames_appended - base.frames_appended;
    let loads = st.loads - base.loads;
    let values = [
        p50_or_zero(&sync_us),
        (st.fsyncs - base.fsyncs) as f64 / frames.max(1) as f64,
        p50_or_zero(&load_ms),
        (st.replayed_edits - base.replayed_edits) as f64 / loads.max(1) as f64,
        p50_or_zero(&catchup_us),
        disk as f64 / st.edits_appended.max(1) as f64,
        p50_or_zero(&spill_ms),
    ];
    Ok(names
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect())
}

/// Nanoseconds per `TelemetryHub::record` on an enabled hub.
fn record_cost_ns() -> f64 {
    let hub = TelemetryHub::new(2, true);
    let n = 200_000u64;
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..n {
            hub.record(
                0,
                i & 63,
                i,
                EventKind::Enqueue {
                    cmd: CommandKind::Submit,
                },
            );
        }
        per_call.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&per_call)
}
