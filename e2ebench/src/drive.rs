//! Drives a `SessionServer` through its public client API: set-up, the
//! fixed-rate (open-loop) phase, the saturation (closed-loop) phase and
//! the end-of-run answer checks.

use crate::mirror::Mirror;
use crate::reference::{self, Timeline};
use crate::sys::{self, median, quantile};
use crate::workload::{Command, CommandStream, Config, Kind, Op, SessionInput};
use hnd_service::{
    EngineOpts, FlushPolicy, Ranking, Reply, ResponseDelta, ServerError, ServerOpts, SessionId,
    SessionServer, SessionStore, ShardPlan, StoreOpts,
};
use std::path::Path;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Blocking reply waiters of the fixed-rate phase beyond the commands of
/// the largest arrival. Each reply is observed by a thread parked on it (no
/// polling quantum); a reply is observed late only while every waiter is
/// parked on an older, slower one, which the run report counts as a
/// pickup lag.
pub const SPARE_WAITERS: usize = 6;
/// Pickup lag beyond which a reply counts as queued behind busy waiters.
const PICKUP_LAG_MS: f64 = 0.5;

pub fn server_opts(cfg: &Config) -> ServerOpts {
    ServerOpts {
        idle_threshold: cfg.idle_threshold,
        engine: EngineOpts {
            shard_plan: cfg.shard.then(ShardPlan::default),
            ..EngineOpts::default()
        },
        ..ServerOpts::default()
    }
}

/// The store options of the store-backed workload: defaults but for
/// `FlushPolicy::Os`. Group-commit fsyncs (0.2–1.5 ms each on the shared
/// virtio disk of a 2-vCPU VM) made every end-to-end figure follow the
/// disk; spills still fsync whatever the policy.
pub fn store_opts() -> StoreOpts {
    StoreOpts {
        flush: FlushPolicy::Os,
        ..StoreOpts::default()
    }
}

pub fn open_server(cfg: &Config, store_dir: Option<&Path>) -> Result<SessionServer, String> {
    Ok(match store_dir {
        Some(dir) => {
            let store = SessionStore::open(dir, store_opts())
                .map_err(|e| format!("open store {}: {e}", dir.display()))?;
            SessionServer::with_store(server_opts(cfg), Arc::new(store))
        }
        None => SessionServer::new(server_opts(cfg)),
    })
}

/// Creates, bulk-loads and first-ranks every session (then spills what the
/// idle policy lets go, on a store-backed server). Returns the server, the
/// session ids and the seconds the program spent.
pub fn setup(
    cfg: &Config,
    inputs: &[SessionInput],
    mirrors: &[Mirror],
    store_dir: Option<&Path>,
) -> Result<(SessionServer, Vec<SessionId>, f64), String> {
    let started = Instant::now();
    let srv = open_server(cfg, store_dir)?;
    let ids = inputs
        .iter()
        .map(|s| {
            srv.create_session(s.users, s.items, &vec![s.options; s.items])
                .map_err(|e| format!("create_session: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let loads: Vec<Reply<u64>> = ids
        .iter()
        .zip(inputs)
        .map(|(&id, s)| srv.submit(id, s.bulk.iter().copied()))
        .collect();
    for ((reply, m), &id) in loads.into_iter().zip(mirrors).zip(&ids) {
        let v = reply.wait().map_err(|e| format!("bulk load {id}: {e}"))?;
        if v != m.version() {
            return Err(format!(
                "bulk load {id} replied v{v}, expected v{}",
                m.version()
            ));
        }
    }
    let firsts: Vec<Reply<Ranking>> = ids.iter().map(|&id| srv.ranking(id)).collect();
    for ((reply, s), &id) in firsts.into_iter().zip(inputs).zip(&ids) {
        let r = reply
            .wait()
            .map_err(|e| format!("first ranking {id}: {e}"))?;
        if r.len() != s.users {
            return Err(format!("first ranking {id} has {} scores", r.len()));
        }
    }
    if store_dir.is_some() {
        srv.evict_idle();
    }
    Ok((srv, ids, started.elapsed().as_secs_f64()))
}

/// A sent command's pending reply.
pub enum Pending {
    Submit(Reply<u64>),
    TopK(Reply<Vec<(usize, f64)>>),
    Ranking(Reply<Ranking>),
    CatchUp(Reply<ResponseDelta>),
}

pub fn send(srv: &SessionServer, ids: &[SessionId], cmd: &Command) -> Pending {
    let id = ids[cmd.session];
    match &cmd.op {
        Op::Submit { wave, .. } => Pending::Submit(srv.submit(id, wave.iter().copied())),
        Op::TopK { k } => Pending::TopK(srv.top_k(id, *k)),
        Op::Ranking => Pending::Ranking(srv.ranking(id)),
        Op::CatchUp { from, .. } => Pending::CatchUp(srv.catch_up(id, *from)),
    }
}

/// A catch-up reply kept for the end-of-run check against the copy.
pub struct CatchUpReply {
    pub session: usize,
    pub from: u64,
    pub expect_to: u64,
    pub delta: ResponseDelta,
}

/// What waiting on one reply found.
pub enum Outcome {
    Ok,
    /// The server answered with an error (a failed operation).
    Failed(ServerError),
    /// The server answered wrongly (a failed check).
    Wrong(String),
}

/// Waits for a reply and applies the per-reply checks.
pub fn settle(
    pending: Pending,
    cmd: &Command,
    inputs: &[SessionInput],
    catch_ups: &mut Vec<CatchUpReply>,
) -> Outcome {
    let users = inputs[cmd.session].users;
    let fail = |e: ServerError| Outcome::Failed(e);
    match (pending, &cmd.op) {
        (Pending::Submit(r), Op::Submit { expect_version, .. }) => match r.wait() {
            Ok(v) if v == *expect_version => Outcome::Ok,
            Ok(v) => Outcome::Wrong(format!("submit replied v{v}, expected v{expect_version}")),
            Err(e) => fail(e),
        },
        (Pending::TopK(r), Op::TopK { k }) => match r.wait() {
            Ok(head) => {
                let distinct: std::collections::BTreeSet<usize> =
                    head.iter().map(|&(u, _)| u).collect();
                // Users with identical answer rows tie; their scores may
                // differ in the last bits, so order is checked to 1e-12.
                let sorted = head
                    .windows(2)
                    .all(|w| w[0].1 >= w[1].1 - 1e-12 * w[0].1.abs().max(w[1].1.abs()));
                if head.len() != (*k).min(users) || distinct.len() != head.len() || !sorted {
                    Outcome::Wrong(format!(
                        "top_k({k}) reply malformed (distinct {}, sorted {sorted}): {head:?}",
                        distinct.len()
                    ))
                } else if head.iter().any(|&(u, s)| u >= users || !s.is_finite()) {
                    Outcome::Wrong(format!("top_k({k}) names a user outside the roster"))
                } else {
                    Outcome::Ok
                }
            }
            Err(e) => fail(e),
        },
        (Pending::Ranking(r), Op::Ranking) => match r.wait() {
            Ok(rk) if rk.len() == users && rk.scores.iter().all(|s| s.is_finite()) => Outcome::Ok,
            Ok(rk) => Outcome::Wrong(format!("ranking has {} scores for {users} users", rk.len())),
            Err(e) => fail(e),
        },
        (Pending::CatchUp(r), Op::CatchUp { from, expect_to }) => match r.wait() {
            Ok(delta) => {
                catch_ups.push(CatchUpReply {
                    session: cmd.session,
                    from: *from,
                    expect_to: *expect_to,
                    delta,
                });
                Outcome::Ok
            }
            Err(e) => fail(e),
        },
        _ => unreachable!("pending reply kind follows the command"),
    }
}

/// Per-phase tallies.
#[derive(Default)]
pub struct Tally {
    pub attempted: [u64; 4],
    pub failed: [u64; 4],
    pub latency_ms: [Vec<f64>; 4],
    pub wrong: Vec<String>,
    pub catch_ups: Vec<CatchUpReply>,
}

impl Tally {
    fn record(&mut self, kind: Kind, outcome: Outcome, latency_ms: f64) {
        let k = kind.index();
        self.attempted[k] += 1;
        match outcome {
            Outcome::Ok => self.latency_ms[k].push(latency_ms),
            Outcome::Failed(e) => {
                self.failed[k] += 1;
                if self.failed[k] <= 8 {
                    eprintln!("{} failed: {e}", kind.name());
                }
            }
            Outcome::Wrong(why) => {
                self.latency_ms[k].push(latency_ms);
                self.wrong.push(why);
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        for k in 0..4 {
            self.attempted[k] += other.attempted[k];
            self.failed[k] += other.failed[k];
            self.latency_ms[k].extend(other.latency_ms[k].iter().copied());
        }
        self.wrong.extend(other.wrong);
        self.catch_ups.extend(other.catch_ups);
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }
}

pub struct OpenLoop {
    /// Every command of the phase, warm-up included.
    pub tally: Tally,
    /// Generator lateness behind the schedule, ms per command.
    pub lateness_ms: Vec<f64>,
    pub wall_s: f64,
    /// Replies that waited more than `PICKUP_LAG_MS` for a free waiter.
    pub queued_observations: u64,
    /// Longest wait of a reply for a free waiter, ms.
    pub max_pickup_lag_ms: f64,
    /// The commands sent, in send order, with each one's scheduled time
    /// (s from the phase start) and client latency (ms). The traced run
    /// replays them and matches them to the server's flight-recorder
    /// sequence numbers.
    pub commands: Vec<(Command, f64, f64)>,
    /// Program CPU seconds and commands scheduled, per measured window.
    pub cpu_windows: Vec<(f64, u64)>,
    /// Highest resident set sampled at the window boundaries, MiB.
    pub rss_max_mib: f64,
}

/// Threads of the benchmark itself whose CPU time is not the program's.
struct BenchThreads(Mutex<Vec<i32>>);

impl BenchThreads {
    fn register(&self) {
        self.0
            .lock()
            .expect("thread list poisoned")
            .push(sys::current_tid());
    }

    /// CPU time of the program's threads so far: the whole process minus
    /// every registered benchmark thread.
    fn program_cpu(&self) -> f64 {
        let process = sys::process_cpu();
        let bench: Duration = self
            .0
            .lock()
            .expect("thread list poisoned")
            .iter()
            .map(|&tid| sys::thread_cpu_of(tid))
            .sum();
        process.saturating_sub(bench).as_secs_f64()
    }
}

/// Sleeps until `at`.
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if now < at {
        std::thread::sleep(at - now);
    }
}

/// The fixed-rate phase: `duration` of the stream's arrivals, one every
/// `1 / arrivals` seconds, every command timed from its arrival's
/// scheduled time to when its reply is seen. A fixed period, not
/// exponential gaps: with Poisson arrivals a random share of commands
/// queued behind the previous one's solve, and a kind's median jumped
/// between the queued and the unqueued mode from run to run.
/// After `warmup` seconds the phase is cut into `windows` equal windows;
/// the program's CPU time is sampled at each window boundary.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    srv: &SessionServer,
    ids: &[SessionId],
    inputs: &[SessionInput],
    mirrors: &mut [Mirror],
    stream: &mut CommandStream,
    arrival_max: usize,
    arrivals: f64,
    warmup: f64,
    duration: f64,
    windows: usize,
) -> OpenLoop {
    // The schedule is drawn before the clock starts; the commands of one
    // arrival share its due time.
    let mut schedule: Vec<(f64, Command)> = Vec::new();
    let period = 1.0 / arrivals;
    let mut t = period;
    while t < duration {
        for cmd in stream.arrival(inputs, mirrors) {
            schedule.push((t, cmd));
        }
        t += period;
    }
    let n = schedule.len();
    let (tx, rx) = channel::<(usize, Instant, Instant, Pending)>();
    let rx = Mutex::new(rx);
    let (done_tx, done_rx) = channel::<()>();
    let bench = BenchThreads(Mutex::new(Vec::new()));
    bench.register();
    let wall0 = Instant::now();
    let start = wall0 + Duration::from_millis(20);
    let owned = schedule;
    let schedule = &owned;
    let bench = &bench;
    let (tallies, lateness, lags, cpu_marks) = std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..arrival_max + SPARE_WAITERS)
            .map(|_| {
                let rx = &rx;
                scope.spawn(move || {
                    bench.register();
                    let mut tally = Tally::default();
                    let mut seen: Vec<(usize, f64)> = Vec::new();
                    let mut lags: Vec<f64> = Vec::new();
                    loop {
                        let job = rx.lock().expect("waiter queue poisoned").recv();
                        let Ok((idx, due, sent, pending)) = job else {
                            break;
                        };
                        lags.push(sent.elapsed().as_secs_f64() * 1e3);
                        let cmd = &schedule[idx].1;
                        let outcome = settle(pending, cmd, inputs, &mut tally.catch_ups);
                        let ms = due.elapsed().as_secs_f64() * 1e3;
                        tally.record(cmd.op.kind(), outcome, ms);
                        seen.push((idx, ms));
                    }
                    (tally, seen, lags)
                })
            })
            .collect();
        let generator = scope.spawn(move || {
            bench.register();
            let mut late = Vec::with_capacity(n);
            for (idx, (at, cmd)) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(*at);
                // A plain sleep: its overshoot (the timer slack, reported
                // as lateness) is counted in every latency. Spinning out
                // the slack instead measured steadier lateness but far
                // less steady latencies on a 2-vCPU guest.
                sleep_until(due);
                late.push(due.elapsed().as_secs_f64() * 1e3);
                let sent = Instant::now();
                let pending = send(srv, ids, cmd);
                tx.send((idx, due, sent, pending)).expect("waiters alive");
            }
            // Stay registered until the last CPU sample is taken.
            let _ = done_rx.recv();
            drop(tx);
            late
        });
        let span = (duration - warmup) / windows as f64;
        let cpu_marks: Vec<(f64, f64)> = (0..=windows)
            .map(|w| {
                sleep_until(start + Duration::from_secs_f64(warmup + w as f64 * span));
                (bench.program_cpu(), sys::rss_mib())
            })
            .collect();
        done_tx.send(()).expect("generator alive");
        let late = generator.join().expect("generator panicked");
        let mut tallies = Vec::new();
        let mut lags = Vec::new();
        for w in waiters {
            let (tally, seen, lag) = w.join().expect("waiter panicked");
            tallies.push((tally, seen));
            lags.extend(lag);
        }
        (tallies, late, lags, cpu_marks)
    });
    let wall_s = wall0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut latency = vec![0.0; n];
    for (t, seen) in tallies {
        for (idx, ms) in seen {
            latency[idx] = ms;
        }
        tally.absorb(t);
    }
    let span = (duration - warmup) / windows as f64;
    let cpu_windows = (0..windows)
        .map(|w| {
            let lo = warmup + w as f64 * span;
            let sent = owned
                .iter()
                .filter(|(at, _)| *at >= lo && *at < lo + span)
                .count() as u64;
            (cpu_marks[w + 1].0 - cpu_marks[w].0, sent)
        })
        .collect();
    let rss_max_mib = cpu_marks.iter().map(|m| m.1).fold(0.0, f64::max);
    let commands = owned
        .into_iter()
        .zip(latency)
        .map(|((at, cmd), ms)| (cmd, at, ms))
        .collect();
    OpenLoop {
        tally,
        lateness_ms: lateness,
        wall_s,
        queued_observations: lags.iter().filter(|&&l| l > PICKUP_LAG_MS).count() as u64,
        max_pickup_lag_ms: quantile(&lags, 1.0),
        commands,
        cpu_windows,
        rss_max_mib,
    }
}

pub struct ClosedLoop {
    pub tally: Tally,
    pub completed: u64,
    pub wall_s: f64,
    /// Commands completed per second, per window.
    pub window_rates: Vec<f64>,
    /// Highest resident set sampled at the window boundaries, MiB.
    pub rss_max_mib: f64,
}

/// The saturation phase: `clients` threads each draw the stream's next
/// arrival, send all its commands and wait for their replies, until
/// `duration` has passed. An arrival goes out whole, as in the fixed-rate
/// phase, so a burst does not cost one client round trip per command.
/// Drawing and sending happen under one lock, so every session still
/// receives its commands in stream order. Completions are counted per
/// window.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    srv: &SessionServer,
    ids: &[SessionId],
    inputs: &[SessionInput],
    mirrors: &mut [Mirror],
    stream: &mut CommandStream,
    clients: usize,
    duration: f64,
    windows: usize,
) -> ClosedLoop {
    let shared = Mutex::new((stream, mirrors));
    let completed = std::sync::atomic::AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(duration);
    let (tallies, marks) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let shared = &shared;
                let completed = &completed;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let (arrival, pending, sent) = {
                            let mut guard = shared.lock().expect("stream lock poisoned");
                            let (stream, mirrors) = &mut *guard;
                            let arrival = stream.arrival(inputs, mirrors);
                            let sent = Instant::now();
                            let pending: Vec<Pending> =
                                arrival.iter().map(|cmd| send(srv, ids, cmd)).collect();
                            (arrival, pending, sent)
                        };
                        for (cmd, pending) in arrival.iter().zip(pending) {
                            let outcome = settle(pending, cmd, inputs, &mut tally.catch_ups);
                            if matches!(outcome, Outcome::Ok) {
                                completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            let ms = sent.elapsed().as_secs_f64() * 1e3;
                            tally.record(cmd.op.kind(), outcome, ms);
                        }
                    }
                    tally
                })
            })
            .collect();
        let span = duration / windows as f64;
        let marks: Vec<(u64, f64)> = (0..=windows)
            .map(|w| {
                sleep_until(started + Duration::from_secs_f64(w as f64 * span));
                (
                    completed.load(std::sync::atomic::Ordering::Relaxed),
                    sys::rss_mib(),
                )
            })
            .collect();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect();
        (tallies, marks)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for t in tallies {
        tally.absorb(t);
    }
    let span = duration / windows as f64;
    let window_rates = marks
        .windows(2)
        .map(|m| (m[1].0 - m[0].0) as f64 / span)
        .collect();
    ClosedLoop {
        completed: tally.total_attempted() - tally.total_failed(),
        tally,
        wall_s,
        window_rates,
        rss_max_mib: marks.iter().map(|m| m.1).fold(0.0, f64::max),
    }
}

/// End-of-run answer checks. Returns the mean Spearman of the IRT
/// sessions' exact rankings against their generating abilities.
pub fn final_checks(
    srv: &SessionServer,
    ids: &[SessionId],
    inputs: &[SessionInput],
    mirrors: &[Mirror],
    catch_ups: &[CatchUpReply],
    wrong: &mut Vec<String>,
) -> f64 {
    let mut spearmans = Vec::new();
    let mut worst_ref: f64 = 1.0;
    for (s, (input, mirror)) in inputs.iter().zip(mirrors).enumerate() {
        let id = ids[s];
        let mut fail = |why: String| wrong.push(format!("session {s}: {why}"));
        match srv.session_log(id).wait() {
            Ok(log) => {
                if let Err(e) = reference::check_log(&log, mirror) {
                    fail(e);
                }
            }
            Err(e) => fail(format!("session_log: {e}")),
        }
        let served = match srv.ranking(id).wait() {
            Ok(r) => r,
            Err(e) => {
                fail(format!("final ranking: {e}"));
                continue;
            }
        };
        let certified = srv.top_k(id, input.k).wait();
        if input.is_witness() {
            if let Err(e) = reference::check_c1p(&served.scores, input.abilities(), mirror) {
                fail(e);
            }
            continue;
        }
        spearmans.push(sys::spearman(&served.scores, input.abilities()));
        let reference = reference::solve(mirror);
        if !reference.converged {
            fail(format!(
                "reference did not converge in {} iterations",
                reference.iterations
            ));
            continue;
        }
        match reference::check_ranking(&served.scores, &reference, input.k) {
            Ok(rho) => worst_ref = worst_ref.min(rho),
            Err(e) => fail(format!("exact ranking: {e}")),
        }
        match certified {
            Ok(head) => {
                let users: Vec<usize> = head.iter().map(|&(u, _)| u).collect();
                let oriented = reference.oriented_for(&served.scores);
                if let Err(e) = reference::check_top_k(&users, &oriented, input.k) {
                    fail(format!("certified top_k: {e}"));
                }
            }
            Err(e) => fail(format!("certified top_k: {e}")),
        }
    }
    let mut by_session: Vec<Vec<&CatchUpReply>> = vec![Vec::new(); inputs.len()];
    for c in catch_ups {
        by_session[c.session].push(c);
    }
    for (s, replies) in by_session.iter().enumerate() {
        if replies.is_empty() {
            continue;
        }
        let timeline = Timeline::new(&mirrors[s]);
        for c in replies {
            if let Err(e) =
                reference::check_catch_up(&c.delta, c.from, c.expect_to, &mirrors[s], &timeline)
            {
                wrong.push(format!("session {s}: {e}"));
            }
        }
    }
    println!(
        "checks: {} sessions against the reference (worst Spearman {worst_ref:.5}), \
         {} catch-up deltas replayed on the copy",
        spearmans.len(),
        catch_ups.len()
    );
    println!(
        "quality: Spearman against the generating abilities, per session: min {:.4} \
         median {:.4} max {:.4}; first sessions {:?}",
        sys::quantile(&spearmans, 0.0),
        sys::median(&spearmans),
        sys::quantile(&spearmans, 1.0),
        spearmans
            .iter()
            .take(5)
            .map(|v| (v * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    spearmans.iter().sum::<f64>() / spearmans.len().max(1) as f64
}

/// Reopens a store directory in a fresh server and checks that every
/// session's log holds every acknowledged edit.
pub fn reopen_check(
    cfg: &Config,
    dir: &Path,
    ids: &[SessionId],
    mirrors: &[Mirror],
    wrong: &mut Vec<String>,
) {
    let srv = match open_server(cfg, Some(dir)) {
        Ok(s) => s,
        Err(e) => {
            wrong.push(format!("reopen: {e}"));
            return;
        }
    };
    for (s, (&id, mirror)) in ids.iter().zip(mirrors).enumerate() {
        match srv.session_log(id).wait() {
            Ok(log) => {
                if let Err(e) = reference::check_log(&log, mirror) {
                    wrong.push(format!("reopened session {s}: {e}"));
                }
            }
            Err(e) => wrong.push(format!("reopened session {s}: {e}")),
        }
    }
    println!(
        "checks: store reopened in a fresh server, {} session logs recovered",
        ids.len()
    );
}

/// Prints the per-kind report lines of one phase.
pub fn report(phase: &str, tally: &Tally) {
    for kind in Kind::ALL {
        let k = kind.index();
        let lat = &tally.latency_ms[k];
        let tail = sys::supported_tail(lat)
            .map(|(label, v)| format!(" {label} {v:.3} ms (informational)"))
            .unwrap_or_default();
        println!(
            "  {phase:<6} {:<8} attempted {:>6} failed {:>3}  p25 {:>8.3} p50 {:>8.3} p75 {:>8.3} ms \
             over {:>6} samples{tail}",
            kind.name(),
            tally.attempted[k],
            tally.failed[k],
            quantile(lat, 0.25),
            median(lat),
            quantile(lat, 0.75),
            lat.len(),
        );
    }
}
