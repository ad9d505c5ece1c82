//! Seeded workload inputs: session rosters drawn from `hnd-irt` models
//! with known abilities, an ideal consecutive-ones witness, and the one
//! command stream every phase of a run consumes in order.
//!
//! Everything here is a function of the workload and the seed alone. The
//! program receives only the generated answers; the abilities stay with
//! the benchmark as the truth rankings are scored against.

use crate::mirror::Mirror;
use hnd_irt::{PolytomousModel, SamejimaItem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClassroomFleet,
    CohortLeaderboard,
    DurableChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "classroom_fleet" => Some(Workload::ClassroomFleet),
            "cohort_leaderboard" => Some(Workload::CohortLeaderboard),
            "durable_churn" => Some(Workload::DurableChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassroomFleet => "classroom_fleet",
            Workload::CohortLeaderboard => "cohort_leaderboard",
            Workload::DurableChurn => "durable_churn",
        }
    }

    /// The workload's fixed shape. Sizes, rates and cycles are documented
    /// (with the reasons for them) in the benchmark README.
    pub fn config(self) -> Config {
        match self {
            Workload::ClassroomFleet => Config {
                groups: vec![Group {
                    sessions: 120,
                    users: (300, 700),
                    items: 30,
                    options: 4,
                    answer_prob: 0.6,
                    wave: 8,
                    k: 10,
                    weight: Popularity::Zipf(0.8),
                    cycle: &CLASSROOM_CYCLE,
                    burst: 1,
                }],
                witness_weight: 0.01,
                round: 32,
                arrivals: 25.0,
                clients: 4,
                store: false,
                idle_threshold: None,
                shard: false,
            },
            Workload::CohortLeaderboard => Config {
                groups: vec![
                    Group {
                        sessions: 1,
                        users: (24_000, 24_000),
                        items: 50,
                        options: 4,
                        answer_prob: 0.7,
                        wave: 64,
                        k: 100,
                        weight: Popularity::Total(0.9),
                        cycle: &LEADERBOARD_CYCLE,
                        burst: 16,
                    },
                    Group {
                        sessions: 8,
                        users: (300, 300),
                        items: 30,
                        options: 4,
                        answer_prob: 0.6,
                        wave: 8,
                        k: 10,
                        weight: Popularity::Total(0.08),
                        cycle: &CLASSROOM_CYCLE,
                        burst: 1,
                    },
                ],
                witness_weight: 0.02,
                round: 1,
                arrivals: 15.0,
                clients: 4,
                store: false,
                idle_threshold: None,
                shard: true,
            },
            Workload::DurableChurn => Config {
                groups: vec![Group {
                    sessions: 96,
                    users: (150, 400),
                    items: 30,
                    options: 4,
                    answer_prob: 0.6,
                    wave: 8,
                    k: 10,
                    weight: Popularity::Zipf(0.7),
                    cycle: &CLASSROOM_CYCLE,
                    burst: 1,
                }],
                witness_weight: 0.01,
                round: 16,
                arrivals: 25.0,
                clients: 4,
                store: true,
                idle_threshold: Some(2048),
                shard: false,
            },
        }
    }
}

/// How a group's sessions share the traffic.
#[derive(Debug, Clone, Copy)]
pub enum Popularity {
    /// Zipf over the group's sessions with this exponent (weight of the
    /// r-th session ∝ 1/(r+1)^s), the whole group weighing 1 − witness.
    Zipf(f64),
    /// The group's sessions split this total weight evenly.
    Total(f64),
}

#[derive(Debug, Clone)]
pub struct Group {
    pub sessions: usize,
    /// Roster size range (inclusive), drawn uniformly per session.
    pub users: (usize, usize),
    pub items: usize,
    pub options: u16,
    /// Share of cells answered by the bulk load.
    pub answer_prob: f64,
    /// Answers per submit wave.
    pub wave: usize,
    /// `k` of this group's `top_k` reads.
    pub k: usize,
    pub weight: Popularity,
    /// The command kinds each session of the group cycles through.
    pub cycle: &'static [Kind],
    /// Single arrivals: commands a session of the group receives at once
    /// when its cycle comes to a submit or a catch-up (consecutive waves,
    /// or clients catching up from different versions).
    pub burst: usize,
}

/// A classroom's cycle: 40% answer waves, 20% each of certified `top_k`,
/// exact `ranking` and `catch_up`. Every read follows a fresh wave, so
/// each read of a kind does the same work (patch, then solve or skip)
/// instead of sometimes hitting the cache the previous read left.
const CLASSROOM_CYCLE: [Kind; 5] = [
    Kind::Submit,
    Kind::TopK,
    Kind::Submit,
    Kind::Ranking,
    Kind::CatchUp,
];

/// The cohort's leaderboard cycle: each wave is followed by a polled
/// certified `top_k`, with one exact `ranking` export and one client
/// catch-up per three waves. The catch-up follows a submit, not a solve,
/// so it rarely queues behind a 20 ms solve.
const LEADERBOARD_CYCLE: [Kind; 7] = [
    Kind::Submit,
    Kind::TopK,
    Kind::Submit,
    Kind::TopK,
    Kind::Submit,
    Kind::CatchUp,
    Kind::Ranking,
];

/// The consecutive-ones witness keeps its ideal answers: reads only.
const WITNESS_CYCLE: [Kind; 2] = [Kind::Ranking, Kind::TopK];

#[derive(Debug, Clone)]
pub struct Config {
    pub groups: Vec<Group>,
    /// Traffic share of the consecutive-ones witness session (single
    /// arrivals only; rounds leave the witness to the end-of-run checks).
    pub witness_weight: f64,
    /// Commands per arrival. 1: single commands (or a group's bursts),
    /// each session stepping through its own cycle. More: rounds of that
    /// many commands of one kind to distinct sessions, all due at the same
    /// instant (see [`CommandStream`]).
    pub round: usize,
    /// Offered load of the fixed-rate phase: arrivals per second, one
    /// every `1 / arrivals` seconds.
    pub arrivals: f64,
    /// Client threads of the closed-loop phase.
    pub clients: usize,
    /// Store-backed server (`SessionServer::with_store`).
    pub store: bool,
    /// Idle-eviction threshold in manager ticks.
    pub idle_threshold: Option<u64>,
    /// Pin `ShardPlan::default()` in the engine options.
    pub shard: bool,
}

impl Config {
    /// The most commands one arrival can carry.
    pub fn arrival_max(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.burst)
            .fold(self.round, usize::max)
    }
}

/// What generates a session's answers.
pub enum Truth {
    /// Samejima multiple-choice items and the users' abilities.
    Irt {
        items: Vec<SamejimaItem>,
        abilities: Vec<f64>,
    },
    /// The ideal consecutive-ones witness (`hnd_irt::generate_c1p`).
    C1p { abilities: Vec<f64> },
}

/// One generated session.
pub struct SessionInput {
    pub users: usize,
    pub items: usize,
    pub options: u16,
    pub wave: usize,
    pub k: usize,
    pub weight: f64,
    pub cycle: &'static [Kind],
    pub burst: usize,
    pub truth: Truth,
    /// The bulk load, one `(user, item, choice)` per answered cell.
    pub bulk: Vec<(usize, usize, Option<u16>)>,
}

impl SessionInput {
    pub fn abilities(&self) -> &[f64] {
        match &self.truth {
            Truth::Irt { abilities, .. } | Truth::C1p { abilities } => abilities,
        }
    }

    pub fn is_witness(&self) -> bool {
        matches!(self.truth, Truth::C1p { .. })
    }
}

/// Samejima item with sorted per-option slopes `U[0, 10]` and intercepts
/// `−a·U[−0.5, 0.5]` (the paper's default generator).
fn samejima_item(options: u16, rng: &mut StdRng) -> SamejimaItem {
    let mut slopes: Vec<f64> = (0..options).map(|_| rng.gen::<f64>() * 10.0).collect();
    slopes.sort_by(f64::total_cmp);
    let intercepts = slopes
        .iter()
        .map(|&a| -a * (rng.gen::<f64>() - 0.5))
        .collect();
    SamejimaItem::new(slopes, intercepts)
}

fn draw_choice(item: &SamejimaItem, theta: f64, probs: &mut [f64], rng: &mut StdRng) -> u16 {
    item.option_probs(theta, probs);
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (h, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return h as u16;
        }
    }
    (probs.len() - 1) as u16
}

/// Generates every session of a workload (the witness last). The fleet's
/// shape — roster sizes and item banks — is fixed, like an exam set; the
/// seed draws the users' abilities, their answers and the witness. Runs
/// on different seeds then serve the same amount of work, which keeps
/// seed-to-seed spread down to what the answers themselves change.
pub fn sessions(cfg: &Config, seed: u64) -> Vec<SessionInput> {
    let mut shape = StdRng::seed_from_u64(0x5EA7_5EED);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55_1025);
    let mut out = Vec::new();
    for g in &cfg.groups {
        let zipf_total: f64 = match g.weight {
            Popularity::Zipf(s) => (0..g.sessions)
                .map(|r| 1.0 / (r as f64 + 1.0).powf(s))
                .sum(),
            Popularity::Total(_) => 1.0,
        };
        for r in 0..g.sessions {
            let users = shape.gen_range(g.users.0..g.users.1 + 1);
            let items: Vec<SamejimaItem> = (0..g.items)
                .map(|_| samejima_item(g.options, &mut shape))
                .collect();
            let abilities: Vec<f64> = (0..users).map(|_| rng.gen::<f64>()).collect();
            let mut probs = vec![0.0; g.options as usize];
            let mut bulk = Vec::new();
            for (u, &theta) in abilities.iter().enumerate() {
                for (i, item) in items.iter().enumerate() {
                    if rng.gen::<f64>() < g.answer_prob {
                        bulk.push((u, i, Some(draw_choice(item, theta, &mut probs, &mut rng))));
                    }
                }
            }
            let weight = match g.weight {
                Popularity::Zipf(s) => {
                    (1.0 - cfg.witness_weight) / (r as f64 + 1.0).powf(s) / zipf_total
                }
                Popularity::Total(t) => t / g.sessions as f64,
            };
            out.push(SessionInput {
                users,
                items: g.items,
                options: g.options,
                wave: g.wave,
                k: g.k,
                weight,
                cycle: g.cycle,
                burst: g.burst,
                truth: Truth::Irt { items, abilities },
                bulk,
            });
        }
    }
    let c1p = hnd_irt::generate_c1p(160, 24, 3, &mut rng);
    let bulk = c1p
        .responses
        .iter_choices()
        .map(|(u, i, o)| (u, i, Some(o)))
        .collect();
    out.push(SessionInput {
        users: 160,
        items: 24,
        options: 3,
        wave: 0,
        k: 10,
        weight: cfg.witness_weight,
        cycle: &WITNESS_CYCLE,
        burst: 1,
        truth: Truth::C1p {
            abilities: c1p.abilities,
        },
        bulk,
    });
    out
}

/// The command kinds the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Submit,
    TopK,
    Ranking,
    CatchUp,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Submit, Kind::TopK, Kind::Ranking, Kind::CatchUp];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Submit => "submit",
            Kind::TopK => "top_k",
            Kind::Ranking => "ranking",
            Kind::CatchUp => "catch_up",
        }
    }
}

/// One command with everything needed to check its reply.
pub enum Op {
    /// A wave of answers; the reply must be `expect_version`.
    Submit {
        wave: Vec<(usize, usize, Option<u16>)>,
        expect_version: u64,
    },
    TopK {
        k: usize,
    },
    Ranking,
    /// Catch-up from `from`; the head when sent is `expect_to`.
    CatchUp {
        from: u64,
        expect_to: u64,
    },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Submit { .. } => Kind::Submit,
            Op::TopK { .. } => Kind::TopK,
            Op::Ranking => Kind::Ranking,
            Op::CatchUp { .. } => Kind::CatchUp,
        }
    }
}

pub struct Command {
    /// Index into the workload's session list.
    pub session: usize,
    pub op: Op,
}

/// The workload's single seeded command stream, drawn as arrivals.
///
/// With single arrivals (`round` 1) each arrival goes to one session drawn
/// by popularity, the kind set by the session's cycle: one command, or the
/// group's `burst` of them for a submit or a catch-up. With rounds, each
/// arrival is `round` commands of one kind, to distinct sessions drawn by
/// popularity, stepping through [`ROUND_CYCLE`]: a submit round draws a
/// fresh set of sessions and sends each a wave; the read round after it
/// (certified `top_k` or exact `ranking`) reads that same set, so every
/// read follows its session's fresh wave; a catch-up round draws a fresh
/// set. Every command is applied to the benchmark's copy when drawn (waves
/// from the session's model), so the stream — and with it every session's
/// command sequence and expected replies — is a function of the seed
/// alone, whatever the timing of the run.
pub struct CommandStream {
    rng: StdRng,
    cumulative: Vec<f64>,
    probs: Vec<f64>,
    /// Commands per arrival.
    round: usize,
    /// Single arrivals: commands drawn so far per session (position in
    /// its cycle). Rounds: `drawn[0]` counts rounds.
    drawn: Vec<usize>,
    /// Rounds: the sessions of the last submit round.
    fresh: Vec<usize>,
}

/// The kinds rounds step through: 40% answer waves, 20% each of certified
/// `top_k`, exact `ranking` and `catch_up`, as in a classroom's own cycle.
const ROUND_CYCLE: [Kind; 5] = CLASSROOM_CYCLE;

impl CommandStream {
    pub fn new(inputs: &[SessionInput], seed: u64, round: usize) -> Self {
        let mut acc = 0.0;
        let cumulative = inputs
            .iter()
            .map(|s| {
                acc += s.weight;
                acc
            })
            .collect();
        let round = round.max(1);
        if round > 1 {
            let irt = inputs.iter().filter(|s| !s.is_witness()).count();
            assert!(round <= irt, "a round of {round} needs as many sessions");
        }
        CommandStream {
            rng: StdRng::seed_from_u64(seed ^ 0xC0_11A5D),
            cumulative,
            probs: vec![0.0; 16],
            round,
            drawn: vec![0; inputs.len()],
            fresh: Vec::new(),
        }
    }

    /// Draws the next arrival's commands and applies them to `mirrors`.
    pub fn arrival(&mut self, inputs: &[SessionInput], mirrors: &mut [Mirror]) -> Vec<Command> {
        if self.round == 1 {
            let session = self.pick(inputs);
            let input = &inputs[session];
            let kind = input.cycle[self.drawn[session] % input.cycle.len()];
            self.drawn[session] += 1;
            let n = match kind {
                Kind::Submit | Kind::CatchUp => input.burst,
                Kind::TopK | Kind::Ranking => 1,
            };
            return (0..n)
                .map(|_| self.command(session, kind, inputs, mirrors))
                .collect();
        }
        let kind = ROUND_CYCLE[self.drawn[0] % ROUND_CYCLE.len()];
        self.drawn[0] += 1;
        let sessions = match kind {
            Kind::TopK | Kind::Ranking if !self.fresh.is_empty() => self.fresh.clone(),
            _ => {
                let mut set = Vec::with_capacity(self.round);
                while set.len() < self.round {
                    let s = self.pick(inputs);
                    if !inputs[s].is_witness() && !set.contains(&s) {
                        set.push(s);
                    }
                }
                set
            }
        };
        if kind == Kind::Submit {
            self.fresh = sessions.clone();
        }
        sessions
            .into_iter()
            .map(|s| self.command(s, kind, inputs, mirrors))
            .collect()
    }

    /// A session drawn by popularity.
    fn pick(&mut self, inputs: &[SessionInput]) -> usize {
        let total = *self.cumulative.last().expect("at least one session");
        let pick = self.rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= pick)
            .min(inputs.len() - 1)
    }

    /// One command of `kind` to `session`, applied to its copy.
    fn command(
        &mut self,
        session: usize,
        kind: Kind,
        inputs: &[SessionInput],
        mirrors: &mut [Mirror],
    ) -> Command {
        let input = &inputs[session];
        let mirror = &mut mirrors[session];
        let op = match kind {
            Kind::Submit => {
                let Truth::Irt { items, abilities } = &input.truth else {
                    unreachable!("witness sessions take no submits")
                };
                let probs = &mut self.probs[..input.options as usize];
                let wave: Vec<_> = (0..input.wave)
                    .map(|_| {
                        let u = self.rng.gen_range(0..input.users);
                        let i = self.rng.gen_range(0..input.items);
                        (
                            u,
                            i,
                            Some(draw_choice(&items[i], abilities[u], probs, &mut self.rng)),
                        )
                    })
                    .collect();
                let expect_version = mirror.submit(&wave);
                Op::Submit {
                    wave,
                    expect_version,
                }
            }
            Kind::TopK => Op::TopK { k: input.k },
            Kind::Ranking => Op::Ranking,
            Kind::CatchUp => {
                let back = self.rng.gen_range(1..9usize);
                Op::CatchUp {
                    from: mirror.version_waves_back(back),
                    expect_to: mirror.version(),
                }
            }
        };
        Command { session, op }
    }
}

/// Mirrors holding each session's bulk load (the state set-up creates).
pub fn initial_mirrors(inputs: &[SessionInput]) -> Vec<Mirror> {
    inputs
        .iter()
        .map(|s| {
            let mut m = Mirror::new(s.users, s.items, s.options);
            m.submit(&s.bulk);
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed() {
        let cfg = Workload::ClassroomFleet.config();
        let inputs = sessions(&cfg, 7);
        let draw = |seed| {
            let mut mirrors = initial_mirrors(&inputs);
            let mut s = CommandStream::new(&inputs, seed, cfg.round);
            (0..20)
                .flat_map(|_| s.arrival(&inputs, &mut mirrors))
                .map(|c| (c.session, c.op.kind()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let weight: f64 = inputs.iter().map(|s| s.weight).sum();
        assert!((weight - 1.0).abs() < 1e-9, "{weight}");
    }

    #[test]
    fn rounds_read_what_the_last_wave_wrote() {
        let cfg = Workload::ClassroomFleet.config();
        let inputs = sessions(&cfg, 3);
        let mut mirrors = initial_mirrors(&inputs);
        let mut s = CommandStream::new(&inputs, 3, cfg.round);
        let mut last_submits: Vec<usize> = Vec::new();
        for r in 0..10 {
            let round = s.arrival(&inputs, &mut mirrors);
            assert_eq!(round.len(), cfg.round);
            let kind = round[0].op.kind();
            assert_eq!(kind, ROUND_CYCLE[r % ROUND_CYCLE.len()]);
            assert!(round.iter().all(|c| c.op.kind() == kind));
            let set: Vec<usize> = round.iter().map(|c| c.session).collect();
            let distinct: std::collections::BTreeSet<usize> = set.iter().copied().collect();
            assert_eq!(distinct.len(), set.len(), "round {r} repeats a session");
            assert!(set.iter().all(|&x| !inputs[x].is_witness()));
            match kind {
                Kind::Submit => last_submits = set,
                Kind::TopK | Kind::Ranking => assert_eq!(set, last_submits),
                Kind::CatchUp => {}
            }
        }
    }
}
