//! The four workloads: which program each pool serves, at what size and
//! rate, and the single-threaded client side that generates every beat's
//! inputs from the seed.

use hiphop_core::module::Module;
use hiphop_core::rng::Rng;
use hiphop_core::value::Value;
use hiphop_eventloop::sessions::{SessionId, TickReport};
use hiphop_skini::{generate, Audience, Composition, ScoreShape, Sequencer};
use std::collections::BTreeMap;

/// The program every session of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Skini `ScoreShape::concert()`: 8 movements of exactly 64 beats.
    Concert,
    /// Skini `ScoreShape::classical()`: the paper's ~10k-net score.
    Classical,
    /// `hiphop_bench::gen::wide_quiet_program(WIDE_INSTANCES)`.
    Wide,
}

/// ABRO instances in the `wide-busy` program.
pub const WIDE_INSTANCES: usize = 100;

impl Program {
    /// Builds the program's module. Deterministic, so shard threads and
    /// the oracle can each build their own copy.
    pub fn module(self) -> Module {
        match self {
            Program::Concert => generate(ScoreShape::concert()).0,
            Program::Classical => generate(ScoreShape::classical()).0,
            Program::Wide => hiphop_bench::gen::wide_quiet_program(WIDE_INSTANCES),
        }
    }

    /// Beats after which every session terminates, if the program ends:
    /// each score movement is aborted after exactly 64 beats.
    pub fn horizon_beats(self) -> Option<u64> {
        match self {
            Program::Concert => Some(8 * 64),
            Program::Classical => Some(64 * 64),
            Program::Wide => None,
        }
    }
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The program every session runs.
    pub program: Program,
    /// Sessions opened in the pool.
    pub sessions: u64,
    /// Beats per second issued by the open-loop generator.
    pub rate_hz: f64,
    /// Flight recorder armed and the pool checkpointed every
    /// [`CHECKPOINT_EVERY`] beats inside the beat path.
    pub durable: bool,
}

/// Beats between pool checkpoints on a durable workload.
pub const CHECKPOINT_EVERY: u64 = 24;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    // Many ~9 µs reactions: per-reaction fixed cost and pool
    // dispatch/merge dominate each tick.
    Workload {
        name: "concert-crowd",
        program: Program::Concert,
        sessions: 500,
        rate_hz: 24.0,
        durable: false,
    },
    // A ~9.5k-net circuit where well under 1% of evaluated nets change:
    // the sweep dominates ticks and compile dominates set-up.
    Workload {
        name: "classical-quiet",
        program: Program::Classical,
        sessions: 32,
        rate_hz: 40.0,
        durable: false,
    },
    // ~21% of nets change and ~75 inputs arrive per reaction: almost
    // nothing to skip, heavy input routing. The counter-workload to
    // `classical-quiet`.
    Workload {
        name: "wide-busy",
        program: Program::Wide,
        sessions: 16,
        rate_hz: 100.0,
        durable: false,
    },
    // `concert-crowd`'s shape with the recorder and checkpoints in the
    // beat path: writes beside reads.
    Workload {
        name: "concert-durable",
        program: Program::Concert,
        sessions: 250,
        rate_hz: 24.0,
        durable: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: derives independent per-session seeds from the master
/// seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// One generated input: session, index into [`Load::names`], value.
pub type Input = (SessionId, u32, Value);

/// The client side of a workload: it computes each beat's inputs before
/// the beat is due and observes each tick's outputs afterwards.
pub trait Load {
    /// Input signal names, interned once; [`Input`]s index into them.
    fn names(&self) -> &[String];
    /// Appends beat `beat`'s inputs to `out`.
    fn pick(&mut self, beat: u64, out: &mut Vec<Input>);
    /// Feeds one tick's outputs back to the clients (boot batch
    /// included, as beat `None`).
    fn observe(&mut self, beat: Option<u64>, report: &TickReport);
}

/// Builds the client side of `program` for `sessions` sessions.
pub fn load_for(program: Program, sessions: u64, seed: u64) -> Box<dyn Load> {
    match program {
        Program::Concert => Box::new(Crowd::new(ScoreShape::concert(), sessions, seed)),
        Program::Classical => Box::new(Crowd::new(ScoreShape::classical(), sessions, seed)),
        Program::Wide => Box::new(Uniform::new(sessions, seed)),
    }
}

/// One participant's phone and DAW: their seeded audience stream, the
/// groups currently offered to them, and their sequencer.
struct Participant {
    audience: Audience,
    active: Vec<String>,
    sequencer: Sequencer,
}

/// A Skini audience: one participant per session, picking patterns from
/// the groups their session currently offers.
struct Crowd {
    comp: Composition,
    names: Vec<String>,
    /// Group name → index of its `<group>In` signal in `names`.
    in_signal: BTreeMap<String, u32>,
    /// Index of the `beat` input in `names`.
    beat: u32,
    participants: Vec<Participant>,
}

impl Crowd {
    fn new(shape: ScoreShape, sessions: u64, seed: u64) -> Crowd {
        let (_, comp) = generate(shape);
        let mut names = vec!["beat".to_owned()];
        let mut in_signal = BTreeMap::new();
        for g in comp.groups() {
            in_signal.insert(g.name.clone(), names.len() as u32);
            names.push(Composition::in_signal(&g.name));
        }
        let participants = (0..sessions)
            .map(|i| Participant {
                // Enthusiasm varies across the audience, seeded.
                audience: Audience::new(
                    seed ^ splitmix64(i),
                    0.5 + (splitmix64(seed ^ i) % 50) as f64 / 100.0,
                ),
                active: Vec::new(),
                sequencer: Sequencer::new(),
            })
            .collect();
        Crowd {
            comp,
            names,
            in_signal,
            beat: 0,
            participants,
        }
    }
}

impl Load for Crowd {
    fn names(&self) -> &[String] {
        &self.names
    }

    fn pick(&mut self, beat: u64, out: &mut Vec<Input>) {
        for (i, p) in self.participants.iter_mut().enumerate() {
            let id = SessionId(i as u64);
            for s in p.audience.pick(&self.comp, &p.active) {
                p.sequencer.enqueue(s.pattern);
                out.push((id, self.in_signal[&s.group], Value::from(s.pattern as i64)));
            }
            out.push((id, self.beat, Value::from(beat as i64)));
        }
    }

    fn observe(&mut self, beat: Option<u64>, report: &TickReport) {
        for outputs in &report.outputs {
            let p = &mut self.participants[outputs.session.0 as usize];
            // Output snapshots list every declared output, so the last
            // `<group>State` occurrence is the instant's value.
            let mut state: BTreeMap<&str, bool> = BTreeMap::new();
            for o in &outputs.outputs {
                if let Some(group) = o.name.strip_suffix("State") {
                    state.insert(group, o.value.truthy());
                }
            }
            p.active = self
                .comp
                .groups()
                .iter()
                .filter(|g| state.get(g.name.as_str()).copied().unwrap_or(false))
                .map(|g| g.name.clone())
                .collect();
            if let Some(beat) = beat {
                p.sequencer.play_beat(&self.comp, beat);
            }
        }
    }
}

/// `wide-busy` clients: every beat, each ABRO instance of each session
/// independently receives `a`, `b`, `r` or nothing, uniformly.
struct Uniform {
    names: Vec<String>,
    rngs: Vec<Rng>,
}

impl Uniform {
    fn new(sessions: u64, seed: u64) -> Uniform {
        let names = (0..WIDE_INSTANCES)
            .flat_map(|k| [format!("a{k}"), format!("b{k}"), format!("r{k}")])
            .collect();
        let rngs = (0..sessions)
            .map(|i| Rng::seed_from_u64(seed ^ splitmix64(i)))
            .collect();
        Uniform { names, rngs }
    }
}

impl Load for Uniform {
    fn names(&self) -> &[String] {
        &self.names
    }

    fn pick(&mut self, _beat: u64, out: &mut Vec<Input>) {
        for (i, rng) in self.rngs.iter_mut().enumerate() {
            for k in 0..WIDE_INSTANCES as u32 {
                let draw = rng.gen_range(0u32..4);
                if draw < 3 {
                    out.push((SessionId(i as u64), 3 * k + draw, Value::Bool(true)));
                }
            }
        }
    }

    fn observe(&mut self, _beat: Option<u64>, _report: &TickReport) {}
}
