//! A session's memory follows its committed state.
//!
//! - Reaction telemetry is compact: `MetricsSink` keeps one `u32` of
//!   nanoseconds per reaction and exact value → count maps for the other
//!   statistics, and every summary it reports equals `Summary::of` over
//!   the samples it stands for.
//! - Pools still see every reaction's duration, in order, since the pool
//!   started (`ShardRollup::samples_us`).
//! - The constructive engine's planes (`undet`, `deps_left`, `armed`)
//!   exist only on machines that run the constructive or naive engine.
//! - Dense reactions roll back through parked pre-values instead of a
//!   second copy of the signal environment, and stay digest-exact.

mod common;

use common::input_schedule;
use hiphop::compiler::{compile_module_with, CompileOptions};
use hiphop::eventloop::sessions::{SessionId, SessionPool};
use hiphop::prelude::*;
use hiphop::runtime::EngineMode;
use hiphop_bench::synthetic_program;
use hiphop_core::rng::Rng;
use hiphop_runtime::{
    CountMap, MetricsSink, PoolMetrics, Reaction, ReactionStats, Summary, TraceEvent, TraceSink,
};

const DENSE: [EngineMode; 4] = [
    EngineMode::Levelized,
    EngineMode::Constructive,
    EngineMode::Naive,
    EngineMode::Hybrid,
];

fn as_f64(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&v| v as f64).collect()
}

#[test]
fn count_map_summaries_equal_summary_of_the_expanded_samples() {
    let mut cases: Vec<Vec<u64>> = vec![Vec::new(), vec![7], vec![3; 50], vec![0; 2]];
    let mut rng = Rng::seed_from_u64(0xC0_47A9);
    for case in 0..300u64 {
        let len = rng.gen_range(1usize..400);
        // Narrow ranges repeat values heavily (the common case for
        // event counts); wide ones make most samples distinct.
        let span = [2u64, 16, 1_000, 5_000_000][case as usize % 4];
        cases.push((0..len).map(|_| rng.gen_range(0..span)).collect());
    }
    for samples in &cases {
        let mut map = CountMap::default();
        for &v in samples {
            map.add(v);
        }
        assert_eq!(map.samples(), samples.len() as u64);
        assert_eq!(map.total(), samples.iter().sum::<u64>());
        assert_eq!(
            map.summary(),
            Summary::of(&as_f64(samples)),
            "{} samples",
            samples.len()
        );
    }
}

fn reaction_end(sink: &mut MetricsSink, stats: ReactionStats) {
    let reaction = Reaction {
        seq: 0,
        outputs: Vec::new(),
        terminated: false,
        events: stats.events,
    };
    sink.on_event(&TraceEvent::ReactionEnd {
        reaction: &reaction,
        stats,
    });
}

fn random_stats(rng: &mut Rng) -> ReactionStats {
    ReactionStats {
        // Now and then longer than a u32 of nanoseconds holds.
        duration_ns: if rng.gen_bool(0.01) {
            rng.gen_range(4_000_000_000u64..9_000_000_000)
        } else {
            rng.gen_range(500u64..200_000)
        },
        events: rng.gen_range(0usize..32),
        actions: rng.gen_range(0usize..8),
        queue_hwm: rng.gen_range(0usize..16),
        engine: EngineMode::Levelized,
    }
}

#[test]
fn metrics_sink_summaries_match_the_full_samples() {
    for seed in 0..20u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5_1A4);
        let mut sink = MetricsSink::new();
        let mut expect = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..rng.gen_range(0usize..600) {
            let stats = random_stats(&mut rng);
            reaction_end(&mut sink, stats);
            // Durations saturate at u32::MAX nanoseconds (~4.29 s).
            expect[0].push(stats.duration_ns.min(u64::from(u32::MAX)) as f64 / 1e3);
            expect[1].push(stats.events as f64);
            expect[2].push(stats.actions as f64);
            expect[3].push(stats.queue_hwm as f64);
        }
        let m = sink.snapshot();
        assert_eq!(m.reactions, expect[0].len());
        assert_eq!(
            sink.duration_samples_us(),
            expect[0],
            "in observation order"
        );
        assert_eq!(m.duration_us, Summary::of(&expect[0]));
        assert_eq!(m.events, Summary::of(&expect[1]));
        assert_eq!(m.actions, Summary::of(&expect[2]));
        assert_eq!(m.queue_hwm, Summary::of(&expect[3]));
        assert_eq!(sink.total_events(), expect[1].iter().sum::<f64>() as usize);
        let below = |le: f64| expect[0].iter().filter(|&&s| s <= le).count() as u64;
        let mut hist: Vec<u64> = hiphop_runtime::telemetry::DURATION_BUCKETS_US
            .iter()
            .map(|&le| below(le))
            .collect();
        hist.push(expect[0].len() as u64);
        assert_eq!(m.duration_hist, hist);
    }
}

#[test]
fn metrics_sink_retains_four_bytes_per_reaction() {
    let mut rng = Rng::seed_from_u64(0x4B);
    let mut sink = MetricsSink::new();
    let batch = 20_000;
    for _ in 0..batch {
        reaction_end(&mut sink, random_stats(&mut rng));
    }
    let first = sink.retained_bytes();
    // 4 B per reaction plus one 16-byte entry per distinct event,
    // action and queue value (at most 32 + 8 + 16 of them).
    assert!(first <= 4 * batch + (32 + 8 + 16) * 16, "{first} bytes");
    for _ in 0..batch {
        reaction_end(&mut sink, random_stats(&mut rng));
    }
    // Every distinct value was already seen: the second batch costs
    // exactly its durations.
    assert_eq!(sink.retained_bytes() - first, 4 * batch);
    assert_eq!(sink.reactions(), 2 * batch);
}

fn synthetic_pool(shards: usize) -> SessionPool {
    SessionPool::new(shards, 10, |_| {
        let module = synthetic_program(30, 0x5E55);
        let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
            .map_err(|e| e.to_string())?;
        Machine::new(c.circuit).map_err(|e| e.to_string())
    })
}

fn run_ticks(pool: &mut SessionPool, sessions: u64, ticks: std::ops::Range<u64>) {
    for t in ticks {
        for s in 0..sessions {
            pool.inject(
                SessionId(s),
                &format!("i{}", (t + s) % 8),
                Value::from((t % 5) as i64),
            );
        }
        pool.tick().expect("tick");
    }
}

fn assert_pooled_view(m: &PoolMetrics) {
    let all: Vec<f64> = m
        .per_shard
        .iter()
        .flat_map(|s| s.samples_us.iter().copied())
        .collect();
    assert_eq!(all.len(), m.reactions);
    assert_eq!(m.duration_us, Summary::of(&all));
    assert_eq!(m.busy_us, all.iter().sum::<f64>());
    for s in &m.per_shard {
        assert_eq!(s.samples_us.len(), s.metrics.reactions);
        assert_eq!(s.metrics.duration_us, Summary::of(&s.samples_us));
    }
    let mut hist = vec![0u64; m.duration_hist.len()];
    for s in &m.per_shard {
        for (acc, n) in hist.iter_mut().zip(&s.metrics.duration_hist) {
            *acc += n;
        }
    }
    assert_eq!(m.duration_hist, hist);
}

#[test]
fn pool_samples_keep_every_reaction_in_order_across_metrics_calls() {
    for shards in [1, 3] {
        let sessions = 7;
        let mut pool = synthetic_pool(shards);
        pool.open_many(sessions).expect("open");
        run_ticks(&mut pool, sessions, 0..12);
        let before = pool.metrics().expect("metrics");
        run_ticks(&mut pool, sessions, 12..30);
        let after = pool.metrics().expect("metrics");
        assert_eq!(after.per_shard.len(), shards);
        for (b, a) in before.per_shard.iter().zip(&after.per_shard) {
            assert!(a.samples_us.len() > b.samples_us.len());
            assert_eq!(a.samples_us[..b.samples_us.len()], b.samples_us[..]);
        }
        // Boot plus 30 ticks, one reaction each.
        assert_eq!(after.reactions as u64, sessions * 31);
        assert_pooled_view(&before);
        assert_pooled_view(&after);
    }
}

fn build(module: &hiphop_core::module::Module, mode: EngineMode) -> Machine {
    let c = compile_module_with(module, &ModuleRegistry::new(), CompileOptions::default())
        .expect("compiles");
    let mut m = Machine::new(c.circuit).expect("finalized circuit");
    m.set_engine(mode);
    m
}

fn plane(m: &Machine, name: &str) -> usize {
    m.plane_bytes()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no plane {name}"))
        .1
}

fn react(m: &mut Machine, inputs: &[(String, Value)]) -> Result<Reaction, RuntimeError> {
    let refs: Vec<(&str, Value)> = inputs
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    m.react_with(&refs)
}

#[test]
fn only_the_constructive_and_naive_engines_allocate_their_planes() {
    let fifo = ["undet", "deps_left", "armed", "queue"];
    for seed in 0..6u64 {
        let module = synthetic_program(40, seed);
        for mode in DENSE.into_iter().chain([EngineMode::Sparse]) {
            let mut m = build(&module, mode);
            for fresh in fifo {
                assert_eq!(
                    plane(&m, fresh),
                    0,
                    "{mode}: {fresh} allocated by Machine::new"
                );
            }
            let nets = m.circuit().nets().len();
            m.set_chaos(seed, 0.05);
            for inputs in std::iter::once(Vec::new()).chain(input_schedule(seed, 30)) {
                let _ = react(&mut m, &inputs);
            }
            let queue_driven = matches!(mode, EngineMode::Constructive | EngineMode::Naive);
            for name in ["undet", "deps_left", "armed"] {
                let bytes = plane(&m, name);
                if queue_driven {
                    assert!(
                        bytes >= nets,
                        "{mode}: {name} holds {bytes} B for {nets} nets"
                    );
                } else {
                    assert_eq!(bytes, 0, "{mode} allocated {name}");
                }
            }
            // Only the sparse engine keeps a rollback copy of `sig_val`.
            let copy = plane(&m, "rollback.sig_val");
            assert_eq!(copy > 0, mode == EngineMode::Sparse, "{mode}: {copy} B");
        }
    }
}

/// Runs one reaction on `live` with chaos armed at rate 1 (every host
/// action panics), then disarms. A failure must leave the digest
/// exactly as it was; a reaction that ran no action succeeds, and
/// `shadow` takes it too. Returns whether the reaction failed.
fn faulted_reaction_rolls_back(
    live: &mut Machine,
    shadow: &mut Machine,
    inputs: &[(String, Value)],
    ctx: &str,
) -> bool {
    let before = live.state_digest();
    live.set_chaos(0xFA, 1.0);
    let result = react(live, inputs);
    live.set_chaos(0, 0.0);
    match result {
        Ok(_) => {
            lockstep_tail(live, shadow, inputs, ctx);
            false
        }
        Err(e) => {
            assert!(e.to_string().contains("chaos"), "{ctx}: {e}");
            assert!(!live.is_poisoned(), "{ctx}");
            assert_eq!(live.state_digest(), before, "{ctx}: rollback is not exact");
            true
        }
    }
}

/// Brings `shadow` level with a `live` that just reacted to `inputs`.
fn lockstep_tail(live: &Machine, shadow: &mut Machine, inputs: &[(String, Value)], ctx: &str) {
    react(shadow, inputs).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(live.state_digest(), shadow.state_digest(), "{ctx}");
}

/// Drives `live` and `shadow` in lockstep; outputs and digests agree.
fn lockstep(live: &mut Machine, shadow: &mut Machine, steps: &[Vec<(String, Value)>], ctx: &str) {
    for (i, inputs) in steps.iter().enumerate() {
        let a = react(live, inputs).unwrap_or_else(|e| panic!("{ctx} step {i}: {e}"));
        let b = react(shadow, inputs).unwrap_or_else(|e| panic!("{ctx} step {i}: {e}"));
        assert_eq!(a.outputs, b.outputs, "{ctx} step {i}");
        assert_eq!(live.state_digest(), shadow.state_digest(), "{ctx} step {i}");
    }
}

#[test]
fn parked_rollback_is_digest_exact_on_every_dense_engine() {
    let scenarios = [
        "first reaction",
        "after restore",
        "after reset",
        "after hot_swap",
    ];
    for mode in DENSE.into_iter().chain([EngineMode::Sparse]) {
        let mut faults = [0usize; 4];
        for seed in 0..12u64 {
            let module = synthetic_program(20 + 5 * seed as usize, seed ^ 0x9A4);
            let steps = input_schedule(seed, 24);
            let (prefix, rest) = steps.split_at(8);
            let (trigger, rest) = rest.split_first().expect("schedule");
            let ctx = |s: &str| format!("{mode} seed {seed} {s}");

            // A fault on the very first reaction, before anything parked.
            // Each fault below hits a reaction whose staged inputs were
            // already written into `sig_val`.
            let mut live = build(&module, mode);
            let mut shadow = build(&module, mode);
            let ctx_0 = ctx(scenarios[0]);
            faults[0] += usize::from(faulted_reaction_rolls_back(
                &mut live,
                &mut shadow,
                trigger,
                &ctx_0,
            ));
            lockstep(&mut live, &mut shadow, &steps, &ctx_0);

            // Right after a durable restore onto a fresh machine.
            let mut donor = build(&module, mode);
            let mut shadow = build(&module, mode);
            let boot: &[Vec<(String, Value)>] = &[Vec::new()];
            lockstep(
                &mut donor,
                &mut shadow,
                &[boot, prefix].concat(),
                &ctx("warm-up"),
            );
            let mut live = build(&module, mode);
            live.restore(&donor.snapshot()).expect("restore");
            let ctx_1 = ctx(scenarios[1]);
            faults[1] += usize::from(faulted_reaction_rolls_back(
                &mut live,
                &mut shadow,
                trigger,
                &ctx_1,
            ));
            lockstep(&mut live, &mut shadow, rest, &ctx_1);

            // Right after reset, on a machine with parked state behind it.
            let mut live = build(&module, mode);
            let mut shadow = build(&module, mode);
            lockstep(
                &mut live,
                &mut shadow,
                &[boot, prefix].concat(),
                &ctx("warm-up"),
            );
            live.reset();
            shadow.reset();
            let ctx_2 = ctx(scenarios[2]);
            faults[2] += usize::from(faulted_reaction_rolls_back(
                &mut live,
                &mut shadow,
                trigger,
                &ctx_2,
            ));
            lockstep(&mut live, &mut shadow, rest, &ctx_2);

            // Right after hot_swap onto a separately compiled circuit.
            let mut live = build(&module, mode);
            let mut shadow = build(&module, mode);
            lockstep(
                &mut live,
                &mut shadow,
                &[boot, prefix].concat(),
                &ctx("warm-up"),
            );
            for m in [&mut live, &mut shadow] {
                let fresh = build(&module, mode);
                m.hot_swap(fresh.circuit().clone()).expect("hot swap");
            }
            let ctx_3 = ctx(scenarios[3]);
            faults[3] += usize::from(faulted_reaction_rolls_back(
                &mut live,
                &mut shadow,
                trigger,
                &ctx_3,
            ));
            lockstep(&mut live, &mut shadow, rest, &ctx_3);
        }
        for (scenario, n) in scenarios.iter().zip(faults) {
            assert!(n > 0, "{mode}: no fault exercised {scenario}");
        }
    }
}
