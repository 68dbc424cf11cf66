//! Cohort differential battery.
//!
//! The bit-parallel cohort engine (`hiphop_runtime::cohort`) must be a
//! pure *execution strategy*: for any program and any input schedule, a
//! cohort reaction is bit-identical — outputs, reaction metadata and
//! `state_digest` — to the scalar levelized sweep it replaces. These
//! tests prove that three ways:
//!
//! 1. the full Esterel-kernel conformance table runs with K=33 sessions
//!    per case (forcing a partial lane word) through the cohort path and
//!    against per-session scalar shadows, under both lane widths;
//! 2. a seeded sweep over random synthetic programs diverges and
//!    re-admits random lane subsets mid-run (the peel/re-admit
//!    mechanics) and checks every digest against an all-scalar shadow
//!    pool;
//! 3. chaos-injected host panics land inside a cohort and the faulting
//!    lane rolls back alone while its lane-mates match fault-free
//!    shadows.
//!
//! Lane-count edge cases (1, 32, 33, 0) get dedicated coverage.

mod common;

use common::{KernelCase, KERNEL_CASES};
use hiphop::lang::{parse_program, HostRegistry};
use hiphop::prelude::*;
use hiphop::compiler::compile_module;
use hiphop::runtime::{circuit_struct_hash, cohort_key, react_cohort, CohortWidth};
use hiphop_bench::synthetic_program;
use hiphop_core::rng::Rng;

const WIDTHS: [CohortWidth; 2] = [CohortWidth::U64, CohortWidth::Wide];

/// Builds `k` identical machines for a kernel case.
fn case_machines(case: &KernelCase, k: usize) -> Vec<Machine> {
    let (module, registry) = parse_program(case.src, "Main", &HostRegistry::new())
        .unwrap_or_else(|e| panic!("{}: parse: {e}", case.name));
    (0..k)
        .map(|_| machine_for(&module, &registry).expect("compile"))
        .collect()
}

/// Builds `k` identical machines for a synthetic program.
fn synth_machines(size: usize, seed: u64, k: usize) -> Vec<Machine> {
    let module = synthetic_program(size, seed);
    (0..k)
        .map(|_| machine_for(&module, &ModuleRegistry::new()).expect("compile"))
        .collect()
}

/// Stages one lane's inputs on a machine (presence-only or valued).
fn stage(m: &mut Machine, inputs: &[(String, Option<Value>)]) {
    for (name, v) in inputs {
        m.set_input(name, v.clone()).expect("input");
    }
}

fn sweep_seeds() -> u64 {
    std::env::var("HIPHOP_COHORT_SEEDS")
        .or_else(|_| std::env::var("HIPHOP_PROPTEST_SEEDS"))
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// Asserts one cohort reaction result equals the scalar shadow's, bit
/// for bit: outcome, full reaction debug form (seq, outputs with values,
/// terminated, event count) and the machines' state digests.
fn assert_lane_matches(
    ctx: &str,
    lane: usize,
    instant: usize,
    got: &Result<Reaction, hiphop_runtime::RuntimeError>,
    want: &Result<Reaction, hiphop_runtime::RuntimeError>,
    m: &Machine,
    shadow: &Machine,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(
            format!("{g:?}"),
            format!("{w:?}"),
            "{ctx}: lane {lane} instant {instant}: reaction mismatch"
        ),
        (Err(g), Err(w)) => assert_eq!(
            g.to_string(),
            w.to_string(),
            "{ctx}: lane {lane} instant {instant}: error mismatch"
        ),
        (g, w) => panic!(
            "{ctx}: lane {lane} instant {instant}: outcome mismatch: {g:?} vs {w:?}"
        ),
    }
    assert_eq!(
        m.state_digest(),
        shadow.state_digest(),
        "{ctx}: lane {lane} instant {instant}: state digest diverged"
    );
}

/// Drives `k` cohort lanes against `k` scalar shadows for `instants`
/// reactions, staging per-lane inputs from `schedule(lane, instant)`,
/// asserting bit-identical behavior throughout.
fn differential(
    ctx: &str,
    machines: &mut [Machine],
    shadows: &mut [Machine],
    width: CohortWidth,
    instants: usize,
    schedule: impl Fn(usize, usize) -> Vec<(String, Option<Value>)>,
) {
    let k = machines.len();
    for t in 0..instants {
        for s in 0..k {
            let inputs = schedule(s, t);
            stage(&mut machines[s], &inputs);
            stage(&mut shadows[s], &inputs);
        }
        let mut lanes: Vec<&mut Machine> = machines.iter_mut().collect();
        let results = react_cohort(&mut lanes, width);
        assert_eq!(results.len(), k, "{ctx}: result vector must be lane-aligned");
        for s in 0..k {
            let want = shadows[s].react();
            assert_lane_matches(ctx, s, t, &results[s], &want, &machines[s], &shadows[s]);
        }
    }
}

// ------------------------------------------------- kernel table, K = 33

/// The whole conformance table, 33 lanes per case (a full lane word plus
/// one straggler), identical stimulus on every lane: the cohort must
/// reproduce the hand-written per-instant oracle AND the scalar shadow's
/// digests under both widths.
#[test]
fn kernel_table_with_33_lanes_matches_the_oracle_and_scalar_digests() {
    const K: usize = 33;
    for case in KERNEL_CASES {
        for width in WIDTHS {
            let mut machines = case_machines(case, K);
            let mut shadows = case_machines(case, K);
            let boot: &[&[&str]] = &[&[]];
            let all: Vec<&[&str]> = boot.iter().chain(case.stimulus.iter()).copied().collect();
            for (t, inputs) in all.iter().enumerate() {
                let staged: Vec<(String, Option<Value>)> = inputs
                    .iter()
                    .map(|n| ((*n).to_string(), Some(Value::from(true))))
                    .collect();
                for s in 0..K {
                    stage(&mut machines[s], &staged);
                    stage(&mut shadows[s], &staged);
                }
                let mut lanes: Vec<&mut Machine> = machines.iter_mut().collect();
                let results = react_cohort(&mut lanes, width);
                for s in 0..K {
                    let want = shadows[s].react();
                    assert_lane_matches(
                        case.name, s, t, &results[s], &want, &machines[s], &shadows[s],
                    );
                    let r = results[s].as_ref().expect("kernel cases never fault");
                    let mut got: Vec<String> = r
                        .outputs
                        .iter()
                        .filter(|o| o.present)
                        .map(|o| o.name.to_string())
                        .collect();
                    got.sort();
                    assert_eq!(
                        got.join(" "),
                        case.expected[t],
                        "{} [cohort {width:?}]: lane {s} instant {t}",
                        case.name
                    );
                }
            }
        }
    }
}

/// The same table with *divergent* stimulus: each lane sees its own
/// deterministic thinning of the case inputs, so lanes take different
/// control paths through one shared sweep. The scalar shadows are the
/// oracle.
#[test]
fn kernel_table_with_divergent_lanes_is_bit_identical_to_scalar() {
    const K: usize = 33;
    for case in KERNEL_CASES {
        let instants = case.stimulus.len() + 1;
        for width in WIDTHS {
            let mut machines = case_machines(case, K);
            let mut shadows = case_machines(case, K);
            differential(
                &format!("{} [divergent {width:?}]", case.name),
                &mut machines,
                &mut shadows,
                width,
                instants,
                |lane, t| {
                    if t == 0 {
                        return Vec::new(); // boot
                    }
                    case.stimulus[t - 1]
                        .iter()
                        .enumerate()
                        // Deterministic per-lane thinning: lane 0 keeps the
                        // full stimulus, others drop a varying subset.
                        .filter(|(j, _)| lane == 0 || (lane + t + j) % 3 != 0)
                        .map(|(_, n)| ((*n).to_string(), Some(Value::from(true))))
                        .collect()
                },
            );
        }
    }
}

// -------------------------------------------- divergence/re-admit sweep

/// Random synthetic programs, random valued inputs per lane per instant,
/// and a random lane subset *peeled to the scalar path* each instant and
/// re-admitted the next: digests must track an all-scalar shadow pool
/// exactly. `HIPHOP_PROPTEST_SEEDS` widens the sweep in CI.
#[test]
fn divergence_and_readmission_sweep_matches_all_scalar_shadow_pool() {
    const K: usize = 33;
    const INSTANTS: usize = 10;
    for case in 0..sweep_seeds() {
        let seed = 0xC0_C047_u64 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::seed_from_u64(seed);
        let size = rng.gen_range(10usize..60);
        let width = if rng.gen_bool(0.5) { CohortWidth::U64 } else { CohortWidth::Wide };
        let mut machines = synth_machines(size, seed, K);
        let mut shadows = synth_machines(size, seed, K);

        // Pre-generate the input schedule and the per-instant peel sets so
        // cohort and shadow pools see byte-identical stimulus.
        type LaneInputs = Vec<(String, Option<Value>)>;
        let mut schedule: Vec<Vec<LaneInputs>> = Vec::new();
        let mut peeled: Vec<Vec<bool>> = Vec::new();
        for t in 0..INSTANTS {
            let mut per_lane = Vec::new();
            let mut peel = Vec::new();
            for _ in 0..K {
                let mut inputs = Vec::new();
                if t > 0 {
                    for j in 0..8 {
                        if rng.gen_bool(0.3) {
                            inputs
                                .push((format!("i{j}"), Some(Value::from(rng.gen_range(0i64..5)))));
                        }
                    }
                }
                per_lane.push(inputs);
                peel.push(t > 0 && rng.gen_bool(0.25));
            }
            schedule.push(per_lane);
            peeled.push(peel);
        }

        for t in 0..INSTANTS {
            for s in 0..K {
                stage(&mut machines[s], &schedule[t][s]);
                stage(&mut shadows[s], &schedule[t][s]);
            }
            // Peel the chosen lanes out of this instant's cohort: they run
            // the plain scalar path and rejoin next instant.
            let mut cohort: Vec<&mut Machine> = Vec::new();
            let mut cohort_ids = Vec::new();
            let mut scalar_ids = Vec::new();
            for (s, m) in machines.iter_mut().enumerate() {
                if peeled[t][s] {
                    scalar_ids.push(s);
                } else {
                    cohort_ids.push(s);
                    cohort.push(m);
                }
            }
            let results = react_cohort(&mut cohort, width);
            drop(cohort);
            let mut outcomes: Vec<Option<Result<Reaction, hiphop_runtime::RuntimeError>>> =
                (0..K).map(|_| None).collect();
            for (r, &s) in results.into_iter().zip(cohort_ids.iter()) {
                outcomes[s] = Some(r);
            }
            for &s in &scalar_ids {
                outcomes[s] = Some(machines[s].react());
            }
            for s in 0..K {
                let want = shadows[s].react();
                let got = outcomes[s].take().expect("every lane reacted");
                assert_lane_matches(
                    &format!("seed {seed} size {size} [{width:?}]"),
                    s,
                    t,
                    &got,
                    &want,
                    &machines[s],
                    &shadows[s],
                );
            }
        }
    }
}

// ------------------------------------------------------ chaos peel path

/// A chaos-armed lane faults *inside* the cohort sweep: it must peel and
/// roll back alone (digest unchanged from before the instant), while all
/// 32 lane-mates stay bit-identical to fault-free shadows.
#[test]
fn chaos_fault_inside_a_cohort_peels_the_lane_alone() {
    const K: usize = 33;
    const CHAOTIC: usize = 17; // mid-word lane
    for width in WIDTHS {
        let mut machines = synth_machines(40, 0xFA17, K);
        let mut shadows = synth_machines(40, 0xFA17, K);
        machines[CHAOTIC].set_chaos(0xDEAD_BEEF, 1.0);

        let mut rng = Rng::seed_from_u64(0xFA17);
        let mut faults = 0u32;
        for t in 0..8 {
            let mut staged: Vec<Vec<(String, Option<Value>)>> = Vec::new();
            for _ in 0..K {
                let mut inputs = Vec::new();
                if t > 0 {
                    for j in 0..8 {
                        if rng.gen_bool(0.4) {
                            inputs
                                .push((format!("i{j}"), Some(Value::from(rng.gen_range(0i64..5)))));
                        }
                    }
                }
                staged.push(inputs);
            }
            for s in 0..K {
                stage(&mut machines[s], &staged[s]);
                stage(&mut shadows[s], &staged[s]);
            }
            let before = machines[CHAOTIC].state_digest();
            let mut lanes: Vec<&mut Machine> = machines.iter_mut().collect();
            let results = react_cohort(&mut lanes, width);
            for s in 0..K {
                if s == CHAOTIC {
                    match &results[s] {
                        Ok(_) => {
                            // No action fired for this lane this instant;
                            // it must still match its (un-staged) shadow.
                        }
                        Err(e) => {
                            faults += 1;
                            assert!(
                                e.to_string().contains("chaos"),
                                "[{width:?}] instant {t}: expected an injected fault, got {e}"
                            );
                            assert_eq!(
                                machines[s].state_digest(),
                                before,
                                "[{width:?}] instant {t}: faulting lane must roll back alone"
                            );
                            assert!(!machines[s].is_poisoned());
                        }
                    }
                    // Keep the shadow in lockstep: it reacts fault-free, so
                    // after a fault the pair intentionally diverges; reset
                    // the shadow from the machine's trajectory by reacting
                    // it regardless (outputs unchecked for this lane).
                    let _ = shadows[s].react();
                } else {
                    let want = shadows[s].react();
                    assert_lane_matches(
                        &format!("chaos [{width:?}]"),
                        s,
                        t,
                        &results[s],
                        &want,
                        &machines[s],
                        &shadows[s],
                    );
                }
            }
        }
        assert!(
            faults > 0,
            "[{width:?}] chaos rate 1.0 must fault at least once in 8 instants"
        );
    }
}

// ------------------------------------------------- lane-count edge cases

/// Cohort sizes 1, 32 and 33 (sub-word, exact word, word + straggler)
/// all match scalar shadows; size 0 returns an empty result vector.
#[test]
fn lane_count_edges_1_32_33_match_scalar_and_0_is_empty() {
    for width in WIDTHS {
        let empty: Vec<Result<Reaction, hiphop_runtime::RuntimeError>> =
            react_cohort(&mut [], width);
        assert!(empty.is_empty(), "[{width:?}] the empty cohort reacts to nothing");
        for k in [1usize, 32, 33] {
            let mut machines = synth_machines(30, 0xED6E ^ k as u64, k);
            let mut shadows = synth_machines(30, 0xED6E ^ k as u64, k);
            differential(
                &format!("edge k={k} [{width:?}]"),
                &mut machines,
                &mut shadows,
                width,
                6,
                |lane, t| {
                    if t == 0 {
                        return Vec::new();
                    }
                    (0..8)
                        .filter(|j| (lane * 7 + t * 3 + j) % 4 == 0)
                        .map(|j| (format!("i{j}"), Some(Value::from((lane + t) as i64 % 5))))
                        .collect()
                },
            );
        }
    }
}

/// Closing sessions mid-run (dropping lanes from the cohort) must not
/// disturb the survivors: after removal the compacted cohort keeps
/// matching its scalar shadows lane for lane.
#[test]
fn lane_compaction_after_close_preserves_survivor_digests() {
    const K: usize = 33;
    for width in WIDTHS {
        let mut machines = synth_machines(30, 0xC105E, K);
        let mut shadows = synth_machines(30, 0xC105E, K);
        let sched = |lane: usize, t: usize| -> Vec<(String, Option<Value>)> {
            if t == 0 {
                return Vec::new();
            }
            (0..8)
                .filter(|j| (lane + t + j).is_multiple_of(3))
                .map(|j| (format!("i{j}"), Some(Value::from(t as i64))))
                .collect()
        };
        differential(
            &format!("pre-close [{width:?}]"),
            &mut machines,
            &mut shadows,
            width,
            4,
            sched,
        );
        // Close every third session: survivors shift down into fresh lane
        // positions (compaction), digests must keep tracking the shadows.
        let mut lane = 0;
        machines.retain(|_| {
            lane += 1;
            (lane - 1) % 3 != 0
        });
        lane = 0;
        shadows.retain(|_| {
            lane += 1;
            (lane - 1) % 3 != 0
        });
        differential(
            &format!("post-close [{width:?}]"),
            &mut machines,
            &mut shadows,
            width,
            4,
            sched,
        );
    }
}

// ------------------------------------------- grouping across compiles

/// Cohorts group by the program's structural hash, not by which compile
/// a machine came from: sessions that each compile the same program (a
/// pool factory that compiles per session) share one key with sessions
/// that share one compiled circuit, and a cohort mixing both matches its
/// scalar shadows.
#[test]
fn separately_compiled_identical_circuits_form_one_cohort() {
    const K: usize = 33;
    let module = synthetic_program(30, 0x5EED);
    let compile = || {
        compile_module(&module, &ModuleRegistry::new())
            .expect("compile")
            .circuit
    };
    let shared = compile();
    let mut machines: Vec<Machine> = (0..K)
        .map(|lane| {
            let circuit = if lane % 2 == 0 { shared.clone() } else { compile() };
            Machine::new(circuit).expect("machine")
        })
        .collect();
    let key = cohort_key(&machines[0]).expect("a levelized machine is cohort-eligible");
    assert_eq!(key, circuit_struct_hash(&shared));
    for (lane, m) in machines.iter().enumerate() {
        assert_eq!(cohort_key(m), Some(key), "lane {lane} left the cohort");
    }
    let mut shadows = synth_machines(30, 0x5EED, K);
    for width in WIDTHS {
        differential(
            &format!("mixed compiles [{width:?}]"),
            &mut machines,
            &mut shadows,
            width,
            5,
            |lane, t| {
                if t == 0 {
                    return Vec::new();
                }
                (0..8)
                    .filter(|j| (lane + 2 * t + j).is_multiple_of(3))
                    .map(|j| (format!("i{j}"), Some(Value::from((lane * t) as i64 % 7))))
                    .collect()
            },
        );
    }
}

// ------------------------------------- fact-driven shrinking differential

/// The inter-instant dataflow shrink must be invisible to the cohort
/// engine too: the same seeded lane schedules produce identical output
/// traces on the shrunk and unshrunk compiles of the same program,
/// under both lane widths. (State digests are circuit-shaped and so only
/// comparable within one compile; observable outputs compare across.)
#[test]
fn fact_shrunk_circuits_match_unshrunk_outputs_under_both_widths() {
    use hiphop::compiler::{compile_module_with, CompileOptions};
    const K: usize = 9;
    for case in 0..6u64 {
        let seed = 0xFAC75 ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let module = synthetic_program(60, seed);
        let run = |dataflow: bool, width: CohortWidth| -> Vec<String> {
            let c = compile_module_with(
                &module,
                &ModuleRegistry::new(),
                CompileOptions { optimize: true, dataflow },
            )
            .expect("compiles");
            let mut machines: Vec<Machine> = (0..K)
                .map(|_| Machine::new(c.circuit.clone()).expect("machine"))
                .collect();
            let mut trace = Vec::new();
            for t in 0..16usize {
                for (s, m) in machines.iter_mut().enumerate() {
                    let mut rng = Rng::seed_from_u64(seed ^ ((s as u64) << 32) ^ t as u64);
                    for j in 0..6 {
                        if t > 0 && rng.gen_bool(0.3) {
                            let v = Value::from(rng.gen_range(0i64..5));
                            let _ = m.set_input(&format!("i{j}"), Some(v));
                        }
                    }
                }
                let mut lanes: Vec<&mut Machine> = machines.iter_mut().collect();
                for r in react_cohort(&mut lanes, width) {
                    let r = r.expect("reaction");
                    let mut outs: Vec<String> = r
                        .outputs
                        .iter()
                        .map(|o| format!("{}={}:{}", o.name, o.present as u8, o.value))
                        .collect();
                    outs.sort();
                    trace.push(outs.join(" "));
                }
            }
            trace
        };
        for width in WIDTHS {
            assert_eq!(
                run(true, width),
                run(false, width),
                "seed {seed:#x}: the fact shrink changes cohort outputs under {width:?}"
            );
        }
    }
}
