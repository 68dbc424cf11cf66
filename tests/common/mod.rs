//! Shared test fixtures: the Esterel-kernel case table and the seeded
//! input schedule of the synthetic-program sweeps.
//!
//! `tests/conformance.rs` drives each case through every scalar engine
//! plus the reference interpreter; `tests/cohort.rs` re-drives the same
//! table through the bit-parallel cohort engine against scalar shadows.
//! One table, two batteries — a semantic bug shows up in both, an
//! execution-strategy bug only in the second.

#![allow(dead_code)] // each test binary uses a subset

use hiphop_core::rng::Rng;
use hiphop_core::value::Value;

/// A deterministic input schedule for `hiphop_bench::synthetic_program`
/// circuits: each of `steps` instants stages each input `i0`–`i7` with
/// probability 0.3, valued 0–4. The differential, chaos and rollback
/// sweeps drive every engine with it.
pub fn input_schedule(seed: u64, steps: usize) -> Vec<Vec<(String, Value)>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..steps)
        .map(|_| {
            let mut inputs = Vec::new();
            for k in 0..8 {
                if rng.gen_bool(0.3) {
                    inputs.push((format!("i{k}"), Value::from(rng.gen_range(0i64..5))));
                }
            }
            inputs
        })
        .collect()
}

/// One kernel construct: a compact `.hh` program plus the expected set
/// of present outputs at every instant (instant 0 is the boot reaction).
pub struct KernelCase {
    /// Short case name used in assertion messages.
    pub name: &'static str,
    /// The `.hh` source; the entry module is always `Main`.
    pub src: &'static str,
    /// Present input signals per post-boot instant.
    pub stimulus: &'static [&'static [&'static str]],
    /// Space-joined sorted present outputs, boot first.
    pub expected: &'static [&'static str],
}

/// The full battery: strong/weak abort, suspend, every, `do … every`,
/// nested traps, sustain, counted await, immediate delays and
/// local-signal reincarnation.
pub const KERNEL_CASES: &[KernelCase] = &[
    KernelCase {
        name: "strong-abort",
        src: r#"module Main(in I, out O, out done) {
            abort (I.now) {
               loop { emit O(); yield; }
            }
            emit done();
        }"#,
        stimulus: &[&[], &["I"], &[]],
        expected: &["O", "O", "done", ""],
    },
    KernelCase {
        name: "weak-abort",
        src: r#"module Main(in I, out O, out done) {
            weakabort (I.now) {
               loop { emit O(); yield; }
            }
            emit done();
        }"#,
        stimulus: &[&[], &["I"], &[]],
        expected: &["O", "O", "O done", ""],
    },
    KernelCase {
        name: "sustain",
        src: r#"module Main(in I, out O) {
            abort (I.now) { sustain O(); }
        }"#,
        stimulus: &[&[], &[], &["I"], &[]],
        expected: &["O", "O", "O", "", ""],
    },
    KernelCase {
        name: "suspend",
        src: r#"module Main(in S, out O) {
            suspend (S.now) {
               loop { emit O(); yield; }
            }
        }"#,
        stimulus: &[&[], &["S"], &["S"], &[]],
        expected: &["O", "O", "", "", "O"],
    },
    KernelCase {
        name: "every",
        src: r#"module Main(in I, out O) {
            every (I.now) { emit O(); }
        }"#,
        stimulus: &[&["I"], &[], &["I"], &["I"]],
        expected: &["", "O", "", "O", "O"],
    },
    KernelCase {
        name: "do-every",
        src: r#"module Main(in I, out O) {
            do { emit O(); } every (I.now)
        }"#,
        stimulus: &[&["I"], &[], &["I"]],
        expected: &["O", "O", "", "O"],
    },
    KernelCase {
        name: "nested-trap-inner",
        src: r#"module Main(in toT, in toU, out A, out B, out C) {
            T: {
               U: {
                  loop {
                     emit A();
                     if (toT.now) { break T; }
                     if (toU.now) { break U; }
                     yield;
                  }
               }
               emit B();
            }
            emit C();
        }"#,
        stimulus: &[&[], &["toU"], &[]],
        expected: &["A", "A", "A B C", ""],
    },
    KernelCase {
        name: "nested-trap-outer",
        src: r#"module Main(in toT, in toU, out A, out B, out C) {
            T: {
               U: {
                  loop {
                     emit A();
                     if (toT.now) { break T; }
                     if (toU.now) { break U; }
                     yield;
                  }
               }
               emit B();
            }
            emit C();
        }"#,
        stimulus: &[&[], &["toT"], &[]],
        expected: &["A", "A", "A C", ""],
    },
    KernelCase {
        name: "counted-await",
        src: r#"module Main(in I, out O) {
            await count(3, I.now);
            emit O();
        }"#,
        stimulus: &[&["I"], &[], &["I"], &["I"], &[]],
        expected: &["", "", "", "", "O", ""],
    },
    KernelCase {
        name: "await-immediate",
        src: r#"module Main(in I, out A, out B) {
            await (I.now);
            emit A();
            await immediate (I.now);
            emit B();
        }"#,
        stimulus: &[&[], &["I"], &[]],
        expected: &["", "", "A B", ""],
    },
    KernelCase {
        name: "await-non-immediate",
        src: r#"module Main(in I, out A, out B) {
            await (I.now);
            emit A();
            await (I.now);
            emit B();
        }"#,
        stimulus: &[&[], &["I"], &["I"], &[]],
        expected: &["", "", "A", "B", ""],
    },
    KernelCase {
        name: "reincarnation",
        src: r#"module Main(out O, out P) {
            fork {
               loop { signal s; emit s(); if (s.now) { emit O(); } yield; }
            } par {
               loop { signal t; if (t.now) { emit P(); } yield; emit t(); }
            }
        }"#,
        stimulus: &[&[], &[], &[]],
        expected: &["O", "O", "O", "O"],
    },
];

/// Looks a case up by name, panicking on a typo.
pub fn kernel_case(name: &str) -> &'static KernelCase {
    KERNEL_CASES
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no kernel case named {name}"))
}
