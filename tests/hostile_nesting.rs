//! Hostile nesting is a structured error, never a stack overflow: the
//! `.hh` parser bounds statement and expression nesting at
//! `hiphop_lang::MAX_NESTING`, and the journal/snapshot JSON parser
//! bounds array/object nesting at `hiphop_runtime::flight::MAX_JSON_DEPTH`.
//! Each case below used to abort the process with exit 134.
//!
//! Unoptimized builds spend far more stack per level than release ones
//! (here about 30 KB per nested statement and 16 KB per nested
//! parenthesis, against 3–4 KB and under 3 KB in release), so the cases
//! run on a thread with the stack a 1,000-level parse needs in a debug
//! build. `ci.sh` drives the release `hiphopc` on its default 8 MB main
//! thread.

use hiphop::lang::{parse_program, HostRegistry, MAX_NESTING};
use hiphop_cli::{cmd_check, cmd_replay, ReplayFlags};
use hiphop_runtime::flight::MAX_JSON_DEPTH;

fn check(src: &str) -> Result<String, String> {
    cmd_check(src, None).map_err(|e| e.to_string())
}

/// Runs `f` on a thread with room for a 1,000-level parse unoptimized.
fn on_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic");
}

fn assert_nesting_error(src: &str) {
    let err = check(src).expect_err("hostile nesting must be refused");
    assert!(err.contains("nesting deeper than"), "{err}");
}

#[test]
fn deep_parentheses_are_a_parse_error() {
    on_big_stack(|| {
        let n = 100_000;
        let src = format!(
            "module M(out o = 0) {{ emit o({}1{}); }}",
            "(".repeat(n),
            ")".repeat(n)
        );
        assert_nesting_error(&src);
    });
}

#[test]
fn deep_loops_are_a_parse_error() {
    on_big_stack(|| {
        let n = 5_000;
        let src = format!(
            "module M() {{ {}yield; {} }}",
            "loop { ".repeat(n),
            "}".repeat(n)
        );
        assert_nesting_error(&src);
    });
}

#[test]
fn long_operator_chains_count_as_nesting() {
    on_big_stack(|| {
        // Flat to read, but each builds a tree as deep as it is long.
        let terms = vec!["1"; 100_000].join(" + ");
        assert_nesting_error(&format!("module M(out o = 0) {{ emit o({terms}); }}"));
        let nots = "!".repeat(100_000);
        assert_nesting_error(&format!("module M(out o = 0) {{ emit o({nots}true); }}"));
        let fields = ".x".repeat(100_000);
        assert_nesting_error(&format!(
            "module M(out o = 0) {{ emit o(o.nowval{fields}); }}"
        ));
    });
}

#[test]
fn nesting_below_the_limit_still_compiles() {
    on_big_stack(|| {
        // Well inside the bound, and far deeper than any real program.
        let n = MAX_NESTING / 4;
        let src = format!(
            "module M(out o = 0) {{ {}emit o({}1{}); yield; {} }}",
            "loop { ".repeat(n),
            "(".repeat(n),
            ")".repeat(n),
            "}".repeat(n)
        );
        check(&src).expect("within the nesting bound");
        let (m, reg) = parse_program(&src, "M", &HostRegistry::new()).expect("parses");
        hiphop_compiler::compile_module(&m, &reg).expect("compiles");
    });
}

#[test]
fn deep_journal_value_is_a_replay_error() {
    on_big_stack(|| {
        let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let journal = format!(
            "{{\"type\":\"flight\",\"version\":1,\"tick_ms\":10,\"dropped\":0,\"scenario\":{{\"scenario\":\"concert\"}}}}\n\
             {{\"type\":\"open\",\"sessions\":[0],\"digests\":[]}}\n\
             {{\"type\":\"tick\",\"tick\":0,\"inputs\":[{{\"session\":0,\"signal\":\"beat\",\"value\":{deep}}}]}}\n"
        );
        let path = std::env::temp_dir().join(format!(
            "hiphop_hostile_journal_{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, journal).expect("write journal");
        let err = cmd_replay(&path.to_string_lossy(), 1, &ReplayFlags::default())
            .expect_err("hostile journal must be refused");
        let _ = std::fs::remove_file(&path);
        let err = err.to_string();
        assert!(err.contains("line 3"), "{err}");
        assert!(
            err.contains(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")),
            "{err}"
        );
    });
}
