//! Runtime errors: causality deadlocks and reaction failures.

use crate::causality::CausalityReport;
use std::fmt;

/// A net implicated in a causality cycle, with human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleNet {
    /// Net index.
    pub net: u32,
    /// The net's debug label.
    pub label: String,
    /// The net's defining equation (`or`, `and`, `test`, `register`, …).
    pub kind: String,
    /// Source location of the originating statement, if known.
    pub loc: String,
    /// Signal involved, if any.
    pub signal: Option<String>,
}

impl fmt::Display for CycleNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net#{} `{}`", self.net, self.label)?;
        if !self.kind.is_empty() {
            write!(f, " [{}]", self.kind)?;
        }
        if let Some(s) = &self.signal {
            write!(f, " (signal {s})")?;
        }
        if self.loc != "<builder>" {
            write!(f, " at {}", self.loc)?;
        }
        Ok(())
    }
}

/// Errors surfaced by the reactive machine.
///
/// The paper §5.2: "synchronous deadlock cycles are always detected with
/// an appropriate error message. This is a major advantage compared to
/// deadlocks in asynchronous languages."
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The reaction reached a synchronous deadlock: the listed nets form
    /// (or contain) a non-constructive cycle, e.g. `if (!X.now) emit X;`.
    Causality {
        /// Nets in the undetermined region (one cycle, capped) — kept as
        /// a compatibility shim; the same nets are in `report.nets`.
        cycle: Vec<CycleNet>,
        /// Total number of undetermined nets.
        undetermined: usize,
        /// The full structured report (signal names, net kinds, source
        /// locations; renders as pretty text or JSON).
        report: CausalityReport,
    },
    /// A valued signal was emitted more than once in an instant without a
    /// declared combine function.
    MultipleEmit {
        /// The signal.
        signal: String,
    },
    /// `set_input` named a signal absent from the interface.
    UnknownSignal {
        /// The name.
        signal: String,
    },
    /// `set_input` targeted a non-input signal.
    NotAnInput {
        /// The name.
        signal: String,
    },
    /// A host atom or async callback panicked mid-reaction. The machine
    /// caught the unwind, rolled the reaction back and stays usable
    /// ([`crate::Machine::is_poisoned`] is `false` after rollback).
    HostPanic {
        /// Source location of the statement whose action panicked.
        source_loc: String,
        /// The panic payload, rendered as text (`&str`/`String` payloads
        /// verbatim; anything else as a placeholder).
        payload: String,
    },
    /// A circuit handed to [`crate::Machine::new`] / `hot_swap` was not
    /// finalized with `Circuit::finalize()` (or was edited since).
    UnfinalizedCircuit {
        /// The circuit's program name.
        program: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Causality {
                cycle,
                undetermined,
                ..
            } => {
                writeln!(
                    f,
                    "causality error: synchronous deadlock ({undetermined} nets left undetermined)"
                )?;
                write!(f, "cycle:")?;
                for n in cycle {
                    write!(f, "\n  - {n}")?;
                }
                Ok(())
            }
            RuntimeError::MultipleEmit { signal } => write!(
                f,
                "signal `{signal}` emitted twice in one instant without a combine function"
            ),
            RuntimeError::UnknownSignal { signal } => {
                write!(f, "no interface signal named `{signal}`")
            }
            RuntimeError::NotAnInput { signal } => {
                write!(f, "signal `{signal}` is not an input")
            }
            RuntimeError::HostPanic { source_loc, payload } => {
                write!(f, "host code panicked at {source_loc}: {payload} (reaction rolled back)")
            }
            RuntimeError::UnfinalizedCircuit { program } => {
                write!(f, "circuit `{program}` is not finalized (call Circuit::finalize() first)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_causality() {
        let nets = vec![CycleNet {
            net: 3,
            label: "sig.status".into(),
            kind: "or".into(),
            loc: "<builder>".into(),
            signal: Some("X".into()),
        }];
        let e = RuntimeError::Causality {
            cycle: nets.clone(),
            undetermined: 2,
            report: CausalityReport {
                program: "M".into(),
                seq: 0,
                undetermined: 2,
                is_cycle: true,
                nets,
            },
        };
        let s = e.to_string();
        assert!(s.contains("causality error"), "{s}");
        assert!(s.contains("signal X"), "{s}");
        assert!(s.contains("[or]"), "{s}");
    }

    #[test]
    fn display_others() {
        assert!(RuntimeError::MultipleEmit { signal: "t".into() }
            .to_string()
            .contains("combine"));
        assert!(RuntimeError::NotAnInput { signal: "o".into() }
            .to_string()
            .contains("not an input"));
        let p = RuntimeError::HostPanic {
            source_loc: "demo.hh:3:1".into(),
            payload: "boom".into(),
        }
        .to_string();
        assert!(p.contains("demo.hh:3:1") && p.contains("boom") && p.contains("rolled back"), "{p}");
        assert!(RuntimeError::UnfinalizedCircuit { program: "M".into() }
            .to_string()
            .contains("not finalized"));
    }
}
