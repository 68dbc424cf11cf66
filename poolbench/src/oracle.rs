//! The output oracle: a few sessions' exact per-beat inputs and the
//! pool's outputs for them, re-driven through the reference interpreter
//! (`hiphop_interp`), which shares no code with the compiler or the
//! machine.

use crate::workload::Input;
use hiphop_core::module::{Module, ModuleRegistry};
use hiphop_core::value::Value;
use hiphop_eventloop::sessions::{SessionId, TickReport};
use hiphop_interp::Interp;

/// Output snapshot of one reaction: `(name, present, value)`, by name.
type Outputs = Vec<(String, bool, Value)>;

/// Inputs of one reaction, in injection order: index into the load's
/// interned names, and value.
type Inputs = Vec<(u32, Value)>;

/// One watched session's tape: the outputs of its boot reaction, then
/// one `(inputs, outputs)` step per tick.
#[derive(Debug, Default)]
struct Tape {
    boot: Option<Outputs>,
    steps: Vec<(Inputs, Option<Outputs>)>,
}

/// Tapes of the watched sessions.
#[derive(Debug)]
pub struct Oracle {
    sessions: Vec<SessionId>,
    tapes: Vec<Tape>,
}

fn sorted(mut outputs: Outputs) -> Outputs {
    outputs.sort_by(|a, b| a.0.cmp(&b.0));
    outputs
}

fn pool_outputs(report: &TickReport, id: SessionId) -> Option<Outputs> {
    report.session(id).map(|o| {
        sorted(
            o.outputs
                .iter()
                .map(|e| (e.name.to_string(), e.present, e.value.clone()))
                .collect(),
        )
    })
}

impl Oracle {
    /// Watches `sessions` (distinct ids).
    pub fn new(sessions: Vec<SessionId>) -> Oracle {
        let tapes = sessions.iter().map(|_| Tape::default()).collect();
        Oracle { sessions, tapes }
    }

    /// Records the boot batch of `open`.
    pub fn boot(&mut self, report: &TickReport) {
        for (tape, &id) in self.tapes.iter_mut().zip(&self.sessions) {
            tape.boot = pool_outputs(report, id);
        }
    }

    /// Records one tick: the inputs injected for each watched session
    /// and its outputs.
    pub fn step(&mut self, inputs: &[Input], report: &TickReport) {
        let mut per: Vec<Inputs> = vec![Vec::new(); self.sessions.len()];
        for (id, name, value) in inputs {
            if let Some(i) = self.sessions.iter().position(|s| s == id) {
                per[i].push((*name, value.clone()));
            }
        }
        for ((tape, &id), inputs) in self.tapes.iter_mut().zip(&self.sessions).zip(per) {
            tape.steps.push((inputs, pool_outputs(report, id)));
        }
    }

    /// Re-drives every tape through a fresh interpreter of `module`
    /// (`names` resolves the recorded input indices) and compares each
    /// output's presence and value on every beat, boot included. Returns
    /// the number of reactions compared, or the first divergence.
    pub fn check(&self, module: &Module, names: &[String]) -> Result<usize, String> {
        let mut compared = 0;
        for (tape, id) in self.tapes.iter().zip(&self.sessions) {
            let mut interp = Interp::new(module, &ModuleRegistry::new())
                .map_err(|e| format!("{id}: interpreter rejects the program: {e}"))?;
            let boot = interp.react().map_err(|e| format!("{id} boot: {e}"))?;
            expect_equal(*id, "boot", tape.boot.as_ref(), sorted(boot.outputs))?;
            compared += 1;
            for (beat, (inputs, outputs)) in tape.steps.iter().enumerate() {
                let refs: Vec<(&str, Value)> = inputs
                    .iter()
                    .map(|(n, v)| (names[*n as usize].as_str(), v.clone()))
                    .collect();
                let want = interp
                    .react_with(&refs)
                    .map_err(|e| format!("{id} beat {beat}: {e}"))?;
                expect_equal(
                    *id,
                    &format!("beat {beat}"),
                    outputs.as_ref(),
                    sorted(want.outputs),
                )?;
                compared += 1;
            }
        }
        Ok(compared)
    }
}

fn expect_equal(
    id: SessionId,
    when: &str,
    got: Option<&Outputs>,
    want: Outputs,
) -> Result<(), String> {
    match got {
        None => Err(format!("{id} {when}: the pool reported no outputs")),
        Some(got) if *got != want => {
            let diff = got.iter().zip(&want).find(|(g, w)| g != w).map_or_else(
                || {
                    format!(
                        "{} pool outputs vs {} interpreter outputs",
                        got.len(),
                        want.len()
                    )
                },
                |(g, w)| format!("pool {g:?} vs interpreter {w:?}"),
            );
            Err(format!("{id} {when}: {diff}"))
        }
        Some(_) => Ok(()),
    }
}
