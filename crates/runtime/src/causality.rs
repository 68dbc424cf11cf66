//! Extraction of structured causality-error reports from a stuck
//! reaction.
//!
//! The paper §5.2: "synchronous deadlock cycles are always detected with
//! an appropriate error message." [`analyze`] walks the stuck region of
//! the circuit, finds a dependency cycle (every stuck region contains
//! one, unless the stuckness comes from a pure dependency chain) and maps
//! each implicated net back to its signal name, source location and
//! [`NetKind`] — the result is a [`CausalityReport`] that renders both as
//! pretty text and as a one-line JSON object for the telemetry sinks.

use crate::error::CycleNet;
use crate::telemetry::json_escape;
use hiphop_circuit::{Circuit, NetKind, TestKind};

/// Structured report of one causality failure: which nets are stuck, how
/// they map back to signals, and whether a strict dependency cycle was
/// isolated.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalityReport {
    /// Program (circuit) name.
    pub program: String,
    /// Reaction number at which the deadlock was detected.
    pub seq: u64,
    /// Total number of nets left undetermined or unresolved.
    pub undetermined: usize,
    /// Whether `nets` is a strict dependency cycle (`true`) or just the
    /// stuck frontier (`false`).
    pub is_cycle: bool,
    /// The implicated nets, in cycle order when `is_cycle`.
    pub nets: Vec<CycleNet>,
}

impl CausalityReport {
    /// The distinct signal names implicated in the report.
    pub fn signals(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .nets
            .iter()
            .filter_map(|n| n.signal.as_deref())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Multi-line human-readable rendering.
    pub fn pretty(&self) -> String {
        let mut out = format!(
            "causality failure in `{}` at reaction {}: {} net(s) undetermined\n{}:\n",
            self.program,
            self.seq,
            self.undetermined,
            if self.is_cycle {
                "dependency cycle"
            } else {
                "stuck frontier"
            }
        );
        for n in &self.nets {
            out.push_str(&format!("  - {n}\n"));
        }
        let signals = self.signals();
        if !signals.is_empty() {
            out.push_str(&format!("signals involved: {}\n", signals.join(", ")));
        }
        out
    }

    /// One-line JSON rendering (the shape [`crate::telemetry::JsonlSink`]
    /// emits for [`crate::telemetry::TraceEvent::CausalityFailure`]).
    pub fn to_json(&self) -> String {
        let nets: Vec<String> = self
            .nets
            .iter()
            .map(|n| {
                let signal = match &n.signal {
                    Some(s) => format!("\"{}\"", json_escape(s)),
                    None => "null".to_owned(),
                };
                format!(
                    "{{\"net\":{},\"label\":\"{}\",\"kind\":\"{}\",\"loc\":\"{}\",\"signal\":{signal}}}",
                    n.net,
                    json_escape(&n.label),
                    json_escape(&n.kind),
                    json_escape(&n.loc)
                )
            })
            .collect();
        format!(
            "{{\"type\":\"causality\",\"program\":\"{}\",\"seq\":{},\"undetermined\":{},\"is_cycle\":{},\"nets\":[{}]}}",
            json_escape(&self.program),
            self.seq,
            self.undetermined,
            self.is_cycle,
            nets.join(",")
        )
    }
}

/// Human-readable name of a net's defining equation.
pub(crate) fn kind_name(kind: &NetKind) -> String {
    match kind {
        NetKind::Or => "or".to_owned(),
        NetKind::And => "and".to_owned(),
        NetKind::Input => "input".to_owned(),
        NetKind::Const(b) => format!("const({})", u8::from(*b)),
        NetKind::RegOut(_) => "register".to_owned(),
        NetKind::Test(TestKind::Expr(_)) => "test".to_owned(),
        NetKind::Test(TestKind::CounterElapsed { .. }) => "counter-test".to_owned(),
    }
}

/// Given the set of nets left undetermined/unresolved after the
/// propagation queue drained, builds the structured report: finds a
/// dependency cycle among them if one exists, otherwise reports the
/// stuck frontier.
pub(crate) fn analyze(
    circuit: &Circuit,
    stuck: &[bool],
    undetermined: usize,
    seq: u64,
) -> CausalityReport {
    // DFS over edges restricted to stuck nets: a net waits on its stuck
    // fanins and its stuck deps.
    let n = circuit.nets().len();
    let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
    let mut parent: Vec<Option<usize>> = vec![None; n];

    let succ = |v: usize| -> Vec<usize> {
        let net = &circuit.nets()[v];
        net.fanins
            .iter()
            .map(|f| f.net.index())
            .chain(net.deps.iter().map(|d| d.index()))
            .filter(|&w| stuck[w])
            .collect()
    };

    let report = |nets: &[usize], is_cycle: bool| CausalityReport {
        program: circuit.name().to_owned(),
        seq,
        undetermined,
        is_cycle,
        nets: render(circuit, nets),
    };

    for start in 0..n {
        if !stuck[start] || color[start] != 0 {
            continue;
        }
        // Iterative DFS.
        let mut stack = vec![(start, 0usize)];
        color[start] = 1;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            let ss = succ(v);
            if *ei < ss.len() {
                let w = ss[*ei];
                *ei += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        parent[w] = Some(v);
                        stack.push((w, 0));
                    }
                    1 => {
                        // Found a cycle w -> ... -> v -> w.
                        let mut cycle = vec![w];
                        let mut cur = v;
                        while cur != w {
                            cycle.push(cur);
                            match parent[cur] {
                                Some(p) => cur = p,
                                None => break,
                            }
                        }
                        cycle.reverse();
                        return report(&cycle, true);
                    }
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
            }
        }
    }

    // No strict cycle (e.g. a self-dependency was deduplicated away or the
    // stuckness comes from a dependency chain); report the stuck frontier.
    let frontier: Vec<usize> = (0..n).filter(|&i| stuck[i]).take(8).collect();
    report(&frontier, false)
}

fn render(circuit: &Circuit, nets: &[usize]) -> Vec<CycleNet> {
    nets.iter()
        .take(20)
        .map(|&i| {
            let net = &circuit.nets()[i];
            CycleNet {
                net: i as u32,
                label: net.label.to_owned(),
                kind: kind_name(&net.kind),
                loc: net.loc.to_string(),
                signal: net
                    .sig_hint
                    .map(|s| circuit.signal(s).name.clone())
                    .or_else(|| {
                        // Fall back: is this net some signal's status?
                        circuit
                            .signals()
                            .iter()
                            .find(|s| s.status_net.index() == i)
                            .map(|s| s.name.clone())
                    }),
            }
        })
        .collect()
}
