//! Reaction telemetry: structured trace sinks over the reactive machine.
//!
//! The paper's reactive machine is defined by *observable* guarantees —
//! linear-time reactions, atomic instants, runtime causality reporting
//! (§2.2.1, §5.2). This module makes those observables first-class: the
//! machine publishes [`TraceEvent`]s to any number of attached
//! [`TraceSink`]s, and three sinks ship with the runtime:
//!
//! - [`MetricsSink`] aggregates per-reaction duration, net-event count,
//!   action count and propagation-queue high-water mark, summarized as
//!   min/p50/p95/max percentiles ([`Summary`]);
//! - [`JsonlSink`] encodes every event as one JSON object per line
//!   (hand-rolled encoder — no external dependencies) for machine
//!   consumption;
//! - [`VcdSink`] records output signals and writes a standard Value
//!   Change Dump file viewable in GTKWave (the rendering itself lives in
//!   [`crate::waveform`]).
//!
//! Attach sinks with [`crate::Machine::attach_sink`]; enable the
//! aggregating sink with [`crate::Machine::enable_metrics`].

use crate::causality::CausalityReport;
use crate::levelized::EngineMode;
use crate::machine::{Machine, Reaction};
use crate::waveform::Waveform;
use hiphop_core::value::Value;
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Events.

/// Lifecycle phase of an `async` statement instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncPhase {
    /// The async block started (control entered it).
    Spawn,
    /// The async block was killed by preemption.
    Kill,
    /// The enclosing context suspended the block.
    Suspend,
    /// The enclosing context resumed the block.
    Resume,
    /// The async completed via notification.
    Done,
}

impl AsyncPhase {
    /// Lower-case name used in trace encodings.
    pub fn name(self) -> &'static str {
        match self {
            AsyncPhase::Spawn => "spawn",
            AsyncPhase::Kill => "kill",
            AsyncPhase::Suspend => "suspend",
            AsyncPhase::Resume => "resume",
            AsyncPhase::Done => "done",
        }
    }
}

/// Per-reaction engine statistics, delivered with
/// [`TraceEvent::ReactionEnd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactionStats {
    /// Wall-clock duration of the reaction, nanoseconds.
    pub duration_ns: u64,
    /// Net determination/resolution events processed (linear in circuit
    /// size — the paper's §5.2 guarantee).
    pub events: usize,
    /// Actions (emissions, atoms, counters, async hooks) executed.
    pub actions: usize,
    /// High-water mark of the propagation FIFO (0 under the levelized
    /// engine, which has no queue).
    pub queue_hwm: usize,
    /// The engine that executed this reaction.
    pub engine: EngineMode,
}

/// The level of a [`SpanRecord`] in the pool's span hierarchy:
/// tick → per-shard sweep → per-session reaction → async-activity
/// child spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One pool tick across every shard (the root).
    Tick,
    /// One shard's sweep within a tick.
    Sweep,
    /// One session's reaction within a sweep.
    Reaction,
    /// One supervised-activity attempt (child of the reaction that
    /// spawned it; timestamps are *virtual-clock* microseconds — see
    /// `TRACING.md`).
    Activity,
}

impl SpanKind {
    /// Lower-case name used in trace encodings (the Chrome `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Tick => "tick",
            SpanKind::Sweep => "sweep",
            SpanKind::Reaction => "reaction",
            SpanKind::Activity => "activity",
        }
    }
}

/// One completed span: a named, timed interval linked to its parent by
/// id. Owned and `Send` — spans cross shard boundaries in tick replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique span id (pool- and shard-generated ids never collide; 0 is
    /// never a valid id).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Display name (`tick 3`, `shard 1`, `s42`, an activity name…).
    pub name: String,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Shard that produced the span (0 for pool-level tick spans).
    pub shard: u32,
    /// Start timestamp, microseconds since the trace epoch
    /// (virtual-clock µs for [`SpanKind::Activity`]).
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// One telemetry event published by the machine during a reaction.
///
/// Borrowed payloads keep the hot path allocation-free; sinks that need
/// to keep data copy it.
#[derive(Debug)]
pub enum TraceEvent<'a> {
    /// A reaction is starting.
    ReactionStart {
        /// Reaction number (0-based).
        seq: u64,
    },
    /// A net stabilized to a boolean value (only published to sinks that
    /// return `true` from [`TraceSink::wants_net_events`], and only by
    /// the event-driven engine).
    NetStabilized {
        /// Net index.
        net: u32,
        /// The net's debug label.
        label: &'static str,
        /// The stabilized value.
        value: bool,
    },
    /// A net's attached action executed.
    ActionRun {
        /// Net index whose stabilization triggered the action.
        net: u32,
        /// Action kind: `emit`, `atom`, `counter-reset`, `async-*`.
        kind: &'static str,
    },
    /// An async statement instance changed lifecycle state.
    AsyncLifecycle {
        /// Async statement index.
        async_id: u32,
        /// Monotonic instance number (stale notifications are dropped).
        instance: u64,
        /// The transition.
        phase: AsyncPhase,
    },
    /// A `hop { log(...) }` atom (or host code) logged a message.
    Log {
        /// Reaction during which the message was logged.
        seq: u64,
        /// The message.
        message: &'a str,
    },
    /// The reaction committed; snapshot and statistics attached.
    ReactionEnd {
        /// The committed reaction.
        reaction: &'a Reaction,
        /// Engine statistics.
        stats: ReactionStats,
    },
    /// The reaction failed with a synchronous deadlock.
    CausalityFailure {
        /// The structured cycle report.
        report: &'a CausalityReport,
    },
    /// A supervised activity attempt failed and a retry was scheduled
    /// (published by the event-loop supervisor, between reactions).
    ActivityRetry {
        /// Activity name (from its `SupervisedSpec`).
        name: &'a str,
        /// The attempt that just failed (1-based).
        attempt: u32,
        /// Backoff delay before the next attempt, in virtual ms.
        delay_ms: u64,
    },
    /// A supervised activity attempt exceeded its deadline.
    ActivityTimeout {
        /// Activity name.
        name: &'a str,
        /// The attempt that timed out (1-based).
        attempt: u32,
        /// The deadline that was exceeded, in virtual ms.
        timeout_ms: u64,
    },
    /// Host code panicked and the unwind was caught — either inside a
    /// reaction (an atom or async hook; the reaction rolls back) or
    /// inside a supervised activity's work function (the attempt fails).
    ActivityPanic {
        /// Activity name, or the statement source location for
        /// mid-reaction panics.
        name: &'a str,
        /// The panic payload rendered as text.
        payload: &'a str,
    },
    /// A span completed (published by span-producing layers — the
    /// session pool's tick/sweep spans, the supervisor's activity
    /// spans). Sinks that keep spans clone the record.
    Span {
        /// The completed span.
        record: &'a SpanRecord,
    },
}

/// A consumer of [`TraceEvent`]s.
pub trait TraceSink {
    /// Receives one event. Called synchronously from inside the
    /// reaction, so implementations should be quick.
    fn on_event(&mut self, event: &TraceEvent<'_>);

    /// Whether this sink wants per-net [`TraceEvent::NetStabilized`]
    /// events. Fine-grained events cost one dispatch per net, so the
    /// machine skips them unless some attached sink opts in.
    fn wants_net_events(&self) -> bool {
        false
    }

    /// Flushes any buffered output (file sinks write here).
    fn finish(&mut self) {}
}

/// Shared, attachable sink handle (see [`Machine::attach_sink`]).
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// Wraps a sink in the shared handle [`Machine::attach_sink`] expects.
pub fn shared<S: TraceSink + 'static>(sink: S) -> Rc<RefCell<S>> {
    Rc::new(RefCell::new(sink))
}

/// A shared, growable set of trace sinks.
///
/// The machine publishes through its set; [`Machine::sink_handle`] hands
/// out a clone so external publishers — the event-loop supervisor in
/// particular — can emit [`TraceEvent::ActivityRetry`]-class events into
/// the *same* sinks between reactions. Hot-swapping a machine keeps the
/// set, so handles stay live across program replacement.
#[derive(Clone, Default)]
pub struct SinkSet(Rc<RefCell<Vec<SharedSink>>>);

impl std::fmt::Debug for SinkSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkSet")
            .field("sinks", &self.0.borrow().len())
            .finish()
    }
}

impl SinkSet {
    /// A fresh empty set.
    pub fn new() -> SinkSet {
        SinkSet::default()
    }

    /// Adds a sink to the set.
    pub fn attach(&self, sink: SharedSink) {
        self.0.borrow_mut().push(sink);
    }

    /// `true` when no sink is attached.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Publishes one event to every attached sink.
    pub fn emit(&self, event: &TraceEvent<'_>) {
        for sink in self.0.borrow().iter() {
            sink.borrow_mut().on_event(event);
        }
    }

    /// Whether any attached sink opted into per-net events.
    pub fn wants_net_events(&self) -> bool {
        self.0.borrow().iter().any(|s| s.borrow().wants_net_events())
    }

    /// Flushes every attached sink.
    pub fn finish(&self) {
        for sink in self.0.borrow().iter() {
            sink.borrow_mut().finish();
        }
    }
}

// ---------------------------------------------------------------------------
// Percentile summaries (bench/src/stats.rs-style, local so the runtime
// stays dependency-free).

/// Five-number summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (empty input gives an all-zero summary).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        // Linear interpolation between closest ranks: p50 of an
        // even-count sample set is the midpoint of the two central
        // elements, not whichever one nearest-rank rounding lands on.
        let pick = |q: f64| {
            let pos = (sorted.len() - 1) as f64 * q;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Summary {
            count: sorted.len(),
            min: sorted[0],
            p50: pick(0.5),
            p95: pick(0.95),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Explicit histogram bucket bounds for reaction durations, in
/// microseconds (Prometheus `le` values; a final `+Inf` bucket is
/// implied).
pub const DURATION_BUCKETS_US: [f64; 10] =
    [10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0];

/// Cumulative bucket counts (`le` semantics) over `samples_us`, one slot
/// per [`DURATION_BUCKETS_US`] bound plus a trailing `+Inf` slot.
/// Cumulative counts sum element-wise across shards.
fn duration_hist(samples_us: &[f64]) -> Vec<u64> {
    let mut hist = vec![0u64; DURATION_BUCKETS_US.len() + 1];
    for &s in samples_us {
        for (i, le) in DURATION_BUCKETS_US.iter().enumerate() {
            if s <= *le {
                hist[i] += 1;
            }
        }
        hist[DURATION_BUCKETS_US.len()] += 1;
    }
    hist
}

// ---------------------------------------------------------------------------
// Per-level sweep activity.

/// Per-level net-evaluation counters from the levelized/hybrid sweep:
/// how many nets each level evaluated, and how many actually changed
/// value since the previous instant. The gap between the two quantifies
/// the "wide but quiet" waste a sparse incremental engine would skip
/// (the ROADMAP item this instruments). Index = topological level for
/// the levelized engine, schedule block for the hybrid engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelActivity {
    /// Nets evaluated per level, summed over reactions.
    pub evals: Vec<u64>,
    /// Nets whose value differed from the previous instant, per level.
    pub changed: Vec<u64>,
}

impl LevelActivity {
    /// Whether any activity was recorded.
    pub fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }

    /// Total nets evaluated across every level.
    pub fn total_evals(&self) -> u64 {
        self.evals.iter().sum()
    }

    /// Total nets that changed value across every level.
    pub fn total_changed(&self) -> u64 {
        self.changed.iter().sum()
    }

    /// Element-wise accumulation (levels align only for machines running
    /// the same circuit, which is how pools use this).
    pub fn merge(&mut self, other: &LevelActivity) {
        if self.evals.len() < other.evals.len() {
            self.evals.resize(other.evals.len(), 0);
            self.changed.resize(other.changed.len(), 0);
        }
        for (i, v) in other.evals.iter().enumerate() {
            self.evals[i] += v;
        }
        for (i, v) in other.changed.iter().enumerate() {
            self.changed[i] += v;
        }
    }
}

// ---------------------------------------------------------------------------
// MetricsSink.

/// Aggregating sink: per-reaction engine statistics, summarized with
/// percentiles on demand.
#[derive(Debug, Default)]
pub struct MetricsSink {
    duration_ns: Vec<f64>,
    events: Vec<f64>,
    actions: Vec<f64>,
    queue_hwm: Vec<f64>,
    causality_failures: usize,
    logs: usize,
    async_events: usize,
    activity_retries: usize,
    activity_timeouts: usize,
    host_panics: usize,
}

/// Snapshot of a [`MetricsSink`]'s aggregates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    /// Committed reactions observed.
    pub reactions: usize,
    /// Reaction wall-clock duration, microseconds.
    pub duration_us: Summary,
    /// Net events per reaction.
    pub events: Summary,
    /// Actions per reaction.
    pub actions: Summary,
    /// Propagation-queue high-water mark per reaction.
    pub queue_hwm: Summary,
    /// Reactions that failed with a causality error.
    pub causality_failures: usize,
    /// Logged messages.
    pub logs: usize,
    /// Async lifecycle transitions.
    pub async_events: usize,
    /// Supervised-activity retries scheduled.
    pub activity_retries: usize,
    /// Supervised-activity attempts that hit their deadline.
    pub activity_timeouts: usize,
    /// Host panics caught (mid-reaction or in activity work functions).
    pub host_panics: usize,
    /// Cumulative reaction-duration histogram counts, one per
    /// [`DURATION_BUCKETS_US`] bound plus `+Inf` (empty when no
    /// reactions were observed).
    pub duration_hist: Vec<u64>,
}

impl MetricsSink {
    /// A fresh sink.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Total net events across all observed reactions (exact mirror of
    /// summing [`Reaction::events`]).
    pub fn total_events(&self) -> usize {
        self.events.iter().sum::<f64>() as usize
    }

    /// Number of committed reactions observed.
    pub fn reactions(&self) -> usize {
        self.events.len()
    }

    /// Reaction durations in microseconds, one sample per committed
    /// reaction, in observation order. Session pools use this to compute
    /// *exact* pooled percentiles across shards (merging per-shard
    /// [`Summary`]s would be lossy).
    pub fn duration_samples_us(&self) -> Vec<f64> {
        self.duration_ns.iter().map(|ns| ns / 1e3).collect()
    }

    /// Computes the percentile snapshot.
    pub fn snapshot(&self) -> Metrics {
        let us: Vec<f64> = self.duration_ns.iter().map(|ns| ns / 1e3).collect();
        Metrics {
            reactions: self.events.len(),
            duration_hist: duration_hist(&us),
            duration_us: Summary::of(&us),
            events: Summary::of(&self.events),
            actions: Summary::of(&self.actions),
            queue_hwm: Summary::of(&self.queue_hwm),
            causality_failures: self.causality_failures,
            logs: self.logs,
            async_events: self.async_events,
            activity_retries: self.activity_retries,
            activity_timeouts: self.activity_timeouts,
            host_panics: self.host_panics,
        }
    }
}

impl TraceSink for MetricsSink {
    fn on_event(&mut self, event: &TraceEvent<'_>) {
        match event {
            TraceEvent::ReactionEnd { stats, .. } => {
                self.duration_ns.push(stats.duration_ns as f64);
                self.events.push(stats.events as f64);
                self.actions.push(stats.actions as f64);
                self.queue_hwm.push(stats.queue_hwm as f64);
            }
            TraceEvent::CausalityFailure { .. } => self.causality_failures += 1,
            TraceEvent::Log { .. } => self.logs += 1,
            TraceEvent::AsyncLifecycle { .. } => self.async_events += 1,
            TraceEvent::ActivityRetry { .. } => self.activity_retries += 1,
            TraceEvent::ActivityTimeout { .. } => self.activity_timeouts += 1,
            TraceEvent::ActivityPanic { .. } => self.host_panics += 1,
            _ => {}
        }
    }
}

impl Metrics {
    /// Renders the percentile table (the `--metrics` CLI output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let row = |name: &str, s: &Summary, unit: &str| {
            format!(
                "{name:<14} {:>10.2} {:>10.2} {:>10.2} {:>10.2}  {unit}\n",
                s.min, s.p50, s.p95, s.max
            )
        };
        out.push_str(&format!(
            "reaction metrics over {} reaction(s)\n",
            self.reactions
        ));
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>10} {:>10}\n",
            "", "min", "p50", "p95", "max"
        ));
        out.push_str(&row("duration", &self.duration_us, "µs"));
        out.push_str(&row("net events", &self.events, "events"));
        out.push_str(&row("actions", &self.actions, "actions"));
        out.push_str(&row("queue hwm", &self.queue_hwm, "slots"));
        out.push_str(&format!(
            "causality failures: {}   logs: {}   async transitions: {}\n",
            self.causality_failures, self.logs, self.async_events
        ));
        out.push_str(&format!(
            "activity retries: {}   timeouts: {}   host panics: {}\n",
            self.activity_retries, self.activity_timeouts, self.host_panics
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Pool-level roll-ups (the sharded multi-session server in
// `hiphop_eventloop::sessions`).

/// One shard's contribution to a [`PoolMetrics`] roll-up.
#[derive(Debug, Clone, Default)]
pub struct ShardRollup {
    /// Shard index.
    pub shard: usize,
    /// Live (non-quarantined) sessions on the shard.
    pub sessions: usize,
    /// Sessions quarantined after poisoning (only possible with rollback
    /// disabled; always 0 under the default regime).
    pub quarantined: usize,
    /// Failed reactions rolled back on this shard.
    pub rollbacks: u64,
    /// The shard's [`MetricsSink`] snapshot.
    pub metrics: Metrics,
    /// Raw per-reaction durations (µs) from the shard's sink, for exact
    /// pooled percentiles.
    pub samples_us: Vec<f64>,
    /// Per-level sweep activity summed over the shard's machines (empty
    /// unless the pool armed level-activity counters).
    pub level_activity: LevelActivity,
}

/// Aggregated metrics for a whole session pool: per-shard roll-ups plus
/// pooled percentiles and critical-path throughput.
#[derive(Debug, Clone, Default)]
pub struct PoolMetrics {
    /// Number of shards.
    pub shards: usize,
    /// Per-shard roll-ups, by shard index.
    pub per_shard: Vec<ShardRollup>,
    /// Pooled reaction-duration percentiles (exact, over every shard's
    /// samples).
    pub duration_us: Summary,
    /// Total committed reactions across the pool.
    pub reactions: usize,
    /// Total rolled-back reactions across the pool.
    pub rollbacks: u64,
    /// Total reaction CPU time across every shard, microseconds (summed
    /// per-reaction durations from the telemetry sinks — pure engine
    /// compute, excluding sweep overhead).
    pub busy_us: f64,
    /// Pooled cumulative duration-histogram counts (element-wise sum of
    /// the shard histograms; empty when no reactions ran).
    pub duration_hist: Vec<u64>,
    /// Per-level sweep activity merged across shards (empty unless
    /// armed).
    pub level_activity: LevelActivity,
    /// Critical-path time, microseconds: the sum over ticks of the
    /// *slowest shard's* wall-clock sweep time in that tick (reactions
    /// plus clock/mailbox/batching overhead). Shards sweep their
    /// sessions concurrently, so this is the serving time an N-core
    /// host spends per tick — the honest denominator for multi-shard
    /// throughput on any machine, including single-core CI. On tiny
    /// workloads the overhead share means neither `busy_us` nor this
    /// bounds the other.
    pub critical_path_us: f64,
    /// Pool ticks executed.
    pub ticks: u64,
}

impl PoolMetrics {
    /// Builds the pooled view from per-shard roll-ups.
    ///
    /// `critical_path_us` and `ticks` are accumulated by the pool itself
    /// (they need per-tick timing, not end-of-run snapshots).
    pub fn from_shards(per_shard: Vec<ShardRollup>, critical_path_us: f64, ticks: u64) -> PoolMetrics {
        let mut all = Vec::new();
        let mut reactions = 0;
        let mut rollbacks = 0;
        let mut level_activity = LevelActivity::default();
        for s in &per_shard {
            all.extend_from_slice(&s.samples_us);
            reactions += s.metrics.reactions;
            rollbacks += s.rollbacks;
            level_activity.merge(&s.level_activity);
        }
        PoolMetrics {
            shards: per_shard.len(),
            duration_us: Summary::of(&all),
            duration_hist: duration_hist(&all),
            level_activity,
            busy_us: all.iter().sum(),
            per_shard,
            reactions,
            rollbacks,
            critical_path_us,
            ticks,
        }
    }

    /// Total live sessions across the pool.
    pub fn sessions(&self) -> usize {
        self.per_shard.iter().map(|s| s.sessions).sum()
    }

    /// Total poison-quarantined sessions across the pool. Quarantined
    /// sessions are excluded from [`PoolMetrics::sessions`] and from the
    /// reaction roll-ups; this counter keeps them visible so the pool's
    /// session accounting stays consistent with tick reports.
    pub fn quarantined(&self) -> usize {
        self.per_shard.iter().map(|s| s.quarantined).sum()
    }

    /// Aggregate reactions per second over the critical path (see
    /// [`PoolMetrics::critical_path_us`]).
    pub fn throughput_rps(&self) -> f64 {
        if self.critical_path_us <= 0.0 {
            0.0
        } else {
            self.reactions as f64 / (self.critical_path_us / 1e6)
        }
    }

    /// Renders the pool table (alias of [`Metrics::render_pool`]).
    pub fn render(&self) -> String {
        Metrics::render_pool(self)
    }

    /// One-line JSON object for machine consumption (the CLI `serve`
    /// smoke test parses this).
    pub fn to_json(&self) -> String {
        let mut shards = String::new();
        for (i, s) in self.per_shard.iter().enumerate() {
            if i > 0 {
                shards.push(',');
            }
            shards.push_str(&format!(
                "{{\"shard\":{},\"sessions\":{},\"quarantined\":{},\"reactions\":{},\"rollbacks\":{},\"p50_us\":{:.1},\"p95_us\":{:.1}}}",
                s.shard, s.sessions, s.quarantined, s.metrics.reactions, s.rollbacks,
                s.metrics.duration_us.p50, s.metrics.duration_us.p95,
            ));
        }
        format!(
            "{{\"shards\":{},\"sessions\":{},\"quarantined\":{},\"ticks\":{},\"reactions\":{},\"rollbacks\":{},\"p50_us\":{:.1},\"p95_us\":{:.1},\"busy_us\":{:.1},\"critical_path_us\":{:.1},\"throughput_rps\":{:.1},\"per_shard\":[{}]}}",
            self.shards,
            self.sessions(),
            self.quarantined(),
            self.ticks,
            self.reactions,
            self.rollbacks,
            self.duration_us.p50,
            self.duration_us.p95,
            self.busy_us,
            self.critical_path_us,
            self.throughput_rps(),
            shards,
        )
    }
}

impl Metrics {
    /// Renders a pool-level metrics table: one row per shard
    /// (sessions, reactions, p50/p95 latency, rollbacks) plus pooled
    /// totals and critical-path throughput.
    pub fn render_pool(pool: &PoolMetrics) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "session pool: {} live session(s), {} quarantined, over {} shard(s), {} tick(s)\n",
            pool.sessions(),
            pool.quarantined(),
            pool.shards,
            pool.ticks
        ));
        out.push_str(&format!(
            "{:<7} {:>9} {:>10} {:>10} {:>10} {:>10} {:>6}\n",
            "shard", "sessions", "reactions", "p50 (µs)", "p95 (µs)", "rollback", "quar"
        ));
        for s in &pool.per_shard {
            out.push_str(&format!(
                "{:<7} {:>9} {:>10} {:>10.1} {:>10.1} {:>10} {:>6}\n",
                s.shard,
                s.sessions,
                s.metrics.reactions,
                s.metrics.duration_us.p50,
                s.metrics.duration_us.p95,
                s.rollbacks,
                s.quarantined,
            ));
        }
        out.push_str(&format!(
            "pooled   reactions: {}   p50: {:.1} µs   p95: {:.1} µs   rollbacks: {}\n",
            pool.reactions, pool.duration_us.p50, pool.duration_us.p95, pool.rollbacks
        ));
        out.push_str(&format!(
            "busy: {:.1} ms   critical path: {:.1} ms   throughput: {:.0} reactions/s\n",
            pool.busy_us / 1e3,
            pool.critical_path_us / 1e3,
            pool.throughput_rps()
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

/// Escapes a Prometheus label *value* (backslash, double quote,
/// newline — per the text-exposition spec).
pub fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a label set: `""` or `"{a=\"1\",b=\"2\"}"`.
fn prom_labels(pairs: &[(&str, String)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Appends one full histogram block (`_bucket`/`_sum`/`_count`) with
/// cumulative `hist` counts over [`DURATION_BUCKETS_US`].
fn prom_histogram(out: &mut String, name: &str, base: &[(&str, String)], hist: &[u64], sum: f64, help: &str) {
    let _ = help;
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let total = hist.last().copied().unwrap_or(0);
    for (i, le) in DURATION_BUCKETS_US.iter().enumerate() {
        let mut labels: Vec<(&str, String)> = base.to_vec();
        labels.push(("le", format!("{le}")));
        let count = hist.get(i).copied().unwrap_or(0);
        out.push_str(&format!("{name}_bucket{} {count}\n", prom_labels(&labels)));
    }
    let mut labels: Vec<(&str, String)> = base.to_vec();
    labels.push(("le", "+Inf".to_owned()));
    out.push_str(&format!("{name}_bucket{} {total}\n", prom_labels(&labels)));
    out.push_str(&format!("{name}_sum{} {sum}\n", prom_labels(base)));
    out.push_str(&format!("{name}_count{} {total}\n", prom_labels(base)));
}

fn prom_metric(out: &mut String, name: &str, kind: &str, help: &str, rows: &[(Vec<(&str, String)>, String)]) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in rows {
        out.push_str(&format!("{name}{} {value}\n", prom_labels(labels)));
    }
}

impl Metrics {
    /// Renders this snapshot as Prometheus text exposition. `labels` are
    /// prepended to every series (empty slice for a bare machine).
    pub fn render_prometheus(&self, labels: &[(&str, String)]) -> String {
        let mut out = String::new();
        let one = |v: String| vec![(labels.to_vec(), v)];
        prom_metric(&mut out, "hiphop_reactions_total", "counter", "Committed reactions observed.", &one(self.reactions.to_string()));
        prom_metric(&mut out, "hiphop_causality_failures_total", "counter", "Reactions failed with a causality error.", &one(self.causality_failures.to_string()));
        prom_metric(&mut out, "hiphop_logs_total", "counter", "Logged messages.", &one(self.logs.to_string()));
        prom_metric(&mut out, "hiphop_async_transitions_total", "counter", "Async lifecycle transitions.", &one(self.async_events.to_string()));
        prom_metric(&mut out, "hiphop_activity_retries_total", "counter", "Supervised-activity retries scheduled.", &one(self.activity_retries.to_string()));
        prom_metric(&mut out, "hiphop_activity_timeouts_total", "counter", "Supervised-activity attempts that hit their deadline.", &one(self.activity_timeouts.to_string()));
        prom_metric(&mut out, "hiphop_host_panics_total", "counter", "Host panics caught.", &one(self.host_panics.to_string()));
        prom_metric(&mut out, "hiphop_reaction_p50_us", "gauge", "Median reaction duration, microseconds.", &one(format!("{}", self.duration_us.p50)));
        prom_metric(&mut out, "hiphop_reaction_p95_us", "gauge", "95th-percentile reaction duration, microseconds.", &one(format!("{}", self.duration_us.p95)));
        prom_histogram(
            &mut out,
            "hiphop_reaction_duration_us",
            labels,
            &self.duration_hist,
            self.duration_us.mean * self.duration_us.count as f64,
            "Reaction wall-clock duration, microseconds.",
        );
        out
    }
}

impl PoolMetrics {
    /// Renders the pool roll-up as Prometheus text exposition:
    /// pool-level totals (`hiphop_pool_*`), per-shard series
    /// (`hiphop_shard_*{shard="N"}`), per-level sweep-activity counters
    /// (`hiphop_level_*{level="K"}`), and the pooled reaction-duration
    /// histogram with explicit buckets.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let none: [(&str, String); 0] = [];
        let one = |v: String| vec![(none.to_vec(), v)];
        let sum = |f: fn(&Metrics) -> usize| -> usize { self.per_shard.iter().map(|s| f(&s.metrics)).sum() };
        prom_metric(&mut out, "hiphop_pool_sessions", "gauge", "Live sessions across the pool.", &one(self.sessions().to_string()));
        prom_metric(&mut out, "hiphop_pool_quarantined_sessions", "gauge", "Poison-quarantined sessions across the pool.", &one(self.quarantined().to_string()));
        prom_metric(&mut out, "hiphop_pool_shards", "gauge", "Shards in the pool.", &one(self.shards.to_string()));
        prom_metric(&mut out, "hiphop_pool_ticks_total", "counter", "Pool ticks executed.", &one(self.ticks.to_string()));
        prom_metric(&mut out, "hiphop_pool_reactions_total", "counter", "Committed reactions across the pool.", &one(self.reactions.to_string()));
        prom_metric(&mut out, "hiphop_pool_rollbacks_total", "counter", "Rolled-back reactions across the pool.", &one(self.rollbacks.to_string()));
        prom_metric(&mut out, "hiphop_pool_causality_failures_total", "counter", "Causality failures across the pool.", &one(sum(|m| m.causality_failures).to_string()));
        prom_metric(&mut out, "hiphop_pool_async_transitions_total", "counter", "Async lifecycle transitions across the pool.", &one(sum(|m| m.async_events).to_string()));
        prom_metric(&mut out, "hiphop_pool_activity_retries_total", "counter", "Supervised-activity retries across the pool.", &one(sum(|m| m.activity_retries).to_string()));
        prom_metric(&mut out, "hiphop_pool_activity_timeouts_total", "counter", "Supervised-activity timeouts across the pool.", &one(sum(|m| m.activity_timeouts).to_string()));
        prom_metric(&mut out, "hiphop_pool_host_panics_total", "counter", "Host panics caught across the pool.", &one(sum(|m| m.host_panics).to_string()));
        prom_metric(&mut out, "hiphop_pool_busy_us_total", "counter", "Total reaction CPU time, microseconds.", &one(format!("{}", self.busy_us)));
        prom_metric(&mut out, "hiphop_pool_critical_path_us_total", "counter", "Critical-path serving time, microseconds.", &one(format!("{}", self.critical_path_us)));
        prom_metric(&mut out, "hiphop_pool_throughput_rps", "gauge", "Reactions per second over the critical path.", &one(format!("{}", self.throughput_rps())));
        prom_metric(&mut out, "hiphop_pool_reaction_p50_us", "gauge", "Pooled median reaction duration, microseconds.", &one(format!("{}", self.duration_us.p50)));
        prom_metric(&mut out, "hiphop_pool_reaction_p95_us", "gauge", "Pooled 95th-percentile reaction duration, microseconds.", &one(format!("{}", self.duration_us.p95)));
        prom_histogram(
            &mut out,
            "hiphop_pool_reaction_duration_us",
            &none,
            &self.duration_hist,
            self.duration_us.mean * self.duration_us.count as f64,
            "Pooled reaction wall-clock duration, microseconds.",
        );
        let shard_rows = |f: &dyn Fn(&ShardRollup) -> String| -> Vec<(Vec<(&str, String)>, String)> {
            self.per_shard
                .iter()
                .map(|s| (vec![("shard", s.shard.to_string())], f(s)))
                .collect()
        };
        prom_metric(&mut out, "hiphop_shard_sessions", "gauge", "Live sessions per shard.", &shard_rows(&|s| s.sessions.to_string()));
        prom_metric(&mut out, "hiphop_shard_quarantined", "gauge", "Quarantined sessions per shard.", &shard_rows(&|s| s.quarantined.to_string()));
        prom_metric(&mut out, "hiphop_shard_reactions_total", "counter", "Committed reactions per shard.", &shard_rows(&|s| s.metrics.reactions.to_string()));
        prom_metric(&mut out, "hiphop_shard_rollbacks_total", "counter", "Rolled-back reactions per shard.", &shard_rows(&|s| s.rollbacks.to_string()));
        prom_metric(&mut out, "hiphop_shard_reaction_p50_us", "gauge", "Median reaction duration per shard, microseconds.", &shard_rows(&|s| format!("{}", s.metrics.duration_us.p50)));
        prom_metric(&mut out, "hiphop_shard_reaction_p95_us", "gauge", "95th-percentile reaction duration per shard, microseconds.", &shard_rows(&|s| format!("{}", s.metrics.duration_us.p95)));
        if !self.level_activity.is_empty() {
            let rows = |v: &[u64]| -> Vec<(Vec<(&str, String)>, String)> {
                v.iter()
                    .enumerate()
                    .map(|(l, n)| (vec![("level", l.to_string())], n.to_string()))
                    .collect()
            };
            prom_metric(&mut out, "hiphop_level_net_evals_total", "counter", "Nets evaluated per topological level.", &rows(&self.level_activity.evals));
            prom_metric(&mut out, "hiphop_level_net_changed_total", "counter", "Nets that changed value per topological level.", &rows(&self.level_activity.changed));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// JSON encoding (hand-rolled; the repo builds offline with no serde).

/// Escapes `s` as the inside of a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a host [`Value`] as JSON.
pub(crate) fn json_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => {
            if n.is_finite() {
                // `f64::to_string` is shortest-roundtrip in Rust.
                n.to_string()
            } else {
                // JSON has no NaN/Inf; encode as strings.
                format!("\"{n}\"")
            }
        }
        Value::Str(s) => format!("\"{}\"", json_escape(s)),
        Value::Arr(items) => {
            let inner: Vec<String> = items.iter().map(json_value).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Obj(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Structured-trace sink: one JSON object per line, one line per event.
pub struct JsonlSink {
    out: Box<dyn Write>,
    fine: bool,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

/// An in-memory byte buffer usable as a [`JsonlSink`] target; keep the
/// returned handle to read what was written (used by tests and the
/// oracle command).
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(pub Rc<RefCell<Vec<u8>>>);

impl SharedBuffer {
    /// A fresh empty buffer.
    pub fn new() -> SharedBuffer {
        SharedBuffer::default()
    }
    /// The buffered bytes as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.borrow()).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl JsonlSink {
    /// A sink writing to an arbitrary byte stream.
    pub fn new(out: Box<dyn Write>) -> JsonlSink {
        JsonlSink { out, fine: true }
    }

    /// Switches off fine-grained per-net/per-action events, keeping only
    /// the engine-independent lines (reaction boundaries, logs, async
    /// lifecycle, causality). Net-stabilization order differs between
    /// engines, so coarse traces are what the golden-trace regression
    /// tests compare across [`EngineMode`]s.
    pub fn coarse(mut self) -> JsonlSink {
        self.fine = false;
        self
    }

    /// A sink writing (buffered) to the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn to_file(path: &str) -> std::io::Result<JsonlSink> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(f))))
    }

    /// A sink writing to an in-memory buffer, plus the read handle.
    pub fn buffered() -> (JsonlSink, SharedBuffer) {
        let buf = SharedBuffer::new();
        (JsonlSink::new(Box::new(buf.clone())), buf)
    }

    fn line(&mut self, json: &str) {
        let _ = writeln!(self.out, "{json}");
    }
}

impl TraceSink for JsonlSink {
    fn on_event(&mut self, event: &TraceEvent<'_>) {
        if !self.fine
            && matches!(
                event,
                TraceEvent::NetStabilized { .. } | TraceEvent::ActionRun { .. }
            )
        {
            // Another attached sink may have opted into fine events;
            // keep a coarse trace engine-independent regardless.
            return;
        }
        let json = match event {
            TraceEvent::ReactionStart { seq } => {
                format!("{{\"type\":\"reaction_start\",\"seq\":{seq}}}")
            }
            TraceEvent::NetStabilized { net, label, value } => format!(
                "{{\"type\":\"net\",\"net\":{net},\"label\":\"{}\",\"value\":{value}}}",
                json_escape(label)
            ),
            TraceEvent::ActionRun { net, kind } => {
                format!("{{\"type\":\"action\",\"net\":{net},\"kind\":\"{kind}\"}}")
            }
            TraceEvent::AsyncLifecycle {
                async_id,
                instance,
                phase,
            } => format!(
                "{{\"type\":\"async\",\"id\":{async_id},\"instance\":{instance},\"phase\":\"{}\"}}",
                phase.name()
            ),
            TraceEvent::Log { seq, message } => format!(
                "{{\"type\":\"log\",\"seq\":{seq},\"message\":\"{}\"}}",
                json_escape(message)
            ),
            TraceEvent::ReactionEnd { reaction, stats } => {
                let outputs: Vec<String> = reaction
                    .outputs
                    .iter()
                    .map(|o| {
                        format!(
                            "{{\"name\":\"{}\",\"present\":{},\"value\":{}}}",
                            json_escape(&o.name),
                            o.present,
                            json_value(&o.value)
                        )
                    })
                    .collect();
                format!(
                    "{{\"type\":\"reaction_end\",\"seq\":{},\"engine\":\"{}\",\"duration_ns\":{},\"events\":{},\"actions\":{},\"queue_hwm\":{},\"terminated\":{},\"outputs\":[{}]}}",
                    reaction.seq,
                    stats.engine.name(),
                    stats.duration_ns,
                    stats.events,
                    stats.actions,
                    stats.queue_hwm,
                    reaction.terminated,
                    outputs.join(",")
                )
            }
            TraceEvent::CausalityFailure { report } => report.to_json(),
            TraceEvent::ActivityRetry {
                name,
                attempt,
                delay_ms,
            } => format!(
                "{{\"type\":\"activity_retry\",\"name\":\"{}\",\"attempt\":{attempt},\"delay_ms\":{delay_ms}}}",
                json_escape(name)
            ),
            TraceEvent::ActivityTimeout {
                name,
                attempt,
                timeout_ms,
            } => format!(
                "{{\"type\":\"activity_timeout\",\"name\":\"{}\",\"attempt\":{attempt},\"timeout_ms\":{timeout_ms}}}",
                json_escape(name)
            ),
            TraceEvent::ActivityPanic { name, payload } => format!(
                "{{\"type\":\"activity_panic\",\"name\":\"{}\",\"payload\":\"{}\"}}",
                json_escape(name),
                json_escape(payload)
            ),
            TraceEvent::Span { record } => format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"kind\":\"{}\",\"shard\":{},\"name\":\"{}\",\"ts_us\":{},\"dur_us\":{}}}",
                record.id,
                record.parent,
                record.kind.name(),
                record.shard,
                json_escape(&record.name),
                record.ts_us,
                record.dur_us
            ),
        };
        self.line(&json);
    }

    fn wants_net_events(&self) -> bool {
        self.fine
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

// ---------------------------------------------------------------------------
// Span sinks: collection and Chrome trace-event rendering.

/// Accumulates [`SpanRecord`]s published as [`TraceEvent::Span`].
///
/// Cloneable handle over shared storage: the session pool attaches one
/// per machine sink set and drains it after each sweep, re-parenting the
/// collected activity spans under the session's reaction span.
#[derive(Debug, Clone, Default)]
pub struct SpanCollector(pub Rc<RefCell<Vec<SpanRecord>>>);

impl SpanCollector {
    /// A fresh empty collector.
    pub fn new() -> SpanCollector {
        SpanCollector::default()
    }

    /// Takes every span collected so far.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl TraceSink for SpanCollector {
    fn on_event(&mut self, event: &TraceEvent<'_>) {
        if let TraceEvent::Span { record } = event {
            self.0.borrow_mut().push((*record).clone());
        }
    }
}

/// Renders spans as Chrome trace-event JSON (the Perfetto / `chrome://
/// tracing` format): every span becomes one `"ph":"X"` complete event.
///
/// Track mapping: pool-level [`SpanKind::Tick`] spans render on pid 0
/// (`pool`); everything else renders on pid `shard + 1` (`shard N`), so
/// an 8-shard tick reads as one per-process timeline. Within a shard
/// process, sweeps and reactions share tid 0 (sessions sweep serially,
/// so they nest by time) and activity spans sit on tid 1 — their
/// timestamps are virtual-clock µs, a different timebase (`TRACING.md`).
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let pid_of = |s: &SpanRecord| match s.kind {
        SpanKind::Tick => 0u32,
        _ => s.shard + 1,
    };
    let tid_of = |s: &SpanRecord| match s.kind {
        SpanKind::Activity => 1u32,
        _ => 0,
    };
    let mut events: Vec<String> = Vec::with_capacity(spans.len() + 8);
    // Metadata: name the process tracks (and the virtual-time thread).
    let mut pids: Vec<u32> = spans.iter().map(&pid_of).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in &pids {
        let name = if *pid == 0 {
            "pool".to_owned()
        } else {
            format!("shard {}", pid - 1)
        };
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    let mut vtime_tracks: Vec<u32> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Activity)
        .map(&pid_of)
        .collect();
    vtime_tracks.sort_unstable();
    vtime_tracks.dedup();
    for pid in vtime_tracks {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":\"activities (virtual time)\"}}}}"
        ));
    }
    for s in spans {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            json_escape(&s.name),
            s.kind.name(),
            s.ts_us,
            s.dur_us.max(1),
            pid_of(s),
            tid_of(s),
            s.id,
            s.parent
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        events.join(",")
    )
}

/// Span sink rendering Chrome trace-event JSON on [`TraceSink::finish`].
///
/// Collects [`TraceEvent::Span`] records as published; when attached to
/// a bare machine (no pool around it to produce spans), it synthesizes
/// one [`SpanKind::Reaction`] span per committed reaction from the
/// reaction-end statistics, laid end to end on a running cursor.
pub struct ChromeTraceSink {
    spans: Vec<SpanRecord>,
    out: Option<Box<dyn Write>>,
    cursor_us: u64,
    next_id: u64,
}

impl std::fmt::Debug for ChromeTraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceSink")
            .field("spans", &self.spans.len())
            .finish_non_exhaustive()
    }
}

impl ChromeTraceSink {
    /// A sink writing the rendered trace to `out` when finished.
    pub fn new(out: Box<dyn Write>) -> ChromeTraceSink {
        ChromeTraceSink {
            spans: Vec::new(),
            out: Some(out),
            cursor_us: 0,
            // Synthesized ids sit in their own high range so they never
            // collide with pool- or shard-generated ids.
            next_id: 1 << 62,
        }
    }

    /// A sink writing (buffered) to the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn to_file(path: &str) -> std::io::Result<ChromeTraceSink> {
        let f = std::fs::File::create(path)?;
        Ok(ChromeTraceSink::new(Box::new(std::io::BufWriter::new(f))))
    }

    /// The spans buffered so far (collected plus synthesized).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Renders the Chrome trace from the buffered spans.
    pub fn render(&self) -> String {
        chrome_trace(&self.spans)
    }
}

impl TraceSink for ChromeTraceSink {
    fn on_event(&mut self, event: &TraceEvent<'_>) {
        match event {
            TraceEvent::Span { record } => self.spans.push((*record).clone()),
            TraceEvent::ReactionEnd { reaction, stats } => {
                let dur = (stats.duration_ns / 1_000).max(1);
                self.next_id += 1;
                self.spans.push(SpanRecord {
                    id: self.next_id,
                    parent: 0,
                    name: format!("reaction {}", reaction.seq),
                    kind: SpanKind::Reaction,
                    shard: 0,
                    ts_us: self.cursor_us,
                    dur_us: dur,
                });
                self.cursor_us += dur;
            }
            _ => {}
        }
    }

    fn finish(&mut self) {
        if let Some(mut out) = self.out.take() {
            let _ = out.write_all(chrome_trace(&self.spans).as_bytes());
            let _ = out.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// VcdSink.

/// Value Change Dump sink: records output signals each reaction and
/// writes a GTKWave-compatible `.vcd` on [`TraceSink::finish`] (also on
/// drop). One VCD time unit = one instant.
pub struct VcdSink {
    wf: Waveform,
    module: String,
    out: Option<Box<dyn Write>>,
}

impl std::fmt::Debug for VcdSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcdSink")
            .field("module", &self.module)
            .finish_non_exhaustive()
    }
}

impl VcdSink {
    /// A sink recording `signals` of machine/program `module`, writing
    /// to `out` when finished.
    pub fn new(module: impl Into<String>, signals: &[&str], out: Box<dyn Write>) -> VcdSink {
        VcdSink {
            wf: Waveform::new(signals),
            module: module.into(),
            out: Some(out),
        }
    }

    /// A sink recording every output signal of `machine`, writing to the
    /// file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn for_machine(machine: &Machine, path: &str) -> std::io::Result<VcdSink> {
        let outputs: Vec<String> = machine
            .signals()
            .filter(|(_, d, _, _)| d.is_output())
            .map(|(n, _, _, _)| n)
            .collect();
        let refs: Vec<&str> = outputs.iter().map(String::as_str).collect();
        let f = std::fs::File::create(path)?;
        Ok(VcdSink::new(
            machine.circuit().name().to_owned(),
            &refs,
            Box::new(std::io::BufWriter::new(f)),
        ))
    }

    /// The VCD text recorded so far (rendered fresh on each call).
    pub fn render(&self) -> String {
        self.wf.render_vcd(&self.module)
    }
}

impl TraceSink for VcdSink {
    fn on_event(&mut self, event: &TraceEvent<'_>) {
        if let TraceEvent::ReactionEnd { reaction, .. } = event {
            self.wf.record(reaction);
        }
    }

    fn finish(&mut self) {
        if let Some(mut out) = self.out.take() {
            let _ = out.write_all(self.wf.render_vcd(&self.module).as_bytes());
            let _ = out.flush();
        }
    }
}

impl Drop for VcdSink {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 3.0);
        assert!((s.p95 - 4.8).abs() < 1e-12, "p95 interpolates: {}", s.p95);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[]).count, 0);
    }

    #[test]
    fn summary_even_count_median_is_unbiased() {
        // Nearest-rank rounding would pick one of the central elements;
        // interpolation lands exactly between them.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.p50, 2.5);
        assert_eq!(Summary::of(&[10.0, 20.0]).p50, 15.0);
        // A single sample is every percentile.
        let one = Summary::of(&[7.0]);
        assert_eq!((one.p50, one.p95), (7.0, 7.0));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_value(&Value::Str("x\"y".into())), "\"x\\\"y\"");
        assert_eq!(json_value(&Value::Num(1.5)), "1.5");
        assert_eq!(json_value(&Value::Num(f64::NAN)), "\"NaN\"");
        assert_eq!(json_value(&Value::Null), "null");
        assert_eq!(
            json_value(&Value::Arr(vec![Value::Bool(true), Value::Num(2.0)])),
            "[true,2]"
        );
    }

    #[test]
    fn metrics_render_mentions_percentile_columns() {
        let mut sink = MetricsSink::new();
        sink.on_event(&TraceEvent::ReactionEnd {
            reaction: &Reaction {
                seq: 0,
                outputs: vec![],
                terminated: false,
                events: 10,
            },
            stats: ReactionStats {
                duration_ns: 2_000,
                events: 10,
                actions: 3,
                queue_hwm: 4,
                engine: EngineMode::Constructive,
            },
        });
        let text = sink.snapshot().render();
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("duration"), "{text}");
        assert!(text.contains("queue hwm"), "{text}");
        assert_eq!(sink.total_events(), 10);
    }
}
