//! Durable, versioned machine snapshots — the wire format behind
//! `SessionPool::snapshot`/`restore`, crash recovery and live migration.
//!
//! The machine already keeps a rollback-grade snapshot of everything a
//! failed reaction can mutate; this module promotes that state set into a
//! *serializable* [`MachineSnapshot`]: register planes, the valued-signal
//! environment (current and pre values), host variables, delay counters,
//! async instance state, the termination/poison flags, the engine
//! request, and — crucially for deterministic recovery — the exact
//! chaos-injector RNG position, so a restored session continues the same
//! fault schedule byte-for-byte.
//!
//! # Wire format
//!
//! Snapshots are dependency-free JSONL, the same codec family as the
//! flight recorder (`crate::flight`): a header line
//!
//! ```json
//! {"kind":"pool-snapshot","version":1,"ticks":12,"tick_ms":10,"sessions":2}
//! ```
//!
//! followed by one `{"kind":"session",...}` line per session. Numbers use
//! JSON doubles (exact for finite `f64`s and integers below 2^53 — tick
//! and instance counters in practice); full-range `u64`s (structural
//! hash, RNG state, session ids) are 16-hex strings so no precision is
//! lost. Non-finite numbers encode as strings, the same documented caveat
//! as the flight recorder.
//!
//! # Guards
//!
//! Two guards make a snapshot refuse to load into the wrong program:
//! [`SNAPSHOT_FORMAT_VERSION`] (wire format evolution) and
//! [`circuit_struct_hash`] — an FNV-1a digest of the compiled circuit's
//! *structure* (net equations, fanins, dependencies, actions, signals,
//! registers, counters, asyncs). Unlike `cohort_key`, which hashes the
//! levelized schedule tables and is `None` for cyclic circuits, the
//! structural hash covers every circuit, so the guard works for hybrid
//! and constructive programs too.

use crate::flight::{digest_hash, Json};
use crate::levelized::EngineMode;
use crate::telemetry::{json_escape, json_value};
use hiphop_circuit::circuit::Circuit;
use hiphop_core::value::Value;
use std::fmt;

/// Version stamp of the snapshot wire format; bumped on any
/// backwards-incompatible change. Loading a snapshot with a different
/// version fails with [`SnapshotError::VersionMismatch`].
pub const SNAPSHOT_FORMAT_VERSION: u64 = 1;

/// Why a snapshot could not be loaded.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The snapshot was written by a different wire-format version.
    VersionMismatch {
        /// Version found in the snapshot header.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// The snapshot belongs to a structurally different circuit.
    CircuitMismatch {
        /// Program name + structural hash recorded in the snapshot.
        found: (String, u64),
        /// Program name + structural hash of the target machine.
        expected: (String, u64),
    },
    /// The snapshot text is not well-formed.
    Malformed(String),
    /// A restored session's state digest does not match the digest
    /// recorded at capture time.
    DigestMismatch {
        /// The session whose digest diverged.
        session: u64,
        /// Digest hash recorded in the snapshot.
        expected: String,
        /// Digest hash of the restored machine.
        found: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} (this build reads {expected})"
            ),
            SnapshotError::CircuitMismatch { found, expected } => write!(
                f,
                "snapshot of `{}` (struct {:016x}) cannot load into `{}` (struct {:016x})",
                found.0, found.1, expected.0, expected.1
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::DigestMismatch {
                session,
                expected,
                found,
            } => write!(
                f,
                "session {session}: restored digest {found} != recorded {expected}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

// FNV-1a, the same constants as the cohort keyer.
const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_MULT: u64 = 0x0000_0100_0000_01B3;

fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(FNV_MULT);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv_bytes(h, &v.to_le_bytes());
}

/// FNV-1a digest of the circuit's structure: program name, every net's
/// equation (kind, fanins, dependencies), every action, every signal's
/// interface (name, direction, init, combine, wiring), registers,
/// counters and async instances. Two circuits hash equal iff a snapshot
/// of one is state-compatible with the other. The `Debug` renderings
/// hashed here are stable (host closures print by name, never by
/// address), so the hash is reproducible across processes.
pub fn circuit_struct_hash(circuit: &Circuit) -> u64 {
    let mut h = FNV_BASIS;
    fnv_bytes(&mut h, circuit.name().as_bytes());
    fnv_u64(&mut h, circuit.nets().len() as u64);
    for net in circuit.nets() {
        fnv_bytes(&mut h, format!("{:?}", net.kind).as_bytes());
        for fanin in &net.fanins {
            fnv_u64(&mut h, u64::from(fanin.net.0) << 1 | u64::from(fanin.negated));
        }
        fnv_u64(&mut h, u64::MAX); // fanin/deps separator
        for dep in &net.deps {
            fnv_u64(&mut h, u64::from(dep.0));
        }
        match net.action {
            Some(a) => fnv_u64(&mut h, u64::from(a.0)),
            None => fnv_bytes(&mut h, b"-"),
        }
    }
    fnv_u64(&mut h, circuit.actions().len() as u64);
    for action in circuit.actions() {
        fnv_bytes(&mut h, format!("{action:?}").as_bytes());
    }
    fnv_u64(&mut h, circuit.signals().len() as u64);
    for sig in circuit.signals() {
        fnv_bytes(&mut h, sig.name.as_bytes());
        fnv_bytes(
            &mut h,
            format!(
                "{:?}/{:?}/{:?}/{}/{}/{:?}",
                sig.direction, sig.init, sig.combine, sig.status_net, sig.pre_net, sig.input_net
            )
            .as_bytes(),
        );
        for e in &sig.emitters {
            fnv_u64(&mut h, u64::from(e.0));
        }
    }
    fnv_u64(&mut h, circuit.registers().len() as u64);
    for reg in circuit.registers() {
        fnv_u64(&mut h, u64::from(reg.input.0));
        fnv_u64(&mut h, u64::from(reg.output.0) << 1 | u64::from(reg.init));
    }
    fnv_u64(&mut h, circuit.counters().len() as u64);
    for counter in circuit.counters() {
        fnv_bytes(&mut h, counter.label.as_bytes());
    }
    fnv_u64(&mut h, circuit.asyncs().len() as u64);
    for a in circuit.asyncs() {
        fnv_bytes(&mut h, a.label.as_bytes());
        fnv_bytes(
            &mut h,
            format!("{:?}/{}", a.signal, a.notify_net).as_bytes(),
        );
    }
    h
}

/// One async statement instance's runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncSnapshot {
    /// Whether the instance is currently active.
    pub active: bool,
    /// Its (monotonic) instance number.
    pub instance: u64,
    /// The host-visible shared state cell.
    pub state: Value,
    /// A notification staged but not yet consumed by a reaction.
    pub notified: Option<Value>,
}

/// Chaos injector position: the PCG32 `(state, inc)` pair plus the rate.
/// Capturing the raw stream position (not the seed) means a restored
/// machine continues the *same* fault schedule where the original left
/// off — re-seeding would replay faults already injected.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSnapshot {
    /// PCG32 state word.
    pub state: u64,
    /// PCG32 stream selector.
    pub inc: u64,
    /// Per-action panic probability.
    pub rate: f64,
}

/// The complete persistent state of one [`crate::Machine`], serializable
/// and loadable into any machine compiled from a structurally identical
/// circuit (enforced by [`circuit_struct_hash`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnapshot {
    /// Program name (diagnostics only; the hash is the guard).
    pub program: String,
    /// [`circuit_struct_hash`] of the source circuit.
    pub struct_hash: u64,
    /// The explicit engine request (`None` = automatic selection), as a
    /// lowercase tag: `levelized`, `constructive`, `naive`, `hybrid`.
    pub engine: Option<String>,
    /// Register plane.
    pub regs: Vec<bool>,
    /// Current signal values.
    pub sig_val: Vec<Value>,
    /// Previous-instant signal values (`S.preval`).
    pub sig_preval: Vec<Value>,
    /// Host variables, sorted by name.
    pub vars: Vec<(String, Value)>,
    /// Delay counters.
    pub counters: Vec<f64>,
    /// Previous-instant presence (`S.pre`).
    pub last_present: Vec<bool>,
    /// Termination flag.
    pub terminated: bool,
    /// Reactions executed.
    pub seq: u64,
    /// Next async instance number (monotonic; restored so instance
    /// numbers never collide across a recovery).
    pub next_instance: u64,
    /// The retained `hop { log(...) }` buffer.
    pub log: Vec<String>,
    /// Poison flag (non-rollback failure mode).
    pub poisoned: bool,
    /// Per-async-instance runtime state.
    pub asyncs: Vec<AsyncSnapshot>,
    /// Armed chaos injector, if any.
    pub chaos: Option<ChaosSnapshot>,
}

/// A supervised activity's retry/backoff state, captured mid-flight so a
/// migrated or recovered session resumes its supervision exactly where
/// it stopped: same attempt number, same epoch, same backoff RNG
/// position, same remaining virtual-time delays. Timer deadlines are
/// stored as *remaining* milliseconds — shard clocks advance in
/// lockstep, so the remainder is portable across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySnapshot {
    /// The async statement instance this activity serves.
    pub async_id: u32,
    /// Its machine-side instance number.
    pub instance: u64,
    /// Activity name (keys the spec registry on adoption).
    pub name: String,
    /// Attempts started so far.
    pub attempt: u32,
    /// Supervision epoch (stales in-flight callbacks).
    pub epoch: u64,
    /// Backoff RNG state word.
    pub rng_state: u64,
    /// Backoff RNG stream selector.
    pub rng_inc: u64,
    /// `Some(ms)` when the activity was waiting out a retry backoff.
    pub retry_in_ms: Option<u64>,
    /// `Some(ms)` when an attempt was in flight with this much of its
    /// timeout budget left.
    pub timeout_in_ms: Option<u64>,
}

/// One session's snapshot: the machine state plus its supervised
/// activities and the digest recorded at capture (verified on restore).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The session id.
    pub session: u64,
    /// Whether the session was poison-quarantined.
    pub quarantined: bool,
    /// `digest_hash` of the machine's state digest at capture.
    pub digest: String,
    /// The machine state.
    pub machine: MachineSnapshot,
    /// Supervised activities in flight at capture.
    pub activities: Vec<ActivitySnapshot>,
}

/// A whole-pool checkpoint: every session of a `SessionPool` at a tick
/// boundary. Shard topology is deliberately *not* recorded — a snapshot
/// taken on 4 shards restores onto 3 (or 1, or 8) because sessions are
/// re-routed by the target pool's own placement function.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSnapshot {
    /// Wire format version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub version: u64,
    /// Pool ticks executed when the snapshot was taken.
    pub ticks: u64,
    /// The pool's virtual-time tick width in milliseconds.
    pub tick_ms: u64,
    /// All sessions, in ascending session-id order.
    pub sessions: Vec<SessionSnapshot>,
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn opt_value_json(v: &Option<Value>) -> String {
    // `Value::Null` is a real value, so absence is a 0/1-element array.
    match v {
        Some(v) => format!("[{}]", json_value(v)),
        None => "[]".to_owned(),
    }
}

fn machine_json(m: &MachineSnapshot) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"program\":\"{}\",\"struct_hash\":\"{}\",\"engine\":{},",
        json_escape(&m.program),
        hex(m.struct_hash),
        match &m.engine {
            Some(e) => format!("\"{}\"", json_escape(e)),
            None => "null".to_owned(),
        }
    );
    let bools = |v: &[bool]| {
        let items: Vec<&str> = v.iter().map(|b| if *b { "true" } else { "false" }).collect();
        format!("[{}]", items.join(","))
    };
    let values = |v: &[Value]| {
        let items: Vec<String> = v.iter().map(json_value).collect();
        format!("[{}]", items.join(","))
    };
    let _ = write!(
        s,
        "\"regs\":{},\"sig_val\":{},\"sig_preval\":{},",
        bools(&m.regs),
        values(&m.sig_val),
        values(&m.sig_preval)
    );
    let vars: Vec<String> = m
        .vars
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_value(v)))
        .collect();
    let counters: Vec<String> = m.counters.iter().map(|c| json_value(&Value::Num(*c))).collect();
    let logs: Vec<String> = m
        .log
        .iter()
        .map(|l| format!("\"{}\"", json_escape(l)))
        .collect();
    let _ = write!(
        s,
        "\"vars\":{{{}}},\"counters\":[{}],\"last_present\":{},\"terminated\":{},\"seq\":{},\"next_instance\":{},\"log\":[{}],\"poisoned\":{},",
        vars.join(","),
        counters.join(","),
        bools(&m.last_present),
        m.terminated,
        m.seq,
        m.next_instance,
        logs.join(","),
        m.poisoned
    );
    let asyncs: Vec<String> = m
        .asyncs
        .iter()
        .map(|a| {
            format!(
                "{{\"active\":{},\"instance\":{},\"state\":{},\"notified\":{}}}",
                a.active,
                a.instance,
                json_value(&a.state),
                opt_value_json(&a.notified)
            )
        })
        .collect();
    let _ = write!(
        s,
        "\"asyncs\":[{}],\"chaos\":{}}}",
        asyncs.join(","),
        match &m.chaos {
            Some(c) => format!(
                "{{\"state\":\"{}\",\"inc\":\"{}\",\"rate\":{}}}",
                hex(c.state),
                hex(c.inc),
                json_value(&Value::Num(c.rate))
            ),
            None => "null".to_owned(),
        }
    );
    s
}

fn activity_json(a: &ActivitySnapshot) -> String {
    let opt = |v: &Option<u64>| match v {
        Some(n) => format!("[{n}]"),
        None => "[]".to_owned(),
    };
    format!(
        "{{\"async_id\":{},\"instance\":{},\"name\":\"{}\",\"attempt\":{},\"epoch\":{},\"rng_state\":\"{}\",\"rng_inc\":\"{}\",\"retry_in_ms\":{},\"timeout_in_ms\":{}}}",
        a.async_id,
        a.instance,
        json_escape(&a.name),
        a.attempt,
        a.epoch,
        hex(a.rng_state),
        hex(a.rng_inc),
        opt(&a.retry_in_ms),
        opt(&a.timeout_in_ms)
    )
}

impl PoolSnapshot {
    /// Serializes the snapshot to JSONL (header line + one line per
    /// session).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"pool-snapshot\",\"version\":{},\"ticks\":{},\"tick_ms\":{},\"sessions\":{}}}",
            self.version,
            self.ticks,
            self.tick_ms,
            self.sessions.len()
        );
        for sess in &self.sessions {
            let acts: Vec<String> = sess.activities.iter().map(activity_json).collect();
            let _ = writeln!(
                out,
                "{{\"kind\":\"session\",\"session\":\"{}\",\"quarantined\":{},\"digest\":\"{}\",\"machine\":{},\"activities\":[{}]}}",
                hex(sess.session),
                sess.quarantined,
                json_escape(&sess.digest),
                machine_json(&sess.machine),
                acts.join(",")
            );
        }
        out
    }

    /// Parses a snapshot from its JSONL form, verifying the format
    /// version and the declared session count.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionMismatch`] on a version skew,
    /// [`SnapshotError::Malformed`] on any structural problem.
    pub fn from_jsonl(text: &str) -> Result<PoolSnapshot, SnapshotError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| SnapshotError::Malformed("empty snapshot".into()))?;
        let header = Json::parse(header).map_err(SnapshotError::Malformed)?;
        if header.get("kind").and_then(Json::as_str) != Some("pool-snapshot") {
            return Err(SnapshotError::Malformed(
                "first line is not a pool-snapshot header".into(),
            ));
        }
        let version = need_u64(&header, "version")?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let ticks = need_u64(&header, "ticks")?;
        let tick_ms = need_u64(&header, "tick_ms")?;
        let declared = need_u64(&header, "sessions")? as usize;
        let mut sessions = Vec::with_capacity(declared);
        for line in lines {
            let j = Json::parse(line).map_err(SnapshotError::Malformed)?;
            if j.get("kind").and_then(Json::as_str) != Some("session") {
                return Err(SnapshotError::Malformed(format!(
                    "unexpected line kind {:?}",
                    j.get("kind")
                )));
            }
            sessions.push(parse_session(&j)?);
        }
        if sessions.len() != declared {
            return Err(SnapshotError::Malformed(format!(
                "header declares {declared} sessions, found {}",
                sessions.len()
            )));
        }
        Ok(PoolSnapshot {
            version,
            ticks,
            tick_ms,
            sessions,
        })
    }
}

fn need<'a>(j: &'a Json, key: &str) -> Result<&'a Json, SnapshotError> {
    j.get(key)
        .ok_or_else(|| SnapshotError::Malformed(format!("missing key `{key}`")))
}

fn need_u64(j: &Json, key: &str) -> Result<u64, SnapshotError> {
    need(j, key)?
        .as_u64()
        .ok_or_else(|| SnapshotError::Malformed(format!("`{key}` is not a u64")))
}

fn need_bool(j: &Json, key: &str) -> Result<bool, SnapshotError> {
    need(j, key)?
        .as_bool()
        .ok_or_else(|| SnapshotError::Malformed(format!("`{key}` is not a bool")))
}

fn need_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, SnapshotError> {
    need(j, key)?
        .as_str()
        .ok_or_else(|| SnapshotError::Malformed(format!("`{key}` is not a string")))
}

fn need_hex(j: &Json, key: &str) -> Result<u64, SnapshotError> {
    u64::from_str_radix(need_str(j, key)?, 16)
        .map_err(|e| SnapshotError::Malformed(format!("`{key}` is not hex: {e}")))
}

fn need_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], SnapshotError> {
    need(j, key)?
        .as_array()
        .ok_or_else(|| SnapshotError::Malformed(format!("`{key}` is not an array")))
}

fn bool_vec(j: &Json, key: &str) -> Result<Vec<bool>, SnapshotError> {
    need_arr(j, key)?
        .iter()
        .map(|b| {
            b.as_bool()
                .ok_or_else(|| SnapshotError::Malformed(format!("`{key}` holds a non-bool")))
        })
        .collect()
}

fn value_vec(j: &Json, key: &str) -> Result<Vec<Value>, SnapshotError> {
    Ok(need_arr(j, key)?.iter().map(Json::to_value).collect())
}

fn opt_value(j: &Json, key: &str) -> Result<Option<Value>, SnapshotError> {
    let arr = need_arr(j, key)?;
    match arr.len() {
        0 => Ok(None),
        1 => Ok(Some(arr[0].to_value())),
        n => Err(SnapshotError::Malformed(format!(
            "`{key}` option array has {n} elements"
        ))),
    }
}

fn opt_u64(j: &Json, key: &str) -> Result<Option<u64>, SnapshotError> {
    let arr = need_arr(j, key)?;
    match arr.len() {
        0 => Ok(None),
        1 => arr[0]
            .as_u64()
            .map(Some)
            .ok_or_else(|| SnapshotError::Malformed(format!("`{key}` holds a non-u64"))),
        n => Err(SnapshotError::Malformed(format!(
            "`{key}` option array has {n} elements"
        ))),
    }
}

fn parse_machine(j: &Json) -> Result<MachineSnapshot, SnapshotError> {
    let engine = match need(j, "engine")? {
        Json::Null => None,
        Json::Str(s) => Some(s.clone()),
        _ => {
            return Err(SnapshotError::Malformed(
                "`engine` is neither null nor a string".into(),
            ))
        }
    };
    let vars = match need(j, "vars")? {
        Json::Obj(members) => members
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect(),
        _ => return Err(SnapshotError::Malformed("`vars` is not an object".into())),
    };
    let counters = need_arr(j, "counters")?
        .iter()
        .map(|c| {
            c.as_f64()
                .ok_or_else(|| SnapshotError::Malformed("`counters` holds a non-number".into()))
        })
        .collect::<Result<Vec<f64>, _>>()?;
    let log = need_arr(j, "log")?
        .iter()
        .map(|l| {
            l.as_str()
                .map(str::to_owned)
                .ok_or_else(|| SnapshotError::Malformed("`log` holds a non-string".into()))
        })
        .collect::<Result<Vec<String>, _>>()?;
    let asyncs = need_arr(j, "asyncs")?
        .iter()
        .map(|a| {
            Ok(AsyncSnapshot {
                active: need_bool(a, "active")?,
                instance: need_u64(a, "instance")?,
                state: need(a, "state")?.to_value(),
                notified: opt_value(a, "notified")?,
            })
        })
        .collect::<Result<Vec<AsyncSnapshot>, SnapshotError>>()?;
    let chaos = match need(j, "chaos")? {
        Json::Null => None,
        c @ Json::Obj(_) => Some(ChaosSnapshot {
            state: need_hex(c, "state")?,
            inc: need_hex(c, "inc")?,
            rate: need(c, "rate")?
                .as_f64()
                .ok_or_else(|| SnapshotError::Malformed("chaos `rate` is not a number".into()))?,
        }),
        _ => {
            return Err(SnapshotError::Malformed(
                "`chaos` is neither null nor an object".into(),
            ))
        }
    };
    Ok(MachineSnapshot {
        program: need_str(j, "program")?.to_owned(),
        struct_hash: need_hex(j, "struct_hash")?,
        engine,
        regs: bool_vec(j, "regs")?,
        sig_val: value_vec(j, "sig_val")?,
        sig_preval: value_vec(j, "sig_preval")?,
        vars,
        counters,
        last_present: bool_vec(j, "last_present")?,
        terminated: need_bool(j, "terminated")?,
        seq: need_u64(j, "seq")?,
        next_instance: need_u64(j, "next_instance")?,
        log,
        poisoned: need_bool(j, "poisoned")?,
        asyncs,
        chaos,
    })
}

fn parse_session(j: &Json) -> Result<SessionSnapshot, SnapshotError> {
    let activities = need_arr(j, "activities")?
        .iter()
        .map(|a| {
            Ok(ActivitySnapshot {
                async_id: need_u64(a, "async_id")? as u32,
                instance: need_u64(a, "instance")?,
                name: need_str(a, "name")?.to_owned(),
                attempt: need_u64(a, "attempt")? as u32,
                epoch: need_u64(a, "epoch")?,
                rng_state: need_hex(a, "rng_state")?,
                rng_inc: need_hex(a, "rng_inc")?,
                retry_in_ms: opt_u64(a, "retry_in_ms")?,
                timeout_in_ms: opt_u64(a, "timeout_in_ms")?,
            })
        })
        .collect::<Result<Vec<ActivitySnapshot>, SnapshotError>>()?;
    Ok(SessionSnapshot {
        session: need_hex(j, "session")?,
        quarantined: need_bool(j, "quarantined")?,
        digest: need_str(j, "digest")?.to_owned(),
        machine: parse_machine(need(j, "machine")?)?,
        activities,
    })
}

/// `digest_hash` of a machine-state digest string — the per-session
/// fingerprint stored in [`SessionSnapshot::digest`].
pub fn digest_of(state_digest: &str) -> String {
    digest_hash(state_digest)
}

/// Lowercase wire tag of an engine mode ([`MachineSnapshot::engine`]).
pub fn engine_tag(mode: EngineMode) -> &'static str {
    match mode {
        EngineMode::Levelized => "levelized",
        EngineMode::Constructive => "constructive",
        EngineMode::Naive => "naive",
        EngineMode::Hybrid => "hybrid",
        EngineMode::Sparse => "sparse",
    }
}

/// Inverse of [`engine_tag`].
pub fn engine_from_tag(tag: &str) -> Option<EngineMode> {
    match tag {
        "levelized" => Some(EngineMode::Levelized),
        "constructive" => Some(EngineMode::Constructive),
        "naive" => Some(EngineMode::Naive),
        "hybrid" => Some(EngineMode::Hybrid),
        "sparse" => Some(EngineMode::Sparse),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PoolSnapshot {
        PoolSnapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            ticks: 12,
            tick_ms: 10,
            sessions: vec![SessionSnapshot {
                session: 0xDEAD_BEEF_0000_0042,
                quarantined: false,
                digest: "0011223344556677".into(),
                machine: MachineSnapshot {
                    program: "Orchestrator \"quoted\"".into(),
                    struct_hash: 0x0123_4567_89AB_CDEF,
                    engine: Some("hybrid".into()),
                    regs: vec![true, false, true],
                    sig_val: vec![Value::Num(3.5), Value::Str("hi\nthere".into())],
                    sig_preval: vec![Value::Null, Value::Bool(true)],
                    vars: vec![("x".into(), Value::Num(-0.5))],
                    counters: vec![2.0, 0.0],
                    last_present: vec![false, true],
                    terminated: false,
                    seq: 12,
                    next_instance: 3,
                    log: vec!["booted".into()],
                    poisoned: false,
                    asyncs: vec![AsyncSnapshot {
                        active: true,
                        instance: 2,
                        state: Value::Obj(
                            [("k".to_owned(), Value::Num(1.0))].into_iter().collect(),
                        ),
                        notified: Some(Value::Null),
                    }],
                    chaos: Some(ChaosSnapshot {
                        state: u64::MAX - 7,
                        inc: 0x9E37_79B9_7F4A_7C15,
                        rate: 0.05,
                    }),
                },
                activities: vec![ActivitySnapshot {
                    async_id: 0,
                    instance: 2,
                    name: "fetch".into(),
                    attempt: 3,
                    epoch: 7,
                    rng_state: u64::MAX,
                    rng_inc: 1,
                    retry_in_ms: Some(250),
                    timeout_in_ms: None,
                }],
            }],
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let snap = sample();
        let text = snap.to_jsonl();
        let back = PoolSnapshot::from_jsonl(&text).expect("parse");
        assert_eq!(snap, back);
        // Idempotent: serialize-parse-serialize is a fixpoint.
        assert_eq!(text, back.to_jsonl());
    }

    #[test]
    fn version_guard_refuses_future_formats() {
        let mut snap = sample();
        snap.version = SNAPSHOT_FORMAT_VERSION + 1;
        let text = snap.to_jsonl();
        match PoolSnapshot::from_jsonl(&text) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!(found, SNAPSHOT_FORMAT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
            }
            other => panic!("expected a version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "",
            "{\"kind\":\"flight\"}",
            "{\"kind\":\"pool-snapshot\",\"version\":1,\"ticks\":0,\"tick_ms\":10,\"sessions\":2}",
            "not json at all",
        ] {
            assert!(
                PoolSnapshot::from_jsonl(bad).is_err(),
                "accepted malformed input {bad:?}"
            );
        }
    }
}
