//! Record/replay trace layer (rr-style, ROADMAP item 4).
//!
//! A [`Trace`] is a compact binary event log of one service execution:
//! per round, the submissions drained, the fault-plan draws consumed, the
//! scheduling and admission decisions taken, and the round boundaries
//! with state hashes (pending window, address index, stats, and periodic
//! physical-memory digests). Because the simulator is deterministic, the
//! log is both a *witness* of a run and an *input* that reproduces it:
//!
//! * **Record** — a [`Tracer`] in record mode appends every event a run
//!   emits; the harness saves the encoded trace next to a failing seed.
//! * **Replay** — a tracer in replay mode feeds the recorded fault draws
//!   and submissions back to the service and checks every emitted event
//!   against the log in lockstep. The first mismatch is latched as a
//!   [`Divergence`] naming the round and position where the re-execution
//!   left the recorded timeline — the divergence checker.
//!
//! Recording is host-side only: no virtual time is charged anywhere, so
//! a traced run is byte-identical to an untraced one. Idle poll sweeps
//! emit nothing (round headers are lazy), which keeps traces proportional
//! to *work done*, not wall time. See DESIGN.md §14.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Magic prefix of an encoded trace.
pub const TRACE_MAGIC: [u8; 4] = *b"CPTR";
/// Encoding version. Version 2 has one round scheme at every shard
/// count: `ShardRoundStart`/`ShardRoundEnd` with commutative per-shard
/// state hashes (version 1's unsharded `RoundStart`/`RoundEnd` chain and
/// its wire tags 3 and 10 are retired).
pub const TRACE_VERSION: u8 = 2;

/// FNV-1a offset basis — the digest seed used by every state hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds one 64-bit word into an FNV-1a accumulator (word-at-a-time
/// variant; all trace state hashes use this so record and replay agree).
pub fn fnv_fold(h: u64, w: u64) -> u64 {
    let mut h = h;
    for b in w.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One recorded event. Integer payloads only — the codec is a tag byte
/// plus LEB128 varints, so common events are 2–6 bytes on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Harness-defined metadata (workload parameters, case seeds). Keys
    /// are owned by the recording harness; replay reconstructs its case
    /// from them.
    Meta { key: u32, val: u64 },
    /// One workload submission (tenant, virtual instant, bytes) — the
    /// consume-from-log input for [`crate::workload::WorkloadPlan`].
    Submission { tenant: u32, at: u64, len: u64 },
    /// A batch of race instants drawn from the fault plan.
    RaceTimes { times: Vec<u64> },
    /// The drain boundary: copy entries and sync tasks pulled this round.
    Drained { copies: u64, syncs: u64 },
    /// One admission decision at the drain boundary.
    Admit {
        client: u32,
        len: u64,
        admitted: bool,
    },
    /// The scheduler picked a client this round.
    SchedPick { client: u32 },
    /// One DMA fault-plan draw: 0 none, 1 transient, 2 hard, 3 timeout.
    DmaDraw { fault: u8 },
    /// One ATCache staleness draw.
    AtcDraw { stale: bool },
    /// A descriptor state transition: a window entry was finalized.
    /// `fault` is 0 for clean completion (see the service's encoding).
    TaskDone { tid: u64, fault: u8 },
    /// Periodic physical-memory digest (checkpoint granularity; see
    /// DESIGN.md §14 for why it is not per-round).
    MemDigest { round: u64, digest: u64 },
    /// One crash-oracle draw at a round sub-step (`point` is the
    /// [`crate::fault::CrashPoint`] wire code; `fire` whether the
    /// service died there).
    CrashDraw { point: u8, fire: bool },
    /// One silent-corruption draw for a DMA transfer: `kind` is 0 for
    /// none, 1 for a bit flip (`arg` = bit position), 2 for a
    /// misdirected write (`arg` = offset shift). See
    /// [`crate::fault::SilentCorruption`].
    CorruptDraw { kind: u8, arg: u64 },
    /// One pinned-page bit-rot draw: `hit` whether rot fires this
    /// round, `pos` the seeded bit position it lands on.
    RotDraw { hit: bool, pos: u64 },
    /// A shard's service round began (DESIGN.md §17; lazy: only emitted
    /// for rounds that produce at least one other event). `round` is the
    /// shard-local round counter.
    ShardRoundStart { shard: u32, round: u64, now: u64 },
    /// Shard round boundary with that shard's state hashes: the pending
    /// windows and address indexes of its clients, plus its per-shard
    /// stats digest. Lets replay pinpoint the first divergent
    /// `(shard, round)` pair instead of just a global position.
    ShardRoundEnd {
        shard: u32,
        round: u64,
        pending: u64,
        index: u64,
        stats: u64,
    },
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint overflow".into());
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl TraceEvent {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            TraceEvent::Meta { key, val } => {
                out.push(0);
                put_varint(out, *key as u64);
                put_varint(out, *val);
            }
            TraceEvent::Submission { tenant, at, len } => {
                out.push(1);
                put_varint(out, *tenant as u64);
                put_varint(out, *at);
                put_varint(out, *len);
            }
            TraceEvent::RaceTimes { times } => {
                out.push(2);
                put_varint(out, times.len() as u64);
                for &t in times {
                    put_varint(out, t);
                }
            }
            TraceEvent::Drained { copies, syncs } => {
                out.push(4);
                put_varint(out, *copies);
                put_varint(out, *syncs);
            }
            TraceEvent::Admit {
                client,
                len,
                admitted,
            } => {
                out.push(5);
                put_varint(out, *client as u64);
                put_varint(out, *len);
                out.push(*admitted as u8);
            }
            TraceEvent::SchedPick { client } => {
                out.push(6);
                put_varint(out, *client as u64);
            }
            TraceEvent::DmaDraw { fault } => {
                out.push(7);
                out.push(*fault);
            }
            TraceEvent::AtcDraw { stale } => {
                out.push(8);
                out.push(*stale as u8);
            }
            TraceEvent::TaskDone { tid, fault } => {
                out.push(9);
                put_varint(out, *tid);
                out.push(*fault);
            }
            TraceEvent::MemDigest { round, digest } => {
                out.push(11);
                put_varint(out, *round);
                put_varint(out, *digest);
            }
            TraceEvent::CrashDraw { point, fire } => {
                out.push(12);
                out.push(*point);
                out.push(*fire as u8);
            }
            TraceEvent::CorruptDraw { kind, arg } => {
                out.push(13);
                out.push(*kind);
                put_varint(out, *arg);
            }
            TraceEvent::RotDraw { hit, pos } => {
                out.push(14);
                out.push(*hit as u8);
                put_varint(out, *pos);
            }
            TraceEvent::ShardRoundStart { shard, round, now } => {
                out.push(15);
                put_varint(out, *shard as u64);
                put_varint(out, *round);
                put_varint(out, *now);
            }
            TraceEvent::ShardRoundEnd {
                shard,
                round,
                pending,
                index,
                stats,
            } => {
                out.push(16);
                put_varint(out, *shard as u64);
                put_varint(out, *round);
                put_varint(out, *pending);
                put_varint(out, *index);
                put_varint(out, *stats);
            }
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Result<TraceEvent, String> {
        let &tag = buf.get(*pos).ok_or("truncated event tag")?;
        *pos += 1;
        let byte = |pos: &mut usize| -> Result<u8, String> {
            let &b = buf.get(*pos).ok_or("truncated event byte")?;
            *pos += 1;
            Ok(b)
        };
        Ok(match tag {
            0 => TraceEvent::Meta {
                key: get_varint(buf, pos)? as u32,
                val: get_varint(buf, pos)?,
            },
            1 => TraceEvent::Submission {
                tenant: get_varint(buf, pos)? as u32,
                at: get_varint(buf, pos)?,
                len: get_varint(buf, pos)?,
            },
            2 => {
                let n = get_varint(buf, pos)? as usize;
                if n > buf.len() {
                    return Err("race-time count exceeds trace size".into());
                }
                let mut times = Vec::with_capacity(n);
                for _ in 0..n {
                    times.push(get_varint(buf, pos)?);
                }
                TraceEvent::RaceTimes { times }
            }
            4 => TraceEvent::Drained {
                copies: get_varint(buf, pos)?,
                syncs: get_varint(buf, pos)?,
            },
            5 => TraceEvent::Admit {
                client: get_varint(buf, pos)? as u32,
                len: get_varint(buf, pos)?,
                admitted: byte(pos)? != 0,
            },
            6 => TraceEvent::SchedPick {
                client: get_varint(buf, pos)? as u32,
            },
            7 => TraceEvent::DmaDraw { fault: byte(pos)? },
            8 => TraceEvent::AtcDraw {
                stale: byte(pos)? != 0,
            },
            9 => TraceEvent::TaskDone {
                tid: get_varint(buf, pos)?,
                fault: byte(pos)?,
            },
            11 => TraceEvent::MemDigest {
                round: get_varint(buf, pos)?,
                digest: get_varint(buf, pos)?,
            },
            12 => TraceEvent::CrashDraw {
                point: byte(pos)?,
                fire: byte(pos)? != 0,
            },
            13 => TraceEvent::CorruptDraw {
                kind: byte(pos)?,
                arg: get_varint(buf, pos)?,
            },
            14 => TraceEvent::RotDraw {
                hit: byte(pos)? != 0,
                pos: get_varint(buf, pos)?,
            },
            15 => TraceEvent::ShardRoundStart {
                shard: get_varint(buf, pos)? as u32,
                round: get_varint(buf, pos)?,
                now: get_varint(buf, pos)?,
            },
            16 => TraceEvent::ShardRoundEnd {
                shard: get_varint(buf, pos)? as u32,
                round: get_varint(buf, pos)?,
                pending: get_varint(buf, pos)?,
                index: get_varint(buf, pos)?,
                stats: get_varint(buf, pos)?,
            },
            t => return Err(format!("unknown event tag {t}")),
        })
    }
}

/// A decoded (or freshly recorded) event log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Wraps an event list.
    pub fn new(events: Vec<TraceEvent>) -> Self {
        Trace { events }
    }

    /// The events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Mutable access (used by tests to inject perturbations).
    pub fn events_mut(&mut self) -> &mut Vec<TraceEvent> {
        &mut self.events
    }

    /// The first `Meta` value recorded under `key`.
    pub fn meta(&self, key: u32) -> Option<u64> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Meta { key: k, val } if *k == key => Some(*val),
            _ => None,
        })
    }

    /// All recorded submissions as `(tenant, at, len)`.
    pub fn submissions(&self) -> Vec<(u32, u64, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Submission { tenant, at, len } => Some((*tenant, *at, *len)),
                _ => None,
            })
            .collect()
    }

    /// Number of distinct rounds that produced events.
    pub fn rounds(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ShardRoundStart { .. }))
            .count()
    }

    /// Encodes to the binary wire format (`CPTR` magic + version +
    /// varint-packed events).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.events.len() * 4);
        out.extend_from_slice(&TRACE_MAGIC);
        out.push(TRACE_VERSION);
        put_varint(&mut out, self.events.len() as u64);
        for e in &self.events {
            e.encode_into(&mut out);
        }
        out
    }

    /// Decodes the binary wire format.
    pub fn decode(buf: &[u8]) -> Result<Trace, String> {
        if buf.len() < 5 || buf[..4] != TRACE_MAGIC {
            return Err("not a CPTR trace".into());
        }
        if buf[4] != TRACE_VERSION {
            return Err(format!("unsupported trace version {}", buf[4]));
        }
        let mut pos = 5usize;
        let n = get_varint(buf, &mut pos)? as usize;
        if n > buf.len() {
            return Err("event count exceeds trace size".into());
        }
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(TraceEvent::decode_from(buf, &mut pos)?);
        }
        if pos != buf.len() {
            return Err(format!("{} trailing bytes after events", buf.len() - pos));
        }
        Ok(Trace { events })
    }

    /// Writes the encoded trace to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Loads and decodes a trace from `path`.
    pub fn load(path: &std::path::Path) -> std::io::Result<Trace> {
        let buf = std::fs::read(path)?;
        Trace::decode(&buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Offline divergence check: the position and surrounding rounds of
    /// the first event where two traces differ (`None` if identical).
    pub fn first_divergence(&self, other: &Trace) -> Option<Divergence> {
        let n = self.events.len().min(other.events.len());
        let mut round = 0u64;
        let mut shard = 0u32;
        for i in 0..n {
            if let TraceEvent::ShardRoundStart {
                shard: s, round: r, ..
            } = self.events[i]
            {
                round = r;
                shard = s;
            }
            if self.events[i] != other.events[i] {
                return Some(Divergence {
                    round,
                    shard,
                    pos: i,
                    expected: Some(self.events[i].clone()),
                    got: format!("{:?}", other.events[i]),
                });
            }
        }
        if self.events.len() != other.events.len() {
            return Some(Divergence {
                round,
                shard,
                pos: n,
                expected: self.events.get(n).cloned(),
                got: format!(
                    "stream ends after {} events (reference has {})",
                    other.events.len(),
                    self.events.len()
                ),
            });
        }
        None
    }
}

/// The first point where a replay left the recorded timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Shard-local round current when the mismatch was detected (0 =
    /// before the first recorded round).
    pub round: u64,
    /// Shard whose round was current when the mismatch was detected.
    pub shard: u32,
    /// Index into the recorded event stream.
    pub pos: usize,
    /// The recorded event at that position (`None` if the log was
    /// already exhausted).
    pub expected: Option<TraceEvent>,
    /// What the re-execution produced instead.
    pub got: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at shard {} round {} (event {}): expected {:?}, got {}",
            self.shard, self.round, self.pos, self.expected, self.got
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Record,
    Replay,
}

/// Default active-round interval between physical-memory digests. The
/// digest walks every allocated frame, so its cadence — not the event
/// log — bounds record overhead; 256 active rounds keeps full-workload
/// recording under the 10% bar while still bracketing a divergence to a
/// few hundred rounds of memory history (`fig_trace` measures both).
pub const DEFAULT_MEM_INTERVAL: u64 = 256;

/// The live recorder / replay checker handed to the service and the
/// fault plan through their configs. Interior mutability throughout —
/// the simulator is single-threaded and the tracer is shared by `Rc`.
pub struct Tracer {
    mode: Mode,
    /// Events this run produced (record and replay both re-record, so a
    /// faithful replay's `finish()` byte-equals the original trace).
    events: RefCell<Vec<TraceEvent>>,
    /// The reference stream (replay mode only).
    recorded: Vec<TraceEvent>,
    cursor: Cell<usize>,
    diverged: RefCell<Option<Divergence>>,
    round: Cell<u64>,
    active_rounds: Cell<u64>,
    mem_interval: Cell<u64>,
    /// The shard whose round header an anonymous emit (fault-plan draw)
    /// attributes to — the last shard that opened a round or emitted
    /// through `emit_on`.
    shard_cur: Cell<u32>,
    /// One lazy round header per shard: set by `begin_shard_round`,
    /// flushed by the first real event of the round, dropped by
    /// `end_shard_round` if none came.
    shard_slots: RefCell<Vec<ShardSlot>>,
}

/// Per-shard lazy round header state.
#[derive(Clone, Copy, Default)]
struct ShardSlot {
    round: u64,
    header: Option<(u64, u64)>,
    flushed: bool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("mode", &self.mode)
            .field("events", &self.events.borrow().len())
            .field("cursor", &self.cursor.get())
            .field("diverged", &self.diverged.borrow().is_some())
            .finish()
    }
}

impl Tracer {
    fn new(mode: Mode, recorded: Vec<TraceEvent>) -> Rc<Self> {
        Rc::new(Tracer {
            mode,
            events: RefCell::new(Vec::new()),
            recorded,
            cursor: Cell::new(0),
            diverged: RefCell::new(None),
            round: Cell::new(0),
            active_rounds: Cell::new(0),
            mem_interval: Cell::new(DEFAULT_MEM_INTERVAL),
            shard_cur: Cell::new(0),
            shard_slots: RefCell::new(Vec::new()),
        })
    }

    /// A tracer that records a fresh run.
    pub fn record() -> Rc<Self> {
        Self::new(Mode::Record, Vec::new())
    }

    /// A tracer that replays `trace`, feeding recorded draws back and
    /// checking every emitted event against the log in lockstep.
    pub fn replay(trace: Trace) -> Rc<Self> {
        Self::new(Mode::Replay, trace.events)
    }

    /// Whether this tracer is in replay mode.
    pub fn is_replay(&self) -> bool {
        self.mode == Mode::Replay
    }

    /// Sets the active-round interval between memory digests.
    pub fn set_mem_interval(&self, every: u64) {
        self.mem_interval.set(every.max(1));
    }

    /// Events emitted so far (bench instrumentation).
    pub fn events_len(&self) -> usize {
        self.events.borrow().len()
    }

    fn mark_divergence(&self, got: String) {
        let pos = self.cursor.get();
        *self.diverged.borrow_mut() = Some(Divergence {
            round: self.round.get(),
            shard: self.shard_cur.get(),
            pos,
            expected: self.recorded.get(pos).cloned(),
            got,
        });
    }

    /// Appends `ev` and, in replay mode, checks it against the recorded
    /// stream. After the first divergence checking stops (the replay
    /// keeps running on live draws so it still terminates cleanly).
    fn push(&self, ev: TraceEvent) {
        if self.mode == Mode::Replay && self.diverged.borrow().is_none() {
            let pos = self.cursor.get();
            match self.recorded.get(pos) {
                Some(rec) if *rec == ev => self.cursor.set(pos + 1),
                _ => self.mark_divergence(format!("{ev:?}")),
            }
        }
        self.events.borrow_mut().push(ev);
    }

    fn flush_header(&self) {
        // One header is buffered per shard; an event is attributed to the
        // shard that last emitted through `emit_on` (anonymous draws
        // inherit it — every *active* shard round flushes its own header
        // through a service emit first, so an inherited flush only ever
        // surfaces an otherwise-idle round, deterministically on record
        // and replay alike).
        let cur = self.shard_cur.get() as usize;
        let hdr = {
            let mut slots = self.shard_slots.borrow_mut();
            match slots.get_mut(cur) {
                Some(slot) => slot.header.take().inspect(|_| slot.flushed = true),
                None => None,
            }
        };
        if let Some((round, now)) = hdr {
            self.push(TraceEvent::ShardRoundStart {
                shard: cur as u32,
                round,
                now,
            });
        }
    }

    /// Emits one event, flushing the pending round header first.
    pub fn emit(&self, ev: TraceEvent) {
        self.flush_header();
        self.push(ev);
    }

    /// Emits one event on behalf of `shard`, flushing that shard's
    /// pending round header first (DESIGN.md §17).
    pub fn emit_on(&self, shard: u32, ev: TraceEvent) {
        self.shard_cur.set(shard);
        self.flush_header();
        self.push(ev);
    }

    /// Opens shard-local round `round` of `shard` at virtual instant
    /// `now`. The header stays buffered until the shard emits something
    /// through `emit_on` (or an anonymous draw lands while this shard is
    /// current).
    pub fn begin_shard_round(&self, shard: u32, round: u64, now: u64) {
        self.round.set(round);
        self.shard_cur.set(shard);
        let mut slots = self.shard_slots.borrow_mut();
        if slots.len() <= shard as usize {
            slots.resize(shard as usize + 1, ShardSlot::default());
        }
        slots[shard as usize] = ShardSlot {
            round,
            header: Some((round, now)),
            flushed: false,
        };
    }

    /// Closes `shard`'s round. If it was active (emitted anything), a
    /// `ShardRoundEnd` carrying that shard's `(pending, index, stats)`
    /// hashes from the closure is appended — the closure is never called
    /// for idle rounds. Returns whether a memory digest checkpoint is
    /// due (counted across all shards' active rounds).
    pub fn end_shard_round(&self, shard: u32, hashes: impl FnOnce() -> (u64, u64, u64)) -> bool {
        let (flushed, round) = {
            let mut slots = self.shard_slots.borrow_mut();
            let slot = &mut slots[shard as usize];
            slot.header = None;
            (slot.flushed, slot.round)
        };
        if !flushed {
            return false;
        }
        let (pending, index, stats) = hashes();
        self.shard_cur.set(shard);
        self.push(TraceEvent::ShardRoundEnd {
            shard,
            round,
            pending,
            index,
            stats,
        });
        let n = self.active_rounds.get() + 1;
        self.active_rounds.set(n);
        n.is_multiple_of(self.mem_interval.get())
    }

    /// Appends a physical-memory digest for the current round.
    pub fn record_mem(&self, digest: u64) {
        self.emit(TraceEvent::MemDigest {
            round: self.round.get(),
            digest,
        });
    }

    /// Replay mode: consumes the next recorded DMA draw. `None` means
    /// the stream diverged (the caller falls back to live draws).
    pub fn take_dma(&self) -> Option<u8> {
        debug_assert!(self.is_replay());
        if self.diverged.borrow().is_some() {
            return None;
        }
        self.flush_header();
        if self.diverged.borrow().is_some() {
            return None;
        }
        let pos = self.cursor.get();
        match self.recorded.get(pos) {
            Some(&TraceEvent::DmaDraw { fault }) => {
                self.cursor.set(pos + 1);
                self.events.borrow_mut().push(TraceEvent::DmaDraw { fault });
                Some(fault)
            }
            _ => {
                self.mark_divergence("a DMA fault draw was requested".into());
                None
            }
        }
    }

    /// Replay mode: consumes the next recorded ATCache staleness draw.
    pub fn take_atc(&self) -> Option<bool> {
        debug_assert!(self.is_replay());
        if self.diverged.borrow().is_some() {
            return None;
        }
        self.flush_header();
        if self.diverged.borrow().is_some() {
            return None;
        }
        let pos = self.cursor.get();
        match self.recorded.get(pos) {
            Some(&TraceEvent::AtcDraw { stale }) => {
                self.cursor.set(pos + 1);
                self.events.borrow_mut().push(TraceEvent::AtcDraw { stale });
                Some(stale)
            }
            _ => {
                self.mark_divergence("an ATC staleness draw was requested".into());
                None
            }
        }
    }

    /// Replay mode: consumes the next recorded crash draw for the crash
    /// point with wire code `point`. `None` means the stream diverged
    /// (the caller falls back to live draws).
    pub fn take_crash(&self, point: u8) -> Option<bool> {
        debug_assert!(self.is_replay());
        if self.diverged.borrow().is_some() {
            return None;
        }
        self.flush_header();
        if self.diverged.borrow().is_some() {
            return None;
        }
        let pos = self.cursor.get();
        match self.recorded.get(pos) {
            Some(&TraceEvent::CrashDraw { point: p, fire }) if p == point => {
                self.cursor.set(pos + 1);
                self.events
                    .borrow_mut()
                    .push(TraceEvent::CrashDraw { point, fire });
                Some(fire)
            }
            _ => {
                self.mark_divergence(format!("a crash draw at point {point} was requested"));
                None
            }
        }
    }

    /// Replay mode: consumes the next recorded silent-corruption draw
    /// as `(kind, arg)`. `None` means the stream diverged (the caller
    /// falls back to live draws).
    pub fn take_corrupt(&self) -> Option<(u8, u64)> {
        debug_assert!(self.is_replay());
        if self.diverged.borrow().is_some() {
            return None;
        }
        self.flush_header();
        if self.diverged.borrow().is_some() {
            return None;
        }
        let pos = self.cursor.get();
        match self.recorded.get(pos) {
            Some(&TraceEvent::CorruptDraw { kind, arg }) => {
                self.cursor.set(pos + 1);
                self.events
                    .borrow_mut()
                    .push(TraceEvent::CorruptDraw { kind, arg });
                Some((kind, arg))
            }
            _ => {
                self.mark_divergence("a silent-corruption draw was requested".into());
                None
            }
        }
    }

    /// Replay mode: consumes the next recorded bit-rot draw as
    /// `(hit, pos)`.
    pub fn take_rot(&self) -> Option<(bool, u64)> {
        debug_assert!(self.is_replay());
        if self.diverged.borrow().is_some() {
            return None;
        }
        self.flush_header();
        if self.diverged.borrow().is_some() {
            return None;
        }
        let pos = self.cursor.get();
        match self.recorded.get(pos) {
            Some(&TraceEvent::RotDraw { hit, pos: p }) => {
                self.cursor.set(pos + 1);
                self.events
                    .borrow_mut()
                    .push(TraceEvent::RotDraw { hit, pos: p });
                Some((hit, p))
            }
            _ => {
                self.mark_divergence("a bit-rot draw was requested".into());
                None
            }
        }
    }

    /// Replay mode: consumes the next recorded race-time batch of
    /// exactly `n` instants.
    pub fn take_races(&self, n: usize) -> Option<Vec<u64>> {
        debug_assert!(self.is_replay());
        if self.diverged.borrow().is_some() {
            return None;
        }
        self.flush_header();
        if self.diverged.borrow().is_some() {
            return None;
        }
        let pos = self.cursor.get();
        match self.recorded.get(pos) {
            Some(TraceEvent::RaceTimes { times }) if times.len() == n => {
                let times = times.clone();
                self.cursor.set(pos + 1);
                self.events.borrow_mut().push(TraceEvent::RaceTimes {
                    times: times.clone(),
                });
                Some(times)
            }
            _ => {
                self.mark_divergence(format!("a batch of {n} race times was requested"));
                None
            }
        }
    }

    /// The first divergence, if the replay has left the recorded
    /// timeline.
    pub fn divergence(&self) -> Option<Divergence> {
        self.diverged.borrow().clone()
    }

    /// Closes the run and returns what it produced as a [`Trace`]. In
    /// replay mode, recorded events the re-execution never consumed are
    /// a divergence too (the run ended early) — latched here.
    pub fn finish(&self) -> Trace {
        if self.mode == Mode::Replay
            && self.diverged.borrow().is_none()
            && self.cursor.get() < self.recorded.len()
        {
            self.mark_divergence(format!(
                "run ended with {} recorded events unconsumed",
                self.recorded.len() - self.cursor.get()
            ));
        }
        Trace {
            events: self.events.borrow().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Meta { key: 1, val: 42 },
            TraceEvent::Submission {
                tenant: 3,
                at: 1_000_000,
                len: 65536,
            },
            TraceEvent::RaceTimes {
                times: vec![5, 1 << 40, 0],
            },
            TraceEvent::ShardRoundStart {
                shard: 0,
                round: 1,
                now: 12345,
            },
            TraceEvent::Drained {
                copies: 4,
                syncs: 1,
            },
            TraceEvent::Admit {
                client: 2,
                len: 4096,
                admitted: true,
            },
            TraceEvent::SchedPick { client: 2 },
            TraceEvent::DmaDraw { fault: 2 },
            TraceEvent::AtcDraw { stale: false },
            TraceEvent::TaskDone { tid: 7, fault: 0 },
            TraceEvent::ShardRoundEnd {
                shard: 0,
                round: 1,
                pending: u64::MAX,
                index: 0,
                stats: 0xdead_beef,
            },
            TraceEvent::MemDigest {
                round: 1,
                digest: FNV_OFFSET,
            },
            TraceEvent::CrashDraw {
                point: 3,
                fire: true,
            },
            TraceEvent::CorruptDraw {
                kind: 1,
                arg: 1 << 33,
            },
            TraceEvent::RotDraw {
                hit: true,
                pos: u64::MAX,
            },
            TraceEvent::ShardRoundStart {
                shard: 3,
                round: 17,
                now: 1 << 50,
            },
            TraceEvent::ShardRoundEnd {
                shard: 3,
                round: 17,
                pending: u64::MAX,
                index: 1,
                stats: 0xfeed_f00d,
            },
        ]
    }

    #[test]
    fn codec_roundtrips_every_event() {
        let t = Trace::new(sample_events());
        let bytes = t.encode();
        assert_eq!(&bytes[..4], b"CPTR");
        let back = Trace::decode(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Trace::decode(b"").is_err());
        assert!(Trace::decode(b"NOPE\x01\x00").is_err());
        assert!(Trace::decode(b"CPTR\x01\x00").is_err(), "bad version");
        let mut bytes = Trace::new(sample_events()).encode();
        bytes.push(0xff);
        assert!(Trace::decode(&bytes).is_err(), "trailing bytes");
        bytes.pop();
        bytes.pop();
        assert!(Trace::decode(&bytes).is_err(), "truncated");
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn replay_lockstep_accepts_faithful_stream() {
        let rec = Tracer::record();
        rec.begin_shard_round(0, 1, 10);
        rec.emit_on(0, TraceEvent::SchedPick { client: 1 });
        rec.end_shard_round(0, || (7, 8, 9));
        let trace = rec.finish();

        let rep = Tracer::replay(trace.clone());
        rep.begin_shard_round(0, 1, 10);
        rep.emit_on(0, TraceEvent::SchedPick { client: 1 });
        rep.end_shard_round(0, || (7, 8, 9));
        assert_eq!(rep.divergence(), None);
        assert_eq!(rep.finish().encode(), trace.encode());
    }

    #[test]
    fn replay_flags_first_mismatch_with_round() {
        let rec = Tracer::record();
        for r in 1..=3u64 {
            rec.begin_shard_round(0, r, r * 10);
            rec.emit_on(0, TraceEvent::SchedPick { client: 1 });
            rec.end_shard_round(0, || (r, r, r));
        }
        let trace = rec.finish();

        let rep = Tracer::replay(trace);
        rep.begin_shard_round(0, 1, 10);
        rep.emit_on(0, TraceEvent::SchedPick { client: 1 });
        rep.end_shard_round(0, || (1, 1, 1));
        rep.begin_shard_round(0, 2, 20);
        rep.emit_on(0, TraceEvent::SchedPick { client: 9 }); // wrong
        rep.end_shard_round(0, || (2, 2, 2));
        let d = rep.divergence().expect("must diverge");
        assert_eq!(d.round, 2);
        assert_eq!(d.expected, Some(TraceEvent::SchedPick { client: 1 }), "{d}");
    }

    #[test]
    fn replay_feeds_back_draws_and_flags_unconsumed_tail() {
        let rec = Tracer::record();
        rec.begin_shard_round(0, 1, 1);
        rec.emit(TraceEvent::DmaDraw { fault: 3 });
        rec.emit(TraceEvent::AtcDraw { stale: true });
        rec.end_shard_round(0, || (0, 0, 0));
        let trace = rec.finish();

        let rep = Tracer::replay(trace.clone());
        rep.begin_shard_round(0, 1, 1);
        // Headers flush through draw consumption too: emit something
        // first the way the service would (drain/sched before draws).
        rep.emit(TraceEvent::DmaDraw { fault: 3 });
        assert_eq!(rep.take_atc(), Some(true));
        rep.end_shard_round(0, || (0, 0, 0));
        assert_eq!(rep.divergence(), None);

        // A replay that stops early leaves recorded events unconsumed.
        let rep2 = Tracer::replay(trace);
        rep2.begin_shard_round(0, 1, 1);
        rep2.emit(TraceEvent::DmaDraw { fault: 3 });
        let _ = rep2.finish();
        assert!(rep2.divergence().is_some(), "unconsumed tail must flag");
    }

    #[test]
    fn shard_round_headers_are_lazy_and_interleave() {
        let t = Tracer::record();
        // Shard 1 opens a round, shard 0 opens one too; only shard 1
        // emits — shard 0's header must never appear.
        t.begin_shard_round(0, 5, 100);
        t.begin_shard_round(1, 7, 100);
        t.emit_on(
            1,
            TraceEvent::Drained {
                copies: 2,
                syncs: 0,
            },
        );
        assert!(!t.end_shard_round(0, || unreachable!("idle shard rounds are never hashed")));
        t.end_shard_round(1, || (4, 5, 6));
        let trace = t.finish();
        assert_eq!(
            trace.events(),
            &[
                TraceEvent::ShardRoundStart {
                    shard: 1,
                    round: 7,
                    now: 100
                },
                TraceEvent::Drained {
                    copies: 2,
                    syncs: 0
                },
                TraceEvent::ShardRoundEnd {
                    shard: 1,
                    round: 7,
                    pending: 4,
                    index: 5,
                    stats: 6
                },
            ]
        );
    }

    #[test]
    fn shard_replay_divergence_names_shard_and_round() {
        let rec = Tracer::record();
        for (shard, round) in [(0u32, 1u64), (1, 1), (0, 2), (1, 2)] {
            rec.begin_shard_round(shard, round, round * 10);
            rec.emit_on(shard, TraceEvent::SchedPick { client: shard });
            rec.end_shard_round(shard, || (round, round, round));
        }
        let trace = rec.finish();

        let rep = Tracer::replay(trace);
        for (shard, round) in [(0u32, 1u64), (1, 1), (0, 2)] {
            rep.begin_shard_round(shard, round, round * 10);
            rep.emit_on(shard, TraceEvent::SchedPick { client: shard });
            rep.end_shard_round(shard, || (round, round, round));
        }
        // Shard 1's second round picks the wrong client.
        rep.begin_shard_round(1, 2, 20);
        rep.emit_on(1, TraceEvent::SchedPick { client: 9 });
        rep.end_shard_round(1, || (2, 2, 2));
        let d = rep.divergence().expect("must diverge");
        assert_eq!((d.shard, d.round), (1, 2), "{d}");
    }

    #[test]
    fn offline_first_divergence_localizes() {
        let a = Trace::new(sample_events());
        let mut b = a.clone();
        b.events_mut()[7] = TraceEvent::DmaDraw { fault: 0 };
        let d = a.first_divergence(&b).expect("must differ");
        assert_eq!(d.pos, 7);
        assert_eq!(d.round, 1);
        assert_eq!(a.first_divergence(&a), None);
    }
}
