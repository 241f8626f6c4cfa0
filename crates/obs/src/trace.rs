//! The flight recorder: lock-free, bounded, per-thread trace rings.
//!
//! Counters and histograms say *how much*; the trace ring says *what
//! happened last*. Each participating thread claims one single-writer
//! ring from a fixed static pool and appends fixed-size records —
//! `(48-bit monotonic timestamp, event kind, u8 aux, u64 tag, u32
//! payload)` packed into three `u64` words. Writers never block, never
//! allocate, and never contend with each other; readers take a
//! torn-record-safe snapshot of every ring at once, which is what the
//! serve supervisor dumps when a shard panics, restarts, or detects
//! corruption.
//!
//! # Record layout
//!
//! Word 0: `kind << 56 | aux << 48 | ts_ns & ((1 << 48) - 1)` — 48 bits
//! of nanoseconds since the process trace epoch (~3.2 days of range).
//! Word 1: the request `tag`. Word 2: the `u32` payload (input bit
//! pattern, latency, lane count — kind-dependent), zero-extended.
//!
//! # Sampling
//!
//! Per-request events are sampled by a deterministic hash of the request
//! tag ([`sampled`]): a request is sampled when the low
//! [`sample_shift`] bits of `splitmix64(tag)` are zero, so every stage
//! of the pipeline — producer, shard, completion — independently agrees
//! on the same sample set and a sampled request yields a *complete*
//! span breakdown. Shed and rescalar events bypass sampling: they are
//! the exemplars the harness exists to capture.
//!
//! # Memory bound and loss
//!
//! The pool is `MAX_RINGS` rings of `RING_CAP` records (24 bytes each):
//! ~384 KiB total, allocated statically. A thread that finds every ring
//! busy drops its events and bumps [`dropped_events`]; a full ring
//! overwrites its own oldest records. A snapshot taken while a writer
//! is mid-append conservatively excludes the records the writer could
//! have been touching, so at most `RING_CAP - 1` records per ring are
//! visible.
//!
//! Without the `telemetry` feature every function here is an
//! `#[inline(always)]` no-op, the pool does not exist, and
//! [`snapshot_rings`] returns an empty vector.

#[cfg(feature = "telemetry")]
use core::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
#[cfg(feature = "telemetry")]
use std::cell::{Cell, RefCell};
#[cfg(feature = "telemetry")]
use std::sync::OnceLock;
#[cfg(feature = "telemetry")]
use std::time::Instant;

/// Records per ring. One ring holds the last `RING_CAP` events of one
/// thread (a snapshot sees at most `RING_CAP - 1` of them).
pub const RING_CAP: usize = 512;

/// Rings in the static pool — the maximum number of concurrently
/// tracing threads. Threads beyond this drop events (counted).
pub const MAX_RINGS: usize = 32;

/// `u64` words per record.
#[cfg(feature = "telemetry")]
const WORDS: usize = 3;

/// Timestamp mask: 48 bits of nanoseconds (~3.2 days).
#[cfg(feature = "telemetry")]
const TS_MASK: u64 = (1 << 48) - 1;

/// What a trace record describes. The discriminant is stored in the
/// record's high byte; sheds get one kind per reason so the payload
/// stays free for the input bit pattern (the exemplar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Producer pushed a request into a shard ring. Payload: input bits.
    Enqueue = 1,
    /// Shard popped the request. Payload: queue wait (ns, saturated).
    Dequeue = 2,
    /// A batch left staging for the kernel. Payload: lane count.
    BatchFlush = 3,
    /// A sampled request completed. Payload: latency (ns, saturated).
    Complete = 4,
    /// A slice-kernel lane fell back to the scalar two-tier path.
    /// Payload: the lane's f32 input bits.
    Rescalar = 5,
    /// Shed: deadline exceeded. Payload: input bits.
    ShedDeadline = 6,
    /// Shed: ring full past the push budget. Payload: input bits.
    ShedBackpressure = 7,
    /// Shed: admission closed (drain). Payload: input bits.
    ShedAdmission = 8,
    /// Shed: checksum mismatch. Payload: input bits (as observed).
    ShedCorrupted = 9,
    /// Shed: shard gave up after repeated panics. Payload: input bits.
    ShedPoisoned = 10,
    /// Supervisor caught a shard panic. Payload: restart ordinal.
    PanicCaught = 11,
    /// Supervisor restarted a shard worker. Payload: restart ordinal.
    Restart = 12,
}

impl TraceKind {
    /// Decodes a stored kind byte (`None` for invalid bytes, which a
    /// snapshot skips rather than misreports).
    pub fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            1 => TraceKind::Enqueue,
            2 => TraceKind::Dequeue,
            3 => TraceKind::BatchFlush,
            4 => TraceKind::Complete,
            5 => TraceKind::Rescalar,
            6 => TraceKind::ShedDeadline,
            7 => TraceKind::ShedBackpressure,
            8 => TraceKind::ShedAdmission,
            9 => TraceKind::ShedCorrupted,
            10 => TraceKind::ShedPoisoned,
            11 => TraceKind::PanicCaught,
            12 => TraceKind::Restart,
            _ => return None,
        })
    }

    /// Stable lowercase label for reports.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Enqueue => "enqueue",
            TraceKind::Dequeue => "dequeue",
            TraceKind::BatchFlush => "batch_flush",
            TraceKind::Complete => "complete",
            TraceKind::Rescalar => "rescalar",
            TraceKind::ShedDeadline => "shed_deadline",
            TraceKind::ShedBackpressure => "shed_backpressure",
            TraceKind::ShedAdmission => "shed_admission",
            TraceKind::ShedCorrupted => "shed_corrupted",
            TraceKind::ShedPoisoned => "shed_poisoned",
            TraceKind::PanicCaught => "panic_caught",
            TraceKind::Restart => "restart",
        }
    }
}

/// One decoded trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch (low 48 bits).
    pub ts_ns: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-dependent context byte — the global function id for request
    /// and kernel events, the shard index for supervisor events.
    pub aux: u8,
    /// The request tag (0 when no request is in scope).
    pub tag: u64,
    /// Kind-dependent payload bits (see [`TraceKind`]).
    pub payload: u32,
}

/// The snapshot of one ring: the visible events of one (possibly
/// already exited) thread, in append order.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// Pool index of the ring.
    pub ring: usize,
    /// Visible events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Default [`sample_shift`]: sample 1 request in 16.
pub const DEFAULT_SAMPLE_SHIFT: u32 = 4;

/// `splitmix64` finalizer — the tag hash behind [`sampled`]. Public so
/// harnesses can build payloads that are checkable functions of the tag.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Pure form of [`sampled`]: is `tag` in the sample set at this shift?
/// A request is sampled when the low `shift` bits of `mix64(tag)` are
/// zero — rate `2^-shift`, shift 0 samples everything.
pub fn sampled_at(tag: u64, shift: u32) -> bool {
    mix64(tag) & ((1u64 << shift.min(63)) - 1) == 0
}

/// The sequence numbers a ring snapshot may decode, given the cursor
/// read before the copy (`c1`) and after it (`c2`): the records present
/// at `c1` whose slots a writer that had reached `c2` — and may have
/// begun writing seq `c2` — cannot have touched. Empty when the writer
/// lapped the copy.
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
fn readable_window(c1: u64, c2: u64) -> core::ops::Range<u64> {
    let present_lo = c1.saturating_sub(RING_CAP as u64);
    let safe_lo = (c2 + 1).saturating_sub(RING_CAP as u64);
    present_lo.max(safe_lo).min(c1)..c1
}

#[cfg(feature = "telemetry")]
mod imp {
    use super::*;

    pub(super) struct Ring {
        pub(super) busy: AtomicBool,
        /// Next sequence number; `seq % RING_CAP` is the slot. Stored
        /// with Release *after* the slot words, so a reader that
        /// Acquire-loads the cursor sees fully written records.
        pub(super) cursor: AtomicU64,
        pub(super) words: [AtomicU64; RING_CAP * WORDS],
    }

    impl Ring {
        const fn new() -> Ring {
            Ring {
                busy: AtomicBool::new(false),
                cursor: AtomicU64::new(0),
                words: [const { AtomicU64::new(0) }; RING_CAP * WORDS],
            }
        }
    }

    pub(super) static RINGS: [Ring; MAX_RINGS] = [const { Ring::new() }; MAX_RINGS];
    pub(super) static DROPPED: AtomicU64 = AtomicU64::new(0);
    pub(super) static SAMPLE_SHIFT: AtomicU32 = AtomicU32::new(DEFAULT_SAMPLE_SHIFT);
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    /// Releases this thread's ring on thread exit. The ring's contents
    /// stay visible to snapshots until another thread claims it — a dead
    /// shard's last events remain dumpable.
    pub(super) struct RingGuard(pub(super) usize);

    impl Drop for RingGuard {
        fn drop(&mut self) {
            RINGS[self.0].busy.store(false, Ordering::Release);
        }
    }

    thread_local! {
        pub(super) static MY_RING: RefCell<Option<RingGuard>> = const { RefCell::new(None) };
        pub(super) static CONTEXT: Cell<u8> = const { Cell::new(0) };
        pub(super) static FALLBACK_NS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn now_ns_imp() -> u64 {
        let epoch = EPOCH.get_or_init(Instant::now);
        epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn claim() -> Option<RingGuard> {
        for (i, r) in RINGS.iter().enumerate() {
            if r.busy
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // Fresh window for the new owner; stale words beyond the
                // cursor are never decoded.
                r.cursor.store(0, Ordering::Release);
                return Some(RingGuard(i));
            }
        }
        None
    }

    /// Runs `f` on this thread's ring, claiming one on first use.
    /// Returns false (and counts a drop) when the pool is exhausted or
    /// the thread is past TLS destruction.
    pub(super) fn with_ring(f: impl FnOnce(&Ring)) -> bool {
        let ok = MY_RING
            .try_with(|slot| {
                let mut g = slot.borrow_mut();
                if g.is_none() {
                    *g = claim();
                }
                match g.as_ref() {
                    Some(rg) => {
                        f(&RINGS[rg.0]);
                        true
                    }
                    None => false,
                }
            })
            .unwrap_or(false);
        if !ok {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    pub(super) fn append(ring: &Ring, kind: TraceKind, aux: u8, tag: u64, payload: u32) {
        let meta =
            ((kind as u64) << 56) | ((aux as u64) << 48) | (now_ns_imp() & TS_MASK);
        let seq = ring.cursor.load(Ordering::Relaxed);
        let slot = (seq as usize % RING_CAP) * WORDS;
        ring.words[slot].store(meta, Ordering::Relaxed);
        ring.words[slot + 1].store(tag, Ordering::Relaxed);
        ring.words[slot + 2].store(u64::from(payload), Ordering::Relaxed);
        ring.cursor.store(seq + 1, Ordering::Release);
    }

    pub(super) fn snapshot_ring(idx: usize, ring: &Ring) -> Option<ThreadTrace> {
        let c1 = ring.cursor.load(Ordering::Acquire);
        if c1 == 0 {
            return None;
        }
        let copy: Vec<u64> =
            ring.words.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        let c2 = ring.cursor.load(Ordering::Acquire);
        // Seqs present at c1: [c1 - CAP, c1). While we copied, the writer
        // may have advanced to c2 and begun writing seq c2 itself, dirtying
        // the slots of seqs [c1 - CAP, c2 - CAP]. Keep only records whose
        // slots could not have been touched.
        let window = super::readable_window(c1, c2);
        let mut events = Vec::with_capacity((window.end - window.start) as usize);
        for seq in window {
            let slot = (seq as usize % RING_CAP) * WORDS;
            let meta = copy[slot];
            if let Some(kind) = TraceKind::from_u8((meta >> 56) as u8) {
                events.push(TraceEvent {
                    ts_ns: meta & TS_MASK,
                    kind,
                    aux: (meta >> 48) as u8,
                    tag: copy[slot + 1],
                    payload: copy[slot + 2] as u32,
                });
            }
        }
        (!events.is_empty()).then_some(ThreadTrace { ring: idx, events })
    }
}

/// Appends one event to this thread's ring (no-op without `telemetry`).
/// Callers decide sampling; this always records when a ring is
/// available.
#[inline(always)]
pub fn emit(kind: TraceKind, aux: u8, tag: u64, payload: u32) {
    #[cfg(feature = "telemetry")]
    imp::with_ring(|r| imp::append(r, kind, aux, tag, payload));
    #[cfg(not(feature = "telemetry"))]
    let _ = (kind, aux, tag, payload);
}

/// Is this request tag in the deterministic sample set? Always false
/// without the `telemetry` feature — callers can gate whole
/// instrumentation blocks on it.
#[inline(always)]
pub fn sampled(tag: u64) -> bool {
    #[cfg(feature = "telemetry")]
    {
        sampled_at(tag, imp::SAMPLE_SHIFT.load(Ordering::Relaxed))
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = tag;
        false
    }
}

/// Sets the global sampling rate to `2^-shift` (clamped to `2^-32`).
/// Shift 0 samples every request.
pub fn set_sample_shift(shift: u32) {
    #[cfg(feature = "telemetry")]
    imp::SAMPLE_SHIFT.store(shift.min(32), Ordering::Relaxed);
    #[cfg(not(feature = "telemetry"))]
    let _ = shift;
}

/// The current sampling shift ([`DEFAULT_SAMPLE_SHIFT`] unless
/// overridden; 0 reported without the feature).
pub fn sample_shift() -> u32 {
    #[cfg(feature = "telemetry")]
    {
        imp::SAMPLE_SHIFT.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// Nanoseconds since the process trace epoch (0 without the feature).
pub fn now_ns() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        imp::now_ns_imp()
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// Sets this thread's trace context byte — the serving layer stores the
/// global function id here before invoking a kernel, so events emitted
/// *inside* the kernel (rescalar exemplars) carry the right attribution.
#[inline(always)]
pub fn set_context(aux: u8) {
    #[cfg(feature = "telemetry")]
    let _ = imp::CONTEXT.try_with(|c| c.set(aux));
    #[cfg(not(feature = "telemetry"))]
    let _ = aux;
}

/// This thread's trace context byte (0 without the feature).
#[inline(always)]
pub fn context() -> u8 {
    #[cfg(feature = "telemetry")]
    {
        imp::CONTEXT.try_with(|c| c.get()).unwrap_or(0)
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// Reports one rescalar-lane fallback from inside a slice kernel: emits
/// a [`TraceKind::Rescalar`] exemplar carrying the lane's input bits
/// (attributed via [`context`]) and accrues the lane's scalar-path
/// nanoseconds into this thread's fallback accumulator, which the
/// serving layer drains per batch with [`take_fallback_ns`].
#[inline(always)]
pub fn rescalar_exemplar(x_bits: u32, ns: u64) {
    #[cfg(feature = "telemetry")]
    {
        emit(TraceKind::Rescalar, context(), 0, x_bits);
        let _ = imp::FALLBACK_NS.try_with(|f| f.set(f.get().saturating_add(ns)));
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (x_bits, ns);
}

/// Drains this thread's rescalar fallback-time accumulator, returning
/// the nanoseconds accrued since the last call (0 without the feature).
#[inline(always)]
pub fn take_fallback_ns() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        imp::FALLBACK_NS.try_with(|f| f.replace(0)).unwrap_or(0)
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// Events dropped because every ring was busy (0 without the feature).
pub fn dropped_events() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        imp::DROPPED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// A torn-record-safe snapshot of every non-empty ring, including rings
/// released by exited threads (their last events persist until the ring
/// is reclaimed). Rings quiescent across the call are captured exactly;
/// a ring being appended to concurrently loses up to its newest record
/// plus however far its writer advanced during the copy.
pub fn snapshot_rings() -> Vec<ThreadTrace> {
    #[cfg(feature = "telemetry")]
    {
        imp::RINGS
            .iter()
            .enumerate()
            .filter_map(|(i, r)| imp::snapshot_ring(i, r))
            .collect()
    }
    #[cfg(not(feature = "telemetry"))]
    Vec::new()
}

/// Empties every ring in the pool (claimed or not) by resetting its
/// cursor; [`crate::reset_all`] calls this. Intended for quiescent
/// points between measured phases — a writer racing the reset may
/// resurrect a partial window, which the next reset clears.
pub fn reset_rings() {
    #[cfg(feature = "telemetry")]
    for r in &imp::RINGS {
        r.cursor.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that read whole-ring windows or reset the
    /// pool; the pool is process-global and tests run concurrently.
    static POOL: Mutex<()> = Mutex::new(());

    #[test]
    fn sampling_is_deterministic_and_near_rate() {
        // Pure helper: feature-independent.
        for tag in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(sampled_at(tag, 4), sampled_at(tag, 4));
            assert!(sampled_at(tag, 0), "shift 0 samples everything");
        }
        let hits = (0..100_000u64).filter(|&t| sampled_at(t, 4)).count();
        // 1/16 of 100k = 6250; the tag hash should land within ±15%.
        assert!((5300..7200).contains(&hits), "sample rate off: {hits}");
    }

    /// A writer that laps the snapshot's copy leaves nothing readable
    /// (this once computed a negative length and aborted the reader on a
    /// capacity overflow); a quiescent ring shows its newest
    /// `RING_CAP - 1` records.
    #[test]
    fn readable_window_never_runs_backwards() {
        let cap = RING_CAP as u64;
        assert_eq!(readable_window(10, 10), 0..10);
        assert_eq!(readable_window(cap + 50, cap + 50), 51..cap + 50);
        assert_eq!(readable_window(100, 100 + cap - 1), 100..100);
        assert_eq!(readable_window(100, 100 + 5 * cap), 100..100);
        assert_eq!(readable_window(100, 3), 0..100);
    }

    #[test]
    fn emit_snapshot_roundtrip_and_wraparound() {
        let _pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
        // Marker aux keeps this test independent of concurrent tests
        // sharing the pool.
        const MARK: u8 = 0xE1;
        let total = RING_CAP as u64 + 50;
        for i in 0..total {
            emit(TraceKind::Complete, MARK, i, mix64(i) as u32);
        }
        let mine: Vec<TraceEvent> = snapshot_rings()
            .into_iter()
            .flat_map(|t| t.events)
            .filter(|e| e.aux == MARK)
            .collect();
        if crate::enabled() {
            // Single-writer quiescent ring: the visible window is the
            // newest RING_CAP - 1 records.
            assert_eq!(mine.len(), RING_CAP - 1);
            let tags: Vec<u64> = mine.iter().map(|e| e.tag).collect();
            assert!(tags.windows(2).all(|w| w[1] == w[0] + 1), "append order");
            assert_eq!(*tags.last().unwrap(), total - 1, "newest survives");
            assert!(tags[0] >= 50, "oldest overwritten");
            for e in &mine {
                assert_eq!(e.payload, mix64(e.tag) as u32, "untorn");
                assert_eq!(e.kind, TraceKind::Complete);
            }
        } else {
            assert!(mine.is_empty());
            assert_eq!(dropped_events(), 0);
        }
    }

    #[test]
    fn reset_rings_clears_marked_events() {
        let _pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
        const MARK: u8 = 0xE2;
        emit(TraceKind::Enqueue, MARK, 7, 7);
        let count = |snaps: Vec<ThreadTrace>| {
            snaps.iter().flat_map(|t| &t.events).filter(|e| e.aux == MARK).count()
        };
        if crate::enabled() {
            assert!(count(snapshot_rings()) >= 1);
        }
        reset_rings();
        assert_eq!(count(snapshot_rings()), 0, "reset empties the pool");
    }

    #[test]
    fn fallback_accumulator_drains() {
        set_context(9);
        rescalar_exemplar(0x3f80_0000, 120);
        rescalar_exemplar(0x4000_0000, 80);
        if crate::enabled() {
            assert_eq!(context(), 9);
            assert_eq!(take_fallback_ns(), 200);
        }
        assert_eq!(take_fallback_ns(), 0, "drained");
        set_context(0);
    }

    #[test]
    fn kind_codes_roundtrip() {
        for k in [
            TraceKind::Enqueue,
            TraceKind::Dequeue,
            TraceKind::BatchFlush,
            TraceKind::Complete,
            TraceKind::Rescalar,
            TraceKind::ShedDeadline,
            TraceKind::ShedBackpressure,
            TraceKind::ShedAdmission,
            TraceKind::ShedCorrupted,
            TraceKind::ShedPoisoned,
            TraceKind::PanicCaught,
            TraceKind::Restart,
        ] {
            assert_eq!(TraceKind::from_u8(k as u8), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(TraceKind::from_u8(0), None);
        assert_eq!(TraceKind::from_u8(200), None);
    }
}
