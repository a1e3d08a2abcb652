//! Runtime sim-sanitizer: an opt-in audit layer that checks simulation
//! invariants at every event and folds the event stream into a trace
//! digest.
//!
//! The sanitizer is the dynamic half of `nfv-check` (the static half is
//! the `nfv-lint` determinism lint). It watches four properties:
//!
//! * **Clock monotonicity** — the event loop must never hand the
//!   sanitizer a timestamp earlier than the previous one (the queue
//!   breaks ties by insertion order, so equal timestamps are legal).
//! * **Packet conservation** — every classified packet is delivered,
//!   dropped, or still held in the mempool; the engine feeds the ledger
//!   via [`Sanitizer::check_conservation`].
//! * **Watermark hysteresis** — a backpressure watermark state machine
//!   that flips HIGH→LOW→HIGH inside the queuing-time threshold is
//!   oscillating instead of hysteresing; flagged as a warning.
//! * **Suppression safety** — backpressure must never suppress the
//!   bottleneck NF itself (that deadlocks the throttle, see
//!   `Simulation::nf_suppressed`); flagged as an error.
//!
//! The trace digest (FNV-1a over `(time, tag)` pairs) is always
//! maintained — it is cheap — so two runs with the same seed can be
//! compared for bit-identical behaviour even when the invariant checks
//! are off. The checks themselves only run when
//! [`SanitizerConfig::enabled`] is set, because conservation walks
//! per-NF state on every event.

use crate::time::{Duration, SimTime};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`.
const FNV_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// The six middle bytes of a word. Tags with these zero fold through a
/// cached per-tag table ([`Sanitizer::fold_tag`]).
const MIDDLE_BYTES: u64 = 0x00ff_ffff_ffff_ff00;

/// Sightings of a cacheable tag before its fold table is built. A word
/// that only happens to have the shape (a TCP feedback tag whose
/// sequence number fits the low byte) is seen a few times and never pays
/// for, or holds, a 2 KiB table.
const TABLE_AFTER: u32 = 64;

/// Tag rows and tables reserved when a sanitizer is built: the engine
/// emits fewer than 16 distinct variants.
const TAG_ROWS_RESERVED: usize = 16;

/// Fold one `u64` into an FNV-1a 64 state, byte by byte (the reference
/// fold; the fast paths below produce the same bits).
#[inline]
fn fnv1a_fold(mut state: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// [`fnv1a_fold`] of a timestamp. XOR with a zero byte is the identity,
/// so a run of `k` zero bytes folds as one multiply by `P^k`: a time
/// below 2^40 ns (about 18 minutes) folds its five low bytes and then its
/// three zero high bytes at once.
#[inline]
fn fold_time(mut state: u64, nanos: u64) -> u64 {
    if nanos >> 40 != 0 {
        return fnv1a_fold(state, nanos);
    }
    for i in 0..5 {
        state ^= (nanos >> (8 * i)) & 0xff;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state.wrapping_mul(FNV_POW[3])
}

/// What to audit. `Default` is fully disabled (zero overhead beyond the
/// trace digest); [`SanitizerConfig::audit`] turns everything on.
#[derive(Debug, Clone, Copy)]
pub struct SanitizerConfig {
    /// Master switch for all runtime checks.
    pub enabled: bool,
    /// Check the packet-conservation ledger at every event.
    pub conservation: bool,
    /// Flag watermark HIGH/LOW oscillation within the dwell threshold.
    pub hysteresis: bool,
    /// Flag suppression of a bottleneck NF.
    pub suppression: bool,
    /// Panic at the violating event instead of collecting a report
    /// (warnings never panic).
    pub panic_on_violation: bool,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            enabled: false,
            conservation: true,
            hysteresis: true,
            suppression: true,
            panic_on_violation: false,
        }
    }
}

impl SanitizerConfig {
    /// All checks on, collecting violations into a report.
    pub fn audit() -> Self {
        SanitizerConfig {
            enabled: true,
            ..SanitizerConfig::default()
        }
    }

    /// All checks on, panicking at the first error-severity violation.
    pub fn strict() -> Self {
        SanitizerConfig {
            enabled: true,
            panic_on_violation: true,
            ..SanitizerConfig::default()
        }
    }
}

/// How bad a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably wrong (e.g. watermark oscillation).
    Warning,
    /// A broken invariant: the run's results cannot be trusted.
    Error,
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Severity class.
    pub severity: Severity,
    /// Stable rule identifier (`clock-monotonic`, `conservation`,
    /// `watermark-hysteresis`, `suppression-safety`).
    pub rule: &'static str,
    /// Simulated time at which the violation was observed.
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

/// Per-NF watermark bookkeeping for the hysteresis check.
#[derive(Debug, Clone, Copy, Default)]
struct WatermarkState {
    /// Last observed throttle state, if any transition has been seen.
    throttled: Option<bool>,
    /// When the state last changed.
    changed_at: SimTime,
}

/// The runtime sanitizer. One per [`Simulation`](../../nfvnice/struct.Simulation.html)
/// run; reset by constructing a fresh one.
#[derive(Debug)]
pub struct Sanitizer {
    cfg: SanitizerConfig,
    last_time: SimTime,
    events: u64,
    digest: u64,
    /// High byte of a cacheable tag → 1 + its row in `tag_slots` (0: no
    /// row yet).
    tag_rows: [u16; 256],
    /// Per high byte, low byte of a cacheable tag → its sightings so far
    /// while `<= TABLE_AFTER`, then `TABLE_AFTER + 1 +` its index in
    /// `tag_folds`.
    tag_slots: Vec<[u32; 256]>,
    /// Per-tag fold tables `G_w` (see [`Sanitizer::fold_tag`]).
    tag_folds: Vec<[u64; 256]>,
    watermarks: Vec<WatermarkState>,
    violations: Vec<Violation>,
}

impl Sanitizer {
    /// A sanitizer with the given configuration.
    pub fn new(cfg: SanitizerConfig) -> Self {
        Sanitizer {
            cfg,
            last_time: SimTime::ZERO,
            events: 0,
            digest: FNV_OFFSET,
            tag_rows: [0; 256],
            // Room for the engine's tag vocabulary, reserved up front:
            // growing these mid-run would leave small long-lived blocks
            // between the run's large ones. Tables are built lazily.
            tag_slots: Vec::with_capacity(TAG_ROWS_RESERVED),
            tag_folds: Vec::with_capacity(TAG_ROWS_RESERVED),
            watermarks: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Whether invariant checks are active (the digest always is).
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether the conservation ledger should be computed this event.
    pub fn wants_conservation(&self) -> bool {
        self.cfg.enabled && self.cfg.conservation
    }

    /// Whether suppression decisions should be cross-checked.
    pub fn wants_suppression(&self) -> bool {
        self.cfg.enabled && self.cfg.suppression
    }

    /// Whether watermark flips are being dwell-checked. The engine's idle
    /// skip-ahead must not elide watermark scans while this audit is
    /// live: a skipped scan would shift a state's first-observation time
    /// and change the measured dwell.
    pub fn wants_hysteresis(&self) -> bool {
        self.cfg.enabled && self.cfg.hysteresis
    }

    /// Observe one event: enforces clock monotonicity and folds
    /// `(time, tag)` into the trace digest. `tag` encodes the event
    /// variant and its payload; any stable encoding works as long as it
    /// is a pure function of the event.
    #[inline]
    pub fn on_event(&mut self, now: SimTime, tag: u64) {
        if now < self.last_time {
            self.clock_moved_backwards(now);
        }
        self.last_time = self.last_time.max(now);
        self.events += 1;
        let digest = fold_time(self.digest, now.as_nanos());
        self.digest = self.fold_tag(digest, tag);
    }

    #[cold]
    #[inline(never)]
    fn clock_moved_backwards(&mut self, now: SimTime) {
        // nfv-lint: allow(hot-alloc) -- invariant-violation path only
        let detail = format!(
            "event at {now} after event at {} (clock moved backwards)",
            self.last_time
        );
        self.record(Severity::Error, "clock-monotonic", now, detail);
    }

    /// [`fnv1a_fold`] of an event tag. XOR with a byte changes only the
    /// low 8 bits of the state, and the low byte after each multiply
    /// depends only on the low byte before it, so for any word `w`
    /// `fold(s, w) = s·P^8 + G_w(s mod 256)` (wrapping). For a tag whose
    /// six middle bytes are zero — every tag the engine's event encoding
    /// yields for small payloads — `G_w` becomes a 256-entry table once
    /// the tag has recurred [`TABLE_AFTER`] times; other words take the
    /// byte-wise fold.
    #[inline]
    fn fold_tag(&mut self, state: u64, tag: u64) -> u64 {
        if tag & MIDDLE_BYTES != 0 {
            return fnv1a_fold(state, tag);
        }
        // The table lookup depends on the tag alone, not on the state, so
        // it overlaps the timestamp fold that precedes it.
        let (high, low) = ((tag >> 56) as usize, (tag & 0xff) as usize);
        let row = self.tag_rows[high] as usize;
        match row.checked_sub(1).map(|r| self.tag_slots[r][low]) {
            Some(slot) if slot > TABLE_AFTER => {
                let table = &self.tag_folds[(slot - TABLE_AFTER - 1) as usize];
                state
                    .wrapping_mul(FNV_POW[8])
                    .wrapping_add(table[(state & 0xff) as usize])
            }
            _ => self.fold_rare_tag(high, low, state, tag),
        }
    }

    /// Byte-wise fold of a cacheable tag without a table yet; counts the
    /// sighting and builds `G_tag` from the byte-wise fold when the tag
    /// has recurred enough.
    #[cold]
    #[inline(never)]
    fn fold_rare_tag(&mut self, high: usize, low: usize, state: u64, tag: u64) -> u64 {
        if self.tag_rows[high] == 0 {
            self.tag_slots.push([0; 256]);
            self.tag_rows[high] = self.tag_slots.len() as u16;
        }
        let slot = &mut self.tag_slots[self.tag_rows[high] as usize - 1][low];
        *slot += 1;
        if *slot > TABLE_AFTER {
            let mut table = [0u64; 256];
            for (s, g) in (0u64..).zip(table.iter_mut()) {
                *g = fnv1a_fold(s, tag).wrapping_sub(s.wrapping_mul(FNV_POW[8]));
            }
            self.tag_folds.push(table);
            *slot = TABLE_AFTER + self.tag_folds.len() as u32;
        }
        fnv1a_fold(state, tag)
    }

    /// Check the packet-conservation ledger: every classified packet must
    /// be delivered, dropped, or still in flight (held by the mempool).
    pub fn check_conservation(
        &mut self,
        now: SimTime,
        classified: u64,
        delivered: u64,
        dropped: u64,
        in_flight: u64,
    ) {
        if !self.wants_conservation() {
            return;
        }
        let accounted = delivered + dropped + in_flight;
        if classified != accounted {
            // nfv-lint: allow(hot-alloc) -- invariant-violation path only
            let detail = format!(
                "classified {classified} != delivered {delivered} + dropped {dropped} \
                 + in-flight {in_flight} (= {accounted})"
            );
            self.record(Severity::Error, "conservation", now, detail);
        }
    }

    /// Observe NF `nf`'s watermark state after an `evaluate` pass. A
    /// HIGH↔LOW flip within `min_dwell` of the previous flip means the
    /// high/low split is not providing hysteresis.
    pub fn note_watermark(
        &mut self,
        nf: usize,
        now: SimTime,
        throttled: bool,
        min_dwell: Duration,
    ) {
        if !(self.cfg.enabled && self.cfg.hysteresis) {
            return;
        }
        if self.watermarks.len() <= nf {
            self.watermarks.resize(nf + 1, WatermarkState::default());
        }
        let w = self.watermarks[nf];
        match w.throttled {
            Some(prev) if prev != throttled => {
                let dwell = now.since(w.changed_at);
                // The very first transition out of the initial state is
                // exempt: changed_at defaults to t=0.
                if dwell < min_dwell && w.changed_at > SimTime::ZERO {
                    // nfv-lint: allow(hot-alloc) -- invariant-violation path only
                    let detail = format!(
                        "NF {nf} watermark flipped to {} after only {dwell} \
                         (threshold {min_dwell})",
                        if throttled { "HIGH" } else { "LOW" },
                    );
                    self.record(Severity::Warning, "watermark-hysteresis", now, detail);
                }
                self.watermarks[nf] = WatermarkState {
                    throttled: Some(throttled),
                    changed_at: now,
                };
            }
            Some(_) => {}
            None => {
                self.watermarks[nf] = WatermarkState {
                    throttled: Some(throttled),
                    changed_at: now,
                };
            }
        }
    }

    /// Report that the engine suppressed NF `nf` while it was itself an
    /// active bottleneck (throttler) for a chain pending at it. That NF
    /// is the only one that can drain the congestion; suppressing it
    /// deadlocks the throttle.
    pub fn note_bottleneck_suppressed(&mut self, now: SimTime, nf: usize, chain: usize) {
        if !self.wants_suppression() {
            return;
        }
        self.record(
            Severity::Error,
            "suppression-safety",
            now,
            // nfv-lint: allow(hot-alloc) -- invariant-violation path only
            format!("NF {nf} suppressed while it is the active bottleneck of chain {chain}"),
        );
    }

    /// Record a violation under an arbitrary rule id (escape hatch for
    /// engine-side checks that do not fit a dedicated hook).
    pub fn record(&mut self, severity: Severity, rule: &'static str, at: SimTime, detail: String) {
        if self.cfg.panic_on_violation && severity >= Severity::Error {
            panic!("sim-sanitizer [{rule}] at {at}: {detail}");
        }
        self.violations.push(Violation {
            severity,
            rule,
            at,
            detail,
        });
    }

    /// The FNV-1a digest of every `(time, tag)` pair seen so far. Two
    /// runs of the same scenario with the same seed must agree.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Number of events observed.
    pub fn event_count(&self) -> u64 {
        self.events
    }

    /// All recorded violations, in observation order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations of `Error` severity only.
    pub fn errors(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| v.severity >= Severity::Error)
    }

    /// Panic with a full listing if any error-severity violation was
    /// recorded (warnings are tolerated). Call at end of run in tests.
    pub fn assert_clean(&self) {
        let errors: Vec<&Violation> = self.errors().collect();
        if !errors.is_empty() {
            let mut msg = format!("sim-sanitizer recorded {} error(s):\n", errors.len());
            for v in errors {
                msg.push_str(&format!("  [{}] at {}: {}\n", v.rule, v.at, v.detail));
            }
            panic!("{msg}");
        }
    }

    /// One-line-per-violation human summary (empty string when clean).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let sev = match v.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            out.push_str(&format!("{sev} [{}] at {}: {}\n", v.rule, v.at, v.detail));
        }
        out
    }
}

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer::new(SanitizerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// FNV-1a over the eight little-endian bytes of `word`, one byte at a
    /// time: the reference the fast folds must match bit for bit.
    fn reference_fold(mut state: u64, word: u64) -> u64 {
        for i in 0..8 {
            state ^= (word >> (8 * i)) & 0xff;
            state = state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        state
    }

    /// Tag shapes the fast fold must cover: the engine's event tags
    /// (variant in the high byte, a small payload in the low one, plus
    /// wider payloads), TCP feedback tags and arbitrary words.
    fn tag() -> impl Strategy<Value = u64> {
        prop_oneof![
            (1u64..15, 0u64..256).prop_map(|(v, p)| (v << 56) | p),
            (1u64..15, 256u64..1 << 20).prop_map(|(v, p)| (v << 56) | p),
            (0u64..3, 0u64..256, 0u64..1 << 40)
                .prop_map(|(kind, src, seq)| (10 << 56) | (kind << 48) | (src << 40) | seq),
            0u64..=u64::MAX,
        ]
    }

    fn time() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..1 << 32,
            0u64..1 << 40,
            (1u64 << 40)..1 << 63,
            0u64..=u64::MAX
        ]
    }

    proptest! {
        /// The zero-run and per-tag-table folds equal the byte-wise fold
        /// for random states, timestamps and tags, with the tag cache
        /// both cold and warm.
        #[test]
        fn fast_fold_matches_bytewise_reference(
            cases in prop::collection::vec((0u64..=u64::MAX, time(), tag()), 1..64),
        ) {
            let mut s = Sanitizer::default();
            for &(state, nanos, tag) in &cases {
                prop_assert_eq!(fold_time(state, nanos), reference_fold(state, nanos));
                for k in 0..=TABLE_AFTER + 1 {
                    let state = state.wrapping_add(u64::from(k));
                    prop_assert_eq!(s.fold_tag(state, tag), reference_fold(state, tag));
                }
            }
            // Through the public path: the digest of the event stream.
            let mut want = FNV_OFFSET;
            for &(_, nanos, tag) in &cases {
                s.on_event(SimTime::from_nanos(nanos), tag);
                want = reference_fold(reference_fold(want, nanos), tag);
            }
            prop_assert_eq!(s.digest(), want);
        }
    }

    #[test]
    fn engine_tag_shapes_take_the_table_fold() {
        let mut s = Sanitizer::default();
        for variant in 1u64..15 {
            for payload in [0, 1, 37, 255] {
                let tag = (variant << 56) | payload;
                for k in 0..=TABLE_AFTER + 2 {
                    let state = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(k);
                    assert_eq!(s.fold_tag(state, tag), reference_fold(state, tag));
                }
            }
        }
        assert_eq!(s.tag_folds.len(), 14 * 4);
        // A word of the same shape seen only a few times gets no table.
        for seq in 0..256 {
            s.fold_tag(7, (10 << 56) | seq);
        }
        assert_eq!(s.tag_folds.len(), 14 * 4);
    }

    #[test]
    fn digest_is_order_sensitive_and_reproducible() {
        let mut a = Sanitizer::default();
        let mut b = Sanitizer::default();
        for (time, tag) in [(t(1), 7u64), (t(2), 9), (t(2), 9), (t(5), 1)] {
            a.on_event(time, tag);
            b.on_event(time, tag);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.event_count(), 4);

        let mut c = Sanitizer::default();
        c.on_event(t(2), 9);
        c.on_event(t(1), 7); // swapped order
        c.on_event(t(2), 9);
        c.on_event(t(5), 1);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn equal_timestamps_are_legal() {
        let mut s = Sanitizer::new(SanitizerConfig::audit());
        s.on_event(t(3), 0);
        s.on_event(t(3), 1);
        assert!(s.violations().is_empty());
        s.assert_clean();
    }

    #[test]
    fn backwards_clock_is_an_error() {
        let mut s = Sanitizer::new(SanitizerConfig::audit());
        s.on_event(t(5), 0);
        s.on_event(t(4), 1);
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].rule, "clock-monotonic");
        assert_eq!(s.violations()[0].severity, Severity::Error);
    }

    #[test]
    fn conservation_mismatch_is_an_error() {
        let mut s = Sanitizer::new(SanitizerConfig::audit());
        s.check_conservation(t(1), 100, 60, 30, 10); // balances
        assert!(s.violations().is_empty());
        s.check_conservation(t(2), 100, 60, 30, 9); // one packet lost
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].rule, "conservation");
    }

    #[test]
    fn conservation_skipped_when_disabled() {
        let mut s = Sanitizer::default(); // disabled
        assert!(!s.wants_conservation());
        s.check_conservation(t(1), 100, 0, 0, 0);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn watermark_oscillation_warns_but_dwell_is_fine() {
        let dwell = Duration::from_micros(100);
        let mut s = Sanitizer::new(SanitizerConfig::audit());
        s.note_watermark(0, t(10), false, dwell);
        s.note_watermark(0, t(20), true, dwell); // first flip: exempt? changed_at=10 > 0
        s.note_watermark(0, t(300), false, dwell); // 280us dwell: fine
        s.note_watermark(0, t(350), true, dwell); // 50us dwell: oscillation
        let warnings: Vec<_> = s
            .violations()
            .iter()
            .filter(|v| v.rule == "watermark-hysteresis")
            .collect();
        // t=20 flip happened 10us after the t=10 initial observation —
        // also within dwell, so two warnings total.
        assert_eq!(warnings.len(), 2);
        assert!(warnings.iter().all(|v| v.severity == Severity::Warning));
        s.assert_clean(); // warnings don't fail assert_clean
    }

    #[test]
    fn bottleneck_suppression_is_an_error() {
        let mut s = Sanitizer::new(SanitizerConfig::audit());
        s.note_bottleneck_suppressed(t(7), 2, 0);
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].rule, "suppression-safety");
        assert!(s.summary().contains("suppression-safety"));
    }

    #[test]
    #[should_panic(expected = "sim-sanitizer")]
    fn strict_mode_panics_at_the_event() {
        let mut s = Sanitizer::new(SanitizerConfig::strict());
        s.check_conservation(t(1), 2, 1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "conservation")]
    fn assert_clean_panics_on_errors() {
        let mut s = Sanitizer::new(SanitizerConfig::audit());
        s.check_conservation(t(1), 2, 1, 0, 0);
        s.assert_clean();
    }
}
