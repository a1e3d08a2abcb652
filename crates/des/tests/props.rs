//! Property-based tests for the DES kernel against naive reference models.

#![forbid(unsafe_code)]

use nfv_des::{jain_index, DurationHistogram, EventQueue, SimTime, WindowedMedian};
use nfv_des::{Duration, Ewma};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of an interleaved queue workload: schedule events at an offset
/// from the current clock, or drain some.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Push `count` events `delta` ns after the queue's clock (count > 1 is
    /// a same-instant burst, which exercises the seq tie-break).
    Push { delta: u64, count: u8 },
    /// Pop one event unconditionally.
    Pop,
    /// Pop one event only if due within `horizon` ns of the clock (the
    /// engine's `pop_before` batching path).
    PopBefore { horizon: u64 },
    /// Drain every event at the earliest pending instant (the engine's
    /// timer-coalescing `pop_batch_before` path).
    PopBatch,
}

/// One step of a lane workload: [`QueueOp`]s against the heap plus
/// pushes that land exactly on a pending periodic tick's instant.
#[derive(Debug, Clone, Copy)]
enum LaneOp {
    Queue(QueueOp),
    /// Push `count` events at the instant lane `lane` (mod the lane count)
    /// is next due: a heap entry tied with a lane entry.
    OnTick {
        lane: usize,
        count: u8,
    },
}

fn lane_op() -> impl Strategy<Value = LaneOp> {
    prop_oneof![
        queue_op().prop_map(LaneOp::Queue),
        queue_op().prop_map(LaneOp::Queue),
        (0usize..8, 1u8..3).prop_map(|(lane, count)| LaneOp::OnTick { lane, count }),
    ]
}

/// Tick periods: shared values give lane-vs-lane ties at one instant.
fn period() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(100u64),
        Just(250u64),
        Just(1_000u64),
        1u64..5_000,
        1u64 << 22..1u64 << 24
    ]
}

/// Tag of lane `i`'s tick; heap events count up from 0.
const TICK: u32 = 1 << 31;

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        // Near-term offsets: frequent same-instant ties.
        (0u64..5_000, 1u8..4).prop_map(|(delta, count)| QueueOp::Push { delta, count }),
        // Far-future timers.
        (1u64 << 20..1u64 << 40, 1u8..3).prop_map(|(delta, count)| QueueOp::Push { delta, count }),
        Just(QueueOp::Pop),
        (0u64..10_000).prop_map(|horizon| QueueOp::PopBefore { horizon }),
        Just(QueueOp::PopBatch),
    ]
}

/// Reference model of [`EventQueue`]: a `BTreeMap` keyed by
/// `(time, seq)`, which is the queue's whole ordering contract.
#[derive(Default)]
struct ModelQueue {
    pending: BTreeMap<(u64, u64), u32>,
    seq: u64,
    now: u64,
    pops: u64,
    coalesced: u64,
    max_len: usize,
}

impl ModelQueue {
    fn push(&mut self, at: u64, tag: u32) {
        self.pending.insert((at, self.seq), tag);
        self.seq += 1;
        self.max_len = self.max_len.max(self.pending.len());
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending
            .keys()
            .next()
            .map(|&(at, _)| SimTime::from_nanos(at))
    }

    fn pop_before(&mut self, limit: u64) -> Option<(SimTime, u32)> {
        let first = self.pending.first_entry().filter(|e| e.key().0 <= limit)?;
        self.now = first.key().0;
        self.pops += 1;
        Some((SimTime::from_nanos(self.now), first.remove()))
    }

    /// The earliest due event, plus every other event at its instant.
    fn pop_batch_before(
        &mut self,
        limit: u64,
        out: &mut Vec<(SimTime, u32)>,
    ) -> Option<(SimTime, u32)> {
        out.clear();
        let first = self.pop_before(limit)?;
        let t = self.now;
        while let Some(e) = self.pending.first_entry().filter(|e| e.key().0 == t) {
            out.push((first.0, e.remove()));
        }
        self.pops += out.len() as u64;
        self.coalesced += out.len() as u64;
        Some(first)
    }
}

proptest! {
    /// The queue dequeues the `(time, tag)` stream of a `BTreeMap` model
    /// for arbitrary interleavings of scheduling and draining, including
    /// same-instant bursts, far-future timers, `pop_before` refusals and
    /// whole-instant batch drains; clock, `peek_time`, `len` and the
    /// pop, coalesced and peak-length counts agree at every step.
    #[test]
    fn queue_matches_btreemap_model(
        ops in prop::collection::vec(queue_op(), 1..200),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut tag = 0u32;
        let (mut oq, mut om) = (Vec::new(), Vec::new());
        for op in ops {
            match op {
                QueueOp::Push { delta, count } => {
                    let at = model.now + delta;
                    for _ in 0..count {
                        q.push(SimTime::from_nanos(at), tag);
                        model.push(at, tag);
                        tag += 1;
                    }
                }
                QueueOp::Pop => {
                    prop_assert_eq!(q.pop(), model.pop_before(u64::MAX));
                }
                QueueOp::PopBefore { horizon } => {
                    let limit = model.now + horizon;
                    prop_assert_eq!(q.pop_before(SimTime::from_nanos(limit)), model.pop_before(limit));
                }
                QueueOp::PopBatch => {
                    let k = q.pop_batch_before(SimTime::MAX, &mut oq);
                    prop_assert_eq!(k, model.pop_batch_before(u64::MAX, &mut om));
                    prop_assert_eq!(&oq, &om);
                }
            }
            prop_assert_eq!(q.now().as_nanos(), model.now);
            prop_assert_eq!(q.len(), model.pending.len());
            prop_assert_eq!(q.peek_time(), model.peek_time());
        }
        // Drain all to the end: every remaining event must match too.
        loop {
            let a = q.pop();
            prop_assert_eq!(a, model.pop_before(u64::MAX));
            if a.is_none() {
                break;
            }
        }
        let s = q.stats();
        prop_assert_eq!(
            (s.pushes, s.pops, s.coalesced_pops, s.max_len),
            (model.seq, model.pops, model.coalesced, model.max_len)
        );
    }

    /// Periodic lanes are invisible: scheduling the self-rescheduling
    /// ticks with `push_periodic` delivers the exact `(time, event)`
    /// stream — hence seq order — and `QueueStats` counts of scheduling
    /// them with plain `push`, through `pop_before` and
    /// `pop_batch_before`. Covers ties between lanes and heap entries at
    /// one instant, pushes at `now`, far-future timers and limit
    /// refusals.
    #[test]
    fn periodic_lanes_match_plain_pushes(
        periods in prop::collection::vec(period(), 1..7),
        ops in prop::collection::vec(lane_op(), 1..200),
    ) {
        // `laned` schedules the ticks with `push_periodic`, the reference
        // `plain` the same ticks with plain `push`.
        let mut laned: EventQueue<u32> = EventQueue::new();
        let mut plain: EventQueue<u32> = EventQueue::new();
        // The instant each lane's tick is next due, mirrored in the test.
        let mut due: Vec<u64> = periods.clone();
        for (i, &p) in periods.iter().enumerate() {
            laned.push_periodic(SimTime::from_nanos(p), TICK | i as u32);
            plain.push(SimTime::from_nanos(p), TICK | i as u32);
        }
        let mut tag = 0u32;
        let (mut out_l, mut out_p) = (Vec::new(), Vec::new());
        for op in ops {
            let now = plain.now().as_nanos();
            let mut delivered: Vec<(SimTime, u32)> = Vec::new();
            let mut push = |at: u64, count: u8| {
                for _ in 0..count {
                    laned.push(SimTime::from_nanos(at), tag);
                    plain.push(SimTime::from_nanos(at), tag);
                    tag += 1;
                }
            };
            match op {
                LaneOp::OnTick { lane, count } => push(due[lane % due.len()], count),
                LaneOp::Queue(QueueOp::Push { delta, count }) => push(now + delta, count),
                LaneOp::Queue(QueueOp::PopBefore { horizon }) => {
                    let limit = SimTime::from_nanos(now + horizon);
                    let got = plain.pop_before(limit);
                    prop_assert_eq!(laned.pop_before(limit), got);
                    delivered.extend(got);
                }
                LaneOp::Queue(QueueOp::PopBatch) => {
                    let first = plain.pop_batch_before(SimTime::MAX, &mut out_p);
                    prop_assert_eq!(laned.pop_batch_before(SimTime::MAX, &mut out_l), first);
                    prop_assert_eq!(&out_l, &out_p);
                    delivered.extend(first);
                    delivered.append(&mut out_p);
                }
                LaneOp::Queue(QueueOp::Pop) => {
                    let got = plain.pop();
                    prop_assert_eq!(laned.pop(), got);
                    delivered.extend(got);
                }
            }
            // Handle deliveries in order: each tick reschedules itself
            // one period later, as the engine's `reschedule` does.
            for (t, ev) in delivered {
                if ev & TICK != 0 {
                    let lane = (ev & !TICK) as usize;
                    prop_assert_eq!(t.as_nanos(), due[lane]);
                    due[lane] += periods[lane];
                    laned.push_periodic(SimTime::from_nanos(due[lane]), ev);
                    plain.push(SimTime::from_nanos(due[lane]), ev);
                }
            }
            prop_assert_eq!(laned.now(), plain.now());
            prop_assert_eq!(laned.len(), plain.len());
            prop_assert_eq!(laned.peek_time(), plain.peek_time());
        }
        // Drain the backlog without rescheduling.
        loop {
            let got = plain.pop();
            prop_assert_eq!(laned.pop(), got);
            if got.is_none() {
                break;
            }
        }
        let (l, p) = (laned.stats(), plain.stats());
        prop_assert_eq!(
            (l.pushes, l.pops, l.coalesced_pops, l.max_len),
            (p.pushes, p.pops, p.coalesced_pops, p.max_len)
        );
    }

    /// The top-down percentile walk equals the bottom-up scan of a
    /// model histogram kept here, for any p in [0, 100], through resets.
    #[test]
    fn histogram_percentile_matches_bottom_up_model(
        rounds in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![0u64..64, 0u64..100_000, 0u64..1 << 34],
                0..100,
            ),
            1..4,
        ),
        ps in prop::collection::vec(prop_oneof![Just(0.0f64), Just(100.0), 0.0f64..100.0], 1..8),
    ) {
        let mut h = DurationHistogram::new();
        for samples in rounds {
            h.reset();
            let mut model = vec![0u64; 512];
            for &ns in &samples {
                h.record(Duration::from_nanos(ns));
                model[model_bucket(ns)] += 1;
            }
            for &p in &ps {
                prop_assert_eq!(
                    h.percentile(p).map(|d| d.as_nanos()),
                    model_percentile(&model, p),
                    "p={}", p
                );
            }
        }
    }

    /// `record_n(d, n)` leaves what `n` single `record(d)` calls leave:
    /// bucket counts, total, the top bucket and every percentile.
    #[test]
    fn histogram_record_n_matches_single_records(
        runs in prop::collection::vec(
            (prop_oneof![0u64..64, 0u64..100_000, 0u64..1 << 34], 0u64..40),
            0..30,
        ),
        ps in prop::collection::vec(prop_oneof![Just(0.0f64), Just(100.0), 0.0f64..100.0], 1..8),
    ) {
        let (mut bulk, mut single) = (DurationHistogram::new(), DurationHistogram::new());
        for &(ns, n) in &runs {
            bulk.record_n(Duration::from_nanos(ns), n);
            for _ in 0..n {
                single.record(Duration::from_nanos(ns));
            }
            // Debug shows the bucket counts, the total and the top bucket.
            prop_assert_eq!(format!("{bulk:?}"), format!("{single:?}"));
        }
        prop_assert_eq!(bulk.count(), single.count());
        for &p in &ps {
            prop_assert_eq!(bulk.percentile(p), single.percentile(p), "p={}", p);
        }
    }

    /// The event queue pops in exactly sorted (time, insertion) order.
    #[test]
    fn event_queue_matches_stable_sort(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        reference.sort(); // stable: equal times keep insertion order
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped, reference);
    }

    /// Histogram percentiles stay within the log-bucket relative error of
    /// the exact order statistics.
    #[test]
    fn histogram_percentile_bounded_error(
        samples in prop::collection::vec(1u64..1_000_000, 10..500),
        p in 0.0f64..100.0,
    ) {
        let mut h = DurationHistogram::new();
        for &s in &samples {
            h.record(Duration::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        let exact = sorted[rank] as f64;
        let est = h.percentile(p).unwrap().as_nanos() as f64;
        // one bucket below, never above by more than a bucket width (~6.25%)
        prop_assert!(est <= exact * 1.0001, "est {est} > exact {exact}");
        prop_assert!(est >= exact * 0.93 - 1.0, "est {est} << exact {exact}");
    }

    /// Windowed median equals the median of the samples inside the window.
    #[test]
    fn windowed_median_matches_naive(
        samples in prop::collection::vec((0u64..1_000, 0u64..10_000), 1..200),
    ) {
        let mut sorted_by_time = samples.clone();
        sorted_by_time.sort_by_key(|&(t, _)| t);
        let window = Duration::from_nanos(300);
        let mut m = WindowedMedian::new(window);
        let mut last_t = 0;
        for &(t, v) in &sorted_by_time {
            m.observe(SimTime::from_nanos(t), v);
            last_t = t;
        }
        let horizon = last_t.saturating_sub(300);
        let mut in_window: Vec<u64> = sorted_by_time
            .iter()
            .filter(|&&(t, _)| t >= horizon)
            .map(|&(_, v)| v)
            .collect();
        in_window.sort_unstable();
        prop_assert_eq!(m.median(), Some(in_window[in_window.len() / 2]));
    }

    /// Jain's index is always in [1/n, 1] for non-degenerate inputs.
    #[test]
    fn jain_bounds(xs in prop::collection::vec(0.001f64..1e6, 1..32)) {
        let j = jain_index(&xs);
        let n = xs.len() as f64;
        prop_assert!(j <= 1.0 + 1e-9);
        prop_assert!(j >= 1.0 / n - 1e-9);
    }

    /// EWMA stays within the min/max envelope of its inputs.
    #[test]
    fn ewma_within_envelope(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut e = Ewma::new(1, 8);
        for &s in &samples {
            e.observe(s);
        }
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        prop_assert!(e.value() >= lo.saturating_sub(1) && e.value() <= hi + 1,
            "ewma {} outside [{lo}, {hi}]", e.value());
    }
}

/// Bucket of `ns` in the histogram's log-linear layout (32 log2 majors
/// of 16 linear minors; values below 16 map to themselves).
fn model_bucket(ns: u64) -> usize {
    if ns < 16 {
        return ns as usize;
    }
    let major = (63 - ns.leading_zeros() as usize).min(31);
    major * 16 + ((ns >> (major - 4)) as usize & 15)
}

/// Floor value of a bucket of [`model_bucket`].
fn model_floor(idx: usize) -> u64 {
    let (major, minor) = (idx / 16, (idx % 16) as u64);
    if major < 4 {
        return idx as u64;
    }
    (1u64 << major) + (minor << (major - 4))
}

/// The percentile as a bottom-up cumulative scan over bucket counts.
fn model_percentile(counts: &[u64], p: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * (total as f64 - 1.0)).round() as u64;
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && seen + c > rank {
            return Some(model_floor(i));
        }
        seen += c;
    }
    None
}
