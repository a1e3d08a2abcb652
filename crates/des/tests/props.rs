//! Property-based tests for the DES kernel against naive reference models.

#![forbid(unsafe_code)]

use nfv_des::{jain_index, DurationHistogram, EventQueue, QueueKind, SimTime, WindowedMedian};
use nfv_des::{Duration, Ewma};
use proptest::prelude::*;

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

/// One step of a lane workload: [`QueueOp`]s against the backend plus
/// pushes that land exactly on a pending periodic tick's instant.
#[derive(Debug, Clone, Copy)]
enum LaneOp {
    Queue(QueueOp),
    /// Push `count` events at the instant lane `lane` (mod the lane count)
    /// is next due: a wheel entry tied with a lane entry.
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

/// Tag of lane `i`'s tick; backend events count up from 0.
const TICK: u32 = 1 << 31;

/// One queue under test: `laned` schedules ticks with `push_periodic`,
/// the reference the same ticks with plain `push`.
struct LanePair {
    laned: EventQueue<u32>,
    plain: EventQueue<u32>,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        // Near-term offsets: land in the wheel's low levels.
        (0u64..5_000, 1u8..4).prop_map(|(delta, count)| QueueOp::Push { delta, count }),
        // Far-future timers: exercise high levels and cascades.
        (1u64 << 20..1u64 << 40, 1u8..3).prop_map(|(delta, count)| QueueOp::Push { delta, count }),
        Just(QueueOp::Pop),
        (0u64..10_000).prop_map(|horizon| QueueOp::PopBefore { horizon }),
        Just(QueueOp::PopBatch),
    ]
}

proptest! {
    /// The arena wheel and the binary heap dequeue bit-identical
    /// `(time, tag)` streams for arbitrary interleavings of scheduling and
    /// draining, including same-instant bursts, far-future timers and
    /// whole-instant batch drains. This is the backend-equivalence
    /// property CI's `heap-queue` leg checks end to end over the quick
    /// suite.
    #[test]
    fn queue_backends_dequeue_identically(
        ops in prop::collection::vec(queue_op(), 1..200),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::with_kind(QueueKind::Wheel);
        let mut heap: EventQueue<u32> = EventQueue::with_kind(QueueKind::Heap);
        let mut tag = 0u32;
        let (mut ow, mut oh) = (Vec::new(), Vec::new());
        for op in ops {
            match op {
                QueueOp::Push { delta, count } => {
                    // All queues have identical clocks (asserted below),
                    // so the same absolute time goes to each.
                    let at = SimTime::from_nanos(wheel.now().as_nanos() + delta);
                    for _ in 0..count {
                        wheel.push(at, tag);
                        heap.push(at, tag);
                        tag += 1;
                    }
                }
                QueueOp::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                }
                QueueOp::PopBefore { horizon } => {
                    let limit = SimTime::from_nanos(wheel.now().as_nanos() + horizon);
                    prop_assert_eq!(wheel.pop_before(limit), heap.pop_before(limit));
                }
                QueueOp::PopBatch => {
                    let k = wheel.pop_batch_before(SimTime::MAX, &mut ow);
                    prop_assert_eq!(k, heap.pop_batch_before(SimTime::MAX, &mut oh));
                    prop_assert_eq!(&ow, &oh);
                }
            }
            prop_assert_eq!(wheel.now(), heap.now());
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain all to the end: every remaining event must match too.
        loop {
            let a = wheel.pop();
            prop_assert_eq!(a, heap.pop());
            if a.is_none() {
                break;
            }
        }
    }

    /// Periodic lanes are invisible: on every backend, scheduling the
    /// self-rescheduling ticks with `push_periodic` delivers the exact
    /// `(time, event)` stream — hence seq order — and `QueueStats` counts
    /// of scheduling them with plain `push`, through `pop_before` and
    /// `pop_batch_before`. Covers ties between lanes and wheel entries at
    /// one instant, pushes at `now`, far-future cascades and limit
    /// refusals.
    #[test]
    fn periodic_lanes_match_plain_pushes(
        periods in prop::collection::vec(period(), 1..7),
        ops in prop::collection::vec(lane_op(), 1..200),
    ) {
        let mut qs: Vec<LanePair> = [QueueKind::Wheel, QueueKind::Heap]
            .into_iter()
            .map(|k| LanePair { laned: EventQueue::with_kind(k), plain: EventQueue::with_kind(k) })
            .collect();
        // The instant each lane's tick is next due, mirrored in the test.
        let mut due: Vec<u64> = periods.clone();
        for (i, &p) in periods.iter().enumerate() {
            for q in &mut qs {
                q.laned.push_periodic(SimTime::from_nanos(p), TICK | i as u32);
                q.plain.push(SimTime::from_nanos(p), TICK | i as u32);
            }
        }
        let mut tag = 0u32;
        let mut out = Vec::new();
        for op in ops {
            let now = qs[0].plain.now().as_nanos();
            let mut delivered: Vec<(SimTime, u32)> = Vec::new();
            match op {
                LaneOp::OnTick { lane, count } => {
                    let at = SimTime::from_nanos(due[lane % due.len()]);
                    for _ in 0..count {
                        for q in &mut qs {
                            q.laned.push(at, tag);
                            q.plain.push(at, tag);
                        }
                        tag += 1;
                    }
                }
                LaneOp::Queue(QueueOp::Push { delta, count }) => {
                    let at = SimTime::from_nanos(now + delta);
                    for _ in 0..count {
                        for q in &mut qs {
                            q.laned.push(at, tag);
                            q.plain.push(at, tag);
                        }
                        tag += 1;
                    }
                }
                LaneOp::Queue(QueueOp::Pop) => {
                    let got: Vec<_> =
                        qs.iter_mut().flat_map(|q| [q.plain.pop(), q.laned.pop()]).collect();
                    prop_assert!(got.iter().all(|g| *g == got[0]), "pop: {:?}", got);
                    delivered.extend(got[0]);
                }
                LaneOp::Queue(QueueOp::PopBefore { horizon }) => {
                    let limit = SimTime::from_nanos(now + horizon);
                    let got: Vec<_> = qs
                        .iter_mut()
                        .flat_map(|q| [q.plain.pop_before(limit), q.laned.pop_before(limit)])
                        .collect();
                    prop_assert!(got.iter().all(|g| *g == got[0]), "pop_before: {:?}", got);
                    delivered.extend(got[0]);
                }
                LaneOp::Queue(QueueOp::PopBatch) => {
                    let mut got = Vec::new();
                    for q in &mut qs {
                        for queue in [&mut q.plain, &mut q.laned] {
                            let first = queue.pop_batch_before(SimTime::MAX, &mut out);
                            got.push((first, out.clone()));
                        }
                    }
                    prop_assert!(got.iter().all(|g| *g == got[0]), "pop_batch_before: {:?}", got);
                    let (first, rest) = got.swap_remove(0);
                    delivered.extend(first);
                    delivered.extend(rest);
                }
            }
            // Handle deliveries in order: each tick reschedules itself
            // one period later, as the engine's `reschedule` does.
            for (t, ev) in delivered {
                if ev & TICK != 0 {
                    let lane = (ev & !TICK) as usize;
                    prop_assert_eq!(t.as_nanos(), due[lane]);
                    due[lane] += periods[lane];
                    for q in &mut qs {
                        q.laned.push_periodic(SimTime::from_nanos(due[lane]), ev);
                        q.plain.push(SimTime::from_nanos(due[lane]), ev);
                    }
                }
            }
            for q in &qs {
                for queue in [&q.plain, &q.laned] {
                    prop_assert_eq!(queue.now(), qs[0].plain.now());
                    prop_assert_eq!(queue.len(), qs[0].plain.len());
                    prop_assert_eq!(queue.peek_time(), qs[0].plain.peek_time());
                }
            }
        }
        // Drain the backlog without rescheduling.
        loop {
            let got: Vec<_> = qs.iter_mut().flat_map(|q| [q.plain.pop(), q.laned.pop()]).collect();
            prop_assert!(got.iter().all(|g| *g == got[0]), "drain: {:?}", got);
            if got[0].is_none() {
                break;
            }
        }
        let want = qs[0].plain.stats();
        for q in &qs {
            for s in [q.laned.stats(), q.plain.stats()] {
                prop_assert_eq!(
                    (s.pushes, s.pops, s.coalesced_pops, s.max_len),
                    (want.pushes, want.pops, want.coalesced_pops, want.max_len)
                );
            }
        }
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
