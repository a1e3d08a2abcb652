//! Microbenchmarks of the hot-path substrate primitives: descriptor rings,
//! mempool, event queue, flow table, service-time histogram and a full
//! scheduler dispatch cycle.

#![forbid(unsafe_code)]

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nfv_des::{Duration, DurationHistogram, EventQueue, QueueKind, SimTime};
use nfv_pkt::{ChainId, FiveTuple, FlowId, FlowTable, Mempool, Packet, PktId, Proto, Ring};
use nfv_sched::{CfsParams, OsScheduler, Policy, SwitchKind};

fn ring_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring");
    g.throughput(Throughput::Elements(1));
    g.bench_function("enqueue_dequeue", |b| {
        let mut ring = Ring::new(4096);
        let mut i = 0u32;
        b.iter(|| {
            ring.enqueue(black_box(PktId(i)));
            i = i.wrapping_add(1);
            black_box(ring.dequeue());
        });
    });
    g.bench_function("burst32", |b| {
        let mut ring = Ring::new(4096);
        let mut out = Vec::with_capacity(32);
        b.iter(|| {
            for i in 0..32u32 {
                ring.enqueue(PktId(i));
            }
            out.clear();
            ring.dequeue_burst(32, &mut out);
            black_box(out.len());
        });
    });
    g.finish();
}

fn mempool_ops(c: &mut Criterion) {
    c.bench_function("mempool/alloc_free", |b| {
        let mut pool = Mempool::new(4096);
        let pkt = Packet::new(FlowId(0), ChainId(0), 64, SimTime::ZERO);
        b.iter(|| {
            let id = pool.alloc(black_box(pkt)).unwrap();
            pool.free(id);
        });
    });
}

fn event_queue_ops(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_nanos((i * 7919) % 100_000 + 100_000), i);
            }
            while let Some(x) = q.pop() {
                black_box(x);
            }
        });
    });
    // Backend comparison cells: same 1k-event workload pinned to each
    // queue implementation, reported as ops/sec (one op = push + pop).
    // The wheel must not lose to the heap on this mixed near/far pattern —
    // run-to-run noise aside, a wheel slower than ~half the heap's rate
    // here means a cascade or occupancy-scan regression.
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(1000));
    for (name, kind) in [("wheel_1k", QueueKind::Wheel), ("heap_1k", QueueKind::Heap)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut q = EventQueue::with_kind(kind);
                for i in 0..1000u64 {
                    q.push(SimTime::from_nanos((i * 7919) % 100_000 + 100_000), i);
                }
                let mut popped = 0u64;
                while let Some(x) = q.pop() {
                    black_box(x);
                    popped += 1;
                }
                assert_eq!(popped, 1000, "queue lost events");
            });
        });
    }
    g.finish();
}

fn flow_table_ops(c: &mut Criterion) {
    c.bench_function("flow_table/classify", |b| {
        let mut ft = FlowTable::new();
        let tuples: Vec<FiveTuple> = (0..64)
            .map(|i| FiveTuple::synthetic(i, Proto::Udp))
            .collect();
        for t in &tuples {
            ft.install(*t, ChainId(0));
        }
        let mut i = 0;
        b.iter(|| {
            let t = &tuples[i % 64];
            i += 1;
            black_box(ft.classify(t, 64));
        });
    });
}

fn histogram_ops(c: &mut Criterion) {
    c.bench_function("histogram/record", |b| {
        let mut h = DurationHistogram::new();
        let mut i = 1u64;
        b.iter(|| {
            h.record(Duration::from_nanos(i % 10_000 + 1));
            i += 1;
        });
    });
    c.bench_function("histogram/median", |b| {
        let mut h = DurationHistogram::new();
        for i in 1..10_000u64 {
            h.record(Duration::from_nanos(i));
        }
        b.iter(|| black_box(h.median()));
    });
}

fn scheduler_cycle(c: &mut Criterion) {
    c.bench_function("scheduler/dispatch_cycle_cfs", |b| {
        let mut s = OsScheduler::new(1, Policy::CfsNormal, CfsParams::default(), Duration::ZERO);
        let tasks: Vec<_> = (0..4).map(|i| s.add_task(format!("t{i}"), 0)).collect();
        let mut now = SimTime::ZERO;
        for t in &tasks {
            s.wake(*t, now);
        }
        b.iter(|| {
            if s.current(0).is_none() {
                s.dispatch(0, now);
            }
            let step = Duration::from_micros(100);
            s.charge_current(0, step);
            now += step;
            if s.need_resched(0, now) {
                s.requeue_current(0, now, SwitchKind::Involuntary);
            }
        });
    });
}

criterion_group!(
    benches,
    ring_ops,
    mempool_ops,
    event_queue_ops,
    flow_table_ops,
    histogram_ops,
    scheduler_cycle
);
criterion_main!(benches);
