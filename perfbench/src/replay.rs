//! The traced run's layer profile. After one ordinary run has supplied
//! the workload's operation counts, each layer is replayed on its own by
//! calling that layer's public types with the workload's shape and
//! counts, inside one span per layer. A layer's replayed seconds divided
//! by the timed `run_s` is its share: with the simulation single-threaded,
//! it bounds what optimising that layer alone can save on that workload.
//!
//! Timed runs never execute anything in this module.

use crate::measure::{now, Clock, Counts};
use crate::workloads::{Shape, Source};
use nfv_des::{Duration, EventQueue, SimRng, SimTime};
use nfv_obs::MetricsRecorder;
use nfv_pkt::{ChainId, Ecn, FiveTuple, FlowId, FlowTable, FlowTableStats, Mempool, NfId};
use nfv_pkt::{Packet, PktId, Ring, TuplePattern, WireFrame};
use nfv_platform::{BatchPlan, NfSpec, Platform};
use nfv_sched::{CgroupCpu, OsScheduler, SwitchKind};
use nfv_traffic::{tenant, Feedback};
use nfvnice::{compute_shares, Backpressure, EcnMarker, LoadMonitor};
use std::hint::black_box;

/// One recorded span: seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// In-memory span recorder; spans are printed when the benchmark ends.
pub struct Tracer {
    origin: Clock,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: now(),
            spans: Vec::new(),
        }
    }

    /// Open a span and return its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = (now() - self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = (now() - self.origin).as_secs_f64();
        span.end - span.start
    }
}

/// One layer's replay: seconds, operations replayed, and the same
/// operation count in the timed run (for the fidelity report).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerReplay {
    pub secs: f64,
    pub ops: u64,
    pub run_ops: u64,
}

impl LayerReplay {
    /// Nanoseconds per replayed operation.
    pub fn ns_per_op(&self) -> f64 {
        per(self.secs * 1e9, self.ops)
    }
}

/// `num / den`, 0 for an empty denominator.
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// All layer replays of one workload.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Frames emitted by the sources over the run.
    pub traffic: LayerReplay,
    /// Flow-table classifications of the classified frame stream.
    pub classify: LayerReplay,
    pub classify_stats: FlowTableStats,
    /// RX/TX ring enqueues and dequeues (four per NF execution).
    pub ring: LayerReplay,
    /// Mempool allocs and frees (two per admitted frame).
    pub mempool: LayerReplay,
    /// Events pushed and popped through the event queue.
    pub des: LayerReplay,
    /// NF packet executions through the platform datapath, self time.
    pub platform: LayerReplay,
    /// Context switches through the OS scheduler.
    pub sched: LayerReplay,
    /// Wakeup and monitor ticks through the policy subsystems.
    pub core: LayerReplay,
    /// Monitor ticks recorded and exported as metrics.
    pub obs: LayerReplay,
    /// Throttle activations the core replay's sawtooth queues caused.
    pub core_throttles: u64,
    /// Bytes of the obs replay's metrics export.
    pub obs_bytes: u64,
}

impl Profile {
    /// `pkt` replay seconds: classify + ring + mempool.
    pub fn pkt_secs(&self) -> f64 {
        self.classify.secs + self.ring.secs + self.mempool.secs
    }
}

/// Run every layer replay for `shape` over `dur`, sized by `c`, as child
/// spans of `parent`.
pub fn profile(shape: &Shape, dur: Duration, c: &Counts, t: &mut Tracer, parent: usize) -> Profile {
    let mut p = Profile::default();

    let span = t.open("traffic", Some(parent));
    let stream = replay_traffic(shape, dur, c);
    p.traffic = LayerReplay {
        secs: t.close(span),
        ops: stream.frames,
        run_ops: c.offered,
    };

    let pkt = t.open("pkt", Some(parent));
    let mut table = FlowTable::with_kind(shape.cfg.platform.flow_table);
    for rule in rules(shape) {
        match rule {
            Rule::Exact(tuple, chain) => {
                table.install(tuple, chain);
            }
            Rule::Wildcard(pattern, chain) => table.install_wildcard(pattern, chain, 0),
        }
    }
    let span = t.open("pkt.classify", Some(pkt));
    let classified = replay_classify(&mut table, &stream);
    p.classify = LayerReplay {
        secs: t.close(span),
        ops: classified,
        run_ops: c.classified,
    };
    p.classify_stats = table.stats();
    drop(table);
    let span = t.open("pkt.ring", Some(pkt));
    p.ring = LayerReplay {
        ops: replay_rings(c.nf_execs),
        secs: t.close(span),
        run_ops: 4 * c.nf_execs,
    };
    let mut pool = Mempool::new(shape.cfg.platform.mempool_capacity);
    let span = t.open("pkt.mempool", Some(pkt));
    p.mempool = LayerReplay {
        ops: replay_mempool(&mut pool, c.admitted),
        secs: t.close(span),
        run_ops: 2 * c.admitted,
    };
    drop(pool);
    t.close(pkt);

    let span = t.open("des", Some(parent));
    let (pops, pushes) = replay_des(shape, dur, c.queue.pushes);
    p.des = LayerReplay {
        secs: t.close(span),
        ops: pops,
        run_ops: c.queue.pops,
    };
    debug_assert_eq!(pushes, c.queue.pushes);

    let mut platform = platform_like(shape);
    let span = t.open("platform", Some(parent));
    let (execs, frames) = replay_platform(&mut platform, &stream, c.nf_execs);
    let total = t.close(span);
    drop(platform);
    // Self time: the platform replay minus what the pkt replays charge for
    // the same frames (classify, four ring ops per execution, alloc+free).
    let pkt_part = frames as f64 * per(p.classify.secs, p.classify.ops)
        + (4 * execs) as f64 * per(p.ring.secs, p.ring.ops)
        + (2 * frames) as f64 * per(p.mempool.secs, p.mempool.ops);
    p.platform = LayerReplay {
        secs: (total - pkt_part).max(0.0),
        ops: execs,
        run_ops: c.nf_execs,
    };
    drop(stream);

    let span = t.open("sched", Some(parent));
    let switches = replay_sched(shape, c);
    p.sched = LayerReplay {
        secs: t.close(span),
        ops: switches,
        run_ops: c.switches(),
    };

    let span = t.open("core", Some(parent));
    let (ticks, throttles) = replay_core(shape, dur, c.throttle_events);
    p.core = LayerReplay {
        secs: t.close(span),
        ops: ticks,
        run_ops: ticks,
    };
    p.core_throttles = throttles;

    if shape.metrics {
        let span = t.open("obs", Some(parent));
        let (ticks, bytes) = replay_obs(shape, dur);
        p.obs = LayerReplay {
            secs: t.close(span),
            ops: ticks,
            run_ops: ticks,
        };
        p.obs_bytes = bytes as u64;
    }
    p
}

/// A flow rule of the workload.
enum Rule {
    Exact(FiveTuple, ChainId),
    Wildcard(TuplePattern, ChainId),
}

/// Every pinned install and wildcard rule of `shape`, in builder order.
fn rules(shape: &Shape) -> Vec<Rule> {
    let tuples = shape.pinned_tuples();
    let rule = |(src, tuple): (&Source, Option<FiveTuple>)| match *src {
        Source::Udp { chain, .. } | Source::Tcp { chain, .. } => Rule::Exact(
            tuple.expect("pinned sources carry a tuple"),
            ChainId(chain as u32),
        ),
        Source::Tenant { chain, spec } => {
            Rule::Wildcard(tenant(spec).pattern, ChainId(chain as u32))
        }
    };
    shape.sources.iter().zip(tuples).map(rule).collect()
}

/// The offered frame stream, run-length encoded: `(tuple, size, count)`.
/// With no NIC overflow (true of every workload here) it is also the
/// stream the run classified.
pub struct Stream {
    runs: Vec<(FiveTuple, u32, u32)>,
    frames: u64,
}

impl Stream {
    fn push(&mut self, f: &WireFrame) {
        self.frames += 1;
        if let Some(last) = self.runs.last_mut() {
            if last.0 == f.tuple && last.1 == f.size {
                last.2 += 1;
                return;
            }
        }
        self.runs.push((f.tuple, f.size, 1));
    }
}

/// Emit the workload's traffic over `dur` the way the engine's traffic
/// tick does (UDP pacers in rotating order, then sweeps). TCP is a closed
/// loop whose pace depends on the whole simulation, so its sender is
/// pumped and acknowledged until it has emitted as many frames as the run
/// classified for it, spread evenly over the ticks.
fn replay_traffic(shape: &Shape, dur: Duration, c: &Counts) -> Stream {
    let (mut udp, mut sweeps, mut tcp) = shape.generators();
    let poll = shape.cfg.traffic_poll;
    let polls = dur.as_nanos() / poll.as_nanos();
    let mut rng = SimRng::seed_from_u64(shape.cfg.seed);
    let mut out = Stream {
        runs: Vec::new(),
        frames: 0,
    };
    let mut buf = Vec::new();
    let (mut rotor, mut tcp_sent, mut acked) = (0, 0u64, 0u64);
    for k in 1..=polls {
        let at = SimTime::ZERO + poll.times(k);
        buf.clear();
        let n = udp.len();
        if n > 0 {
            rotor = (rotor + 1) % n;
            for i in 0..n {
                udp[(rotor + i) % n].emit(at, poll, &mut rng, &mut buf);
            }
        }
        for s in &mut sweeps {
            s.emit(at, poll, &mut rng, &mut buf);
        }
        if let Some(src) = tcp.first_mut() {
            let due = (c.tcp_classified as u128 * k as u128 / polls as u128) as u64;
            while tcp_sent < due {
                let before = buf.len();
                src.pump(at, &mut buf);
                let sent = (buf.len() - before) as u64;
                if sent == 0 {
                    src.on_feedback(
                        Feedback::Delivered {
                            seq: acked,
                            ce: false,
                        },
                        at,
                    );
                    acked += 1;
                    continue;
                }
                let keep = sent.min(due - tcp_sent);
                buf.truncate(before + keep as usize);
                tcp_sent += keep;
            }
        }
        for f in &buf {
            out.push(f);
        }
    }
    out
}

fn replay_classify(table: &mut FlowTable, stream: &Stream) -> u64 {
    let mut n = 0;
    for &(tuple, size, count) in &stream.runs {
        for _ in 0..count {
            black_box(table.classify(black_box(&tuple), size));
            n += 1;
        }
    }
    n
}

/// RX and TX ring traffic of `execs` NF executions at burst 32: each
/// packet is enqueued and dequeued once on each ring.
fn replay_rings(execs: u64) -> u64 {
    let mut rings = [
        Ring::new(NfSpec::DEFAULT_RING),
        Ring::new(NfSpec::DEFAULT_RING),
    ];
    let mut out = Vec::with_capacity(32);
    let mut done = 0;
    while done < execs {
        let n = (execs - done).min(32);
        for ring in &mut rings {
            for i in 0..n {
                black_box(ring.enqueue(PktId(i as u32)));
            }
            ring.dequeue_burst(n as usize, &mut out);
            black_box(&out);
            out.clear();
        }
        done += n;
    }
    4 * execs
}

/// Allocate and free `frames` packet buffers at burst 32.
fn replay_mempool(pool: &mut Mempool, frames: u64) -> u64 {
    let mut ids = Vec::with_capacity(32);
    let mut done = 0;
    while done < frames {
        let n = (frames - done).min(32);
        for _ in 0..n {
            let pkt = Packet::new(FlowId(0), ChainId(0), 64, SimTime::ZERO);
            ids.push(pool.alloc(pkt).expect("mempool sized for a burst"));
        }
        for id in ids.drain(..) {
            pool.free(black_box(id));
        }
        done += n;
    }
    2 * frames
}

/// Push `pushes` events through an event queue: the engine's periodic
/// ticks (traffic 20 µs; RX, TX and wakeup 10 µs; monitor 1 ms; stats
/// roll 1 s) rescheduled as they pop, plus one-shot timers paced evenly
/// over the run for the rest of the pushes, drained with
/// `pop_batch_before`. Returns `(pops, pushes)`.
fn replay_des(shape: &Shape, dur: Duration, pushes: u64) -> (u64, u64) {
    let cfg = &shape.cfg;
    let periods = [
        cfg.traffic_poll,
        cfg.rx_poll,
        cfg.tx_poll,
        cfg.wakeup_period,
        cfg.nfvnice.load.sample_period,
        Duration::from_secs(1),
    ];
    const ONE_SHOT: usize = 6;
    let end = SimTime::ZERO + dur;
    let periodic: u64 = periods
        .iter()
        .map(|p| (dur.as_nanos() / p.as_nanos()).max(1))
        .sum();
    let one_shots = pushes.saturating_sub(periodic);
    let mut q: EventQueue<usize> = EventQueue::with_kind(cfg.queue);
    for (tag, p) in periods.iter().enumerate() {
        q.push(SimTime::ZERO + *p, tag);
    }
    let (mut spawned, mut lcg) = (0u64, 0x2545_f491_4f6c_dd1du64);
    let mut handle = |q: &mut EventQueue<usize>, at: SimTime, ev: usize| {
        if ev < ONE_SHOT {
            let next = at + periods[ev];
            if next <= end {
                q.push(next, ev);
            }
        }
        let due =
            (one_shots as u128 * at.as_nanos() as u128 / dur.as_nanos().max(1) as u128) as u64;
        while spawned < due {
            // Batch-boundary timers: same-instant continuations and a few
            // microseconds of batch or switch time.
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let delay_ns = [0, 0, 1_500, 2_600, 5_100, 6_800, 0, 3_300][(lcg >> 61) as usize];
            q.push(at + Duration::from_nanos(delay_ns), ONE_SHOT);
            spawned += 1;
        }
    };
    let mut rest = Vec::new();
    let mut pops = 0;
    while let Some((at, ev)) = q.pop_batch_before(end, &mut rest) {
        pops += 1 + rest.len() as u64;
        handle(&mut q, at, ev);
        for (at, ev) in rest.drain(..) {
            handle(&mut q, at, ev);
        }
    }
    // Timers armed past the end are pushed but never popped, as in a run.
    while spawned < one_shots {
        q.push(end + Duration::from_nanos(1), ONE_SHOT);
        spawned += 1;
    }
    (pops, q.stats().pushes)
}

/// A standalone platform deployed like the workload.
fn platform_like(shape: &Shape) -> Platform {
    let mut p = Platform::new(shape.cfg.platform.clone());
    let nfs: Vec<NfId> = shape
        .nfs
        .iter()
        .map(|(name, core, cost)| p.add_nf(NfSpec::new(name.clone(), *core, *cost)))
        .collect();
    for path in &shape.chains {
        let path: Vec<NfId> = path.iter().map(|&i| nfs[i]).collect();
        p.install_chain(&path);
    }
    for rule in rules(shape) {
        match rule {
            Rule::Exact(tuple, chain) => {
                p.install_flow(tuple, chain);
            }
            Rule::Wildcard(pattern, chain) => p.install_wildcard(pattern, chain, 0),
        }
    }
    p
}

/// Drive the workload's frames through NIC delivery → `rx_poll`
/// (admit-all) → `plan_batch`/`finish_batch` per NF → `tx_drain`, 32
/// frames a round, until the platform has executed as many NF packets as
/// the run did (or the stream ends). Packets advance one hop per round,
/// as they do between the engine's TX ticks. Returns `(NF executions,
/// frames fed)`.
fn replay_platform(p: &mut Platform, stream: &Stream, target: u64) -> (u64, u64) {
    let mut admit = |_: ChainId, _: FlowId, _: &mut dyn FnMut(NfId) -> bool| true;
    let mut no_mark = |_: NfId| false;
    let (mut tcp, mut woken, mut burst) = (Vec::new(), Vec::new(), Vec::with_capacity(32));
    let n_nfs = p.nfs.len() as u32;
    let (mut execs, mut frames, mut seq) = (0u64, 0u64, 0u64);
    let mut at = SimTime::ZERO;
    let mut round = |p: &mut Platform, burst: &mut Vec<WireFrame>, at: SimTime| -> u64 {
        p.nic.deliver_burst(burst);
        p.rx_poll(at, &mut admit, &mut tcp);
        let mut ran = 0;
        for nf in 0..n_nfs {
            if let BatchPlan::Run { n, .. } = p.plan_batch(NfId(nf)) {
                p.finish_batch(NfId(nf), at);
                ran += n as u64;
            }
        }
        p.tx_drain(at, &mut no_mark, &mut tcp, &mut woken);
        tcp.clear();
        woken.clear();
        ran
    };
    'feed: for &(tuple, size, count) in &stream.runs {
        for _ in 0..count {
            burst.push(WireFrame {
                tuple,
                size,
                seq,
                cost_class: 0,
                ecn: Ecn::NotEct,
                arrival: at,
            });
            seq += 1;
            if burst.len() == 32 {
                frames += 32;
                execs += round(p, &mut burst, at);
                at += Duration::from_micros(1);
                if execs >= target {
                    break 'feed;
                }
            }
        }
    }
    frames += burst.len() as u64;
    // Drain what is still in the chains.
    loop {
        let ran = round(p, &mut burst, at);
        execs += ran;
        at += Duration::from_micros(1);
        if ran == 0 && p.mempool.in_use() == 0 {
            break;
        }
    }
    (execs, frames)
}

/// The scheduler's wake → dispatch → charge → block/requeue cycle on each
/// core with the workload's tasks, until it has made as many context
/// switches as the run (voluntary and involuntary in the run's
/// proportion), interleaving the run's number of cgroup share writes.
fn replay_sched(shape: &Shape, c: &Counts) -> u64 {
    let pc = &shape.cfg.platform;
    let mut s = OsScheduler::new(pc.nf_cores, pc.policy, pc.cfs, pc.cs_cost);
    let mut cg = CgroupCpu::new(CgroupCpu::DEFAULT_WRITE_COST);
    let per_core: Vec<Vec<_>> = shape
        .nfs_per_core()
        .iter()
        .map(|nfs| {
            nfs.iter()
                .map(|&i| {
                    let task = s.add_task(shape.nfs[i].0.clone(), shape.nfs[i].1);
                    cg.register(task);
                    task
                })
                .collect()
        })
        .collect();
    let tasks: Vec<_> = per_core.iter().flatten().copied().collect();
    let (target, vol, writes) = (c.switches(), c.voluntary_switches, c.cgroup_writes);
    let batch = Duration::from_micros(5);
    let (mut done, mut vol_done, mut writes_done) = (0u64, 0u64, 0u64);
    let mut at = SimTime::ZERO;
    while done < target {
        for (core, on_core) in per_core.iter().enumerate() {
            if done == target || on_core.is_empty() {
                continue;
            }
            if s.current(core).is_none() {
                for &t in on_core {
                    if s.is_blocked(t) {
                        s.wake(t, at);
                    }
                }
                s.dispatch(core, at).expect("a woken task to run");
            }
            s.charge_current(core, batch);
            black_box(s.need_resched(core, at));
            done += 1;
            if (vol_done as u128) * (target as u128) < (vol as u128) * (done as u128) {
                s.block_current(core, at);
                vol_done += 1;
            } else {
                s.requeue_current(core, at, SwitchKind::Involuntary);
            }
            while (writes_done as u128) * (target as u128) < (writes as u128) * (done as u128) {
                let task = tasks[writes_done as usize % tasks.len()];
                let shares = if (writes_done / tasks.len() as u64).is_multiple_of(2) {
                    2048
                } else {
                    512
                };
                cg.set_shares(&mut s, task, shares);
                writes_done += 1;
            }
        }
        at += batch;
    }
    black_box(cg.writes);
    done
}

/// Backpressure watermark evaluation per NF on every wakeup tick (when
/// backpressure is on), load sampling and ECN smoothing per NF on every
/// monitor tick, and per-core share computation on every weight tick
/// (when cgroup weights are on). Queues follow a sawtooth that crosses
/// both watermarks about as often as the run's NFs entered throttle.
/// Returns `(ticks, throttle activations)`.
fn replay_core(shape: &Shape, dur: Duration, throttles: u64) -> (u64, u64) {
    let cfg = &shape.cfg;
    let nv = &cfg.nfvnice;
    let n = shape.nfs.len();
    let cap = NfSpec::DEFAULT_RING;
    let chains_of: Vec<Vec<ChainId>> = (0..n)
        .map(|nf| {
            (0..shape.chains.len())
                .filter(|&c| shape.chains[c].contains(&nf))
                .map(|c| ChainId(c as u32))
                .collect()
        })
        .collect();
    let mut bp = Backpressure::new(nv.bp, n, shape.chains.len());
    let mut load = LoadMonitor::new(nv.load, n);
    let mut ecn = EcnMarker::new(nv.ecn_cfg, vec![cap; n]);
    let wake_ticks = dur.as_nanos() / cfg.wakeup_period.as_nanos();
    let per_sample = (nv.load.sample_period.as_nanos() / cfg.wakeup_period.as_nanos()).max(1);
    let per_weight = (nv.load.weight_period.as_nanos() / nv.load.sample_period.as_nanos()).max(1);
    let per_core = shape.nfs_per_core();
    // One HIGH crossing per sawtooth period per NF; with no throttles in
    // the run the queues idle below both watermarks.
    let period = (wake_ticks * n as u64)
        .checked_div(throttles)
        .map(|p| p.max(4));
    let (mut samples, mut arrivals) = (0u64, 0u64);
    let mut rows = Vec::new();
    for w in 1..=wake_ticks {
        let at = SimTime::ZERO + cfg.wakeup_period.times(w);
        let qlen = |nf: usize| match period {
            Some(p) => {
                let phase = (w + 37 * nf as u64) % p;
                ((phase * cap as u64 / (p * 3 / 4).max(1)) as usize).min(cap)
            }
            None => cap / 10,
        };
        if nv.backpressure {
            for (nf, chains) in chains_of.iter().enumerate() {
                let q = qlen(nf);
                let age = (q > 0).then(|| Duration::from_micros(150));
                bp.evaluate(at, NfId(nf as u32), q, cap, age, chains.iter());
            }
        }
        if w % per_sample == 0 {
            samples += 1;
            arrivals += 1_000;
            for nf in 0..n {
                load.sample(nf, at, Duration::from_nanos(100 + nf as u64), arrivals);
                ecn.observe(nf, qlen(nf));
            }
            if nv.cgroup_weights && samples % per_weight == 0 {
                for nfs in &per_core {
                    rows.clear();
                    rows.extend(nfs.iter().map(|&i| (i, load.load(i), 1.0)));
                    if rows.len() >= 2 {
                        black_box(compute_shares(&rows, nv.load.shares_scale));
                    }
                }
            }
        }
    }
    (wake_ticks + samples, bp.throttle_events)
}

/// One metrics column per monitor tick (tick header, flow column, every
/// NF and chain), then the JSON export. Returns `(ticks, bytes)`.
fn replay_obs(shape: &Shape, dur: Duration) -> (u64, usize) {
    let ticks = dur.as_nanos() / shape.cfg.nfvnice.load.sample_period.as_nanos();
    let mut m = MetricsRecorder::recording();
    m.init(shape.nfs.iter().map(|nf| nf.0.as_str()), shape.chains.len());
    for k in 1..=ticks {
        let at = SimTime::ZERO + shape.cfg.nfvnice.load.sample_period.times(k);
        m.begin_tick(at, k % 4096);
        m.record_flows(shape.sources.len() as u64, 0);
        for nf in 0..shape.nfs.len() {
            m.record_nf(nf, k % 512, k % 7 == 0, 1024, 1.0e6 + k as f64, 150);
        }
        for c in 0..shape.chains.len() {
            m.record_chain(c, k % 7 == 0, u64::from(k % 7 == 0), 20_000 + k, 40_000 + k);
        }
    }
    (ticks, black_box(m.to_json()).len())
}
