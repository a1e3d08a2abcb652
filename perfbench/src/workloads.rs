//! The four workloads: each is one paper cell from EXPERIMENTS.md,
//! described once as a [`Shape`] that both the timed run (through the
//! `Simulation` builders) and the layer replays (through the layer
//! crates) are built from.

use nfv_des::{Duration, SimRng, SimTime};
use nfv_pkt::{line_rate_pps, FiveTuple, Proto};
use nfv_sched::Policy;
use nfv_traffic::{tenant, CbrFlow, SweepSource, TcpSource, TenantSpec, TENANT_SPAN};
use nfvnice::{NfSpec, NfvniceConfig, SanitizerConfig, SimConfig, Simulation};

/// The paper's Low/Medium/High per-packet costs in cycles (§4.2.1).
const LOW: u64 = 120;
const MED: u64 = 270;
const HIGH: u64 = 550;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig7 `NORMAL/NFVnice`: 3-NF L/M/H chain on one core, full NFVnice.
    ChainNfvnice,
    /// fig16 `len9/3core/Default`: 9-NF chain over 3 cores, NFVnice off.
    ChainDefault3Core,
    /// scale `1m_flows`: one tenant sweeping 2^20 tuples via a wildcard.
    Flows1m,
    /// fig13 `NFVnice`: one TCP flow beside ten windowed UDP flows.
    TcpIsolation,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ChainNfvnice,
        Workload::ChainDefault3Core,
        Workload::Flows1m,
        Workload::TcpIsolation,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainNfvnice => "chain-nfvnice",
            Workload::ChainDefault3Core => "chain-default-3core",
            Workload::Flows1m => "flows-1m",
            Workload::TcpIsolation => "tcp-isolation",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated duration of one run: the quick-suite length of the cell
    /// (300 ms steady state; fig13's 55 s timeline compressed 10×).
    pub fn sim_duration(self) -> Duration {
        match self {
            Workload::TcpIsolation => Duration::from_millis(5_500),
            _ => Duration::from_millis(300),
        }
    }
}

/// The seed-dependent inputs. Seed 0 reproduces the paper cell exactly;
/// any other seed jitters every offered rate by up to ±2%, moves
/// `flows-1m` to another tenant slice of the tuple space (so the flow
/// table hashes different keys), and reseeds the simulation RNG.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// Multiplier applied to every offered rate.
    pub rate_factor: f64,
    /// Tenant index of the `flows-1m` sweep.
    pub tenant: u32,
    /// `SimConfig::seed` of the simulation.
    pub sim_seed: u64,
}

/// The seed whose inputs are the paper cells'.
pub const DEFAULT_SEED: u64 = 0;

impl Inputs {
    /// Draw the inputs for `seed`.
    pub fn from_seed(seed: u64) -> Inputs {
        if seed == DEFAULT_SEED {
            return Inputs {
                rate_factor: 1.0,
                tenant: 0,
                sim_seed: SimConfig::default().seed,
            };
        }
        let mut rng = SimRng::seed_from_u64(seed);
        Inputs {
            rate_factor: 0.98 + 0.04 * rng.unit(),
            tenant: rng.below(16) as u32,
            sim_seed: rng.next_u64(),
        }
    }
}

/// One traffic source or rule, in builder-call order.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// `add_udp_with`: constant-rate UDP, optionally on for `[on, off)`.
    Udp {
        chain: usize,
        rate_pps: f64,
        frame: u32,
        window: Option<(SimTime, SimTime)>,
    },
    /// `add_tcp_with`: a window-capped TCP flow.
    Tcp {
        chain: usize,
        frame: u32,
        rtt: Duration,
        max_cwnd: f64,
    },
    /// `add_wildcard` + `add_sweep` for one tenant slice.
    Tenant { chain: usize, spec: TenantSpec },
}

/// Everything a workload deploys: configuration, NFs, chains (ids are
/// their index) and sources in the order the builders see them.
#[derive(Debug, Clone)]
pub struct Shape {
    pub cfg: SimConfig,
    /// `(name, core, cycles per packet)`.
    pub nfs: Vec<(String, usize, u64)>,
    /// Chain paths as NF indices.
    pub chains: Vec<Vec<usize>>,
    pub sources: Vec<Source>,
    /// Record monitor-tick metrics and export them as JSON in the run.
    pub metrics: bool,
}

impl Shape {
    /// The shape of `w` at simulated length `dur` with `inputs`.
    pub fn new(w: Workload, inputs: Inputs, dur: Duration) -> Shape {
        let line_rate = line_rate_pps(10.0, 64) * inputs.rate_factor;
        let mut shape = Shape {
            cfg: SimConfig {
                seed: inputs.sim_seed,
                ..SimConfig::default()
            },
            nfs: Vec::new(),
            chains: Vec::new(),
            sources: Vec::new(),
            metrics: false,
        };
        let cfg = &mut shape.cfg;
        match w {
            Workload::ChainNfvnice => {
                cfg.platform.nf_cores = 1;
                cfg.platform.policy = Policy::CfsNormal;
                cfg.nfvnice = NfvniceConfig::full();
                for (name, cost) in [("NF1-low", LOW), ("NF2-med", MED), ("NF3-high", HIGH)] {
                    shape.nfs.push((name.into(), 0, cost));
                }
                shape.chains.push(vec![0, 1, 2]);
                shape.sources.push(udp(0, line_rate, None));
            }
            Workload::ChainDefault3Core => {
                cfg.platform.nf_cores = 3;
                cfg.platform.policy = Policy::CfsBatch;
                cfg.nfvnice = NfvniceConfig::off();
                for i in 0..9 {
                    shape
                        .nfs
                        .push((format!("NF{}", i + 1), i % 3, [LOW, MED, HIGH][i % 3]));
                }
                shape.chains.push((0..9).collect());
                shape.sources.push(udp(0, line_rate, None));
            }
            Workload::Flows1m => {
                cfg.platform.nf_cores = 1;
                cfg.platform.policy = Policy::CfsBatch;
                cfg.nfvnice = NfvniceConfig::full();
                cfg.platform.flow_detail = false;
                shape.nfs.push(("fwd".into(), 0, LOW));
                shape.chains.push(vec![0]);
                shape.sources.push(Source::Tenant {
                    chain: 0,
                    spec: TenantSpec {
                        index: inputs.tenant,
                        flows: TENANT_SPAN,
                        rate_pps: 4.5e6 * inputs.rate_factor,
                        frame_size: 64,
                    },
                });
            }
            Workload::TcpIsolation => {
                cfg.platform.nf_cores = 2;
                cfg.platform.policy = Policy::CfsBatch;
                cfg.nfvnice = NfvniceConfig::full();
                shape.metrics = true;
                shape.nfs.push(("NF1-low".into(), 0, LOW));
                shape.nfs.push(("NF2-med".into(), 0, MED));
                // ~547 kpps of 64 B frames: the UDP flows' bottleneck.
                shape.nfs.push(("NF3-high".into(), 1, 4753));
                shape.chains.push(vec![0, 1]);
                shape.sources.push(Source::Tcp {
                    chain: 0,
                    frame: 1500,
                    rtt: Duration::from_micros(100),
                    max_cwnd: 33.0,
                });
                // UDP is on between 15/55 and 40/55 of the run (fig13).
                let at = |num: u64| SimTime::from_nanos(dur.as_nanos() * num / 55);
                for _ in 0..10 {
                    shape.chains.push(vec![0, 1, 2]);
                    let chain = shape.chains.len() - 1;
                    shape.sources.push(udp(
                        chain,
                        800_000.0 * inputs.rate_factor,
                        Some((at(15), at(40))),
                    ));
                }
            }
        }
        shape.cfg.obs.metrics = shape.metrics;
        shape
    }

    /// Build the simulation through the public builders.
    pub fn build(&self, sanitizer: SanitizerConfig) -> Simulation {
        let mut cfg = self.cfg.clone();
        cfg.sanitizer = sanitizer;
        let mut sim = Simulation::new(cfg);
        let nfs: Vec<_> = self
            .nfs
            .iter()
            .map(|(name, core, cost)| sim.add_nf(NfSpec::new(name.clone(), *core, *cost)))
            .collect();
        let mut chains = Vec::new();
        let mut next_chain = 0;
        for src in &self.sources {
            // Chains are installed just before their first source, in the
            // order the paper experiments interleave them.
            while next_chain <= src.chain() {
                let path: Vec<_> = self.chains[next_chain].iter().map(|&i| nfs[i]).collect();
                chains.push(sim.add_chain(&path));
                next_chain += 1;
            }
            match *src {
                Source::Udp {
                    chain,
                    rate_pps,
                    frame,
                    window,
                } => {
                    sim.add_udp_with(chains[chain], rate_pps, frame, |f| match window {
                        Some((on, off)) => f.window(on, off),
                        None => f,
                    });
                }
                Source::Tcp {
                    chain,
                    frame,
                    rtt,
                    max_cwnd,
                } => {
                    sim.add_tcp_with(chains[chain], frame, rtt, |t| t.with_max_cwnd(max_cwnd));
                }
                Source::Tenant { chain, spec } => {
                    let t = tenant(spec);
                    sim.add_wildcard(t.pattern, chains[chain], 0);
                    sim.add_sweep(t.sweep);
                }
            }
        }
        sim
    }

    /// The 5-tuple the simulation mints for each pinned source, in source
    /// order (`None` for tenant sweeps): `Simulation` numbers them
    /// `FiveTuple::synthetic(1, ..)`, `(2, ..)`, … as they are added.
    pub fn pinned_tuples(&self) -> Vec<Option<FiveTuple>> {
        let mut n = 0;
        self.sources
            .iter()
            .map(|s| {
                let proto = match s {
                    Source::Udp { .. } => Proto::Udp,
                    Source::Tcp { .. } => Proto::Tcp,
                    Source::Tenant { .. } => return None,
                };
                n += 1;
                Some(FiveTuple::synthetic(n, proto))
            })
            .collect()
    }

    /// Fresh traffic generators matching the simulation's: UDP pacers,
    /// tenant sweeps and TCP senders, each in source order.
    pub fn generators(&self) -> (Vec<CbrFlow>, Vec<SweepSource>, Vec<TcpSource>) {
        let (mut udp, mut sweeps, mut tcp) = (Vec::new(), Vec::new(), Vec::new());
        for (src, tuple) in self.sources.iter().zip(self.pinned_tuples()) {
            match *src {
                Source::Udp {
                    rate_pps,
                    frame,
                    window,
                    ..
                } => {
                    let f = CbrFlow::new(tuple.expect("pinned"), frame, rate_pps);
                    udp.push(match window {
                        Some((on, off)) => f.window(on, off),
                        None => f,
                    });
                }
                Source::Tcp {
                    frame,
                    rtt,
                    max_cwnd,
                    ..
                } => tcp.push(
                    TcpSource::new(tuple.expect("pinned"), frame, rtt).with_max_cwnd(max_cwnd),
                ),
                Source::Tenant { spec, .. } => sweeps.push(tenant(spec).sweep),
            }
        }
        (udp, sweeps, tcp)
    }

    /// NF indices per core.
    pub fn nfs_per_core(&self) -> Vec<Vec<usize>> {
        let mut per = vec![Vec::new(); self.cfg.platform.nf_cores];
        for (i, (_, core, _)) in self.nfs.iter().enumerate() {
            per[*core].push(i);
        }
        per
    }
}

impl Source {
    fn chain(&self) -> usize {
        match *self {
            Source::Udp { chain, .. }
            | Source::Tcp { chain, .. }
            | Source::Tenant { chain, .. } => chain,
        }
    }
}

fn udp(chain: usize, rate_pps: f64, window: Option<(SimTime, SimTime)>) -> Source {
    Source::Udp {
        chain,
        rate_pps,
        frame: 64,
        window,
    }
}
