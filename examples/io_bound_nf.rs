//! I/O-bound network functions: blocking writes vs `libnf`'s batched
//! asynchronous writes with double buffering (§3.4 / Fig 14).
//!
//! Two flows traverse a forwarder and a logging NF; only flow 1 is logged
//! to disk. With synchronous writes the logger stalls on the device and
//! both flows suffer; with the async engine the logger overlaps I/O with
//! processing and the non-logging flow is fully isolated.
//!
//! Run with: `cargo run --release --bin io_bound_nf`

#![forbid(unsafe_code)]

use nfvnice::{Duration, IoMode, NfIoSpec, NfSpec, NfvniceConfig, Policy, SimConfig, Simulation};

fn run(mode: IoMode, variant: NfvniceConfig) -> nfvnice::Report {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = Policy::CfsBatch;
    cfg.nfvnice = variant;
    let mut sim = Simulation::new(cfg);
    let fwd = sim.add_nf(NfSpec::new("forwarder", 0, 250));
    let logger = sim.add_nf(NfSpec::new("pkt-logger", 0, 300).with_io(NfIoSpec {
        bytes_per_packet: 256,
        mode,
    }));
    let c1 = sim.add_chain(&[fwd, logger]);
    let c2 = sim.add_chain(&[fwd, logger]);
    let logged = sim.add_udp(c1, 2_000_000.0, 256);
    sim.add_udp(c2, 2_000_000.0, 256);
    sim.mark_io_flow(logged);
    sim.run(Duration::from_secs(1))
}

fn main() {
    let sync = run(IoMode::Sync, NfvniceConfig::off());
    let async_ = run(
        IoMode::Async {
            buf_size: 64 * 1024,
        },
        NfvniceConfig::full(),
    );
    println!("mode   logged-flow kpps   other-flow kpps   aggregate Mpps");
    for (name, r) in [("sync ", &sync), ("async", &async_)] {
        println!(
            "{name}  {:>16.1}  {:>16.1}  {:>14.3}",
            r.flow(0).delivered_pps / 1e3,
            r.flow(1).delivered_pps / 1e3,
            r.total_delivered_pps / 1e6
        );
    }
    println!(
        "\nAsync double buffering keeps the logger off the blocking path:\n\
         the device absorbs {:.0} MB/s in the background while packets flow.",
        async_.flow(0).delivered_pps * 256.0 / 1e6
    );
}
