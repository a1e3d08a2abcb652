//! Figure 14: efficient storage I/O.
//!
//! Two UDP flows share a 2-NF chain; the second NF logs packets of flow 1
//! to disk. The baseline performs blocking (synchronous, per-batch)
//! writes; NFVnice's `libnf` uses batched asynchronous writes with double
//! buffering, so the NF — and therefore flow 2, which does no I/O — keeps
//! making progress while the device works. Aggregate throughput vs frame
//! size, BATCH scheduler.

use crate::util::{line_rate, sim, RunLength, Table};
use nfvnice::{IoMode, NfIoSpec, NfSpec, NfvniceConfig, Policy, Report};

/// Frame sizes swept by the figure.
pub const SIZES: [u32; 5] = [64, 128, 256, 512, 1024];

/// One (frame size, async?) cell.
pub fn run_cell(frame: u32, async_io: bool, len: RunLength) -> Report {
    let variant = if async_io {
        NfvniceConfig::full()
    } else {
        NfvniceConfig::off()
    };
    let mut s = sim(1, Policy::CfsBatch, variant);
    let mode = if async_io {
        IoMode::Async {
            buf_size: 64 * 1024,
        }
    } else {
        IoMode::Sync
    };
    let nf1 = s.add_nf(NfSpec::new("fwd", 0, 250));
    let nf2 = s.add_nf(NfSpec::new("logger", 0, 300).with_io(NfIoSpec {
        bytes_per_packet: frame as u64,
        mode,
    }));
    // Two flows with per-flow chains; only flow 1 triggers I/O.
    let c1 = s.add_chain(&[nf1, nf2]);
    let c2 = s.add_chain(&[nf1, nf2]);
    let f1 = s.add_udp(c1, line_rate(frame) / 2.0, frame);
    s.add_udp(c2, line_rate(frame) / 2.0, frame);
    s.mark_io_flow(f1);
    let cell = format!("frame{frame}/{}", if async_io { "async" } else { "sync" });
    crate::util::run_logged("fig14", &cell, &mut s, len.steady)
}

/// Full figure.
pub fn run(len: RunLength) -> String {
    let mut out = String::new();
    out.push_str("\n=== Fig 14 — async I/O: aggregate throughput (Mpps) vs frame size ===\n");
    let mut t = Table::new(&[
        "frame",
        "Default (sync writes)",
        "NFVnice (async writes)",
        "io-flow Mpps (Def)",
        "io-flow Mpps (Nice)",
        "other-flow Mpps (Def)",
        "other-flow Mpps (Nice)",
    ]);
    for frame in SIZES {
        let d = run_cell(frame, false, len);
        let n = run_cell(frame, true, len);
        t.row(vec![
            format!("{frame}B"),
            format!("{:.3}", d.total_delivered_pps / 1e6),
            format!("{:.3}", n.total_delivered_pps / 1e6),
            format!("{:.3}", d.flow(0).delivered_pps / 1e6),
            format!("{:.3}", n.flow(0).delivered_pps / 1e6),
            format!("{:.3}", d.flow(1).delivered_pps / 1e6),
            format!("{:.3}", n.flow(1).delivered_pps / 1e6),
        ]);
    }
    out.push_str(&t.render());
    out
}
