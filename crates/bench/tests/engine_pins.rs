//! Engine pins: the trace digest and event-queue counts of three
//! quick-suite cells — the TCP feedback loop (fig13 NFVnice), a crash
//! with respawn (faults/crash+recover) and elastic scaling with migration
//! (elastic/both). Changes to how the queue stores or delivers events
//! must leave every pinned value exactly as it is; only `cascades` may
//! move. The knob-off builds (`no-coalesce`, `no-skip-ahead`) zero the
//! counters those knobs feed.

use nfv_bench::experiments::{elastic, faults, fig13};
use nfv_bench::RunLength;
use nfvnice::{NfvniceConfig, QueueStats, Report};

/// `(trace_digest, pushes, pops, coalesced_pops, max_len, skipped_ticks)`.
type Pin = (u64, u64, u64, u64, usize, u64);

fn check(cell: &str, r: &Report, pin: Pin) {
    let (digest, pushes, pops, coalesced, max_len, skipped) = pin;
    let coalesced = if cfg!(feature = "no-coalesce") {
        0
    } else {
        coalesced
    };
    let skipped = if cfg!(feature = "no-skip-ahead") {
        0
    } else {
        skipped
    };
    let QueueStats {
        pushes: p,
        pops: q,
        coalesced_pops: c,
        max_len: m,
        skipped_ticks: s,
        ..
    } = r.queue;
    assert_eq!(
        (r.trace_digest, p, q, c, m, s),
        (digest, pushes, pops, coalesced, max_len, skipped),
        "{cell}: (digest, pushes, pops, coalesced_pops, max_len, skipped_ticks)"
    );
}

#[test]
fn quick_cells_keep_their_digest_and_queue_counts() {
    let len = RunLength::quick();

    let fig13 = fig13::run_cell(NfvniceConfig::full(), len).report;
    check(
        "fig13/NFVnice",
        &fig13,
        (
            0x4070_d3af_0787_e5f4,
            2_685_901,
            2_685_900,
            1_426_076,
            10,
            863_501,
        ),
    );
    // The manager ticks make up most of fig13's pops; off the wheel, they
    // no longer cascade.
    assert!(
        fig13.queue.cascades * 20 < fig13.queue.pops,
        "fig13: {} cascades for {} pops",
        fig13.queue.cascades,
        fig13.queue.pops
    );

    let (_, crash) = faults::cells()
        .into_iter()
        .find(|(name, _)| *name == "crash+recover")
        .expect("faults cell");
    let crash = faults::run_cell("crash+recover", crash, len).0;
    check(
        "faults/crash+recover",
        &crash,
        (0x1ed3_5e46_70db_52ef, 252_374, 252_372, 75_318, 8, 16_999),
    );

    let (_, both) = elastic::cells()
        .into_iter()
        .find(|(name, _)| *name == "both")
        .expect("elastic cell");
    let both = elastic::run_cell("both", both, len);
    check(
        "elastic/both",
        &both,
        (0xc131_d3cf_a9ec_8ae5, 151_307, 151_304, 75_301, 8, 15_002),
    );
}
