//! The engine's event vocabulary: the `Ev` enum every manager tick and
//! batch boundary is scheduled as, its sanitizer tag encoding, and the
//! mid-run configuration [`Action`]s.

use nfv_pkt::NfId;
use nfv_platform::CostModel;
use nfv_traffic::Feedback;

/// A configuration change applied mid-run (Fig 15a changes an NF's cost at
/// t = 31 s and back at t = 60 s).
#[derive(Debug, Clone)]
pub enum Action {
    /// Replace an NF's cost model.
    SetCost(NfId, CostModel),
}

/// The engine's events. `TcpFeedback { src, n }` is a run of `n`
/// feedbacks due to TCP source `src` now, popped from the front of its
/// feedback FIFO and handled one by one.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    Traffic,
    RxPoll,
    TxPoll,
    Wakeup,
    Monitor,
    StatsRoll,
    CoreRun { core: usize },
    BatchDone { core: usize },
    IoComplete { nf: NfId },
    TcpFeedback { src: u32, n: u32 },
    Action { idx: usize },
    Fault { idx: usize },
    NfRespawn { nf: NfId },
    SlowdownEnd { nf: NfId },
}

/// Bit position of the variant discriminant in an event tag.
const SHIFT: u32 = 56;

/// A stable encoding of an event for the sanitizer's trace digest:
/// variant discriminant in the high byte, payload below. Any pure
/// function of the event works; this one keeps distinct events distinct
/// for every payload the engine actually produces. A feedback run is not
/// one digest entry: each of its feedbacks is folded with
/// [`feedback_tag`].
pub(crate) fn ev_tag(ev: &Ev) -> u64 {
    match ev {
        Ev::Traffic => 1 << SHIFT,
        Ev::RxPoll => 2 << SHIFT,
        Ev::TxPoll => 3 << SHIFT,
        Ev::Wakeup => 4 << SHIFT,
        Ev::Monitor => 5 << SHIFT,
        Ev::StatsRoll => 6 << SHIFT,
        Ev::CoreRun { core } => (7 << SHIFT) | *core as u64,
        Ev::BatchDone { core } => (8 << SHIFT) | *core as u64,
        Ev::IoComplete { nf } => (9 << SHIFT) | nf.index() as u64,
        Ev::TcpFeedback { .. } => unreachable!("feedback runs are digested per feedback"),
        Ev::Action { idx } => (11 << SHIFT) | *idx as u64,
        Ev::Fault { idx } => (12 << SHIFT) | *idx as u64,
        Ev::NfRespawn { nf } => (13 << SHIFT) | nf.index() as u64,
        Ev::SlowdownEnd { nf } => (14 << SHIFT) | nf.index() as u64,
    }
}

/// The digest tag of one feedback to TCP source `src`.
pub(crate) fn feedback_tag(src: u32, fb: Feedback) -> u64 {
    let (kind, seq) = match fb {
        Feedback::Delivered { seq, ce } => (u64::from(ce), seq),
        Feedback::Dropped { seq } => (2, seq),
    };
    (10 << SHIFT) | (kind << 48) | ((u64::from(src) & 0xff) << 40) | (seq & 0xff_ffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct_across_variants() {
        let evs = [
            Ev::Traffic,
            Ev::RxPoll,
            Ev::TxPoll,
            Ev::Wakeup,
            Ev::Monitor,
            Ev::StatsRoll,
            Ev::CoreRun { core: 0 },
            Ev::BatchDone { core: 0 },
            Ev::IoComplete { nf: NfId(0) },
            Ev::Action { idx: 0 },
            Ev::Fault { idx: 0 },
            Ev::NfRespawn { nf: NfId(0) },
            Ev::SlowdownEnd { nf: NfId(0) },
        ];
        let mut tags: Vec<u64> = evs.iter().map(ev_tag).collect();
        tags.push(feedback_tag(0, Feedback::Dropped { seq: 0 }));
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), evs.len() + 1);
    }

    #[test]
    fn events_stay_small() {
        // A feedback run carries counts, not the feedback itself.
        assert!(std::mem::size_of::<Ev>() <= 16);
    }

    #[test]
    fn payload_reaches_the_tag() {
        assert_ne!(
            ev_tag(&Ev::CoreRun { core: 0 }),
            ev_tag(&Ev::CoreRun { core: 1 })
        );
        let delivered = |src, ce| feedback_tag(src, Feedback::Delivered { seq: 9, ce });
        assert_ne!(delivered(0, false), delivered(0, true));
        assert_ne!(delivered(0, false), delivered(1, false));
        assert_ne!(
            delivered(0, false),
            feedback_tag(0, Feedback::Delivered { seq: 10, ce: false })
        );
    }
}
