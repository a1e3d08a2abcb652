//! Saturating 48-bit counters for per-flow records.
//!
//! Every flow a run learns pays for its per-flow records, so their
//! counters take 6 bytes, not 8. A [`Count48`] holds up to 2^48 − 1 and
//! saturates there. No simulated run comes near it: 2^48 bytes is 62
//! hours at 10 Gb/s, and 2^48 packets is 219 days at 14.88 Mpps. An add
//! that saturates bumps a count its caller owns, so the report can
//! surface a clipped counter instead of a silently wrong one.

use std::fmt;

/// An unsigned 48-bit counter in 6 bytes with alignment 1, so it packs
/// beside 16- and 32-bit fields without padding. Read with
/// [`Count48::get`]; written only with the saturating [`Count48::add`].
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Count48([u8; 6]);

impl Count48 {
    /// The largest count: 2^48 − 1.
    pub const MAX: u64 = (1 << 48) - 1;

    /// The count.
    #[inline]
    pub fn get(self) -> u64 {
        let mut b = [0; 8];
        b[..6].copy_from_slice(&self.0);
        u64::from_le_bytes(b)
    }

    /// Add `n`, saturating at [`Count48::MAX`]; an add that clips bumps
    /// `clipped`. Only the clipping path, kept out of line, touches
    /// `clipped`, so a hot add is one load, one add and one store.
    #[inline]
    pub fn add(&mut self, n: u64, clipped: &mut u64) {
        match self.get().checked_add(n) {
            Some(sum) if sum <= Self::MAX => self.set(sum),
            _ => self.clip(clipped),
        }
    }

    #[cold]
    #[inline(never)]
    fn clip(&mut self, clipped: &mut u64) {
        self.set(Self::MAX);
        *clipped += 1;
    }

    /// Store `v` (at most [`Count48::MAX`]): the slice copy compiles to
    /// one 4-byte and one 2-byte store.
    #[inline]
    fn set(&mut self, v: u64) {
        self.0.copy_from_slice(&v.to_le_bytes()[..6]);
    }
}

impl fmt::Debug for Count48 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_bytes_at_alignment_one() {
        assert_eq!(std::mem::size_of::<Count48>(), 6);
        assert_eq!(std::mem::align_of::<Count48>(), 1);
    }

    #[test]
    fn adds_carry_across_the_low_bytes() {
        let (mut c, mut clipped) = (Count48::default(), 0);
        c.add(u64::from(u32::MAX), &mut clipped);
        c.add(2, &mut clipped);
        assert_eq!(c.get(), (1 << 32) + 1);
        assert_eq!(format!("{c:?}"), "4294967297");
        assert_eq!(clipped, 0);
    }

    #[test]
    fn count_saturates_at_two_to_the_48_minus_one() {
        let (mut c, mut clipped) = (Count48::default(), 0);
        c.add(Count48::MAX - 1, &mut clipped);
        c.add(1, &mut clipped);
        assert_eq!(
            (c.get(), clipped),
            (Count48::MAX, 0),
            "reaching MAX is exact"
        );
        c.add(1, &mut clipped);
        assert_eq!((c.get(), clipped), (Count48::MAX, 1), "one past MAX clips");
        c.add(u64::MAX, &mut clipped);
        assert_eq!((c.get(), clipped), (Count48::MAX, 2), "no wrap through u64");
        c.add(0, &mut clipped);
        assert_eq!(clipped, 2, "adding nothing clips nothing");
    }
}
