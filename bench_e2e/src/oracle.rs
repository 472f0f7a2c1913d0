//! Result-set comparison that counts errors instead of asserting.

use llhj_core::tuple::SeqNo;

/// A result pair key `(r_seq, s_seq)`.
pub type Key = (SeqNo, SeqNo);

/// How one result set differs from a reference set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairErrors {
    /// Reference pairs the result set lacks.
    pub missing: u64,
    /// Distinct pairs the reference set lacks.
    pub spurious: u64,
    /// Extra copies of pairs the result set holds more than once.
    pub duplicates: u64,
}

impl PairErrors {
    /// Every error, summed.
    pub fn total(&self) -> u64 {
        self.missing + self.spurious + self.duplicates
    }
}

/// Compares two ascending key lists.  `reference` must be duplicate-free
/// (the Kang oracle emits each pair once); `got` may repeat keys.
pub fn compare(got: &[Key], reference: &[Key]) -> PairErrors {
    let mut errors = PairErrors::default();
    let (mut i, mut j) = (0, 0);
    while i < got.len() || j < reference.len() {
        if i > 0 && i < got.len() && got[i] == got[i - 1] {
            errors.duplicates += 1;
            i += 1;
            continue;
        }
        match (got.get(i), reference.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                errors.spurious += 1;
                i += 1;
            }
            (Some(_), None) => {
                errors.spurious += 1;
                i += 1;
            }
            _ => {
                errors.missing += 1;
                j += 1;
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &[(u64, u64)]) -> Vec<Key> {
        v.iter().map(|&(r, s)| (SeqNo(r), SeqNo(s))).collect()
    }

    #[test]
    fn counts_each_kind_of_error() {
        let reference = keys(&[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(compare(&reference, &reference), PairErrors::default());
        let got = keys(&[(0, 0), (0, 0), (1, 5), (2, 2), (9, 9)]);
        assert_eq!(
            compare(&got, &reference),
            PairErrors {
                missing: 1,
                spurious: 2,
                duplicates: 1,
            }
        );
        assert_eq!(compare(&[], &reference).missing, 3);
    }
}
