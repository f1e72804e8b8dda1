//! Operations attempted and failed, with the reason for each failure.

/// Running count of a run's operations. An operation is anything whose
/// outcome is checked: a pass run, a daemon request, an oracle comparison.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub reasons: Vec<String>,
}

const REASONS_KEPT: usize = 20;

impl Tally {
    /// Counts one operation; `why` is only rendered when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < REASONS_KEPT {
                self.reasons.push(why());
            }
        }
        ok
    }

    /// Counts one operation that produced `r`, keeping the value on
    /// success.
    pub fn ok<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = REASONS_KEPT.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut t = Tally::default();
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "mismatch".into()));
        assert_eq!(t.ok(Ok::<u8, String>(3)), Some(3));
        assert_eq!(t.ok(Err::<u8, String>("boom".into())), None);
        let mut sum = Tally::default();
        sum.absorb(t);
        assert_eq!((sum.attempted, sum.failed), (4, 2));
        assert_eq!(sum.reasons, ["mismatch", "boom"]);
    }
}
