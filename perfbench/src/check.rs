//! Output checks: a failed check counts as a failed operation.

/// Relative tolerance between a solver workload's final-field norm and
/// the scalar-bytecode oracle's. Backends and rank counts are bitwise
/// identical per point; only the order of the cross-rank norm reduction
/// differs, which moves the result by ~1e-15.
pub const NORM_RTOL: f64 = 1e-6;

/// The final main field's `DistArray::norm2` against the oracle's.
#[derive(Clone, Debug)]
pub struct NormCheck {
    pub got: f64,
    pub reference: f64,
    pub rtol: f64,
}

impl NormCheck {
    pub fn new(got: f64, reference: f64) -> NormCheck {
        NormCheck {
            got,
            reference,
            rtol: NORM_RTOL,
        }
    }

    pub fn rel_err(&self) -> f64 {
        (self.got - self.reference).abs() / self.reference.abs()
    }

    /// Both norms finite and non-zero (a silent field is wrong too), and
    /// within `rtol` of each other.
    pub fn passed(&self) -> bool {
        self.got.is_finite()
            && self.reference.is_finite()
            && self.reference > 0.0
            && self.rel_err() <= self.rtol
    }

    pub fn describe(&self) -> String {
        format!(
            "norm2 {:.9e} vs oracle {:.9e}: rel err {:.2e} (tolerance {:.0e})",
            self.got,
            self.reference,
            self.rel_err(),
            self.rtol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_check_rejects_drift_nan_and_silence() {
        assert!(NormCheck::new(1.0, 1.0 + 1e-9).passed());
        assert!(!NormCheck::new(1.0, 1.001).passed());
        assert!(!NormCheck::new(f64::NAN, 1.0).passed());
        assert!(!NormCheck::new(0.0, 0.0).passed());
    }
}
