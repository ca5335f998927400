//! Per-field precision annotations (ROADMAP item 4 groundwork).
//!
//! Today every backend computes and stores in f32 and ships halos as
//! native f32 on the wire. Mixed-precision codegen will make both
//! choices per-field parameters; this module is the IR-level vocabulary
//! for those choices, and `mpix-analysis::fp` is the gate that decides
//! which assignments are numerically safe *before* any lowering
//! consumes them: a precision certificate bounds each field's rounding
//! error under every [`StoragePrecision`] × [`WireFormat`] combination,
//! so demotions are proven, not guessed.

use std::collections::BTreeMap;

use mpix_symbolic::FieldId;

/// Element type a field's buffers are stored (and computed) in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StoragePrecision {
    F64,
    /// What every shipped backend implements today.
    F32,
    Bf16,
}

impl StoragePrecision {
    pub const ALL: [StoragePrecision; 3] = [
        StoragePrecision::F64,
        StoragePrecision::F32,
        StoragePrecision::Bf16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StoragePrecision::F64 => "f64",
            StoragePrecision::F32 => "f32",
            StoragePrecision::Bf16 => "bf16",
        }
    }

    /// Unit roundoff `u = 2^-(p)` for `p` significand bits (including
    /// the hidden bit): the relative error bound of one correctly
    /// rounded operation at this precision.
    pub fn unit_roundoff(self) -> f64 {
        match self {
            StoragePrecision::F64 => (2.0f64).powi(-53),
            StoragePrecision::F32 => (2.0f64).powi(-24),
            StoragePrecision::Bf16 => (2.0f64).powi(-8),
        }
    }

    /// Smallest positive normal number: the most a result flushed to
    /// zero (FTZ) or an operand read as zero (DAZ) can lose. bf16 keeps
    /// f32's exponent range.
    pub fn min_normal(self) -> f64 {
        match self {
            StoragePrecision::F64 => f64::MIN_POSITIVE,
            StoragePrecision::F32 | StoragePrecision::Bf16 => f32::MIN_POSITIVE as f64,
        }
    }

    /// Bytes per element.
    pub fn bytes(self) -> usize {
        match self {
            StoragePrecision::F64 => 8,
            StoragePrecision::F32 => 4,
            StoragePrecision::Bf16 => 2,
        }
    }
}

/// Element type halo exchanges put on the wire. Demotion below the
/// storage precision halves (or quarters) `bytes_per_exchange` at the
/// cost of one extra rounding per exchanged cell per step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WireFormat {
    /// Ship storage bits unchanged (today's behaviour).
    Native,
    Bf16,
    F16,
}

impl WireFormat {
    pub const ALL: [WireFormat; 3] = [WireFormat::Native, WireFormat::Bf16, WireFormat::F16];

    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Native => "native",
            WireFormat::Bf16 => "bf16",
            WireFormat::F16 => "f16",
        }
    }

    /// Unit roundoff of the demotion, or `None` when the wire carries
    /// storage bits exactly.
    pub fn unit_roundoff(self) -> Option<f64> {
        match self {
            WireFormat::Native => None,
            WireFormat::Bf16 => Some((2.0f64).powi(-8)),
            WireFormat::F16 => Some((2.0f64).powi(-11)),
        }
    }
}

/// The operator-level precision assignment: per-field storage choices
/// over a default, plus one wire format for halo traffic. Fields not
/// explicitly annotated use the default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrecisionMap {
    pub default: StoragePrecision,
    pub wire: WireFormat,
    overrides: BTreeMap<FieldId, StoragePrecision>,
}

impl Default for PrecisionMap {
    /// The shipped configuration: f32 everywhere, native wire.
    fn default() -> PrecisionMap {
        PrecisionMap {
            default: StoragePrecision::F32,
            wire: WireFormat::Native,
            overrides: BTreeMap::new(),
        }
    }
}

impl PrecisionMap {
    pub fn with_field(mut self, f: FieldId, p: StoragePrecision) -> PrecisionMap {
        self.overrides.insert(f, p);
        self
    }

    pub fn storage(&self, f: FieldId) -> StoragePrecision {
        self.overrides.get(&f).copied().unwrap_or(self.default)
    }

    /// Fields annotated away from the default.
    pub fn overrides(&self) -> impl Iterator<Item = (FieldId, StoragePrecision)> + '_ {
        self.overrides.iter().map(|(&f, &p)| (f, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundoffs_are_ordered_by_width() {
        assert!(StoragePrecision::F64.unit_roundoff() < StoragePrecision::F32.unit_roundoff());
        assert!(StoragePrecision::F32.unit_roundoff() < StoragePrecision::Bf16.unit_roundoff());
        // bf16 keeps f32's exponent but only 8 significand bits; f16
        // carries 11 — a bf16 wire is *coarser* than an f16 wire.
        assert!(WireFormat::Bf16.unit_roundoff() > WireFormat::F16.unit_roundoff());
        assert_eq!(WireFormat::Native.unit_roundoff(), None);
    }

    #[test]
    fn map_defaults_and_overrides() {
        let f0 = FieldId(0);
        let f1 = FieldId(1);
        let m = PrecisionMap::default().with_field(f1, StoragePrecision::F64);
        assert_eq!(m.storage(f0), StoragePrecision::F32);
        assert_eq!(m.storage(f1), StoragePrecision::F64);
        assert_eq!(m.overrides().count(), 1);
        assert_eq!(m.wire, WireFormat::Native);
    }
}
