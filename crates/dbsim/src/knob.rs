//! Knob specifications: name, typed domain, and default value.
//!
//! Configurations are passed around as raw `f64` vectors in catalog order:
//! continuous knobs hold their value directly, integer knobs hold a rounded
//! value, categorical knobs hold the index of the chosen option. The
//! [`Domain`] carries everything needed to sample, clamp, and encode a
//! knob; `dbtune-core` builds its generic configuration spaces from these.

/// The domain of a single configuration knob.
#[derive(Clone, Debug, PartialEq)]
pub enum Domain {
    /// A real-valued knob in `[lo, hi]`; `log` selects log-uniform
    /// sampling/encoding for knobs spanning orders of magnitude.
    Real {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
        /// Sample/encode on a log scale.
        log: bool,
    },
    /// An integer-valued knob in `[lo, hi]`.
    Int {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
        /// Sample/encode on a log scale.
        log: bool,
    },
    /// A categorical knob with named options; values are option indices.
    Cat {
        /// Option labels, in index order.
        choices: Vec<&'static str>,
    },
}

impl Domain {
    /// Number of categorical options, or `None` for numeric domains.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            Domain::Cat { choices } => Some(choices.len()),
            _ => None,
        }
    }

    /// True for categorical domains.
    pub fn is_categorical(&self) -> bool {
        matches!(self, Domain::Cat { .. })
    }

    /// True for integer domains.
    pub fn is_integer(&self) -> bool {
        matches!(self, Domain::Int { .. })
    }

    /// Clamps and legalizes a raw value into the domain (rounding integers,
    /// clamping categorical codes).
    pub fn clamp(&self, v: f64) -> f64 {
        match self {
            Domain::Real { lo, hi, .. } => v.clamp(*lo, *hi),
            Domain::Int { lo, hi, .. } => v.round().clamp(*lo as f64, *hi as f64),
            Domain::Cat { choices } => v.round().clamp(0.0, (choices.len() - 1) as f64),
        }
    }

    /// Maps a raw value to the unit interval `[0, 1]` (categoricals map to
    /// `index / (k-1)` — the *ordinal* encoding vanilla BO is stuck with).
    pub fn to_unit(&self, v: f64) -> f64 {
        self.unit_encoding().encode(v)
    }

    /// The constants [`Domain::to_unit`] derives from the domain, for a
    /// caller that encodes many values of one domain.
    pub(crate) fn unit_encoding(&self) -> UnitEncoding {
        let numeric = |lo: f64, hi: f64, log: bool| {
            if hi <= lo {
                UnitEncoding::Zero
            } else if log {
                debug_assert!(lo > 0.0, "log domain needs positive bounds");
                UnitEncoding::Log { lo, ln_lo: lo.ln(), ln_width: hi.ln() - lo.ln() }
            } else {
                UnitEncoding::Linear { lo, width: hi - lo }
            }
        };
        match self {
            Domain::Real { lo, hi, log } => numeric(*lo, *hi, *log),
            Domain::Int { lo, hi, log } => numeric(*lo as f64, *hi as f64, *log),
            Domain::Cat { choices } if choices.len() <= 1 => UnitEncoding::Zero,
            Domain::Cat { choices } => UnitEncoding::Ordinal { last: (choices.len() - 1) as f64 },
        }
    }

    /// Maps a unit-interval value back to a legal raw value.
    pub fn from_unit(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self {
            Domain::Real { lo, hi, log } => raw_of(u, *lo, *hi, *log),
            Domain::Int { lo, hi, log } => {
                raw_of(u, *lo as f64, *hi as f64, *log).round().clamp(*lo as f64, *hi as f64)
            }
            Domain::Cat { choices } => {
                // Floor-based decode gives every category an equal-width
                // bin, so uniform unit samples give uniform categories.
                let k = choices.len() as f64;
                (u * k).floor().clamp(0.0, k - 1.0)
            }
        }
    }
}

/// The constants [`Domain::to_unit`] derives from a domain's bounds (for
/// a log-scaled domain `ln(lo)` and `ln(hi) − ln(lo)`), computed once.
/// `ln` of the same input is the same value, so [`UnitEncoding::encode`]
/// gives the bits a per-call computation would, at one logarithm per
/// log-scaled value.
#[derive(Clone, Copy, Debug)]
pub(crate) enum UnitEncoding {
    /// A numeric range with `hi <= lo`, or a single-option categorical:
    /// always 0.
    Zero,
    /// `(v − lo) / width`, clamped to `[0, 1]`.
    Linear { lo: f64, width: f64 },
    /// `(ln(max(v, lo)) − ln_lo) / ln_width`, clamped to `[0, 1]`.
    Log { lo: f64, ln_lo: f64, ln_width: f64 },
    /// A categorical's option index over its last index.
    Ordinal { last: f64 },
}

impl UnitEncoding {
    /// The unit-interval encoding of the raw value `v`.
    pub(crate) fn encode(&self, v: f64) -> f64 {
        match *self {
            UnitEncoding::Zero => 0.0,
            UnitEncoding::Linear { lo, width } => ((v - lo) / width).clamp(0.0, 1.0),
            UnitEncoding::Log { lo, ln_lo, ln_width } => {
                ((v.max(lo).ln() - ln_lo) / ln_width).clamp(0.0, 1.0)
            }
            UnitEncoding::Ordinal { last } => v / last,
        }
    }
}

fn raw_of(u: f64, lo: f64, hi: f64, log: bool) -> f64 {
    if log {
        (lo.ln() + u * (hi.ln() - lo.ln())).exp()
    } else {
        lo + u * (hi - lo)
    }
}

/// A named knob with a domain and a default value (raw representation).
#[derive(Clone, Debug)]
pub struct KnobSpec {
    /// MySQL-style variable name.
    pub name: &'static str,
    /// Value domain.
    pub domain: Domain,
    /// Default raw value (categoricals: option index).
    pub default: f64,
}

impl KnobSpec {
    /// Continuous knob helper.
    pub fn real(name: &'static str, lo: f64, hi: f64, log: bool, default: f64) -> Self {
        assert!(lo < hi && default >= lo && default <= hi, "bad real spec {name}");
        Self { name, domain: Domain::Real { lo, hi, log }, default }
    }

    /// Integer knob helper.
    pub fn int(name: &'static str, lo: i64, hi: i64, log: bool, default: i64) -> Self {
        assert!(lo < hi && default >= lo && default <= hi, "bad int spec {name}");
        Self { name, domain: Domain::Int { lo, hi, log }, default: default as f64 }
    }

    /// Categorical knob helper; `default` is an option index.
    pub fn cat(name: &'static str, choices: Vec<&'static str>, default: usize) -> Self {
        assert!(default < choices.len(), "bad cat spec {name}");
        Self { name, domain: Domain::Cat { choices }, default: default as f64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_round_trip_linear() {
        let d = Domain::Real { lo: 10.0, hi: 20.0, log: false };
        for v in [10.0, 12.5, 20.0] {
            let u = d.to_unit(v);
            assert!((d.from_unit(u) - v).abs() < 1e-9);
        }
        assert_eq!(d.to_unit(10.0), 0.0);
        assert_eq!(d.to_unit(20.0), 1.0);
    }

    #[test]
    fn unit_round_trip_log() {
        let d = Domain::Real { lo: 1.0, hi: 1024.0, log: true };
        assert!((d.to_unit(32.0) - 0.5).abs() < 1e-9);
        assert!((d.from_unit(0.5) - 32.0).abs() < 1e-6);
    }

    #[test]
    fn int_from_unit_rounds() {
        let d = Domain::Int { lo: 0, hi: 10, log: false };
        assert_eq!(d.from_unit(0.449), 4.0);
        assert_eq!(d.from_unit(0.46), 5.0);
        assert_eq!(d.from_unit(1.0), 10.0);
    }

    #[test]
    fn cat_unit_mapping() {
        let d = Domain::Cat { choices: vec!["a", "b", "c"] };
        assert_eq!(d.to_unit(1.0), 0.5);
        assert_eq!(d.from_unit(0.4), 1.0);
        assert_eq!(d.from_unit(0.9), 2.0);
        assert_eq!(d.cardinality(), Some(3));
    }

    #[test]
    fn clamp_legalizes_values() {
        let d = Domain::Int { lo: 1, hi: 5, log: false };
        assert_eq!(d.clamp(0.2), 1.0);
        assert_eq!(d.clamp(3.6), 4.0);
        assert_eq!(d.clamp(99.0), 5.0);
        let c = Domain::Cat { choices: vec!["x", "y"] };
        assert_eq!(c.clamp(-1.0), 0.0);
        assert_eq!(c.clamp(1.4), 1.0);
    }

    #[test]
    fn spec_helpers_validate() {
        let k = KnobSpec::int("foo", 0, 100, false, 42);
        assert_eq!(k.default, 42.0);
        assert!(k.domain.is_integer());
        let c = KnobSpec::cat("bar", vec!["on", "off"], 1);
        assert!(c.domain.is_categorical());
    }

    #[test]
    #[should_panic(expected = "bad int spec")]
    fn spec_rejects_out_of_range_default() {
        let _ = KnobSpec::int("bad", 0, 10, false, 20);
    }
}
