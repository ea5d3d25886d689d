//! Physical unit newtypes and hierarchical cost accounting.
//!
//! Every hardware block in the simulator reports its cost in these units;
//! the experiment harnesses aggregate them into the paper's metrics
//! (area ratios for Table I, GOPs/s/W for Fig. 3).
//!
//! Unit conventions (chosen so that `Energy / Latency = Power` works out
//! without conversion factors):
//!
//! | Quantity | Unit |
//! |---|---|
//! | [`Area`] | µm² |
//! | [`Energy`] | pJ |
//! | [`Latency`] | ns |
//! | [`Power`] | mW (= pJ/ns) |

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit_newtype {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a quantity from a raw value in the canonical unit.
            ///
            /// # Panics
            ///
            /// Panics if `value` is negative or non-finite — hardware costs
            /// are non-negative by construction.
            pub fn new(value: f64) -> Self {
                assert!(
                    value.is_finite() && value >= 0.0,
                    concat!(stringify!($name), " must be finite and non-negative")
                );
                $name(value)
            }

            /// The raw value in the canonical unit.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Scales by a non-negative count/factor.
            pub fn scale(self, factor: f64) -> Self {
                Self::new(self.0 * factor)
            }

            /// Ratio of `self` to `other` (dimensionless).
            ///
            /// # Panics
            ///
            /// Panics if `other` is zero.
            pub fn ratio_to(self, other: Self) -> f64 {
                assert!(other.0 > 0.0, "cannot take ratio to a zero quantity");
                self.0 / other.0
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            /// Saturating at zero: costs never go negative.
            fn sub(self, rhs: $name) -> $name {
                $name((self.0 - rhs.0).max(0.0))
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                self.scale(rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, Add::add)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4} {}", self.0, $unit)
            }
        }
    };
}

unit_newtype!(
    /// Silicon area in µm².
    Area,
    "um^2"
);
unit_newtype!(
    /// Energy in pJ.
    Energy,
    "pJ"
);
unit_newtype!(
    /// Time in ns.
    Latency,
    "ns"
);
unit_newtype!(
    /// Power in mW (equivalently pJ/ns).
    Power,
    "mW"
);

impl Area {
    /// Converts to mm² for reporting.
    pub fn as_mm2(self) -> f64 {
        self.0 * 1e-6
    }
}

impl Energy {
    /// Creates an energy from fJ.
    pub fn from_fj(fj: f64) -> Self {
        Energy::new(fj * 1e-3)
    }
}

impl Latency {
    /// Converts to µs for reporting.
    pub fn as_us(self) -> f64 {
        self.0 * 1e-3
    }

    /// Converts to seconds for reporting.
    pub fn as_seconds(self) -> f64 {
        self.0 * 1e-9
    }

    /// Creates a latency from seconds.
    pub fn from_seconds(s: f64) -> Self {
        Latency::new(s * 1e9)
    }
}

impl Power {
    /// Converts to W for reporting.
    pub fn as_watts(self) -> f64 {
        self.0 * 1e-3
    }

    /// Creates a power from W.
    pub fn from_watts(w: f64) -> Self {
        Power::new(w * 1e3)
    }
}

impl Div<Latency> for Energy {
    type Output = Power;

    /// Average power of spending this energy over a duration (pJ/ns = mW).
    ///
    /// # Panics
    ///
    /// Panics if the duration is zero.
    fn div(self, rhs: Latency) -> Power {
        assert!(rhs.0 > 0.0, "cannot divide energy by zero duration");
        Power::new(self.0 / rhs.0)
    }
}

impl Mul<Latency> for Power {
    type Output = Energy;

    /// Energy consumed at this power over a duration (mW·ns = pJ).
    fn mul(self, rhs: Latency) -> Energy {
        Energy::new(self.0 * rhs.0)
    }
}

/// A named cost line item: one hardware block's contribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostItem {
    /// Component name (e.g. `"cam/sub crossbar"`).
    pub name: String,
    /// Silicon area of the block.
    pub area: Area,
    /// Static + amortized dynamic power of the block while active.
    pub power: Power,
}

/// An itemized area/power budget for a hardware design.
///
/// Aggregates [`CostItem`]s and answers the Table-I style questions
/// (totals, ratios between designs, dominant component).
///
/// # Examples
///
/// ```
/// use star_device::cost::{Area, CostSheet, Power};
///
/// let mut sheet = CostSheet::new("softmax engine");
/// sheet.add("cam/sub crossbar", Area::new(40.0), Power::new(0.8));
/// sheet.add("divider", Area::new(600.0), Power::new(1.5));
/// assert_eq!(sheet.total_area().value(), 640.0);
/// assert_eq!(sheet.dominant_by_area().unwrap().name, "divider");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostSheet {
    name: String,
    items: Vec<CostItem>,
}

impl CostSheet {
    /// Creates an empty sheet for a named design.
    pub fn new(name: impl Into<String>) -> Self {
        CostSheet { name: name.into(), items: Vec::new() }
    }

    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a line item.
    pub fn add(&mut self, name: impl Into<String>, area: Area, power: Power) {
        self.items.push(CostItem { name: name.into(), area, power });
    }

    /// Adds every item of another sheet, prefixed with its design name.
    pub fn absorb(&mut self, other: &CostSheet) {
        for item in &other.items {
            self.items.push(CostItem {
                name: format!("{}/{}", other.name, item.name),
                area: item.area,
                power: item.power,
            });
        }
    }

    /// The line items, in insertion order.
    pub fn items(&self) -> &[CostItem] {
        &self.items
    }

    /// Sum of all item areas.
    pub fn total_area(&self) -> Area {
        self.items.iter().map(|i| i.area).sum()
    }

    /// Sum of all item powers.
    pub fn total_power(&self) -> Power {
        self.items.iter().map(|i| i.power).sum()
    }

    /// The item with the largest area, if any.
    pub fn dominant_by_area(&self) -> Option<&CostItem> {
        self.items.iter().max_by(|a, b| a.area.partial_cmp(&b.area).expect("finite"))
    }

    /// Area ratio `self / baseline` (the Table-I normalization).
    ///
    /// # Panics
    ///
    /// Panics if the baseline's total area is zero.
    pub fn area_ratio_to(&self, baseline: &CostSheet) -> f64 {
        self.total_area().ratio_to(baseline.total_area())
    }

    /// Power ratio `self / baseline` (the Table-I normalization).
    ///
    /// # Panics
    ///
    /// Panics if the baseline's total power is zero.
    pub fn power_ratio_to(&self, baseline: &CostSheet) -> f64 {
        self.total_power().ratio_to(baseline.total_power())
    }

    /// Renders a fixed-width text table of the budget (for the harness
    /// binaries' console output).
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<32} {:>14} {:>12}", self.name, "area [um^2]", "power [mW]");
        for item in &self.items {
            let _ = writeln!(
                out,
                "  {:<30} {:>14.2} {:>12.4}",
                item.name,
                item.area.value(),
                item.power.value()
            );
        }
        let _ = writeln!(
            out,
            "  {:<30} {:>14.2} {:>12.4}",
            "TOTAL",
            self.total_area().value(),
            self.total_power().value()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_arithmetic() {
        let a = Area::new(2.0) + Area::new(3.0);
        assert_eq!(a.value(), 5.0);
        assert_eq!((a * 2.0).value(), 10.0);
        assert_eq!((Area::new(2.0) - Area::new(5.0)).value(), 0.0); // saturates
        assert_eq!(a.ratio_to(Area::new(2.5)), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = Energy::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "zero quantity")]
    fn ratio_to_zero_panics() {
        let _ = Area::new(1.0).ratio_to(Area::ZERO);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::new(100.0) / Latency::new(50.0);
        assert_eq!(p.value(), 2.0); // 100 pJ over 50 ns = 2 mW
        let e = p * Latency::new(10.0);
        assert_eq!(e.value(), 20.0);
    }

    #[test]
    fn conversions() {
        assert!((Area::new(2e6).as_mm2() - 2.0).abs() < 1e-12);
        assert_eq!(Energy::from_fj(1000.0).value(), 1.0);
        assert_eq!(Latency::from_seconds(1e-6).value(), 1000.0);
        assert!((Latency::new(1000.0).as_seconds() - 1e-6).abs() < 1e-18);
        assert_eq!(Power::from_watts(0.28).value(), 280.0);
        assert!((Power::new(280e3).as_watts() - 280.0).abs() < 1e-9);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Energy = (1..=4).map(|i| Energy::new(i as f64)).sum();
        assert_eq!(total.value(), 10.0);
    }

    #[test]
    fn cost_sheet_totals_and_ratios() {
        let mut base = CostSheet::new("baseline");
        base.add("exp unit", Area::new(1000.0), Power::new(10.0));
        base.add("divider", Area::new(500.0), Power::new(5.0));
        let mut ours = CostSheet::new("star");
        ours.add("crossbars", Area::new(90.0), Power::new(0.75));
        assert_eq!(ours.area_ratio_to(&base), 0.06);
        assert_eq!(ours.power_ratio_to(&base), 0.05);
        assert_eq!(base.dominant_by_area().unwrap().name, "exp unit");
    }

    #[test]
    fn absorb_prefixes_names() {
        let mut inner = CostSheet::new("engine");
        inner.add("cam", Area::new(1.0), Power::new(0.1));
        let mut outer = CostSheet::new("chip");
        outer.absorb(&inner);
        assert_eq!(outer.items()[0].name, "engine/cam");
    }

    #[test]
    fn table_renders() {
        let mut s = CostSheet::new("x");
        s.add("a", Area::new(1.0), Power::new(0.5));
        let t = s.to_table();
        assert!(t.contains("TOTAL"));
        assert!(t.contains("a"));
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(Area::new(1.0).to_string(), "1.0000 um^2");
        assert_eq!(Power::new(2.5).to_string(), "2.5000 mW");
    }
}
