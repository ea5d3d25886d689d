//! RRAM crossbar array simulators for the STAR reproduction.
//!
//! Four array types cover everything the paper's engines need:
//!
//! - [`VmmCrossbar`] — analog vector–matrix multiply with bit-serial
//!   inputs, bit-sliced weights and an ideal column readout (the softmax
//!   summation array),
//! - [`CamCrossbar`] — TCAM search with complementary cell pairs and a
//!   matchline discharge model,
//! - [`LutCrossbar`] — one-hot-driven row lookup (the exponential table),
//! - [`CamSubCrossbar`] — the paper's time-multiplexed CAM/SUB array
//!   (Fig. 1): descending-order max find plus analog subtraction.
//!
//! Every array accounts its own energy/latency per operation ([`OpCost`],
//! [`Ledger`]) and produces an itemized area/power budget
//! ([`star_device::CostSheet`]) so the experiment harnesses can assemble
//! Table I and Fig. 3 from first principles. The per-op methods record
//! through the `star_telemetry` facade. Each array also answers without
//! recording (`peek_*`); a caller that tabulates its answers reads them
//! that way and charges the ops it stands for in bulk to its own
//! [`star_telemetry::Tally`] (`charge_*`), leaving ledgers and metrics
//! as the per-op calls would.
//!
//! # Examples
//!
//! ```
//! use star_crossbar::CamSubCrossbar;
//! use star_device::{NoiseModel, TechnologyParams};
//! use star_fixed::{Fixed, QFormat, Rounding};
//! use rand::SeedableRng;
//!
//! let fmt = QFormat::new(6, 3)?;
//! let tech = TechnologyParams::cmos32();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut xbar = CamSubCrossbar::new(fmt, &tech, NoiseModel::ideal(), &mut rng);
//! let xs: Vec<Fixed> =
//!     [0.5, -2.0, 3.125].iter().map(|&v| Fixed::from_f64(v, fmt, Rounding::Nearest)).collect();
//! let max = xbar.find_max(&xs)?.max;
//! assert_eq!(max.to_f64(), 3.125);
//! assert!(xs.iter().all(|&x| xbar.subtract(x, max).to_f64() <= 0.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cam;
mod cam_sub;
mod geometry;
mod lut;
mod vmm;

pub use cam::CamCrossbar;
pub use cam_sub::{CamSubCrossbar, MaxSearchResult, SearchError};
pub use geometry::{Geometry, Ledger, OpCost};
pub use lut::LutCrossbar;
pub use vmm::{Readout, VmmCrossbar};
