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
//! Every array prices each op kind once, when it is built ([`OpCost`]),
//! counts its ops per kind in a [`Ledger`] that derives energy and busy
//! time as count × cost when read, and produces an itemized area/power
//! budget ([`star_device::CostSheet`]) so the experiment harnesses can
//! assemble Table I and Fig. 3 from first principles. Each array answers
//! without recording (`peek_*`) and charges `n` ops in O(1) to its
//! ledger and to a caller's [`star_telemetry::Batch`] (`charge_*`); a
//! recording method (`search`, `find_max`, `subtract`, `read_row`,
//! `multiply`, …) is its peek plus one charge, published at once. A
//! caller that tabulates the answers, like the STAR engine, charges a
//! whole row's ops to one batch.
//!
//! # Examples
//!
//! ```
//! use star_crossbar::CamSubCrossbar;
//! use star_device::{NoiseModel, TechnologyParams};
//! use star_fixed::{Fixed, QFormat};
//! use rand::SeedableRng;
//!
//! let fmt = QFormat::new(6, 3)?;
//! let tech = TechnologyParams::cmos32();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut xbar = CamSubCrossbar::new(fmt, &tech, NoiseModel::ideal(), &mut rng);
//! let xs: Vec<Fixed> =
//!     [0.5, -2.0, 3.125].iter().map(|&v| Fixed::from_f64(v, fmt)).collect();
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
