//! RRAM device, peripheral circuit, and cost models for the STAR
//! reproduction.
//!
//! The paper evaluates STAR with NeuroSim (RRAM arrays) and Synopsys Design
//! Compiler (CMOS logic). This crate is the substitute for both: a
//! parameterized analytical model of every hardware primitive the
//! accelerators are assembled from, applied identically to STAR and to all
//! baselines so that comparative results exercise the same trade-offs.
//!
//! Layers:
//!
//! - [`TechnologyParams`] — the 32 nm process operating point,
//! - [`RramCell`] + [`NoiseModel`] — programmable crosspoint devices with
//!   injectable non-idealities,
//! - [`AdcSpec`] / [`DriverSpec`] — data-converter and wordline-driver
//!   costs,
//! - [`peripherals`] — CMOS digital blocks (sense amps, counters, dividers,
//!   FP units, SRAM) with per-op energy/latency and leakage,
//! - [`cost`] — unit newtypes (µm², pJ, ns, mW) and itemized
//!   [`cost::CostSheet`] budgets.
//!
//! # Examples
//!
//! ```
//! use star_device::{AdcSpec, RramCell, TechnologyParams};
//!
//! let tech = TechnologyParams::cmos32();
//! let mut cell = RramCell::new(&tech);
//! cell.program_ideal(1);
//! assert!(cell.stores_one());
//! assert!((cell.conductance() - tech.g_lrs()).abs() < 1e-12);
//! // The MatMul engine's 5-bit SAR ADC costs an eighth of the 8-bit anchor.
//! let adc = AdcSpec::sar(5);
//! assert_eq!(adc.area().value(), AdcSpec::sar(8).area().value() / 8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adc;
pub mod cost;
mod endurance;
mod interconnect;
mod noise;
pub mod peripherals;
mod rram;
mod tech;
mod temperature;

pub use adc::{AdcSpec, DriverSpec};
pub use cost::{Area, CostItem, CostSheet, Energy, Latency, Power};
pub use endurance::{EnduranceModel, RetentionModel};
pub use interconnect::{ChipInfrastructure, InterconnectModel};
pub use noise::{NoiseModel, StuckFault};
pub use peripherals::{BlockSpec, PeripheralLibrary};
pub use rram::{RramCell, RRAM_WRITES};
pub use tech::TechnologyParams;
pub use temperature::TemperatureModel;
