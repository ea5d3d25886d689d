//! Analog vector–matrix-multiply crossbar array.
//!
//! The workhorse of every RRAM accelerator: weights live as cell
//! conductances, an input vector drives the wordlines, and each bitline
//! sums currents — one full VMM per read cycle. The STAR softmax engine
//! uses a VMM array to compute `Σ_j exp(x_j − x_max)` in a single shot from
//! the match-counter histogram (Fig. 2); the MatMul engine uses banks of
//! 128×128 VMM arrays for `QK^T` and `·V`.
//!
//! Dataflow follows ISAAC/ReTransformer: **bit-serial inputs** (one input
//! bit per cycle through binary wordline drivers), **bit-sliced weights**
//! (one bit per cell column slice), per-column ADC conversion each cycle,
//! and digital shift-add recombination.

use crate::geometry::{Geometry, Ledger, OpCost};
use rand::Rng;
use serde::{Deserialize, Serialize};
use star_device::peripherals::PeripheralLibrary;
use star_device::{
    AdcSpec, CostSheet, DriverSpec, Latency, NoiseModel, RramCell, TechnologyParams,
};

/// How bitline currents are converted back to digits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Readout {
    /// Ideal digital readout (no conversion error) — the reference path.
    Ideal,
    /// Per-column ADC of the given spec; column sums are quantized to the
    /// ADC's code grid every cycle, exactly like the real periphery.
    Adc(AdcSpec),
}

/// First-order IR-drop model: current contributed by a cell is attenuated
/// by the wire resistance it traverses along its wordline and bitline.
///
/// The attenuation for the cell at `(row, col)` is
/// `1 / (1 + g_lrs · r_wire · (row_distance + col_distance))`, the standard
/// first-order approximation used by NeuroSim's fast mode: distant corners
/// of large arrays lose signal, which bounds practical array sizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrDropModel {
    /// Wire resistance between adjacent cells, in Ω (≈2.5 Ω per cell at
    /// 32 nm copper).
    pub wire_resistance_ohm: f64,
}

impl IrDropModel {
    /// The 32 nm default (2.5 Ω/cell).
    pub fn typical() -> Self {
        IrDropModel { wire_resistance_ohm: 2.5 }
    }

    /// Attenuation factor for a cell position inside an array.
    pub fn attenuation(&self, row: usize, col: usize, rows: usize, cols: usize, g_lrs: f64) -> f64 {
        // Current enters at the driver (row side 0) and exits at the sense
        // amp (col side `cols`): the path length is the distance along the
        // wordline plus the remaining distance down the bitline.
        let path = (col + (rows - row)) as f64;
        let _ = cols;
        1.0 / (1.0 + g_lrs * self.wire_resistance_ohm * path)
    }
}

/// An RRAM VMM crossbar storing an `rows × cols` matrix of unsigned weight
/// codes of `weight_bits` bits each (one bit per cell slice).
///
/// Weights and inputs are unsigned codes. The softmax-sum VMM needs
/// nothing else, because exponentials and counts are non-negative.
///
/// # Examples
///
/// ```
/// use star_crossbar::{Readout, VmmCrossbar};
/// use star_device::{NoiseModel, TechnologyParams};
/// use rand::SeedableRng;
///
/// let tech = TechnologyParams::cmos32();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let mut xbar = VmmCrossbar::new(4, 2, 4, Readout::Ideal, &tech, NoiseModel::ideal(), &mut rng);
/// // weights[row][col]
/// xbar.store_weights(&[vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]]);
/// let y = xbar.multiply(&[1, 0, 2, 1], 2);
/// assert_eq!(y, vec![18.0, 22.0]); // 1·1+2·5+1·7, 1·2+2·6+1·8
/// ```
#[derive(Debug, Clone)]
pub struct VmmCrossbar {
    rows: usize,
    cols: usize,
    weight_bits: u8,
    bits_per_cell: u8,
    slices: usize,
    readout: Readout,
    /// Physical cells: `cells[row][col * slices + slice]`, slice 0 = most
    /// significant digit.
    cells: Vec<Vec<RramCell>>,
    /// Each cell's level fraction `(g − g_hrs)/(g_lrs − g_hrs)` (faults
    /// included), bitline-major: `fractions[physical_col * rows + row]`.
    /// Refreshed by every cell write.
    fractions: Vec<f64>,
    noise: NoiseModel,
    tech: TechnologyParams,
    ir_drop: Option<IrDropModel>,
    /// Cost of one bit-serial input cycle.
    cycle_cost: OpCost,
    ledger: Ledger,
}

impl VmmCrossbar {
    /// Builds an erased array of `rows` inputs × `cols` outputs with
    /// `weight_bits`-bit weights (so `cols · weight_bits` physical
    /// bitlines). Cell faults are sampled from `noise`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `weight_bits > 32`.
    pub fn new<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        weight_bits: u8,
        readout: Readout,
        tech: &TechnologyParams,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Self {
        Self::with_mlc(rows, cols, weight_bits, 1, readout, tech, noise, rng)
    }

    /// Builds an array with **multi-level cells**: each cell stores
    /// `bits_per_cell` bits (2^bits_per_cell conductance levels), so a
    /// `weight_bits`-bit weight needs `ceil(weight_bits / bits_per_cell)`
    /// column slices — ISAAC's 2-bit-cell configuration halves the
    /// physical columns at the cost of tighter conductance margins.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `weight_bits` is outside `1..=32`,
    /// or `bits_per_cell` is outside `1..=4`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_mlc<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        weight_bits: u8,
        bits_per_cell: u8,
        readout: Readout,
        tech: &TechnologyParams,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "VMM dimensions must be positive");
        assert!((1..=32).contains(&weight_bits), "weight bits must be in 1..=32");
        assert!((1..=4).contains(&bits_per_cell), "bits per cell must be in 1..=4");
        let slices = (weight_bits as usize).div_ceil(bits_per_cell as usize);
        let levels = 1u16 << bits_per_cell;
        let physical_cols = cols * slices;
        let cells = (0..rows)
            .map(|_| {
                (0..physical_cols)
                    .map(|_| {
                        let mut c = RramCell::new(levels, tech);
                        c.set_fault(noise.sample_fault(rng));
                        c
                    })
                    .collect()
            })
            .collect();
        let drv = DriverSpec::wordline32();
        let cell = tech.cell_read_energy(tech.g_lrs()) * (rows * physical_cols) as f64 * 0.5;
        let convert = match readout {
            Readout::Ideal => star_device::Energy::ZERO,
            Readout::Adc(adc) => adc.conversion_energy() * physical_cols as f64,
        };
        let sa = PeripheralLibrary::shift_add(32);
        let cycle_energy = drv.energy_per_toggle() * rows as f64
            + cell
            + convert
            + sa.energy_per_op() * physical_cols as f64;
        let convert_latency = match readout {
            Readout::Adc(adc) => adc.conversion_latency().value(),
            Readout::Ideal => 0.0,
        };
        let cycle_latency = Latency::new(tech.crossbar_read_ns + convert_latency);
        let mut vmm = VmmCrossbar {
            rows,
            cols,
            weight_bits,
            bits_per_cell,
            slices,
            readout,
            cells,
            fractions: vec![0.0; rows * physical_cols],
            noise,
            tech: *tech,
            ir_drop: None,
            cycle_cost: OpCost::new(cycle_energy, cycle_latency),
            ledger: Ledger::new(),
        };
        vmm.refresh_fractions();
        vmm
    }

    /// Re-reads every cell's conductance into `fractions`.
    fn refresh_fractions(&mut self) {
        let (g_hrs, unit) = (self.tech.g_hrs(), self.tech.g_lrs() - self.tech.g_hrs());
        for (r, row) in self.cells.iter().enumerate() {
            for (pc, cell) in row.iter().enumerate() {
                self.fractions[pc * self.rows + r] = (cell.conductance() - g_hrs) / unit;
            }
        }
    }

    /// Bits stored per cell.
    pub fn bits_per_cell(&self) -> u8 {
        self.bits_per_cell
    }

    /// Column slices per logical output.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Enables the first-order IR-drop model for subsequent multiplies.
    pub fn set_ir_drop(&mut self, model: Option<IrDropModel>) {
        self.ir_drop = model;
    }

    /// The active IR-drop model, if any.
    pub fn ir_drop(&self) -> Option<IrDropModel> {
        self.ir_drop
    }

    /// Physical array shape (rows × physical bitlines).
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.rows, self.cols * self.slices)
    }

    /// Logical matrix shape (inputs × outputs).
    pub fn logical_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Weight resolution in bits.
    pub fn weight_bits(&self) -> u8 {
        self.weight_bits
    }

    /// Programs the full weight matrix (`weights[row][col]`, unsigned
    /// codes).
    ///
    /// # Panics
    ///
    /// Panics if the shape mismatches or any code overflows `weight_bits`.
    pub fn store_weights(&mut self, weights: &[Vec<u32>]) {
        assert_eq!(weights.len(), self.rows, "weight row count mismatch");
        let max_code =
            if self.weight_bits == 32 { u32::MAX } else { (1u32 << self.weight_bits) - 1 };
        for (r, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), self.cols, "weight column count mismatch at row {r}");
            for (c, &w) in row.iter().enumerate() {
                assert!(w <= max_code, "weight {w} overflows {} bits", self.weight_bits);
                let digit_mask = (1u32 << self.bits_per_cell) - 1;
                for s in 0..self.slices {
                    let shift = self.bits_per_cell as usize * (self.slices - 1 - s);
                    let digit = (w >> shift) & digit_mask;
                    self.cells[r][c * self.slices + s].program_ideal(digit as u16);
                }
            }
        }
        self.refresh_fractions();
    }

    /// The weight code a logical cell *effectively* stores (through
    /// faults).
    pub fn effective_weight(&self, row: usize, col: usize) -> u32 {
        assert!(row < self.rows && col < self.cols, "cell ({row}, {col}) out of range");
        let mut w = 0u32;
        for s in 0..self.slices {
            let digit = self.effective_level(row, col * self.slices + s);
            w = (w << self.bits_per_cell) | u32::from(digit);
        }
        w
    }

    /// The digit a cell effectively stores: its (possibly faulted)
    /// conductance mapped back onto the level grid.
    fn effective_level(&self, row: usize, physical_col: usize) -> u16 {
        let levels = (1u16 << self.bits_per_cell) as f64;
        let norm = self.fractions[physical_col * self.rows + row];
        (norm * (levels - 1.0)).round().clamp(0.0, levels - 1.0) as u16
    }

    /// Exact digital reference: `y_j = Σ_i x_i · w_ij` over the effective
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows`.
    pub fn multiply_exact(&self, inputs: &[u64]) -> Vec<u128> {
        assert_eq!(inputs.len(), self.rows, "input length mismatch");
        (0..self.cols)
            .map(|c| {
                inputs
                    .iter()
                    .enumerate()
                    .map(|(r, &x)| x as u128 * self.effective_weight(r, c) as u128)
                    .sum()
            })
            .collect()
    }

    /// Analog VMM: bit-serial inputs of `input_bits` bits, per-cycle
    /// per-slice column conversion via the configured [`Readout`],
    /// shift-add recombination. Records cost in the ledger.
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches, any input overflows
    /// `input_bits`, or the array was built with a nonzero read-noise model
    /// (use [`VmmCrossbar::multiply_with`] and supply an RNG instead).
    pub fn multiply(&mut self, inputs: &[u64], input_bits: u8) -> Vec<f64> {
        assert!(
            self.noise.read_sigma == 0.0,
            "array has read noise; call multiply_with and provide an RNG"
        );
        let mut rng = NoRng;
        self.multiply_with(inputs, input_bits, &mut rng)
    }

    /// Like [`VmmCrossbar::multiply`] but applying the array's read-noise
    /// model using the provided RNG.
    pub fn multiply_with<R: Rng + ?Sized>(
        &mut self,
        inputs: &[u64],
        input_bits: u8,
        rng: &mut R,
    ) -> Vec<f64> {
        assert_eq!(inputs.len(), self.rows, "input length mismatch");
        assert!((1..=32).contains(&input_bits), "input bits must be in 1..=32");
        let limit = if input_bits == 64 { u64::MAX } else { 1u64 << input_bits };
        for &x in inputs {
            assert!(x < limit, "input {x} overflows {input_bits} bits");
        }
        let mut outputs = vec![0.0f64; self.cols];
        let unit = self.tech.g_lrs() - self.tech.g_hrs();
        let level_span = ((1u16 << self.bits_per_cell) - 1) as f64;
        // The rows each bit cycle drives, ascending: only their cells add
        // current, in the bitline's summation order.
        let driven: Vec<Vec<usize>> = (0..input_bits)
            .map(|b| (0..self.rows).filter(|&r| (inputs[r] >> b) & 1 == 1).collect())
            .collect();
        // One cycle per input bit, MSB first.
        #[allow(clippy::needless_range_loop)] // c indexes both cells and outputs
        for b in (0..input_bits as usize).rev() {
            for c in 0..self.cols {
                for s in 0..self.slices {
                    // Normalized bitline current: each driven cell adds its
                    // level fraction level/(levels−1) ∈ [0, 1].
                    let physical_col = c * self.slices + s;
                    let column = &self.fractions[physical_col * self.rows..][..self.rows];
                    let current = match self.ir_drop {
                        None => driven[b].iter().fold(0.0f64, |sum, &r| sum + column[r]),
                        Some(m) => driven[b].iter().fold(0.0f64, |sum, &r| {
                            let atten = m.attenuation(
                                r,
                                physical_col,
                                self.rows,
                                self.cols * self.slices,
                                self.tech.g_lrs(),
                            );
                            let g = self.cells[r][physical_col].conductance();
                            sum + atten * (g - self.tech.g_hrs()) / unit
                        }),
                    };
                    let current = if self.noise.read_sigma > 0.0 {
                        self.noise.read(current, rng).max(0.0)
                    } else {
                        current
                    };
                    // Convert normalized current to a digit sum: the digit
                    // grid has `levels−1` steps per row.
                    let digit_sum = match self.readout {
                        Readout::Ideal => (current * level_span).round(),
                        Readout::Adc(adc) => {
                            if current <= 0.0 {
                                0.0
                            } else {
                                let fs = self.rows as f64;
                                (adc.dequantize(adc.quantize(current, fs), fs) * level_span).round()
                            }
                        }
                    };
                    let digit_shift = self.bits_per_cell as usize * (self.slices - 1 - s);
                    outputs[c] += digit_sum * 2f64.powi(b as i32) * 2f64.powi(digit_shift as i32);
                }
            }
        }
        let cost = self.vmm_cost(input_bits);
        self.ledger.record(cost);
        star_telemetry::count("crossbar.vmm.activations", 1);
        star_telemetry::count("crossbar.vmm.bit_cycles", input_bits as u64);
        star_telemetry::add("crossbar.vmm.energy_pj", cost.energy.value());
        outputs
    }

    /// Cost of one full VMM (all input bits): per cycle, wordline drives +
    /// cell reads + one conversion per physical column, then shift-add.
    pub fn vmm_cost(&self, input_bits: u8) -> OpCost {
        self.cycle_cost.repeat(input_bits as u64)
    }

    /// Itemized area/power budget (cells + drivers + ADCs + shift-add).
    pub fn cost_sheet(&self, name: &str, activity: f64) -> CostSheet {
        let physical_cols = self.cols * self.slices;
        let mut sheet = CostSheet::new(name);
        let read_power = (self
            .tech
            .cell_read_energy(self.tech.g_lrs())
            .scale(self.geometry().cells() as f64 * 0.5)
            / Latency::new(self.tech.crossbar_read_ns))
            * activity;
        sheet.add("cell array", self.geometry().cell_array_area(&self.tech), read_power);
        let drv = DriverSpec::wordline32();
        sheet.add("wordline drivers", drv.area() * self.rows as f64, star_device::Power::ZERO);
        if let Readout::Adc(adc) = self.readout {
            // ADCs are shared across column slices in real designs; one ADC
            // per 8 physical columns time-multiplexed, as in ISAAC.
            let shared = (physical_cols as f64 / 8.0).ceil();
            sheet.add(
                "column adcs",
                adc.area() * shared,
                (adc.conversion_energy() / adc.conversion_latency()) * activity * shared,
            );
        }
        let sa = PeripheralLibrary::shift_add(32);
        sheet.add(
            "shift-add units",
            sa.area() * self.cols as f64,
            sa.average_power(activity) * self.cols as f64,
        );
        sheet
    }

    /// Reprograms the full weight matrix *with cost accounting* — what
    /// PipeLayer does to dynamic K/V/score matrices every inference.
    /// Functionally identical to [`VmmCrossbar::store_weights`]; the
    /// returned cost (row-serial multi-pulse programming) is also recorded
    /// in the ledger.
    ///
    /// # Panics
    ///
    /// Same conditions as [`VmmCrossbar::store_weights`].
    pub fn reprogram_weights(&mut self, weights: &[Vec<u32>]) -> OpCost {
        self.store_weights(weights);
        let cells = (self.rows * self.cols * self.slices) as f64;
        let cost = OpCost::new(
            star_device::Energy::new(self.tech.write_cell_pj * cells),
            Latency::new(self.tech.write_row_ns * self.rows as f64),
        );
        self.ledger.record(cost);
        star_telemetry::count("crossbar.vmm.reprograms", 1);
        star_telemetry::add("crossbar.vmm.write_energy_pj", cost.energy.value());
        cost
    }

    /// Running operation totals.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// Resets the operation totals.
    pub fn reset_ledger(&mut self) {
        self.ledger.reset();
    }
}

/// Stub RNG for the noiseless path (never actually sampled).
struct NoRng;

impl rand::RngCore for NoRng {
    fn next_u32(&mut self) -> u32 {
        unreachable!("noiseless multiply must not sample randomness")
    }
    fn next_u64(&mut self) -> u64 {
        unreachable!("noiseless multiply must not sample randomness")
    }
    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("noiseless multiply must not sample randomness")
    }
    fn try_fill_bytes(&mut self, _dest: &mut [u8]) -> Result<(), rand::Error> {
        unreachable!("noiseless multiply must not sample randomness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn vmm(rows: usize, cols: usize, wbits: u8, readout: Readout) -> VmmCrossbar {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        VmmCrossbar::new(rows, cols, wbits, readout, &tech, NoiseModel::ideal(), &mut rng)
    }

    #[test]
    fn ideal_multiply_matches_exact() {
        let mut x = vmm(8, 3, 6, Readout::Ideal);
        let w: Vec<Vec<u32>> =
            (0..8).map(|r| (0..3).map(|c| ((r * 7 + c * 13) % 64) as u32).collect()).collect();
        x.store_weights(&w);
        let inputs: Vec<u64> = (0..8).map(|i| (i * 3 % 16) as u64).collect();
        let exact = x.multiply_exact(&inputs);
        let analog = x.multiply(&inputs, 4);
        for (a, e) in analog.iter().zip(&exact) {
            assert!((a - *e as f64).abs() < 1e-9, "analog {a} vs exact {e}");
        }
    }

    #[test]
    fn doc_example_values() {
        let mut x = vmm(4, 2, 4, Readout::Ideal);
        x.store_weights(&[vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]]);
        assert_eq!(x.multiply(&[1, 0, 2, 1], 2), vec![18.0, 22.0]);
        assert_eq!(x.multiply_exact(&[1, 0, 2, 1]), vec![18, 22]);
    }

    #[test]
    fn adc_readout_close_for_sparse_inputs() {
        // With few active rows, even a 5-bit ADC resolves exact counts for
        // small arrays.
        let mut x = vmm(16, 2, 4, Readout::Adc(AdcSpec::sar(5)));
        let w: Vec<Vec<u32>> = (0..16).map(|r| vec![(r % 16) as u32, 1]).collect();
        x.store_weights(&w);
        let mut inputs = vec![0u64; 16];
        inputs[3] = 1;
        inputs[7] = 1;
        let exact = x.multiply_exact(&inputs);
        let analog = x.multiply(&inputs, 1);
        for (a, e) in analog.iter().zip(&exact) {
            let err = (a - *e as f64).abs();
            assert!(err <= 2.0, "analog {a} vs exact {e}");
        }
    }

    #[test]
    fn stuck_fault_corrupts_weight() {
        let mut x = vmm(2, 1, 4, Readout::Ideal);
        x.store_weights(&[vec![0b1010], vec![0b0101]]);
        assert_eq!(x.effective_weight(0, 0), 0b1010);
        // MSB slice of weight (0,0) stuck off: 0b1010 -> 0b0010.
        x.cells[0][0].set_fault(star_device::StuckFault::StuckOff);
        x.refresh_fractions();
        assert_eq!(x.effective_weight(0, 0), 0b0010);
        let y = x.multiply_exact(&[1, 1]);
        assert_eq!(y[0], 0b0010 + 0b0101);
    }

    #[test]
    fn multiply_rejects_overflowing_inputs() {
        let mut x = vmm(2, 1, 2, Readout::Ideal);
        x.store_weights(&[vec![1], vec![1]]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            x.multiply(&[4, 0], 2);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn cost_scales_with_input_bits() {
        let x = vmm(128, 128, 2, Readout::Adc(AdcSpec::sar(5)));
        let c1 = x.vmm_cost(1);
        let c8 = x.vmm_cost(8);
        assert!((c8.energy.value() / c1.energy.value() - 8.0).abs() < 1e-9);
        assert!((c8.latency.value() / c1.latency.value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cost_sheet_includes_adcs_only_with_adc_readout() {
        let with = vmm(128, 128, 2, Readout::Adc(AdcSpec::sar(5))).cost_sheet("m", 1.0);
        let without = vmm(128, 128, 2, Readout::Ideal).cost_sheet("m", 1.0);
        assert!(with.items().iter().any(|i| i.name == "column adcs"));
        assert!(!without.items().iter().any(|i| i.name == "column adcs"));
        assert!(with.total_area().value() > without.total_area().value());
    }

    #[test]
    fn ir_drop_attenuates_and_hurts_far_corner() {
        let m = IrDropModel::typical();
        let g = 4e-5;
        // Near corner (last row, first column) vs far corner.
        let near = m.attenuation(127, 0, 128, 128, g);
        let far = m.attenuation(0, 127, 128, 128, g);
        assert!(near > far, "near {near} far {far}");
        assert!(near <= 1.0 && far > 0.9, "32 nm wires keep >90 % at 128 cells");
    }

    #[test]
    fn ir_drop_reduces_outputs() {
        let mut x = vmm(128, 1, 4, Readout::Ideal);
        let w: Vec<Vec<u32>> = (0..128).map(|_| vec![15]).collect();
        x.store_weights(&w);
        let inputs = vec![1u64; 128];
        let clean = x.multiply(&inputs, 1)[0];
        x.set_ir_drop(Some(IrDropModel::typical()));
        assert!(x.ir_drop().is_some());
        let dropped = x.multiply(&inputs, 1)[0];
        assert!(dropped <= clean, "IR drop must not amplify: {dropped} vs {clean}");
        // With rounding per slice the effect is small but present at 128 rows.
        let harsh = IrDropModel { wire_resistance_ohm: 250.0 };
        x.set_ir_drop(Some(harsh));
        let crushed = x.multiply(&inputs, 1)[0];
        assert!(crushed < clean * 0.9, "harsh wires must visibly attenuate: {crushed}");
    }

    #[test]
    fn mlc_multiply_matches_exact() {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        // 8-bit weights on 2-bit cells: 4 slices instead of 8.
        let mut x =
            VmmCrossbar::with_mlc(8, 2, 8, 2, Readout::Ideal, &tech, NoiseModel::ideal(), &mut rng);
        assert_eq!(x.slices(), 4);
        assert_eq!(x.bits_per_cell(), 2);
        assert_eq!(x.geometry().cols(), 8); // 2 logical × 4 slices
        let w: Vec<Vec<u32>> =
            (0..8).map(|r| vec![(r * 37 % 256) as u32, (r * 91 % 256) as u32]).collect();
        x.store_weights(&w);
        let inputs: Vec<u64> = (0..8).map(|i| (i % 8) as u64).collect();
        let exact = x.multiply_exact(&inputs);
        let analog = x.multiply(&inputs, 3);
        for (a, e) in analog.iter().zip(&exact) {
            assert!((a - *e as f64).abs() < 1e-9, "analog {a} vs exact {e}");
        }
        // Effective weights reconstruct the programmed codes.
        for (r, row) in w.iter().enumerate() {
            assert_eq!(x.effective_weight(r, 0), row[0]);
        }
    }

    #[test]
    fn mlc_halves_physical_columns_and_cost() {
        let slc = vmm(128, 16, 8, Readout::Adc(AdcSpec::sar(5)));
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let mlc = VmmCrossbar::with_mlc(
            128,
            16,
            8,
            2,
            Readout::Adc(AdcSpec::sar(5)),
            &tech,
            NoiseModel::ideal(),
            &mut rng,
        );
        assert_eq!(mlc.geometry().cols() * 2, slc.geometry().cols());
        // Fewer bitlines ⇒ fewer ADC conversions ⇒ cheaper VMM.
        assert!(mlc.vmm_cost(8).energy.value() < slc.vmm_cost(8).energy.value());
        assert!(
            mlc.cost_sheet("m", 1.0).total_area().value()
                < slc.cost_sheet("m", 1.0).total_area().value()
        );
    }

    #[test]
    fn mlc_odd_width_pads_top_slice() {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        // 5-bit weights on 2-bit cells: 3 slices (top slice holds 1 bit).
        let mut x =
            VmmCrossbar::with_mlc(4, 1, 5, 2, Readout::Ideal, &tech, NoiseModel::ideal(), &mut rng);
        assert_eq!(x.slices(), 3);
        x.store_weights(&[vec![31], vec![0], vec![17], vec![9]]);
        assert_eq!(x.effective_weight(0, 0), 31);
        assert_eq!(x.effective_weight(2, 0), 17);
        let y = x.multiply(&[1, 1, 1, 1], 1);
        assert_eq!(y[0], 57.0);
    }

    #[test]
    fn reprogram_costs_scale_with_array() {
        let mut small = vmm(16, 2, 4, Readout::Ideal);
        let mut large = vmm(64, 2, 4, Readout::Ideal);
        let ws: Vec<Vec<u32>> = (0..16).map(|_| vec![3, 5]).collect();
        let wl: Vec<Vec<u32>> = (0..64).map(|_| vec![3, 5]).collect();
        let cs = small.reprogram_weights(&ws);
        let cl = large.reprogram_weights(&wl);
        assert!((cl.latency.value() / cs.latency.value() - 4.0).abs() < 1e-9);
        assert!((cl.energy.value() / cs.energy.value() - 4.0).abs() < 1e-9);
        // Programming dominates reads by orders of magnitude.
        assert!(cs.energy.value() > small.vmm_cost(4).energy.value() * 10.0);
        assert_eq!(small.ledger().ops, 1);
        // Functional equivalence with store_weights.
        assert_eq!(small.effective_weight(3, 1), 5);
    }

    #[test]
    fn noisy_multiply_is_unbiased() {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let noise = NoiseModel::new(0.0, 0.02, 0.0, 0.0);
        let mut x = VmmCrossbar::new(32, 1, 4, Readout::Ideal, &tech, noise, &mut rng);
        let w: Vec<Vec<u32>> = (0..32).map(|r| vec![(r % 16) as u32]).collect();
        x.store_weights(&w);
        let inputs = vec![1u64; 32];
        let exact = x.multiply_exact(&inputs)[0] as f64;
        let mut sum = 0.0;
        let n = 200;
        for _ in 0..n {
            sum += x.multiply_with(&inputs, 1, &mut rng)[0];
        }
        let mean = sum / n as f64;
        assert!((mean / exact - 1.0).abs() < 0.02, "mean {mean} vs exact {exact}");
    }
}
