//! Analog vector–matrix-multiply crossbar array.
//!
//! Weights live as cell conductances, an input vector drives the
//! wordlines, and each bitline sums currents — one full VMM per read
//! cycle. The STAR softmax engine uses a VMM array to compute
//! `Σ_j exp(x_j − x_max)` in a single shot from the match-counter
//! histogram (Fig. 2).
//!
//! Dataflow follows ISAAC/ReTransformer: **bit-serial inputs** (one input
//! bit per cycle through binary wordline drivers), **bit-sliced weights**
//! (one bit per cell column), an ideal readout of each column sum every
//! cycle, and digital shift-add recombination. The MatMul engine's ADCs
//! are costed analytically in `star-arch`.

use crate::geometry::{record, Geometry, Ledger, OpCost};
use rand::Rng;
use star_device::peripherals::PeripheralLibrary;
use star_device::{
    CostSheet, DriverSpec, Latency, NoiseModel, RramCell, TechnologyParams, RRAM_WRITES,
};
use star_telemetry::Batch;

/// Counter of full VMM operations.
const ACTIVATIONS: &str = "crossbar.vmm.activations";
/// Counter of bit-serial input cycles.
const BIT_CYCLES: &str = "crossbar.vmm.bit_cycles";
/// Gauge of VMM read energy.
const ENERGY: &str = "crossbar.vmm.energy_pj";

/// How bitline currents are converted back to digits. The array reads
/// every column sum exactly, so `Ideal` is the only readout; the type
/// stays because the benchmark package (`benchmark/`) passes it to
/// [`VmmCrossbar::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Readout {
    /// Ideal digital readout (no conversion error).
    Ideal,
}

/// An RRAM VMM crossbar storing an `rows × cols` matrix of unsigned weight
/// codes of `weight_bits` bits each (one bit per cell).
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
    /// Physical cells: `cells[row][col * weight_bits + bit]`, bit 0 = most
    /// significant.
    cells: Vec<Vec<RramCell>>,
    /// Each cell's level fraction `(g − g_hrs)/(g_lrs − g_hrs)` (faults
    /// included), bitline-major: `fractions[physical_col * rows + row]`.
    /// Refreshed by every cell write.
    fractions: Vec<f64>,
    /// Each logical cell's effective weight, its bits read from
    /// `fractions`, column-major: `weights[col * rows + row]`. Refreshed
    /// with `fractions`.
    weights: Vec<u64>,
    noise: NoiseModel,
    tech: TechnologyParams,
    /// Its one op kind: a bit-serial input cycle, so a VMM of `b`-bit
    /// inputs is `b` ops.
    ledger: Ledger<1>,
}

impl VmmCrossbar {
    /// Builds an erased array of `rows` inputs × `cols` outputs with
    /// `weight_bits`-bit weights (so `cols · weight_bits` physical
    /// bitlines). Cell faults are sampled from `noise`. `_readout` is
    /// ignored: [`Readout::Ideal`] is the only readout, and the argument
    /// stays because the benchmark package (`benchmark/`) passes it.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `weight_bits` is outside
    /// `1..=32`.
    pub fn new<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        weight_bits: u8,
        _readout: Readout,
        tech: &TechnologyParams,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "VMM dimensions must be positive");
        assert!((1..=32).contains(&weight_bits), "weight bits must be in 1..=32");
        let physical_cols = cols * weight_bits as usize;
        let cells = (0..rows)
            .map(|_| {
                (0..physical_cols)
                    .map(|_| {
                        let mut c = RramCell::new(tech);
                        c.set_fault(noise.sample_fault(rng));
                        c
                    })
                    .collect()
            })
            .collect();
        noise.count_fault_draws(rows * physical_cols);
        let drv = DriverSpec::wordline32();
        let cell = tech.cell_read_energy(tech.g_lrs()) * (rows * physical_cols) as f64 * 0.5;
        let sa = PeripheralLibrary::shift_add(32);
        let cycle_energy = drv.energy_per_toggle() * rows as f64
            + cell
            + sa.energy_per_op() * physical_cols as f64;
        let cycle_latency = Latency::new(tech.crossbar_read_ns);
        let mut vmm = VmmCrossbar {
            rows,
            cols,
            weight_bits,
            cells,
            fractions: vec![0.0; rows * physical_cols],
            weights: vec![0; rows * cols],
            noise,
            tech: *tech,
            ledger: Ledger::new([OpCost::new(cycle_energy, cycle_latency)]),
        };
        vmm.refresh_fractions();
        vmm
    }

    /// Re-reads every cell's conductance into `fractions`, and the
    /// effective weights from them.
    fn refresh_fractions(&mut self) {
        let (g_hrs, unit) = (self.tech.g_hrs(), self.tech.g_lrs() - self.tech.g_hrs());
        for (r, row) in self.cells.iter().enumerate() {
            for (pc, cell) in row.iter().enumerate() {
                self.fractions[pc * self.rows + r] = (cell.conductance() - g_hrs) / unit;
            }
        }
        let bits = self.weight_bits as usize;
        for c in 0..self.cols {
            for r in 0..self.rows {
                self.weights[c * self.rows + r] =
                    (0..bits).fold(0, |w, b| w << 1 | self.effective_bit(r, c * bits + b));
            }
        }
    }

    /// Physical array shape (rows × physical bitlines).
    pub fn geometry(&self) -> Geometry {
        Geometry::new(self.rows, self.cols * self.weight_bits as usize)
    }

    /// Programs the full weight matrix (`weights[row][col]`, unsigned
    /// codes), counting its `rows · cols · weight_bits` cell writes.
    ///
    /// # Panics
    ///
    /// Panics if the shape mismatches or any code overflows `weight_bits`.
    pub fn store_weights(&mut self, weights: &[Vec<u32>]) {
        assert_eq!(weights.len(), self.rows, "weight row count mismatch");
        let bits = self.weight_bits as usize;
        let max_code = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        for (r, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), self.cols, "weight column count mismatch at row {r}");
            for (c, &w) in row.iter().enumerate() {
                assert!(w <= max_code, "weight {w} overflows {bits} bits");
                for b in 0..bits {
                    let bit = (w >> (bits - 1 - b)) & 1;
                    self.cells[r][c * bits + b].program_ideal(bit as u16);
                }
            }
        }
        star_telemetry::count(RRAM_WRITES, (self.rows * self.cols * bits) as u64);
        self.refresh_fractions();
    }

    /// The weight code a logical cell *effectively* stores (through
    /// faults), truncated to 32 bits.
    pub fn effective_weight(&self, row: usize, col: usize) -> u32 {
        assert!(row < self.rows && col < self.cols, "cell ({row}, {col}) out of range");
        self.weights[col * self.rows + row] as u32
    }

    /// The bit a cell effectively stores: its (possibly faulted)
    /// conductance rounded to the nearer end of the window.
    fn effective_bit(&self, row: usize, physical_col: usize) -> u64 {
        self.fractions[physical_col * self.rows + row].round().clamp(0.0, 1.0) as u64
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

    /// Analog VMM: bit-serial inputs of `input_bits` bits, each cycle's
    /// column sums read out, shift-add recombination. Records cost in the
    /// ledger.
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
        let outputs = self.peek_multiply(inputs, input_bits, rng);
        record(|batch| self.charge_multiply(input_bits, batch));
        outputs
    }

    /// The outputs of [`VmmCrossbar::multiply_with`], drawing the same
    /// read noise from `rng`, without recording the operation.
    ///
    /// Without read noise this returns the exact integer dot products
    /// `Σ_r x_r · w_eff(r, c)` whenever every one is below 2^53. That is
    /// the bit-serial loop's result bit for bit: each cycle's bitline sum
    /// of level fractions rounds to its integer bit count, so every
    /// partial sum is an integer below the total, and f64 holds those
    /// exactly. Read noise, and larger sums, run the loop.
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches, `input_bits` is outside
    /// `1..=32`, or any input overflows `input_bits`.
    pub fn peek_multiply<R: Rng + ?Sized>(
        &self,
        inputs: &[u64],
        input_bits: u8,
        rng: &mut R,
    ) -> Vec<f64> {
        assert_eq!(inputs.len(), self.rows, "input length mismatch");
        assert!((1..=32).contains(&input_bits), "input bits must be in 1..=32");
        let limit = 1u64 << input_bits;
        for &x in inputs {
            assert!(x < limit, "input {x} overflows {input_bits} bits");
        }
        if self.noise.read_sigma == 0.0 {
            let exact: Option<Vec<f64>> = self
                .weights
                .chunks_exact(self.rows)
                .map(|column| {
                    let sum: u128 =
                        inputs.iter().zip(column).map(|(&x, &w)| x as u128 * w as u128).sum();
                    (sum < 1 << 53).then_some(sum as f64)
                })
                .collect();
            if let Some(exact) = exact {
                return exact;
            }
        }
        self.bit_serial(inputs, input_bits, rng)
    }

    /// The bit-serial loop: one cycle per input bit, MSB first; in each
    /// cycle every bitline sums the level fractions of its driven rows,
    /// applies the array's read noise (one draw when it has any), and
    /// rounds to a bit count, which shift-add weights by the input bit and
    /// the cell's bit position. The draws are counted once, at the end.
    fn bit_serial<R: Rng + ?Sized>(&self, inputs: &[u64], input_bits: u8, rng: &mut R) -> Vec<f64> {
        let bits = self.weight_bits as usize;
        let mut outputs = vec![0.0f64; self.cols];
        // The rows each bit cycle drives, ascending: only their cells add
        // current, in the bitline's summation order.
        let driven: Vec<Vec<usize>> = (0..input_bits)
            .map(|b| (0..self.rows).filter(|&r| (inputs[r] >> b) & 1 == 1).collect())
            .collect();
        for b in (0..input_bits as usize).rev() {
            for (c, out) in outputs.iter_mut().enumerate() {
                for s in 0..bits {
                    let physical_col = c * bits + s;
                    let column = &self.fractions[physical_col * self.rows..][..self.rows];
                    let current = driven[b].iter().fold(0.0f64, |sum, &r| sum + column[r]);
                    let current = self.noise.read(current, rng).max(0.0);
                    let shift = bits - 1 - s;
                    *out += current.round() * 2f64.powi(b as i32) * 2f64.powi(shift as i32);
                }
            }
        }
        self.noise.count_read_draws(input_bits as usize * self.cols * bits);
        outputs
    }

    /// Charges one VMM of `input_bits`-bit inputs, in O(1): its
    /// `input_bits` cycles on the ledger, and on `batch` one
    /// `crossbar.vmm.activations`, `input_bits` on
    /// `crossbar.vmm.bit_cycles` and `input_bits` × the cycle energy on
    /// `crossbar.vmm.energy_pj`. Inputs of no bits charge nothing.
    pub fn charge_multiply(&mut self, input_bits: u8, batch: &mut Batch) {
        if input_bits > 0 {
            batch.count(ACTIVATIONS, 1);
            self.ledger.charge(0, input_bits.into(), batch, BIT_CYCLES, ENERGY);
        }
    }

    /// Cost of one full VMM (all input bits): per cycle, wordline drives +
    /// cell reads, then shift-add.
    pub fn vmm_cost(&self, input_bits: u8) -> OpCost {
        self.ledger.costs()[0].repeat(input_bits as u64)
    }

    /// Itemized area/power budget (cells + drivers + shift-add).
    pub fn cost_sheet(&self, name: &str, activity: f64) -> CostSheet {
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
        let sa = PeripheralLibrary::shift_add(32);
        sheet.add(
            "shift-add units",
            sa.area() * self.cols as f64,
            sa.average_power(activity) * self.cols as f64,
        );
        sheet
    }

    /// Bit-serial input cycles charged so far, priced when read.
    pub fn ledger(&self) -> Ledger<1> {
        self.ledger
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
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn vmm(rows: usize, cols: usize, wbits: u8) -> VmmCrossbar {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        VmmCrossbar::new(rows, cols, wbits, Readout::Ideal, &tech, NoiseModel::ideal(), &mut rng)
    }

    #[test]
    fn ideal_multiply_matches_exact() {
        let mut x = vmm(8, 3, 6);
        let w: Vec<Vec<u32>> =
            (0..8).map(|r| (0..3).map(|c| ((r * 7 + c * 13) % 64) as u32).collect()).collect();
        x.store_weights(&w);
        let inputs: Vec<u64> = (0..8).map(|i| (i * 3 % 16) as u64).collect();
        let exact = x.multiply_exact(&inputs);
        let analog = x.multiply(&inputs, 4);
        for (a, e) in analog.iter().zip(&exact) {
            assert_eq!(*a, *e as f64, "analog {a} vs exact {e}");
        }
    }

    #[test]
    fn doc_example_values() {
        let mut x = vmm(4, 2, 4);
        x.store_weights(&[vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]]);
        assert_eq!(x.multiply(&[1, 0, 2, 1], 2), vec![18.0, 22.0]);
        assert_eq!(x.multiply_exact(&[1, 0, 2, 1]), vec![18, 22]);
    }

    #[test]
    fn stuck_fault_corrupts_weight() {
        let mut x = vmm(2, 1, 4);
        x.store_weights(&[vec![0b1010], vec![0b0101]]);
        assert_eq!(x.effective_weight(0, 0), 0b1010);
        // MSB cell of weight (0,0) stuck off: 0b1010 -> 0b0010.
        x.cells[0][0].set_fault(star_device::StuckFault::StuckOff);
        x.refresh_fractions();
        assert_eq!(x.effective_weight(0, 0), 0b0010);
        let y = x.multiply_exact(&[1, 1]);
        assert_eq!(y[0], 0b0010 + 0b0101);
    }

    #[test]
    fn multiply_rejects_overflowing_inputs() {
        let mut x = vmm(2, 1, 2);
        x.store_weights(&[vec![1], vec![1]]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            x.multiply(&[4, 0], 2);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn cost_scales_with_input_bits() {
        let x = vmm(128, 128, 2);
        let c1 = x.vmm_cost(1);
        let c8 = x.vmm_cost(8);
        assert!((c8.energy.value() / c1.energy.value() - 8.0).abs() < 1e-9);
        assert!((c8.latency.value() / c1.latency.value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_multiply_is_unbiased() {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let noise = NoiseModel::new(0.02, 0.0, 0.0);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn vmm_exact_path_matches_the_bit_serial_loop(
            rows in 1usize..64,
            cols in 1usize..4,
            weight_bits in 1u8..=24,
            input_bits in 1u8..=16,
            stuck_rate in prop::sample::select(vec![0.0, 0.02, 0.25]),
            seed in any::<u64>(),
        ) {
            // Without read noise `multiply` answers with the exact integer
            // dot product; the loop runs over the same level fractions. At
            // most 2^6 rows × 2^16 inputs × 2^24 effective weights keeps
            // every sum below 2^53, where the exact path applies.
            let tech = TechnologyParams::cmos32();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let noise = NoiseModel::new(0.0, stuck_rate, stuck_rate);
            let mut xbar =
                VmmCrossbar::new(rows, cols, weight_bits, Readout::Ideal, &tech, noise, &mut rng);
            let weights: Vec<Vec<u32>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..1u64 << weight_bits) as u32).collect())
                .collect();
            xbar.store_weights(&weights);
            let inputs: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..1u64 << input_bits)).collect();
            let exact = xbar.multiply_exact(&inputs);
            let slow: Vec<u64> =
                xbar.bit_serial(&inputs, input_bits, &mut NoRng).iter().map(|y| y.to_bits()).collect();
            let fast: Vec<u64> = xbar.multiply(&inputs, input_bits).iter().map(|y| y.to_bits()).collect();
            prop_assert!(exact.iter().all(|&y| y < 1 << 53), "case seed {}: sums {:?}", seed, exact);
            prop_assert_eq!(&fast, &slow, "case seed {}: exact path vs loop", seed);
            let exact: Vec<u64> = exact.iter().map(|&y| (y as f64).to_bits()).collect();
            prop_assert_eq!(&fast, &exact, "case seed {}: vs multiply_exact", seed);
        }
    }
}
