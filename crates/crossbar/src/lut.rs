//! Lookup-table crossbar array.

use crate::geometry::{record, Geometry, Ledger, OpCost};
use rand::Rng;
use star_device::peripherals::PeripheralLibrary;
use star_device::{
    CostSheet, Energy, Latency, NoiseModel, RramCell, TechnologyParams, RRAM_WRITES,
};
use star_telemetry::Batch;

/// Counter of LUT row reads.
const READS: &str = "crossbar.lut.reads";
/// Gauge of LUT read energy.
const READ_ENERGY: &str = "crossbar.lut.energy_pj";

/// An RRAM crossbar used as a read-only lookup table: each row stores one
/// output word; driving a single wordline (the one-hot match vector coming
/// from a CAM) reads that word out on the bitlines.
///
/// In the STAR exponential stage (Fig. 2), the LUT crossbar holds the
/// pre-computed `exp(x_i − x_max)` for every possible difference magnitude;
/// the CAM's match line for the input value directly drives the LUT row.
///
/// # Examples
///
/// ```
/// use star_crossbar::LutCrossbar;
/// use star_device::{NoiseModel, TechnologyParams};
/// use rand::SeedableRng;
///
/// let tech = TechnologyParams::cmos32();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut lut = LutCrossbar::new(4, 8, &tech, NoiseModel::ideal(), &mut rng);
/// lut.store_word(2, 0b1010_0001);
/// assert_eq!(lut.read_row(2), 0b1010_0001);
/// ```
#[derive(Debug, Clone)]
pub struct LutCrossbar {
    geometry: Geometry,
    word_bits: usize,
    cells: Vec<Vec<RramCell>>,
    /// The word each row effectively stores (faults included), refreshed
    /// by every cell write.
    words: Vec<u64>,
    tech: TechnologyParams,
    /// Its one op kind: a row read.
    ledger: Ledger<1>,
}

impl LutCrossbar {
    /// Builds an erased LUT of `rows` words of `word_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `word_bits` is zero or exceeds 64.
    pub fn new<R: Rng + ?Sized>(
        rows: usize,
        word_bits: usize,
        tech: &TechnologyParams,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Self {
        assert!((1..=64).contains(&word_bits), "LUT word width must be in 1..=64");
        let geometry = Geometry::new(rows, word_bits);
        let cells = (0..rows)
            .map(|_| {
                (0..word_bits)
                    .map(|_| {
                        let mut c = RramCell::new(tech);
                        c.set_fault(noise.sample_fault(rng));
                        c
                    })
                    .collect()
            })
            .collect();
        noise.count_fault_draws(rows * word_bits);
        let sa = PeripheralLibrary::sense_amp();
        let drv = star_device::DriverSpec::wordline32();
        // One driven row: up to `word_bits` conducting cells + column
        // sense amps.
        let cell = tech.cell_search_energy(tech.g_lrs()) * word_bits as f64;
        let energy: Energy = cell + sa.energy_per_op() * word_bits as f64 + drv.energy_per_toggle();
        let mut lut = LutCrossbar {
            geometry,
            word_bits,
            cells,
            words: vec![0; rows],
            tech: *tech,
            ledger: Ledger::new([OpCost::new(energy, Latency::new(tech.cam_search_ns))]),
        };
        for row in 0..rows {
            lut.refresh_word(row);
        }
        lut
    }

    /// Re-reads one row's cells into its word.
    fn refresh_word(&mut self, row: usize) {
        self.words[row] = self.cells[row]
            .iter()
            .fold(0u64, |word, cell| word << 1 | u64::from(cell.stores_one()));
    }

    /// Array shape.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Output word width in bits.
    pub fn word_bits(&self) -> usize {
        self.word_bits
    }

    /// Programs a row with a word (LSB = column 0... stored MSB-first in
    /// column 0 for readability: bit `word_bits-1-j` of `word` lands in
    /// column `j`), counting its `word_bits` cell writes.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `word` does not fit in
    /// `word_bits` bits.
    pub fn store_word(&mut self, row: usize, word: u64) {
        assert!(row < self.geometry.rows(), "row {row} out of range");
        assert!(
            self.word_bits == 64 || word < (1u64 << self.word_bits),
            "word {word:#x} wider than {} bits",
            self.word_bits
        );
        for j in 0..self.word_bits {
            let bit = (word >> (self.word_bits - 1 - j)) & 1 == 1;
            self.cells[row][j].program_ideal(u16::from(bit));
        }
        star_telemetry::count(RRAM_WRITES, self.word_bits as u64);
        self.refresh_word(row);
    }

    /// Reads one row (the one-hot driven lookup), recording its cost.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn read_row(&mut self, row: usize) -> u64 {
        assert!(row < self.geometry.rows(), "row {row} out of range");
        record(|batch| self.charge_reads(1, batch));
        self.words[row]
    }

    /// Reads a row without recording cost: the word
    /// [`LutCrossbar::read_row`] returns, for assertions and for callers
    /// that tabulate it per row.
    pub fn peek_row(&self, row: usize) -> u64 {
        self.words[row]
    }

    /// Charges `n` row reads, in O(1): `n` on the ledger's count, and on
    /// `batch` `n` on `crossbar.lut.reads` and `n` × the read energy on
    /// `crossbar.lut.energy_pj`.
    pub fn charge_reads(&mut self, n: usize, batch: &mut Batch) {
        self.ledger.charge(0, n as u64, batch, READS, READ_ENERGY);
    }

    /// Energy/latency of one row read.
    pub fn read_cost(&self) -> OpCost {
        self.ledger.costs()[0]
    }

    /// Itemized area/power budget (cells + column sense amps + row driver).
    pub fn cost_sheet(&self, name: &str, activity: f64) -> CostSheet {
        let cols = self.geometry.cols();
        let rows = self.geometry.rows();
        let mut sheet = CostSheet::new(name);
        let read_power =
            (self.read_cost().energy / Latency::new(self.tech.cam_search_ns)) * activity;
        sheet.add("cell array", self.geometry.cell_array_area(&self.tech), read_power);
        let sa = PeripheralLibrary::sense_amp();
        sheet.add("column sense amps", sa.area() * cols as f64, sa.static_power() * cols as f64);
        let drv = star_device::DriverSpec::wordline32();
        sheet.add("row drivers", drv.area() * rows as f64, star_device::Power::ZERO);
        sheet
    }

    /// Row reads charged so far, priced when read.
    pub fn ledger(&self) -> Ledger<1> {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn lut(rows: usize, bits: usize) -> LutCrossbar {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        LutCrossbar::new(rows, bits, &tech, NoiseModel::ideal(), &mut rng)
    }

    #[test]
    fn store_and_read_round_trip() {
        let mut l = lut(16, 12);
        for r in 0..16 {
            l.store_word(r, (r as u64 * 273) & 0xFFF);
        }
        for r in 0..16 {
            assert_eq!(l.read_row(r), (r as u64 * 273) & 0xFFF, "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn word_too_wide_rejected() {
        let mut l = lut(4, 4);
        l.store_word(0, 0x10);
    }

    #[test]
    fn max_width_word() {
        let mut l = lut(2, 64);
        l.store_word(1, u64::MAX);
        assert_eq!(l.read_row(1), u64::MAX);
    }

    #[test]
    fn read_cost_scales_with_width() {
        let narrow = lut(256, 9).read_cost();
        let wide = lut(256, 18).read_cost();
        assert!(wide.energy.value() > narrow.energy.value());
    }

    #[test]
    fn ledger_and_sheet() {
        let mut l = lut(256, 18);
        l.store_word(0, 1);
        l.read_row(0);
        assert_eq!(l.ledger().counts(), [1]);
        let sheet = l.cost_sheet("lut", 1.0);
        assert_eq!(sheet.items().len(), 3);
        assert!(sheet.total_area().value() > 0.0);
    }
}
