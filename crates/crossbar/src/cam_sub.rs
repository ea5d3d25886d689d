//! The time-multiplexed CAM/SUB crossbar of Fig. 1.
//!
//! One array, two roles:
//!
//! 1. **CAM (max find):** every representable value is stored in
//!    **descending order** (row 0 holds the largest code). Each input `x_i`
//!    is searched; the per-input one-hot match vectors are OR-merged, and
//!    the *first* '1' in the merged vector — found by a priority encoder —
//!    is the row of `x_max`.
//! 2. **SUB (subtraction):** the match vector drives the wordlines with the
//!    `x_max` row driven negatively; each bitline then carries the current
//!    difference of the two stored bit patterns, and the weighted
//!    recombination of the bitline outputs is exactly `x_i − x_max`.

use crate::cam::{self, CamCrossbar};
use crate::geometry::{record, Geometry, Ledger, OpCost};
use rand::Rng;
use serde::{Deserialize, Serialize};
use star_device::peripherals::PeripheralLibrary;
use star_device::{CostSheet, Latency, NoiseModel, TechnologyParams};
use star_fixed::{encoding, Fixed, QFormat};
use star_telemetry::Batch;
use std::error::Error;
use std::fmt;

/// Counter of max searches (one OR-merge + priority encode each).
const MAX_SEARCHES: &str = "crossbar.camsub.max_searches";
/// Counter of SUB-phase subtractions.
const SUBTRACTS: &str = "crossbar.camsub.subtracts";
/// Gauge of merge and subtraction energy (the searches are charged as
/// CAM searches).
const ENERGY: &str = "crossbar.camsub.energy_pj";

/// The ledger's op kinds, in Fig. 1 order: a CAM search, the OR-merge
/// and priority encode, a subtraction.
const SEARCH: usize = 0;
const MERGE: usize = 1;
const SUBTRACT: usize = 2;

/// Error from a CAM max search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchError {
    /// The input vector was empty.
    EmptyInput,
    /// No stored row matched any input — only possible when stuck faults
    /// corrupt the array.
    NoMatch,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptyInput => write!(f, "cannot search an empty input vector"),
            SearchError::NoMatch => write!(f, "no CAM row matched any input (defective array)"),
        }
    }
}

impl Error for SearchError {}

/// Outcome of the max-find phase.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxSearchResult {
    /// The maximum value found (read back from the winning row).
    pub max: Fixed,
    /// The winning row index.
    pub row: usize,
    /// The OR-merged match vector across all inputs.
    pub merged: Vec<bool>,
    /// Per-input matched row (None if a defect prevented the match).
    pub per_input_rows: Vec<Option<usize>>,
}

/// The CAM/SUB crossbar: `2^total_bits` rows (512 for the paper's 9-bit
/// configuration) by `2·total_bits` physical columns (18).
///
/// # Examples
///
/// ```
/// use star_crossbar::CamSubCrossbar;
/// use star_device::{NoiseModel, TechnologyParams};
/// use star_fixed::{Fixed, QFormat};
/// use rand::SeedableRng;
///
/// let fmt = QFormat::new(5, 3)?; // 9-bit values (sign + 5 + 3)
/// let tech = TechnologyParams::cmos32();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let mut xbar = CamSubCrossbar::new(fmt, &tech, NoiseModel::ideal(), &mut rng);
/// assert_eq!(xbar.geometry().rows(), 512);
/// assert_eq!(xbar.geometry().cols(), 18);
///
/// let xs: Vec<Fixed> = [1.5, -3.0, 4.25, 0.0]
///     .iter()
///     .map(|&v| Fixed::from_f64(v, fmt))
///     .collect();
/// let found = xbar.find_max(&xs).expect("ideal array always matches");
/// assert_eq!(found.max.to_f64(), 4.25);
/// let diff = xbar.subtract(xs[1], found.max);
/// assert_eq!(diff.to_f64(), -7.25);
/// # Ok::<(), star_fixed::FormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CamSubCrossbar {
    format: QFormat,
    cam: CamCrossbar,
    /// Per row: the first row that a search for the row's nominal value
    /// matches (`None` if stuck faults leave it matching nothing).
    first_matches: Vec<Option<u32>>,
    /// Set by `new` and by [`CamSubCrossbar::cam_mut`], the only ways to
    /// write the inner CAM; the next [`CamSubCrossbar::peek_find_max`]
    /// re-derives `first_matches`.
    first_matches_stale: bool,
    /// Kinds `SEARCH`, `MERGE` and `SUBTRACT`. The inner CAM's own ledger
    /// is never charged.
    ledger: Ledger<3>,
}

impl CamSubCrossbar {
    /// Builds the array for a value format, programming every representable
    /// value in descending order.
    pub fn new<R: Rng + ?Sized>(
        format: QFormat,
        tech: &TechnologyParams,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Self {
        let rows = format.num_codes() as usize;
        let word_bits = format.total_bits() as usize;
        let mut cam = CamCrossbar::new(rows, word_bits, tech, noise, rng);
        for row in 0..rows {
            let raw = format.max_raw() - row as i64;
            let bits = encoding::to_twos_complement(Fixed::from_raw(raw, format));
            cam.store_row(row, &bits);
        }
        let or = PeripheralLibrary::or_tree(rows);
        let pe = PeripheralLibrary::priority_encoder(rows);
        let merge_cost = OpCost::new(
            or.energy_per_op() + pe.energy_per_op(),
            Latency::new(or.latency_per_op().value() + pe.latency_per_op().value()),
        );
        let cols = cam.geometry().cols();
        let sa = PeripheralLibrary::sense_amp();
        let add = PeripheralLibrary::int_adder(format.total_bits());
        let cell = tech.cell_search_energy(tech.g_lrs()) * cols as f64;
        let subtract_cost = OpCost::new(
            cell + sa.energy_per_op() * cols as f64 + add.energy_per_op(),
            Latency::new(tech.cam_search_ns),
        );
        let ledger = Ledger::new([cam.search_cost(), merge_cost, subtract_cost]);
        CamSubCrossbar { format, cam, first_matches: Vec::new(), first_matches_stale: true, ledger }
    }

    /// The value format the array is built for.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Array shape.
    pub fn geometry(&self) -> Geometry {
        self.cam.geometry()
    }

    /// Row index storing a value (descending order: row 0 = max code).
    pub fn row_of(&self, value: Fixed) -> usize {
        debug_assert_eq!(value.format(), self.format, "value format mismatch");
        (self.format.max_raw() - value.raw()) as usize
    }

    /// The nominal value stored at a row.
    pub fn value_of(&self, row: usize) -> Fixed {
        assert!(row < self.geometry().rows(), "row {row} out of range");
        Fixed::from_raw(self.format.max_raw() - row as i64, self.format)
    }

    /// CAM phase: finds the maximum of the inputs (Fig. 1 steps ①–③).
    ///
    /// Each input is searched (one cycle each), match vectors are OR-merged,
    /// and the first hot row wins. Inputs must already be quantized to the
    /// array's format.
    ///
    /// # Errors
    ///
    /// [`SearchError::EmptyInput`] for an empty slice;
    /// [`SearchError::NoMatch`] if stuck faults prevent every match.
    ///
    /// # Panics
    ///
    /// Panics (debug) if any input has a different format.
    pub fn find_max(&mut self, inputs: &[Fixed]) -> Result<MaxSearchResult, SearchError> {
        if inputs.is_empty() {
            return Err(SearchError::EmptyInput);
        }
        let rows = self.geometry().rows();
        let mut hot = vec![0u64; rows.div_ceil(64)];
        let mut per_input_rows = Vec::with_capacity(inputs.len());
        for &x in inputs {
            debug_assert_eq!(x.format(), self.format, "input format mismatch");
            let mut first: Option<usize> = None;
            for r in self.cam.matching_rows(encoding::twos_complement_code(x)) {
                hot[r / 64] |= 1 << (r % 64);
                first = Some(first.map_or(r, |f| f.min(r)));
            }
            per_input_rows.push(first);
        }
        record(|batch| self.charge_find_max(inputs.len(), batch));
        let merged: Vec<bool> = (0..rows).map(|r| (hot[r / 64] >> (r % 64)) & 1 == 1).collect();
        let row = merged.iter().position(|&h| h).ok_or(SearchError::NoMatch)?;
        Ok(MaxSearchResult { max: self.value_of(row), row, merged, per_input_rows })
    }

    /// The row [`CamSubCrossbar::find_max`] picks for `inputs`, without
    /// recording anything: the least of the inputs' first matching rows,
    /// which is the first hot row of the OR-merged match vector. `None`
    /// where `find_max` returns an error. Reads a per-value table of
    /// first matches, derived on the first call after a write.
    pub fn peek_find_max(&mut self, inputs: &[Fixed]) -> Option<usize> {
        if self.first_matches_stale {
            let rows = self.geometry().rows();
            let mut table = Vec::with_capacity(rows);
            for row in 0..rows {
                let code = encoding::twos_complement_code(self.value_of(row));
                table.push(self.cam.matching_rows(code).min().map(|m| m as u32));
            }
            self.first_matches = table;
            self.first_matches_stale = false;
        }
        inputs
            .iter()
            .filter_map(|&x| {
                debug_assert_eq!(x.format(), self.format, "input format mismatch");
                self.first_matches[self.row_of(x)]
            })
            .min()
            .map(|row| row as usize)
    }

    /// Charges a [`CamSubCrossbar::find_max`] over `n` inputs, in O(1):
    /// `n` searches, charged as CAM searches (`crossbar.cam.*`), and one
    /// merge (`crossbar.camsub.max_searches` and its energy). Like
    /// `find_max` of no inputs, `n = 0` charges nothing.
    pub fn charge_find_max(&mut self, n: usize, batch: &mut Batch) {
        if n > 0 {
            self.ledger.charge(SEARCH, n as u64, batch, cam::SEARCHES, cam::SEARCH_ENERGY);
            self.ledger.charge(MERGE, 1, batch, MAX_SEARCHES, ENERGY);
        }
    }

    /// The value a row *effectively* stores: its true cells, read through
    /// stuck faults, as a two's-complement code.
    fn stored_raw(&self, row: usize) -> i64 {
        let unused = 64 - u32::from(self.format.total_bits());
        ((self.cam.stored_code(row) << unused) as i64) >> unused
    }

    /// SUB phase for one input (Fig. 1 steps ④–⑤): drives `x`'s row
    /// positively and `max`'s row negatively; the bitline difference
    /// currents recombine into `x − max`.
    ///
    /// The result saturates at the format's minimum (hardware clips — the
    /// downstream exponential of a fully saturated difference is ≈ 0
    /// anyway). Computed through the *effective* stored patterns, so stuck
    /// faults corrupt the result exactly as they would on silicon.
    pub fn subtract(&mut self, x: Fixed, max: Fixed) -> Fixed {
        let diff = self.peek_subtract(x, max);
        record(|batch| self.charge_subtracts(1, batch));
        diff
    }

    /// The result of [`CamSubCrossbar::subtract`], without recording a
    /// subtraction.
    pub fn peek_subtract(&self, x: Fixed, max: Fixed) -> Fixed {
        debug_assert_eq!(x.format(), self.format);
        debug_assert_eq!(max.format(), self.format);
        let vx = self.stored_raw(self.row_of(x));
        let vm = self.stored_raw(self.row_of(max));
        let raw = (vx - vm).min(0); // differences are ≤ 0 by construction
        Fixed::from_raw(raw, self.format)
    }

    /// Charges `n` subtractions, in O(1): `n` on the ledger's count, and
    /// on `batch` `n` on `crossbar.camsub.subtracts` and `n` × the
    /// subtraction energy on `crossbar.camsub.energy_pj`.
    pub fn charge_subtracts(&mut self, n: usize, batch: &mut Batch) {
        self.ledger.charge(SUBTRACT, n as u64, batch, SUBTRACTS, ENERGY);
    }

    /// Like [`CamSubCrossbar::subtract`], additionally applying per-bitline
    /// read noise from `noise` before the sense threshold.
    pub fn subtract_noisy<R: Rng + ?Sized>(
        &mut self,
        x: Fixed,
        max: Fixed,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> Fixed {
        let diff = self.peek_subtract_noisy(x, max, noise, rng);
        record(|batch| self.charge_subtracts(1, batch));
        diff
    }

    /// The result of [`CamSubCrossbar::subtract_noisy`], drawing the same
    /// noise from `rng`, without recording a subtraction.
    pub fn peek_subtract_noisy<R: Rng + ?Sized>(
        &self,
        x: Fixed,
        max: Fixed,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> Fixed {
        // Per-column ternary sense: noise shifts the normalized differential
        // current; the ±0.5 thresholds absorb it unless it exceeds half a
        // unit current.
        let code_x = self.cam.stored_code(self.row_of(x));
        let code_m = self.cam.stored_code(self.row_of(max));
        let n = self.format.total_bits() as usize;
        let mut raw: i64 = 0;
        // Bitlines MSB first, the MSB weighted negatively.
        for j in 0..n {
            let shift = n - 1 - j;
            let ideal = ((code_x >> shift) & 1) as i64 - ((code_m >> shift) & 1) as i64;
            let sensed = noise.read(ideal as f64, rng);
            let digit = sensed.round().clamp(-1.0, 1.0) as i64;
            let weight = 1i64 << shift;
            raw += if j == 0 { -digit * weight } else { digit * weight };
        }
        noise.count_read_draws(n);
        Fixed::from_raw(raw.min(0), self.format)
    }

    /// Total cost of stage 1 over `n` inputs: `n` CAM search cycles, one
    /// OR-merge + priority-encode step, and `n` subtraction cycles (one
    /// array read + recombination add each).
    pub fn stage1_cost(&self, n: usize) -> OpCost {
        let [search, merge, subtract] = self.ledger.costs();
        search.repeat(n as u64).then(merge).then(subtract.repeat(n as u64))
    }

    /// Itemized area/power budget (CAM array + merge/encode periphery +
    /// recombination adder).
    pub fn cost_sheet(&self, name: &str, activity: f64) -> CostSheet {
        let rows = self.geometry().rows();
        let mut sheet = CostSheet::new(name);
        sheet.absorb(&self.cam.cost_sheet("cam", activity));
        let or = PeripheralLibrary::or_tree(rows);
        sheet.add("or-merge tree", or.area(), or.average_power(activity));
        let pe = PeripheralLibrary::priority_encoder(rows);
        sheet.add("priority encoder", pe.area(), pe.average_power(activity));
        let add = PeripheralLibrary::int_adder(self.format.total_bits());
        sheet.add("recombination adder", add.area(), add.average_power(activity));
        sheet
    }

    /// Mutable access to the underlying CAM for fault injection in tests.
    /// A search made through it is charged to the inner CAM's own
    /// ledger, which [`CamSubCrossbar::ledger`] does not include.
    pub fn cam_mut(&mut self) -> &mut CamCrossbar {
        self.first_matches_stale = true;
        &mut self.cam
    }

    /// Searches, merges and subtractions charged so far, in that kind
    /// order, priced when read.
    pub fn ledger(&self) -> Ledger<3> {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn xbar(fmt: QFormat) -> CamSubCrossbar {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        CamSubCrossbar::new(fmt, &tech, NoiseModel::ideal(), &mut rng)
    }

    fn fx(v: f64, fmt: QFormat) -> Fixed {
        Fixed::from_f64(v, fmt)
    }

    #[test]
    fn paper_geometry_9bit() {
        let fmt = QFormat::new(5, 3).unwrap();
        let x = xbar(fmt);
        assert_eq!(x.geometry().rows(), 512);
        assert_eq!(x.geometry().cols(), 18);
    }

    #[test]
    fn descending_order() {
        let fmt = QFormat::new(3, 1).unwrap();
        let x = xbar(fmt);
        assert_eq!(x.value_of(0), Fixed::max(fmt));
        assert_eq!(x.value_of(x.geometry().rows() - 1), Fixed::min(fmt));
        for r in 1..x.geometry().rows() {
            assert!(x.value_of(r) < x.value_of(r - 1));
        }
    }

    #[test]
    fn row_of_round_trips() {
        let fmt = QFormat::new(4, 2).unwrap();
        let x = xbar(fmt);
        for raw in fmt.min_raw()..=fmt.max_raw() {
            let v = Fixed::from_raw(raw, fmt);
            assert_eq!(x.value_of(x.row_of(v)), v);
        }
    }

    #[test]
    fn find_max_matches_reference() {
        let fmt = QFormat::new(5, 2).unwrap();
        let mut x = xbar(fmt);
        let vals: Vec<Fixed> =
            [-3.5, 12.25, 0.0, -17.0, 12.0, 5.75].iter().map(|&v| fx(v, fmt)).collect();
        let found = x.find_max(&vals).unwrap();
        assert_eq!(found.max.to_f64(), 12.25);
        assert_eq!(found.row, x.row_of(fx(12.25, fmt)));
        // Every input matched its own row.
        for (i, r) in found.per_input_rows.iter().enumerate() {
            assert_eq!(*r, Some(x.row_of(vals[i])), "input {i}");
        }
    }

    #[test]
    fn find_max_with_duplicates() {
        let fmt = QFormat::new(4, 1).unwrap();
        let mut x = xbar(fmt);
        let vals = vec![fx(2.0, fmt), fx(2.0, fmt), fx(-1.0, fmt)];
        let found = x.find_max(&vals).unwrap();
        assert_eq!(found.max.to_f64(), 2.0);
        assert_eq!(found.merged.iter().filter(|&&h| h).count(), 2); // two distinct values
    }

    #[test]
    fn empty_input_is_error() {
        let fmt = QFormat::new(3, 1).unwrap();
        let mut x = xbar(fmt);
        assert_eq!(x.find_max(&[]), Err(SearchError::EmptyInput));
    }

    #[test]
    fn subtract_exact_in_range() {
        let fmt = QFormat::new(5, 2).unwrap();
        let mut x = xbar(fmt);
        let a = fx(3.25, fmt);
        let m = fx(10.5, fmt);
        assert_eq!(x.subtract(a, m).to_f64(), -7.25);
        assert_eq!(x.subtract(m, m).to_f64(), 0.0);
    }

    #[test]
    fn subtract_saturates_at_min() {
        let fmt = QFormat::new(3, 0).unwrap(); // range [-8, 7]
        let mut x = xbar(fmt);
        let lo = fx(-8.0, fmt);
        let hi = fx(7.0, fmt);
        // True difference -15 clips at the format minimum -8.
        assert_eq!(x.subtract(lo, hi).to_f64(), -8.0);
    }

    #[test]
    fn stage1_differences_nonpositive() {
        let fmt = QFormat::new(6, 3).unwrap();
        let mut x = xbar(fmt);
        let vals: Vec<Fixed> =
            [-8.0, 3.125, 7.0, 0.25, -0.125].iter().map(|&v| fx(v, fmt)).collect();
        let max = x.find_max(&vals).unwrap().max;
        assert_eq!(max.to_f64(), 7.0);
        for (i, &v) in vals.iter().enumerate() {
            let d = x.subtract(v, max);
            assert!(d.to_f64() <= 0.0);
            assert_eq!(d.to_f64(), v.to_f64() - 7.0, "input {i}");
        }
    }

    #[test]
    fn stuck_fault_can_corrupt_max() {
        let fmt = QFormat::new(3, 0).unwrap();
        let mut x = xbar(fmt);
        let v = fx(5.0, fmt);
        let row = x.row_of(v);
        // Force a mismatch on that value's row: 5.0 has sign bit 0, so the
        // search path for the MSB goes through the *true* cell; stick it on
        // and the matchline always discharges.
        x.cam_mut().inject_fault(row, 0, 0, star_device::StuckFault::StuckOn);
        let found = x.find_max(&[v, fx(1.0, fmt)]).unwrap();
        // 5.0's row no longer matches, so the (wrong) max is 1.0.
        assert_eq!(found.max.to_f64(), 1.0);
    }

    #[test]
    fn all_faulty_is_no_match() {
        let fmt = QFormat::new(2, 0).unwrap();
        let mut x = xbar(fmt);
        let v = fx(1.0, fmt);
        let row = x.row_of(v);
        // Both halves of the MSB pair stuck on: every search discharges.
        x.cam_mut().inject_fault(row, 0, 1, star_device::StuckFault::StuckOn);
        x.cam_mut().inject_fault(row, 0, 0, star_device::StuckFault::StuckOn);
        // Search only the now-unmatchable value.
        assert_eq!(x.find_max(&[v]), Err(SearchError::NoMatch));
    }

    #[test]
    fn peek_find_max_is_the_row_find_max_picks() {
        // Stuck cells leave some values matching another row, or none.
        let fmt = QFormat::new(3, 1).unwrap();
        let tech = TechnologyParams::cmos32();
        let noise = NoiseModel::new(0.0, 0.05, 0.05);
        let mut x = CamSubCrossbar::new(fmt, &tech, noise, &mut ChaCha8Rng::seed_from_u64(5));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert_eq!(x.peek_find_max(&[]), None);
        for _ in 0..500 {
            let n = rng.gen_range(1..=6);
            let inputs: Vec<Fixed> = (0..n)
                .map(|_| Fixed::from_raw(rng.gen_range(fmt.min_raw()..=fmt.max_raw()), fmt))
                .collect();
            let ledger = x.ledger();
            let peeked = x.peek_find_max(&inputs);
            assert_eq!(x.ledger(), ledger, "a peek records nothing");
            assert_eq!(peeked, x.find_max(&inputs).ok().map(|found| found.row), "{inputs:?}");
        }
    }

    #[test]
    fn peek_find_max_sees_later_faults() {
        let fmt = QFormat::new(2, 0).unwrap();
        let mut x = xbar(fmt);
        let v = fx(1.0, fmt);
        let row = x.row_of(v);
        assert_eq!(x.peek_find_max(&[v]), Some(row));
        x.cam_mut().inject_fault(row, 0, 1, star_device::StuckFault::StuckOn);
        x.cam_mut().inject_fault(row, 0, 0, star_device::StuckFault::StuckOn);
        assert_eq!(x.peek_find_max(&[v]), None);
    }

    #[test]
    fn peek_subtract_is_subtract_unrecorded() {
        let fmt = QFormat::new(3, 0).unwrap();
        let mut x = xbar(fmt);
        let (lo, hi) = (fx(-8.0, fmt), fx(7.0, fmt));
        assert_eq!(x.peek_subtract(lo, hi), x.subtract(lo, hi));
        let ledger = x.ledger();
        assert_eq!(x.peek_subtract(fx(2.0, fmt), hi).to_f64(), -5.0);
        assert_eq!(x.ledger(), ledger);
    }

    #[test]
    fn noisy_subtract_small_noise_is_exact() {
        let fmt = QFormat::new(5, 2).unwrap();
        let mut x = xbar(fmt);
        let noise = NoiseModel::new(0.05, 0.0, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..50 {
            let d = x.subtract_noisy(fx(1.25, fmt), fx(9.0, fmt), &noise, &mut rng);
            assert_eq!(d.to_f64(), -7.75); // 5 % noise < half sense margin
        }
    }

    #[test]
    fn costs_are_positive_and_compose() {
        let fmt = QFormat::new(6, 3).unwrap();
        let x = xbar(fmt);
        let c = x.stage1_cost(128);
        assert!(c.energy.value() > 0.0);
        // 128 searches + merge + 128 subtractions at 1 ns each ≥ 256 ns.
        assert!(c.latency.value() >= 256.0);
        let sheet = x.cost_sheet("cam/sub", 0.5);
        assert!(sheet.total_area().value() > 0.0);
        assert!(sheet.items().len() >= 6);
    }

    #[test]
    fn search_error_display() {
        assert!(SearchError::NoMatch.to_string().contains("defective"));
        assert!(SearchError::EmptyInput.to_string().contains("empty"));
    }
}
