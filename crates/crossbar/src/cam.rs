//! Content-addressable (TCAM) crossbar array.

use crate::geometry::{record, Geometry, Ledger, OpCost};
use rand::Rng;
use star_device::peripherals::PeripheralLibrary;
use star_device::{
    Area, CostSheet, Energy, Latency, NoiseModel, RramCell, StuckFault, TechnologyParams,
    RRAM_WRITES,
};
use star_telemetry::Batch;

/// Counter of CAM searches, on every CAM (the CAM/SUB array's included).
pub(crate) const SEARCHES: &str = "crossbar.cam.searches";
/// Gauge of CAM search energy.
pub(crate) const SEARCH_ENERGY: &str = "crossbar.cam.energy_pj";

/// An RRAM TCAM crossbar: each row stores a bit pattern as complementary
/// cell pairs; a search key drives all searchlines and every matchline
/// evaluates in parallel, producing a one-hot (or multi-hot) match vector.
///
/// This is the building block of both softmax stages: the CAM/SUB array of
/// Fig. 1 searches quantized scores against all representable values, and
/// the exponential stage CAM of Fig. 2 searches `|x_i − x_max|` magnitudes.
///
/// The electrical model is digital-with-defects: stuck cells (sampled from
/// the [`NoiseModel`] at build time) corrupt the stored pattern exactly the
/// way a real stuck device would (a stuck-on cell conducts on every search,
/// a stuck-off cell never discharges its line), while bounded read noise is
/// absorbed by the matchline sense margin and does not flip decisions.
///
/// # Examples
///
/// ```
/// use star_crossbar::CamCrossbar;
/// use star_device::{NoiseModel, TechnologyParams};
/// use rand::SeedableRng;
///
/// let tech = TechnologyParams::cmos32();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut cam = CamCrossbar::new(4, 3, &tech, NoiseModel::ideal(), &mut rng);
/// // Program every row (an erased row never discharges its matchline and
/// // would spuriously "match"; the softmax engine always fills the array).
/// for (row, word) in [0b000, 0b011, 0b101, 0b110].iter().enumerate() {
///     let bits: Vec<bool> = (0..3).rev().map(|b| (word >> b) & 1 == 1).collect();
///     cam.store_row(row, &bits);
/// }
/// assert_eq!(cam.search(&[true, false, true]), vec![false, false, true, false]);
/// assert_eq!(cam.search_one_hot(0b011), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct CamCrossbar {
    geometry: Geometry,
    word_bits: usize,
    /// Cell pairs: `cells[row][2*bit]` is the true cell, `[2*bit+1]` the
    /// complement cell.
    cells: Vec<Vec<RramCell>>,
    /// Per row, which true cells conduct (faults included), packed
    /// MSB-first like the search key: pair `i` is bit `word_bits − 1 − i`.
    tru: Vec<u64>,
    /// Per row, which complement cells conduct, packed like `tru`.
    comp: Vec<u64>,
    /// `word_bits` low ones.
    full: u64,
    /// `(pattern, row)`, sorted, for every row whose pairs are all
    /// complementary: such a row matches exactly the key equal to its
    /// pattern.
    index: Vec<(u64, u32)>,
    /// Rows with a wildcard pair (both cells off) and no pair with both
    /// cells on, ascending. Erased rows are all wildcards; a row with a
    /// both-on pair discharges on every key and is in neither list.
    wildcards: Vec<u32>,
    /// Set by every cell write; the next search re-derives `index` and
    /// `wildcards` from the planes, so programming a whole array costs one
    /// sort rather than one sorted insertion per row.
    index_stale: bool,
    tech: TechnologyParams,
    /// Its one op kind: a parallel search.
    ledger: Ledger<1>,
}

impl CamCrossbar {
    /// Builds an erased CAM of `rows` entries of `word_bits` bits each
    /// (2·`word_bits` physical columns). Stuck faults are sampled from
    /// `noise` per cell.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `word_bits` is zero, or `word_bits` exceeds 64.
    pub fn new<R: Rng + ?Sized>(
        rows: usize,
        word_bits: usize,
        tech: &TechnologyParams,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Self {
        assert!((1..=64).contains(&word_bits), "CAM word width must be in 1..=64");
        let geometry = Geometry::new(rows, word_bits * 2);
        let cells = (0..rows)
            .map(|_| {
                (0..word_bits * 2)
                    .map(|_| {
                        let mut c = RramCell::new(tech);
                        c.set_fault(noise.sample_fault(rng));
                        c
                    })
                    .collect()
            })
            .collect();
        noise.count_fault_draws(rows * word_bits * 2);
        let mut cam = CamCrossbar {
            geometry,
            word_bits,
            cells,
            tru: vec![0; rows],
            comp: vec![0; rows],
            full: u64::MAX >> (64 - word_bits),
            index: Vec::new(),
            wildcards: Vec::new(),
            index_stale: true,
            tech: *tech,
            ledger: Ledger::new([search_cost(geometry, tech)]),
        };
        for row in 0..rows {
            cam.refresh_row(row);
        }
        cam
    }

    /// Array shape (rows × physical columns).
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Stored word width in bits.
    pub fn word_bits(&self) -> usize {
        self.word_bits
    }

    /// Programs a row with a bit pattern (complementary pair per bit),
    /// counting its `2 · word_bits` cell writes.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `bits.len() != word_bits`.
    pub fn store_row(&mut self, row: usize, bits: &[bool]) {
        assert!(row < self.geometry.rows(), "row {row} out of range");
        assert_eq!(bits.len(), self.word_bits, "pattern width mismatch");
        for (i, &b) in bits.iter().enumerate() {
            self.cells[row][2 * i].program_ideal(u16::from(b));
            self.cells[row][2 * i + 1].program_ideal(u16::from(!b));
        }
        star_telemetry::count(RRAM_WRITES, 2 * bits.len() as u64);
        self.refresh_row(row);
    }

    /// Re-reads one row's cells into its planes.
    fn refresh_row(&mut self, row: usize) {
        let (mut tru, mut comp) = (0u64, 0u64);
        for pair in self.cells[row].chunks_exact(2) {
            tru = tru << 1 | u64::from(pair[0].stores_one());
            comp = comp << 1 | u64::from(pair[1].stores_one());
        }
        self.tru[row] = tru;
        self.comp[row] = comp;
        self.index_stale = true;
    }

    /// The code a row *effectively* stores, MSB-first: its true cells read
    /// through any stuck faults.
    pub(crate) fn stored_code(&self, row: usize) -> u64 {
        self.tru[row]
    }

    /// Searches the array: returns the per-row match vector.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != word_bits`.
    pub fn search(&mut self, key: &[bool]) -> Vec<bool> {
        assert_eq!(key.len(), self.word_bits, "search key width mismatch");
        let code = key.iter().fold(0u64, |acc, &b| acc << 1 | u64::from(b));
        let mut hits = vec![false; self.geometry.rows()];
        for row in self.matching_rows(code) {
            hits[row] = true;
        }
        record(|batch| self.charge_searches(1, batch));
        hits
    }

    /// Searches the array for a key given as an MSB-first code (bit
    /// `word_bits − 1` is the first searchline, as in
    /// `star_fixed::encoding::to_twos_complement`) and returns the matching
    /// row if exactly one matchline survives — the drive a LUT needs.
    /// `None` means a defect left zero or several rows matching. Costs one
    /// search, like [`CamCrossbar::search`].
    ///
    /// # Panics
    ///
    /// Panics if `key` has bits set at or above `word_bits`.
    pub fn search_one_hot(&mut self, key: u64) -> Option<usize> {
        let row = self.peek_one_hot(key);
        record(|batch| self.charge_searches(1, batch));
        row
    }

    /// The row [`CamCrossbar::search_one_hot`] returns for `key`, without
    /// recording a search: a read-back of the match logic for callers
    /// that tabulate it per key.
    ///
    /// # Panics
    ///
    /// Panics if `key` has bits set at or above `word_bits`.
    pub fn peek_one_hot(&mut self, key: u64) -> Option<usize> {
        assert_eq!(key & !self.full, 0, "search key {key:#x} wider than {} bits", self.word_bits);
        let mut rows = self.matching_rows(key);
        match (rows.next(), rows.next()) {
            (Some(row), None) => Some(row),
            _ => None,
        }
    }

    /// Charges `n` searches, in O(1): `n` on the ledger's count, and on
    /// `batch` `n` on `crossbar.cam.searches` and `n` × the search
    /// energy on `crossbar.cam.energy_pj`. [`CamCrossbar::search`] is
    /// its read plus `charge_searches(1, …)`.
    pub fn charge_searches(&mut self, n: usize, batch: &mut Batch) {
        self.ledger.charge(0, n as u64, batch, SEARCHES, SEARCH_ENERGY);
    }

    /// Every row an MSB-first `key` matches, without recording a search.
    /// A row matches iff no cell on a discharge path conducts — searching
    /// bit `1` puts the complement cell on the path, searching `0` the
    /// true cell — so a stuck-on cell on the path forces a mismatch and a
    /// stuck-off cell can mask one. Rows come from the pattern index
    /// (ascending), then from the wildcard list (ascending).
    pub(crate) fn matching_rows(&mut self, key: u64) -> impl Iterator<Item = usize> + '_ {
        if self.index_stale {
            self.rebuild_index();
        }
        let start = self.index.partition_point(|&(pattern, _)| pattern < key);
        let exact = self.index[start..]
            .iter()
            .take_while(move |&&(pattern, _)| pattern == key)
            .map(|&(_, row)| row as usize);
        let (tru, comp, full) = (&self.tru, &self.comp, self.full);
        let wild = self
            .wildcards
            .iter()
            .map(|&row| row as usize)
            .filter(move |&row| key & comp[row] == 0 && !key & full & tru[row] == 0);
        exact.chain(wild)
    }

    /// Re-derives the pattern index and wildcard list from the planes.
    fn rebuild_index(&mut self) {
        self.index.clear();
        self.wildcards.clear();
        for (row, (&tru, &comp)) in self.tru.iter().zip(&self.comp).enumerate() {
            if tru & comp != 0 {
                continue;
            }
            if tru | comp == self.full {
                self.index.push((tru, row as u32));
            } else {
                self.wildcards.push(row as u32);
            }
        }
        self.index.sort_unstable();
        self.index_stale = false;
    }

    /// Energy/latency of one parallel search cycle.
    pub fn search_cost(&self) -> OpCost {
        self.ledger.costs()[0]
    }

    /// Itemized area/power budget of the array (cells + matchline periphery
    /// + row sense amps + searchline drivers).
    pub fn cost_sheet(&self, name: &str, activity: f64) -> CostSheet {
        let rows = self.geometry.rows();
        let cols = self.geometry.cols();
        let mut sheet = CostSheet::new(name);
        sheet.add(
            "cell array",
            self.geometry.cell_array_area(&self.tech),
            self.array_read_power(activity),
        );
        let ml = PeripheralLibrary::matchline(cols);
        sheet.add(
            "matchline periphery",
            ml.area() * rows as f64,
            ml.average_power(activity) * rows as f64,
        );
        let sa = PeripheralLibrary::sense_amp();
        sheet.add(
            "row sense amps",
            sa.area() * rows as f64,
            sa.average_power(activity) * rows as f64,
        );
        let drv = star_device::DriverSpec::wordline32();
        sheet.add(
            "searchline drivers",
            drv.area() * cols as f64,
            Energy::new(drv.energy_per_toggle().value() * cols as f64).scale(activity)
                / Latency::new(self.tech.cam_search_ns),
        );
        sheet
    }

    /// Average cell-array read power at an activity factor.
    fn array_read_power(&self, activity: f64) -> star_device::Power {
        let per_search = self
            .tech
            .cell_search_energy(self.tech.g_lrs())
            .scale(self.geometry.cells() as f64 * 0.5);
        (per_search / Latency::new(self.tech.cam_search_ns)) * activity
    }

    /// Searches charged so far, priced when read.
    pub fn ledger(&self) -> Ledger<1> {
        self.ledger
    }

    /// Injects a stuck fault into a specific cell (for failure-injection
    /// tests). `pair_half` 0 = true cell, 1 = complement cell.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn inject_fault(&mut self, row: usize, bit: usize, pair_half: usize, fault: StuckFault) {
        assert!(pair_half < 2, "pair half must be 0 or 1");
        self.cells[row][2 * bit + pair_half].set_fault(fault);
        self.refresh_row(row);
    }

    /// Total cell-array area.
    pub fn cell_area(&self) -> Area {
        self.geometry.cell_array_area(&self.tech)
    }
}

/// Energy/latency of one parallel search cycle over an array of
/// `geometry`.
fn search_cost(geometry: Geometry, tech: &TechnologyParams) -> OpCost {
    let rows = geometry.rows();
    let cols = geometry.cols();
    let ml = PeripheralLibrary::matchline(cols);
    let sa = PeripheralLibrary::sense_amp();
    // Search-line drive: one driver toggle per physical column.
    let drive = star_device::DriverSpec::wordline32().energy_per_toggle() * cols as f64;
    // Roughly half the cells conduct during evaluation for one read
    // voltage pulse.
    let cell = tech.cell_search_energy(tech.g_lrs()) * (rows * cols) as f64 * 0.5;
    let energy: Energy =
        ml.energy_per_op() * rows as f64 + sa.energy_per_op() * rows as f64 + drive + cell;
    let latency = Latency::new(tech.cam_search_ns);
    OpCost::new(energy, latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cam(rows: usize, bits: usize) -> CamCrossbar {
        let tech = TechnologyParams::cmos32();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        CamCrossbar::new(rows, bits, &tech, NoiseModel::ideal(), &mut rng)
    }

    impl CamCrossbar {
        /// The reference matchline model, walked cell by cell: the line
        /// survives iff no cell on a discharge path conducts.
        fn row_matches(&self, row: usize, key: &[bool]) -> bool {
            key.iter().enumerate().all(|(i, &k)| {
                let path_cell =
                    if k { &self.cells[row][2 * i + 1] } else { &self.cells[row][2 * i] };
                !path_cell.stores_one()
            })
        }
    }

    #[test]
    fn exact_match_is_one_hot() {
        let mut c = cam(8, 4);
        for r in 0..8 {
            let bits: Vec<bool> = (0..4).map(|b| (r >> b) & 1 == 1).collect();
            c.store_row(r, &bits);
        }
        for r in 0..8 {
            let key: Vec<bool> = (0..4).map(|b| (r >> b) & 1 == 1).collect();
            let m = c.search(&key);
            assert_eq!(m.iter().filter(|&&x| x).count(), 1, "row {r}");
            assert!(m[r]);
        }
    }

    #[test]
    fn duplicate_rows_multi_hot() {
        let mut c = cam(4, 3);
        let p = [true, true, false];
        let other = [false, false, true];
        c.store_row(0, &other);
        c.store_row(1, &p);
        c.store_row(2, &other);
        c.store_row(3, &p);
        let m = c.search(&p);
        assert_eq!(m, vec![false, true, false, true]);
        assert_eq!(c.search_one_hot(0b110), None);
    }

    #[test]
    fn no_match_when_absent() {
        let mut c = cam(4, 3);
        c.store_row(0, &[false, false, false]);
        c.store_row(1, &[true, true, true]);
        let m = c.search(&[true, false, true]);
        // Erased rows store all-zero true cells AND all-zero complement
        // cells, so they match nothing... except keys whose discharge paths
        // all land on erased cells. Rows 2,3 are fully erased (HRS both
        // halves) and therefore match any key under the discharge model —
        // real designs mask unused rows; we store explicit patterns in all
        // rows in the engine. Here only programmed rows matter.
        assert!(!m[0]);
        assert!(!m[1]);
    }

    #[test]
    fn erased_rows_match_everything() {
        // Documents the discharge-model behaviour tested above: an erased
        // row (all HRS) never discharges, so it "matches". The softmax
        // engine always programs every row.
        let mut c = cam(2, 2);
        let m = c.search(&[true, false]);
        assert_eq!(m, vec![true, true]);
    }

    #[test]
    fn stuck_on_forces_mismatch() {
        let mut c = cam(2, 2);
        c.store_row(0, &[true, false]);
        // Stuck-on complement cell of bit 0: searching 1 now discharges.
        c.inject_fault(0, 0, 1, StuckFault::StuckOn);
        let m = c.search(&[true, false]);
        assert!(!m[0]);
    }

    #[test]
    fn stuck_off_masks_mismatch() {
        let mut c = cam(2, 2);
        c.store_row(0, &[true, false]);
        // Search key [false, false] would normally discharge via the true
        // cell of bit 0; stick it off and the row falsely matches.
        c.inject_fault(0, 0, 0, StuckFault::StuckOff);
        let m = c.search(&[false, false]);
        assert!(m[0]);
    }

    #[test]
    fn one_hot_search_finds_the_single_row() {
        let mut c = cam(4, 2);
        for r in 0..4 {
            c.store_row(r, &[r & 2 != 0, r & 1 != 0]);
        }
        for r in 0..4 {
            assert_eq!(c.search_one_hot(r as u64), Some(r));
        }
        // Row 0's LSB complement stuck off leaves a wildcard pair, so the
        // row also answers key 0b01.
        c.inject_fault(0, 1, 1, StuckFault::StuckOff);
        assert_eq!(c.search_one_hot(0b01), None);
        assert_eq!(c.ledger().counts(), [5]);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn one_hot_search_rejects_wide_key() {
        cam(4, 3).search_one_hot(0b1000);
    }

    #[test]
    fn full_width_words() {
        let mut c = cam(2, 64);
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        c.store_row(0, &bits);
        c.store_row(1, &[true; 64]);
        let code = bits.iter().fold(0u64, |acc, &b| acc << 1 | u64::from(b));
        assert_eq!(c.search_one_hot(code), Some(0));
        assert_eq!(c.search_one_hot(u64::MAX), Some(1));
        assert_eq!(c.stored_code(1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_words_wider_than_64_bits() {
        cam(2, 65);
    }

    #[test]
    fn search_cost_positive_and_scales() {
        let small = cam(16, 4).search_cost();
        let large = cam(512, 9).search_cost();
        assert!(large.energy.value() > small.energy.value());
        assert!(small.energy.value() > 0.0);
        assert_eq!(small.latency.value(), 1.0);
    }

    #[test]
    fn ledger_counts_searches() {
        let mut c = cam(4, 2);
        c.store_row(0, &[true, true]);
        c.search(&[true, true]);
        c.search(&[false, true]);
        assert_eq!(c.ledger().counts(), [2]);
        assert!(c.ledger().energy().value() > 0.0);
    }

    #[test]
    fn cost_sheet_has_all_components() {
        let c = cam(512, 9);
        let sheet = c.cost_sheet("cam", 0.5);
        assert_eq!(sheet.items().len(), 4);
        assert!(sheet.total_area().value() > 0.0);
        assert!(sheet.total_power().value() > 0.0);
        // The paper's headline: the cell array itself is tiny (tens of µm²).
        assert!(c.cell_area().value() < 100.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn search_rejects_bad_width() {
        let mut c = cam(4, 3);
        c.search(&[true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn packed_search_matches_the_cell_walk(
            rows in 1usize..20,
            word_bits in 1usize..8,
            stuck_rate in prop::sample::select(vec![0.0, 0.05, 0.25]),
            seed in any::<u64>(),
            ops in prop::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 0..40),
        ) {
            let tech = TechnologyParams::cmos32();
            let noise = NoiseModel::new(0.0, stuck_rate, stuck_rate);
            let mut c = CamCrossbar::new(
                rows, word_bits, &tech, noise, &mut ChaCha8Rng::seed_from_u64(seed),
            );
            let full = u64::MAX >> (64 - word_bits);
            let bits_of = |code: u64| -> Vec<bool> {
                (0..word_bits).rev().map(|b| (code >> b) & 1 == 1).collect()
            };
            // Last pattern stored per row, so searches often hit.
            let mut stored = vec![0u64; rows];
            for (op, a, b) in ops {
                let row = (a % rows as u64) as usize;
                match op {
                    0 => {
                        stored[row] = b & full;
                        c.store_row(row, &bits_of(stored[row]));
                    }
                    1 => {
                        let fault = [StuckFault::None, StuckFault::StuckOn, StuckFault::StuckOff]
                            [(b >> 8) as usize % 3];
                        c.inject_fault(row, (b % word_bits as u64) as usize, (b >> 4) as usize & 1, fault);
                    }
                    _ => {}
                }
                for key in [stored[(a >> 32) as usize % rows], b & full] {
                    let bits = bits_of(key);
                    let reference: Vec<bool> = (0..rows).map(|r| c.row_matches(r, &bits)).collect();
                    prop_assert_eq!(c.search(&bits), reference.clone());
                    let one_hot = match reference.iter().filter(|&&m| m).count() {
                        1 => reference.iter().position(|&m| m),
                        _ => None,
                    };
                    prop_assert_eq!(c.search_one_hot(key), one_hot);
                    for r in 0..rows {
                        let effective = (0..word_bits)
                            .fold(0u64, |acc, i| acc << 1 | u64::from(c.cells[r][2 * i].stores_one()));
                        prop_assert_eq!(c.stored_code(r), effective);
                    }
                }
            }
        }
    }
}
