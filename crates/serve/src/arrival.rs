//! Arrival processes: seeded open-loop generators (Poisson, bursty MMPP)
//! and the closed-loop client population.
//!
//! Open-loop traffic is materialized ahead of the simulation as a sorted
//! [`ArrivalTrace`], ten bytes per arrival — the generator is a pure
//! function of `(process, mix, horizon, seed)`, so the same inputs
//! produce the bitwise-identical request stream on every run and every
//! machine (the vendored `ChaCha8Rng` is a counter-based stream cipher;
//! no platform-dependent state). Closed-loop traffic cannot be
//! pregenerated — each client's next arrival depends on when its previous
//! request completed — so the simulator draws its think times from the
//! same seeded stream during the event loop.

use crate::request::{Request, RequestClass};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Open-loop Poisson arrivals — memoryless interarrivals, the classic
/// sustained-load model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonArrival {
    /// Mean arrival rate, requests per second.
    pub rate_rps: f64,
}

/// Open-loop two-state Markov-modulated Poisson process: the source
/// alternates between a calm state (`rate_lo_rps`) and a burst state
/// (`rate_hi_rps`), dwelling an exponentially distributed time in each.
/// Models bursty production traffic that defeats naive mean-rate
/// provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmppArrival {
    /// Arrival rate in the calm state, requests per second.
    pub rate_lo_rps: f64,
    /// Arrival rate in the burst state, requests per second.
    pub rate_hi_rps: f64,
    /// Mean dwell time in the calm state, ns.
    pub dwell_lo_ns: f64,
    /// Mean dwell time in the burst state, ns.
    pub dwell_hi_ns: f64,
}

/// Closed-loop population: `clients` concurrent clients, each issuing one
/// request, waiting for its completion, thinking for an exponentially
/// distributed time of mean `think_ns`, and repeating. In-flight demand
/// is bounded by `clients` *by construction*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopArrival {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Mean think time between a completion and the next request, ns.
    pub think_ns: f64,
}

/// An arrival process describing how requests enter the system.
///
/// (The variants wrap named structs rather than using struct variants
/// because the vendored `serde_derive` supports only unit and newtype
/// enum variants.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals.
    Poisson(PoissonArrival),
    /// Open-loop bursty MMPP arrivals.
    Mmpp(MmppArrival),
    /// Closed-loop client population.
    ClosedLoop(ClosedLoopArrival),
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate_rps` requests per second.
    pub fn poisson(rate_rps: f64) -> Self {
        ArrivalProcess::Poisson(PoissonArrival { rate_rps })
    }

    /// A two-state MMPP source.
    pub fn mmpp(rate_lo_rps: f64, rate_hi_rps: f64, dwell_lo_ns: f64, dwell_hi_ns: f64) -> Self {
        ArrivalProcess::Mmpp(MmppArrival { rate_lo_rps, rate_hi_rps, dwell_lo_ns, dwell_hi_ns })
    }

    /// A closed loop of `clients` clients with mean think time `think_ns`.
    pub fn closed_loop(clients: usize, think_ns: f64) -> Self {
        ArrivalProcess::ClosedLoop(ClosedLoopArrival { clients, think_ns })
    }

    /// The long-run mean offered rate in requests per second, ignoring
    /// queueing feedback (for closed loops this is the zero-latency upper
    /// bound `clients / think`).
    pub fn offered_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson(PoissonArrival { rate_rps }) => rate_rps,
            ArrivalProcess::Mmpp(MmppArrival {
                rate_lo_rps,
                rate_hi_rps,
                dwell_lo_ns,
                dwell_hi_ns,
            }) => {
                // Time-weighted average of the two states.
                (rate_lo_rps * dwell_lo_ns + rate_hi_rps * dwell_hi_ns)
                    / (dwell_lo_ns + dwell_hi_ns)
            }
            ArrivalProcess::ClosedLoop(ClosedLoopArrival { clients, think_ns }) => {
                clients as f64 / (think_ns * 1e-9)
            }
        }
    }

    /// Short label for reports (`poisson@2000rps`, `mmpp@500/4000rps`,
    /// `closed@16c`).
    pub fn label(&self) -> String {
        match *self {
            ArrivalProcess::Poisson(PoissonArrival { rate_rps }) => {
                format!("poisson@{rate_rps:.0}rps")
            }
            ArrivalProcess::Mmpp(MmppArrival { rate_lo_rps, rate_hi_rps, .. }) => {
                format!("mmpp@{rate_lo_rps:.0}/{rate_hi_rps:.0}rps")
            }
            ArrivalProcess::ClosedLoop(ClosedLoopArrival { clients, .. }) => {
                format!("closed@{clients}c")
            }
        }
    }
}

/// A weighted mix of request classes: each arrival samples its class
/// proportionally to the weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    entries: Vec<(RequestClass, f64)>,
}

impl WorkloadMix {
    /// A mix over `entries` (class, weight) pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or holds more than 65 536 classes
    /// (an [`ArrivalTrace`] names a class by a `u16` index), or if any
    /// weight is not positive.
    pub fn new(entries: Vec<(RequestClass, f64)>) -> Self {
        assert!(!entries.is_empty(), "workload mix needs at least one class");
        assert!(entries.len() <= 1 << 16, "a workload mix holds at most 65 536 classes");
        assert!(
            entries.iter().all(|(_, w)| w.is_finite() && *w > 0.0),
            "mix weights must be positive"
        );
        WorkloadMix { entries }
    }

    /// The single-class mix.
    pub fn single(class: RequestClass) -> Self {
        WorkloadMix::new(vec![(class, 1.0)])
    }

    /// Every class in the mix, in declaration order.
    pub fn classes(&self) -> Vec<RequestClass> {
        self.entries.iter().map(|(c, _)| *c).collect()
    }

    /// Samples a class proportionally to the weights.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RequestClass {
        self.entries[self.sample_index(rng)].0
    }

    /// Samples an index into [`WorkloadMix::classes`] proportionally to
    /// the weights, from one uniform draw.
    fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen::<f64>() * total;
        for (i, (_, w)) in self.entries.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        // Floating-point edge: x consumed the entire mass.
        self.entries.len() - 1
    }
}

/// An open-loop arrival stream as [`generate_open_loop`] draws it, ten
/// bytes per arrival: arrival `i` has id `i`, arrives at
/// [`ArrivalTrace::time_ns`] and belongs to the mix class its `u16`
/// index names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrivalTrace {
    /// Arrival times, ns, non-decreasing.
    times_ns: Vec<f64>,
    /// Each arrival's index into `classes`.
    class_idx: Vec<u16>,
    /// The mix's classes, in declaration order.
    classes: Vec<RequestClass>,
}

impl ArrivalTrace {
    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// True when no request arrives before the horizon.
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// Arrival time of arrival `i`, ns.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn time_ns(&self, i: usize) -> f64 {
        self.times_ns[i]
    }

    /// Arrival `i` as a request.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn request(&self, i: usize) -> Request {
        Request {
            id: i as u64,
            class: self.classes[usize::from(self.class_idx[i])],
            arrive_ns: self.times_ns[i],
            client: None,
        }
    }

    /// Every arrival as a request, in arrival order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Request> + '_ {
        (0..self.len()).map(|i| self.request(i))
    }

    /// How many arrivals each mix class has, in mix order.
    pub(crate) fn class_counts(&self) -> Vec<(RequestClass, usize)> {
        let mut counts = vec![0; self.classes.len()];
        for &i in &self.class_idx {
            counts[usize::from(i)] += 1;
        }
        self.classes.iter().copied().zip(counts).collect()
    }

    fn push(&mut self, arrive_ns: f64, class_idx: usize) {
        self.times_ns.push(arrive_ns);
        self.class_idx.push(u16::try_from(class_idx).expect("mix indices fit in u16"));
    }
}

/// An exponential sample with the given mean (`mean > 0`), via inverse
/// transform on a uniform draw. `1 - u` keeps the argument of `ln`
/// strictly positive for `u ∈ [0, 1)`.
pub(crate) fn exp_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0 && mean.is_finite(), "exponential mean must be positive");
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

/// The arrival count [`generate_open_loop`] reserves room for: the mean
/// count over the horizon plus six standard deviations of a Poisson
/// count, so a Poisson trace is allocated once. An MMPP count varies
/// more, and its trace may still grow past this.
fn reserved_len(process: &ArrivalProcess, horizon_ns: f64) -> usize {
    let mean = process.offered_rps() * horizon_ns * 1e-9;
    (mean + 6.0 * mean.sqrt() + 16.0) as usize
}

/// Materializes the open-loop arrival stream of `process` over
/// `[0, horizon_ns)`: request ids are assigned in arrival order starting
/// at 0 and classes are drawn from `mix`, one uniform draw after each
/// arrival time's. Deterministic in `(process, mix, horizon_ns, seed)`.
///
/// # Panics
///
/// Panics if `process` is [`ArrivalProcess::ClosedLoop`] (closed-loop
/// arrivals are generated inside the simulator), if a rate or dwell time
/// is not positive, or if `horizon_ns` is not positive.
pub fn generate_open_loop(
    process: &ArrivalProcess,
    mix: &WorkloadMix,
    horizon_ns: f64,
    seed: u64,
) -> ArrivalTrace {
    use rand::SeedableRng;
    assert!(horizon_ns > 0.0 && horizon_ns.is_finite(), "horizon must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let len = reserved_len(process, horizon_ns);
    let mut out = ArrivalTrace {
        times_ns: Vec::with_capacity(len),
        class_idx: Vec::with_capacity(len),
        classes: mix.classes(),
    };
    match *process {
        ArrivalProcess::Poisson(PoissonArrival { rate_rps }) => {
            assert!(rate_rps > 0.0, "Poisson rate must be positive");
            let mean_gap_ns = 1e9 / rate_rps;
            let mut t = exp_sample(&mut rng, mean_gap_ns);
            while t < horizon_ns {
                out.push(t, mix.sample_index(&mut rng));
                t += exp_sample(&mut rng, mean_gap_ns);
            }
        }
        ArrivalProcess::Mmpp(MmppArrival {
            rate_lo_rps,
            rate_hi_rps,
            dwell_lo_ns,
            dwell_hi_ns,
        }) => {
            assert!(rate_lo_rps > 0.0 && rate_hi_rps > 0.0, "MMPP rates must be positive");
            assert!(dwell_lo_ns > 0.0 && dwell_hi_ns > 0.0, "MMPP dwell times must be positive");
            let mut t = 0.0f64;
            let mut high = false; // start calm
            let mut switch_at = exp_sample(&mut rng, dwell_lo_ns);
            loop {
                let rate = if high { rate_hi_rps } else { rate_lo_rps };
                let candidate = t + exp_sample(&mut rng, 1e9 / rate);
                if candidate >= switch_at {
                    // The state flips before the candidate arrival; the
                    // memorylessness of the exponential lets us discard
                    // the candidate and resample from the switch point.
                    t = switch_at;
                    high = !high;
                    let dwell = if high { dwell_hi_ns } else { dwell_lo_ns };
                    switch_at = t + exp_sample(&mut rng, dwell);
                } else {
                    t = candidate;
                    if t >= horizon_ns {
                        break;
                    }
                    out.push(t, mix.sample_index(&mut rng));
                }
                if t >= horizon_ns {
                    break;
                }
            }
        }
        ArrivalProcess::ClosedLoop(_) => {
            panic!("closed-loop arrivals are generated inside the simulator, not ahead of it")
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelKind;
    use rand::SeedableRng;

    fn tiny_mix() -> WorkloadMix {
        WorkloadMix::single(RequestClass::new(ModelKind::Tiny, 8))
    }

    #[test]
    fn poisson_same_seed_is_bitwise_identical() {
        let p = ArrivalProcess::poisson(10_000.0);
        let a = generate_open_loop(&p, &tiny_mix(), 1e9, 7);
        let b = generate_open_loop(&p, &tiny_mix(), 1e9, 7);
        assert_eq!(a, b);
        let c = generate_open_loop(&p, &tiny_mix(), 1e9, 8);
        assert_ne!(a, c);
    }

    /// FNV-1a over `(id, class, arrive_ns bits)` of every arrival the
    /// generator yields over 20 ms, each field as little-endian `u64`
    /// bytes.
    fn stream_digest(process: &ArrivalProcess, mix: &WorkloadMix, seed: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let reqs = generate_open_loop(process, mix, 2e7, seed);
        assert!(reqs.len() > 100, "{} arrivals", reqs.len());
        for r in reqs.iter() {
            let words = [r.id, r.class.model as u64, r.class.seq_len as u64, r.arrive_ns.to_bits()];
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn arrival_streams_match_their_pinned_digests() {
        // Listed out of class order, so a class's mix index is not its
        // rank in class order.
        let mix = WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::Tiny, 64), 1.0),
            (RequestClass::new(ModelKind::BertBase, 128), 2.0),
            (RequestClass::new(ModelKind::Tiny, 16), 3.0),
        ]);
        let poisson = ArrivalProcess::poisson(80_000.0);
        let mmpp = ArrivalProcess::mmpp(20_000.0, 160_000.0, 1e6, 5e5);
        let pinned: [(&ArrivalProcess, u64, u64); 4] = [
            (&poisson, 7, 0x69ce_7b4f_5bc7_8620),
            (&poisson, 11, 0x2f68_1071_980e_a1f0),
            (&mmpp, 7, 0x9344_df89_325d_999f),
            (&mmpp, 11, 0x5ea8_6249_3284_224f),
        ];
        for (process, seed, digest) in pinned {
            let got = stream_digest(process, &mix, seed);
            assert_eq!(got, digest, "{} at seed {seed}: {got:#018x}", process.label());
        }
    }

    #[test]
    fn open_loop_traces_never_outgrow_their_reservation() {
        // serve_open's rate over a short horizon, and the open-loop
        // processes of the serve test gallery at their seeds.
        let mmpp = ArrivalProcess::mmpp(4_000.0, 60_000.0, 2e6, 1e6);
        let cases = [
            (ArrivalProcess::poisson(80_000.0), 6e7, 7),
            (ArrivalProcess::poisson(80_000.0), 6e7, 11),
            (ArrivalProcess::poisson(20_000.0), 5e6, 42),
            (ArrivalProcess::poisson(120_000.0), 2e7, 99),
            (mmpp, 5e6, 17),
        ];
        for (process, horizon_ns, seed) in cases {
            let trace = generate_open_loop(&process, &tiny_mix(), horizon_ns, seed);
            let reserved = reserved_len(&process, horizon_ns);
            for capacity in [trace.times_ns.capacity(), trace.class_idx.capacity()] {
                assert!(
                    trace.len() <= capacity && capacity <= reserved,
                    "{} over {horizon_ns} ns at seed {seed}: {} arrivals, capacity {capacity}, \
                     reserved {reserved}",
                    process.label(),
                    trace.len()
                );
            }
        }
    }

    #[test]
    fn poisson_arrivals_sorted_and_in_horizon() {
        let p = ArrivalProcess::poisson(50_000.0);
        let trace = generate_open_loop(&p, &tiny_mix(), 1e8, 3);
        assert!(!trace.is_empty());
        let reqs: Vec<Request> = trace.iter().collect();
        for w in reqs.windows(2) {
            assert!(w[0].arrive_ns <= w[1].arrive_ns);
        }
        assert!(reqs.iter().all(|r| r.arrive_ns < 1e8 && r.arrive_ns > 0.0));
        assert!(reqs.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }

    #[test]
    fn mmpp_bursts_beat_calm_rate() {
        let p = ArrivalProcess::mmpp(1_000.0, 100_000.0, 5e6, 5e6);
        let trace = generate_open_loop(&p, &tiny_mix(), 1e9, 11);
        // Mean of the two states is ~50.5k rps over 1 s.
        assert!(trace.len() > 10_000, "{}", trace.len());
        let reqs: Vec<Request> = trace.iter().collect();
        for w in reqs.windows(2) {
            assert!(w[0].arrive_ns <= w[1].arrive_ns);
        }
    }

    #[test]
    fn offered_rate_math() {
        assert_eq!(ArrivalProcess::poisson(123.0).offered_rps(), 123.0);
        let mmpp = ArrivalProcess::mmpp(100.0, 300.0, 1e6, 1e6);
        assert!((mmpp.offered_rps() - 200.0).abs() < 1e-9);
        let closed = ArrivalProcess::closed_loop(10, 1e6);
        // 10 clients / 1 ms think = 10k rps upper bound.
        assert!((closed.offered_rps() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let a = RequestClass::new(ModelKind::Tiny, 8);
        let b = RequestClass::new(ModelKind::Tiny, 16);
        let mix = WorkloadMix::new(vec![(a, 9.0), (b, 1.0)]);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 10_000;
        let hits_b = (0..n).filter(|_| mix.sample(&mut rng) == b).count();
        let frac = hits_b as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "{frac}");
        assert_eq!(mix.classes(), vec![a, b]);
    }

    #[test]
    fn sample_and_sample_index_make_the_same_draw() {
        let classes = [64, 8, 32].map(|seq| RequestClass::new(ModelKind::Tiny, seq));
        let mix =
            WorkloadMix::new(classes.iter().zip([3.0, 1.0, 0.5]).map(|(&c, w)| (c, w)).collect());
        let mut by_class = ChaCha8Rng::seed_from_u64(13);
        let mut by_index = ChaCha8Rng::seed_from_u64(13);
        for _ in 0..1_000 {
            assert_eq!(mix.sample(&mut by_class), classes[mix.sample_index(&mut by_index)]);
        }
        assert_eq!(
            by_class.gen::<u64>(),
            by_index.gen::<u64>(),
            "both leave the stream in one state"
        );
    }

    #[test]
    #[should_panic(expected = "at most 65 536 classes")]
    fn oversized_mix_rejected() {
        let class = RequestClass::new(ModelKind::Tiny, 8);
        let _ = WorkloadMix::new(vec![(class, 1.0); (1 << 16) + 1]);
    }

    #[test]
    fn exp_sample_mean_converges() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 50_000;
        let mean = 250.0;
        let total: f64 = (0..n).map(|_| exp_sample(&mut rng, mean)).sum();
        let observed = total / n as f64;
        assert!((observed - mean).abs() / mean < 0.03, "{observed}");
    }

    #[test]
    #[should_panic(expected = "inside the simulator")]
    fn closed_loop_cannot_pregenerate() {
        let p = ArrivalProcess::closed_loop(4, 1e6);
        let _ = generate_open_loop(&p, &tiny_mix(), 1e9, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn empty_mix_rejected() {
        let _ = WorkloadMix::new(vec![(RequestClass::new(ModelKind::Tiny, 8), 0.0)]);
    }
}
