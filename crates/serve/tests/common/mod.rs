//! The config gallery the differential suites share: six operating
//! points that between them reach every event kind, every terminal path,
//! and every control-plane branch of the serving loop.

use star_serve::{
    ArrivalProcess, AutoscaleConfig, BatchPolicy, ControlConfig, DequeuePolicy, ModelKind,
    PlacementPolicy, RequestClass, ServeConfig, ServiceModelConfig, WorkloadMix,
};

/// Saturating mixed workload on one instance: completions (good and
/// late), expirations, and rejections all occur, so every event kind and
/// every terminal path is exercised.
pub fn stress_config() -> ServeConfig {
    ServeConfig {
        fleet: 1,
        policy: BatchPolicy::new(4, 50_000.0),
        arrival: ArrivalProcess::poisson(120_000.0),
        mix: WorkloadMix::new(vec![
            (RequestClass::new(ModelKind::Tiny, 16), 0.8),
            (RequestClass::new(ModelKind::Tiny, 32), 0.2),
        ]),
        horizon_ns: 2e7,
        seed: 99,
        max_queue: 16,
        deadline_ns: 1e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    }
}

/// Bursty modulated arrivals: high/low dwell phases stress the
/// window-expire path.
pub fn mmpp_config() -> ServeConfig {
    let mut cfg = ServeConfig::example();
    cfg.arrival = ArrivalProcess::mmpp(4_000.0, 60_000.0, 2e6, 1e6);
    cfg.seed = 17;
    cfg
}

/// Closed-loop clients: arrivals are generated *during* the run (each
/// completion re-arms a client), so the in-loop push path carries every
/// arrival.
pub fn closed_loop_config() -> ServeConfig {
    let mut cfg = ServeConfig::example();
    cfg.arrival = ArrivalProcess::closed_loop(24, 250_000.0);
    cfg.horizon_ns = 2e7;
    cfg.seed = 5;
    cfg
}

/// Weighted-fair dequeue + the deterministic autoscaler + least-loaded
/// placement over the saturating stress mix: `ScaleCheck` events, the
/// WFQ virtual-time re-keying, and load-aware placement all run.
pub fn wfq_autoscale_config() -> ServeConfig {
    let mut cfg = stress_config();
    cfg.fleet = 2;
    cfg.control = ControlConfig {
        dequeue: DequeuePolicy::weighted_fair(vec![
            (RequestClass::new(ModelKind::Tiny, 16), 3.0),
            (RequestClass::new(ModelKind::Tiny, 32), 1.0),
        ]),
        placement: PlacementPolicy::LeastLoaded,
        autoscale: Some(AutoscaleConfig::new(1, 4)),
        instance_services: Vec::new(),
    };
    cfg
}

/// Earliest-deadline-first over a heterogeneous q5.3/q3.5 fleet with
/// energy-greedy placement on the bursty MMPP arrivals: per-class
/// deadline keys and per-instance cost sheets.
pub fn edf_hetero_config() -> ServeConfig {
    let mut cfg = mmpp_config();
    let q35 = ServiceModelConfig { format: (3, 5), ..ServiceModelConfig::default() };
    cfg.control = ControlConfig {
        dequeue: DequeuePolicy::earliest_deadline(vec![(
            RequestClass::new(ModelKind::Tiny, 16),
            5e5,
        )]),
        placement: PlacementPolicy::EnergyGreedy,
        autoscale: None,
        instance_services: vec![ServiceModelConfig::default(), q35],
    };
    cfg
}

/// The full gallery, by name.
pub fn configs() -> Vec<(&'static str, ServeConfig)> {
    vec![
        ("example", ServeConfig::example()),
        ("stress", stress_config()),
        ("mmpp", mmpp_config()),
        ("closed_loop", closed_loop_config()),
        ("wfq_autoscale", wfq_autoscale_config()),
        ("edf_hetero", edf_hetero_config()),
    ]
}
