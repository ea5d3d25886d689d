//! `star-serve`: a deterministic discrete-event inference-serving
//! simulator on top of the STAR accelerator models.
//!
//! The layers below this crate answer *"what does one attention layer
//! cost on the hardware?"* (`star-core` pipeline model, `star-arch` cost
//! sheets). This crate answers the system question one level up: *"what
//! latency, goodput, and energy does a **fleet** of STAR instances
//! deliver under load?"* — the question every serving stack (dynamic
//! batching, admission control, SLO accounting) exists to answer.
//!
//! # Architecture
//!
//! | Module | Role |
//! |---|---|
//! | [`request`] | Request classes (model × sequence length) and requests |
//! | [`arrival`] | Seeded Poisson / bursty MMPP / closed-loop arrival processes |
//! | [`batch`] | The size-or-timeout dynamic batching policy |
//! | [`model`] | Service costs per batched invocation, grounded in `star-arch` |
//! | [`sim`] | The seeded, totally ordered discrete-event loop |
//! | [`control`] | Fleet control plane: dequeue policies, autoscaler, heterogeneous placement |
//! | [`flight`] | Incident flight recorder: bounded event ring, trigger engine, root-cause dumps |
//! | [`blame`] | Critical-path blame attribution + the deterministic what-if engine |
//! | [`slo`] | Exact latency quantiles, goodput, per-class breakdowns, burn-rate monitor |
//! | [`trace`] | Per-request and per-batch trace records, span trees rendered when read, Perfetto export |
//! | [`health`] | Wear ledgers, thermal/drift monitors, fleet degradation reporting |
//! | [`profile`] | Simulator self-profiling: deterministic work counters, wall-clock phases |
//! | [`sweep`] | Parameter sweeps fanned out over `star-exec` |
//!
//! [`simulate`] returns a run's report; [`simulate_observed`] also
//! returns the output of each observer an [`Observe`] set attaches.
//!
//! # Determinism
//!
//! One simulation is **bitwise replayable**: all randomness flows from a
//! single `ChaCha8Rng` seeded by [`ServeConfig::seed`] and consumed in
//! event order, events are totally ordered by `(time, sequence)`, and
//! every collection iterates deterministically. One binary heap holds
//! the pending events. Execution parallelism stays at the boundaries:
//! sweeps parallelize *across* simulations via [`star_exec::Executor`],
//! whose index-ordered reduction (plus the scoped-telemetry absorb
//! protocol) keeps the full sweep output byte-identical for any worker
//! count.
//!
//! # Example
//!
//! ```
//! use star_serve::{simulate, simulate_observed, Observe, ServeConfig};
//!
//! let cfg = ServeConfig::example();
//! let report = simulate(&cfg);
//! assert_eq!(report.arrivals, report.completed + report.rejected + report.expired);
//! assert!(report.goodput_rps > 0.0);
//! assert_eq!(report, simulate(&cfg)); // bitwise replay
//! let traced = simulate_observed(&cfg, &Observe { trace: true, ..Observe::default() });
//! assert_eq!(traced.report, report); // observers never move the report
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod batch;
pub mod blame;
pub mod control;
pub mod flight;
pub mod health;
pub mod model;
pub mod profile;
pub mod request;
pub mod sim;
pub mod slo;
pub mod sweep;
pub mod trace;

pub use arrival::{generate_open_loop, ArrivalProcess, ArrivalTrace, WorkloadMix};
pub use batch::BatchPolicy;
pub use blame::{
    run_what_ifs, BatchBlame, BlameComponents, BlameOutcome, BlameReport, BlockedPair,
    BlockingChain, ClassBlame, InstanceBlame, PhaseScale, RequestBlame, WhatIf, WhatIfReport,
    WhatIfRow, BLAME_SIDECAR_KEY,
};
pub use control::{
    AutoscaleConfig, ClassShare, ControlConfig, ControlReport, DequeuePolicy, EdfPolicy,
    PlacementPolicy, ScaleDirection, ScaleEvent, WeightedFairPolicy,
};
pub use flight::{
    ArrivalDelta, ClassIncidentStats, EventRecord, FlightConfig, FlightEventKind, FlightOutcome,
    IncidentDump, IncidentExemplar, IncidentReport, InstanceIncidentStats, LatencyWaterfall,
    TerminalRecord, TriggerKind, TriggerRecord, FLIGHT_SIDECAR_KEY,
};
pub use health::{
    invocation_wear, AlarmKind, FleetHealthReport, FleetHealthSample, HealthAlarm, HealthConfig,
    HealthModel, HealthProjection, InstanceHealthReport, InstanceHealthSample, WearCounts,
    WearLedger, WearRates,
};
pub use model::{
    BatchCost, ClassService, InvocationPhases, ServiceModel, ServiceModelConfig, ServicePhase,
};
pub use profile::{Pow2Hist, SimProfile, WorkCounters, HIST_BUCKETS, PROFILE_SIDECAR_KEY};
pub use request::{ModelKind, Request, RequestClass};
pub use sim::{
    simulate, simulate_full, simulate_observed, simulate_profiled, Observe, ServeConfig, SimOutcome,
};
pub use slo::{
    BurnWindow, ClassSloReport, Exemplar, LatencyStats, ServeReport, SloAnalysis, SloPolicy,
};
pub use sweep::{grid, run_sweep, SweepCase, SweepResult};
pub use trace::{
    BatchTrace, RequestOutcome, RequestTrace, ServeTrace, SystemSample, TRACE_SIDECAR_KEY,
};
