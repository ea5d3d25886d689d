//! `star-cli` — a small command-line front end to the STAR reproduction.
//!
//! ```sh
//! cargo run --bin star_cli -- help
//! cargo run --bin star_cli -- softmax q5.3 1.0 2.0 3.0
//! cargo run --bin star_cli -- geometry q5.3
//! cargo run --bin star_cli -- engines
//! cargo run --bin star_cli -- fig3
//! ```

use star::arch::{Accelerator, GpuModel, MatMulEngine, MatMulEngineConfig, RramAccelerator};
use star::attention::{AttentionConfig, ExactSoftmax, RowSoftmax};
use star::core::{
    pipeline_chrome_trace, CmosBaselineSoftmax, PipelineMode, RowDurations, Softermax,
    SoftmaxEngine, StarSoftmax, StarSoftmaxConfig, UtilizationReport,
};
use star::fixed::QFormat;
use std::process::ExitCode;

const USAGE: &str = "star-cli — STAR (DATE 2023) RRAM softmax engine reproduction

USAGE:
    star-cli <command> [args]

COMMANDS:
    softmax <format> <scores...>   run the engine on a score row vs exact
                                   (format: q<int>.<frac>, e.g. q5.2)
    geometry <format>              print the engine's crossbar shapes
    engines                        Table-I style area/power of all designs
    fig3 [seq]                     computing-efficiency comparison
    trace <format> [seq]           emit the vector-grained attention row
                                   pipeline as Chrome trace-event JSON on
                                   stdout (open in https://ui.perfetto.dev);
                                   utilization summary goes to stderr
    metrics <format> [seq]         run a representative softmax workload and
                                   print the telemetry counter/gauge table
    serve [rate] [fleet] [batch] [window_us] [--trace[=PATH]] [--flight[=PATH]]
                                   simulate a fleet of STAR instances serving
                                   Poisson BERT-base/128 traffic against a
                                   2 ms SLO and print the goodput/latency
                                   report (defaults: 16000 rps, 2 instances,
                                   batch 8, 50 us window). With --trace,
                                   also write per-request span trees plus
                                   queue/utilization counter tracks as
                                   Perfetto-loadable JSON (default path
                                   serve_trace.json) and print the SLO
                                   burn-rate analysis. --flight arms the
                                   always-on incident flight recorder
                                   (bounded event ring +
                                   deterministic triggers: SLO burn,
                                   expiry burst, queue depth); when a
                                   trigger fires the captured window and
                                   a root-cause report are written as
                                   Perfetto-loadable JSON (default path
                                   flight_incident.json)
    trace-analyze <file> [k]       re-analyze a `serve --trace` file:
                                   availability, burn-rate windows,
                                   time-to-first-violation, per-class
                                   goodput/p99, and the k slowest requests
                                   with their span decomposition (default 5).
                                   Incident dumps from `serve --flight` and
                                   blame dumps from `blame --trace` are
                                   recognized and re-analyzed too
    incident-analyze <file>        re-analyze a `serve --flight` incident
                                   dump: triggers, captured window, latency
                                   waterfall, arrival-rate delta, per-class
                                   and per-instance saturation, and the
                                   slowest exemplars
    health [rate] [fleet] [batch] [window_us] [--level]
                                   run the serve simulation with the device
                                   health monitor: per-instance wear ledgers,
                                   temperature/drift/accuracy-margin gauges,
                                   wear skew, alarms, and the sustained-load
                                   projection (time to first degradation,
                                   lifetime inferences). --level enables
                                   round-robin wear-leveling placement
    profile [rate] [fleet] [batch] [window_us] [--trace[=PATH]]
                                   run the serve simulation with the
                                   simulator self-profiler: deterministic
                                   work counters (events, heap traffic,
                                   dispatch scans — machine-independent)
                                   plus the wall-clock top-phases table.
                                   With --trace, also write a Chrome
                                   meta-trace of the simulator's own time
                                   (default path profile_trace.json)
    control [rate] [fleet] [batch] [window_us] [--policy=P] [--placement=P]
            [--autoscale=MIN:MAX|off]
                                   run the fleet control plane on the mixed
                                   70/30 premium/economy workload under a
                                   bursty MMPP ramp (low phase = rate,
                                   high phase = 5x): per-class fairness
                                   table, the autoscaler's scale-event
                                   timeline, and the instance-seconds cost
                                   figure. --policy is fifo, wfq (premium
                                   weighted 2:1) or edf (premium 2 ms /
                                   economy 1 ms offsets); --placement is
                                   first-idle, least-loaded, fastest or
                                   energy-greedy; --autoscale bounds the
                                   fleet (default 1:4, `off` pins it).
                                   Defaults: 8000 rps low phase, fleet 1,
                                   batch 8, 50 us window, wfq/least-loaded
    blame [rate] [fleet] [batch] [window_us] [--trace[=PATH]]
                                   run the serve simulation with the
                                   critical-path blame recorder: every
                                   request's latency split into causally
                                   attributed waits (admission queueing,
                                   batch-window hold, instance-busy, and
                                   the five invocation phases) that sum
                                   back to the latency bitwise, plus
                                   per-class/per-instance blame tables,
                                   mean-vs-p99-tail comparison, and the
                                   top blocking chains. With --trace,
                                   also write the tables plus a Perfetto
                                   view as JSON (default path
                                   blame_trace.json). Blame is pure
                                   observation: the report is bitwise
                                   identical to an unblamed run
    whatif [rate] [fleet] [batch] [window_us]
                                   deterministic what-if profiling: re-run
                                   the same seeded workload under each
                                   standard intervention (halve each
                                   service phase, zero the batch window,
                                   +1 instance, least-loaded placement)
                                   and print the ranked Δp99/Δgoodput/
                                   Δenergy table — an exact, replayable
                                   form of causal profiling
    help                           this message

Paper formats: CNEWS = q5.2 (8 bits), MRPC = q5.3 (9 bits), CoLA = q4.2 (7 bits).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let result = match cmd {
        "softmax" => cmd_softmax(&args[1..]),
        "geometry" => cmd_geometry(&args[1..]),
        "engines" => cmd_engines(),
        "fig3" => cmd_fig3(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "trace-analyze" => cmd_trace_analyze(&args[1..]),
        "incident-analyze" => cmd_incident_analyze(&args[1..]),
        "health" => cmd_health(&args[1..]),
        "profile" => cmd_profile(&args[1..]),
        "control" => cmd_control(&args[1..]),
        "blame" => cmd_blame(&args[1..]),
        "whatif" => cmd_whatif(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `q<int>.<frac>`.
fn parse_format(text: &str) -> Result<QFormat, String> {
    let body =
        text.strip_prefix('q').ok_or_else(|| format!("format `{text}` must look like q5.2"))?;
    let (int_str, frac_str) =
        body.split_once('.').ok_or_else(|| format!("format `{text}` must look like q5.2"))?;
    let int: u8 = int_str.parse().map_err(|_| format!("bad integer bits in `{text}`"))?;
    let frac: u8 = frac_str.parse().map_err(|_| format!("bad fraction bits in `{text}`"))?;
    QFormat::new(int, frac).map_err(|e| e.to_string())
}

fn cmd_softmax(args: &[String]) -> Result<(), String> {
    let format = parse_format(args.first().ok_or("softmax needs a format, e.g. q5.2")?)?;
    if args.len() < 2 {
        return Err("softmax needs at least one score".into());
    }
    let scores: Vec<f64> = args[1..]
        .iter()
        .map(|a| a.parse::<f64>().map_err(|_| format!("`{a}` is not a number")))
        .collect::<Result<_, _>>()?;

    let mut engine = StarSoftmax::new(StarSoftmaxConfig::new(format)).map_err(|e| e.to_string())?;
    let star = engine.softmax_row(&scores);
    let exact = ExactSoftmax::new().softmax_row(&scores);
    println!("STAR softmax engine at {format} ({} bits)", format.total_bits());
    println!("{:>10} {:>10} {:>10} {:>10}", "score", "star", "exact", "|err|");
    for ((s, p), q) in scores.iter().zip(&star).zip(&exact) {
        println!("{s:>10.4} {p:>10.6} {q:>10.6} {:>10.2e}", (p - q).abs());
    }
    println!("engine sum: {:.6}", star.iter().sum::<f64>());
    Ok(())
}

fn cmd_geometry(args: &[String]) -> Result<(), String> {
    let format = parse_format(args.first().ok_or("geometry needs a format, e.g. q5.3")?)?;
    let engine = StarSoftmax::new(StarSoftmaxConfig::new(format)).map_err(|e| e.to_string())?;
    let g = engine.geometry();
    println!("engine geometry at {format} ({} bits):", format.total_bits());
    println!("  cam/sub crossbar : {}", g.cam_sub);
    println!("  exp cam crossbar : {}", g.exp_cam);
    println!("  exp lut crossbar : {}", g.lut);
    println!("  sum vmm crossbar : {}", g.vmm);
    let sheet = engine.cost_sheet();
    println!(
        "  engine budget    : {:.1} um^2, {:.3} mW",
        sheet.total_area().value(),
        sheet.total_power().value()
    );
    Ok(())
}

fn cmd_engines() -> Result<(), String> {
    let format = QFormat::CNEWS;
    let baseline = CmosBaselineSoftmax::new(8);
    let softermax = Softermax::new(format, 8);
    let star = StarSoftmax::new(StarSoftmaxConfig::new(format)).map_err(|e| e.to_string())?;
    let base_sheet = baseline.cost_sheet();
    println!("softmax designs at the Table I operating point ({format}, seq 128):");
    println!(
        "{:<28} {:>12} {:>10} {:>8} {:>8}",
        "design", "area[um^2]", "power[mW]", "area x", "power x"
    );
    for sheet in [&base_sheet, &softermax.cost_sheet(), &star.cost_sheet()] {
        println!(
            "{:<28} {:>12.1} {:>10.3} {:>8.3} {:>8.3}",
            sheet.name(),
            sheet.total_area().value(),
            sheet.total_power().value(),
            sheet.area_ratio_to(&base_sheet),
            sheet.power_ratio_to(&base_sheet)
        );
    }
    println!("\npaper: softermax 0.33x/0.12x; ours (8-bit) 0.06x/0.05x");
    Ok(())
}

fn cmd_fig3(args: &[String]) -> Result<(), String> {
    let seq: usize = match args.first() {
        Some(a) => a.parse().map_err(|_| format!("`{a}` is not a sequence length"))?,
        None => 128,
    };
    if seq == 0 {
        return Err("sequence length must be positive".into());
    }
    let cfg = AttentionConfig::bert_base(seq);
    println!("computing efficiency, BERT-base attention layer, seq {seq}:");
    println!("{:<18} {:>12} {:>12}", "design", "latency[us]", "GOPs/s/W");
    for r in [
        GpuModel::titan_rtx().evaluate(&cfg),
        RramAccelerator::pipelayer().evaluate(&cfg),
        RramAccelerator::retransformer().evaluate(&cfg),
        RramAccelerator::star().evaluate(&cfg),
    ] {
        println!("{:<18} {:>12.1} {:>12.2}", r.name, r.latency.as_us(), r.efficiency_gops_per_watt);
    }
    Ok(())
}

/// Parses an optional trailing sequence-length argument (default 128).
fn parse_seq(arg: Option<&String>) -> Result<usize, String> {
    let seq = match arg {
        Some(a) => a.parse().map_err(|_| format!("`{a}` is not a sequence length"))?,
        None => 128,
    };
    if seq == 0 {
        return Err("sequence length must be positive".into());
    }
    Ok(seq)
}

/// Per-row stage durations for a BERT-base attention layer at the paper
/// operating point: the ReTransformer-style MatMul engine for QKᵀ/PV and
/// the STAR softmax engine at `format` for the middle stage.
fn paper_row_durations(format: QFormat, seq: usize) -> Result<RowDurations, String> {
    let engine = StarSoftmax::new(StarSoftmaxConfig::new(format)).map_err(|e| e.to_string())?;
    let matmul = MatMulEngine::new(MatMulEngineConfig::paper());
    let dh = AttentionConfig::bert_base(seq).d_head();
    let qk = matmul.row_cost(dh, seq).latency.value();
    let av = matmul.row_cost(seq, dh).latency.value();
    let sm = engine.row_cost(seq).latency.value();
    Ok(RowDurations::uniform(seq, qk, sm, av))
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let format = parse_format(args.first().ok_or("trace needs a format, e.g. q5.3")?)?;
    let seq = parse_seq(args.get(1))?;
    let durations = paper_row_durations(format, seq)?;
    let trace = pipeline_chrome_trace(&durations, PipelineMode::VectorGrained, 1);
    // Pure JSON on stdout so the output pipes straight into a .json file.
    println!("{}", trace.to_json_string());
    for mode in PipelineMode::ALL {
        let report = UtilizationReport::from_durations(&durations, mode, 1);
        eprint!("{}", report.to_table());
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let format = parse_format(args.first().ok_or("metrics needs a format, e.g. q5.3")?)?;
    let seq = parse_seq(args.get(1))?;
    // Run the workload under a scoped registry so the table reflects
    // exactly this invocation, not whatever else the process did.
    let (result, snap) = star::telemetry::with_scoped(|| -> Result<(), String> {
        let mut engine =
            StarSoftmax::new(StarSoftmaxConfig::new(format)).map_err(|e| e.to_string())?;
        let mut baseline = CmosBaselineSoftmax::new(8);
        let mut softermax = Softermax::new(format, 8);
        // A deterministic, dynamic-range-covering score row.
        let scores: Vec<f64> =
            (0..seq).map(|i| ((i * 37 % 97) as f64 / 97.0 - 0.5) * 6.0).collect();
        let _ = engine.softmax_row(&scores);
        let _ = baseline.softmax_row(&scores);
        let _ = softermax.softmax_row(&scores);
        let durations = paper_row_durations(format, seq)?;
        for mode in PipelineMode::ALL {
            let _ = UtilizationReport::from_durations(&durations, mode, 1);
        }
        Ok(())
    });
    result?;
    println!("telemetry for one {format} softmax row (seq {seq}) + pipeline models:");
    print!("{}", snap.render_pretty());
    Ok(())
}

/// Parses a positional argument with a default, rejecting zero.
fn parse_positive<T: std::str::FromStr + PartialOrd + Default>(
    arg: Option<&String>,
    default: T,
    what: &str,
) -> Result<T, String> {
    let v = match arg {
        Some(a) => a.parse().map_err(|_| format!("`{a}` is not a valid {what}"))?,
        None => default,
    };
    if v <= T::default() {
        return Err(format!("{what} must be positive"));
    }
    Ok(v)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use star::serve::{
        simulate_observed, FlightConfig, Observe, ServiceModel, SloAnalysis, SloPolicy,
    };
    let (positional, [trace_path, flight_path]) = split_output_flags(
        args,
        [("--trace", "serve_trace.json"), ("--flight", "flight_incident.json")],
    )?;
    let cfg = serve_point_config(&positional)?;
    let (class, fleet, batch) = (cfg.mix.classes()[0], cfg.fleet, cfg.policy.max_batch);
    let service = ServiceModel::new(cfg.service.clone(), &[class]);
    let flight = flight_path.is_some().then(FlightConfig::default);
    let observe = Observe { trace: trace_path.is_some(), flight, ..Observe::default() };
    let outcome = simulate_observed(&cfg, &observe);
    let (r, trace, flight) = (outcome.report, outcome.trace, outcome.flight);

    println!("serving {class} on {fleet} STAR instance(s), policy {}:", cfg.policy);
    println!(
        "  zero-load floor {:.1} us/request, fleet capacity {:.0} rps at batch 1, {:.0} at batch {batch}",
        service.unit_latency_ns(class) / 1e3,
        service.peak_rps(class, 1) * fleet as f64,
        service.peak_rps(class, batch) * fleet as f64,
    );
    println!(
        "  arrivals {}   completed {}   good {}   late {}   rejected {}   expired {}",
        r.arrivals, r.completed, r.good, r.late, r.rejected, r.expired
    );
    println!(
        "  offered {:.0} rps   throughput {:.0} rps   goodput {:.0} rps (2 ms SLO)",
        r.offered_rps, r.throughput_rps, r.goodput_rps
    );
    println!(
        "  latency ms  p50 {:.3}   p95 {:.3}   p99 {:.3}   max {:.3}",
        r.latency.p50_ms, r.latency.p95_ms, r.latency.p99_ms, r.latency.max_ms
    );
    println!(
        "  queue   ms  p50 {:.3}   p95 {:.3}   p99 {:.3}",
        r.queue_delay.p50_ms, r.queue_delay.p95_ms, r.queue_delay.p99_ms
    );
    println!(
        "  batches {}   mean size {:.2}   utilization {:.1} %   energy/request {:.1} nJ",
        r.batches,
        r.mean_batch_size,
        r.mean_utilization * 100.0,
        r.energy_per_request_nj
    );
    if let (Some(path), Some(trace)) = (trace_path, trace) {
        let json = serde_json::to_string(&trace.to_object_json()).map_err(|e| e.to_string())?;
        std::fs::write(&path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "  trace: {} root spans, {} batch spans, {} samples -> {} (open in https://ui.perfetto.dev)",
            trace.requests.len(),
            trace.batches.len(),
            trace.samples.len(),
            path.display()
        );
        print_slo_analysis(&SloAnalysis::from_trace(&trace, SloPolicy::default(), 5));
    }
    if let (Some(path), Some(flight)) = (flight_path, flight) {
        println!(
            "  flight: {} event rows seen ({} retained / {} evicted), {} terminals, {} trigger(s)",
            flight.events_seen,
            flight.events_retained,
            flight.events_evicted,
            flight.terminals_seen,
            flight.triggers_fired
        );
        match flight.incidents.first() {
            None => println!("  flight: no trigger fired; nothing dumped"),
            Some(dump) => {
                let json =
                    serde_json::to_string(&dump.to_object_json()).map_err(|e| e.to_string())?;
                std::fs::write(&path, &json)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!(
                    "  flight: incident dump -> {} (open in https://ui.perfetto.dev, or `star-cli incident-analyze`)",
                    path.display()
                );
                print_incident(dump);
            }
        }
    }
    Ok(())
}

fn cmd_health(args: &[String]) -> Result<(), String> {
    use star::serve::{simulate_observed, HealthConfig, HealthModel, Observe, WearRates};
    let mut wear_leveling = false;
    let mut positional: Vec<&String> = Vec::new();
    for a in args {
        if a == "--level" {
            wear_leveling = true;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag `{a}`"));
        } else {
            positional.push(a);
        }
    }
    let cfg = serve_point_config(&positional)?;
    let (class, rate, fleet) = (cfg.mix.classes()[0], cfg.arrival.offered_rps(), cfg.fleet);
    let health_cfg = HealthConfig { wear_leveling, ..HealthConfig::default() };
    let observe = Observe { health: Some(health_cfg.clone()), ..Observe::default() };
    let outcome = simulate_observed(&cfg, &observe);
    let r = &outcome.report;
    let health = outcome.health.as_ref().expect("monitored run reports fleet health");

    println!(
        "fleet health: {class} at {rate:.0} rps on {fleet} instance(s), policy {}, \
         wear leveling {}:",
        cfg.policy,
        if wear_leveling { "on" } else { "off" }
    );
    println!(
        "  completed {}/{}   goodput {:.0} rps   p99 {:.3} ms   window {:.1} ms",
        r.completed,
        r.arrivals,
        r.goodput_rps,
        r.latency.p99_ms,
        r.makespan_ns / 1e6
    );
    println!(
        "  {:>4} {:>12} {:>14} {:>14} {:>9} {:>9} {:>12} {:>9}",
        "inst", "rows", "reads", "eff writes", "temp K", "peak K", "stuck frac", "margin"
    );
    for i in &health.instances {
        println!(
            "  {:>4} {:>12} {:>14} {:>14.4} {:>9.2} {:>9.2} {:>12.3e} {:>9.4}",
            i.instance,
            i.ledger.rows,
            i.ledger.reads(),
            i.ledger.effective_writes(health_cfg.read_disturb_per_read),
            i.health.temperature_kelvin,
            i.peak_temperature_kelvin,
            i.health.stuck_fraction,
            i.health.accuracy_margin,
        );
    }
    println!("  wear skew {:.4} (max-min over mean of per-instance rows)", health.wear_skew);
    if health.alarms.is_empty() {
        println!("  alarms: none inside the simulated window");
    } else {
        for a in &health.alarms {
            println!(
                "  alarm: instance {} {} at {:.3} ms (value {:.4}, threshold {:.4})",
                a.instance,
                a.kind.as_str(),
                a.t_ns / 1e6,
                a.value,
                a.threshold
            );
        }
    }

    // Sustained-load projection from the hottest instance's wear rates.
    let hottest =
        health.instances.iter().max_by_key(|i| i.ledger.rows).expect("fleet is non-empty");
    let rates = WearRates::from_ledger(&hottest.ledger, r.makespan_ns);
    let model = HealthModel::new(health_cfg.clone(), cfg.service.qformat());
    println!(
        "  sustained (instance {}): {:.3e} reads/s, {:.0} inferences/s, {:.0} mW \
         -> steady {:.2} K",
        hottest.instance,
        rates.reads_per_s,
        rates.inferences_per_s,
        rates.power_mw,
        model.steady_temperature(rates.power_mw)
    );
    match model.time_to_first_degradation_s(&rates) {
        Some(t) => println!(
            "  first degradation after {:.1} days  ({:.3e} inferences served)",
            t / 8.64e4,
            t * rates.inferences_per_s
        ),
        None => println!("  no degradation threshold is ever crossed at this load"),
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    use star::serve::simulate_profiled;
    let (positional, [trace_path]) = split_output_flags(args, [("--trace", "profile_trace.json")])?;
    let cfg = serve_point_config(&positional)?;
    let (class, rate, fleet) = (cfg.mix.classes()[0], cfg.arrival.offered_rps(), cfg.fleet);
    let outcome = simulate_profiled(&cfg);
    let r = &outcome.report;
    let profile = outcome.profile.as_ref().expect("profiled run carries a profile");

    println!(
        "simulator self-profile: {class} at {rate:.0} rps on {fleet} instance(s), policy {}:",
        cfg.policy
    );
    println!(
        "  simulated: arrivals {}   completed {}   goodput {:.0} rps   window {:.1} ms",
        r.arrivals,
        r.completed,
        r.goodput_rps,
        r.makespan_ns / 1e6
    );
    println!("  (the report above is bitwise identical to an unprofiled run)\n");
    print!("{}", profile.render());
    if let Some(path) = trace_path {
        let json = serde_json::to_string(&profile.to_object_json()).map_err(|e| e.to_string())?;
        std::fs::write(&path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "  meta-trace: {} phases -> {} (open in https://ui.perfetto.dev; \
             work counters ride in the `{}` sidecar)",
            profile.wall.entries().filter(|(_, s)| s.calls > 0).count(),
            path.display(),
            star::serve::PROFILE_SIDECAR_KEY
        );
    }
    Ok(())
}

fn cmd_control(args: &[String]) -> Result<(), String> {
    use star::serve::{
        simulate_observed, ArrivalProcess, AutoscaleConfig, BatchPolicy, ControlConfig,
        DequeuePolicy, ModelKind, Observe, PlacementPolicy, RequestClass, ScaleDirection,
        ServeConfig, ServiceModelConfig, WorkloadMix,
    };
    let premium = RequestClass::new(ModelKind::BertBase, 128);
    let economy = RequestClass::new(ModelKind::BertBase, 64);

    let mut policy_flag: Option<&str> = None;
    let mut placement_flag: Option<&str> = None;
    let mut autoscale_flag: Option<&str> = None;
    let mut positional: Vec<&String> = Vec::new();
    for a in args {
        if let Some(p) = a.strip_prefix("--policy=") {
            policy_flag = Some(p);
        } else if let Some(p) = a.strip_prefix("--placement=") {
            placement_flag = Some(p);
        } else if let Some(p) = a.strip_prefix("--autoscale=") {
            autoscale_flag = Some(p);
        } else if a.starts_with("--") {
            return Err(format!("unknown flag `{a}`"));
        } else {
            positional.push(a);
        }
    }
    let rate: f64 = parse_positive(positional.first().copied(), 8_000.0, "arrival rate (rps)")?;
    if !rate.is_finite() {
        return Err("arrival rate must be finite".into());
    }
    let fleet: usize = parse_positive(positional.get(1).copied(), 1, "fleet size")?;
    let batch: usize = parse_positive(positional.get(2).copied(), 8, "batch size")?;
    let window_us: f64 = match positional.get(3) {
        Some(a) => a.parse().map_err(|_| format!("`{a}` is not a window in us"))?,
        None => 50.0,
    };
    if !(window_us.is_finite() && window_us >= 0.0) {
        return Err("window must be finite and non-negative".into());
    }

    let dequeue = match policy_flag.unwrap_or("wfq") {
        "fifo" => DequeuePolicy::Fifo,
        "wfq" => DequeuePolicy::weighted_fair(vec![(premium, 2.0), (economy, 1.0)]),
        "edf" => DequeuePolicy::earliest_deadline(vec![(premium, 2e6), (economy, 1e6)]),
        other => return Err(format!("`{other}` is not a dequeue policy (fifo, wfq, edf)")),
    };
    let placement = match placement_flag.unwrap_or("least-loaded") {
        "first-idle" => PlacementPolicy::FirstIdle,
        "least-loaded" => PlacementPolicy::LeastLoaded,
        "fastest" => PlacementPolicy::FastestEligible,
        "energy-greedy" => PlacementPolicy::EnergyGreedy,
        other => {
            return Err(format!(
                "`{other}` is not a placement policy \
                 (first-idle, least-loaded, fastest, energy-greedy)"
            ))
        }
    };
    let autoscale = match autoscale_flag.unwrap_or("1:4") {
        "off" => None,
        bounds => {
            let (lo, hi) = bounds
                .split_once(':')
                .ok_or_else(|| format!("`--autoscale={bounds}` must be MIN:MAX or off"))?;
            let min: usize = lo.parse().map_err(|_| format!("`{lo}` is not a fleet bound"))?;
            let max: usize = hi.parse().map_err(|_| format!("`{hi}` is not a fleet bound"))?;
            if min < 1 || min > max {
                return Err(format!("autoscale bounds {min}:{max} must satisfy 1 <= MIN <= MAX"));
            }
            // The A10 burst-tracking cadence: 0.5 ms checks and cooldown.
            Some(AutoscaleConfig {
                check_interval_ns: 5e5,
                cooldown_ns: 5e5,
                ..AutoscaleConfig::new(min, max)
            })
        }
    };

    let cfg = ServeConfig {
        fleet,
        policy: BatchPolicy::new(batch, window_us * 1e3),
        arrival: ArrivalProcess::mmpp(rate, 5.0 * rate, 1e7, 1e7),
        mix: WorkloadMix::new(vec![(premium, 0.7), (economy, 0.3)]),
        horizon_ns: 1e8,
        seed: 2023,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig { dequeue, placement, autoscale, instance_services: Vec::new() },
    };
    let outcome = simulate_observed(&cfg, &Observe::default());
    let r = &outcome.report;

    println!(
        "fleet control: 70/30 {premium} / {economy} under MMPP {rate:.0}/{:.0} rps, \
         policy {}, 2 ms deadline:",
        5.0 * rate,
        cfg.policy
    );
    println!(
        "  completed {}/{}   attainment {:.4}   goodput {:.0} rps   p99 {:.3} ms   \
         window {:.1} ms",
        r.completed,
        r.arrivals,
        if r.arrivals == 0 { 1.0 } else { r.good as f64 / r.arrivals as f64 },
        r.goodput_rps,
        r.latency.p99_ms,
        r.makespan_ns / 1e6
    );
    let Some(c) = outcome.control else {
        println!(
            "  control plane at no-op defaults (fifo / first-idle / no autoscaler): \
             the run took the bitwise-identical baseline path and emits no report"
        );
        return Ok(());
    };

    println!("  dequeue {}   placement {}", c.dequeue, c.placement);
    println!(
        "  {:<20} {:>7} {:>10} {:>13} {:>8}",
        "class", "weight", "completed", "attained ms", "share"
    );
    for s in &c.shares {
        println!(
            "  {:<20} {:>7.1} {:>10} {:>13.3} {:>8.4}",
            s.class.to_string(),
            s.weight,
            s.completed,
            s.attained_ns / 1e6,
            s.share
        );
    }

    if c.scale_events.is_empty() {
        println!("  fleet static at {} instance(s): no scale events", c.final_active);
    } else {
        println!("  scale-event timeline ({} events):", c.scale_events.len());
        println!("  {:>10} {:>5} {:>7} {:>7} {:>9}", "t ms", "dir", "active", "queued", "burn hot");
        for e in &c.scale_events {
            println!(
                "  {:>10.3} {:>5} {:>7} {:>7} {:>9}",
                e.t_ns / 1e6,
                match e.direction {
                    ScaleDirection::Up => "up",
                    ScaleDirection::Down => "down",
                },
                e.active_after,
                e.queued,
                e.burn_hot
            );
        }
    }
    println!(
        "  fleet cost {:.4} instance-seconds   active min/final/peak {}/{}/{}",
        c.instance_seconds, c.min_active, c.final_active, c.peak_active
    );
    if c.converge_ns > 0.0 {
        println!("  converged to peak capacity at {:.2} ms", c.converge_ns / 1e6);
    }
    Ok(())
}

/// Splits a serve-family command's arguments into its positionals and
/// one output path per `(flag, default path)` in `outputs`: `FLAG`
/// writes to the default path and `FLAG=PATH` to `PATH`, in any order
/// among the positionals. Any other `--` argument is an unknown flag.
fn split_output_flags<'a, const N: usize>(
    args: &'a [String],
    outputs: [(&str, &str); N],
) -> Result<(Vec<&'a String>, [Option<std::path::PathBuf>; N]), String> {
    let mut paths = [(); N].map(|()| None);
    let mut positional = Vec::new();
    for a in args {
        let (flag, value) = a.split_once('=').map_or((a.as_str(), None), |(f, v)| (f, Some(v)));
        match outputs.iter().position(|&(name, _)| name == flag) {
            Some(i) => {
                paths[i] = Some(match value {
                    None => outputs[i].1.into(),
                    Some("") => return Err(format!("{flag}= needs a path")),
                    Some(path) => path.into(),
                });
            }
            None if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            None => positional.push(a),
        }
    }
    Ok((positional, paths))
}

/// Builds the serve-family default config (BERT-base/128 Poisson
/// traffic against a 2 ms SLO) from the shared positional arguments.
fn serve_point_config(positional: &[&String]) -> Result<star::serve::ServeConfig, String> {
    use star::serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, ModelKind, RequestClass, ServeConfig,
        ServiceModelConfig, WorkloadMix,
    };
    let rate: f64 = parse_positive(positional.first().copied(), 16_000.0, "arrival rate (rps)")?;
    if !rate.is_finite() {
        return Err("arrival rate must be finite".into());
    }
    let fleet: usize = parse_positive(positional.get(1).copied(), 2, "fleet size")?;
    let batch: usize = parse_positive(positional.get(2).copied(), 8, "batch size")?;
    let window_us: f64 = match positional.get(3) {
        Some(a) => a.parse().map_err(|_| format!("`{a}` is not a window in us"))?,
        None => 50.0,
    };
    if !(window_us.is_finite() && window_us >= 0.0) {
        return Err("window must be finite and non-negative".into());
    }
    Ok(ServeConfig {
        fleet,
        policy: BatchPolicy::new(batch, window_us * 1e3),
        arrival: ArrivalProcess::poisson(rate),
        mix: WorkloadMix::single(RequestClass::new(ModelKind::BertBase, 128)),
        horizon_ns: 1e8,
        seed: 2023,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig::default(),
    })
}

fn cmd_blame(args: &[String]) -> Result<(), String> {
    use star::serve::{simulate_observed, Observe, BLAME_SIDECAR_KEY};
    let (positional, [trace_path]) = split_output_flags(args, [("--trace", "blame_trace.json")])?;
    let cfg = serve_point_config(&positional)?;
    let outcome = simulate_observed(&cfg, &Observe { blame: true, ..Observe::default() });
    let r = &outcome.report;
    let blame = outcome.blame.as_ref().expect("blamed run carries blame tables");

    println!(
        "critical-path blame: {} on {} STAR instance(s), policy {}:",
        cfg.mix.classes()[0],
        cfg.fleet,
        cfg.policy
    );
    println!(
        "  simulated: arrivals {}   completed {}   goodput {:.0} rps   p99 {:.3} ms",
        r.arrivals, r.completed, r.goodput_rps, r.latency.p99_ms
    );
    println!("  (the report above is bitwise identical to an unblamed run)\n");
    print!("{}", blame.render());
    if let Some(path) = trace_path {
        let json = serde_json::to_string(&blame.to_object_json()).map_err(|e| e.to_string())?;
        std::fs::write(&path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "  blame dump: {} requests, {} batches -> {} (open in https://ui.perfetto.dev; \
             tables ride in the `{BLAME_SIDECAR_KEY}` sidecar)",
            blame.requests.len(),
            blame.batches.len(),
            path.display()
        );
    }
    Ok(())
}

fn cmd_whatif(args: &[String]) -> Result<(), String> {
    use star::serve::{run_what_ifs, WhatIf};
    let (positional, []) = split_output_flags(args, [])?;
    let cfg = serve_point_config(&positional)?;
    let report = run_what_ifs(&cfg, &WhatIf::standard());

    println!(
        "what-if profile: {} on {} STAR instance(s), policy {} — each row is the \
         same seeded workload re-simulated under one intervention:",
        cfg.mix.classes()[0],
        cfg.fleet,
        cfg.policy
    );
    print!("{}", report.render());
    if let Some(best) = report.best() {
        if best.delta_p99_ms < 0.0 {
            println!(
                "  optimize this next: {} ({:+.3} ms p99, {:+.0} rps goodput)",
                best.label, best.delta_p99_ms, best.delta_goodput_rps
            );
        } else {
            println!("  no intervention in the menu improves p99 at this operating point");
        }
    }
    Ok(())
}

/// Renders an [`star::serve::SloAnalysis`] as the burn-rate / per-class /
/// exemplar table block shared by `serve --trace` and `trace-analyze`.
fn print_slo_analysis(a: &star::serve::SloAnalysis) {
    println!("SLO analysis (target {:.2}% of requests within deadline):", a.policy.target * 100.0);
    println!(
        "  availability {:.4}%   violations {}/{}",
        a.availability * 100.0,
        a.violations,
        a.total
    );
    match a.time_to_first_violation_ns {
        Some(t) => println!("  first violation at {:.3} ms", t / 1e6),
        None => println!("  no violations"),
    }
    println!("  {:>10} {:>12} {:>12} {:>16}", "window", "peak err %", "peak burn", "first breach");
    for w in &a.windows {
        let breach = match w.first_breach_ns {
            Some(t) => format!("{:.3} ms", t / 1e6),
            None => "-".to_string(),
        };
        println!(
            "  {:>8.1}ms {:>12.2} {:>12.1} {:>16}",
            w.window_ns / 1e6,
            w.peak_error_rate * 100.0,
            w.peak_burn_rate,
            breach
        );
    }
    println!(
        "  {:<20} {:>9} {:>7} {:>6} {:>8} {:>8} {:>12} {:>10}",
        "class", "arrivals", "good", "late", "expired", "rejected", "goodput rps", "p99 ms"
    );
    for c in &a.per_class {
        println!(
            "  {:<20} {:>9} {:>7} {:>6} {:>8} {:>8} {:>12.0} {:>10.3}",
            c.class.to_string(),
            c.arrivals,
            c.good,
            c.late,
            c.expired,
            c.rejected,
            c.goodput_rps,
            c.latency.p99_ms
        );
    }
    if !a.exemplars.is_empty() {
        println!("  slowest {} requests:", a.exemplars.len());
        println!(
            "  {:>8} {:<20} {:>8} {:>11} {:>10} {:>10}",
            "id", "class", "outcome", "latency ms", "queue ms", "invoke ms"
        );
        for e in &a.exemplars {
            let get = |k: &str| e.breakdown_ms.get(k).copied().unwrap_or(0.0);
            println!(
                "  {:>8} {:<20} {:>8} {:>11.3} {:>10.3} {:>10.3}",
                e.id,
                e.class.to_string(),
                e.outcome.as_str(),
                e.latency_ms,
                get("queue"),
                get("invocation")
            );
        }
    }
}

/// Renders an incident dump's root-cause report: the triggers that
/// fired, the captured window, and where the window's latency went.
fn print_incident(dump: &star::serve::IncidentDump) {
    println!(
        "incident: window {:.3} -> {:.3} ms ({:.3} ms captured, post-trigger {:.3} ms)",
        dump.window_start_ns / 1e6,
        dump.window_end_ns / 1e6,
        dump.window_ns() / 1e6,
        dump.post_trigger_ns / 1e6
    );
    println!(
        "  captured {} event rows / {} terminals (pre-window evicted: {} / {})",
        dump.events.len(),
        dump.terminals.len(),
        dump.pre_events_evicted,
        dump.pre_terminals_evicted
    );
    println!("  {:>14} {:>12} {:>12} {:>12}", "trigger", "at ms", "value", "threshold");
    for t in &dump.triggers {
        println!(
            "  {:>14} {:>12.3} {:>12.2} {:>12.2}",
            t.kind.as_str(),
            t.t_ns / 1e6,
            t.value,
            t.threshold
        );
        if let Some(b) = &t.burn {
            println!(
                "  {:>14} window {:.1} ms, peak error {:.2} %, peak burn {:.1}",
                "",
                b.window_ns / 1e6,
                b.peak_error_rate * 100.0,
                b.peak_burn_rate
            );
        }
    }
    let rep = &dump.report;
    let w = &rep.waterfall;
    if w.completed > 0 {
        println!("  latency waterfall ({} completed, {:.3} ms total):", w.completed, w.total_ms);
        let pct = |part: f64| if w.total_ms > 0.0 { part / w.total_ms * 100.0 } else { 0.0 };
        for (name, part) in [
            ("queueing", w.queueing_ms),
            ("batch window", w.batch_window_ms),
            ("overhead", w.overhead_ms),
            ("projection", w.projection_ms),
            ("qk fill", w.qk_fill_ms),
            ("softmax stream", w.softmax_stream_ms),
            ("av drain", w.av_drain_ms),
        ] {
            println!("    {name:<16} {part:>10.3} ms  {:>5.1} %", pct(part));
        }
    }
    println!(
        "  arrivals: {} in window at {:.0} rps vs trailing baseline {:.0} rps (x{:.2})",
        rep.arrival.window_arrivals,
        rep.arrival.window_rps,
        rep.arrival.baseline_rps,
        rep.arrival.ratio
    );
    println!(
        "  {:<20} {:>9} {:>7} {:>6} {:>8} {:>8}",
        "class", "arrivals", "good", "late", "expired", "rejected"
    );
    for c in &rep.per_class {
        println!(
            "  {:<20} {:>9} {:>7} {:>6} {:>8} {:>8}",
            c.class.to_string(),
            c.arrivals,
            c.good,
            c.late,
            c.expired,
            c.rejected
        );
    }
    println!("  {:>9} {:>8} {:>12} {:>8}", "instance", "batches", "completions", "busy %");
    for i in &rep.per_instance {
        println!(
            "  {:>9} {:>8} {:>12} {:>8.1}",
            i.instance,
            i.batches,
            i.completions,
            i.busy_fraction * 100.0
        );
    }
    if !rep.exemplars.is_empty() {
        println!("  slowest {} requests in window:", rep.exemplars.len());
        println!(
            "  {:>8} {:<20} {:>8} {:>11} {:>10} {:>6} {:>9}",
            "id", "class", "outcome", "latency ms", "queue ms", "batch", "instance"
        );
        for e in &rep.exemplars {
            println!(
                "  {:>8} {:<20} {:>8} {:>11.3} {:>10.3} {:>6} {:>9}",
                e.id,
                e.class.to_string(),
                e.outcome.as_str(),
                e.latency_ms,
                e.queue_ms,
                e.batch_size,
                e.instance.map_or("-".to_string(), |i| i.to_string())
            );
        }
    }
}

fn cmd_incident_analyze(args: &[String]) -> Result<(), String> {
    use star::serve::IncidentDump;
    let path = args
        .first()
        .ok_or("incident-analyze needs an incident dump (produce one with `serve --flight`)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let dump = IncidentDump::from_object_json(&value)?;
    println!(
        "{path}: {} trigger(s), {} classes, {} event rows, {} terminals",
        dump.triggers.len(),
        dump.classes.len(),
        dump.events.len(),
        dump.terminals.len()
    );
    print_incident(&dump);
    Ok(())
}

fn cmd_trace_analyze(args: &[String]) -> Result<(), String> {
    use star::serve::{
        BlameOutcome, IncidentDump, ServeTrace, SloAnalysis, SloPolicy, BLAME_SIDECAR_KEY,
        FLIGHT_SIDECAR_KEY, PROFILE_SIDECAR_KEY, TRACE_SIDECAR_KEY,
    };
    let path = args
        .first()
        .ok_or("trace-analyze needs a trace file (produce one with `serve --trace`)")?;
    let k: usize = match args.get(1) {
        Some(a) => a.parse().map_err(|_| format!("`{a}` is not an exemplar count"))?,
        None => 5,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    // Dispatch on the machine-readable sidecar key: serve traces carry
    // `starServe`, incident dumps `starServeIncident`, blame dumps
    // `starServeBlame`, profiler meta-traces `starServeProfile`.
    if value.get(BLAME_SIDECAR_KEY).is_some() {
        let blame = BlameOutcome::from_object_json(&value)?;
        println!(
            "{path}: blame dump ({} requests, {} batches, {} classes, p99 {:.3} ms)",
            blame.requests.len(),
            blame.batches.len(),
            blame.classes.len(),
            blame.report.p99_latency_ms
        );
        print!("{}", blame.render());
        return Ok(());
    }
    if value.get(FLIGHT_SIDECAR_KEY).is_some() {
        let dump = IncidentDump::from_object_json(&value)?;
        println!(
            "{path}: incident dump ({} triggers, {} event rows, {} terminals)",
            dump.triggers.len(),
            dump.events.len(),
            dump.terminals.len()
        );
        print_incident(&dump);
        return Ok(());
    }
    if value.get(TRACE_SIDECAR_KEY).is_none() {
        if value.get(PROFILE_SIDECAR_KEY).is_some() {
            return Err(format!(
                "{path} is a profiler meta-trace (`{PROFILE_SIDECAR_KEY}`), not a serve trace; \
                 it has no per-request spans to analyze"
            ));
        }
        return Err(format!(
            "{path} carries none of the recognized sidecar keys \
             (`{TRACE_SIDECAR_KEY}`, `{FLIGHT_SIDECAR_KEY}`, `{BLAME_SIDECAR_KEY}`, \
             `{PROFILE_SIDECAR_KEY}`)"
        ));
    }
    let trace = ServeTrace::from_object_json(&value)?;
    trace.validate().map_err(|e| format!("{path} violates span invariants: {e}"))?;
    println!(
        "{path}: fleet {}, deadline {:.3} ms, makespan {:.3} ms, {} requests, {} batches",
        trace.fleet,
        trace.deadline_ns / 1e6,
        trace.makespan_ns / 1e6,
        trace.requests.len(),
        trace.batches.len()
    );
    print_slo_analysis(&SloAnalysis::from_trace(&trace, SloPolicy::default(), k));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_format_accepts_paper_formats() {
        assert_eq!(parse_format("q5.2").unwrap(), QFormat::CNEWS);
        assert_eq!(parse_format("q5.3").unwrap(), QFormat::MRPC);
        assert_eq!(parse_format("q4.2").unwrap(), QFormat::COLA);
    }

    #[test]
    fn parse_format_rejects_garbage() {
        assert!(parse_format("5.2").is_err());
        assert!(parse_format("q5").is_err());
        assert!(parse_format("qx.y").is_err());
        assert!(parse_format("q30.10").is_err()); // too wide
    }

    #[test]
    fn commands_run() {
        cmd_softmax(&["q5.3".into(), "1.0".into(), "2.0".into()]).expect("softmax");
        cmd_geometry(&["q5.2".into()]).expect("geometry");
        cmd_engines().expect("engines");
        cmd_fig3(&[]).expect("fig3 default");
        cmd_fig3(&["64".into()]).expect("fig3 custom");
    }

    #[test]
    fn command_errors_are_reported() {
        assert!(cmd_softmax(&[]).is_err());
        assert!(cmd_softmax(&["q5.2".into()]).is_err());
        assert!(cmd_softmax(&["q5.2".into(), "abc".into()]).is_err());
        assert!(cmd_geometry(&[]).is_err());
        assert!(cmd_fig3(&["zero".into()]).is_err());
        assert!(cmd_fig3(&["0".into()]).is_err());
        assert!(cmd_trace(&[]).is_err());
        assert!(cmd_trace(&["q5.3".into(), "0".into()]).is_err());
        assert!(cmd_metrics(&[]).is_err());
        assert!(cmd_metrics(&["nope".into()]).is_err());
    }

    #[test]
    fn trace_and_metrics_commands_run() {
        cmd_trace(&["q5.3".into(), "16".into()]).expect("trace");
        cmd_metrics(&["q5.3".into(), "16".into()]).expect("metrics");
    }

    #[test]
    fn serve_command_runs() {
        // Defaults, and an explicit no-batching single-instance run.
        cmd_serve(&[]).expect("serve defaults");
        cmd_serve(&["8000".into(), "1".into(), "1".into(), "0".into()]).expect("serve explicit");
    }

    #[test]
    fn serve_command_rejects_bad_arguments() {
        assert!(cmd_serve(&["abc".into()]).is_err());
        assert!(cmd_serve(&["0".into()]).is_err());
        assert!(cmd_serve(&["8000".into(), "0".into()]).is_err());
        assert!(cmd_serve(&["8000".into(), "1".into(), "0".into()]).is_err());
        assert!(cmd_serve(&["8000".into(), "1".into(), "2".into(), "-5".into()]).is_err());
        assert!(cmd_serve(&["inf".into()]).is_err());
        assert!(cmd_serve(&["--trace=".into()]).is_err());
        assert!(cmd_serve(&["--flight=".into()]).is_err());
        assert!(cmd_serve(&["--bogus".into()]).is_err());
    }

    #[test]
    fn serve_rejects_the_removed_shards_flag() {
        // The event loop keeps one heap, so the old shard-count flag is
        // gone and reads like any other unknown flag.
        let flag = format!("--{}=4", "shards");
        assert_eq!(cmd_serve(std::slice::from_ref(&flag)), Err(format!("unknown flag `{flag}`")));
    }

    #[test]
    fn health_command_runs() {
        cmd_health(&[]).expect("health defaults");
        cmd_health(&["4000".into(), "2".into(), "8".into(), "50".into()]).expect("health explicit");
        cmd_health(&["4000".into(), "2".into(), "--level".into()]).expect("health leveled");
    }

    #[test]
    fn health_command_rejects_bad_arguments() {
        assert!(cmd_health(&["abc".into()]).is_err());
        assert!(cmd_health(&["0".into()]).is_err());
        assert!(cmd_health(&["8000".into(), "0".into()]).is_err());
        assert!(cmd_health(&["8000".into(), "1".into(), "0".into()]).is_err());
        assert!(cmd_health(&["8000".into(), "1".into(), "2".into(), "-5".into()]).is_err());
        assert!(cmd_health(&["--bogus".into()]).is_err());
        assert!(cmd_health(&["inf".into()]).is_err());
    }

    #[test]
    fn profile_command_runs() {
        cmd_profile(&[]).expect("profile defaults");
        cmd_profile(&["8000".into(), "1".into(), "1".into(), "0".into()])
            .expect("profile explicit");
    }

    #[test]
    fn profile_command_rejects_bad_arguments() {
        assert!(cmd_profile(&["abc".into()]).is_err());
        assert!(cmd_profile(&["0".into()]).is_err());
        assert!(cmd_profile(&["8000".into(), "0".into()]).is_err());
        assert!(cmd_profile(&["8000".into(), "1".into(), "0".into()]).is_err());
        assert!(cmd_profile(&["8000".into(), "1".into(), "2".into(), "-5".into()]).is_err());
        assert!(cmd_profile(&["inf".into()]).is_err());
        assert!(cmd_profile(&["--trace=".into()]).is_err());
        assert!(cmd_profile(&["--bogus".into()]).is_err());
    }

    #[test]
    fn control_command_runs() {
        cmd_control(&[]).expect("control defaults");
        cmd_control(&["8000".into(), "1".into(), "8".into(), "50".into()])
            .expect("control explicit");
        for policy in ["fifo", "wfq", "edf"] {
            cmd_control(&[format!("--policy={policy}")]).expect(policy);
        }
        for placement in ["first-idle", "least-loaded", "fastest", "energy-greedy"] {
            cmd_control(&[format!("--placement={placement}")]).expect(placement);
        }
        cmd_control(&["--autoscale=2:3".into()]).expect("control bounded");
        cmd_control(&["--autoscale=off".into()]).expect("control static");
        // Every knob at its no-op default: the baseline path, no report.
        cmd_control(&[
            "--policy=fifo".into(),
            "--placement=first-idle".into(),
            "--autoscale=off".into(),
        ])
        .expect("control no-op");
    }

    #[test]
    fn control_command_rejects_bad_arguments() {
        assert!(cmd_control(&["abc".into()]).is_err());
        assert!(cmd_control(&["0".into()]).is_err());
        assert!(cmd_control(&["8000".into(), "0".into()]).is_err());
        assert!(cmd_control(&["8000".into(), "1".into(), "0".into()]).is_err());
        assert!(cmd_control(&["8000".into(), "1".into(), "2".into(), "-5".into()]).is_err());
        assert!(cmd_control(&["inf".into()]).is_err());
        assert!(cmd_control(&["--bogus".into()]).is_err());
        assert!(cmd_control(&["--policy=lifo".into()]).is_err());
        assert!(cmd_control(&["--placement=random".into()]).is_err());
        assert!(cmd_control(&["--autoscale=4".into()]).is_err());
        assert!(cmd_control(&["--autoscale=0:4".into()]).is_err());
        assert!(cmd_control(&["--autoscale=4:1".into()]).is_err());
        assert!(cmd_control(&["--autoscale=a:b".into()]).is_err());
    }

    #[test]
    fn blame_command_runs() {
        cmd_blame(&[]).expect("blame defaults");
        cmd_blame(&["8000".into(), "1".into(), "1".into(), "0".into()]).expect("blame explicit");
    }

    #[test]
    fn blame_command_rejects_bad_arguments() {
        assert!(cmd_blame(&["abc".into()]).is_err());
        assert!(cmd_blame(&["0".into()]).is_err());
        assert!(cmd_blame(&["8000".into(), "0".into()]).is_err());
        assert!(cmd_blame(&["8000".into(), "1".into(), "0".into()]).is_err());
        assert!(cmd_blame(&["8000".into(), "1".into(), "2".into(), "-5".into()]).is_err());
        assert!(cmd_blame(&["inf".into()]).is_err());
        assert!(cmd_blame(&["--trace=".into()]).is_err());
        assert!(cmd_blame(&["--bogus".into()]).is_err());
    }

    #[test]
    fn whatif_command_runs() {
        cmd_whatif(&["8000".into(), "1".into(), "4".into(), "50".into()]).expect("whatif explicit");
    }

    #[test]
    fn whatif_command_rejects_bad_arguments() {
        assert!(cmd_whatif(&["abc".into()]).is_err());
        assert!(cmd_whatif(&["0".into()]).is_err());
        assert!(cmd_whatif(&["8000".into(), "0".into()]).is_err());
        assert!(cmd_whatif(&["8000".into(), "1".into(), "0".into()]).is_err());
        assert!(cmd_whatif(&["8000".into(), "1".into(), "2".into(), "-5".into()]).is_err());
        assert!(cmd_whatif(&["inf".into()]).is_err());
        assert!(cmd_whatif(&["--trace".into()]).is_err());
    }

    #[test]
    fn blame_dump_round_trips_through_trace_analyze() {
        let path = std::env::temp_dir().join(format!("star_cli_blame_{}.json", std::process::id()));
        let path_str = path.to_str().expect("utf8 temp path").to_string();
        cmd_blame(&["8000".into(), "1".into(), format!("--trace={path_str}")])
            .expect("blame --trace");
        let text = std::fs::read_to_string(&path).expect("blame dump written");
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(value.get("traceEvents").is_some(), "Perfetto object form");
        let blame = star::serve::BlameOutcome::from_object_json(&value).expect("sidecar");
        for b in &blame.requests {
            assert_eq!(b.components_sum(), b.latency_ns, "conservation survives the round trip");
        }
        cmd_trace_analyze(std::slice::from_ref(&path_str)).expect("trace-analyze dispatch");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_sidecar_error_names_all_keys() {
        let path = std::env::temp_dir().join(format!("star_cli_nokey_{}.json", std::process::id()));
        std::fs::write(&path, "{\"traceEvents\": []}").expect("write plain object");
        let err = cmd_trace_analyze(&[path.to_str().expect("utf8").to_string()])
            .expect_err("plain chrome object rejected");
        for key in ["starServe", "starServeIncident", "starServeBlame", "starServeProfile"] {
            assert!(err.contains(key), "error must name `{key}`: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_trace_is_valid_chrome_object_with_sidecar() {
        let path =
            std::env::temp_dir().join(format!("star_cli_profile_{}.json", std::process::id()));
        let path_str = path.to_str().expect("utf8 temp path").to_string();
        cmd_profile(&["8000".into(), "1".into(), format!("--trace={path_str}")])
            .expect("profile --trace");
        let text = std::fs::read_to_string(&path).expect("meta-trace written");
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(value.get("traceEvents").is_some());
        let sidecar =
            value.get(star::serve::PROFILE_SIDECAR_KEY).expect("work/wall sidecar present");
        let work = sidecar.get("work").expect("work counters");
        assert!(
            work.get("events_total").and_then(serde_json::Value::as_u64).unwrap_or(0) > 0,
            "profiled run saw events"
        );
        assert!(sidecar.get("wall").is_some());
        assert!(sidecar.get("eventsPerSec").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_trace_round_trips_through_trace_analyze() {
        let path = std::env::temp_dir().join(format!("star_cli_trace_{}.json", std::process::id()));
        let path_str = path.to_str().expect("utf8 temp path").to_string();
        cmd_serve(&["8000".into(), "1".into(), format!("--trace={path_str}")])
            .expect("serve --trace");
        // The file is Perfetto's object form with our sidecar, and the
        // analyzer accepts it.
        let text = std::fs::read_to_string(&path).expect("trace written");
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(value.get("traceEvents").is_some());
        let trace = star::serve::ServeTrace::from_object_json(&value).expect("sidecar");
        trace.validate().expect("span invariants hold");
        cmd_trace_analyze(&[path_str.clone(), "3".into()]).expect("trace-analyze");
        assert!(cmd_trace_analyze(&[path_str, "nope".into()]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_analyze_rejects_bad_inputs() {
        assert!(cmd_trace_analyze(&[]).is_err());
        assert!(cmd_trace_analyze(&["/definitely/not/here.json".into()]).is_err());
        // A plain Chrome trace (no sidecar) is rejected with a pointer to
        // the sidecar key.
        let path = std::env::temp_dir().join(format!("star_cli_plain_{}.json", std::process::id()));
        std::fs::write(&path, "[]").expect("write plain trace");
        let err = cmd_trace_analyze(&[path.to_str().expect("utf8").to_string()])
            .expect_err("plain array rejected");
        assert!(err.contains("starServe"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The `key` entry of a JSON map, for editing.
    fn entry<'a>(v: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
        match v {
            serde_json::Value::Map(entries) => {
                &mut entries.iter_mut().find(|(k, _)| k == key).expect("key present").1
            }
            other => panic!("expected a map holding `{key}`, got {other:?}"),
        }
    }

    /// Element `i` of a JSON array, for editing.
    fn element(v: &mut serde_json::Value, i: usize) -> &mut serde_json::Value {
        match v {
            serde_json::Value::Seq(items) => &mut items[i],
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    fn trace_analyze_rejects_spans_no_record_renders() {
        use serde_json::Value;
        use star::serve::{ServeTrace, TRACE_SIDECAR_KEY};
        let path =
            std::env::temp_dir().join(format!("star_cli_tamper_{}.json", std::process::id()));
        let path_str = path.to_str().expect("utf8 temp path").to_string();
        cmd_serve(&["8000".into(), "1".into(), format!("--trace={path_str}")])
            .expect("serve --trace");
        let text = std::fs::read_to_string(&path).expect("trace written");
        let dump: Value = serde_json::from_str(&text).expect("valid JSON");
        let trace = ServeTrace::from_object_json(&dump).expect("the written dump reads back");
        assert!(trace.requests[0].outcome.is_completed());
        // Each edit leaves a span the trace's records could not have
        // rendered; both readers must refuse it and name the request.
        type Edit = fn(&mut Value);
        let shift_invoke: Edit = |span| {
            let start = entry(element(entry(span, "children"), 1), "start_ns");
            *start = Value::F64(start.as_f64().expect("number") + 1.0);
        };
        let lengthen_phase: Edit = |span| {
            let invoke = element(entry(span, "children"), 1);
            let dur = entry(element(entry(invoke, "children"), 2), "dur_ns");
            *dur = Value::F64(dur.as_f64().expect("number") + 1.0);
        };
        let rename_root: Edit = |span| *entry(span, "name") = Value::Str("renamed".into());
        let last = trace.requests.len() - 1;
        for (what, index, edit) in [
            ("invoke start shifted by 1 ns", 0, shift_invoke),
            ("projection phase 1 ns longer", 0, lengthen_phase),
            ("root span renamed", last, rename_root),
        ] {
            let mut bad = dump.clone();
            let requests = entry(entry(&mut bad, TRACE_SIDECAR_KEY), "requests");
            edit(entry(element(requests, index), "span"));
            let id = format!("request {}:", trace.requests[index].id);
            let err = ServeTrace::from_object_json(&bad).expect_err(what);
            assert!(err.contains(&id), "{what}: {err}");
            std::fs::write(&path, serde_json::to_string(&bad).expect("serialize"))
                .expect("write tampered dump");
            let err = cmd_trace_analyze(std::slice::from_ref(&path_str)).expect_err(what);
            assert!(err.contains(&id), "{what}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_flight_dump_round_trips_through_both_analyzers() {
        // The 80k rps single-instance point saturates the queue, so the
        // default triggers fire deterministically and a dump is written.
        let path =
            std::env::temp_dir().join(format!("star_cli_flight_{}.json", std::process::id()));
        let path_str = path.to_str().expect("utf8 temp path").to_string();
        cmd_serve(&["80000".into(), "1".into(), format!("--flight={path_str}")])
            .expect("serve --flight");
        let text = std::fs::read_to_string(&path).expect("incident dump written");
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(value.get("traceEvents").is_some(), "Perfetto object form");
        let dump = star::serve::IncidentDump::from_object_json(&value).expect("sidecar");
        assert!(!dump.triggers.is_empty());
        // Both the dedicated analyzer and trace-analyze (via sidecar
        // detection) accept the file.
        cmd_incident_analyze(std::slice::from_ref(&path_str)).expect("incident-analyze");
        cmd_trace_analyze(std::slice::from_ref(&path_str)).expect("trace-analyze dispatch");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_flight_without_trigger_writes_nothing() {
        // The default 16k rps / 2-instance point is underloaded: no
        // trigger fires, and the dump path stays untouched.
        let path =
            std::env::temp_dir().join(format!("star_cli_noflight_{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        cmd_serve(&["--flight=".to_string() + path.to_str().expect("utf8")])
            .expect("serve --flight quiet");
        assert!(!path.exists(), "no incident, no dump file");
    }

    #[test]
    fn incident_analyze_rejects_bad_inputs() {
        assert!(cmd_incident_analyze(&[]).is_err());
        assert!(cmd_incident_analyze(&["/definitely/not/here.json".into()]).is_err());
        let path =
            std::env::temp_dir().join(format!("star_cli_notdump_{}.json", std::process::id()));
        std::fs::write(&path, "{\"traceEvents\": []}").expect("write plain object");
        let err = cmd_incident_analyze(&[path.to_str().expect("utf8").to_string()])
            .expect_err("plain chrome object rejected");
        assert!(err.contains("starServeIncident"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_analyze_identifies_profiler_meta_traces() {
        // A profiler meta-trace has a sidecar, just not a span sidecar —
        // the error must say what the file *is*, not just what it isn't.
        let path =
            std::env::temp_dir().join(format!("star_cli_profdump_{}.json", std::process::id()));
        let path_str = path.to_str().expect("utf8 temp path").to_string();
        cmd_profile(&["8000".into(), "1".into(), format!("--trace={path_str}")])
            .expect("profile --trace");
        let err = cmd_trace_analyze(&[path_str]).expect_err("meta-trace rejected");
        assert!(err.contains("starServeProfile"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_json_is_valid_chrome_trace() {
        let durations = paper_row_durations(QFormat::MRPC, 8).expect("durations");
        let trace = pipeline_chrome_trace(&durations, PipelineMode::VectorGrained, 1);
        let json = trace.to_json_string();
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match value {
            serde_json::Value::Seq(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        // ph:"X" complete events present with ts/dur/pid/tid fields.
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 8 * 3);
        for e in complete {
            for key in ["name", "ts", "dur", "pid", "tid"] {
                assert!(e.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn metrics_snapshot_covers_all_layers() {
        let (result, snap) =
            star::telemetry::with_scoped(|| cmd_metrics(&["q5.2".into(), "16".into()]));
        result.expect("metrics");
        // cmd_metrics uses its own inner scope, so the outer scope stays
        // empty — re-run the workload directly to inspect the counters.
        assert!(snap.counters.is_empty());
        let ((), snap) = star::telemetry::with_scoped(|| {
            let mut engine =
                StarSoftmax::new(StarSoftmaxConfig::new(QFormat::CNEWS)).expect("engine");
            let _ = engine.softmax_row(&[1.0, -0.5, 2.0, 0.25]);
        });
        assert!(snap.counters.keys().any(|k| k.starts_with("device.")), "{:?}", snap.counters);
        assert!(snap.counters.keys().any(|k| k.starts_with("crossbar.")), "{:?}", snap.counters);
        assert!(snap.counters.keys().any(|k| k.starts_with("star.")), "{:?}", snap.counters);
    }
}
