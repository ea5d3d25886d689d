//! `star-cli` — a small command-line front end to the STAR reproduction.
//!
//! ```sh
//! cargo run --bin star_cli -- help
//! cargo run --bin star_cli -- softmax q5.3 1.0 2.0 3.0
//! cargo run --bin star_cli -- geometry q5.3
//! cargo run --bin star_cli -- engines
//! cargo run --bin star_cli -- fig3
//! ```

use star::arch::{Accelerator, GpuModel, RramAccelerator};
use star::attention::{AttentionConfig, ExactSoftmax, RowSoftmax};
use star::core::{
    pipeline_chrome_trace, CmosBaselineSoftmax, PipelineMode, RowDurations, Softermax,
    SoftmaxEngine, StarSoftmax, StarSoftmaxConfig, UtilizationReport,
};
use star::fixed::QFormat;
use std::path::{Path, PathBuf};
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
    serve [rate] [fleet] [batch] [window_us] [flags]
                                   simulate a fleet of STAR instances serving
                                   Poisson BERT-base/128 traffic against a
                                   2 ms SLO and print the goodput/latency
                                   report (defaults: 16000 rps, 2 instances,
                                   batch 8, 50 us window). Each flag attaches
                                   an observer to the same run and prints its
                                   block after the report, in this order:
      --trace[=PATH]               span trees + queue/utilization counter
                                   tracks as Perfetto JSON (default
                                   serve_trace.json); SLO burn-rate analysis
      --flight[=PATH]              incident flight recorder (event ring; SLO
                                   burn, expiry burst, queue depth triggers);
                                   a firing dumps the window and a root-cause
                                   report (default flight_incident.json)
      --health                     per-instance wear, thermal, drift and
                                   accuracy-margin table, wear skew, alarms,
                                   sustained-load lifetime projection
      --level                      --health plus round-robin wear-leveling
                                   placement (may move the report)
      --profile[=PATH]             deterministic work counters, wall-clock
                                   top phases, and a meta-trace of the
                                   simulator's own time (profile_trace.json)
      --blame[=PATH]               every request's latency split into eight
                                   waits that sum back bitwise: class,
                                   instance and p99-tail tables, blocking
                                   chains, Perfetto view (blame_trace.json)
      --whatif                     ranked Δp99/Δgoodput/Δenergy table of the
                                   seeded workload under each intervention
    trace-analyze <file> [k]       re-analyze a `serve --trace`, `--flight`
                                   or `--blame` dump by its sidecar key; a
                                   trace gets the SLO analysis with its k
                                   slowest requests (default 5)
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
    help                           this message

LIMITS:
    serve and control reject an operating point the simulator cannot
    allocate: an offered load above 1e8 arrivals over the 100 ms horizon
    (1e9 rps for serve), or more than 65536 instances in the fleet or
    the autoscaler's MAX.

Paper formats: CNEWS = q5.2 (8 bits), MRPC = q5.3 (9 bits), CoLA = q4.2 (7 bits).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the command `args` names with the rest of `args`.
fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = args.get(1..).unwrap_or_default();
    match cmd {
        "softmax" => cmd_softmax(rest),
        "geometry" => cmd_geometry(rest),
        "engines" => cmd_engines(),
        "fig3" => cmd_fig3(rest),
        "trace" => cmd_trace(rest),
        "metrics" => cmd_metrics(rest),
        "serve" => cmd_serve(rest).map(|text| print!("{text}")),
        "trace-analyze" => cmd_trace_analyze(rest),
        "control" => cmd_control(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
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
        .map(|a| match a.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            Ok(_) => Err(format!("score `{a}` is not finite")),
            Err(_) => Err(format!("`{a}` is not a number")),
        })
        .collect::<Result<_, _>>()?;

    let mut engine = StarSoftmax::new(StarSoftmaxConfig::new(format)).map_err(|e| e.to_string())?;
    check_row_len(&engine, scores.len())?;
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

/// Rejects a row longer than `engine`'s counters can histogram.
fn check_row_len(engine: &StarSoftmax, len: usize) -> Result<(), String> {
    let max = engine.config().max_row_len;
    if len > max {
        return Err(format!("row of {len} scores exceeds the engine's maximum row length {max}"));
    }
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
    let seq = parse_seq(args.first())?;
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
/// operating point: the row stages of a STAR accelerator with one softmax
/// engine at `format`.
fn paper_row_durations(format: QFormat, seq: usize) -> Result<RowDurations, String> {
    let stages = RramAccelerator::star_with(format, 1)
        .map_err(|e| e.to_string())?
        .layer_cost(&AttentionConfig::bert_base(seq))
        .stages;
    Ok(RowDurations::uniform(seq, stages.qk.value(), stages.softmax.value(), stages.av.value()))
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let format = parse_format(args.first().ok_or("trace needs a format, e.g. q5.3")?)?;
    let seq = parse_seq(args.get(1))?;
    let durations = paper_row_durations(format, seq)?;
    let trace = pipeline_chrome_trace(&durations, PipelineMode::VectorGrained);
    // Pure JSON on stdout so the output pipes straight into a .json file.
    println!("{}", trace.to_json_string());
    for mode in PipelineMode::ALL {
        let report = UtilizationReport::from_durations(&durations, mode);
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
        check_row_len(&engine, seq)?;
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
            let _ = UtilizationReport::from_durations(&durations, mode);
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

/// Runs one serve simulation with the observers the flags attach and
/// returns the text to print: the report, then one block per observer in
/// the order trace, flight, health, profile, blame, what-if.
fn cmd_serve(args: &[String]) -> Result<String, String> {
    use star::serve::{
        run_what_ifs, HealthConfig, Observe, SloAnalysis, WhatIf, BLAME_SIDECAR_KEY,
        PROFILE_SIDECAR_KEY,
    };
    const SWITCHES: [&str; 3] = ["--health", "--level", "--whatif"];
    let [health, level, whatif] = SWITCHES.map(|s| args.iter().any(|a| a == s));
    let rest: Vec<String> =
        args.iter().filter(|a| !SWITCHES.contains(&a.as_str())).cloned().collect();
    let (positional, [trace_path, flight_path, profile_path, blame_path]) = split_output_flags(
        &rest,
        [
            ("--trace", "serve_trace.json"),
            ("--flight", "flight_incident.json"),
            ("--profile", "profile_trace.json"),
            ("--blame", "blame_trace.json"),
        ],
    )?;
    let cfg = serve_point_config(&positional)?;
    let observe = Observe {
        trace: trace_path.is_some(),
        health: (health || level).then_some(HealthConfig { wear_leveling: level }),
        profile: profile_path.is_some(),
        flight: flight_path.is_some(),
        blame: blame_path.is_some(),
    };
    let outcome = simulate_point(&cfg, &observe)?;
    let mut out = render_report(&cfg, &outcome.report);

    if let (Some(path), Some(trace)) = (trace_path, &outcome.trace) {
        write_json(&path, &trace.to_object_json())?;
        out += &format!(
            "  trace: {} root spans, {} batch spans, {} samples -> {} (open in https://ui.perfetto.dev)\n",
            trace.requests().len(),
            trace.batches.len(),
            trace.samples.len(),
            path.display()
        );
        out += &render_slo_analysis(&SloAnalysis::from_trace(trace, 5));
    }
    if let (Some(path), Some(flight)) = (flight_path, &outcome.flight) {
        out += &format!(
            "  flight: {} event rows seen ({} retained / {} evicted), {} terminals, {} trigger(s)\n",
            flight.events_seen,
            flight.events_retained,
            flight.events_evicted,
            flight.terminals_seen,
            flight.triggers_fired
        );
        match flight.incidents.first() {
            None => out += "  flight: no trigger fired; nothing dumped\n",
            Some(dump) => {
                write_json(&path, &dump.to_object_json())?;
                out += &format!(
                    "  flight: incident dump -> {} (open in https://ui.perfetto.dev, or `star-cli trace-analyze`)\n",
                    path.display()
                );
                out += &render_incident(dump);
            }
        }
    }
    if let Some(health) = &outcome.health {
        out += &render_health(&cfg, health, outcome.report.makespan_ns);
    }
    if let (Some(path), Some(profile)) = (profile_path, &outcome.profile) {
        write_json(&path, &profile.to_object_json())?;
        out += &profile.render();
        out += &format!(
            "  meta-trace: {} phases -> {} (open in https://ui.perfetto.dev; \
             work counters ride in the `{PROFILE_SIDECAR_KEY}` sidecar)\n",
            profile.wall.entries().filter(|(_, s)| s.calls > 0).count(),
            path.display(),
        );
    }
    if let (Some(path), Some(blame)) = (blame_path, &outcome.blame) {
        write_json(&path, &blame.to_object_json())?;
        out += &blame.render();
        out += &format!(
            "  blame dump: {} requests, {} batches -> {} (open in https://ui.perfetto.dev; \
             tables ride in the `{BLAME_SIDECAR_KEY}` sidecar)\n",
            blame.requests().len(),
            blame.batches.len(),
            path.display()
        );
    }
    if whatif {
        let report = run_what_ifs(&cfg, &outcome.report, &WhatIf::standard());
        out += &report.render();
        out += &match report.best() {
            Some(best) if best.delta_p99_ms < 0.0 => format!(
                "  optimize this next: {} ({:+.3} ms p99, {:+.0} rps goodput)\n",
                best.label, best.delta_p99_ms, best.delta_goodput_rps
            ),
            Some(_) => {
                "  no intervention in the menu improves p99 at this operating point\n".into()
            }
            None => String::new(),
        };
    }
    Ok(out)
}

/// Renders `serve`'s goodput/latency report of one run of `cfg`.
fn render_report(cfg: &star::serve::ServeConfig, r: &star::serve::ServeReport) -> String {
    let (class, fleet, batch) = (cfg.mix.classes()[0], cfg.fleet, cfg.policy.max_batch);
    let service = star::serve::ServiceModel::new(cfg.service.clone(), &[class]);
    let mut out = format!("serving {class} on {fleet} STAR instance(s), policy {}:\n", cfg.policy);
    out += &format!(
        "  zero-load floor {:.1} us/request, fleet capacity {:.0} rps at batch 1, {:.0} at batch {batch}\n",
        service.unit_latency_ns(class) / 1e3,
        service.peak_rps(class, 1) * fleet as f64,
        service.peak_rps(class, batch) * fleet as f64,
    );
    out += &format!(
        "  arrivals {}   completed {}   good {}   late {}   rejected {}   expired {}\n",
        r.arrivals, r.completed, r.good, r.late, r.rejected, r.expired
    );
    out += &format!(
        "  offered {:.0} rps   throughput {:.0} rps   goodput {:.0} rps (2 ms SLO)\n",
        r.offered_rps, r.throughput_rps, r.goodput_rps
    );
    out += &format!(
        "  latency ms  p50 {:.3}   p95 {:.3}   p99 {:.3}   max {:.3}\n",
        r.latency.p50_ms, r.latency.p95_ms, r.latency.p99_ms, r.latency.max_ms
    );
    out += &format!(
        "  queue   ms  p50 {:.3}   p95 {:.3}   p99 {:.3}\n",
        r.queue_delay.p50_ms, r.queue_delay.p95_ms, r.queue_delay.p99_ms
    );
    out += &format!(
        "  batches {}   mean size {:.2}   utilization {:.1} %   energy/request {:.1} nJ\n",
        r.batches,
        r.mean_batch_size,
        r.mean_utilization * 100.0,
        r.energy_per_request_nj
    );
    out
}

/// Renders the device-health block of a monitored run of `cfg` that
/// spanned `makespan_ns`: the per-instance wear and thermal table, wear
/// skew, alarms, and the hottest instance's sustained-load projection
/// (when the run saw an event to project from).
fn render_health(
    cfg: &star::serve::ServeConfig,
    health: &star::serve::FleetHealthReport,
    makespan_ns: f64,
) -> String {
    use star::serve::{HealthModel, WearRates};
    let leveling = if health.wear_leveling { "on" } else { "off" };
    let mut out = format!("fleet health (wear leveling {leveling}):\n");
    out += &format!(
        "  {:>4} {:>12} {:>14} {:>14} {:>9} {:>9} {:>12} {:>9}\n",
        "inst", "rows", "reads", "eff writes", "temp K", "peak K", "stuck frac", "margin"
    );
    for i in &health.instances {
        out += &format!(
            "  {:>4} {:>12} {:>14} {:>14.4} {:>9.2} {:>9.2} {:>12.3e} {:>9.4}\n",
            i.instance,
            i.ledger.rows,
            i.ledger.reads(),
            i.ledger.effective_writes(),
            i.health.temperature_kelvin,
            i.peak_temperature_kelvin,
            i.health.stuck_fraction,
            i.health.accuracy_margin,
        );
    }
    out +=
        &format!("  wear skew {:.4} (max-min over mean of per-instance rows)\n", health.wear_skew);
    if health.alarms.is_empty() {
        out += "  alarms: none inside the simulated window\n";
    }
    for a in &health.alarms {
        out += &format!(
            "  alarm: instance {} {} at {:.3} ms (value {:.4}, threshold {:.4})\n",
            a.instance,
            a.kind.as_str(),
            a.t_ns / 1e6,
            a.value,
            a.threshold
        );
    }

    // Sustained-load projection from the hottest instance's wear rates.
    // A run that saw no event has no rates to project from.
    if makespan_ns <= 0.0 {
        out += "  sustained: no event in the simulated window, nothing to project\n";
        return out;
    }
    let hottest =
        health.instances.iter().max_by_key(|i| i.ledger.rows).expect("fleet is non-empty");
    let rates = WearRates::from_ledger(&hottest.ledger, makespan_ns);
    let model = HealthModel::new(cfg.service.qformat());
    out += &format!(
        "  sustained (instance {}): {:.3e} reads/s, {:.0} inferences/s, {:.0} mW \
         -> steady {:.2} K\n",
        hottest.instance,
        rates.reads_per_s,
        rates.inferences_per_s,
        rates.power_mw,
        model.steady_temperature(rates.power_mw)
    );
    let t = model.time_to_first_degradation_s(&rates);
    out += &format!(
        "  first degradation after {:.1} days  ({:.3e} inferences served)\n",
        t / 8.64e4,
        t * rates.inferences_per_s
    );
    out
}

fn cmd_control(args: &[String]) -> Result<(), String> {
    use star::serve::{
        ArrivalProcess, AutoscaleConfig, BatchPolicy, ControlConfig, DequeuePolicy, ModelKind,
        Observe, PlacementPolicy, RequestClass, ScaleDirection, ServeConfig, ServiceModelConfig,
        WorkloadMix,
    };
    let premium = RequestClass::new(ModelKind::BertBase, 128);
    let economy = RequestClass::new(ModelKind::BertBase, 64);

    let (mut policy, mut placement, mut autoscale) = ("wfq", "least-loaded", "1:4");
    let mut positional: Vec<&String> = Vec::new();
    for a in args {
        match a.split_once('=') {
            Some(("--policy", p)) => policy = p,
            Some(("--placement", p)) => placement = p,
            Some(("--autoscale", p)) => autoscale = p,
            _ if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            _ => positional.push(a),
        }
    }
    let (rate, fleet, batch, window_ns) = parse_operating_point(&positional, 8_000.0, 1)?;
    let dequeue = match policy {
        "fifo" => DequeuePolicy::Fifo,
        "wfq" => DequeuePolicy::weighted_fair(vec![(premium, 2.0), (economy, 1.0)]),
        "edf" => DequeuePolicy::earliest_deadline(vec![(premium, 2e6), (economy, 1e6)]),
        other => return Err(format!("`{other}` is not a dequeue policy (fifo, wfq, edf)")),
    };
    let placement = match placement {
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
    let autoscale = match autoscale {
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
        policy: BatchPolicy::new(batch, window_ns),
        arrival: ArrivalProcess::mmpp(rate, 5.0 * rate, 1e7, 1e7),
        mix: WorkloadMix::new(vec![(premium, 0.7), (economy, 0.3)]),
        horizon_ns: 1e8,
        seed: 2023,
        max_queue: 256,
        deadline_ns: 2e6,
        service: ServiceModelConfig::default(),
        control: ControlConfig { dequeue, placement, autoscale, instance_services: Vec::new() },
    };
    let outcome = simulate_point(&cfg, &Observe::default())?;
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

/// Simulates `cfg` with `observe` attached, the one path of `serve` and
/// `control`, after rejecting an operating point past star-serve's size
/// limits ([`star::serve::ServeConfig::check_limits`]).
fn simulate_point(
    cfg: &star::serve::ServeConfig,
    observe: &star::serve::Observe,
) -> Result<star::serve::SimOutcome, String> {
    cfg.check_limits()?;
    Ok(star::serve::simulate_observed(cfg, observe))
}

/// Splits `serve`'s arguments into its positionals and one output path
/// per `(flag, default path)` in `outputs`: `FLAG` writes to the default
/// path and `FLAG=PATH` to `PATH`, in any order among the positionals.
/// Any other `--` argument is an unknown flag.
fn split_output_flags<'a, const N: usize>(
    args: &'a [String],
    outputs: [(&str, &str); N],
) -> Result<(Vec<&'a String>, [Option<PathBuf>; N]), String> {
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

/// Parses the positionals `[rate] [fleet] [batch] [window_us]` that
/// `serve` and `control` share into `(rate, fleet, batch, window_ns)`;
/// the rate and fleet defaults differ by command.
fn parse_operating_point(
    positional: &[&String],
    default_rate: f64,
    default_fleet: usize,
) -> Result<(f64, usize, usize, f64), String> {
    let rate: f64 =
        parse_positive(positional.first().copied(), default_rate, "arrival rate (rps)")?;
    if !rate.is_finite() {
        return Err("arrival rate must be finite".into());
    }
    let fleet: usize = parse_positive(positional.get(1).copied(), default_fleet, "fleet size")?;
    let batch: usize = parse_positive(positional.get(2).copied(), 8, "batch size")?;
    let window_us: f64 = match positional.get(3) {
        Some(a) => a.parse().map_err(|_| format!("`{a}` is not a window in us"))?,
        None => 50.0,
    };
    // Checked in ns, the unit the batch policy takes: a finite window in
    // us can overflow to an infinite one.
    let window_ns = window_us * 1e3;
    if !(window_ns.is_finite() && window_ns >= 0.0) {
        return Err("window must be finite and non-negative".into());
    }
    Ok((rate, fleet, batch, window_ns))
}

/// Builds `serve`'s config (BERT-base/128 Poisson traffic against a
/// 2 ms SLO) from its positional arguments.
fn serve_point_config(positional: &[&String]) -> Result<star::serve::ServeConfig, String> {
    use star::serve::{
        ArrivalProcess, BatchPolicy, ControlConfig, ModelKind, RequestClass, ServeConfig,
        ServiceModelConfig, WorkloadMix,
    };
    let (rate, fleet, batch, window_ns) = parse_operating_point(positional, 16_000.0, 2)?;
    Ok(ServeConfig {
        fleet,
        policy: BatchPolicy::new(batch, window_ns),
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

/// Writes `value` to `path` as compact JSON.
fn write_json(path: &Path, value: &serde_json::Value) -> Result<(), String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Renders an [`star::serve::SloAnalysis`] as the burn-rate / per-class /
/// exemplar table block shared by `serve --trace` and `trace-analyze`.
fn render_slo_analysis(a: &star::serve::SloAnalysis) -> String {
    let mut out = format!(
        "SLO analysis (target {:.2}% of requests within deadline):\n",
        a.policy.target * 100.0
    );
    out += &format!(
        "  availability {:.4}%   violations {}/{}\n",
        a.availability * 100.0,
        a.violations,
        a.total
    );
    match a.time_to_first_violation_ns {
        Some(t) => out += &format!("  first violation at {:.3} ms\n", t / 1e6),
        None => out += "  no violations\n",
    }
    out += &format!(
        "  {:>10} {:>12} {:>12} {:>16}\n",
        "window", "peak err %", "peak burn", "first breach"
    );
    for w in &a.windows {
        let breach = match w.first_breach_ns {
            Some(t) => format!("{:.3} ms", t / 1e6),
            None => "-".to_string(),
        };
        out += &format!(
            "  {:>8.1}ms {:>12.2} {:>12.1} {:>16}\n",
            w.window_ns / 1e6,
            w.peak_error_rate * 100.0,
            w.peak_burn_rate,
            breach
        );
    }
    out += &format!(
        "  {:<20} {:>9} {:>7} {:>6} {:>8} {:>8} {:>12} {:>10}\n",
        "class", "arrivals", "good", "late", "expired", "rejected", "goodput rps", "p99 ms"
    );
    for c in &a.per_class {
        out += &format!(
            "  {:<20} {:>9} {:>7} {:>6} {:>8} {:>8} {:>12.0} {:>10.3}\n",
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
        out += &format!("  slowest {} requests:\n", a.exemplars.len());
        out += &format!(
            "  {:>8} {:<20} {:>8} {:>11} {:>10} {:>10}\n",
            "id", "class", "outcome", "latency ms", "queue ms", "invoke ms"
        );
        for e in &a.exemplars {
            let get = |k: &str| e.breakdown_ms.get(k).copied().unwrap_or(0.0);
            out += &format!(
                "  {:>8} {:<20} {:>8} {:>11.3} {:>10.3} {:>10.3}\n",
                e.id,
                e.class.to_string(),
                e.outcome.as_str(),
                e.latency_ms,
                get("queue"),
                get("invocation")
            );
        }
    }
    out
}

/// Renders an incident dump's root-cause report: the triggers that
/// fired, the captured window, and where the window's latency went.
fn render_incident(dump: &star::serve::IncidentDump) -> String {
    let mut out = format!(
        "incident: window {:.3} -> {:.3} ms ({:.3} ms captured, post-trigger {:.3} ms)\n",
        dump.window_start_ns / 1e6,
        dump.window_end_ns / 1e6,
        dump.window_ns() / 1e6,
        dump.post_trigger_ns / 1e6
    );
    out += &format!(
        "  captured {} event rows / {} terminals (pre-window evicted: {} / {})\n",
        dump.events.len(),
        dump.terminals.len(),
        dump.pre_events_evicted,
        dump.pre_terminals_evicted
    );
    out += &format!("  {:>14} {:>12} {:>12} {:>12}\n", "trigger", "at ms", "value", "threshold");
    for t in &dump.triggers {
        out += &format!(
            "  {:>14} {:>12.3} {:>12.2} {:>12.2}\n",
            t.kind.as_str(),
            t.t_ns / 1e6,
            t.value,
            t.threshold
        );
        if let Some(b) = &t.burn {
            out += &format!(
                "  {:>14} window {:.1} ms, peak error {:.2} %, peak burn {:.1}\n",
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
        out += &format!(
            "  latency waterfall ({} completed, {:.3} ms total):\n",
            w.completed, w.total_ms
        );
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
            out += &format!("    {name:<16} {part:>10.3} ms  {:>5.1} %\n", pct(part));
        }
    }
    out += &format!(
        "  arrivals: {} in window at {:.0} rps vs trailing baseline {:.0} rps (x{:.2})\n",
        rep.arrival.window_arrivals,
        rep.arrival.window_rps,
        rep.arrival.baseline_rps,
        rep.arrival.ratio
    );
    out += &format!(
        "  {:<20} {:>9} {:>7} {:>6} {:>8} {:>8}\n",
        "class", "arrivals", "good", "late", "expired", "rejected"
    );
    for c in &rep.per_class {
        out += &format!(
            "  {:<20} {:>9} {:>7} {:>6} {:>8} {:>8}\n",
            c.class.to_string(),
            c.arrivals,
            c.good,
            c.late,
            c.expired,
            c.rejected
        );
    }
    out += &format!("  {:>9} {:>8} {:>12} {:>8}\n", "instance", "batches", "completions", "busy %");
    for i in &rep.per_instance {
        out += &format!(
            "  {:>9} {:>8} {:>12} {:>8.1}\n",
            i.instance,
            i.batches,
            i.completions,
            i.busy_fraction * 100.0
        );
    }
    if !rep.exemplars.is_empty() {
        out += &format!("  slowest {} requests in window:\n", rep.exemplars.len());
        out += &format!(
            "  {:>8} {:<20} {:>8} {:>11} {:>10} {:>6} {:>9}\n",
            "id", "class", "outcome", "latency ms", "queue ms", "batch", "instance"
        );
        for e in &rep.exemplars {
            out += &format!(
                "  {:>8} {:<20} {:>8} {:>11.3} {:>10.3} {:>6} {:>9}\n",
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
    out
}

fn cmd_trace_analyze(args: &[String]) -> Result<(), String> {
    use star::serve::{
        BlameOutcome, IncidentDump, ServeTrace, SloAnalysis, BLAME_SIDECAR_KEY, FLIGHT_SIDECAR_KEY,
        PROFILE_SIDECAR_KEY, TRACE_SIDECAR_KEY,
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
            blame.requests().len(),
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
        print!("{}", render_incident(&dump));
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
        trace.requests().len(),
        trace.batches.len()
    );
    print!("{}", render_slo_analysis(&SloAnalysis::from_trace(&trace, k)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `text` split on whitespace, as a shell passes it.
    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    /// A per-process temporary file path for a test's dump.
    fn temp_path(name: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("star_cli_{name}_{}.json", std::process::id()));
        path.to_str().expect("utf8 temp path").to_string()
    }

    /// Asserts that `serve` rejects each argument line in `bad`.
    fn serve_rejects(bad: &[&str]) {
        for bad in bad {
            assert!(cmd_serve(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Runs `serve --FLAG=PATH` at two points; each output has a `heading` line.
    fn serve_block_runs(flag: &str, heading: &str) {
        let path = temp_path(&format!("{flag}_runs"));
        for point in ["", "8000 1 1 0"] {
            let text = cmd_serve(&argv(&format!("{point} --{flag}={path}"))).expect(point);
            assert!(text.contains(&format!("\n{heading}")), "{text}");
        }
        std::fs::remove_file(&path).ok();
    }

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
        // `f64::from_str` reads `nan` and `inf`; the engine has no row for them.
        for (args, score) in [("q5.2 nan 1 2", "nan"), ("q5.2 inf 1", "inf")] {
            let err = cmd_softmax(&argv(args)).expect_err(args);
            assert_eq!(err, format!("score `{score}` is not finite"));
        }
        assert!(cmd_geometry(&[]).is_err());
        assert!(cmd_fig3(&["zero".into()]).is_err());
        assert!(cmd_fig3(&["0".into()]).is_err());
        assert!(cmd_trace(&[]).is_err());
        assert!(cmd_trace(&["q5.3".into(), "0".into()]).is_err());
        assert!(cmd_metrics(&[]).is_err());
        assert!(cmd_metrics(&["nope".into()]).is_err());
        // Rows past the engine's 512-entry counters are rejected, not run.
        let long: Vec<String> =
            std::iter::once("q5.2".to_string()).chain((0..513).map(|i| i.to_string())).collect();
        let err = cmd_softmax(&long).expect_err("513 scores");
        assert!(err.contains("513") && err.contains("512"), "{err}");
        let err = cmd_metrics(&argv("q5.2 600")).expect_err("seq 600");
        assert!(err.contains("600") && err.contains("512"), "{err}");
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
        cmd_serve(&argv("8000 1 1 0")).expect("serve explicit");
    }

    #[test]
    fn serve_command_rejects_bad_arguments() {
        // `1e308` us is finite, but infinite in ns.
        serve_rejects(&["abc", "0", "8000 0", "8000 1 0", "8000 1 2 -5", "inf", "8000 1 8 1e308"]);
        serve_rejects(&["--trace=", "--flight=", "--bogus"]);
        // Operating points the simulator cannot allocate, each named.
        for (bad, value) in
            [("1e308", "1e308"), ("8000 18446744073709551615", "18446744073709551615")]
        {
            let err = cmd_serve(&argv(bad)).expect_err(bad);
            assert!(err.contains(value), "{err}");
        }
    }

    #[test]
    fn serve_rejects_the_removed_shards_flag() {
        // The event loop keeps one heap, so the old shard-count flag is
        // gone and reads like any other unknown flag.
        let flag = format!("--{}=4", "shards");
        assert_eq!(cmd_serve(std::slice::from_ref(&flag)), Err(format!("unknown flag `{flag}`")));
    }

    #[test]
    fn observer_commands_are_serve_flags() {
        for cmd in ["health", "profile", "blame", "whatif", "incident-analyze"] {
            let err = run(&argv(cmd)).expect_err(cmd);
            assert!(err.starts_with(&format!("unknown command `{cmd}`")), "{err}");
        }
    }

    #[test]
    fn serve_flags_attach_observers_to_one_run() {
        // No flight trigger fires at this point, so the recorder is compared
        // by its counter lines and an unwritten dump.
        let point = "32000 2 8 50";
        let [trace, flight, profile, blame] =
            &["trace", "flight", "profile", "blame"].map(|f| temp_path(&format!("all_{f}")));
        let all = [("trace", trace), ("flight", flight), ("profile", profile), ("blame", blame)];
        let flags: String = all.iter().map(|(flag, path)| format!(" --{flag}={path}")).collect();
        let combined = cmd_serve(&argv(&format!("{point}{flags}"))).expect("every path flag");
        let flight_lines = |text: &str| -> Vec<String> {
            text.lines().filter(|l| l.starts_with("  flight:")).map(String::from).collect()
        };
        for (flag, path) in [("trace", trace), ("flight", flight), ("blame", blame)] {
            let together = std::fs::read(path).ok();
            std::fs::remove_file(path).ok();
            let alone = cmd_serve(&argv(&format!("{point} --{flag}={path}"))).expect(flag);
            assert_eq!(std::fs::read(path).ok(), together, "--{flag} dump");
            if flag == "flight" {
                assert_eq!(flight_lines(&alone), flight_lines(&combined));
                assert!(!flight_lines(&alone).is_empty());
            }
            std::fs::remove_file(path).ok();
        }
        let plain = cmd_serve(&argv(point)).expect("plain");
        assert!(combined.starts_with(&plain), "report lines move:\n{combined}\nvs\n{plain}");
        let alone = cmd_serve(&argv(&format!("{point} --profile={profile}"))).expect("profile");
        std::fs::remove_file(profile).ok();
        let counters = |text: &str| -> Vec<String> {
            let block = text.lines().skip_while(|l| !l.starts_with("work counters"));
            block.take_while(|l| !l.is_empty()).map(String::from).collect()
        };
        assert!(counters(&alone).len() > 1, "{alone}");
        assert_eq!(counters(&combined), counters(&alone));
    }

    #[test]
    fn health_command_runs() {
        // `serve --health`, and `--level`, which implies it.
        let runs = [("--health", "off"), ("4000 2 8 50 --health", "off"), ("4000 2 --level", "on")];
        for (args, on) in runs {
            let text = cmd_serve(&argv(args)).expect(args);
            assert!(text.contains(&format!("\nfleet health (wear leveling {on}):\n")), "{text}");
            assert!(text.contains("  first degradation after "), "{text}");
        }
        // At 20 rps no request arrives in the window: the table prints,
        // and one line says there is nothing to project.
        for (args, on) in [("20 --health", "off"), ("20 --level", "on")] {
            let text = cmd_serve(&argv(args)).expect(args);
            assert!(text.contains("  arrivals 0 "), "{text}");
            assert!(text.contains(&format!("\nfleet health (wear leveling {on}):\n")), "{text}");
            assert!(text.ends_with("no event in the simulated window, nothing to project\n"));
        }
    }

    #[test]
    fn health_command_rejects_bad_arguments() {
        serve_rejects(&["abc --health", "0 --health", "inf --level", "--health=x", "--level=on"]);
    }

    #[test]
    fn profile_command_runs() {
        serve_block_runs("profile", "work counters (deterministic):");
    }

    #[test]
    fn profile_command_rejects_bad_arguments() {
        serve_rejects(&["--profile=", "abc --profile", "8000 1 2 -5 --profile"]);
    }

    #[test]
    fn control_command_runs() {
        cmd_control(&[]).expect("control defaults");
        cmd_control(&argv("8000 1 8 50")).expect("control explicit");
        for policy in ["fifo", "wfq", "edf"] {
            cmd_control(&[format!("--policy={policy}")]).expect(policy);
        }
        for placement in ["first-idle", "least-loaded", "fastest", "energy-greedy"] {
            cmd_control(&[format!("--placement={placement}")]).expect(placement);
        }
        cmd_control(&argv("--autoscale=2:3")).expect("control bounded");
        cmd_control(&argv("--autoscale=off")).expect("control static");
        // Every knob at its no-op default: the baseline path, no report.
        cmd_control(&argv("--policy=fifo --placement=first-idle --autoscale=off"))
            .expect("control no-op");
    }

    #[test]
    fn control_command_rejects_bad_arguments() {
        let bad = ["abc", "0", "8000 0", "8000 1 0", "8000 1 2 -5", "inf", "8000 1 8 1e308"];
        let flags = ["--bogus", "--policy=lifo", "--placement=random", "--autoscale=4"];
        let bounds = ["--autoscale=0:4", "--autoscale=4:1", "--autoscale=a:b"];
        for bad in bad.into_iter().chain(flags).chain(bounds) {
            assert!(cmd_control(&argv(bad)).is_err(), "{bad}");
        }
        // Operating points the simulator cannot allocate, each named.
        for (bad, value) in
            [("1e308", "inf"), ("8000 1 8 50 --autoscale=1:100000000000", "100000000000")]
        {
            let err = cmd_control(&argv(bad)).expect_err(bad);
            assert!(err.contains(value), "{err}");
        }
    }

    #[test]
    fn blame_command_runs() {
        serve_block_runs("blame", "critical-path blame (");
    }

    #[test]
    fn blame_command_rejects_bad_arguments() {
        serve_rejects(&["--blame=", "abc --blame", "8000 1 0 --blame", "--blames"]);
    }

    #[test]
    fn whatif_command_runs() {
        let text = cmd_serve(&argv("8000 1 4 50 --whatif")).expect("whatif explicit");
        assert!(text.contains("what-if (baseline: "), "{text}");
    }

    #[test]
    fn whatif_command_rejects_bad_arguments() {
        serve_rejects(&["--whatif=x", "abc --whatif", "inf --whatif", "8000 1 2 1e308 --whatif"]);
    }

    #[test]
    fn blame_dump_round_trips_through_trace_analyze() {
        let path = temp_path("blame");
        cmd_serve(&argv(&format!("8000 1 --blame={path}"))).expect("serve --blame");
        let text = std::fs::read_to_string(&path).expect("blame dump written");
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(value.get("traceEvents").is_some(), "Perfetto object form");
        let blame = star::serve::BlameOutcome::from_object_json(&value).expect("sidecar");
        for b in blame.requests() {
            assert_eq!(b.components_sum(), b.latency_ns, "conservation survives the round trip");
        }
        cmd_trace_analyze(std::slice::from_ref(&path)).expect("trace-analyze dispatch");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_sidecar_error_names_all_keys() {
        let path = temp_path("nokey");
        std::fs::write(&path, "{\"traceEvents\": []}").expect("write plain object");
        let err = cmd_trace_analyze(std::slice::from_ref(&path)).expect_err("plain object");
        for key in ["starServe", "starServeIncident", "starServeBlame", "starServeProfile"] {
            assert!(err.contains(key), "error must name `{key}`: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_trace_is_valid_chrome_object_with_sidecar() {
        let path = temp_path("profile");
        cmd_serve(&argv(&format!("8000 1 --profile={path}"))).expect("serve --profile");
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
        let path = temp_path("trace");
        cmd_serve(&argv(&format!("8000 1 --trace={path}"))).expect("serve --trace");
        // The file is Perfetto's object form with our sidecar, and the
        // analyzer accepts it.
        let text = std::fs::read_to_string(&path).expect("trace written");
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(value.get("traceEvents").is_some());
        let trace = star::serve::ServeTrace::from_object_json(&value).expect("sidecar");
        trace.validate().expect("span invariants hold");
        cmd_trace_analyze(&[path.clone(), "3".into()]).expect("trace-analyze");
        assert!(cmd_trace_analyze(&[path.clone(), "nope".into()]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_analyze_rejects_bad_inputs() {
        assert!(cmd_trace_analyze(&[]).is_err());
        assert!(cmd_trace_analyze(&["/definitely/not/here.json".into()]).is_err());
        // A plain Chrome trace (no sidecar) is rejected with a pointer to
        // the sidecar key.
        let path = temp_path("plain");
        std::fs::write(&path, "[]").expect("write plain trace");
        let err = cmd_trace_analyze(std::slice::from_ref(&path)).expect_err("plain array");
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
        let path = temp_path("tamper");
        cmd_serve(&argv(&format!("8000 1 --trace={path}"))).expect("serve --trace");
        let text = std::fs::read_to_string(&path).expect("trace written");
        let dump: Value = serde_json::from_str(&text).expect("valid JSON");
        let trace = ServeTrace::from_object_json(&dump).expect("the written dump reads back");
        let ids: Vec<u64> = trace.requests().map(|r| r.id).collect();
        assert!(trace.requests().next().expect("a request").outcome.is_completed());
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
        let last = ids.len() - 1;
        for (what, index, edit) in [
            ("invoke start shifted by 1 ns", 0, shift_invoke),
            ("projection phase 1 ns longer", 0, lengthen_phase),
            ("root span renamed", last, rename_root),
        ] {
            let mut bad = dump.clone();
            let requests = entry(entry(&mut bad, TRACE_SIDECAR_KEY), "requests");
            edit(entry(element(requests, index), "span"));
            let id = format!("request {}:", ids[index]);
            let err = ServeTrace::from_object_json(&bad).expect_err(what);
            assert!(err.contains(&id), "{what}: {err}");
            std::fs::write(&path, serde_json::to_string(&bad).expect("serialize"))
                .expect("write tampered dump");
            let err = cmd_trace_analyze(std::slice::from_ref(&path)).expect_err(what);
            assert!(err.contains(&id), "{what}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_flight_dump_round_trips_through_trace_analyze() {
        // The 80k rps single-instance point saturates the queue, so the
        // default triggers fire deterministically and a dump is written.
        let path = temp_path("flight");
        cmd_serve(&argv(&format!("80000 1 --flight={path}"))).expect("serve --flight");
        let text = std::fs::read_to_string(&path).expect("incident dump written");
        let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(value.get("traceEvents").is_some(), "Perfetto object form");
        let dump = star::serve::IncidentDump::from_object_json(&value).expect("sidecar");
        assert!(!dump.triggers.is_empty());
        cmd_trace_analyze(std::slice::from_ref(&path)).expect("trace-analyze dispatch");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_flight_without_trigger_writes_nothing() {
        // The default 16k rps / 2-instance point is underloaded: no
        // trigger fires, and the dump path stays untouched.
        let path = temp_path("noflight");
        std::fs::remove_file(&path).ok();
        cmd_serve(&[format!("--flight={path}")]).expect("serve --flight quiet");
        assert!(!std::path::Path::new(&path).exists(), "no incident, no dump file");
    }

    #[test]
    fn trace_analyze_identifies_profiler_meta_traces() {
        // A profiler meta-trace has a sidecar, just not a span sidecar —
        // the error must say what the file *is*, not just what it isn't.
        let path = temp_path("profdump");
        cmd_serve(&argv(&format!("8000 1 --profile={path}"))).expect("serve --profile");
        let err = cmd_trace_analyze(std::slice::from_ref(&path)).expect_err("meta-trace rejected");
        assert!(err.contains("starServeProfile"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_json_is_valid_chrome_trace() {
        let durations = paper_row_durations(QFormat::MRPC, 8).expect("durations");
        let trace = pipeline_chrome_trace(&durations, PipelineMode::VectorGrained);
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
