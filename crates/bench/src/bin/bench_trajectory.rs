//! `bench_trajectory` — the simulator-performance trajectory harness
//! behind the repo-root `BENCH_serve.json`.
//!
//! Runs the `serve_event_loop` matrix (arrival rate × fleet ×
//! {untraced, traced, health, profiled, flight, blame}) and
//! maintains the tracked file's
//! two tracks: deterministic work-counter budgets (machine-independent,
//! gated hard in CI) and wall-clock medians (machine-dependent,
//! report-only). See `star_bench::trajectory` for the schema.
//!
//! ```text
//! bench_trajectory check              # gate: counters vs recorded budgets
//! bench_trajectory measure [ITERS]    # report-only wall-clock medians
//! bench_trajectory update LABEL [ITERS]  # rewrite budgets, append medians
//! bench_trajectory golden             # write results/{profile_work,incident,star_faults}.json
//! ```
//!
//! `check` exits nonzero when any counter grew more than the recorded
//! tolerance over its budget — the machine-independent regression gate.
//! `golden` regenerates the deterministic fixtures the `star-bench`
//! golden tests pin — the work-counter snapshot, the flight-recorder
//! incident dump, and the faulty-array softmax pin (copy
//! `results/<name>.json` to `crates/bench/tests/golden/` to accept a
//! deliberate change).

use star_bench::{header, trajectory};

const DEFAULT_ITERS: usize = 5;

fn usage() -> ! {
    eprintln!(
        "usage: bench_trajectory <check | measure [iters] | update <label> [iters] | golden>"
    );
    std::process::exit(2);
}

fn print_entry(entry: &trajectory::TrajectoryEntry) {
    let points = trajectory::matrix_points();
    print!("  {:<10}", "variant");
    for (label, _, _) in &points {
        print!(" {label:>12}");
    }
    println!();
    for variant in trajectory::VARIANTS {
        let Some(row) = entry.medians_ms.get(variant) else { continue };
        print!("  {variant:<10}");
        for (label, _, _) in &points {
            match row.get(label) {
                Some(ms) => print!(" {:>9.3} ms", ms),
                None => print!(" {:>12}", "-"),
            }
        }
        println!();
    }
    print!("  {:<10}", "events/s");
    for (label, _, _) in &points {
        match entry.events_per_sec.get(label) {
            Some(eps) => print!(" {:>11.2}M", eps / 1e6),
            None => print!(" {:>12}", "-"),
        }
    }
    println!();
}

fn cmd_check() {
    let path = trajectory::trajectory_file_path();
    let file = match trajectory::load_trajectory(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot load {}: {e}", path.display());
            eprintln!("seed it with `bench_trajectory update <label>`");
            std::process::exit(1);
        }
    };
    header("bench_trajectory: deterministic work-budget gate");
    let current = trajectory::current_work_counters();
    let (failures, notes) =
        trajectory::check_budgets(&file.work_budgets, &current, file.tolerance_pct);
    for (point, counters) in &current {
        let events = counters.get("events_total").copied().unwrap_or(0);
        let budget =
            file.work_budgets.get(point).and_then(|b| b.get("events_total")).copied().unwrap_or(0);
        println!("  {point:<12} events_total {events:>8}  (budget {budget})");
    }
    for note in &notes {
        println!("  note: {note}");
    }
    if failures.is_empty() {
        println!(
            "  OK: all counters within {:.0}% of budget across {} points",
            file.tolerance_pct,
            current.len()
        );
    } else {
        for f in &failures {
            eprintln!("  FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn cmd_measure(iters: usize) {
    header(&format!("bench_trajectory: wall-clock matrix, median of {iters} (report-only)"));
    let entry = trajectory::measure_trajectory("measure", iters);
    print_entry(&entry);
}

fn cmd_update(label: &str, iters: usize) {
    let path = trajectory::trajectory_file_path();
    let mut file = trajectory::load_trajectory(&path).unwrap_or(trajectory::TrajectoryFile {
        bench: "serve_event_loop".to_string(),
        unit: "ms".to_string(),
        tolerance_pct: trajectory::WORK_BUDGET_TOLERANCE_PCT,
        work_budgets: Default::default(),
        trajectory: Vec::new(),
    });
    header(&format!("bench_trajectory: update budgets + append '{label}'"));
    file.work_budgets = trajectory::current_work_counters();
    let entry = trajectory::measure_trajectory(label, iters);
    print_entry(&entry);
    file.trajectory.push(entry);
    if let Err(e) = trajectory::save_trajectory(&path, &file) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "  wrote {} ({} points, {} trajectory entries)",
        path.display(),
        file.work_budgets.len(),
        file.trajectory.len()
    );
}

fn cmd_golden() {
    header("bench_trajectory: regenerate the deterministic golden fixtures");
    for (name, build) in [
        ("profile_work", star_bench::profile_work_result as fn() -> _),
        ("incident", star_bench::incident_result),
        ("star_faults", star_bench::star_faults_result),
    ] {
        let path = star_bench::write_json(name, &build()).expect("write results/");
        println!("  wrote {}", path.display());
        println!("  accept: cp {} crates/bench/tests/golden/{name}.json", path.display());
    }
}

fn parse_iters(arg: Option<&String>) -> usize {
    match arg {
        None => DEFAULT_ITERS,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: iters must be a positive integer, got '{s}'");
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") if args.len() == 1 => cmd_check(),
        Some("measure") if args.len() <= 2 => cmd_measure(parse_iters(args.get(1))),
        Some("update") if args.len() >= 2 && args.len() <= 3 => {
            cmd_update(&args[1], parse_iters(args.get(2)));
        }
        Some("golden") if args.len() == 1 => cmd_golden(),
        _ => usage(),
    }
}
