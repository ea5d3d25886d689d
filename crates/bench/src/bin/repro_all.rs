//! One-command reproduction: runs every experiment harness and summarizes
//! pass/fail. Binaries are located next to this one in the cargo target
//! directory, so `cargo run -p star-bench --bin repro_all` builds and runs
//! the complete paper reproduction.
//!
//! # Parallel fan-out
//!
//! The experiments are mutually independent processes writing disjoint
//! result files, so they fan out across a `star-exec` pool
//! (`STAR_EXEC_THREADS` workers; `1` recovers the historical serial
//! behaviour). Child stdout/stderr is *captured* and replayed in the fixed
//! experiment order, so the stdout transcript — like the `results/*.json`
//! sidecars — is byte-identical for every worker count (worker-count
//! diagnostics go to stderr only).
//!
//! # Subset selection
//!
//! `repro_all <name>...` runs just the named experiments; an unknown name
//! exits 2.
//!
//! # One process per experiment
//!
//! The experiment list is `star_bench::EXPERIMENTS`, and each entry runs
//! as its own binary. A process per experiment keeps the peak resident
//! set at the largest single experiment's; one process running them all
//! would hold several experiments' peaks at once.

use star_exec::Executor;
use std::path::Path;
use std::process::Command;

/// Outcome of one experiment child process.
struct Outcome {
    name: &'static str,
    /// `None`: binary missing. `Some(Err)`: spawn failure. `Some(Ok)`:
    /// ran, with captured output.
    run: Option<std::io::Result<std::process::Output>>,
}

fn run_one(dir: &Path, name: &'static str) -> Outcome {
    let bin = dir.join(name);
    if !bin.exists() {
        return Outcome { name, run: None };
    }
    Outcome { name, run: Some(Command::new(&bin).output()) }
}

/// The selected experiment subset: the CLI args, else the full list.
/// Unknown names abort — silently running nothing would look like
/// success.
fn selection() -> Vec<&'static str> {
    let known: Vec<&'static str> = star_bench::EXPERIMENTS.iter().map(|e| e.name).collect();
    let requested: Vec<String> = std::env::args().skip(1).collect();
    if requested.is_empty() {
        return known;
    }
    requested
        .iter()
        .map(|r| {
            known.iter().copied().find(|e| e == r).unwrap_or_else(|| {
                eprintln!("unknown experiment {r:?}; known: {known:?}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn main() {
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("target directory").to_path_buf();
    let selected = selection();
    let exec = Executor::from_env();
    // Worker count goes to stderr: stdout is the canonical transcript and
    // must be byte-identical for every `STAR_EXEC_THREADS`.
    eprintln!(
        "repro_all: {} experiment(s) across {} worker(s)",
        selected.len(),
        exec.threads().min(selected.len().max(1))
    );

    let outcomes = exec.par_map(&selected, |_, &name| run_one(&dir, name));

    let mut failures = Vec::new();
    for outcome in &outcomes {
        let name = outcome.name;
        match &outcome.run {
            None => {
                eprintln!(
                    "[skip] {name}: binary not built (run `cargo build --release -p star-bench --bins` first)"
                );
                failures.push(name);
            }
            Some(Err(e)) => {
                eprintln!("[fail] {name}: {e}");
                failures.push(name);
            }
            Some(Ok(output)) => {
                println!("\n────────────────────────── {name} ──────────────────────────");
                print!("{}", String::from_utf8_lossy(&output.stdout));
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                if !output.status.success() {
                    eprintln!("[fail] {name}: exit {}", output.status);
                    failures.push(name);
                }
            }
        }
    }

    println!("\n══════════════════════════ summary ══════════════════════════");
    println!(
        "  {} / {} experiments completed; results under {}",
        selected.len() - failures.len(),
        selected.len(),
        star_bench::results_dir().display()
    );
    // Each child process wrote its own sidecar; this one covers the
    // driver itself (pipeline reports at the paper operating point).
    match star_bench::write_telemetry_sidecar("repro_all") {
        Ok(path) => println!("  telemetry sidecar: {}", path.display()),
        Err(e) => eprintln!("  telemetry sidecar failed: {e}"),
    }
    if !failures.is_empty() {
        eprintln!("  failed/skipped: {failures:?}");
        std::process::exit(1);
    }
}
