//! `goldens` — writes the deterministic fixtures that are not experiment
//! results: the profiler's work counters at the A8 point, the serve work
//! matrix, the flight recorder's incident dump, the faulty-array softmax
//! pin and the serve loop's metrics across consecutive runs. The
//! `star-bench` golden tests pin each one byte for byte; to accept a
//! deliberate change, copy `results/<name>.json` to
//! `crates/bench/tests/golden/`.

fn main() {
    star_bench::header("goldens: regenerate the deterministic golden fixtures");
    for (name, build) in [
        ("profile_work", star_bench::profile_work_result as fn() -> _),
        ("serve_work", star_bench::serve_work_result),
        ("incident", star_bench::incident_result),
        ("star_faults", star_bench::star_faults_result),
        ("serve_telemetry", star_bench::serve_telemetry_result),
    ] {
        let path = star_bench::write_json(name, &build()).expect("write results/");
        println!("  wrote {}", path.display());
    }
}
