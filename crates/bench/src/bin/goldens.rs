//! `goldens` — writes every `star_bench::FIXTURES` entry, the
//! deterministic fixtures that are not experiment results, to `results/`
//! (or `STAR_RESULTS_DIR`). The golden test pins each one byte for byte
//! against `crates/bench/tests/golden/`; to accept a deliberate change,
//! run `STAR_RESULTS_DIR=crates/bench/tests/golden goldens` and review
//! the `git diff`.

fn main() {
    star_bench::header("goldens: regenerate the deterministic golden fixtures");
    for fixture in star_bench::FIXTURES {
        let path = star_bench::write_json(fixture.name, &(fixture.run)()).expect("write results/");
        println!("  wrote {}", path.display());
    }
}
