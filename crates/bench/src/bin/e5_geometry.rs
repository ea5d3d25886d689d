fn main() {
    star_bench::experiment_main(env!("CARGO_BIN_NAME"))
}
