fn main() {
    std::process::exit(perils_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
