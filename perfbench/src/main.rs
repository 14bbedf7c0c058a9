//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>`

fn main() {
    std::process::exit(sb_perfbench::main(std::env::args().skip(1)));
}
