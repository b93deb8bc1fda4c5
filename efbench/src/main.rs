//! The `efbench` binary: see `efbench::cli` for the command line.

#[global_allocator]
static ALLOCATOR: efbench::alloc::Counting = efbench::alloc::Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(efbench::cli::main(&args));
}
