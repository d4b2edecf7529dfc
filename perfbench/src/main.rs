//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload and print its result as the last line of stdout.

use perfbench::alloc::CountingAlloc;
use perfbench::{run, Args};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
