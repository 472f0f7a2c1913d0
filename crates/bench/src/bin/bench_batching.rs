//! Runs the batching sweep on the threaded runtime and the simulator,
//! asserts that every row's results equal the Kang oracle's, prints the
//! report and writes the `BENCH_batching.json` snapshot.

use llhj_bench::experiments::batching;
use llhj_bench::Scale;

fn main() {
    let report = batching::run(&Scale::default(), &[1, 8, 64, 256]);
    print!("{}", report.report);
    let json = report.to_json();
    let path = "BENCH_batching.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    if let (Some(fine), Some(coarse)) = (report.throughput_at(1), report.throughput_at(64)) {
        println!("batch 64 speedup over batch 1: {:.2}x", coarse / fine);
    }
}
