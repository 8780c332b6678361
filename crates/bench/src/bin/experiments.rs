//! Prints the paper's tables, E1–E16 (DESIGN.md §5), to stdout.
//!
//! ```text
//! cargo run --release -p garnet-bench --bin experiments            # all
//! cargo run --release -p garnet-bench --bin experiments -- e06 e10 # some
//! ```
//!
//! The output of a full run is recorded in `EXPERIMENTS.md` alongside
//! the paper's corresponding claims.

use garnet_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    println!("# Garnet experiment suite\n");

    if want("e01") {
        let (_, t) = e01_codec::run();
        println!("{}", t.render());
    }
    if want("e02") {
        let (_, t) = e02_capacity::run();
        println!("{}", t.render());
        println!(
            "id-space sweep: {} distinct sensors across the 24-bit space, all delivered\n",
            e02_capacity::id_space_sweep(100_000)
        );
    }
    if want("e03") {
        let (_, t) = e03_pipeline::run();
        println!("{}", t.render());
    }
    if want("e04") {
        let (_, t) = e04_filtering::run();
        println!("{}", t.render());
        let (_, t) = e04_filtering::run_ablation();
        println!("{}", t.render());
    }
    if want("e05") {
        let (_, t) = e05_dispatch::run();
        println!("{}", t.render());
    }
    if want("e06") {
        let (_, t) = e06_retri::run();
        println!("{}", t.render());
    }
    if want("e07") {
        let (_, t) = e07_fjords::run();
        println!("{}", t.render());
    }
    if want("e08") {
        let (_, t) = e08_coupling::run();
        println!("{}", t.render());
    }
    if want("e09") {
        let (_, t) = e09_location::run();
        println!("{}", t.render());
    }
    if want("e10") {
        let (_, _, t) = e10_predictive::run();
        println!("{}", t.render());
    }
    if want("e11") {
        let (_, t) = e11_mediation::run();
        println!("{}", t.render());
    }
    if want("e12") {
        let (_, t) = e12_orphanage::run();
        println!("{}", t.render());
        let (tracked, evicted) = e12_orphanage::memory_bound(5_000, 256);
        println!("memory bound: 5000 unclaimed streams under cap 256 → tracked {tracked}, evicted {evicted}\n");
    }
    if want("e13") {
        let (_, t) = e13_multilevel::run();
        println!("{}", t.render());
    }
    if want("e14") {
        let (_, t) = e14_crypto::run();
        println!("{}", t.render());
    }
    if want("e15") {
        let (_, t) = e15_multihop::run();
        println!("{}", t.render());
    }
    if want("e16") {
        let (_, _, t) = e16_quiesce::run();
        println!("{}", t.render());
    }
}
