//! Runs the whole campaign and prints every figure's data.

use ginflow_bench::{fig12, fig13, fig14, fig15, fig16, quick_from_args};

fn main() {
    let quick = quick_from_args("run_all", "the full evaluation campaign (figs 12–16)");
    println!(
        "=== GinFlow evaluation campaign ({}) ===\n",
        if quick { "quick" } else { "full" }
    );
    for s in &fig12::run(quick) {
        println!("{}", fig12::render(s));
    }
    println!("{}\n", fig13::render(&fig13::run(quick)));
    println!("{}\n", fig14::render(&fig14::run(quick)));
    println!("{}\n", fig15::render(&fig15::run()));
    println!("{}", fig16::render(&fig16::run(quick)));
}
