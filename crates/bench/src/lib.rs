//! # ginflow-bench — regenerating the paper's evaluation
//!
//! One module per figure of §V; each exposes a `run(quick)` function that
//! produces the figure's data series and a `main`-style printer used by
//! the `fig1x` binaries. `quick` mode shrinks sweeps/repetitions for CI;
//! the full mode regenerates the paper-scale campaign.
//!
//! | binary | paper artefact | experiment |
//! |--------|----------------|------------|
//! | `fig12` | Fig 12 (a)/(b) | coordination timespan of diamond meshes |
//! | `fig13` | Fig 13 | adaptiveness over/without ratio, 3 scenarios |
//! | `fig14` | Fig 14 | executor × middleware deployment/execution |
//! | `fig15` | Fig 15 | Montage shape + duration CDF |
//! | `fig16` | Fig 16 | resilience under failure injection |
//! | `run_all` | Figs 12–16 | everything above, one after the other |

pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod stats;
pub mod table;

/// Parse the common `--quick` flag (plus `--help`).
pub fn quick_from_args(figure: &str, description: &str) -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{figure}: {description}");
        println!("usage: {figure} [--quick]");
        println!("  --quick   reduced sweep (CI-sized); omit for the paper-scale campaign");
        std::process::exit(0);
    }
    args.iter().any(|a| a == "--quick")
}
