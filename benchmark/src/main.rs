//! The repo's benchmark (see `README.md` in this directory).
//!
//! ```text
//! benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick]
//! ```
//!
//! Generates the workload's inputs from the seed, checks answers before
//! it times anything, prints every metric by name with its unit, and
//! ends standard output with one JSON object: the end-to-end metrics
//! (`--trace 0`, the default) or the per-layer metrics (`--trace 1`).

mod catalog;
mod env;
mod harness;
mod inproc;
mod layers;
mod live;
mod routed;
mod scenario;
mod stats;
mod trace;

use harness::{Args, Outcome, ScratchDir};
use scenario::{Path, WORKLOADS};

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if scenario::workload(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to time a build with debug assertions on; use --release");
        std::process::exit(2);
    }
    let scratch = ScratchDir::create().unwrap_or_else(|e| {
        eprintln!(
            "benchmark: cannot create scratch space under {:?}: {e}",
            harness::out_dir()
        );
        std::process::exit(2);
    });
    let w = scenario::workload(&args.workload).expect("validated by parse_args");
    print!("{}", env::header(scratch.path()));
    println!(
        "# workload {} | seed {} | seconds {} | trace {} | quick {}",
        harness::describe(w),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );

    let inputs = w.inputs(args.seed, args.quick);
    let mut out = if args.trace {
        layers::run_traced(w, &args, &inputs, &scratch)
    } else {
        match w.path {
            Path::InProcess => inproc::run(w, &args, &inputs),
            Path::Routed => routed::run(w, &args, &inputs, &scratch),
            Path::LiveMixed => live::run(w, &args, &inputs, &scratch),
        }
    };
    drop(scratch);
    finish(&args, &mut out);
}

/// Prints the metric table and the closing JSON line. A run whose
/// checks failed prints no timings and exits non-zero.
fn finish(args: &Args, out: &mut Outcome) {
    if out.failed > 0 {
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            out.attempted, out.failed
        );
        std::process::exit(1);
    }
    let defs = if args.trace {
        catalog::PER_LAYER
    } else {
        out.metrics.set("peak_rss_mb", harness::peak_rss_mb());
        catalog::END_TO_END
    };
    print!("{}", out.metrics.render_lines(defs));
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
        out.attempted,
        out.metrics.render_json(defs)
    );
}
