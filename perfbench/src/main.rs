//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints notes, then the result as the last line of
//! standard output; exits 1 when any output check failed and 2 on bad
//! arguments.

use std::process::ExitCode;

use perfbench::report::Outcome;
use perfbench::Options;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&opts);
    print_notes(&opts, &outcome);
    println!("{}", outcome.json_line(opts.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_notes(opts: &Options, outcome: &Outcome) {
    let mode = if opts.trace { "traced" } else { "untraced" };
    println!(
        "# {} seed {} ({mode}, {} s)",
        opts.workload, opts.seed, opts.seconds
    );
    for line in &outcome.notes {
        println!("# {line}");
    }
    for (name, unit) in Outcome::catalogue(opts.trace) {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        println!("metric {name} = {value} {unit}");
    }
    if opts.trace {
        println!("# spans written to {}", opts.trace_path().display());
    }
    for failure in outcome.failures.iter().take(10) {
        println!("# FAILED: {failure}");
    }
    if outcome.failures.len() > 10 {
        println!("# ... and {} more failures", outcome.failures.len() - 10);
    }
}
