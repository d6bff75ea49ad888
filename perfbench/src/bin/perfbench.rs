//! End-to-end runner: `perfbench --workload W --seed N --seconds S --trace 0
//! --cold <cold binary> --work <work root>`. Prints detail lines, then the
//! result as one JSON object on the last line; exits nonzero when any
//! operation failed its check.

use perfbench::args::Args;
use perfbench::report::Outcome;
use perfbench::{chain_seed, prep_in_child, prep_main, serve, train, WorkDir};

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return Err("--trace 1 runs the perfbench-trace binary".into());
    }
    let work = WorkDir::create(&args.work, args.workload, args.seed)
        .map_err(|e| format!("creating the work directory: {e}"))?;
    prep_in_child(args.workload, args.seed, args.seconds, work.path())?;
    let mut out = Outcome::default();
    let seed = chain_seed(args.seed);
    match args.workload {
        perfbench::Workload::Train => train::bench(work.path(), seed, args.seconds, &mut out)?,
        w => serve::bench(&args.cold, work.path(), w, args.seconds, &mut out)?,
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("prep") {
        if let Err(e) = prep_main(&argv[1..]) {
            eprintln!("perfbench prep: {e}");
            std::process::exit(2);
        }
        return;
    }
    let outcome = Args::parse(&argv).and_then(|args| run(&args));
    match outcome {
        Ok(out) => std::process::exit(out.emit()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
