//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and the run manifest, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A traced run
//! also writes its span records to `perfbench/out/`.

use perfbench::{execute, parse_args, report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (run, units) = execute(&args);
    let manifest = report::manifest(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        units,
        &run,
    );
    if let Some(spans) = &run.spans {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, format!("{manifest}\n{spans}")));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for note in &run.notes {
        println!("{note}");
    }
    println!("manifest {manifest}");
    println!("{}", report::result_line(&run));
    ExitCode::SUCCESS
}
