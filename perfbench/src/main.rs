//! `mdh-perfbench`: the repository's end-to-end and per-layer serving
//! benchmark. See `perfbench/README.md`.
//!
//! ```text
//! mdh-perfbench run   --workload W --seed N --seconds S --trace 0|1 [--run-dir DIR]
//! mdh-perfbench serve --workload W --socket PATH      (the server process)
//! ```

mod client;
mod drive;
mod load;
mod oracle;
mod report;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::exit;
use workload::Workload;

fn usage() -> ! {
    eprintln!(
        "usage: mdh-perfbench run --workload <dot_pipe|dense_kernels|cold_mix|grad_devices> \
         --seed N --seconds S --trace 0|1 [--run-dir DIR]\n       \
         mdh-perfbench serve --workload W --socket PATH"
    );
    exit(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Exit when the parent process is gone: a killed benchmark run must not
/// leave its server (or a killed launcher its run) behind.
fn exit_with_parent() {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if std::os::unix::process::parent_id() != parent {
            exit(3);
        }
    });
}

fn main() {
    exit_with_parent();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage());
    match args.first().map(String::as_str) {
        Some("serve") => {
            let socket = PathBuf::from(flag(&args, "--socket").unwrap_or_else(|| usage()));
            if let Err(e) = server::serve(&socket, workload) {
                eprintln!("mdh-perfbench serve: {e}");
                exit(1);
            }
        }
        Some("run") => {
            let num = |name: &str| -> u64 {
                flag(&args, name)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            };
            let seconds = num("--seconds");
            let trace = num("--trace");
            if seconds == 0 || trace > 1 {
                usage();
            }
            let a = drive::Args {
                workload,
                seed: num("--seed"),
                seconds,
                trace: trace == 1,
                run_dir: PathBuf::from(flag(&args, "--run-dir").unwrap_or(".bench_run")),
            };
            match drive::run(&a) {
                Ok(code) => exit(code),
                Err(e) => {
                    eprintln!("mdh-perfbench: {} run failed: {e}", workload.name());
                    exit(2);
                }
            }
        }
        _ => usage(),
    }
}
