//! The repository benchmark. It drives the Loom reproduction only through
//! its public entry points, from one process, checks every timed result
//! bit-exact against references, and ends its output with one JSON line of
//! metrics.
//!
//! ```text
//! loombench --workload <zoo-b1|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! loombench --regen --workload <name> --seed <n>
//! loombench --setup --workload <name> --seed <n>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it reports the per-layer metrics and writes one row per compute node to
//! `.bench_out/`. Two modes run in child processes a run starts itself:
//! `--regen`, the explicit reference-regeneration step, when `.bench_refs/`
//! lacks its references; and `--setup`, which times one cold set-up of the
//! workload and prints its seconds. Engine threads are the machine's logical
//! CPUs; `serve-mix` on a machine with fewer logical CPUs than its clients
//! is refused with exit code 2.

mod layers;
mod refs;
mod report;
mod serve;
mod stats;
mod trace;
mod zoo;

use loom_serve::json::Json;
use report::Metric;
use stats::{median, Tally};
use std::process::{Command, ExitCode, Stdio};

/// What a workload run produced.
pub struct Outcome {
    /// Verified operations and failures.
    pub tally: Tally,
    /// Metrics measured (the catalog fills the rest with 0).
    pub metrics: Vec<Metric>,
    /// Seconds of the run's own set-up, which was cold.
    pub setup_s: f64,
    /// Per-node trace rows, for traced runs.
    pub rows: Option<String>,
    /// Checks other than result equality that failed.
    pub check_failures: Vec<String>,
    /// Run details for the provenance line.
    pub notes: Vec<(&'static str, Json)>,
}

/// Cold set-ups `setup_s` is the median of: the run's own and, in an
/// untraced run, the rest each in a fresh child process, since the weight
/// store keeps every packed layer for the life of a process.
const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 2] = ["zoo-b1", "serve-mix"];

enum Mode {
    Run,
    Regen,
    Setup,
}

struct Args {
    mode: Mode,
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: "",
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--regen" => {
                args.mode = Mode::Regen;
                continue;
            }
            "--setup" => {
                args.mode = Mode::Setup;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value:?} (one of {WORKLOADS:?})"))?;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad())?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || !seen_seed {
        return Err("--workload and --seed are required".to_string());
    }
    Ok(args)
}

/// Runs this program with `args` in a child process and returns its
/// standard output.
pub fn run_child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{args:?} failed ({})", out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("{args:?} printed non-UTF-8"))
}

/// Seconds of one cold set-up of `workload`, timed in a fresh child process.
fn cold_setup(workload: &str, seed: u64) -> Result<f64, String> {
    let seed = seed.to_string();
    let out = run_child(&["--setup", "--workload", workload, "--seed", &seed])?;
    out.trim()
        .parse()
        .map_err(|_| format!("the set-up step printed {out:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loombench: {e}");
            return ExitCode::from(2);
        }
    };

    // Oversubscription policy: a run with more client threads than logical
    // CPUs measures contention, not the program.
    let threads = loom_core::threads::available();
    if args.workload == "serve-mix" && serve::CLIENTS > threads {
        eprintln!(
            "loombench: refusing {} clients on {threads} logical CPUs",
            serve::CLIENTS
        );
        return ExitCode::from(2);
    }

    // The zoo workloads draw from fixed image pools, so one reference set
    // ("pool") serves every seed; serving references follow the seed's
    // inputs.
    let set = match args.workload {
        "serve-mix" => args.seed.to_string(),
        _ => "pool".to_string(),
    };
    match args.mode {
        Mode::Run => {}
        Mode::Regen => {
            let refs = match args.workload {
                "zoo-b1" => zoo::regenerate(threads),
                _ => serve::regenerate(args.seed, threads),
            };
            return match refs::write(args.workload, &set, &refs) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("loombench: writing references: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Mode::Setup => {
            let seconds = match args.workload {
                "zoo-b1" => zoo::setup_once(threads),
                _ => serve::setup_once(threads),
            };
            println!("{seconds}");
            return ExitCode::SUCCESS;
        }
    }

    // The zoo pool's references are made on the first run in a checkout,
    // whatever its workload: that run may take long, and no later run then
    // pays for them.
    let load = |workload: &str, set: &str| refs::load_or_regenerate(workload, set, args.seed);
    let loaded = load("zoo-b1", "pool").and_then(|(zoo, zoo_s)| match args.workload {
        "zoo-b1" => Ok((zoo, zoo_s)),
        _ => load(args.workload, &set).map(|(refs, s)| (refs, zoo_s + s)),
    });
    let (refs, regen_s) = match loaded {
        Ok(refs) => refs,
        Err(e) => {
            eprintln!("loombench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut outcome = match args.workload {
        "zoo-b1" => zoo::run(seed, seconds, trace, threads, &refs),
        _ => serve::run(seed, seconds, trace, threads, &refs),
    };

    let catalog = if trace {
        report::per_layer()
    } else {
        let mut setups = vec![outcome.setup_s];
        for _ in 1..SETUP_REPS {
            match cold_setup(args.workload, seed) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    eprintln!("loombench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        outcome
            .metrics
            .push(report::metric("setup_s", median(&setups), "s"));
        outcome
            .notes
            .push(("setup_reps_s", report::numbers(&setups)));
        report::end_to_end()
    };
    let metrics = report::complete(outcome.metrics, &catalog);
    let mut notes: Vec<(&str, Json)> = vec![
        ("workload", args.workload.into()),
        ("seed", Json::Number(seed as f64)),
        ("seconds", Json::Number(seconds)),
        ("trace", Json::Bool(trace)),
        ("threads", Json::Number(threads as f64)),
        ("regen_s", Json::Number(regen_s)),
    ];
    if args.workload == "serve-mix" {
        notes.push(("clients", Json::Number(serve::CLIENTS as f64)));
    }
    notes.extend(outcome.notes);
    if let Some(rows) = &outcome.rows {
        let path = format!(".bench_out/{}-{seed}-nodes.tsv", args.workload);
        match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, rows)) {
            Ok(()) => notes.push(("node_rows", path.as_str().into())),
            Err(e) => eprintln!("loombench: writing {path}: {e}"),
        }
    }
    if !outcome.check_failures.is_empty() {
        notes.push((
            "check_failures",
            outcome.check_failures.join("; ").as_str().into(),
        ));
    }
    let correct = outcome.tally.failed() == 0 && outcome.check_failures.is_empty();
    println!("# provenance {}", report::provenance(notes).to_string());
    println!(
        "{}",
        report::result_line(correct, &outcome.tally, &metrics).to_string()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
