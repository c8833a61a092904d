//! The one thread-budget policy every binary shares: **the `--threads` flag,
//! else [`available`]** (the machine's available parallelism). Bench and
//! serving binaries resolve their worker count through [`resolve`] so the
//! policy cannot drift between tools, and [`physical_cores`] reports the
//! physical core count for bench provenance (SMT siblings share execution
//! ports, so scaling floors are judged against physical cores, not logical
//! CPUs).
//!
//! Beside it sits [`flag`], the one parser the serving and bench binaries
//! read their valued options through (`--threads`, `--port`, `--out`, the CI
//! floors).

use std::str::FromStr;

/// Logical CPUs available to this process (1 if undeterminable).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a worker-thread count: an explicit `--threads` flag value, else
/// [`available`]. A flag value of `Some(0)` is treated as unset (the CLI
/// parsers already reject zero, this keeps the helper total).
pub fn resolve(flag: Option<usize>) -> usize {
    flag.filter(|&n| n > 0).unwrap_or_else(available)
}

/// The value of `--name v` or `--name=v` among this process's arguments,
/// parsed as `T`, or `None` when the flag is absent. A present flag whose
/// value is missing or does not parse is a usage error: the process says why
/// on stderr and exits 2, so a mistyped CI floor fails rather than falling
/// back to a default.
pub fn flag<T: FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flag(&args, name).unwrap_or_else(|message| {
        eprintln!("ERROR: {message}");
        std::process::exit(2)
    })
}

/// The parsing half of [`flag`], over an explicit argument list (program
/// name excluded): `Ok(None)` when `--name` is absent, `Err` with the usage
/// message when its value is missing or does not parse as `T`. The first
/// occurrence wins.
fn parse_flag<T: FromStr, S: AsRef<str>>(args: &[S], name: &str) -> Result<Option<T>, String> {
    let bare = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        let value = if arg == bare {
            args.next().ok_or_else(|| format!("{bare} needs a value"))?
        } else if let Some(value) = arg.strip_prefix(&prefix) {
            value
        } else {
            continue;
        };
        return value.parse().map(Some).map_err(|_| {
            format!(
                "{bare}: cannot parse {value:?} as {}",
                std::any::type_name::<T>()
            )
        });
    }
    Ok(None)
}

/// Physical core count: unique `(physical id, core id)` pairs from
/// `/proc/cpuinfo`, falling back to [`available`] when the file is missing
/// or unparsable (non-Linux hosts, restricted containers).
pub fn physical_cores() -> usize {
    physical_cores_from(&std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default())
        .unwrap_or_else(available)
}

/// Parses `/proc/cpuinfo` text into a physical core count. `None` when the
/// text holds no topology lines (the caller falls back).
fn physical_cores_from(cpuinfo: &str) -> Option<usize> {
    let mut cores = std::collections::HashSet::new();
    let (mut package, mut core) = (None::<u64>, None::<u64>);
    for line in cpuinfo.lines() {
        let Some((key, value)) = line.split_once(':') else {
            // Blank line: one logical-CPU stanza ended.
            if let (Some(p), Some(c)) = (package, core) {
                cores.insert((p, c));
            }
            (package, core) = (None, None);
            continue;
        };
        match key.trim() {
            "physical id" => package = value.trim().parse().ok(),
            "core id" => core = value.trim().parse().ok(),
            _ => {}
        }
    }
    if let (Some(p), Some(c)) = (package, core) {
        cores.insert((p, c));
    }
    (!cores.is_empty()).then_some(cores.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_beats_env_beats_available() {
        // The flag always wins outright; zero flags are treated as unset.
        assert_eq!(resolve(Some(3)), 3);
        assert_eq!(resolve(Some(0)), available());
        assert_eq!(resolve(None), available());
    }

    #[test]
    fn flags_parse_both_syntaxes_and_reject_missing_or_bad_values() {
        let args = [
            "--reduced",
            "--threads",
            "4",
            "--floor=1.5",
            "--out",
            "x.json",
        ];
        assert_eq!(parse_flag::<usize, _>(&args, "threads"), Ok(Some(4)));
        assert_eq!(parse_flag::<f64, _>(&args, "floor"), Ok(Some(1.5)));
        assert_eq!(
            parse_flag::<String, _>(&args, "out"),
            Ok(Some("x.json".to_string()))
        );
        // Absent, including a flag that only shares a prefix.
        assert_eq!(parse_flag::<usize, _>(&args, "port"), Ok(None));
        assert_eq!(parse_flag::<usize, _>(&args, "thread"), Ok(None));
        // Present without a value.
        assert_eq!(
            parse_flag::<String, _>(&["--models"], "models"),
            Err("--models needs a value".to_string())
        );
        // Present with a value that does not parse as the asked type.
        assert_eq!(
            parse_flag::<usize, _>(&["--threads", "four"], "threads"),
            Err("--threads: cannot parse \"four\" as usize".to_string())
        );
        assert!(parse_flag::<usize, _>(&["--threads=-1"], "threads").is_err());
        assert!(parse_flag::<usize, _>(&["--threads="], "threads").is_err());
        assert!(parse_flag::<f64, _>(&["--floor", "fast"], "floor").is_err());
    }

    #[test]
    fn cpuinfo_topology_counts_unique_cores() {
        // Two packages × two cores, each core with two SMT siblings: eight
        // stanzas, four physical cores.
        let mut text = String::new();
        for cpu in 0..8 {
            text.push_str(&format!(
                "processor\t: {cpu}\nphysical id\t: {}\ncore id\t: {}\n\n",
                cpu / 4,
                (cpu / 2) % 2
            ));
        }
        assert_eq!(physical_cores_from(&text), Some(4));
        // No topology lines (ARM-style cpuinfo): the caller falls back.
        assert_eq!(physical_cores_from("processor\t: 0\n\n"), None);
        assert_eq!(physical_cores_from(""), None);
        // Missing trailing blank line still counts the last stanza.
        assert_eq!(
            physical_cores_from("physical id\t: 0\ncore id\t: 0\n"),
            Some(1)
        );
    }

    #[test]
    fn physical_cores_never_exceeds_reason() {
        let cores = physical_cores();
        assert!(cores >= 1);
    }
}
