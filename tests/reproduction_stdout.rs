//! Byte-for-byte snapshots of what every reproduction binary prints:
//! `table1`–`table4`, `figure4`, `figure5`, `area`, `ablation`,
//! `aspect_ratio` and `all`. `reproduction_snapshot` pins the CSVs `all`
//! writes; this suite pins the rendered tables themselves, including the
//! binaries that write no CSV.
//!
//! Each binary runs from a fresh directory under the target's temporary
//! directory, so the `results/` that `all` writes lands there. The one line
//! that changes from run to run, `all`'s `Total wall-clock`, is dropped
//! before comparing. After an intended change to a table, regenerate the
//! snapshots by running each binary and saving its stdout, without that
//! line, as `tests/snapshots/stdout/<bin>.txt`.

use std::fs;
use std::path::Path;
use std::process::Command;

mod snapshot_diff;
use snapshot_diff::first_difference;

/// (binary, its executable, its stdout snapshot) for every reproduction
/// binary.
macro_rules! binaries {
    ($($bin:literal),* $(,)?) => {
        [$((
            $bin,
            env!(concat!("CARGO_BIN_EXE_", $bin)),
            include_str!(concat!("snapshots/stdout/", $bin, ".txt")),
        )),*]
    };
}

#[test]
fn every_reproduction_binary_prints_its_snapshot() {
    let binaries = binaries!(
        "table1",
        "table2",
        "table3",
        "table4",
        "figure4",
        "figure5",
        "area",
        "ablation",
        "aspect_ratio",
        "all",
    );
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("reproduction_stdout-{}", std::process::id()));
    let mut mismatches = Vec::new();
    for (bin, exe, snapshot) in binaries {
        let dir = scratch.join(bin);
        fs::create_dir_all(&dir).expect("create the run directory");
        let output = Command::new(exe)
            .current_dir(&dir)
            .output()
            .expect("the binary starts");
        if !output.status.success() {
            mismatches.push(format!("{bin}: exited with {}", output.status));
            continue;
        }
        let stdout: String = String::from_utf8(output.stdout)
            .expect("stdout is UTF-8")
            .lines()
            .filter(|line| !line.starts_with("Total wall-clock:"))
            .map(|line| format!("{line}\n"))
            .collect();
        if let Some(diff) = first_difference(snapshot, &stdout) {
            mismatches.push(format!("{bin}: {diff}"));
        }
    }
    let _ = fs::remove_dir_all(&scratch);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
