//! Reference results and the explicit regeneration step that produces them.
//!
//! References come from the golden executor (outputs) and from a direct,
//! single-threaded engine run (cycles). They are computed by a child process
//! (`--regen`), never inside the measured process, so they add nothing to
//! `setup_s` or `peak_rss_mb`, and are kept under `.bench_refs/` in the
//! working directory, one file per workload and reference set: the zoo
//! workloads' fixed image pools, or a serving seed's inputs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Bumped whenever what a reference file holds changes.
const FORMAT: &str = "v2";

/// What one timed result must equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// Digest of the golden executor's full trace.
    pub digest: String,
    /// Functional cycles of the direct engine.
    pub cycles: u64,
    /// Reduced activation groups of the direct engine.
    pub reduced_groups: u64,
    /// The final outputs, for results that carry only those (served
    /// responses); empty otherwise.
    pub outputs: Vec<i32>,
}

/// References by key (`<network>/<item>` or `<model>/<variant>/<tier>`).
pub type Refs = BTreeMap<String, Expect>;

fn path(workload: &str, set: &str) -> PathBuf {
    PathBuf::from(".bench_refs").join(format!("{workload}-{set}.{FORMAT}.tsv"))
}

/// Writes `refs` for `(workload, set)`, atomically.
pub fn write(workload: &str, set: &str, refs: &Refs) -> std::io::Result<()> {
    let target = path(workload, set);
    std::fs::create_dir_all(target.parent().expect("the path has a directory"))?;
    let mut text = String::new();
    for (key, e) in refs {
        let outputs: Vec<String> = e.outputs.iter().map(i32::to_string).collect();
        text.push_str(&format!(
            "{key}\t{}\t{}\t{}\t{}\n",
            e.digest,
            e.cycles,
            e.reduced_groups,
            outputs.join(",")
        ));
    }
    let tmp = target.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(tmp, target)
}

fn read(workload: &str, set: &str) -> Option<Refs> {
    let text = std::fs::read_to_string(path(workload, set)).ok()?;
    let mut refs = Refs::new();
    for line in text.lines() {
        let mut fields = line.split('\t');
        let key = fields.next()?.to_string();
        let digest = fields.next()?.to_string();
        let cycles = fields.next()?.parse().ok()?;
        let reduced_groups = fields.next()?.parse().ok()?;
        let outputs = match fields.next()? {
            "" => Vec::new(),
            list => list
                .split(',')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?,
        };
        refs.insert(
            key,
            Expect {
                digest,
                cycles,
                reduced_groups,
                outputs,
            },
        );
    }
    (!refs.is_empty()).then_some(refs)
}

/// The references for `(workload, set)`: read from disk, or regenerated by
/// running this program with `--regen` for `seed` in a child process first.
/// Returns the references and the seconds regeneration took (0 when they
/// were on disk).
pub fn load_or_regenerate(workload: &str, set: &str, seed: u64) -> Result<(Refs, f64), String> {
    if let Some(refs) = read(workload, set) {
        return Ok((refs, 0.0));
    }
    let started = Instant::now();
    crate::run_child(&[
        "--regen",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
    ])?;
    let refs = read(workload, set).ok_or("the regeneration step wrote no references")?;
    Ok((refs, started.elapsed().as_secs_f64()))
}
