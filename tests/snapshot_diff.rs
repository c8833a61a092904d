//! The line-by-line comparison the snapshot suites report mismatches with.

/// The first line where `generated` departs from `snapshot`, if any.
pub fn first_difference(snapshot: &str, generated: &str) -> Option<String> {
    let mut snapshot_lines = snapshot.lines();
    let mut generated_lines = generated.lines();
    for line in 1.. {
        match (snapshot_lines.next(), generated_lines.next()) {
            (None, None) => break,
            (s, g) if s == g => {}
            (s, g) => {
                return Some(format!(
                    "line {line}\n  snapshot:  {}\n  generated: {}",
                    s.unwrap_or("<end>"),
                    g.unwrap_or("<end>")
                ))
            }
        }
    }
    (snapshot != generated).then(|| "trailing newline".to_string())
}
