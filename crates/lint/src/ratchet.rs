//! The one ratchet: every measured quantity that may only shrink, in one
//! checked-in file, [`RATCHET_PATH`]. A row is keyed by
//! `(analysis, name, path)` and holds an ordered [`Value`]: unwrap and
//! hot-path site counts, det-flow exposure.
//! Counts of zero are not rows. A measured row missing from the file is
//! growth (a new unwrap file, hot-path row or sink must be recorded
//! deliberately); a recorded row that is no longer measured is shrink.

use std::collections::BTreeMap;

/// Workspace-relative path of the checked-in ratchet file.
pub const RATCHET_PATH: &str = "crates/lint/ratchet.txt";

/// The analysis a ratchet row belongs to; fixes how its value reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Analysis {
    /// `unwrap()`/`expect()` counts per file.
    Unwrap,
    /// Hot-path allocation / panic counts per `(rule, file)`.
    HotPath,
    /// Per-sink det-flow certificates.
    DetFlow,
}

impl Analysis {
    const ALL: [Analysis; 3] = [Analysis::Unwrap, Analysis::HotPath, Analysis::DetFlow];

    /// The name in the file's first column.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Analysis::Unwrap => "unwrap",
            Analysis::HotPath => "hot-path",
            Analysis::DetFlow => "det-flow",
        }
    }

    fn parse_value(self, s: &str) -> Option<Value> {
        match self {
            Analysis::Unwrap | Analysis::HotPath => s.parse().ok().map(Value::Count),
            Analysis::DetFlow => match s {
                "clean" => Some(Value::Taints(0)),
                _ => match s.strip_prefix("tainted:")?.parse() {
                    Ok(n) if n > 0 => Some(Value::Taints(n)),
                    _ => None,
                },
            },
        }
    }
}

/// A row's measured value. Rows of one analysis always hold the same
/// variant, so the derived order compares like with like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Value {
    /// A site count.
    Count(usize),
    /// Distinct nondeterminism sources reaching a sink (0 = clean).
    Taints(usize),
}

impl Value {
    /// The file notation.
    #[must_use]
    pub fn render(self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            Value::Taints(0) => "clean".to_owned(),
            Value::Taints(n) => format!("tainted:{n}"),
        }
    }

    /// The JSON notation: a number.
    #[must_use]
    pub fn json(self) -> String {
        match self {
            Value::Count(n) | Value::Taints(n) => n.to_string(),
        }
    }
}

/// `(analysis, name, path)`.
pub type Key = (Analysis, String, String);

/// Ratchet rows in key order.
pub type Rows = BTreeMap<Key, Value>;

/// One row that differs from the recorded file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// The row key.
    pub key: Key,
    /// Recorded value (`None` = the row is new).
    pub baseline: Option<Value>,
    /// Measured value (`None` = the row is gone).
    pub current: Option<Value>,
}

impl Delta {
    /// The `name` column.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.key.1
    }

    /// The `path` column.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.key.2
    }
}

/// Outcome of comparing measured rows with the recorded file.
#[derive(Debug, Default, Clone)]
pub struct Comparison {
    /// New rows and rows whose value grew (fail the run).
    pub growth: Vec<Delta>,
    /// Rows whose value shrank or that are gone (pass; refresh the file).
    pub shrink: Vec<Delta>,
}

impl Comparison {
    /// The deltas of one analysis.
    #[must_use]
    pub fn of(&self, analysis: Analysis) -> Comparison {
        let pick = |ds: &[Delta]| ds.iter().filter(|d| d.key.0 == analysis).cloned().collect();
        Comparison {
            growth: pick(&self.growth),
            shrink: pick(&self.shrink),
        }
    }
}

/// Parses the file: `#` comment lines plus
/// `analysis<TAB>name<TAB>value<TAB>path` rows.
///
/// # Errors
///
/// Returns a message describing the first malformed row.
pub fn parse(text: &str) -> Result<Rows, String> {
    let mut rows = Rows::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("ratchet line {}: {what}", idx + 1);
        let cols: Vec<&str> = line.splitn(4, '\t').map(str::trim).collect();
        let [analysis, name, value, path] = cols[..] else {
            return Err(bad("expected `analysis<TAB>name<TAB>value<TAB>path`"));
        };
        let analysis = Analysis::ALL
            .into_iter()
            .find(|a| a.name() == analysis)
            .ok_or_else(|| bad(&format!("unknown analysis `{analysis}`")))?;
        let value = analysis
            .parse_value(value)
            .ok_or_else(|| bad(&format!("bad {} value `{value}`", analysis.name())))?;
        rows.insert((analysis, name.to_owned(), path.to_owned()), value);
    }
    Ok(rows)
}

/// Renders the file from measured rows.
#[must_use]
pub fn render(rows: &Rows) -> String {
    let mut out = String::from(
        "# hcperf-lint ratchet: measured quantities that may only shrink.\n\
         # Rows are `analysis<TAB>name<TAB>value<TAB>path`:\n\
         #   unwrap   unwrap-ratchet  .unwrap()/.expect( sites in library code\n\
         #   hot-path <rule>          alloc/panic sites reachable from hot-path roots\n\
         #   det-flow <sink>          `clean` or `tainted:<N>` sources reaching a det-sink\n\
         # Regenerate deliberately with `cargo run -p hcperf-lint -- --update-baselines`.\n",
    );
    for ((analysis, name, path), value) in rows {
        out.push_str(&format!(
            "{}\t{name}\t{}\t{path}\n",
            analysis.name(),
            value.render()
        ));
    }
    out
}

/// Compares measured rows with the recorded ones.
#[must_use]
pub fn compare(current: &Rows, baseline: &Rows) -> Comparison {
    let mut cmp = Comparison::default();
    for (key, &now) in current {
        let base = baseline.get(key).copied();
        let delta = Delta {
            key: key.clone(),
            baseline: base,
            current: Some(now),
        };
        match base {
            Some(b) if now < b => cmp.shrink.push(delta),
            Some(b) if now == b => {}
            _ => cmp.growth.push(delta),
        }
    }
    for (key, &base) in baseline {
        if !current.contains_key(key) {
            cmp.shrink.push(Delta {
                key: key.clone(),
                baseline: Some(base),
                current: None,
            });
        }
    }
    cmp.shrink.sort_by(|a, b| a.key.cmp(&b.key));
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(list: &[(Analysis, &str, Value, &str)]) -> Rows {
        list.iter()
            .map(|(a, n, v, p)| ((*a, (*n).to_owned(), (*p).to_owned()), *v))
            .collect()
    }

    fn unwraps(pairs: &[(&str, usize)]) -> Rows {
        let list: Vec<_> = pairs
            .iter()
            .map(|(p, c)| (Analysis::Unwrap, "unwrap-ratchet", Value::Count(*c), *p))
            .collect();
        rows(&list)
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let all = rows(&[
            (Analysis::Unwrap, "unwrap-ratchet", Value::Count(3), "a.rs"),
            (Analysis::HotPath, "hot-path-alloc", Value::Count(7), "c.rs"),
            (Analysis::DetFlow, "out", Value::Taints(0), "p.rs"),
            (Analysis::DetFlow, "log", Value::Taints(2), "q.rs"),
        ]);
        assert_eq!(parse(&render(&all)).unwrap(), all);
    }

    #[test]
    fn growth_fails_shrink_passes() {
        let baseline = unwraps(&[("a.rs", 5), ("gone.rs", 2)]);
        let grown = compare(&unwraps(&[("a.rs", 6), ("gone.rs", 2)]), &baseline);
        assert_eq!(grown.growth.len(), 1);
        assert_eq!(grown.growth[0].current, Some(Value::Count(6)));

        let shrunk = compare(&unwraps(&[("a.rs", 4)]), &baseline);
        assert!(shrunk.growth.is_empty());
        // Both the reduced file and the deleted one register as shrink.
        assert_eq!(shrunk.shrink.len(), 2);
        assert_eq!(shrunk.shrink[1].current, None);
    }

    #[test]
    fn new_file_with_unwraps_is_growth() {
        let r = compare(&unwraps(&[("new.rs", 1)]), &Rows::new());
        assert_eq!(r.growth.len(), 1);
        assert_eq!(r.growth[0].baseline, None);
    }

    #[test]
    fn rejects_malformed_baseline() {
        assert!(parse("nonsense").is_err());
        assert!(parse("unwrap\tunwrap-ratchet\tx\ta.rs").is_err());
        assert!(parse("bogus\tn\t3\ta.rs").is_err());
        assert!(parse("# comment\nunwrap\tunwrap-ratchet\t3\ta.rs\n").is_ok());
    }

    #[test]
    fn comparison_splits_by_analysis() {
        let baseline = rows(&[
            (Analysis::Unwrap, "unwrap-ratchet", Value::Count(1), "a.rs"),
            (Analysis::HotPath, "hot-path-alloc", Value::Count(2), "a.rs"),
        ]);
        let current = rows(&[
            (Analysis::Unwrap, "unwrap-ratchet", Value::Count(2), "a.rs"),
            (Analysis::HotPath, "hot-path-alloc", Value::Count(1), "a.rs"),
        ]);
        let cmp = compare(&current, &baseline);
        assert_eq!(cmp.of(Analysis::Unwrap).growth.len(), 1);
        assert!(cmp.of(Analysis::Unwrap).shrink.is_empty());
        assert!(cmp.of(Analysis::HotPath).growth.is_empty());
        assert_eq!(cmp.of(Analysis::HotPath).shrink.len(), 1);
        assert!(cmp.of(Analysis::DetFlow).growth.is_empty());
    }
}
