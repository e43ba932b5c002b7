//! One module per experiment family; every public function regenerates one
//! of the paper's tables or figures as a text table on stdout and returns
//! the measured rows for programmatic inspection.
//!
//! All dimension defaults are scaled-down versions of the paper's Tables 4
//! and 5 — the tuple ratios, feature ratios, and uniqueness degrees are
//! preserved exactly; only the absolute row counts shrink to fit a small
//! machine. `quick = true` shrinks further for smoke tests.

pub mod ablation;
pub mod algorithms;
pub mod mn;
pub mod operators;
pub mod ore;
pub mod tables;

/// A single measured configuration: a label plus named numeric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label (e.g. `"TR=10 FR=2"`).
    pub label: String,
    /// `(column name, value)` pairs; times are in seconds.
    pub values: Vec<(&'static str, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<(&'static str, f64)>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }

    /// Looks up a column by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Prints a titled table of rows.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    let mut header = format!("{:<28}", "config");
    for (name, _) in &rows[0].values {
        header.push_str(&format!("{name:>14}"));
    }
    println!("{header}");
    for row in rows {
        let mut line = format!("{:<28}", row.label);
        for (_, v) in &row.values {
            if v.abs() >= 1e4 || (*v != 0.0 && v.abs() < 1e-3) {
                line.push_str(&format!("{v:>14.3e}"));
            } else {
                line.push_str(&format!("{v:>14.4}"));
            }
        }
        println!("{line}");
    }
}

/// The paper's Figure 3 speedup-bucket rendering: `<1`, `1-2`, `2-3`, `>3`.
pub fn speedup_bucket(speedup: f64) -> &'static str {
    if speedup < 1.0 {
        "<1"
    } else if speedup < 2.0 {
        "1-2"
    } else if speedup < 3.0 {
        "2-3"
    } else {
        ">3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_lookup() {
        let r = Row::new("x", vec![("a", 1.0), ("b", 2.0)]);
        assert_eq!(r.get("b"), Some(2.0));
        assert_eq!(r.get("c"), None);
    }

    #[test]
    fn buckets_match_figure3_legend() {
        assert_eq!(speedup_bucket(0.5), "<1");
        assert_eq!(speedup_bucket(1.5), "1-2");
        assert_eq!(speedup_bucket(2.5), "2-3");
        assert_eq!(speedup_bucket(30.0), ">3");
    }
}
