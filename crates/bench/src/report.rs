//! Minimal table type with markdown rendering.
//!
//! Markdown pipes in cells are escaped (`|` → `\|`), so a cell never
//! splits into two columns.

use std::fmt::Write as _;

/// Escapes a cell for use inside a GitHub-flavored markdown table: `|`
/// would otherwise split the cell. Newlines (which markdown tables cannot
/// represent) become spaces.
fn md_cell(s: &str) -> String {
    s.replace('|', "\\|").replace(['\n', '\r'], " ")
}

/// A titled results table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment identifier, e.g. `"E3"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper claim the table validates.
    pub claim: String,
    /// What "shape agreement" means for this table.
    pub shape: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        claim: impl Into<String>,
        shape: impl Into<String>,
        columns: &[&str],
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            claim: claim.into(),
            shape: shape.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn push<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        let row: Vec<String> = row.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders GitHub-flavored markdown (header block + table).
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = writeln!(out);
        let _ = writeln!(out, "*Paper claim:* {}", self.claim);
        let _ = writeln!(out);
        let _ = writeln!(out, "*Shape criterion:* {}", self.shape);
        let _ = writeln!(out);
        let cells = |row: &[String]| {
            row.iter()
                .map(|c| md_cell(c))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let _ = writeln!(out, "| {} |", cells(&self.columns));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", cells(row));
        }
        out
    }
}

/// Formats a float with 2 decimals for table cells.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("E0", "demo", "c", "s", &["n", "bits"]);
        t.push([1, 5]);
        t.push([2, 6]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().markdown();
        assert!(md.contains("### E0 — demo"));
        assert!(md.contains("| n | bits |"));
        assert!(md.contains("| 2 | 6 |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = sample();
        t.push([1]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.2345), "1.23");
    }

    #[test]
    fn markdown_escapes_pipes_and_newlines() {
        let mut t = Table::new("E0", "demo", "c", "s", &["formula", "ok"]);
        t.push(["a | b".to_string(), "line1\nline2".to_string()]);
        let md = t.markdown();
        assert!(md.contains("| a \\| b | line1 line2 |"));
        // The escaped pipe must not create an extra column.
        let data_row = md.lines().last().unwrap();
        assert_eq!(data_row.matches(" | ").count(), 1);
    }
}
