//! Minimal result tables: markdown for humans, CSV for plotting.

use serde::{Deserialize, Serialize};

/// One experiment output table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Table {
    /// Experiment id + claim, e.g. "E2 — strobe accuracy vs Δ".
    pub(crate) title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of stringified cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (the paper claim and the
    /// verdict).
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as github-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("### {}\n\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            let body = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join(" | ");
            format!("| {body} |\n")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push_str(&format!(
            "|{}|\n",
            widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
        ));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out
    }

    /// Render as CSV (headers + rows; title/notes omitted).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = self.headers.iter().map(esc).collect::<Vec<_>>().join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_aligned() {
        let mut t = Table::new("E0 — demo", &["x", "value"]);
        t.row(vec!["1".into(), "short".into()]);
        t.row(vec!["2".into(), "a longer cell".into()]);
        t.note("shape holds");
        let md = t.to_markdown();
        assert!(md.contains("### E0 — demo"));
        assert!(md.contains("| a longer cell |"));
        assert!(md.contains("> shape holds"));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }
}
