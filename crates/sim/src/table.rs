//! Plain-text and CSV table rendering for the figure harnesses.
//!
//! Every figure `gmmu fig NAME` prints is one or more [`Table`]s:
//! the same rows/series the paper's figure plots, printed in a form that
//! is easy to eyeball and to diff against `EXPERIMENTS.md`.

use std::fmt;

/// A cell value: text or a float rendered with fixed precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free-form text (row labels, configuration names).
    Text(String),
    /// A numeric value rendered with the given number of decimals.
    Num(f64, usize),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(v, prec) => format!("{v:.*}", prec),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_owned())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v, 3)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Num(v as f64, 0)
    }
}

/// A titled table with a header row and data rows.
///
/// # Examples
///
/// ```
/// use gmmu_sim::table::Table;
/// let mut t = Table::new("Figure X", &["bench", "speedup"]);
/// t.row(vec!["bfs".into(), 0.62.into()]);
/// let text = t.to_string();
/// assert!(text.contains("bfs"));
/// assert!(text.contains("0.620"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns the cell at (row, col), if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Cell> {
        self.rows.get(row)?.get(col)
    }

    /// Renders as CSV (header row included, title omitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .map(|c| {
                    let s = c.render();
                    if s.contains(',') || s.contains('"') {
                        format!("\"{}\"", s.replace('"', "\"\""))
                    } else {
                        s
                    }
                })
                .collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(rule_len))?;
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", &["name", "x"]);
        t.row(vec!["a".into(), 1.5f64.into()]);
        t.row(vec!["bb".into(), 10u64.into()]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let s = sample().to_string();
        assert!(s.contains("== T =="), "{s}");
        assert!(s.contains("1.500"), "{s}");
        assert!(s.contains("10"), "{s}");
        // Every data line has the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("T", &["name"]);
        t.row(vec!["a,b".into()]);
        assert_eq!(t.to_csv(), "name\n\"a,b\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn cell_accessors() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.cell(0, 0), Some(&Cell::Text("a".into())));
        assert_eq!(t.cell(9, 0), None);
        assert_eq!(t.title(), "T");
    }
}
