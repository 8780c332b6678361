//! Minimal fixed-width table rendering for the experiments binary.

/// A printable table: header + rows of equal arity.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub(crate) fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {c:>w$} |"));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats an integer-valued count.
pub(crate) fn n(v: u64) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["k", "value"]);
        t.row(&["1".into(), "10".into()]);
        t.row(&["200".into(), "3".into()]);
        let s = t.render();
        assert!(s.starts_with("## demo\n"));
        assert!(s.contains("|   k | value |"));
        assert!(s.contains("| 200 |     3 |"));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        Table::new("t", &["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(n(42), "42");
    }
}
