//! Plain-text table rendering for the figure harnesses.

/// A simple aligned text table.
pub(crate) struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    pub(crate) fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    pub(crate) fn note(&mut self, n: impl Into<String>) -> &mut Self {
        self.notes.push(n.into());
        self
    }

    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Format a float with sensible precision for table cells.
pub(crate) fn f(v: f64) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Human-readable size label for a byte count.
pub(crate) fn sz(bytes: u32) -> String {
    if bytes >= (1 << 20) && bytes.is_multiple_of(1 << 20) {
        format!("{}MiB", bytes >> 20)
    } else if bytes >= (1 << 10) {
        format!("{}KiB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_rows() {
        let mut t = Table::new("demo", &["a", "long-col"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("long-col"));
        assert!(r.contains("note: hello"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.234), "1.23");
        assert_eq!(f(f64::NAN), "-");
    }

    #[test]
    fn size_labels() {
        assert_eq!(sz(1024), "1KiB");
        assert_eq!(sz(1 << 20), "1MiB");
        assert_eq!(sz(100), "100B");
    }
}
