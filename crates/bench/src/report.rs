//! Table printing and CSV emission for the figure/table binaries.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Locate the workspace `results/` directory (next to the top Cargo.toml).
fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("results");
    fs::create_dir_all(&dir).expect("creating results directory");
    dir
}

/// A simple column-aligned table that also serializes to CSV.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Print the table to stdout, column-aligned.
    pub fn print(&self) {
        println!("\n== {}", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Write the table as CSV to `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) {
        let path = results_dir().join(format!("{name}.csv"));
        self.write_csv_to(&path);
        println!("(csv written to {})", path.display());
    }

    fn write_csv_to(&self, path: &Path) {
        let mut f = fs::File::create(path).expect("creating csv");
        writeln!(f, "{}", self.header.join(",")).unwrap();
        for row in &self.rows {
            writeln!(f, "{}", row.join(",")).unwrap();
        }
    }
}

/// Format a byte count compactly (the paper's axis labels).
pub fn fmt_bytes(n: usize) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}MB", n >> 20)
    } else if n >= 1024 && n.is_multiple_of(1024) {
        format!("{}KB", n >> 10)
    } else {
        format!("{n}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(8 * 1024), "8KB");
        assert_eq!(fmt_bytes(16 << 20), "16MB");
        assert_eq!(fmt_bytes(1536), "1536B");
    }

    #[test]
    fn table_accepts_matching_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
