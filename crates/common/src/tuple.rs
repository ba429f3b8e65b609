//! Rows.
//!
//! The central data-reduction idea of BEAS is that bounded plans fetch only
//! the *distinct partial tuples* `D_Y(X = ā)` required by the query, never
//! whole base-table rows.  A row, whole or partial, is a plain `Vec<Value>`.

use crate::value::Value;

/// A row of values; the unit of data flowing between physical operators.
pub type Row = Vec<Value>;

/// Render a batch of rows as an aligned text table — used by examples and the
/// performance-analysis reports.
pub fn render_rows(headers: &[String], rows: &[Row]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|v| v.render()).collect())
        .collect();
    for r in &rendered {
        for (i, cell) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    out.push_str(&fmt_line(headers, &widths));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-"),
    );
    out.push('\n');
    for r in &rendered {
        out.push_str(&fmt_line(r, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_rows_aligns_columns() {
        let headers = vec!["region".to_string(), "cnt".to_string()];
        let rows = vec![
            vec![Value::str("east"), Value::Int(10)],
            vec![Value::str("northwest"), Value::Int(3)],
        ];
        let s = render_rows(&headers, &rows);
        assert!(s.contains("region"));
        assert!(s.contains("northwest"));
        assert_eq!(s.lines().count(), 4);
    }
}
