//! Expected answers.
//!
//! Answers are compared as sets of rows, the way the repository's own
//! differential suites compare the two engines: an order-independent
//! checksum for exact answers, per-row hashes for the subset check on
//! approximate ones.

use beas::common::{Row, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hash of one row.  `DefaultHasher::new()` uses fixed keys, so the value
/// repeats across processes.  Floats keep 28 mantissa bits: the two engines
/// may add a `SUM` in different orders, which moves the last few.
pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in row {
        match v {
            Value::Float(f) if f.is_finite() => {
                let rounded = (f.to_bits().wrapping_add(1 << 23) >> 24) << 24;
                Value::Float(f64::from_bits(rounded)).hash(&mut h);
            }
            other => other.hash(&mut h),
        }
    }
    h.finish()
}

/// Order-independent checksum of an answer; never 0, which marks "no
/// expectation yet" in [`Expected`].
pub fn checksum(rows: &[Row]) -> u64 {
    let sum = rows
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r)));
    (sum ^ (rows.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1
}

/// What each script entry must answer.
pub struct Expected {
    /// Checksum per entry; 0 until the oracle or a first run fills it.
    sums: Vec<AtomicU64>,
    /// Row hashes of the exact answer, for entries answered approximately.
    rows: Vec<Option<HashSet<u64>>>,
}

impl Expected {
    pub fn new(entries: usize) -> Expected {
        Expected {
            sums: (0..entries).map(|_| AtomicU64::new(0)).collect(),
            rows: (0..entries).map(|_| None).collect(),
        }
    }

    /// Record the exact answer of entry `idx`.
    pub fn set(&mut self, idx: usize, rows: &[Row], keep_rows: bool) {
        self.sums[idx].store(checksum(rows), Ordering::Relaxed);
        self.rows[idx] = keep_rows.then(|| rows.iter().map(|r| row_hash(r)).collect());
    }

    /// Copy entry `from`'s expectation to `to` (same text, later position).
    pub fn copy(&mut self, from: usize, to: usize) {
        let sum = self.sums[from].load(Ordering::Relaxed);
        self.sums[to].store(sum, Ordering::Relaxed);
        self.rows[to] = self.rows[from].clone();
    }

    /// Check an exact answer.  An entry with no expectation adopts this
    /// answer, so every later run of the text must repeat it.
    pub fn check_exact(&self, idx: usize, rows: &[Row]) -> Result<(), String> {
        let got = checksum(rows);
        // Relaxed: the checksum publishes no other data.
        match self.sums[idx].compare_exchange(0, got, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => Ok(()),
            Err(want) if want == got => Ok(()),
            Err(want) => Err(format!(
                "answer checksum {got:#x} ({} rows) differs from expected {want:#x}",
                rows.len()
            )),
        }
    }

    /// Check that every row of an approximate answer is in the exact one.
    pub fn check_subset(&self, idx: usize, rows: &[Row]) -> Result<(), String> {
        let Some(exact) = &self.rows[idx] else {
            return Err("no exact answer recorded for an approximate entry".to_string());
        };
        match rows.iter().find(|r| !exact.contains(&row_hash(r))) {
            None => Ok(()),
            Some(row) => Err(format!(
                "approximate answer holds a row the exact one lacks: {row:?}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: i64, f: f64) -> Row {
        vec![Value::Int(a), Value::Float(f), Value::str("x")]
    }

    #[test]
    fn checksum_ignores_order_and_float_dust_but_not_content() {
        let a = vec![row(1, 0.1 + 0.2), row(2, 5.0)];
        let b = vec![row(2, 5.0), row(1, 0.3)];
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&[row(1, 0.3), row(2, 5.001)]));
        assert_ne!(checksum(&a), checksum(&a[..1]));
        assert_ne!(checksum(&[]), 0);
        // an integer and the float equal to it are one SQL value
        assert_eq!(row_hash(&[Value::Int(5)]), row_hash(&[Value::Float(5.0)]));
    }

    #[test]
    fn first_answer_becomes_the_expectation() {
        let expected = Expected::new(2);
        let a = vec![row(1, 1.0)];
        assert!(expected.check_exact(0, &a).is_ok());
        assert!(expected.check_exact(0, &a).is_ok());
        assert!(expected.check_exact(0, &[row(2, 1.0)]).is_err());
    }

    #[test]
    fn subset_check_needs_the_exact_rows() {
        let mut expected = Expected::new(2);
        let exact = vec![row(1, 1.0), row(2, 2.0)];
        expected.set(0, &exact, true);
        expected.copy(0, 1);
        assert!(expected.check_subset(1, &exact[1..]).is_ok());
        assert!(expected.check_subset(1, &[]).is_ok());
        assert!(expected.check_subset(1, &[row(3, 3.0)]).is_err());
        assert!(expected.check_exact(1, &exact).is_ok());
        expected.set(0, &exact, false);
        assert!(expected.check_subset(0, &exact).is_err());
    }
}
