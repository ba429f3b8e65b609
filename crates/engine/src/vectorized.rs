//! Kernel-style (vectorized) execution of leaf fragments over
//! [`ColumnBatch`] morsels.
//!
//! A morsel *is* a batch: a `&[Row]` slice of one storage segment
//! ([`beas_storage::Table::morsel_slices`]) is re-viewed column-major here
//! and pushed through the selection-vector kernels of
//! [`beas_sql::columnar`].  The row engine stays the semantics reference —
//! this module's contract is *bit-exactness with fallback*:
//!
//! * [`kernels_cover`] decides once per fragment (not per morsel) whether
//!   the kernels cover every operator expression; uncovered fragments never
//!   leave the row path (static fallback).
//! * [`run_morsel_vectorized`] returns `None` whenever any kernel reports
//!   an error; the caller re-runs that one morsel through the row path
//!   (dynamic fallback), which reproduces the exact row-path error kind and
//!   position — kernels are allowed to over-detect errors, never to miss
//!   one (see `beas_sql::columnar`).
//! * On success the output rows, their order, and the per-operator counters
//!   are identical to [`crate::executor::run_fragment_morsel`]'s, so a scan
//!   can mix vectorized and row-path morsels freely
//!   ([`crate::ExecProfile::Alternating`] forces exactly that splice).
//!
//! All key hashing — join build/probe and the Distinct pre-dedupe — routes
//! through `beas_common::key` (canonical_key_hash / the canonical `Value`
//! hash), the single definition of key equality in the workspace.  The
//! differential harness `tests/vectorized_semantics.rs` pins
//! vectorized ≡ row across query shapes, morsel splices and data mixes.

use crate::executor::{FragOp, Fragment, MorselRun};
use beas_common::{canonical_key_hash, Column, ColumnBatch, Row, RowRef, Value, ValueRef};
use beas_sql::{columnar, BoundExpr};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Whether the columnar kernels cover every operator of `frag` over a base
/// table of `arity` columns.  Tracks the arity through projections so a
/// downstream filter is checked against the projected shape.
pub(crate) fn kernels_cover(frag: &Fragment<'_>, mut arity: usize) -> bool {
    for op in &frag.ops {
        match op {
            FragOp::Filter(pred) => {
                if !columnar::covers(pred, arity) {
                    return false;
                }
            }
            FragOp::Project(exprs) => {
                if !exprs.iter().all(|(e, _)| columnar::covers(e, arity)) {
                    return false;
                }
                arity = exprs.len();
            }
        }
    }
    true
}

/// The base-table columns the fragment can touch before its first
/// projection: filter predicates up to that point plus the projection
/// expressions themselves.  Operators past the first projection evaluate
/// over the (narrow) projected batch, never the base one — so the base
/// [`ColumnBatch`] only materializes these columns, which on wide tables
/// is most of the batch-building cost.
fn base_columns_needed(frag: &Fragment<'_>, arity: usize) -> Vec<bool> {
    let mut mask = vec![false; arity];
    for op in &frag.ops {
        match op {
            FragOp::Filter(pred) => columnar::collect_columns(pred, &mut mask),
            FragOp::Project(exprs) => {
                for (e, _) in exprs.iter() {
                    columnar::collect_columns(e, &mut mask);
                }
                return mask;
            }
        }
    }
    mask
}

/// Evaluation state while walking a fragment's operator chain: either a
/// selection vector over the base morsel (no projection crossed yet) or the
/// materialized projected rows.
enum State {
    /// Surviving base-row indices, in morsel order.
    Base(Vec<u32>),
    /// Owned rows produced by a projection.
    Rows(Vec<Row>),
}

/// Run `frag` over one morsel with columnar kernels.  Returns `None` on any
/// kernel error — the caller must re-run the morsel on the row path, which
/// reproduces the row engine's exact error and tuple accounting.  On
/// `Some`, the run is bit-identical to [`crate::executor::run_fragment_morsel`].
pub(crate) fn run_morsel_vectorized<'a>(
    frag: &Fragment<'a>,
    morsel: &'a [Row],
    dedupe: bool,
) -> Option<MorselRun<'a>> {
    let mut run = MorselRun {
        rows: Vec::new(),
        error: None,
        scanned: morsel.len() as u64,
        op_rows_out: vec![0; frag.ops.len()],
    };
    let arity = morsel.first().map_or(0, |r| r.len());
    let base = ColumnBatch::from_rows_masked(morsel, &base_columns_needed(frag, arity));
    #[cfg(any(debug_assertions, feature = "validate"))]
    base.check_invariants()
        .expect("ColumnBatch built from a morsel must satisfy its layout invariants");
    let mut state = State::Base((0..morsel.len() as u32).collect());
    for (i, op) in frag.ops.iter().enumerate() {
        state = match (op, state) {
            (FragOp::Filter(pred), State::Base(sel)) => {
                let sel = columnar::filter_sel(pred, &base, &sel).ok()?;
                run.op_rows_out[i] = sel.len() as u64;
                State::Base(sel)
            }
            (FragOp::Filter(pred), State::Rows(rows)) => {
                let batch = ColumnBatch::from_rows(&rows);
                #[cfg(any(debug_assertions, feature = "validate"))]
                batch
                    .check_invariants()
                    .expect("projected ColumnBatch must satisfy its layout invariants");
                let all: Vec<u32> = (0..rows.len() as u32).collect();
                let sel = columnar::filter_sel(pred, &batch, &all).ok()?;
                run.op_rows_out[i] = sel.len() as u64;
                let mut keep = sel.into_iter();
                let mut next = keep.next();
                State::Rows(
                    rows.into_iter()
                        .enumerate()
                        .filter(|(j, _)| {
                            if next == Some(*j as u32) {
                                next = keep.next();
                                true
                            } else {
                                false
                            }
                        })
                        .map(|(_, r)| r)
                        .collect(),
                )
            }
            (FragOp::Project(exprs), State::Base(sel)) => {
                if dedupe && i + 1 == frag.ops.len() {
                    // Distinct over a terminal projection: dedupe straight
                    // off the batch columns and materialize survivors only,
                    // instead of building (and mostly discarding) one owned
                    // row per input.
                    run.op_rows_out[i] = sel.len() as u64;
                    let rows = project_distinct_base(exprs, &base, &sel)?;
                    run.rows = rows.into_iter().map(RowRef::owned).collect();
                    return Some(run);
                }
                let cols = exprs
                    .iter()
                    .map(|(e, _)| columnar::eval_values(e, &base, &sel))
                    .collect::<Result<Vec<_>, _>>()
                    .ok()?;
                run.op_rows_out[i] = sel.len() as u64;
                State::Rows(transpose(cols, sel.len()))
            }
            (FragOp::Project(exprs), State::Rows(rows)) => {
                let batch = ColumnBatch::from_rows(&rows);
                #[cfg(any(debug_assertions, feature = "validate"))]
                batch
                    .check_invariants()
                    .expect("projected ColumnBatch must satisfy its layout invariants");
                let all: Vec<u32> = (0..rows.len() as u32).collect();
                let cols = exprs
                    .iter()
                    .map(|(e, _)| columnar::eval_values(e, &batch, &all))
                    .collect::<Result<Vec<_>, _>>()
                    .ok()?;
                run.op_rows_out[i] = rows.len() as u64;
                State::Rows(transpose(cols, rows.len()))
            }
        };
    }
    run.rows = match state {
        State::Base(sel) => sel
            .into_iter()
            .map(|r| RowRef::borrowed(&morsel[r as usize]))
            .collect(),
        State::Rows(rows) => rows.into_iter().map(RowRef::owned).collect(),
    };
    if dedupe {
        run.rows = dedupe_batch(run.rows);
    }
    Some(run)
}

/// One projected column for [`project_distinct_base`]: either a direct view
/// of a base batch column (bare column references — the common DISTINCT
/// shape — never clone a value during dedupe) or the kernel-evaluated
/// values of a computed expression, one per selected slot.
enum ProjCol<'b, 'a> {
    Col(&'b Column<'a>),
    Owned(Vec<Value>),
}

impl ProjCol<'_, '_> {
    /// The projected value for selection slot `slot` (base row `row`).
    fn at(&self, slot: usize, row: u32) -> ValueRef<'_> {
        match self {
            ProjCol::Col(c) => c.value_ref(row as usize),
            ProjCol::Owned(v) => ValueRef::Ref(&v[slot]),
        }
    }
}

/// Distinct fused into a terminal projection over the base batch: hash and
/// compare the projected values in place (canonical `Value` hash/eq — the
/// same relation [`dedupe_batch`] uses), then materialize owned rows for
/// first occurrences only.  Survivor set and order are exactly the streamed
/// row-path dedupe's; `None` (kernel error) falls back to the row path.
fn project_distinct_base(
    exprs: &[(BoundExpr, String)],
    base: &ColumnBatch<'_>,
    sel: &[u32],
) -> Option<Vec<Row>> {
    let cols: Vec<ProjCol<'_, '_>> = exprs
        .iter()
        .map(|(e, _)| match e {
            BoundExpr::Column(i) => base.column(*i).map(ProjCol::Col),
            _ => columnar::eval_values(e, base, sel).ok().map(ProjCol::Owned),
        })
        .collect::<Option<Vec<_>>>()?;
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut kept: Vec<usize> = Vec::new();
    for (slot, &row) in sel.iter().enumerate() {
        let mut h = DefaultHasher::new();
        // Match RowRef's hash layout: length prefix, then each value.
        cols.len().hash(&mut h);
        for c in &cols {
            c.at(slot, row).get().hash(&mut h);
        }
        let ids = buckets.entry(h.finish()).or_default();
        if ids.iter().any(|&k| {
            cols.iter()
                .all(|c| c.at(k, sel[k]).get() == c.at(slot, row).get())
        }) {
            continue;
        }
        ids.push(slot);
        kept.push(slot);
    }
    Some(
        kept.into_iter()
            .map(|slot| {
                cols.iter()
                    .map(|c| match c.at(slot, sel[slot]) {
                        ValueRef::Num(v) => v,
                        ValueRef::Ref(v) => v.clone(),
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Column-major kernel outputs back to row-major rows.
fn transpose(mut cols: Vec<Vec<Value>>, rows: usize) -> Vec<Row> {
    let mut out: Vec<Row> = (0..rows).map(|_| Vec::with_capacity(cols.len())).collect();
    for col in &mut cols {
        for (i, v) in col.drain(..).enumerate() {
            out[i].push(v);
        }
    }
    out
}

/// Batched morsel-local duplicate elimination: hashes are computed for the
/// whole batch up front (`RowRef`'s `Hash` routes every `Value` through the
/// canonical numeric-family rules in `beas_common`), then first occurrences
/// are kept in row order — exactly the surviving set and order of the row
/// path's streaming `HashSet` insert.
pub(crate) fn dedupe_batch<'a>(rows: Vec<RowRef<'a>>) -> Vec<RowRef<'a>> {
    let hashes: Vec<u64> = rows
        .iter()
        .map(|r| {
            let mut h = DefaultHasher::new();
            r.hash(&mut h);
            h.finish()
        })
        .collect();
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::with_capacity(rows.len());
    let mut keep = vec![true; rows.len()];
    for i in 0..rows.len() {
        let bucket = buckets.entry(hashes[i]).or_default();
        if bucket.iter().any(|&j| rows[j] == rows[i]) {
            keep[i] = false;
        } else {
            bucket.push(i);
        }
    }
    rows.into_iter()
        .zip(keep)
        .filter_map(|(r, k)| k.then_some(r))
        .collect()
}

/// Batched join-build hashing: one pass over the drained build rows,
/// bucketing row indices by `beas_common::key::canonical_key_hash` (NULL /
/// NaN keys are unjoinable and land in no bucket).  Bucket order is build
/// insertion order, which [`probe_join_table`] preserves — so the match
/// lists, and with them the join output order, equal the row path's
/// canonical-`Vec<Value>`-keyed table.
pub(crate) fn build_join_table(rows: &[RowRef<'_>], keys: &[usize]) -> HashMap<u64, Rc<[usize]>> {
    let mut building: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        if let Some(h) = canonical_key_hash(row, keys) {
            building.entry(h).or_default().push(i);
        }
    }
    building.into_iter().map(|(k, v)| (k, v.into())).collect()
}

/// Probe the batched join table: hash the probe key without allocating,
/// then verify each candidate value-wise (`sql_eq` per key column) to
/// filter 64-bit hash collisions between distinct keys.  Returns the match
/// list in build insertion order, or `None` when the probe key is
/// unjoinable or nothing verifies.
pub(crate) fn probe_join_table(
    table: &HashMap<u64, Rc<[usize]>>,
    build_rows: &[RowRef<'_>],
    probe_row: &RowRef<'_>,
    probe_keys: &[usize],
    build_keys: &[usize],
) -> Option<Rc<[usize]>> {
    use beas_common::ValueRow;
    let h = canonical_key_hash(probe_row, probe_keys)?;
    let candidates = table.get(&h)?;
    let verified: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| {
            probe_keys.iter().zip(build_keys).all(|(&pk, &bk)| {
                match (probe_row.value_at(pk), build_rows[i].value_at(bk)) {
                    (Some(p), Some(b)) => p.sql_eq(b) == Some(true),
                    _ => false,
                }
            })
        })
        .collect();
    if verified.len() == candidates.len() {
        // Common case (no collision): share the existing list.
        Some(Rc::clone(candidates))
    } else if verified.is_empty() {
        None
    } else {
        Some(verified.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::{join_key, Date, Value};

    fn date(s: &str) -> Value {
        Value::Date(s.parse::<Date>().unwrap())
    }

    /// Rows covering the canonicalization edges: -0.0 / 0.0, Int-valued
    /// Float, date vs date-shaped string, NULL and NaN keys.
    fn key_rows() -> Vec<RowRef<'static>> {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Float(1.0), Value::str("y")],
            vec![Value::Float(-0.0), Value::str("z")],
            vec![Value::Int(0), Value::str("w")],
            vec![Value::Null, Value::str("n")],
            vec![Value::Float(f64::NAN), Value::str("m")],
        ];
        rows.into_iter().map(RowRef::owned).collect()
    }

    #[test]
    fn join_table_matches_canonical_join_keys() {
        // The hash kernel must bucket exactly the rows whose canonical
        // join_key agrees — Int(1) with Float(1.0), -0.0 with Int(0) — and
        // exclude NULL / NaN entirely (vectorized ≡ row on the join path;
        // the full differential check lives in tests/vectorized_semantics).
        let rows = key_rows();
        let keys = [0usize];
        let table = build_join_table(&rows, &keys);
        // NULL and NaN rows are in no bucket: 4 joinable rows, 2 keys.
        assert_eq!(table.values().map(|v| v.len()).sum::<usize>(), 4);
        assert_eq!(table.len(), 2);
        for (i, probe) in rows.iter().enumerate() {
            let matches = probe_join_table(&table, &rows, probe, &keys, &keys)
                .map(|m| m.to_vec())
                .unwrap_or_default();
            let expected: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(
                    |(_, b)| match (join_key(probe, &keys), join_key(*b, &keys)) {
                        (Some(p), Some(b)) => p == b,
                        _ => false,
                    },
                )
                .map(|(j, _)| j)
                .collect();
            assert_eq!(matches, expected, "probe row {i}");
        }
    }

    #[test]
    fn date_string_probe_hits_date_build_key() {
        let build = [RowRef::owned(vec![date("2016-07-04"), Value::Int(7)])];
        let table = build_join_table(&build, &[0]);
        let probe = RowRef::owned(vec![Value::str("2016-07-04")]);
        let matches = probe_join_table(&table, &build, &probe, &[0], &[0]).unwrap();
        assert_eq!(matches.to_vec(), vec![0]);
        // Date-shaped but unparsable strings stay strings: no match.
        let probe = RowRef::owned(vec![Value::str("2016-99-99")]);
        assert!(probe_join_table(&table, &build, &probe, &[0], &[0]).is_none());
    }

    #[test]
    fn fused_project_distinct_matches_general_path() {
        // The fused distinct-into-projection kernel must keep exactly the
        // rows (and order) of eval_values → transpose → dedupe_batch over
        // the same batch, including the canonical-equality edges.
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Float(1.0), Value::str("a")], // col 0 == Int(1)
            vec![Value::Float(f64::NAN), Value::str("b")],
            vec![Value::Float(f64::NAN), Value::str("b")], // NaN ≠ NaN: kept
            vec![Value::Null, Value::str("a")],
            vec![Value::Int(1), Value::str("a")], // duplicate of row 0
        ];
        let batch = ColumnBatch::from_rows(&rows);
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        let exprs = vec![
            (BoundExpr::Column(0), "k".to_string()),
            (BoundExpr::Column(1), "s".to_string()),
        ];
        let fused = project_distinct_base(&exprs, &batch, &sel).unwrap();
        let cols: Vec<Vec<Value>> = exprs
            .iter()
            .map(|(e, _)| columnar::eval_values(e, &batch, &sel).unwrap())
            .collect();
        let general: Vec<Row> = dedupe_batch(
            transpose(cols, sel.len())
                .into_iter()
                .map(RowRef::owned)
                .collect(),
        )
        .into_iter()
        .map(RowRef::into_row)
        .collect();
        assert_eq!(fused.len(), general.len());
        for (a, b) in fused.iter().zip(&general) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn dedupe_batch_keeps_first_occurrences_in_order() {
        let rows: Vec<RowRef<'static>> = vec![
            RowRef::owned(vec![Value::Int(1)]),
            RowRef::owned(vec![Value::Float(1.0)]), // == Int(1) under Value eq
            RowRef::owned(vec![Value::Float(0.0)]),
            RowRef::owned(vec![Value::Float(-0.0)]), // == 0.0
            RowRef::owned(vec![Value::Float(f64::NAN)]),
            RowRef::owned(vec![Value::Float(f64::NAN)]), // NaN ≠ NaN: both survive
            RowRef::owned(vec![Value::Int(2)]),
            RowRef::owned(vec![Value::Int(1)]),
        ];
        let out = dedupe_batch(rows.clone());
        // Identical to the row path's streaming HashSet dedupe.
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<RowRef<'static>> = rows
            .into_iter()
            .filter(|r| seen.insert(r.clone()))
            .collect();
        assert_eq!(out.len(), expected.len());
        for (a, b) in out.iter().zip(&expected) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
