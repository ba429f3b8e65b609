//! A schema-validated in-memory row store with structurally shared segments.

use crate::copy_stats::CopyStats;
use beas_common::{BeasError, DataType, Result, Row, TableSchema, Value};
use std::ops::Range;
use std::sync::Arc;

/// Default rows per morsel: the batch the columnar scan builds and pushes
/// through its kernels, one [`Table::morsel_slices`] slice at a time.  Large
/// enough that a batch's per-row kernel work dwarfs building it.
pub const MORSEL_ROWS: usize = 16_384;

/// Rows per sealed segment.  Matches [`MORSEL_ROWS`] so that a default
/// morsel of an append-built table is a whole segment.
pub const SEGMENT_ROWS: usize = MORSEL_ROWS;

/// One immutable run of rows.  `start` is the physical id of the first row;
/// the run is shared (`Arc`) between a table and its clones, and a shared
/// run is never written: appends go to a private segment behind it.
#[derive(Debug, Clone)]
struct Segment {
    start: usize,
    rows: Arc<Vec<Row>>,
}

impl Segment {
    fn end(&self) -> usize {
        self.start + self.rows.len()
    }
}

/// Whether two adjacent segments of these sizes are merged into one: the
/// pair fits a sealed segment and the left one is at most twice the right.
/// The size ratio makes merging geometric — a row on the left of a merge
/// ends up in a segment at least 1.5× the one it was in, so it is moved
/// O(log [`SEGMENT_ROWS`]) times over the life of the table — and a spine
/// with no mergeable pair holds O(log [`SEGMENT_ROWS`]) segments per
/// [`SEGMENT_ROWS`] rows.
fn mergeable(left: usize, right: usize) -> bool {
    left <= 2 * right && left + right <= SEGMENT_ROWS
}

/// Rows validated and coerced against one table's schema, ready to be
/// appended to it ([`Table::coerce_batch`] is the only constructor).
#[derive(Debug)]
pub struct CoercedBatch {
    table: String,
    rows: Vec<Row>,
}

impl CoercedBatch {
    /// The coerced rows, in submission order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }
}

/// An in-memory table: a schema plus a sequence of row segments.
///
/// Rows are validated on insertion (arity, types, NULLability) so that every
/// downstream consumer — baseline executor, constraint indices, statistics —
/// can assume well-typed data.
///
/// Storage is *structurally shared*: rows live in `Arc`-held segments of at
/// most [`SEGMENT_ROWS`] rows, and `Clone` copies only the segment handles.
/// A write never touches a segment another clone can see.  An insert appends
/// to the tail segment only while this table is its sole owner; otherwise it
/// opens a new segment behind it.  A delete rebuilds exactly the segments
/// that contain a matching row.  Adjacent undersized segments are merged
/// under the geometric rule of `mergeable`, so the segment count stays
/// logarithmic however many small batches land on forks.  A maintenance
/// batch therefore copies rows in proportion to the batch, never to the
/// table.
///
/// Rows stay addressable by a stable physical id (their global position), so
/// row-id consumers (`project_row`, executors) are unaffected by the
/// segmentation.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    segments: Arc<Vec<Segment>>,
    len: usize,
    copied: CopyStats,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            segments: Arc::new(Vec::new()),
            len: 0,
            copied: CopyStats::default(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row by physical id (position), if it exists.
    pub fn row(&self, id: usize) -> Option<&Row> {
        if id >= self.len {
            return None;
        }
        let seg = &self.segments[self.segments.partition_point(|s| s.start <= id) - 1];
        seg.rows.get(id - seg.start)
    }

    /// Validate a row against the schema without inserting it.
    pub fn validate_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(BeasError::storage(format!(
                "row arity {} does not match table {:?} arity {}",
                row.len(),
                self.schema.name,
                self.schema.arity()
            )));
        }
        for (value, col) in row.iter().zip(&self.schema.columns) {
            if value.is_null() {
                if !col.nullable {
                    return Err(BeasError::storage(format!(
                        "NULL in non-nullable column {:?} of table {:?}",
                        col.name, self.schema.name
                    )));
                }
                continue;
            }
            let vt = value.data_type().expect("non-null value has a type");
            let compatible = vt == col.data_type
                || DataType::common_type(vt, col.data_type) == Some(col.data_type);
            if !compatible {
                return Err(BeasError::storage(format!(
                    "type mismatch in column {:?} of table {:?}: expected {}, got {}",
                    col.name,
                    self.schema.name,
                    col.data_type,
                    value.type_name()
                )));
            }
        }
        Ok(())
    }

    /// Validate a row and coerce its values to the declared column types
    /// (e.g. a `'2016-07-04'` string into a `DATE` column).
    fn coerce_row(&self, row: Row) -> Result<Row> {
        self.validate_row(&row)?;
        row.into_iter()
            .zip(&self.schema.columns)
            .map(|(v, c)| {
                if v.is_null() {
                    Ok(v)
                } else {
                    v.cast(c.data_type)
                }
            })
            .collect()
    }

    /// Validate and coerce a whole batch without inserting it; fails on the
    /// first invalid row.  The result is what [`Table::append`] takes, so a
    /// caller that needs the stored form of the rows before they are stored
    /// (index maintenance, bound checks) coerces once.
    pub fn coerce_batch(&self, rows: Vec<Row>) -> Result<CoercedBatch> {
        Ok(CoercedBatch {
            table: self.schema.name.clone(),
            rows: rows
                .into_iter()
                .map(|r| self.coerce_row(r))
                .collect::<Result<_>>()?,
        })
    }

    /// Append a coerced batch, returning the physical ids of its rows.
    ///
    /// # Panics
    /// If the batch was coerced against a different table.
    pub fn append(&mut self, batch: CoercedBatch) -> Range<usize> {
        assert_eq!(
            batch.table, self.schema.name,
            "batch coerced against another table"
        );
        let first = self.len;
        for row in batch.rows {
            self.push_row(row);
        }
        first..self.len
    }

    /// Insert one row, coercing values to the declared column types.
    /// Returns the physical row id.
    pub fn insert(&mut self, row: Row) -> Result<usize> {
        let row = self.coerce_row(row)?;
        Ok(self.push_row(row))
    }

    /// Store one coerced row at the end of the table.
    fn push_row(&mut self, row: Row) -> usize {
        let id = self.len;
        // The spine clones its segment *handles* when shared.  The tail
        // segment takes the row only if no other table can see it and it is
        // not full; a shared tail is left as it is, whatever its size.
        let segments = Arc::make_mut(&mut self.segments);
        let tail = segments
            .last_mut()
            .and_then(|seg| Arc::get_mut(&mut seg.rows))
            .filter(|rows| rows.len() < SEGMENT_ROWS);
        match tail {
            Some(rows) => rows.push(row),
            None => {
                segments.push(Segment {
                    start: id,
                    rows: Arc::new(vec![row]),
                });
                self.copied.segments_opened += 1;
            }
        }
        self.len += 1;
        merge_tail(segments, &mut self.copied);
        id
    }

    /// Insert many rows; stops at the first invalid row.
    pub fn insert_many(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let mut n = 0;
        for r in rows {
            self.insert(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Delete all rows matching `predicate`, returning the removed rows with
    /// their former physical ids (useful for incremental index maintenance).
    ///
    /// Every row is tested, but only segments containing a match are
    /// rebuilt; the rest keep their shared storage (their start ids are
    /// renumbered, which costs nothing but the segment handle).
    pub fn delete_where(&mut self, mut predicate: impl FnMut(&Row) -> bool) -> Vec<(usize, Row)> {
        let mut removed = Vec::new();
        let segments = Arc::make_mut(&mut self.segments);
        for seg in std::mem::take(segments) {
            let matches: Vec<usize> = seg
                .rows
                .iter()
                .enumerate()
                .filter(|(_, r)| predicate(r))
                .map(|(i, _)| i)
                .collect();
            let rows = if matches.is_empty() {
                seg.rows
            } else {
                let mut kept = Vec::with_capacity(seg.rows.len() - matches.len());
                let mut matched = matches.into_iter().peekable();
                let mut sort = |i: usize, row: Row| match matched.next_if_eq(&i) {
                    Some(_) => removed.push((seg.start + i, row)),
                    None => kept.push(row),
                };
                match Arc::try_unwrap(seg.rows) {
                    Ok(rows) => rows.into_iter().enumerate().for_each(|(i, r)| sort(i, r)),
                    Err(shared) => {
                        shared
                            .iter()
                            .enumerate()
                            .for_each(|(i, r)| sort(i, r.clone()));
                        self.copied.rows_copied += kept.len() as u64;
                    }
                }
                Arc::new(kept)
            };
            if rows.is_empty() {
                continue;
            }
            let start = segments.last().map_or(0, Segment::end);
            segments.push(Segment { start, rows });
            merge_tail(segments, &mut self.copied);
        }
        self.len = segments.last().map_or(0, Segment::end);
        removed
    }

    /// Project a row id onto the given column names.
    pub fn project_row(&self, id: usize, columns: &[String]) -> Result<Row> {
        let idx = self.schema.resolve_columns(columns)?;
        let row = self
            .row(id)
            .ok_or_else(|| BeasError::storage(format!("row id {id} out of bounds")))?;
        Ok(idx.iter().map(|&i| row[i].clone()).collect())
    }

    /// Iterate over `(row_id, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.segments.iter().flat_map(|s| {
            s.rows
                .iter()
                .enumerate()
                .map(move |(i, r)| (s.start + i, r))
        })
    }

    /// Iterate over all rows in physical-id order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &Row> {
        self.segments.iter().flat_map(|s| s.rows.iter())
    }

    /// The table's segments as row slices, in physical-id order.
    pub fn segment_slices(&self) -> impl Iterator<Item = &[Row]> {
        self.segments.iter().map(|s| s.rows.as_slice())
    }

    /// Number of storage segments (diagnostic; tests and benches use it to
    /// observe sharing behaviour).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of segments whose row storage is physically shared (same
    /// allocation) with `other` — the structural-sharing diagnostic used by
    /// snapshot tests.
    pub fn shared_segment_count(&self, other: &Table) -> usize {
        self.segments
            .iter()
            .filter(|s| other.segments.iter().any(|o| Arc::ptr_eq(&s.rows, &o.rows)))
            .count()
    }

    /// Running totals of the copy-on-write work this table (and the clones
    /// it descends from) has done: segments opened and merged, rows
    /// deep-copied out of shared segments.
    pub fn copy_stats(&self) -> CopyStats {
        self.copied
    }

    /// Slice the table into morsels of at most `morsel_rows` rows, in
    /// physical-id order.  Each morsel lies inside one segment, so for
    /// append-built tables (segment size = [`SEGMENT_ROWS`] =
    /// [`MORSEL_ROWS`]) the slicing is identical to chunking one contiguous
    /// row vector.
    pub fn morsel_slices(&self, morsel_rows: usize) -> Vec<&[Row]> {
        let morsel_rows = morsel_rows.max(1);
        let mut out = Vec::new();
        for seg in self.segments.iter() {
            let rows = seg.rows.as_slice();
            let mut i = 0;
            while i < rows.len() {
                let end = (i + morsel_rows).min(rows.len());
                out.push(&rows[i..end]);
                i = end;
            }
        }
        out
    }

    /// Rough size of the table in bytes (used for storage-budget accounting
    /// during access-schema discovery).
    pub fn estimated_bytes(&self) -> usize {
        self.rows_iter()
            .map(|r| r.iter().map(estimated_value_bytes).sum::<usize>())
            .sum()
    }

    /// Validate the table's structural invariants.  O(rows) — compiled only
    /// into debug builds and `--features validate` builds; tests call it
    /// after every mutation step.
    ///
    /// Checks:
    /// 1. segment `start` ids are contiguous and monotone (physical ids are
    ///    dense positions),
    /// 2. no segment is empty or larger than [`SEGMENT_ROWS`],
    /// 3. no two adjacent segments are left that the merge rule would join
    ///    (which is what bounds the segment count),
    /// 4. `len` equals the sum of segment lengths,
    /// 5. every stored row still validates against the schema (arity, types,
    ///    NULLability) — insertion coerces, so storage must be well-typed.
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |msg: String| {
            Err(BeasError::storage(format!(
                "table {:?} invariant violated: {msg}",
                self.schema.name
            )))
        };
        let mut next_start = 0usize;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.start != next_start {
                return fail(format!(
                    "segment {i} starts at {} but previous rows end at {next_start}",
                    seg.start
                ));
            }
            if seg.rows.is_empty() {
                return fail(format!("segment {i} is empty"));
            }
            if seg.rows.len() > SEGMENT_ROWS {
                return fail(format!(
                    "segment {i} holds {} rows, over the {SEGMENT_ROWS} seal limit",
                    seg.rows.len()
                ));
            }
            next_start += seg.rows.len();
        }
        for (i, pair) in self.segments.windows(2).enumerate() {
            let (left, right) = (pair[0].rows.len(), pair[1].rows.len());
            if mergeable(left, right) {
                return fail(format!(
                    "segments {i} and {} ({left} and {right} rows) were left unmerged",
                    i + 1
                ));
            }
        }
        if self.len != next_start {
            return fail(format!(
                "cached len {} != {} rows stored in segments",
                self.len, next_start
            ));
        }
        for (id, row) in self.iter() {
            if let Err(e) = self.validate_row(row) {
                return fail(format!("stored row {id} fails schema validation: {e}"));
            }
        }
        Ok(())
    }
}

/// Merge the last two segments while the merge rule joins them, so that
/// once a spine has no mergeable pair, pushing one segment keeps it so.
/// Rows of a segment another table still sees are deep-copied (and
/// counted); rows this table owns alone are moved.
fn merge_tail(segments: &mut Vec<Segment>, copied: &mut CopyStats) {
    while let [.., left, right] = segments.as_slice() {
        if !mergeable(left.rows.len(), right.rows.len()) {
            return;
        }
        let right = segments.pop().expect("matched two segments");
        let left = segments.pop().expect("matched two segments");
        let mut take = |rows: Arc<Vec<Row>>| {
            Arc::try_unwrap(rows).unwrap_or_else(|shared| {
                copied.rows_copied += shared.len() as u64;
                shared.as_ref().clone()
            })
        };
        let mut rows = take(left.rows);
        rows.extend(take(right.rows));
        segments.push(Segment {
            start: left.start,
            rows: Arc::new(rows),
        });
        copied.segments_merged += 1;
    }
}

/// Rough in-memory footprint of one value, in bytes.
pub fn estimated_value_bytes(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Bool(_) => 1,
        Value::Date(_) => 8,
        Value::Str(s) => 24 + s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::ColumnDef;

    fn schema() -> TableSchema {
        TableSchema::new(
            "call",
            vec![
                ColumnDef::new("pnum", DataType::Str),
                ColumnDef::new("date", DataType::Date),
                ColumnDef::nullable("duration", DataType::Int),
            ],
        )
        .unwrap()
    }

    fn int_table(rows: usize) -> Table {
        let mut t =
            Table::new(TableSchema::new("t", vec![ColumnDef::new("x", DataType::Int)]).unwrap());
        t.insert_many((0..rows as i64).map(|i| vec![Value::Int(i)]))
            .unwrap();
        t
    }

    #[test]
    fn insert_and_scan() {
        let mut t = Table::new(schema());
        assert!(t.is_empty());
        let id = t
            .insert(vec![
                Value::str("123"),
                Value::str("2016-07-04"),
                Value::Int(60),
            ])
            .unwrap();
        assert_eq!(id, 0);
        assert_eq!(t.row_count(), 1);
        // date string was coerced into a Date value
        assert_eq!(t.row(0).unwrap()[1].data_type(), Some(DataType::Date));
        assert_eq!(t.iter().count(), 1);
        assert_eq!(t.name(), "call");
    }

    #[test]
    fn validation_errors() {
        let mut t = Table::new(schema());
        // wrong arity
        assert!(t.insert(vec![Value::str("123")]).is_err());
        // wrong type
        assert!(t
            .insert(vec![Value::Int(1), Value::str("2016-07-04"), Value::Int(1)])
            .is_err());
        // NULL in non-nullable
        assert!(t
            .insert(vec![Value::Null, Value::str("2016-07-04"), Value::Int(1)])
            .is_err());
        // NULL in nullable is fine
        assert!(t
            .insert(vec![Value::str("1"), Value::str("2016-07-04"), Value::Null])
            .is_ok());
        // invalid date literal is a cast error
        assert!(t
            .insert(vec![Value::str("1"), Value::str("not-a-date"), Value::Null])
            .is_err());
    }

    #[test]
    fn insert_many_and_delete_where() {
        let mut t = Table::new(schema());
        let n = t
            .insert_many((0..10).map(|i| {
                vec![
                    Value::str(format!("p{i}")),
                    Value::str("2016-07-04"),
                    Value::Int(i),
                ]
            }))
            .unwrap();
        assert_eq!(n, 10);
        let removed = t.delete_where(|r| r[2].as_int().unwrap() % 2 == 0);
        assert_eq!(removed.len(), 5);
        assert_eq!(t.row_count(), 5);
        assert!(t.rows_iter().all(|r| r[2].as_int().unwrap() % 2 == 1));
    }

    #[test]
    fn project_row_by_names() {
        let mut t = Table::new(schema());
        t.insert(vec![
            Value::str("123"),
            Value::str("2016-07-04"),
            Value::Int(9),
        ])
        .unwrap();
        let p = t
            .project_row(0, &["duration".into(), "pnum".into()])
            .unwrap();
        assert_eq!(p, vec![Value::Int(9), Value::str("123")]);
        assert!(t.project_row(5, &["pnum".into()]).is_err());
        assert!(t.project_row(0, &["nope".into()]).is_err());
    }

    #[test]
    fn estimated_bytes_grows_with_rows() {
        let mut t = Table::new(schema());
        let empty = t.estimated_bytes();
        t.insert(vec![
            Value::str("12345678"),
            Value::str("2016-07-04"),
            Value::Int(1),
        ])
        .unwrap();
        assert!(t.estimated_bytes() > empty);
    }

    #[test]
    fn segments_seal_at_segment_rows_and_ids_stay_stable() {
        let rows = 2 * SEGMENT_ROWS + 7;
        let t = int_table(rows);
        assert_eq!(t.segment_count(), 3);
        assert_eq!(t.row_count(), rows);
        for id in [
            0,
            1,
            SEGMENT_ROWS - 1,
            SEGMENT_ROWS,
            2 * SEGMENT_ROWS,
            rows - 1,
        ] {
            assert_eq!(t.row(id).unwrap()[0], Value::Int(id as i64));
        }
        assert!(t.row(rows).is_none());
        // iter covers everything in id order
        let ids: Vec<usize> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0..rows).collect::<Vec<_>>());
    }

    #[test]
    fn clone_shares_segments_and_writes_do_not_leak_across() {
        let mut t = int_table(2 * SEGMENT_ROWS + 7);
        let snapshot = t.clone();
        assert_eq!(snapshot.shared_segment_count(&t), 3);

        // appending leaves the shared tail alone and opens a segment behind
        // it; the second append goes into that private segment
        let before = t.copy_stats();
        t.insert(vec![Value::Int(-1)]).unwrap();
        t.insert(vec![Value::Int(-2)]).unwrap();
        assert_eq!(snapshot.shared_segment_count(&t), 3);
        assert_eq!(t.segment_count(), 4);
        assert_eq!(
            t.copy_stats() - before,
            CopyStats {
                segments_opened: 1,
                ..CopyStats::default()
            }
        );
        assert_eq!(snapshot.row_count(), 2 * SEGMENT_ROWS + 7);
        assert!(snapshot.row(2 * SEGMENT_ROWS + 7).is_none());
        assert_eq!(t.row(2 * SEGMENT_ROWS + 8).unwrap()[0], Value::Int(-2));

        // deleting from the middle rebuilds only the segment that matched
        let removed = t.delete_where(|r| r[0] == Value::Int(SEGMENT_ROWS as i64));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].0, SEGMENT_ROWS);
        assert_eq!(snapshot.shared_segment_count(&t), 2);
        assert_eq!(t.row_count(), 2 * SEGMENT_ROWS + 8);
        // physical ids compacted: the row after the hole shifted down
        assert_eq!(
            t.row(SEGMENT_ROWS).unwrap()[0],
            Value::Int(SEGMENT_ROWS as i64 + 1)
        );
        // the snapshot still sees the original contents
        assert_eq!(
            snapshot.row(SEGMENT_ROWS).unwrap()[0],
            Value::Int(SEGMENT_ROWS as i64)
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn batches_on_forks_merge_geometrically_and_never_copy_a_large_tail() {
        // 1000 rows in the tail, then 64 batches of 32 rows, each landing on
        // a table whose every segment a snapshot still holds
        let (tail, batch, rounds) = (1000usize, 32usize, 64usize);
        let mut t = int_table(SEGMENT_ROWS + tail);
        let base = t.copy_stats();
        let mut snapshots = Vec::new();
        for round in 0..rounds {
            snapshots.push(t.clone());
            let before = t.copy_stats();
            let rows = (0..batch).map(|i| vec![Value::Int(-((round * batch + i) as i64))]);
            let ids = t.append(t.coerce_batch(rows.collect()).unwrap());
            assert_eq!(ids.len(), batch);
            t.check_invariants().unwrap();
            // while the batches together weigh less than half the 1000-row
            // tail they found, no batch copies it: at most the rows earlier
            // batches brought in are copied again
            let copied = (t.copy_stats() - before).rows_copied as usize;
            if (round + 1) * batch < tail / 2 {
                assert!(copied <= round * batch, "round {round} copied {copied}");
            }
        }
        // over all rounds each row was copied O(log) times
        let copied = (t.copy_stats() - base).rows_copied as usize;
        let log = (rounds * batch).ilog2() as usize + 1;
        assert!(
            copied <= (tail + rounds * batch) * log,
            "{copied} rows copied"
        );
        assert!(
            t.segment_count() <= 2 + log,
            "{} segments",
            t.segment_count()
        );
        assert_eq!(t.row_count(), SEGMENT_ROWS + tail + rounds * batch);
        // every snapshot still reads exactly the rows it was taken with
        for (round, snapshot) in snapshots.iter().enumerate() {
            assert_eq!(snapshot.row_count(), SEGMENT_ROWS + tail + round * batch);
            snapshot.check_invariants().unwrap();
        }
        assert_eq!(
            t.row(SEGMENT_ROWS + tail).unwrap()[0],
            Value::Int(0),
            "ids stay dense across merges"
        );
    }

    #[test]
    fn unshared_segments_are_merged_and_pruned_by_moving_rows() {
        let mut t = int_table(3000);
        let before = t.copy_stats();
        t.delete_where(|r| r[0].as_int().unwrap() % 3 == 0);
        t.insert_many((0..3000).map(|i| vec![Value::Int(-i)]))
            .unwrap();
        assert_eq!((t.copy_stats() - before).rows_copied, 0);
        assert_eq!(t.segment_count(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn morsel_slices_cover_all_rows_in_order() {
        let rows = SEGMENT_ROWS + 10;
        let t = int_table(rows);
        for morsel_rows in [1, 7, SEGMENT_ROWS, 10 * SEGMENT_ROWS] {
            let slices = t.morsel_slices(morsel_rows);
            assert!(slices.iter().all(|s| s.len() <= morsel_rows));
            let flat: Vec<i64> = slices
                .iter()
                .flat_map(|s| s.iter().map(|r| r[0].as_int().unwrap()))
                .collect();
            assert_eq!(flat, (0..rows as i64).collect::<Vec<_>>());
        }
        // the single-segment case chunks exactly like a contiguous vector
        let small = int_table(20);
        assert_eq!(small.morsel_slices(8).len(), 3);
        assert_eq!(small.morsel_slices(0).len(), 20); // clamped to 1
    }

    #[test]
    fn delete_where_on_multi_segment_table_renumbers_contiguously() {
        let mut t = int_table(2 * SEGMENT_ROWS);
        // drop every second row of the FIRST segment only
        let removed = t.delete_where(|r| {
            r[0].as_int().unwrap() < SEGMENT_ROWS as i64 && r[0].as_int().unwrap() % 2 == 0
        });
        assert_eq!(removed.len(), SEGMENT_ROWS / 2);
        assert_eq!(t.row_count(), 2 * SEGMENT_ROWS - SEGMENT_ROWS / 2);
        // ids are dense again: every id in range resolves, none beyond
        let ids: Vec<usize> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0..t.row_count()).collect::<Vec<_>>());
        assert!(t.row(t.row_count()).is_none());
        // and a full delete empties the table
        let removed = t.delete_where(|_| true);
        assert_eq!(removed.len(), 2 * SEGMENT_ROWS - SEGMENT_ROWS / 2);
        assert!(t.is_empty());
        assert_eq!(t.segment_count(), 0);
    }

    #[test]
    fn a_delete_that_shrinks_segments_merges_them() {
        let mut t = int_table(3 * SEGMENT_ROWS);
        let snapshot = t.clone();
        // keep one row in sixteen: three 1024-row remnants fit one segment
        t.delete_where(|r| r[0].as_int().unwrap() % 16 != 0);
        assert_eq!(t.row_count(), 3 * SEGMENT_ROWS / 16);
        assert_eq!(t.segment_count(), 1);
        t.check_invariants().unwrap();
        let kept: Vec<i64> = t.rows_iter().map(|r| r[0].as_int().unwrap()).collect();
        let expected: Vec<i64> = (0..3 * SEGMENT_ROWS as i64).step_by(16).collect();
        assert_eq!(kept, expected);
        assert_eq!(snapshot.row_count(), 3 * SEGMENT_ROWS);
    }
}
